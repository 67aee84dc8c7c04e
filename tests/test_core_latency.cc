/**
 * @file
 * The paper's idle read latencies as the *core* sees them.
 *
 * One core replays a short trace on an otherwise idle machine: the
 * functional warm-up consumes the first op, an optional primer load
 * comes next, then the one timed load, and the last op lies a million
 * instructions later, past the end of the run.  The tracer brackets
 * the timed load in the cache hierarchy: the L2 "miss" instant marks
 * the request leaving the L2, the "fill" instant carries the
 * controller's completion tick, and the MSHR occupancy sample written
 * right after the fill is the tick at which the hierarchy (and the
 * waiting core) receives the data.
 *
 * The controller-level idle latency is measured exactly as
 * test_controller's FbdIdleReadLatencyIs63ns and
 * Ddr2IdleReadLatencyIs57ns do (one read into an idle controller), at
 * the run's data rate.  The core sees exactly that latency: a
 * completion reaches the core at the controller's completedAt, and a
 * request reaches the controller at the tick the L2 sends it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"
#include "system/system.hh"

namespace fbdp {
namespace {

/** The timed load's address (core 0's slice starts at 0). */
constexpr Addr timedLine = 0x100000;

/** A load to the timed line's K-line region (FBD-AP fetches it with
 *  the group, so a later load of timedLine hits the AMB cache). */
constexpr Addr primerLine = timedLine + lineBytes;

/** Ticks from sending one read of @p addr to an idle controller of
 *  @p cfg's machine until the controller completes it.  With
 *  @p primed, a read of primerLine runs to completion first. */
Tick
controllerIdleLatency(const SystemConfig &cfg, Addr addr, bool primed)
{
    EventQueue eq;
    const AddressMap map(cfg.addressMapConfig());
    MemController mc("mc", &eq, cfg.controllerConfig());
    std::vector<Tick> done;
    auto read = [&](Addr a) {
        auto t = makeTransaction();
        t->cmd = MemCmd::Read;
        t->lineAddr = lineAlign(a);
        t->coord = map.map(a);
        t->created = eq.now();
        t->onComplete = [d = &done](Tick when) { d->push_back(when); };
        mc.push(std::move(t));
        eq.run();
    };
    if (primed)
        read(primerLine);
    const Tick sent = eq.now();
    read(addr);
    EXPECT_EQ(done.size(), primed ? 2u : 1u);
    return done.empty() ? 0 : done.back() - sent;
}

/** Where the cache hierarchy saw the timed load. */
struct CoreSide
{
    Tick miss = 0;   ///< request left the L2
    Tick fill = 0;   ///< controller completion tick, as delivered
    Tick seen = 0;   ///< tick the hierarchy received the data
};

/** With @p primed, a primerLine load comes first, then an L1 hit
 *  2,014 instructions later: the core reaches the timed load only
 *  after the primer's whole region fetch has landed in the AMB cache,
 *  and sends it on a memory-clock edge (the controller takes requests
 *  on its edges, so a miss between two would wait for the next).
 *  The warm-up ends when the core takes the final op's
 *  million-instruction gap, and the window 1,000 instructions after
 *  it, so the run lasts until the timed load has completed. */
CoreSide
observeTimedLoad(SystemConfig cfg, bool primed)
{
    const std::string path =
        ::testing::TempDir() + "core_latency_"
        + std::to_string(cfg.dataRate) + (cfg.fbd ? "_fbd" : "_ddr2")
        + (primed ? "_primed" : "") + ".txt";
    {
        std::ofstream os(path);
        os << std::hex << "0 L 0\n";
        if (primed)
            os << "0 L " << primerLine << "\n" << std::dec << "2014 L 0\n";
        os << std::hex << "0 L " << timedLine << "\n"
           << std::dec << "1000000 L 0\n";
    }
    cfg.benchmarks = {"trace:" + path};
    cfg.functionalWarmupOps = 1;
    cfg.warmupInsts = 10'000;
    cfg.measureInsts = 1'000;

    trace::Tracer tracer;
    {
        System sys(cfg);
        sys.attachTracer(&tracer);
        sys.run();
    }
    std::remove(path.c_str());

    const std::uint32_t l2 = tracer.track("l2");
    const std::uint32_t mshr = tracer.track("l2.mshr");
    const std::vector<trace::Record> recs = tracer.chronological();
    CoreSide cs;
    int misses = 0, fills = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const trace::Record &r = recs[i];
        if (r.track != l2 || r.addr != timedLine)
            continue;
        if (std::string(r.name) == "miss") {
            cs.miss = r.ts;
            ++misses;
        } else if (std::string(r.name) == "fill") {
            cs.fill = r.ts;
            ++fills;
            // fillComplete samples the MSHR occupancy right after the
            // fill, at the tick it runs.
            EXPECT_LT(i + 1, recs.size());
            if (i + 1 < recs.size()) {
                EXPECT_EQ(recs[i + 1].track, mshr);
                cs.seen = recs[i + 1].ts;
            }
        }
    }
    EXPECT_EQ(misses, 1);
    EXPECT_EQ(fills, 1);
    return cs;
}

/** (FB-DIMM?, data rate in MT/s). */
class CoreLatencyTest
    : public ::testing::TestWithParam<std::tuple<bool, unsigned>>
{
};

TEST_P(CoreLatencyTest, IdleReadIsControllerLatency)
{
    const auto [fbd, rate] = GetParam();
    SystemConfig cfg = fbd ? SystemConfig::fbdBase() : SystemConfig::ddr2();
    cfg.dataRate = rate;
    cfg.refreshEnable = false;
    const Tick ctrl = controllerIdleLatency(cfg, timedLine, false);
    if (rate == 667) {
        EXPECT_EQ(ctrl, nsToTicks(fbd ? 63 : 57));
    }

    const CoreSide cs = observeTimedLoad(cfg, false);
    EXPECT_EQ(cs.fill - cs.miss, ctrl);
    EXPECT_EQ(cs.seen, cs.fill);
    EXPECT_EQ(cs.seen - cs.miss, ctrl);
}

INSTANTIATE_TEST_SUITE_P(
    MachinesAndRates, CoreLatencyTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(533u, 667u, 800u)));

TEST(CoreLatency, FbdApAmbHitIs33ns)
{
    SystemConfig cfg = SystemConfig::fbdAp();
    cfg.refreshEnable = false;
    ASSERT_EQ(cfg.dataRate, 667u);
    EXPECT_EQ(controllerIdleLatency(cfg, timedLine, true),
              nsToTicks(33));

    const CoreSide cs = observeTimedLoad(cfg, true);
    ASSERT_EQ(cs.miss % cfg.controllerConfig().timing.memCycle, 0u);
    EXPECT_EQ(cs.seen, cs.fill);
    EXPECT_EQ(cs.seen - cs.miss, nsToTicks(33));
}

} // namespace
} // namespace fbdp
