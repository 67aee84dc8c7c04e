/**
 * @file
 * The paper's idle read latencies as the *core* sees them.
 *
 * One core replays a three-op trace on an otherwise idle machine: the
 * functional warm-up consumes the first op, the second is the one
 * timed load, and the third lies a million instructions later, past
 * the end of the run.  The tracer brackets that load in the cache
 * hierarchy: the L2 "miss" instant marks the request leaving the L2,
 * the "fill" instant carries the controller's completion tick, and
 * the MSHR occupancy sample written right after the fill is the tick
 * at which the hierarchy (and the waiting core) receives the data.
 *
 * The controller-level idle latency is measured exactly as
 * test_controller's FbdIdleReadLatencyIs63ns and
 * Ddr2IdleReadLatencyIs57ns do (one read into an idle controller), at
 * the run's data rate.  Today the core sees that latency plus exactly
 * one memory-cycle frame: System hands every completion to the core
 * one frame after the controller finished it.  A model fix that
 * delivers completions at completedAt changes "plus one frame" to
 * "plus zero" here.
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

/** Ticks from sending one read of @p addr to an idle controller of
 *  @p cfg's machine until the controller completes it. */
Tick
controllerIdleLatency(const SystemConfig &cfg, Addr addr)
{
    EventQueue eq;
    const AddressMap map(cfg.addressMapConfig());
    MemController mc("mc", &eq, cfg.controllerConfig());
    std::vector<Tick> done;
    auto t = makeTransaction();
    t->cmd = MemCmd::Read;
    t->lineAddr = lineAlign(addr);
    t->coord = map.map(addr);
    t->created = eq.now();
    t->onComplete = [d = &done](Tick when) { d->push_back(when); };
    mc.push(std::move(t));
    eq.run();
    EXPECT_EQ(done.size(), 1u);
    return done.empty() ? 0 : done[0];
}

/** Where the cache hierarchy saw the timed load. */
struct CoreSide
{
    Tick miss = 0;   ///< request left the L2
    Tick fill = 0;   ///< controller completion tick, as delivered
    Tick seen = 0;   ///< tick the hierarchy received the data
};

CoreSide
observeTimedLoad(SystemConfig cfg)
{
    const std::string path =
        ::testing::TempDir() + "core_latency_"
        + std::to_string(cfg.dataRate) + (cfg.fbd ? "_fbd" : "_ddr2")
        + ".txt";
    {
        std::ofstream os(path);
        os << "0 L 0\n"
           << "0 L " << std::hex << timedLine << "\n"
           << std::dec << "1000000 L 0\n";
    }
    cfg.benchmarks = {"trace:" + path};
    cfg.functionalWarmupOps = 1;
    cfg.warmupInsts = 1'000;
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

TEST_P(CoreLatencyTest, IdleReadIsControllerLatencyPlusOneFrame)
{
    const auto [fbd, rate] = GetParam();
    SystemConfig cfg = fbd ? SystemConfig::fbdBase() : SystemConfig::ddr2();
    cfg.dataRate = rate;
    cfg.refreshEnable = false;
    const Tick frame = cfg.controllerConfig().timing.memCycle;
    const Tick ctrl = controllerIdleLatency(cfg, timedLine);
    if (rate == 667) {
        EXPECT_EQ(ctrl, nsToTicks(fbd ? 63 : 57));
    }

    const CoreSide cs = observeTimedLoad(cfg);
    EXPECT_EQ(cs.fill - cs.miss, ctrl);
    EXPECT_EQ(cs.seen - cs.miss, ctrl + frame);
}

INSTANTIATE_TEST_SUITE_P(
    MachinesAndRates, CoreLatencyTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(533u, 667u, 800u)));

} // namespace
} // namespace fbdp
