/**
 * @file
 * Randomised stress tests of the memory controller: thousands of
 * mixed reads/writes with random addresses and arrival times, on
 * every controller flavour.  Checks liveness (every read completes),
 * conservation (operation accounting adds up) and monotone latency
 * sanity.  This is the failure-injection net for the scheduler.
 *
 * Each flavour also pins its exact schedule: an FNV-1a digest over
 * every transaction's completion (arrival index, completion tick,
 * prefetch-buffer service bit, in completion order) and the DRAM
 * operation counts.  A scheduler change that reorders any command
 * moves the digest; a pure speed-up must not.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "sim/event_queue.hh"

namespace fbdp {
namespace {

struct Flavour
{
    const char *name;
    bool fbd;
    bool ap;
    bool open_page;
    bool vrl;
    unsigned ways;
    /** Schedule digest (see the file comment). */
    std::uint64_t digest;
    bool mc = false;             ///< MC-buffer prefetching
    unsigned drainHigh = 16;
    unsigned drainLow = 4;
    unsigned queue = 64;
};

/** FNV-1a over the bytes of @p v, folded into @p h. */
void
fnv(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

class ControllerStress : public ::testing::TestWithParam<Flavour>
{
};

TEST_P(ControllerStress, RandomTrafficAllCompletes)
{
    const Flavour f = GetParam();

    EventQueue eq;
    AddressMapConfig mc_cfg;
    mc_cfg.channels = 1;
    mc_cfg.dimmsPerChannel = 4;
    mc_cfg.banksPerDimm = 4;
    mc_cfg.regionLines = 4;
    mc_cfg.scheme = f.open_page
        ? Interleave::Page
        : (f.ap || f.mc ? Interleave::MultiCacheline
                        : Interleave::Cacheline);
    AddressMap map(mc_cfg);

    ControllerConfig cfg;
    cfg.fbd = f.fbd;
    if (!f.fbd)
        cfg.cmdDelay = nsToTicks(3) + 2 * cfg.timing.memCycle;
    if (f.ap)
        cfg.prefetch.enabled = true;
    if (f.mc)
        cfg.prefetch = PrefetchConfig::parse("region,place=mc");
    cfg.prefetch.ways = f.ways;
    cfg.openPage = f.open_page;
    cfg.vrl = f.vrl;
    cfg.writeDrainHigh = f.drainHigh;
    cfg.writeDrainLow = f.drainLow;
    cfg.queueSize = f.queue;
    MemController mc("mc", &eq, cfg);

    Rng rng(0xface + f.fbd + 2 * f.ap + 4 * f.open_page + 8 * f.mc
            + 16 * (f.queue != 64) + 32 * (f.drainHigh != 16));
    const unsigned n = 3000;
    unsigned reads_sent = 0, writes_sent = 0;
    std::vector<Tick> completions;
    std::uint64_t digest = 0xcbf29ce484222325ull;

    // Inject bursts with random spacing, running the queue between
    // bursts (mix of hot regions for conflicts and far addresses).
    unsigned injected = 0;
    Tick when = 0;
    while (injected < n) {
        const unsigned burst = 1 + rng.below(6);
        for (unsigned b = 0; b < burst && injected < n; ++b) {
            ++injected;
            auto t = makeTransaction();
            const bool is_read = rng.chance(0.7);
            t->cmd = is_read ? MemCmd::Read : MemCmd::Write;
            Addr addr = rng.chance(0.5)
                ? rng.below(512) * lineBytes
                : rng.below(1u << 20) * lineBytes;
            t->lineAddr = lineAlign(addr);
            t->coord = map.map(addr);
            t->created = eq.now();
            const Transaction *raw = t.get();
            if (is_read) {
                ++reads_sent;
                t->onComplete = [&completions, &digest, raw](Tick w) {
                    completions.push_back(w);
                    fnv(digest, raw->mcSeq);
                    fnv(digest, w);
                    fnv(digest, raw->bufServed);
                };
            } else {
                ++writes_sent;
                t->onComplete = [&digest, raw](Tick w) {
                    fnv(digest, raw->mcSeq);
                    fnv(digest, w);
                };
            }
            mc.push(std::move(t));
        }
        when = eq.now() + rng.below(nsToTicks(40));
        Event idle([] {});
        eq.schedule(&idle, when);
        eq.run(when);
    }
    eq.run();

    // Liveness: every read completed, controller fully drained.
    EXPECT_EQ(completions.size(), reads_sent) << f.name;
    EXPECT_EQ(mc.occupancy(), 0u) << f.name;
    EXPECT_EQ(mc.reads(), reads_sent);
    EXPECT_EQ(mc.writes(), writes_sent);

    // Completion times are plausible: nothing earlier than the
    // minimum possible latency.
    const Tick min_lat = cfg.fbd ? nsToTicks(33) : nsToTicks(36);
    for (size_t i = 0; i < completions.size(); ++i)
        ASSERT_GE(completions[i], min_lat);

    // Conservation: every line moved over the channel exactly once
    // (MC-buffer prefetches cross it too).
    const std::uint64_t demand_bytes =
        static_cast<std::uint64_t>(reads_sent + writes_sent) * lineBytes;
    if (f.mc)
        EXPECT_GT(mc.channelBytes(), demand_bytes);
    else
        EXPECT_EQ(mc.channelBytes(), demand_bytes);

    // DRAM accounting: without AP, close page issues exactly one
    // CAS per transaction.
    if (!f.ap && !f.mc && !f.open_page) {
        EXPECT_EQ(mc.dramOps().cas(), reads_sent + writes_sent);
        EXPECT_EQ(mc.dramOps().actPre, reads_sent + writes_sent);
    }
    if (f.ap || f.mc) {
        // Group fetches add K-1 extra CASes per miss; hits add none.
        EXPECT_GE(mc.dramOps().rdCas + mc.prefetchTable()->prefetchHits(),
                  reads_sent);
    }

    // The exact schedule.
    const DramOpCounts ops = mc.dramOps();
    fnv(digest, ops.actPre);
    fnv(digest, ops.rdCas);
    fnv(digest, ops.wrCas);
    fnv(digest, ops.refresh);
    EXPECT_EQ(digest, f.digest)
        << f.name << ": schedule digest 0x" << std::hex << digest;
}

/** One self-contained burst of mixed traffic (for the pool test). */
void
runBurst(std::uint64_t seed)
{
    EventQueue eq;
    AddressMapConfig mc_cfg;
    mc_cfg.channels = 1;
    mc_cfg.dimmsPerChannel = 4;
    mc_cfg.banksPerDimm = 4;
    mc_cfg.regionLines = 4;
    mc_cfg.scheme = Interleave::MultiCacheline;
    AddressMap map(mc_cfg);

    ControllerConfig cfg;
    cfg.fbd = true;
    cfg.prefetch.enabled = true;
    MemController mc("mc", &eq, cfg);

    Rng rng(seed);
    unsigned completions = 0;
    for (unsigned i = 0; i < 2000; ++i) {
        auto t = makeTransaction();
        const bool is_read = rng.chance(0.7);
        t->cmd = is_read ? MemCmd::Read : MemCmd::Write;
        const Addr addr = rng.below(1u << 16) * lineBytes;
        t->lineAddr = lineAlign(addr);
        t->coord = map.map(addr);
        t->created = eq.now();
        if (is_read)
            t->onComplete = [&completions](Tick) { ++completions; };
        mc.push(std::move(t));
        if ((i & 7u) == 0) {
            Event idle([] {});
            eq.schedule(&idle, eq.now() + rng.below(nsToTicks(40)));
            eq.run(eq.now() + nsToTicks(20));
        }
    }
    eq.run();
    EXPECT_EQ(mc.occupancy(), 0u);
    EXPECT_GT(completions, 0u);
}

TEST(TransPoolSteadyState, SecondPassAllocatesNothing)
{
    // First pass drives the in-flight population to its high-water
    // mark; the pool may carve chunks while getting there.
    runBurst(0xbeef);
    const TransPool::Stats snap = TransPool::local().stats();
    EXPECT_GT(snap.highWater, 0u);

    // Steady state: identical traffic must be served entirely from
    // the freelist — capacity frozen, every acquire a reuse.
    runBurst(0xbeef);
    const TransPool::Stats &st = TransPool::local().stats();
    EXPECT_EQ(st.capacity, snap.capacity)
        << "pool allocated in steady state";
    EXPECT_EQ(st.acquires - snap.acquires, st.reuses - snap.reuses)
        << "an acquire missed the freelist";

    // The pool never carves beyond one chunk past the high-water
    // population (chunk size 64).
    EXPECT_GE(st.capacity, st.highWater);
    EXPECT_LT(st.capacity, st.highWater + 64);
}

INSTANTIATE_TEST_SUITE_P(
    Flavours, ControllerStress,
    ::testing::Values(
        Flavour{"ddr2", false, false, false, false, 0,
                0xee2f43ac13b3276dull},
        Flavour{"fbd", true, false, false, false, 0,
                0x26605aa27f2b8d79ull},
        Flavour{"fbd_vrl", true, false, false, true, 0,
                0xfcfb640a6ce1bc47ull},
        Flavour{"fbd_open", true, false, true, false, 0,
                0x7b69778ca89708caull},
        Flavour{"fbd_ap_full", true, true, false, false, 0,
                0x57ac54278afc6110ull},
        Flavour{"fbd_ap_2way", true, true, false, false, 2,
                0x78adc7d4064f4a71ull},
        Flavour{"fbd_ap_direct", true, true, false, false, 1,
                0x3c467101fc4eb7cdull},
        Flavour{"fbd_ap_page", true, true, true, false, 0,
                0xf70c100d64ac2516ull},
        Flavour{"fbd_mc_buf", true, false, false, false, 0,
                0x40b24a10a1360e66ull, true},
        // Drain thresholds this low flip the write-drain mode often.
        Flavour{"fbd_drain_flip", true, false, false, false, 0,
                0x91b44a9caff2723aull, false, 3, 1},
        // A four-entry window keeps the overflow queue busy.
        Flavour{"fbd_queue4", true, false, false, false, 0,
                0xaf4f2a03034961d6ull, false, 16, 4, 4},
        Flavour{"ddr2_queue4", false, false, false, false, 0,
                0xa462cbb97b6d31a7ull, false, 16, 4, 4}),
    [](const ::testing::TestParamInfo<Flavour> &info) {
        return info.param.name;
    });

} // namespace
} // namespace fbdp
