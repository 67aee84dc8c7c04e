/**
 * @file
 * Memory-controller tests for the AMB-prefetching path: the 33 ns hit
 * latency, region group fetches, in-flight hits, write invalidation,
 * APFL mode, and the DRAM operation accounting the power model uses.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "sim/event_queue.hh"

namespace fbdp {
namespace {

class ControllerApTest : public ::testing::Test
{
  protected:
    ControllerApTest()
        : map(mapCfg())
    {
    }

    static AddressMapConfig
    mapCfg(unsigned k = 4)
    {
        AddressMapConfig mc;
        mc.channels = 1;
        mc.dimmsPerChannel = 4;
        mc.banksPerDimm = 4;
        mc.regionLines = k;
        mc.scheme = Interleave::MultiCacheline;
        return mc;
    }

    ControllerConfig
    apCfg(unsigned k = 4, unsigned entries = 64, unsigned ways = 0)
    {
        ControllerConfig c;
        c.fbd = true;
        c.regionLines = k;
        c.prefetch = PrefetchConfig{"region", PrefetchPlace::Amb, 0,
                                    entries, ways, 0.0};
        return c;
    }

    TransPtr
    makeRead(Addr addr, std::vector<Tick> *done = nullptr)
    {
        auto t = makeTransaction();
        t->cmd = MemCmd::Read;
        t->lineAddr = lineAlign(addr);
        t->coord = map.map(addr);
        t->created = eq.now();
        if (done)
            t->onComplete = [done](Tick w) { done->push_back(w); };
        return t;
    }

    TransPtr
    makeWrite(Addr addr)
    {
        auto t = makeTransaction();
        t->cmd = MemCmd::Write;
        t->lineAddr = lineAlign(addr);
        t->coord = map.map(addr);
        t->created = eq.now();
        return t;
    }

    EventQueue eq;
    AddressMap map;
};

TEST_F(ControllerApTest, FirstReadGroupFetches)
{
    MemController mc("mc", &eq, apCfg());
    std::vector<Tick> done;
    mc.push(makeRead(0, &done));
    eq.run();
    ASSERT_EQ(done.size(), 1u);
    // The demanded line still completes at the 63 ns idle latency;
    // the prefetched neighbours ride behind it.
    EXPECT_EQ(done[0], nsToTicks(63));
    EXPECT_EQ(mc.dramOps().actPre, 1u);
    EXPECT_EQ(mc.dramOps().rdCas, 4u) << "one ACT, four CASes";
    ASSERT_NE(mc.prefetchTable(), nullptr);
    EXPECT_EQ(mc.prefetchTable()->prefetchesIssued(), 3u);
}

TEST_F(ControllerApTest, SecondReadHitsAt33ns)
{
    MemController mc("mc", &eq, apCfg());
    std::vector<Tick> done;
    mc.push(makeRead(0, &done));
    eq.run();
    const Tick t0 = eq.now();
    mc.push(makeRead(lineBytes, &done));  // neighbour: AMB hit
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    // 12 controller + 3 command + 6 data + 12 AMB = 33 ns.
    EXPECT_EQ(done[1] - t0, nsToTicks(33));
    EXPECT_EQ(mc.prefetchTable()->prefetchHits(), 1u);
    EXPECT_EQ(mc.dramOps().actPre, 1u) << "hit touches no bank";
    EXPECT_EQ(mc.dramOps().rdCas, 4u);
}

TEST_F(ControllerApTest, ApflHitPaysFullLatencyButNoBankWork)
{
    ControllerConfig cfg = apCfg();
    cfg.apFullLatency = true;
    MemController mc("mc", &eq, cfg);
    std::vector<Tick> done;
    mc.push(makeRead(0, &done));
    eq.run();
    const Tick t0 = eq.now();
    mc.push(makeRead(lineBytes, &done));
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[1] - t0, nsToTicks(63)) << "APFL: miss latency";
    EXPECT_EQ(mc.dramOps().actPre, 1u) << "still no DRAM activity";
}

TEST_F(ControllerApTest, HitOnInFlightPrefetchWaitsForFill)
{
    MemController mc("mc", &eq, apCfg());
    std::vector<Tick> done;
    // Push the miss and the neighbour back to back: the neighbour
    // must coalesce onto the in-flight region fetch, not start a
    // second one.
    mc.push(makeRead(0, &done));
    mc.push(makeRead(lineBytes, &done));
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(mc.dramOps().actPre, 1u) << "one activation total";
    EXPECT_EQ(mc.dramOps().rdCas, 4u);
    EXPECT_EQ(mc.prefetchTable()->prefetchHits(), 1u);
    // The neighbour's data leaves the AMB only after its pipelined
    // CAS: later than the demanded line, earlier than a full access.
    EXPECT_GT(done[1], done[0]);
    EXPECT_LT(done[1], done[0] + nsToTicks(30));
}

TEST_F(ControllerApTest, AllRegionLinesHitAfterGroupFetch)
{
    MemController mc("mc", &eq, apCfg());
    std::vector<Tick> done;
    mc.push(makeRead(2 * lineBytes, &done));  // demand mid-region
    eq.run();
    for (unsigned i = 0; i < 4; ++i) {
        if (i == 2)
            continue;
        mc.push(makeRead(static_cast<Addr>(i) * lineBytes, &done));
        eq.run();
    }
    EXPECT_EQ(done.size(), 4u);
    EXPECT_EQ(mc.prefetchTable()->prefetchHits(), 3u);
    EXPECT_EQ(mc.prefetchTable()->coverage(), 0.75);
    EXPECT_EQ(mc.prefetchTable()->efficiency(), 1.0);
}

TEST_F(ControllerApTest, WriteInvalidatesPrefetchedLine)
{
    MemController mc("mc", &eq, apCfg());
    std::vector<Tick> done;
    mc.push(makeRead(0, &done));
    eq.run();
    mc.push(makeWrite(lineBytes));
    eq.run();
    EXPECT_EQ(mc.prefetchTable()->writeInvalidations(), 1u);
    const Tick t0 = eq.now();
    mc.push(makeRead(lineBytes, &done));
    eq.run();
    // The stale copy is gone: this is a fresh group fetch, not a hit.
    EXPECT_EQ(mc.prefetchTable()->prefetchHits(), 0u);
    EXPECT_GT(done.back() - t0, nsToTicks(33));
}

TEST_F(ControllerApTest, RegionSizeTwo)
{
    AddressMap map2(mapCfg(2));
    MemController mc("mc", &eq, apCfg(2));
    std::vector<Tick> done;
    auto rd = [&](Addr a) {
        auto t = makeTransaction();
        t->cmd = MemCmd::Read;
        t->lineAddr = lineAlign(a);
        t->coord = map2.map(a);
        t->onComplete = [&done](Tick w) { done.push_back(w); };
        mc.push(std::move(t));
        eq.run();
    };
    rd(0);
    rd(lineBytes);
    EXPECT_EQ(mc.dramOps().rdCas, 2u);
    EXPECT_EQ(mc.prefetchTable()->prefetchHits(), 1u);
}

TEST_F(ControllerApTest, CapacityPressureEvictsOldPrefetches)
{
    // Stream 40 more regions through DIMM 0's 64-line cache: the
    // prefetches of the very first region must be gone afterwards.
    MemController mc("mc", &eq, apCfg(4, 64, 1));
    std::vector<Tick> done;
    mc.push(makeRead(0, &done));
    eq.run();
    for (unsigned j = 1; j <= 40; ++j) {
        // Groups 4j land on DIMM 0 (4 DIMMs, one channel).
        mc.push(makeRead(static_cast<Addr>(16 * j) * lineBytes,
                         &done));
        eq.run();
    }
    const Tick t0 = eq.now();
    mc.push(makeRead(lineBytes, &done));  // evicted long ago
    eq.run();
    EXPECT_GT(done.back() - t0, nsToTicks(33));
}

TEST_F(ControllerApTest, LowerAssociativityNeverBeatsFull)
{
    // Sweep the same access pattern across associativities: hits can
    // only go down as conflicts appear.
    auto hits_with = [&](unsigned ways) {
        EventQueue local_eq;
        MemController mc("mc", &local_eq, apCfg(4, 64, ways));
        std::vector<Tick> done;
        Rng rng(99);
        for (unsigned i = 0; i < 400; ++i) {
            Addr a = rng.below(2048) * lineBytes;
            auto t = makeTransaction();
            t->cmd = MemCmd::Read;
            t->lineAddr = lineAlign(a);
            t->coord = map.map(a);
            t->onComplete = [&done](Tick w) { done.push_back(w); };
            mc.push(std::move(t));
            local_eq.run();
        }
        return mc.prefetchTable()->prefetchHits();
    };
    const std::uint64_t full = hits_with(0);
    const std::uint64_t four = hits_with(4);
    const std::uint64_t direct = hits_with(1);
    EXPECT_LE(direct, four + 5);
    EXPECT_LE(four, full + 5);
}

TEST_F(ControllerApTest, CoverageBoundHoldsUnderStreaming)
{
    MemController mc("mc", &eq, apCfg());
    std::vector<Tick> done;
    for (unsigned i = 0; i < 256; ++i) {
        mc.push(makeRead(static_cast<Addr>(i) * lineBytes, &done));
        eq.run();
    }
    EXPECT_EQ(done.size(), 256u);
    // Sequential sweep: exactly one miss per 4-line region.
    EXPECT_DOUBLE_EQ(mc.prefetchTable()->coverage(), 0.75);
    EXPECT_EQ(mc.dramOps().actPre, 64u);
    EXPECT_EQ(mc.dramOps().rdCas, 256u);
}

TEST_F(ControllerApTest, PrefetchFillsDoNotTouchChannelBytes)
{
    MemController mc("mc", &eq, apCfg());
    std::vector<Tick> done;
    mc.push(makeRead(0, &done));
    eq.run();
    // Only the demanded 64 bytes crossed the FB-DIMM channel.
    EXPECT_EQ(mc.channelBytes(), lineBytes);
}

} // namespace
} // namespace fbdp
