/**
 * @file
 * Memory-controller tests for the AMB-prefetching path: the 33 ns hit
 * latency, region group fetches (which lines ride them, and the
 * 15-line cap past K = 16), in-flight hits, write invalidation,
 * APFL mode, and the DRAM operation accounting the power model uses.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"

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
        c.prefetch = PrefetchConfig{true, PrefetchPlace::Amb, entries,
                                    ways};
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

    /** A read of @p addr mapped by @p map_k, for tests that run a
     *  controller at a K other than the fixture's. */
    static TransPtr
    readAtK(const AddressMap &map_k, Addr addr)
    {
        auto t = makeTransaction();
        t->cmd = MemCmd::Read;
        t->lineAddr = lineAlign(addr);
        t->coord = map_k.map(addr);
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

TEST_F(ControllerApTest, GroupFetchCarriesTheOtherRegionLinesAscending)
{
    // The paper's scheme: a miss fetches every line of its region but
    // the demanded one, and they enter the buffer in ascending order
    // (issueRead re-orders only the CAS walk).
    for (unsigned k : {2u, 4u, 8u}) {
        EventQueue eq_k;
        const AddressMap map_k(mapCfg(k));
        MemController mc("mc", &eq_k, apCfg(k));
        const Addr base = static_cast<Addr>(3 * k) * lineBytes;
        const Addr demand = base + static_cast<Addr>(k / 2) * lineBytes;
        TransPtr t = readAtK(map_k, demand);
        const Transaction *raw = t.get();
        mc.push(std::move(t));  // plans the group fetch

        ASSERT_EQ(raw->coord.regionBase, base) << "K=" << k;
        ASSERT_EQ(raw->nPfLines, k - 1) << "K=" << k;
        EXPECT_EQ(raw->groupLines, k) << "K=" << k;
        unsigned j = 0;
        for (unsigned off = 0; off < k; ++off) {
            const Addr la = base + static_cast<Addr>(off) * lineBytes;
            if (la != demand) {
                EXPECT_EQ(raw->pfLines[j++], la) << "K=" << k;
            }
        }

        eq_k.run();
        EXPECT_EQ(mc.dramOps().actPre, 1u) << "K=" << k;
        EXPECT_EQ(mc.dramOps().rdCas, k) << "K=" << k;
        EXPECT_EQ(mc.prefetchTable()->prefetchesIssued(), k - 1);
        EXPECT_EQ(mc.prefetchTable()->droppedCandidates(), 0u);
    }
}

TEST_F(ControllerApTest, RegionPastSixteenLinesCarriesFifteenAndDropsTheRest)
{
    // K = 32 divides a 128-line row, but one group carries at most
    // Transaction::maxPrefetchLines: the 15 lowest other lines ride
    // the activation and the other 16 are counted as dropped.
    constexpr unsigned k = 32;
    const AddressMap map_k(mapCfg(k));
    MemController mc("mc", &eq, apCfg(k));
    const Addr demand = 5 * lineBytes;
    TransPtr t = readAtK(map_k, demand);
    const Transaction *raw = t.get();
    mc.push(std::move(t));

    ASSERT_EQ(raw->nPfLines, Transaction::maxPrefetchLines);
    EXPECT_EQ(raw->groupLines, 16u);
    unsigned j = 0;
    for (unsigned off = 0; off <= 15; ++off) {
        if (off != 5) {
            EXPECT_EQ(raw->pfLines[j++],
                      static_cast<Addr>(off) * lineBytes);
        }
    }

    eq.run();
    EXPECT_EQ(mc.dramOps().actPre, 1u);
    EXPECT_EQ(mc.dramOps().rdCas, 16u);
    EXPECT_EQ(mc.prefetchTable()->prefetchesIssued(), 15u);
    EXPECT_EQ(mc.prefetchTable()->droppedCandidates(), 16u);
}

TEST_F(ControllerApTest, RunResultCountsLinesPastTheGroupCap)
{
    // The same cap seen end to end: every K = 32 group fetch (misses
    // and hit conversions alike) inserts 15 lines and drops 16.
    SystemConfig c = SystemConfig::fbdAp();
    c.regionLines = 32;
    c.benchmarks = {"swim", "mgrid"};
    c.warmupInsts = 2000;
    c.measureInsts = 8000;
    const RunResult r = System(c).run();
    ASSERT_GT(r.prefetch.issued, 0u);
    EXPECT_EQ(r.prefetch.issued % 15, 0u);
    EXPECT_EQ(r.prefetch.dropped, r.prefetch.issued / 15 * 16);

    c.regionLines = 16;
    EXPECT_EQ(System(c).run().prefetch.dropped, 0u) << "K=16 fits";
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
