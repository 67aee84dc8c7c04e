/**
 * @file
 * Memory-controller tests without prefetching: exact idle latencies
 * (Section 3.1 / Section 5.2 of the paper), scheduling, write drains,
 * bank conflicts, both channel types.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "sim/event_queue.hh"

namespace fbdp {
namespace {

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerConfig
    fbdCfg()
    {
        ControllerConfig c;
        c.fbd = true;
        return c;
    }

    ControllerConfig
    ddr2Cfg()
    {
        ControllerConfig c;
        c.fbd = false;
        // Mirror SystemConfig::controllerConfig(): register + 2T.
        c.cmdDelay = nsToTicks(3) + 2 * c.timing.memCycle;
        return c;
    }

    AddressMapConfig
    mapCfg(Interleave s, unsigned k = 4)
    {
        AddressMapConfig mc;
        mc.channels = 1;
        mc.dimmsPerChannel = 4;
        mc.banksPerDimm = 4;
        mc.regionLines = k;
        mc.scheme = s;
        return mc;
    }

    TransPtr
    makeRead(const AddressMap &map, Addr addr,
             std::vector<Tick> *done = nullptr)
    {
        auto t = makeTransaction();
        t->cmd = MemCmd::Read;
        t->lineAddr = lineAlign(addr);
        t->coord = map.map(addr);
        t->created = eq.now();
        if (done)
            t->onComplete = [done](Tick when) {
                done->push_back(when);
            };
        return t;
    }

    TransPtr
    makeWrite(const AddressMap &map, Addr addr)
    {
        auto t = makeTransaction();
        t->cmd = MemCmd::Write;
        t->lineAddr = lineAlign(addr);
        t->coord = map.map(addr);
        t->created = eq.now();
        return t;
    }

    EventQueue eq;
};

TEST_F(ControllerTest, FbdIdleReadLatencyIs63ns)
{
    // 12 controller + 3 command + 15 ACT + 15 CAS + 6 data + 12 AMB
    // hops = 63 ns (Section 5.2).
    AddressMap map(mapCfg(Interleave::Cacheline));
    MemController mc("mc", &eq, fbdCfg());
    std::vector<Tick> done;
    mc.push(makeRead(map, 0, &done));
    eq.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], nsToTicks(63));
}

TEST_F(ControllerTest, Ddr2IdleReadLatencyIs57ns)
{
    // 12 controller + 9 command path (wire + register + 2T) + 15 ACT
    // + 15 CAS + 6 data = 57 ns.
    AddressMap map(mapCfg(Interleave::Cacheline));
    MemController mc("mc", &eq, ddr2Cfg());
    std::vector<Tick> done;
    mc.push(makeRead(map, 0, &done));
    eq.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], nsToTicks(57));
}

TEST_F(ControllerTest, VrlShortensCloseDimms)
{
    AddressMap map(mapCfg(Interleave::Cacheline));
    ControllerConfig cfg = fbdCfg();
    cfg.vrl = true;
    MemController mc("mc", &eq, cfg);
    std::vector<Tick> done;
    mc.push(makeRead(map, 0, &done));  // line 0 -> DIMM 0 (1 hop)
    eq.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], nsToTicks(63 - 9));  // 1 hop instead of 4
}

TEST_F(ControllerTest, IndependentBanksPipeline)
{
    AddressMap map(mapCfg(Interleave::Cacheline));
    MemController mc("mc", &eq, fbdCfg());
    std::vector<Tick> done;
    // Lines 0..3 hit four different DIMMs (cacheline interleave).
    for (unsigned i = 0; i < 4; ++i)
        mc.push(makeRead(map, static_cast<Addr>(i) * lineBytes,
                         &done));
    eq.run();
    ASSERT_EQ(done.size(), 4u);
    // All four must finish well before a serial execution would
    // (4 x 51 ns of DRAM work); pipelining bounds it near one
    // latency plus a few transfer slots.
    EXPECT_LT(done.back(), nsToTicks(100));
}

TEST_F(ControllerTest, SameBankConflictSerialisesByTrc)
{
    AddressMap map(mapCfg(Interleave::Cacheline));
    MemController mc("mc", &eq, fbdCfg());
    std::vector<Tick> done;
    // Two different rows of the same bank: lines 0 and 2048 both map
    // to dimm 0 / bank 0 under this topology (16 banks * 128 lines).
    mc.push(makeRead(map, 0, &done));
    mc.push(makeRead(map, 2048ull * lineBytes, &done));
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    // Second ACT waits tRC after the first: second completion is at
    // least tRC + (63 - 15 - 12) past the first command.
    EXPECT_GE(done[1], done[0] + nsToTicks(40));
}

TEST_F(ControllerTest, WritesArePostedAndCounted)
{
    AddressMap map(mapCfg(Interleave::Cacheline));
    MemController mc("mc", &eq, fbdCfg());
    for (unsigned i = 0; i < 8; ++i)
        mc.push(makeWrite(map, static_cast<Addr>(i) * lineBytes));
    eq.run();
    EXPECT_EQ(mc.writes(), 8u);
    EXPECT_EQ(mc.reads(), 0u);
    EXPECT_EQ(mc.dramOps().wrCas, 8u);
    EXPECT_EQ(mc.dramOps().actPre, 8u);
    EXPECT_EQ(mc.channelBytes(), 8u * lineBytes);
}

TEST_F(ControllerTest, ReadsPrioritisedOverWrites)
{
    AddressMap map(mapCfg(Interleave::Cacheline));
    MemController mc("mc", &eq, fbdCfg());
    std::vector<Tick> done;
    // A handful of writes below the drain threshold, then a read to a
    // different bank: the read must not queue behind the writes.
    for (unsigned i = 0; i < 4; ++i)
        mc.push(makeWrite(map, static_cast<Addr>(i) * lineBytes));
    mc.push(makeRead(map, 8ull * lineBytes, &done));
    eq.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_LE(done[0], nsToTicks(70));
}

TEST_F(ControllerTest, WriteDrainEngagesAboveThreshold)
{
    AddressMap map(mapCfg(Interleave::Cacheline));
    ControllerConfig cfg = fbdCfg();
    cfg.writeDrainHigh = 8;
    cfg.writeDrainLow = 2;
    MemController mc("mc", &eq, cfg);
    std::vector<Tick> done;
    for (unsigned i = 0; i < 16; ++i)
        mc.push(makeWrite(map, static_cast<Addr>(i) * lineBytes));
    mc.push(makeRead(map, 64ull * lineBytes, &done));
    eq.run();
    ASSERT_EQ(done.size(), 1u);
    // In drain mode the writes go first; the read sees real delay.
    EXPECT_GT(done[0], nsToTicks(63));
    EXPECT_EQ(mc.writes(), 16u);
}

TEST_F(ControllerTest, QueueOverflowStillServesEverything)
{
    AddressMap map(mapCfg(Interleave::Cacheline));
    ControllerConfig cfg = fbdCfg();
    cfg.queueSize = 4;
    MemController mc("mc", &eq, cfg);
    std::vector<Tick> done;
    for (unsigned i = 0; i < 64; ++i)
        mc.push(makeRead(map, static_cast<Addr>(i) * lineBytes,
                         &done));
    eq.run();
    EXPECT_EQ(done.size(), 64u);
    EXPECT_EQ(mc.occupancy(), 0u);
}

TEST_F(ControllerTest, WindowLargerThanSixtyFourIsRejected)
{
    // The scheduler keeps 64-bit masks over window positions.
    ControllerConfig cfg = fbdCfg();
    cfg.queueSize = 64;
    MemController ok("mc", &eq, cfg);
    EXPECT_EQ(ok.config().queueSize, 64u);
    cfg.queueSize = 65;
    EXPECT_DEATH(MemController("mc", &eq, cfg), "queueSize 65");
}

TEST_F(ControllerTest, LatencyStatsMatchCompletions)
{
    AddressMap map(mapCfg(Interleave::Cacheline));
    MemController mc("mc", &eq, fbdCfg());
    std::vector<Tick> done;
    mc.push(makeRead(map, 0, &done));
    eq.run();
    EXPECT_EQ(mc.readLatSamples(), 1u);
    EXPECT_DOUBLE_EQ(mc.avgReadLatencyNs(), 63.0);
    mc.resetStats();
    EXPECT_EQ(mc.readLatSamples(), 0u);
    EXPECT_EQ(mc.dramOps().actPre, 0u);
}

TEST_F(ControllerTest, LatencyPercentilesFromHistogram)
{
    AddressMap map(mapCfg(Interleave::Cacheline));
    MemController mc("mc", &eq, fbdCfg());
    std::vector<Tick> done;
    for (unsigned i = 0; i < 32; ++i) {
        mc.push(makeRead(map, static_cast<Addr>(i) * lineBytes,
                         &done));
        eq.run();  // serialise: every read is idle-latency
    }
    EXPECT_EQ(mc.readLatencyHist().samples(), 32u);
    // All reads completed at the 63 ns idle latency.
    const double p50 = mc.readLatencyPercentileNs(0.50);
    const double p99 = mc.readLatencyPercentileNs(0.99);
    EXPECT_NEAR(p50, 63.0, 2.1);
    EXPECT_NEAR(p99, 63.0, 2.1);
    EXPECT_DOUBLE_EQ(mc.readLatencyPercentileNs(0.0), 2.0);
    mc.resetStats();
    EXPECT_EQ(mc.readLatencyHist().samples(), 0u);
    EXPECT_DOUBLE_EQ(mc.readLatencyPercentileNs(0.5), 0.0);
}

TEST_F(ControllerTest, OpenPageRowHitsSkipActivation)
{
    AddressMap map(mapCfg(Interleave::Page));
    ControllerConfig cfg = fbdCfg();
    cfg.openPage = true;
    MemController mc("mc", &eq, cfg);
    std::vector<Tick> done;
    // Two lines of the same DRAM page.
    mc.push(makeRead(map, 0, &done));
    mc.push(makeRead(map, lineBytes, &done));
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(mc.dramOps().actPre, 1u) << "row hit reuses the row";
    // The second read pays no ACT: completes one burst after the
    // first.
    EXPECT_LT(done[1], done[0] + nsToTicks(10));
}

TEST_F(ControllerTest, OpenPageConflictPrechargesThenActivates)
{
    AddressMap map(mapCfg(Interleave::Page));
    ControllerConfig cfg = fbdCfg();
    cfg.openPage = true;
    MemController mc("mc", &eq, cfg);
    std::vector<Tick> done;
    mc.push(makeRead(map, 0, &done));
    eq.run();
    // Same bank, different row: page stride = banks*dimms*channels
    // pages.
    const Addr same_bank_next_row =
        static_cast<Addr>(16) * 8192;  // 16 pages on, same bank
    mc.push(makeRead(map, same_bank_next_row, &done));
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(mc.dramOps().actPre, 2u);
    // Second read pays PRE + ACT + CAS.
    EXPECT_GE(done[1] - done[0], nsToTicks(30));
}

TEST_F(ControllerTest, VrlLatencyScalesPerDimm)
{
    // With VRL each DIMM's read returns after (hops x 3 ns); lines
    // 0..3 land on DIMMs 0..3 under cacheline interleaving.
    AddressMap map(mapCfg(Interleave::Cacheline));
    for (unsigned d = 0; d < 4; ++d) {
        EventQueue local_eq;
        ControllerConfig cfg = fbdCfg();
        cfg.vrl = true;
        MemController mc("mc", &local_eq, cfg);
        std::vector<Tick> done;
        auto t = makeTransaction();
        t->cmd = MemCmd::Read;
        t->lineAddr = static_cast<Addr>(d) * lineBytes;
        t->coord = map.map(t->lineAddr);
        t->onComplete = [&done](Tick w) { done.push_back(w); };
        mc.push(std::move(t));
        local_eq.run();
        ASSERT_EQ(done.size(), 1u);
        // 63 ns includes 4 hops; with VRL it is 51 + 3*(d+1).
        EXPECT_EQ(done[0], nsToTicks(51 + 3 * (d + 1)))
            << "DIMM " << d;
    }
}

/** Idle latency scales with the memory clock for both systems. */
class ControllerRateTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ControllerRateTest, IdleLatenciesTrackDataRate)
{
    const unsigned rate = GetParam();
    AddressMapConfig mcfg;
    mcfg.channels = 1;
    AddressMap map(mcfg);

    // FB-DIMM: the ns-denominated components are rate-independent;
    // only the 2-cycle data burst varies.
    {
        EventQueue eq;
        ControllerConfig cfg;
        cfg.fbd = true;
        cfg.timing = DramTiming::forDataRate(rate);
        MemController mc("mc", &eq, cfg);
        std::vector<Tick> done;
        auto t = makeTransaction();
        t->cmd = MemCmd::Read;
        t->lineAddr = 0;
        t->coord = map.map(0);
        t->onComplete = [&done](Tick w) { done.push_back(w); };
        mc.push(std::move(t));
        eq.run();
        ASSERT_EQ(done.size(), 1u);
        // Commands only leave on memory-cycle boundaries, so the ACT
        // and CAS issue points round up with the clock.
        const Tick cycle = cfg.timing.memCycle;
        const Tick act_issue = ((nsToTicks(12) + cycle - 1) / cycle)
            * cycle;
        const Tick cas_ready = act_issue + nsToTicks(3)
            + cfg.timing.tRCD;
        const Tick cas_issue =
            ((cas_ready - nsToTicks(3) + cycle - 1) / cycle) * cycle;
        const Tick expect = cas_issue + nsToTicks(3)
            + cfg.timing.tCL + cfg.timing.burst + nsToTicks(12);
        EXPECT_EQ(done[0], expect);
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, ControllerRateTest,
                         ::testing::Values(533u, 667u, 800u));

TEST_F(ControllerTest, Ddr2SharedBusSerialisesData)
{
    AddressMap map(mapCfg(Interleave::Cacheline));
    MemController mc("mc", &eq, ddr2Cfg());
    std::vector<Tick> done;
    for (unsigned i = 0; i < 8; ++i)
        mc.push(makeRead(map, static_cast<Addr>(i) * lineBytes,
                         &done));
    eq.run();
    ASSERT_EQ(done.size(), 8u);
    // Eight 6 ns bursts cannot overlap on one bus.
    EXPECT_GE(done.back() - done.front(), nsToTicks(7 * 6));
}

} // namespace
} // namespace fbdp
