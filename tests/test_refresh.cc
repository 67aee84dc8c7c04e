/**
 * @file
 * DRAM auto-refresh tests (tREFI / tRFC): scheduling, bank blocking,
 * interaction with open rows and with AMB prefetching.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "sim/event_queue.hh"

namespace fbdp {
namespace {

class RefreshTest : public ::testing::Test
{
  protected:
    RefreshTest() : map(mapCfg())
    {
    }

    static AddressMapConfig
    mapCfg()
    {
        AddressMapConfig mc;
        mc.channels = 1;
        mc.dimmsPerChannel = 4;
        mc.banksPerDimm = 4;
        mc.regionLines = 4;
        mc.scheme = Interleave::Cacheline;
        return mc;
    }

    ControllerConfig
    cfgWithRefresh(bool on)
    {
        ControllerConfig c;
        c.fbd = true;
        c.refreshEnable = on;
        return c;
    }

    TransPtr
    makeRead(Addr addr, std::vector<Tick> *done)
    {
        auto t = makeTransaction();
        t->cmd = MemCmd::Read;
        t->lineAddr = lineAlign(addr);
        t->coord = map.map(addr);
        t->created = eq.now();
        t->onComplete = [done](Tick w) { done->push_back(w); };
        return t;
    }

    EventQueue eq;
    AddressMap map;
};

TEST_F(RefreshTest, RefreshesHappenUnderSteadyTraffic)
{
    MemController mc("mc", &eq, cfgWithRefresh(true));
    std::vector<Tick> done;
    // Keep the controller awake for a bit over two tREFI windows.
    const DramTiming t = DramTiming::forDataRate(667);
    const Tick horizon = 2 * t.tREFI + t.tREFI / 2;
    Addr a = 0;
    while (eq.now() < horizon) {
        mc.push(makeRead(a, &done));
        a += lineBytes;
        eq.run();
    }
    // Every DIMM refreshed roughly horizon/tREFI times.
    const std::uint64_t per_dimm = mc.dramOps().refresh / 4;
    EXPECT_GE(per_dimm, 2u);
    EXPECT_LE(per_dimm, 3u);
}

TEST_F(RefreshTest, NoRefreshWhenDisabled)
{
    MemController mc("mc", &eq, cfgWithRefresh(false));
    std::vector<Tick> done;
    const DramTiming t = DramTiming::forDataRate(667);
    Addr a = 0;
    while (eq.now() < 2 * t.tREFI) {
        mc.push(makeRead(a, &done));
        a += lineBytes;
        eq.run();
    }
    EXPECT_EQ(mc.dramOps().refresh, 0u);
}

TEST_F(RefreshTest, RefreshDelaysCollidingRead)
{
    MemController mc("mc", &eq, cfgWithRefresh(true));
    std::vector<Tick> done;
    const DramTiming t = DramTiming::forDataRate(667);
    // Idle until just past DIMM 0's first refresh point, then read
    // from DIMM 0: the activate must wait out tRFC.
    Event idle([] {});
    eq.schedule(&idle, t.tREFI / 4 + 1000);
    eq.run();
    const Tick t0 = eq.now();
    mc.push(makeRead(0, &done));  // line 0 -> DIMM 0
    eq.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_GT(done[0] - t0, nsToTicks(63))
        << "read must absorb the refresh window";
    EXPECT_LE(done[0] - t0, nsToTicks(63) + t.tRFC + nsToTicks(10));
    EXPECT_GE(mc.dramOps().refresh, 1u);
}

TEST_F(RefreshTest, IdleCatchUpCountsMissedIntervals)
{
    MemController mc("mc", &eq, cfgWithRefresh(true));
    std::vector<Tick> done;
    const DramTiming t = DramTiming::forDataRate(667);
    Event idle([] {});
    eq.schedule(&idle, 5 * t.tREFI);
    eq.run();
    mc.push(makeRead(0, &done));
    eq.run();
    // DIMM 0 owed ~5 refreshes from the idle period.
    EXPECT_GE(mc.dramOps().refresh, 4u);
}

TEST_F(RefreshTest, WorksWithOpenPagePolicy)
{
    AddressMapConfig pcfg = mapCfg();
    pcfg.scheme = Interleave::Page;
    AddressMap pmap(pcfg);
    ControllerConfig cfg = cfgWithRefresh(true);
    cfg.openPage = true;
    MemController mc("mc", &eq, cfg);
    std::vector<Tick> done;
    const DramTiming t = DramTiming::forDataRate(667);
    // Row-hit traffic to one page across several refresh windows; the
    // refresh logic must break the row-hit chain rather than starve.
    Addr a = 0;
    unsigned sent = 0;
    while (eq.now() < 2 * t.tREFI) {
        auto tr = makeTransaction();
        tr->cmd = MemCmd::Read;
        tr->lineAddr = lineAlign(a);
        tr->coord = pmap.map(a);
        tr->onComplete = [&done](Tick w) { done.push_back(w); };
        mc.push(std::move(tr));
        ++sent;
        a = (a + lineBytes) % 8192;  // stay inside one DRAM page
        eq.run();
    }
    EXPECT_EQ(done.size(), sent);
    EXPECT_GE(mc.dramOps().refresh, 4u) << "all DIMMs refreshed";
}

TEST_F(RefreshTest, ApSurvivesRefresh)
{
    AddressMapConfig acfg = mapCfg();
    acfg.scheme = Interleave::MultiCacheline;
    AddressMap amap(acfg);
    ControllerConfig cfg = cfgWithRefresh(true);
    cfg.prefetch.policy = "region";
    MemController mc("mc", &eq, cfg);
    std::vector<Tick> done;
    const DramTiming t = DramTiming::forDataRate(667);
    Addr a = 0;
    while (eq.now() < 2 * t.tREFI) {
        auto tr = makeTransaction();
        tr->cmd = MemCmd::Read;
        tr->lineAddr = lineAlign(a);
        tr->coord = amap.map(a);
        tr->onComplete = [&done](Tick w) { done.push_back(w); };
        mc.push(std::move(tr));
        a += lineBytes;
        eq.run();
    }
    EXPECT_GT(mc.prefetchTable()->prefetchHits(), 0u);
    EXPECT_GT(mc.dramOps().refresh, 0u);
    EXPECT_NEAR(mc.prefetchTable()->coverage(), 0.75, 0.01);
}

} // namespace
} // namespace fbdp
