/**
 * @file
 * Controller-level prefetching tests (the Section 6 comparison
 * class): hit latency, channel-bandwidth consumption, invalidation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "sim/event_queue.hh"

namespace fbdp {
namespace {

class McPrefetchTest : public ::testing::Test
{
  protected:
    McPrefetchTest() : map(mapCfg())
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
        mc.scheme = Interleave::MultiCacheline;
        return mc;
    }

    ControllerConfig
    mcpCfg()
    {
        ControllerConfig c;
        c.fbd = true;
        c.prefetch = PrefetchConfig::parse("region,place=mc");
        c.regionLines = 4;
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

TEST_F(McPrefetchTest, FirstReadGroupFetchesOverChannel)
{
    MemController mc("mc", &eq, mcpCfg());
    std::vector<Tick> done;
    mc.push(makeRead(0, &done));
    eq.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], nsToTicks(63)) << "demanded line unchanged";
    // All four lines crossed the channel: 4 x 64 bytes.
    EXPECT_EQ(mc.channelBytes(), 4u * lineBytes);
    EXPECT_EQ(mc.dramOps().rdCas, 4u);
}

TEST_F(McPrefetchTest, HitServedFasterThanAmbHit)
{
    MemController mc("mc", &eq, mcpCfg());
    std::vector<Tick> done;
    mc.push(makeRead(0, &done));
    eq.run();
    const Tick t0 = eq.now();
    mc.push(makeRead(lineBytes, &done));
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    // The data already sits at the controller: faster than the 33 ns
    // AMB hit; the exact value depends only on controller overhead.
    EXPECT_LT(done[1] - t0, nsToTicks(33));
    EXPECT_EQ(mc.prefetchTable()->prefetchHits(), 1u);
    EXPECT_EQ(mc.prefetchTable()->numDimms(), 1u)
        << "one buffer at the controller, not one per DIMM";
}

TEST_F(McPrefetchTest, HitConsumesNoChannelBandwidth)
{
    MemController mc("mc", &eq, mcpCfg());
    std::vector<Tick> done;
    mc.push(makeRead(0, &done));
    eq.run();
    const std::uint64_t bytes_after_fetch = mc.channelBytes();
    mc.push(makeRead(lineBytes, &done));
    eq.run();
    // A buffer hit moves no further data (it already crossed).
    EXPECT_EQ(mc.channelBytes(), bytes_after_fetch + lineBytes);
}

TEST_F(McPrefetchTest, WritesInvalidateBuffer)
{
    MemController mc("mc", &eq, mcpCfg());
    std::vector<Tick> done;
    mc.push(makeRead(0, &done));
    eq.run();
    auto w = makeTransaction();
    w->cmd = MemCmd::Write;
    w->lineAddr = lineBytes;
    w->coord = map.map(lineBytes);
    mc.push(std::move(w));
    eq.run();
    EXPECT_EQ(mc.prefetchTable()->writeInvalidations(), 1u);
    const Tick t0 = eq.now();
    mc.push(makeRead(lineBytes, &done));
    eq.run();
    EXPECT_EQ(mc.prefetchTable()->prefetchHits(), 0u);
    EXPECT_GT(done.back() - t0, nsToTicks(33));
}

TEST_F(McPrefetchTest, CoverageMatchesAmbPathOnSweep)
{
    MemController mc("mc", &eq, mcpCfg());
    std::vector<Tick> done;
    for (unsigned i = 0; i < 128; ++i) {
        mc.push(makeRead(static_cast<Addr>(i) * lineBytes, &done));
        eq.run();
    }
    EXPECT_DOUBLE_EQ(mc.prefetchTable()->coverage(), 0.75);
    EXPECT_DOUBLE_EQ(mc.prefetchTable()->efficiency(), 1.0);
}

TEST_F(McPrefetchTest, SequentialSweepBandwidthQuadruples)
{
    // Compared against the AMB path, the MC path moves K x the data
    // over the channel on a pure streaming sweep.
    MemController mc("mc", &eq, mcpCfg());
    std::vector<Tick> done;
    for (unsigned i = 0; i < 64; ++i) {
        mc.push(makeRead(static_cast<Addr>(i) * lineBytes, &done));
        eq.run();
    }
    EXPECT_EQ(mc.channelBytes(), 64u * lineBytes
              + 48u * lineBytes)
        << "16 region fetches x 3 extra lines crossed the channel";
}

} // namespace
} // namespace fbdp
