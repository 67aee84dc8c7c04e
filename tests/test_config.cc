/**
 * @file
 * SystemConfig preset and derivation tests.
 */

#include <limits>

#include <gtest/gtest.h>

#include "common/parse.hh"
#include "system/config.hh"

namespace fbdp {
namespace {

TEST(ConfigTest, Ddr2Preset)
{
    SystemConfig c = SystemConfig::ddr2();
    EXPECT_FALSE(c.fbd);
    EXPECT_FALSE(c.ambPrefetch.enabled());
    EXPECT_FALSE(c.mcBufPrefetch.enabled());
    EXPECT_EQ(static_cast<int>(c.scheme),
              static_cast<int>(Interleave::Cacheline));
    EXPECT_EQ(c.logicChannels, 2u);
    EXPECT_EQ(c.dimmsPerChannel, 4u);
    EXPECT_EQ(c.banksPerDimm, 4u);
    EXPECT_EQ(c.dataRate, 667u);
    EXPECT_TRUE(c.swPrefetch);
}

TEST(ConfigTest, FbdApPresetMatchesSection52Defaults)
{
    SystemConfig c = SystemConfig::fbdAp();
    EXPECT_TRUE(c.fbd);
    EXPECT_EQ(c.ambPrefetch.policy, "region");
    EXPECT_EQ(static_cast<int>(c.scheme),
              static_cast<int>(Interleave::MultiCacheline));
    EXPECT_EQ(c.regionLines, 4u);
    EXPECT_EQ(c.ambPrefetch.degree, 0u);
    EXPECT_EQ(c.ambPrefetch.entries, 64u);
    EXPECT_EQ(c.ambPrefetch.ways, 0u) << "fully associative default";
    EXPECT_EQ(c.ambPrefetch.throttle, 0.0);
    EXPECT_FALSE(c.mcBufPrefetch.enabled());
    EXPECT_FALSE(c.apFullLatency);
}

TEST(ConfigTest, Table1ProcessorDefaults)
{
    SystemConfig c;
    EXPECT_EQ(c.rob, 196u);
    EXPECT_EQ(c.lq, 32u);
    EXPECT_EQ(c.sq, 32u);
    EXPECT_EQ(c.hier.l1Bytes, 64u * 1024u);
    EXPECT_EQ(c.hier.l1Ways, 2u);
    EXPECT_EQ(c.hier.l2Bytes, 4u * 1024u * 1024u);
    EXPECT_EQ(c.hier.l2Ways, 4u);
    EXPECT_EQ(c.hier.l2HitLatency, 15u * cpuCyclePs);
    EXPECT_EQ(c.hier.l1Mshrs, 32u);
    EXPECT_EQ(c.hier.l2Mshrs, 64u);
}

TEST(ConfigTest, ControllerDerivation)
{
    SystemConfig c = SystemConfig::fbdAp();
    ControllerConfig cc = c.controllerConfig();
    EXPECT_TRUE(cc.fbd);
    EXPECT_EQ(cc.ambPrefetch.policy, "region");
    EXPECT_EQ(cc.ambPrefetch.entries, 64u);
    EXPECT_FALSE(cc.mcBufPrefetch.enabled());
    EXPECT_EQ(cc.nDimms, 4u);
    EXPECT_EQ(cc.timing.memCycle, 3000u);
    EXPECT_FALSE(cc.openPage);
    EXPECT_EQ(cc.cmdDelay, nsToTicks(3));
}

TEST(ConfigTest, Ddr2CommandPathIncludesRegisterAnd2T)
{
    SystemConfig c = SystemConfig::ddr2();
    ControllerConfig cc = c.controllerConfig();
    EXPECT_EQ(cc.cmdDelay, nsToTicks(3) + 2 * cc.timing.memCycle);
}

TEST(ConfigTest, PageSchemeTurnsOnOpenPage)
{
    SystemConfig c = SystemConfig::fbdBase();
    c.scheme = Interleave::Page;
    EXPECT_TRUE(c.controllerConfig().openPage);
}

TEST(ConfigTest, ApRequiresCompatibleScheme)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.scheme = Interleave::Cacheline;
    EXPECT_DEATH(c.controllerConfig(), "multi-cacheline or page");
}

TEST(ConfigTest, ApRequiresFbd)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.fbd = false;
    EXPECT_DEATH(c.controllerConfig(), "requires FB-DIMM");
}

// Configuration errors a user can reach from fbdpsim's flags end in
// fatal (exit code 1) at controllerConfig(), before any component
// asserts on them.
TEST(ConfigDeathTest, TopologyOutOfRangeIsFatal)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.logicChannels = 0;  // --channels 0
    EXPECT_EXIT(c.controllerConfig(), ::testing::ExitedWithCode(1),
                "unsupported DRAM topology: 0 channels");
    c = SystemConfig::fbdAp();
    c.dimmsPerChannel = 0;  // --dimms 0
    EXPECT_EXIT(c.controllerConfig(), ::testing::ExitedWithCode(1),
                "0 DIMMs per channel");
    c = SystemConfig::fbdAp();
    c.logicChannels = 4'000'000'000u;  // would exhaust host memory
    EXPECT_EXIT(c.controllerConfig(), ::testing::ExitedWithCode(1),
                "unsupported DRAM topology: 4000000000 channels");
}

TEST(ConfigDeathTest, RegionThatDoesNotDivideARowIsFatal)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.regionLines = 3;  // --k 3
    EXPECT_EXIT(c.controllerConfig(), ::testing::ExitedWithCode(1),
                "K=3 must divide the 128 lines");
}

TEST(ConfigDeathTest, UnbuildablePrefetchBufferIsFatal)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.ambPrefetch.entries = 0;  // --entries 0
    EXPECT_EXIT(c.controllerConfig(), ::testing::ExitedWithCode(1),
                "needs 1 to 65536 entries, not 0");
    c = SystemConfig::fbdAp();
    c.ambPrefetch.ways = 3;  // --ways 3
    EXPECT_EXIT(c.controllerConfig(), ::testing::ExitedWithCode(1),
                "64 entries not divisible by 3 ways");
}

TEST(ConfigDeathTest, AmbPolicyOnDdr2IsFatal)
{
    // --machine ddr2 --amb-policy region
    SystemConfig c = SystemConfig::ddr2();
    c.ambPrefetch = PrefetchConfig::parse("region");
    c.scheme = Interleave::MultiCacheline;
    EXPECT_EXIT(c.controllerConfig(), ::testing::ExitedWithCode(1),
                "requires FB-DIMM");
}

TEST(ConfigDeathTest, NonNumericFlagValueIsFatal)
{
    // fbdpsim --channels abc: no longer read as 0.
    EXPECT_EXIT(requireCount("--channels", "abc", 0, 1024),
                ::testing::ExitedWithCode(1),
                "--channels: bad value 'abc'");
    EXPECT_EXIT(requireCount("--k", "4x", 0, 1024),
                ::testing::ExitedWithCode(1), "--k: bad value '4x'");
    // strtoll would skip the blank and the sign.
    EXPECT_EXIT(requireCount("--k", " 4", 0, 1024),
                ::testing::ExitedWithCode(1), "--k: bad value ' 4'");
    EXPECT_EXIT(requireCount("--k", "+4", 0, 1024),
                ::testing::ExitedWithCode(1), "--k: bad value '.4'");
    // Past LLONG_MAX: strtoll clamps, which must not pass a bound of
    // LLONG_MAX as a silently different seed.
    EXPECT_EXIT(requireCount("--seed", "99999999999999999999", 0,
                             std::numeric_limits<long long>::max()),
                ::testing::ExitedWithCode(1),
                "--seed: bad value '99999999999999999999'");
    EXPECT_EQ(requireCount("--k", "8", 0, 1024), 8);
}

TEST(ConfigTest, AddressMapDerivation)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.logicChannels = 4;
    c.regionLines = 8;
    AddressMapConfig mc = c.addressMapConfig();
    EXPECT_EQ(mc.channels, 4u);
    EXPECT_EQ(mc.regionLines, 8u);
    EXPECT_EQ(static_cast<int>(mc.scheme),
              static_cast<int>(Interleave::MultiCacheline));
}

TEST(ConfigTest, CoreCountFollowsBenchmarks)
{
    SystemConfig c;
    EXPECT_EQ(c.nCores(), 0u);
    c.benchmarks = {"swim", "vpr", "gap"};
    EXPECT_EQ(c.nCores(), 3u);
}

} // namespace
} // namespace fbdp
