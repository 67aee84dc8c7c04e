/**
 * @file
 * SystemConfig preset and derivation tests.
 */

#include <limits>

#include <gtest/gtest.h>

#include "common/parse.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"

namespace fbdp {
namespace {

TEST(ConfigTest, Ddr2Preset)
{
    SystemConfig c = SystemConfig::ddr2();
    EXPECT_FALSE(c.fbd);
    EXPECT_FALSE(c.prefetch.enabled);
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
    EXPECT_TRUE(c.prefetch.enabled);
    EXPECT_EQ(c.prefetch.place, PrefetchPlace::Amb);
    EXPECT_EQ(static_cast<int>(c.scheme),
              static_cast<int>(Interleave::MultiCacheline));
    EXPECT_EQ(c.regionLines, 4u);
    EXPECT_EQ(c.prefetch.entries, 64u);
    EXPECT_EQ(c.prefetch.ways, 0u) << "fully associative default";
    EXPECT_FALSE(c.apFullLatency);

    // The preset's buffer is the spec "region,place=amb".
    const PrefetchConfig spec = PrefetchConfig::parse("region,place=amb");
    EXPECT_EQ(c.prefetch.enabled, spec.enabled);
    EXPECT_EQ(c.prefetch.place, spec.place);
    EXPECT_EQ(c.prefetch.entries, spec.entries);
    EXPECT_EQ(c.prefetch.ways, spec.ways);
}

TEST(ConfigTest, PlaceSetsTheDefaultShape)
{
    const PrefetchConfig amb = PrefetchConfig::parse("region");
    EXPECT_EQ(amb.place, PrefetchPlace::Amb);
    EXPECT_EQ(amb.entries, 64u);
    EXPECT_EQ(amb.ways, 0u);
    const PrefetchConfig mc = PrefetchConfig::parse("region,place=mc");
    EXPECT_EQ(mc.place, PrefetchPlace::Mc);
    EXPECT_EQ(mc.entries, 256u);
    EXPECT_EQ(mc.ways, 0u);
    // An explicit entries wins on either side of the place.
    EXPECT_EQ(PrefetchConfig::parse("region,place=mc,entries=32").entries,
              32u);
    EXPECT_EQ(PrefetchConfig::parse("region,entries=32,place=mc").entries,
              32u);
    EXPECT_EQ(PrefetchConfig::parse("region,place=amb,entries=128").entries,
              128u);
}

// A spec's shape reaches the controller at either place: once the
// shape flags applied only to the AMB buffer, so a controller buffer
// silently kept its 256 lines.
TEST(ConfigTest, SpecShapeReachesTheControllerAtBothPlaces)
{
    for (const char *place : {"amb", "mc"}) {
        SystemConfig c = SystemConfig::fbdAp();
        c.prefetch = PrefetchConfig::parse(
            std::string("region,entries=32,ways=4,place=") + place);
        const ControllerConfig cc = c.controllerConfig();
        EXPECT_EQ(cc.prefetch.place, c.prefetch.place) << place;
        EXPECT_EQ(cc.prefetch.entries, 32u) << place;
        EXPECT_EQ(cc.prefetch.ways, 4u) << place;

        EventQueue eq;
        const MemController mc("mc", &eq, cc);
        ASSERT_NE(mc.prefetchTable(), nullptr) << place;
        const unsigned buffers = c.prefetch.atMc() ? 1 : cc.nDimms;
        EXPECT_EQ(mc.prefetchTable()->capacity(), 32u * buffers)
            << place;
    }
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
    EXPECT_TRUE(cc.prefetch.enabled);
    EXPECT_EQ(cc.prefetch.place, PrefetchPlace::Amb);
    EXPECT_EQ(cc.prefetch.entries, 64u);
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
    c.prefetch.entries = 0;  // parse() refuses entries=0 itself
    EXPECT_EXIT(c.controllerConfig(), ::testing::ExitedWithCode(1),
                "needs 1 to 65536 entries, not 0");
    c = SystemConfig::fbdAp();
    c.prefetch = PrefetchConfig::parse("region,ways=3");
    EXPECT_EXIT(c.controllerConfig(), ::testing::ExitedWithCode(1),
                "AMB prefetch buffer: 64 entries not divisible by 3 ways");
    c = SystemConfig::fbdAp();
    c.prefetch = PrefetchConfig::parse("region,place=mc,ways=3");
    EXPECT_EXIT(c.controllerConfig(), ::testing::ExitedWithCode(1),
                "controller prefetch buffer: 256 entries not divisible "
                "by 3 ways");
}

TEST(ConfigDeathTest, AmbPolicyOnDdr2IsFatal)
{
    // --machine ddr2 --prefetch region
    SystemConfig c = SystemConfig::ddr2();
    c.prefetch = PrefetchConfig::parse("region");
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

TEST(PrefetchConfigTest, ParseDefaultsAndKeys)
{
    const PrefetchConfig p = PrefetchConfig::parse("region");
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.place, PrefetchPlace::Amb);
    EXPECT_EQ(p.entries, 64u);
    EXPECT_EQ(p.ways, 0u);

    const PrefetchConfig q =
        PrefetchConfig::parse("region,place=mc,entries=128,ways=4");
    EXPECT_TRUE(q.enabled);
    EXPECT_EQ(q.place, PrefetchPlace::Mc);
    EXPECT_EQ(q.entries, 128u);
    EXPECT_EQ(q.ways, 4u);

    EXPECT_FALSE(PrefetchConfig::parse("none").enabled);
}

TEST(PrefetchConfigDeathTest, RejectsMalformedSpecs)
{
    EXPECT_DEATH(PrefetchConfig::parse(""), "empty prefetch policy");
    EXPECT_DEATH(PrefetchConfig::parse("region,entries"),
                 "not key=value");
    EXPECT_DEATH(PrefetchConfig::parse("region,entries="),
                 "has no value");
    EXPECT_DEATH(PrefetchConfig::parse("region,frobnicate=1"),
                 "unknown prefetch spec key");
}

// The paper's region fetch is the only scheme: other policy names and
// the keys that tuned them are unknown names, not silent no-ops.
TEST(PrefetchConfigDeathTest, OnlyRegionAndNoneAreSchemes)
{
    const auto fatalExit = ::testing::ExitedWithCode(1);
    for (const char *spec : {"bogus", "dspatch", "indram", "Region",
                             "dspatch,place=mc"}) {
        EXPECT_EXIT(PrefetchConfig::parse(spec), fatalExit,
                    "unknown prefetch policy")
            << spec;
    }
    EXPECT_EXIT(PrefetchConfig::parse("region,degree=3"), fatalExit,
                "unknown prefetch spec key 'degree'");
    EXPECT_EXIT(PrefetchConfig::parse("region,throttle=0.8"), fatalExit,
                "unknown prefetch spec key 'throttle'");
}

TEST(PrefetchConfigDeathTest, RejectsValuesThatAreNotWholeNumbers)
{
    // Each once misparsed: a huge unsigned (bad_alloc), zero entries
    // (a panic in AmbCache), a silent 4 and a silent 0.  Now each is
    // a clean fatal, exit code 1.
    const auto fatalExit = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(PrefetchConfig::parse("region,entries=-4"), fatalExit,
                "key 'entries': bad value '-4'");
    EXPECT_EXIT(PrefetchConfig::parse("region,entries=abc"), fatalExit,
                "key 'entries': bad value 'abc'");
    EXPECT_EXIT(PrefetchConfig::parse("region,entries=0"), fatalExit,
                "key 'entries': bad value '0'");
    EXPECT_EXIT(PrefetchConfig::parse("region,ways=4x"), fatalExit,
                "key 'ways': bad value '4x'");
    // A sign or blank, which strtoll alone would take.
    EXPECT_EXIT(PrefetchConfig::parse("region,ways=+4"), fatalExit,
                "key 'ways': bad value '.4'");
    EXPECT_EXIT(PrefetchConfig::parse("region,entries= 4"), fatalExit,
                "key 'entries': bad value ' 4'");
}

} // namespace
} // namespace fbdp
