/**
 * @file
 * System-level tests of the extension features: the hardware stream
 * prefetcher, controller-level prefetching, and their interplay with
 * the paper's machines.
 */

#include <gtest/gtest.h>

#include "system/runner.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

SystemConfig
quick(SystemConfig c)
{
    c.warmupInsts = 20'000;
    c.measureInsts = 120'000;
    return c;
}

TEST(ExtensionsTest, HwPrefetchHelpsStreamsWithoutSoftware)
{
    SystemConfig off = quick(SystemConfig::fbdBase());
    off.swPrefetch = false;
    SystemConfig on = off;
    on.hier.hwPrefetch.enable = true;
    auto r_off = runMix(off, mixByName("1C-swim"));
    auto r_on = runMix(on, mixByName("1C-swim"));
    EXPECT_GT(r_on.ipcSum(), r_off.ipcSum() * 1.01)
        << "stream detector must recover some of the SP benefit";
}

TEST(ExtensionsTest, HwPrefetchHarmlessOnIrregularCode)
{
    SystemConfig off = quick(SystemConfig::fbdBase());
    off.swPrefetch = false;
    SystemConfig on = off;
    on.hier.hwPrefetch.enable = true;
    auto r_off = runMix(off, mixByName("1C-parser"));
    auto r_on = runMix(on, mixByName("1C-parser"));
    EXPECT_GT(r_on.ipcSum(), r_off.ipcSum() * 0.97);
}

TEST(ExtensionsTest, HwPrefetcherVisibleThroughHierarchy)
{
    SystemConfig c = quick(SystemConfig::fbdBase());
    c.hier.hwPrefetch.enable = true;
    c.benchmarks = {"swim"};
    System sys(c);
    sys.run();
    ASSERT_NE(sys.hierarchy().hwPrefetcher(), nullptr);
    EXPECT_GT(sys.hierarchy().hwPrefetcher()->prefetchesSuggested(),
              0u);
}

TEST(ExtensionsTest, McPrefetchRunsAndCovers)
{
    SystemConfig c = quick(SystemConfig::fbdBase());
    c.scheme = Interleave::MultiCacheline;
    c.mcBufPrefetch.policy = "region";
    auto r = runMix(c, mixByName("1C-swim"));
    EXPECT_GT(r.ambHits, 0u) << "MC hits reported through ambHits";
    EXPECT_GT(r.coverage, 0.3);
    EXPECT_LE(r.coverage, 0.75 + 1e-9);
}

TEST(ExtensionsTest, McPrefetchConsumesMoreChannelBandwidth)
{
    SystemConfig mcp = quick(SystemConfig::fbdBase());
    mcp.scheme = Interleave::MultiCacheline;
    mcp.mcBufPrefetch.policy = "region";
    auto r_mcp = runMix(mcp, mixByName("1C-swim"));
    auto r_ap = runMix(quick(SystemConfig::fbdAp()),
                       mixByName("1C-swim"));
    // Same region fetches, but MCP's prefetches cross the channel.
    EXPECT_GT(r_mcp.bandwidthGBs, r_ap.bandwidthGBs * 1.3);
}

TEST(ExtensionsTest, McPrefetchBeatsPlainFbdAtOneCore)
{
    auto base = runMix(quick(SystemConfig::fbdBase()),
                       mixByName("1C-swim"));
    SystemConfig mcp = quick(SystemConfig::fbdBase());
    mcp.scheme = Interleave::MultiCacheline;
    mcp.mcBufPrefetch.policy = "region";
    auto r = runMix(mcp, mixByName("1C-swim"));
    EXPECT_GT(r.ipcSum(), base.ipcSum());
}

TEST(ExtensionsTest, ApBeatsMcPrefetchAtEightCores)
{
    // The paper's Section 6 argument: at high core counts the
    // channel is precious and MCP wastes it.
    SystemConfig mcp = quick(SystemConfig::fbdBase());
    mcp.scheme = Interleave::MultiCacheline;
    mcp.mcBufPrefetch.policy = "region";
    auto r_mcp = runMix(mcp, mixByName("8C-1"));
    auto r_ap = runMix(quick(SystemConfig::fbdAp()),
                       mixByName("8C-1"));
    EXPECT_GT(r_ap.ipcSum(), r_mcp.ipcSum());
}

TEST(ExtensionsTest, McPrefetchExclusiveWithAp)
{
    SystemConfig c = quick(SystemConfig::fbdAp());
    c.mcBufPrefetch.policy = "region";
    EXPECT_DEATH(c.controllerConfig(), "exclusive");
}

TEST(ExtensionsTest, RefreshCostsALittlePerformance)
{
    SystemConfig on = quick(SystemConfig::fbdBase());
    SystemConfig off = on;
    off.refreshEnable = false;
    auto r_on = runMix(on, mixByName("2C-1"));
    auto r_off = runMix(off, mixByName("2C-1"));
    // Refresh occupies the banks ~1.6% of the time; the impact must
    // be small but the no-refresh machine can't be slower.
    EXPECT_GE(r_off.ipcSum(), r_on.ipcSum() * 0.999);
    EXPECT_LT(r_off.ipcSum(), r_on.ipcSum() * 1.10);
    EXPECT_EQ(r_off.ops.refresh, 0u);
    EXPECT_GT(r_on.ops.refresh, 0u);
}

} // namespace
} // namespace fbdp
