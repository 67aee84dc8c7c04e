/**
 * @file
 * Invisibility test of the prefetch code's shape: however the paper's
 * region-group prefetch is organised in the controller, simulation
 * results must stay bit-for-bit identical.  The golden numbers below
 * pin the one-queue kernel with direct hand-offs (a request reaches
 * its controller when the cache sends it, a completion reaches its
 * core at completedAt, and each window ends at the tick of its
 * notify); the controller's region fetch must reproduce every one of
 * them exactly — including the doubles, compared with EXPECT_EQ on
 * purpose.
 *
 * Also pins the config equivalences: the FBD-AP preset and the
 * explicit spec string must build the same machine, and switching
 * the prefetch config off alone must switch the preset's AMB
 * prefetching off.
 */

#include <gtest/gtest.h>

#include "run_digest.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

using namespace fbdp;

namespace {

SystemConfig
golden()
{
    SystemConfig c = SystemConfig::fbdAp();
    c.benchmarks = mixByName("2C-1").benches;
    c.warmupInsts = 10'000;
    c.measureInsts = 40'000;
    c.seed = 7;
    return c;
}

void
expectGolden(const RunResult &r)
{
    EXPECT_EQ(r.reads, 1017u);
    EXPECT_EQ(r.writes, 375u);
    EXPECT_EQ(r.ambHits, 665u);
    EXPECT_EQ(r.measuredTicks, 6045046u);
    EXPECT_EQ(r.ops.actPre, 723u);
    EXPECT_EQ(r.ops.cas(), 1781u);
    EXPECT_EQ(r.ops.refresh, 6u);
    EXPECT_EQ(r.prefetch.lateHits, 89u);
    // Bit-exact doubles: the refactor must not reorder a single
    // floating-point operation in the measured path.
    EXPECT_EQ(r.coverage, 0.65388397246804331);
    EXPECT_EQ(r.efficiency, 0.62795089707271012);
    EXPECT_EQ(r.avgReadLatencyNs, 59.847098522167492);
    EXPECT_EQ(r.ipcSum(), 3.3015877794809168);
    ASSERT_EQ(r.insts.size(), 2u);
    EXPECT_EQ(r.insts[0], 39794u);
    EXPECT_EQ(r.insts[1], 40039u);
    EXPECT_EQ(r.ipc[0], 1.6457277579029175);
    EXPECT_EQ(r.ipc[1], 1.6558600215779995);
}

} // namespace

TEST(PolicyInvisibility, RegionPolicyReproducesSeedResults)
{
    System sys(golden());
    expectGolden(sys.run());
}

TEST(PolicyInvisibility, ExplicitSpecMatchesPreset)
{
    SystemConfig c = golden();
    c.prefetch =
        PrefetchConfig::parse("region,place=amb,entries=64,ways=0");
    System sys(c);
    expectGolden(sys.run());
}

TEST(PolicyInvisibility, PrefetchStatsBlockIsConsistent)
{
    System sys(golden());
    const RunResult r = sys.run();
    EXPECT_EQ(r.prefetch.policy, "region");
    EXPECT_EQ(r.prefetch.hits, r.ambHits);
    EXPECT_EQ(r.prefetch.dropped, 0u);
    EXPECT_GT(r.prefetch.issued, r.prefetch.hits);
    // efficiency == hits / issued by construction.
    EXPECT_DOUBLE_EQ(r.efficiency,
                     static_cast<double>(r.prefetch.hits)
                         / static_cast<double>(r.prefetch.issued));
}

TEST(PolicyInvisibility, PolicyNoneAloneSwitchesFbdApOff)
{
    // The prefetch block is the one switch: no other field may
    // bring the region policy back, and nothing is warned about.
    SystemConfig off = golden();
    off.prefetch.enabled = false;
    SystemConfig plain = SystemConfig::fbdBase();
    plain.scheme = Interleave::MultiCacheline;
    plain.benchmarks = off.benchmarks;
    plain.warmupInsts = off.warmupInsts;
    plain.measureInsts = off.measureInsts;
    plain.seed = off.seed;

    ::testing::internal::CaptureStderr();
    const ControllerConfig cc = off.controllerConfig();
    const std::string off_digest = digest(System(off).run());
    const std::string warned = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(cc.prefetch.enabled);
    EXPECT_EQ(warned, "");
    EXPECT_EQ(off_digest, digest(System(plain).run()));
}
