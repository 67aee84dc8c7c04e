/**
 * @file
 * End-to-end smoke tests of the assembled system: every configuration
 * preset must simulate a small workload to completion with sane stats.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "system/runner.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

SystemConfig
quick(SystemConfig c)
{
    c.warmupInsts = 20'000;
    c.measureInsts = 100'000;
    return c;
}

TEST(SystemTest, FootprintBeyondTheCoreSliceIsFatal)
{
    BenchProfile p = benchProfile("swim");
    p.footprint = coreSliceBytes;
    requireFitsCoreSlice(p);  // exactly one slice fits
    p.footprint = coreSliceBytes + lineBytes;
    EXPECT_DEATH(requireFitsCoreSlice(p),
                 "profile 'swim': footprint of 4294967360 bytes exceeds "
                 "the 4294967296-byte address slice of a core");
}

TEST(SystemTest, BuiltInProfilesFitTheirSlices)
{
    // Core 3's slice, as a System lays them out.
    const Addr base = 3 * coreSliceBytes;
    for (const BenchProfile &p : allProfiles()) {
        SCOPED_TRACE(p.name);
        requireFitsCoreSlice(p);
        SyntheticGenerator g(p, base, 3, true);
        for (int i = 0; i < 20'000; ++i) {
            const TraceOp op = g.next();
            if (op.kind == TraceOp::Kind::Prefetch)
                continue;  // may run a few lines past a lane end
            ASSERT_GE(op.addr, base) << "op " << i;
            ASSERT_LT(op.addr, base + p.footprint) << "op " << i;
        }
    }
}

TEST(SystemTest, Ddr2SingleCoreRuns)
{
    auto r = runMix(quick(SystemConfig::ddr2()), mixByName("1C-swim"));
    ASSERT_EQ(r.ipc.size(), 1u);
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_LT(r.ipc[0], 4.0);
    EXPECT_GT(r.reads, 0u);
    EXPECT_GT(r.bandwidthGBs, 0.0);
    EXPECT_GT(r.avgReadLatencyNs, 30.0);
    EXPECT_EQ(r.ambHits, 0u);
}

TEST(SystemTest, FbdSingleCoreRuns)
{
    auto r = runMix(quick(SystemConfig::fbdBase()),
                    mixByName("1C-swim"));
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_GT(r.reads, 0u);
    // FB-DIMM idle latency is 63 ns; queueing only adds to it.
    EXPECT_GE(r.avgReadLatencyNs, 60.0);
}

TEST(SystemTest, FbdApSingleCoreRuns)
{
    auto r = runMix(quick(SystemConfig::fbdAp()),
                    mixByName("1C-swim"));
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_GT(r.ambHits, 0u);
    EXPECT_GT(r.coverage, 0.0);
    EXPECT_LE(r.coverage, 0.75 + 1e-9);  // bound for K=4
    EXPECT_GT(r.efficiency, 0.0);
    EXPECT_LE(r.efficiency, 1.0);
}

TEST(SystemTest, FbdApBeatsFbdOnStreamingWorkload)
{
    auto base = runMix(quick(SystemConfig::fbdBase()),
                       mixByName("1C-swim"));
    auto ap = runMix(quick(SystemConfig::fbdAp()),
                     mixByName("1C-swim"));
    EXPECT_GT(ap.ipc[0], base.ipc[0]);
}

TEST(SystemTest, MultiCoreRuns)
{
    auto r = runMix(quick(SystemConfig::fbdAp()), mixByName("4C-1"));
    ASSERT_EQ(r.ipc.size(), 4u);
    for (double v : r.ipc)
        EXPECT_GT(v, 0.0);
}

TEST(SystemTest, DeterministicAcrossRuns)
{
    auto a = runMix(quick(SystemConfig::fbdAp()), mixByName("2C-1"));
    auto b = runMix(quick(SystemConfig::fbdAp()), mixByName("2C-1"));
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_DOUBLE_EQ(a.ipc[i], b.ipc[i]);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.ops.actPre, b.ops.actPre);
    EXPECT_EQ(a.ops.cas(), b.ops.cas());
}

TEST(SystemTest, ReportContainsAllComponents)
{
    SystemConfig cfg = quick(SystemConfig::fbdAp());
    cfg.benchmarks = {"swim", "vpr"};
    System sys(cfg);
    sys.run();
    std::ostringstream os;
    sys.report(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("cpu0.swim"), std::string::npos);
    EXPECT_NE(s.find("cpu1.vpr"), std::string::npos);
    EXPECT_NE(s.find("l2"), std::string::npos);
    EXPECT_NE(s.find("mc0"), std::string::npos);
    EXPECT_NE(s.find("mc1"), std::string::npos);
    EXPECT_NE(s.find("coverage"), std::string::npos);
    EXPECT_NE(s.find("act_pre"), std::string::npos);
}

TEST(SystemTest, ApReducesActivations)
{
    auto base = runMix(quick(SystemConfig::fbdBase()),
                       mixByName("1C-swim"));
    auto ap = runMix(quick(SystemConfig::fbdAp()),
                     mixByName("1C-swim"));
    // Activations per read must drop with region fetching.
    const double act_per_read_base =
        static_cast<double>(base.ops.actPre)
        / static_cast<double>(base.reads);
    const double act_per_read_ap =
        static_cast<double>(ap.ops.actPre)
        / static_cast<double>(ap.reads);
    EXPECT_LT(act_per_read_ap, act_per_read_base);
}

/**
 * The prefetch buffer's counters are the only count of prefetch hits
 * at either of its places (behind the AMBs, or at the controller):
 * RunResult and every channel's stat group read the same numbers.
 */
class PrefetchCountTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(PrefetchCountTest, StatGroupsAgreeWithRunResult)
{
    SystemConfig c = quick(SystemConfig::fbdAp());
    if (GetParam()) {
        c = quick(SystemConfig::fbdBase());
        c.scheme = Interleave::MultiCacheline;
        c.prefetch = PrefetchConfig::parse("region,place=mc");
    }
    c.benchmarks = mixByName("2C-1").benches;
    System sys(c);
    const RunResult r = sys.run();
    ASSERT_GT(r.ambHits, 0u);
    EXPECT_EQ(r.ambHits, r.prefetch.hits);

    // Sum the channels: hits and late hits add up, coverage weighs by
    // the channel's reads and efficiency recovers its issued lines.
    double hits = 0.0, late = 0.0, covered = 0.0, issued = 0.0,
           pf_issued = 0.0;
    unsigned channels = 0;
    for (const System::OwnedStatGroup &g : sys.buildStatGroups()) {
        if (g.group.name().rfind("mc", 0) != 0)
            continue;
        ++channels;
        auto get = [&g](const char *name) {
            const auto *f =
                dynamic_cast<const stats::Formula *>(g.group.find(name));
            EXPECT_NE(f, nullptr) << g.group.name() << "." << name;
            return f ? f->value() : 0.0;
        };
        const double h = get("pf_hits");
        hits += h;
        late += get("late_prefetch_hits");
        covered += get("coverage") * get("reads");
        if (h > 0.0)
            issued += h / get("efficiency");
        pf_issued += get("pf_issued");
        // The buffer cannot displace more lines than it took in.
        EXPECT_GT(get("pf_insertions"), 0.0);
        EXPECT_LE(get("pf_evictions"), get("pf_insertions"));
        EXPECT_LE(get("hit_conversions"), get("reads"));
    }
    EXPECT_EQ(channels, c.logicChannels);
    EXPECT_EQ(pf_issued, static_cast<double>(r.prefetch.issued));
    EXPECT_EQ(hits, static_cast<double>(r.ambHits));
    EXPECT_EQ(late, static_cast<double>(r.prefetch.lateHits));
    EXPECT_NEAR(covered / static_cast<double>(r.reads), r.coverage,
                1e-9);
    EXPECT_NEAR(issued, static_cast<double>(r.prefetch.issued), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Places, PrefetchCountTest, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool> &info) {
        return std::string(info.param ? "fbd_mcp" : "fbd_ap");
    });

// The L2's demand reads split into load and store misses, and each
// synthetic core's ops into the generator's four op classes.
TEST(SystemTest, StatGroupsSplitReadsAndOps)
{
    SystemConfig c = quick(SystemConfig::fbdAp());
    c.benchmarks = mixByName("2C-1").benches;
    System sys(c);
    sys.run();

    unsigned cores = 0;
    for (const System::OwnedStatGroup &g : sys.buildStatGroups()) {
        auto get = [&g](const char *name) {
            const auto *f =
                dynamic_cast<const stats::Formula *>(g.group.find(name));
            EXPECT_NE(f, nullptr) << g.group.name() << "." << name;
            return f ? f->value() : 0.0;
        };
        if (g.group.name() == "l2") {
            EXPECT_GT(get("store_miss_reads"), 0.0);
            EXPECT_EQ(get("load_miss_reads") + get("store_miss_reads"),
                      get("mem_reads"));
        } else if (g.group.name().rfind("cpu", 0) == 0) {
            const auto &gen = dynamic_cast<const SyntheticGenerator &>(
                sys.generator(cores++));
            EXPECT_EQ(get("gen_stream_ops") + get("gen_hot_ops")
                          + get("gen_cold_ops") + get("gen_prefetch_ops"),
                      static_cast<double>(gen.opsGenerated()));
            EXPECT_GT(get("gen_stream_crossings"), 0.0);
            EXPECT_LE(get("gen_stream_crossings"), get("gen_stream_ops"));
        }
    }
    EXPECT_EQ(cores, 2u);
}

/**
 * Parameterized preset sweep: every (machine, data rate, channel
 * count) combination must run to completion with self-consistent
 * statistics.
 */
struct PresetParam
{
    const char *machine;
    unsigned rate;
    unsigned channels;
};

class PresetSweepTest : public ::testing::TestWithParam<PresetParam>
{
};

TEST_P(PresetSweepTest, RunsWithConsistentStats)
{
    const PresetParam p = GetParam();
    SystemConfig c = std::string(p.machine) == "ddr2"
        ? SystemConfig::ddr2()
        : (std::string(p.machine) == "fbd" ? SystemConfig::fbdBase()
                                           : SystemConfig::fbdAp());
    c = quick(c);
    c.dataRate = p.rate;
    c.logicChannels = p.channels;
    auto r = runMix(c, mixByName("2C-4"));
    ASSERT_EQ(r.ipc.size(), 2u);
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_GT(r.ipc[1], 0.0);
    EXPECT_GT(r.reads, 0u);
    // Bandwidth accounting must agree with transaction counts.
    const double seconds = static_cast<double>(r.measuredTicks)
        * 1e-12;
    const double expect_bytes =
        static_cast<double>(r.reads + r.writes) * lineBytes;
    EXPECT_NEAR(r.bandwidthGBs, expect_bytes / 1e9 / seconds,
                r.bandwidthGBs * 0.02);
    // Close-page op accounting (every machine here uses close page).
    EXPECT_GE(r.ops.cas(), r.reads + r.writes - 64);
    if (std::string(p.machine) == "fbd-ap") {
        EXPECT_GT(r.coverage, 0.0);
        EXPECT_LE(r.coverage, 0.75 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PresetSweepTest,
    ::testing::Values(
        PresetParam{"ddr2", 533, 1}, PresetParam{"ddr2", 667, 2},
        PresetParam{"ddr2", 800, 4}, PresetParam{"fbd", 533, 2},
        PresetParam{"fbd", 667, 1}, PresetParam{"fbd", 800, 2},
        PresetParam{"fbd-ap", 533, 1}, PresetParam{"fbd-ap", 667, 4},
        PresetParam{"fbd-ap", 800, 2}),
    [](const ::testing::TestParamInfo<PresetParam> &info) {
        std::string n = info.param.machine;
        for (auto &ch : n) {
            if (ch == '-')
                ch = '_';
        }
        return n + "_" + std::to_string(info.param.rate) + "_"
            + std::to_string(info.param.channels) + "ch";
    });

} // namespace
} // namespace fbdp
