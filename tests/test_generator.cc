/**
 * @file
 * Synthetic trace generator tests: determinism, stream structure,
 * software-prefetch emission, stride patterns, address ranges.
 */

#include <gtest/gtest.h>

#include <set>

#include "workload/generator.hh"

namespace fbdp {
namespace {

TEST(GeneratorTest, DeterministicForSameSeed)
{
    SyntheticGenerator a(benchProfile("swim"), 0, 42, true);
    SyntheticGenerator b(benchProfile("swim"), 0, 42, true);
    for (int i = 0; i < 10'000; ++i) {
        TraceOp x = a.next();
        TraceOp y = b.next();
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.gap, y.gap);
        ASSERT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind));
    }
}

TEST(GeneratorTest, DifferentSeedsDiverge)
{
    SyntheticGenerator a(benchProfile("swim"), 0, 1, true);
    SyntheticGenerator b(benchProfile("swim"), 0, 2, true);
    int same = 0;
    for (int i = 0; i < 1'000; ++i) {
        if (a.next().addr == b.next().addr)
            ++same;
    }
    EXPECT_LT(same, 100);
}

TEST(GeneratorTest, AddressesStayInSlice)
{
    const Addr base = 4ull << 30;
    const BenchProfile &p = benchProfile("vortex");
    SyntheticGenerator g(p, base, 7, true);
    for (int i = 0; i < 50'000; ++i) {
        TraceOp op = g.next();
        Addr a = op.addr;
        if (op.kind == TraceOp::Kind::Prefetch) {
            // Prefetches may run slightly past a lane end.
            EXPECT_LT(a, base + p.footprint + (1u << 20));
        } else {
            EXPECT_GE(a, base);
            EXPECT_LT(a, base + p.footprint);
        }
    }
}

TEST(GeneratorTest, LanesShorterThanALineAreFatal)
{
    // 3 KB of stream area over 128 streams: 24-byte lanes, which
    // line-align to nothing.
    BenchProfile p = benchProfile("swim");
    p.footprint = 4096;
    p.hotBytes = 1024;
    p.nStreams = 128;
    EXPECT_DEATH(SyntheticGenerator(p, 3ull << 32, 1, true),
                 "profile 'swim': 128 streams over 3072 bytes leave "
                 "lanes shorter than one 64-byte line");
}

TEST(GeneratorTest, OneLineLanesStayInSlice)
{
    // The narrowest legal lanes: exactly one line per stream.
    BenchProfile p = benchProfile("swim");
    p.hotBytes = 1024;
    p.nStreams = 128;
    p.footprint = p.hotBytes + p.nStreams * lineBytes;
    const Addr base = 3ull << 32;
    SyntheticGenerator g(p, base, 1, false);
    for (int i = 0; i < 100'000; ++i) {
        const Addr a = g.next().addr;
        ASSERT_GE(a, base) << "op " << i;
        ASSERT_LT(a, base + p.footprint) << "op " << i;
    }
}

TEST(GeneratorTest, StoreFractionRoughlyRespected)
{
    const BenchProfile &p = benchProfile("swim");
    SyntheticGenerator g(p, 0, 3, false);
    int stores = 0, total = 0;
    for (int i = 0; i < 50'000; ++i) {
        TraceOp op = g.next();
        if (op.kind == TraceOp::Kind::Store)
            ++stores;
        ++total;
    }
    double frac = static_cast<double>(stores) / total;
    EXPECT_NEAR(frac, p.storeFrac, 0.12);
}

TEST(GeneratorTest, NoPrefetchOpsWhenDisabled)
{
    SyntheticGenerator g(benchProfile("swim"), 0, 3, false);
    for (int i = 0; i < 50'000; ++i)
        EXPECT_NE(static_cast<int>(g.next().kind),
                  static_cast<int>(TraceOp::Kind::Prefetch));
}

TEST(GeneratorTest, PrefetchCoverageTracksProfile)
{
    const BenchProfile &p = benchProfile("swim");
    SyntheticGenerator g(p, 0, 3, true);
    for (int i = 0; i < 200'000; ++i)
        g.next();
    const double cov = static_cast<double>(g.prefetchOps())
        / static_cast<double>(g.streamLineCrossings());
    EXPECT_NEAR(cov, p.spCoverage, 0.1);
}

TEST(GeneratorTest, PrefetchTargetsAheadOfStream)
{
    const BenchProfile &p = benchProfile("wupwise");
    SyntheticGenerator g(p, 0, 9, true);
    Addr last_demand = 0;
    for (int i = 0; i < 20'000; ++i) {
        TraceOp op = g.next();
        if (op.kind == TraceOp::Kind::Prefetch) {
            // A prefetch points spDistanceLines past a line the
            // stream just entered.
            EXPECT_EQ(op.addr % lineBytes, 0u);
            EXPECT_GT(op.addr, last_demand);
        } else {
            last_demand = op.addr;
        }
    }
}

TEST(GeneratorTest, StreamsCrossLinesAtExpectedRate)
{
    const BenchProfile &p = benchProfile("applu");
    SyntheticGenerator g(p, 0, 5, false);
    for (int i = 0; i < 200'000; ++i)
        g.next();
    // Every elem-per-line-th stream op crosses.
    const double per_line = static_cast<double>(lineBytes)
        / p.elemBytes;
    const double expect = static_cast<double>(g.streamOps())
        / per_line;
    EXPECT_NEAR(static_cast<double>(g.streamLineCrossings()),
                expect, expect * 0.05);
}

TEST(GeneratorTest, Stride2StreamsSkipLines)
{
    BenchProfile p = benchProfile("mgrid");
    p.stride2Frac = 1.0;  // all streams strided
    p.jumpProb = 0.0;
    p.streamFrac = 1.0;
    SyntheticGenerator g(p, 0, 11, false);
    std::set<Addr> lines;
    for (int i = 0; i < 100'000; ++i) {
        TraceOp op = g.next();
        lines.insert(lineIndex(op.addr));
    }
    // Count adjacent-line pairs: with pure 2-line strides there are
    // almost none (lane boundaries aside).
    unsigned adjacent = 0;
    for (Addr l : lines) {
        if (lines.count(l + 1))
            ++adjacent;
    }
    EXPECT_LT(adjacent, lines.size() / 20);
}

TEST(GeneratorTest, GapsFollowProfileMean)
{
    const BenchProfile &p = benchProfile("parser");
    SyntheticGenerator g(p, 0, 13, false);
    double total = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        total += g.next().gap;
    EXPECT_NEAR(total / n, p.meanGap, p.meanGap * 0.15);
}

TEST(GeneratorTest, HotOpsConcentrateInHotSet)
{
    const BenchProfile &p = benchProfile("vpr");
    SyntheticGenerator g(p, 0, 17, false);
    std::uint64_t in_hot = 0, non_stream = 0;
    for (int i = 0; i < 100'000; ++i) {
        TraceOp op = g.next();
        (void)op;
    }
    in_hot = g.hotOps();
    non_stream = g.hotOps() + g.coldOps();
    // hotFrac of non-stream accesses go to the hot set.
    const double frac = static_cast<double>(in_hot)
        / static_cast<double>(non_stream);
    EXPECT_NEAR(frac, p.hotFrac, 0.05);
}

TEST(GeneratorTest, ProfileLookupFatalOnUnknown)
{
    EXPECT_DEATH(benchProfile("no-such-bench"), "unknown benchmark");
}

TEST(GeneratorTest, PaperSuiteHasTwelveProfiles)
{
    EXPECT_EQ(paperSuite().size(), 12u);
    for (const char *n :
         {"wupwise", "swim", "mgrid", "applu", "vpr", "equake",
          "facerec", "lucas", "fma3d", "parser", "gap", "vortex"}) {
        EXPECT_EQ(benchProfile(n).name, n);
    }
}

TEST(GeneratorTest, ExcludedProgramsModelledButNotInSuite)
{
    // Section 4.2 excludes art and mcf from the mixes; they remain
    // available for custom experiments.
    EXPECT_EQ(allProfiles().size(), 14u);
    EXPECT_EQ(benchProfile("art").name, "art");
    EXPECT_EQ(benchProfile("mcf").name, "mcf");
    for (const auto &p : paperSuite()) {
        EXPECT_NE(p.name, "art");
        EXPECT_NE(p.name, "mcf");
    }
    EXPECT_LT(benchProfile("mcf").baseIpc, 1.0) << "mcf's low IPC";
}

TEST(GeneratorTest, WarmDrawMatchesNextExceptGap)
{
    constexpr int warm_ops = 20'000;
    constexpr int after_ops = 5'000;
    for (const BenchProfile &p : allProfiles()) {
        for (bool sw_prefetch : {false, true}) {
            SCOPED_TRACE(p.name + (sw_prefetch ? " +swpf" : " -swpf"));
            SyntheticGenerator warm(p, 1ull << 30, 31, sw_prefetch);
            SyntheticGenerator ref(p, 1ull << 30, 31, sw_prefetch);
            for (int i = 0; i < warm_ops; ++i) {
                const TraceOp x = warm.nextWarm();
                const TraceOp y = ref.next();
                ASSERT_EQ(static_cast<int>(x.kind),
                          static_cast<int>(y.kind)) << "op " << i;
                ASSERT_EQ(x.addr, y.addr) << "op " << i;
            }
            EXPECT_EQ(warm.opsGenerated(), ref.opsGenerated());
            EXPECT_EQ(warm.streamOps(), ref.streamOps());
            EXPECT_EQ(warm.streamLineCrossings(),
                      ref.streamLineCrossings());
            EXPECT_EQ(warm.hotOps(), ref.hotOps());
            EXPECT_EQ(warm.coldOps(), ref.coldOps());
            EXPECT_EQ(warm.prefetchOps(), ref.prefetchOps());
            EXPECT_EQ(sw_prefetch, warm.prefetchOps() > 0);
            // Same RNG state: the full ops, gaps included, agree from
            // here on.
            for (int i = 0; i < after_ops; ++i) {
                const TraceOp x = warm.next();
                const TraceOp y = ref.next();
                ASSERT_EQ(x.gap, y.gap) << "op " << i;
                ASSERT_EQ(static_cast<int>(x.kind),
                          static_cast<int>(y.kind)) << "op " << i;
                ASSERT_EQ(x.addr, y.addr) << "op " << i;
            }
        }
    }
}

/** Property over all profiles: generator invariants. */
class GeneratorPropTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GeneratorPropTest, BasicInvariants)
{
    const BenchProfile &p = benchProfile(GetParam());
    EXPECT_GT(p.baseIpc, 0.0);
    EXPECT_GE(p.storeFrac, 0.0);
    EXPECT_LE(p.storeFrac, 1.0);
    SyntheticGenerator g(p, 0, 23, true);
    std::uint64_t mem_ops = 0;
    for (int i = 0; i < 20'000; ++i) {
        TraceOp op = g.next();
        if (op.kind != TraceOp::Kind::Prefetch)
            ++mem_ops;
        EXPECT_LT(op.gap, 100'000u);
    }
    EXPECT_GT(mem_ops, 0u);
    EXPECT_EQ(g.streamOps() + g.hotOps() + g.coldOps(), mem_ops);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenches, GeneratorPropTest,
    ::testing::Values("wupwise", "swim", "mgrid", "applu", "vpr",
                      "equake", "facerec", "lucas", "fma3d", "parser",
                      "gap", "vortex", "art", "mcf"));

} // namespace
} // namespace fbdp
