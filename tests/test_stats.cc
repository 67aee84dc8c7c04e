/**
 * @file
 * Statistics-framework tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hh"

namespace fbdp {
namespace {

using namespace stats;

TEST(StatsTest, HistogramBuckets)
{
    Histogram h("h", "dist", 0.0, 100.0, 10);
    h.sample(5);
    h.sample(15);
    h.sample(15);
    h.sample(-1);
    h.sample(1000);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.underflows(), 1u);
    EXPECT_EQ(h.overflows(), 1u);
    EXPECT_EQ(h.samples(), 5u);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.bucket(1), 0u);
}

TEST(StatsTest, HistogramEdgeValues)
{
    Histogram h("h", "dist", 0.0, 10.0, 10);
    h.sample(0.0);   // first bucket
    h.sample(10.0);  // == hi -> overflow by convention
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.overflows(), 1u);
}

TEST(StatsTest, FormulaEvaluatesLazily)
{
    double x = 1.0;
    Formula f("f", "derived", [&x] { return x * 2; });
    EXPECT_DOUBLE_EQ(f.value(), 2.0);
    x = 21.0;
    EXPECT_DOUBLE_EQ(f.value(), 42.0);
}

TEST(StatsTest, GroupResetAndPrint)
{
    StatGroup g("grp");
    Formula f("reads", "memory reads", [] { return 7.0; });
    Histogram h("lat", "latency", 0.0, 10.0, 2);
    g.registerStat(&f);
    g.registerStat(&h);
    h.sample(3.0);
    std::ostringstream os;
    g.printAll(os);
    EXPECT_NE(os.str().find("grp"), std::string::npos);
    EXPECT_NE(os.str().find("reads"), std::string::npos);
    EXPECT_NE(os.str().find("lat"), std::string::npos);
    g.resetAll();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(f.value(), 7.0); // derived: nothing to reset
}

TEST(StatsTest, PrintFormats)
{
    Formula f("n", "count", [] { return 5.0; });
    std::ostringstream os;
    f.print(os);
    EXPECT_NE(os.str().find('5'), std::string::npos);
    EXPECT_NE(os.str().find("count"), std::string::npos);
}

TEST(StatsTest, QuantileEmptyAndClamp)
{
    Histogram h("h", "dist", 0.0, 100.0, 10);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    h.sample(55.0);
    // p is clamped into [0, 1].
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(StatsTest, QuantileInterpolatesWithinBucket)
{
    // 100 samples in bucket [50, 60): the p-quantile must move
    // linearly across the bucket, not jump between its edges.
    Histogram h("h", "dist", 0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(55.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 55.0);
    EXPECT_NEAR(h.quantile(0.25), 52.5, 1e-9);
    EXPECT_NEAR(h.quantile(0.99), 59.9, 1e-9);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 60.0);
}

TEST(StatsTest, QuantileAcrossBuckets)
{
    // Uniform mass over [0, 100): quantiles track p * 100.
    Histogram h("h", "dist", 0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i));
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
    EXPECT_NEAR(h.quantile(0.95), 95.0, 1.0);
    EXPECT_NEAR(h.quantile(0.1), 10.0, 1.0);
}

TEST(StatsTest, QuantileUnderAndOverflow)
{
    Histogram h("h", "dist", 10.0, 20.0, 10);
    h.sample(0.0);   // underflow
    h.sample(15.0);
    h.sample(100.0); // overflow
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);  // resolves to lo
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);  // resolves to hi
}

TEST(StatsTest, QuantileZeroReportsFirstPopulatedBucketEdge)
{
    // p == 0 is the distribution's minimum: the low edge of the
    // first populated bucket, not the histogram's lower bound.  A
    // distribution concentrated in one bucket must span that
    // bucket's own [low, high) range across p, never interpolate
    // against the empty space below it.
    Histogram h("h", "dist", 0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(55.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 50.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 60.0);

    // With underflows present, the minimum resolves to lo.
    h.sample(-5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(StatsTest, QuantileZeroWithOnlyOverflows)
{
    Histogram h("h", "dist", 0.0, 100.0, 10);
    h.sample(500.0);
    h.sample(900.0);
    // Every sample is beyond hi; the whole quantile range collapses
    // onto the high bound.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 100.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 100.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(StatsDeathTest, HistogramRejectsDegenerateGeometry)
{
    EXPECT_DEATH(Histogram("h", "dist", 0.0, 100.0, 0),
                 "at least one bucket");
    EXPECT_DEATH(Histogram("h", "dist", 50.0, 50.0, 10),
                 "degenerate");
    EXPECT_DEATH(Histogram("h", "dist", 60.0, 50.0, 10),
                 "degenerate");
}

TEST(StatsTest, HistogramMergeAccumulates)
{
    Histogram a("a", "dist", 0.0, 100.0, 10);
    Histogram b("b", "dist", 0.0, 100.0, 10);
    a.sample(5.0);
    a.sample(-1.0);
    b.sample(5.0);
    b.sample(95.0);
    b.sample(1000.0);
    a.merge(b);
    EXPECT_EQ(a.samples(), 5u);
    EXPECT_EQ(a.bucket(0), 2u);
    EXPECT_EQ(a.bucket(9), 1u);
    EXPECT_EQ(a.underflows(), 1u);
    EXPECT_EQ(a.overflows(), 1u);
    EXPECT_NEAR(a.mean(), (5.0 - 1.0 + 5.0 + 95.0 + 1000.0) / 5.0,
                1e-9);
}

TEST(StatsTest, GroupFindByName)
{
    StatGroup g("grp");
    Formula f("reads", "memory reads", [] { return 0.0; });
    Histogram h("lat", "latency", 0.0, 10.0, 2);
    g.registerStat(&f);
    g.registerStat(&h);
    EXPECT_EQ(g.find("reads"), &f);
    EXPECT_EQ(g.find("lat"), &h);
    EXPECT_EQ(g.find("nonsense"), nullptr);
}

TEST(StatsTest, HistogramPrintsCumulativePercent)
{
    Histogram h("h", "dist", 0.0, 10.0, 2);
    h.sample(1.0);
    h.sample(2.0);
    h.sample(3.0);
    h.sample(7.0);
    std::ostringstream os;
    h.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("cum="), std::string::npos);
    // The last bucket's cumulative share must read 100%.
    EXPECT_NE(out.find("100.00%"), std::string::npos);
    // The first bucket holds 3 of 4 samples -> 75%.
    EXPECT_NE(out.find("75.00%"), std::string::npos);
}

} // namespace
} // namespace fbdp
