/**
 * @file
 * Deterministic RNG tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.hh"

namespace fbdp {
namespace {

TEST(RngTest, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_EQ(same, 0);
}

TEST(RngTest, ZeroSeedStillWorks)
{
    Rng r(0);
    EXPECT_NE(r.next(), 0u);
}

TEST(RngTest, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10'000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 100'000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100'000, 0.5, 0.01);
}

TEST(RngTest, ChanceMatchesProbability)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 100'000; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

/** The float test chance() replaced: uniform() < p. */
bool
floatChance(Rng &r, double p)
{
    return r.uniform() < p;
}

TEST(RngTest, ChanceThresholdEdgeValues)
{
    constexpr std::uint64_t two53 = 1ull << 53;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(Rng::chanceThreshold(0.0), 0u);
    EXPECT_EQ(Rng::chanceThreshold(-0.0), 0u);
    EXPECT_EQ(Rng::chanceThreshold(-1.0), 0u);
    EXPECT_EQ(Rng::chanceThreshold(-inf), 0u);
    EXPECT_EQ(Rng::chanceThreshold(nan), 0u);
    EXPECT_EQ(Rng::chanceThreshold(1.0), two53);
    EXPECT_EQ(Rng::chanceThreshold(1.5), two53);
    EXPECT_EQ(Rng::chanceThreshold(inf), two53);
    EXPECT_EQ(Rng::chanceThreshold(0.5), two53 / 2);
    EXPECT_EQ(Rng::chanceThreshold(std::ldexp(1.0, -53)), 1u);
    // Anything positive lets k == 0 through, as 0.0 < p does.
    EXPECT_EQ(Rng::chanceThreshold(std::ldexp(1.0, -54)), 1u);
    EXPECT_EQ(Rng::chanceThreshold(
                  std::numeric_limits<double>::denorm_min()), 1u);
    EXPECT_EQ(Rng::chanceThreshold(std::nextafter(1.0, 0.0)), two53 - 1);
}

TEST(RngTest, ChanceThresholdSplitsTheGridLikeTheFloatTest)
{
    // uniform() takes exactly the values k * 2^-53: at and around each
    // threshold, k < threshold must agree with k * 2^-53 < p.
    Rng pick(5);
    std::vector<double> ps = {0.3, 0.7, 0.05, 1e-9, 0.999999999,
                              std::nextafter(0.5, 1.0),
                              std::nextafter(0.5, 0.0)};
    for (int i = 0; i < 10'000; ++i)
        ps.push_back(pick.uniform());
    for (double p : ps) {
        const std::uint64_t t = Rng::chanceThreshold(p);
        for (std::uint64_t k : {t - 1, t, t + 1}) {
            if (k >= (1ull << 53))
                continue;
            const double u = static_cast<double>(k)
                * (1.0 / 9007199254740992.0);
            EXPECT_EQ(k < t, u < p) << "p=" << p << " k=" << k;
        }
    }
}

TEST(RngTest, ChanceDrawsEqualTheFloatTest)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> ps = {
        0.0, -0.5, nan, 1.0, 2.0, 1e-300, 0.3, 0.5, 0.75, 0.999,
        std::nextafter(1.0, 0.0), std::ldexp(1.0, -53)};
    for (double p : ps) {
        Rng a(42), b(42), c(42);
        const std::uint64_t t = Rng::chanceThreshold(p);
        for (int i = 0; i < 20'000; ++i) {
            const bool want = floatChance(a, p);
            ASSERT_EQ(b.chance(p), want) << "p=" << p << " draw " << i;
            ASSERT_EQ(c.chanceBelow(t), want) << "p=" << p;
        }
        const std::uint64_t next = a.next();
        EXPECT_EQ(b.next(), next);
        EXPECT_EQ(c.next(), next);
    }
}

TEST(RngTest, GeometricMeanApproximatesTarget)
{
    Rng r(13);
    double sum = 0;
    const int n = 200'000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(8.0));
    EXPECT_NEAR(sum / n, 8.0, 0.8);
}

TEST(RngTest, GeometricRespectsFloor)
{
    Rng r(17);
    for (int i = 0; i < 10'000; ++i)
        EXPECT_GE(r.geometric(2.0, 3), 3u);
}

TEST(RngTest, GeometricZeroMean)
{
    Rng r(19);
    EXPECT_EQ(r.geometric(0.0), 0u);
    EXPECT_EQ(r.geometric(-1.0, 5), 5u);
}

} // namespace
} // namespace fbdp
