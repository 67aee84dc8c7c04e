/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * A small xorshift64* generator: fast, seedable, and completely
 * reproducible across platforms, which matters because the synthetic
 * SPEC2000 traces must be identical from run to run so that
 * configuration comparisons (DDR2 vs FB-DIMM vs FBD-AP) see exactly the
 * same access stream.
 */

#ifndef FBDP_COMMON_RANDOM_HH
#define FBDP_COMMON_RANDOM_HH

#include <cstdint>

namespace fbdp {

/** xorshift64* PRNG. Never returns the same sequence for two seeds. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : state(seed ? seed : 0x9e3779b97f4a7c15ULL)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dULL;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11)
            * (1.0 / 9007199254740992.0);
    }

    /**
     * The chanceBelow() threshold equivalent to chance(@p p):
     * ceil(p * 2^53), 0 for p <= 0 or NaN, 2^53 for p >= 1.  Since
     * uniform() is exactly k * 2^-53 with k = next() >> 11, the test
     * uniform() < p holds exactly when k < ceil(p * 2^53).
     */
    static std::uint64_t
    chanceThreshold(double p)
    {
        constexpr double scale = 9007199254740992.0;  // 2^53
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return 1ull << 53;
        // p * 2^53 < 2^53 is exact; truncate, then round up.
        const double x = p * scale;
        const auto k = static_cast<std::uint64_t>(x);
        return k + (static_cast<double>(k) < x ? 1 : 0);
    }

    /** Bernoulli draw against a chanceThreshold(); the same result
     *  and state advance as chance(p) without the float compare. */
    bool
    chanceBelow(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /** Bernoulli draw with probability @p p. */
    bool
    chance(double p)
    {
        return chanceBelow(chanceThreshold(p));
    }

    /**
     * Geometric-ish draw with the given mean, always at least
     * @p least. Used to space memory operations along the
     * instruction stream.
     */
    std::uint64_t
    geometric(double mean, std::uint64_t least = 0)
    {
        if (mean <= 0)
            return least;
        double u = uniform();
        // Inverse CDF of the geometric distribution.
        double val = -mean * logApprox(1.0 - u);
        auto v = static_cast<std::uint64_t>(val);
        return v < least ? least : v;
    }

    /** Advance the state exactly as geometric(@p mean) does, without
     *  computing the value (its logarithm is most of the cost). */
    void
    skipGeometric(double mean)
    {
        if (!(mean <= 0))
            next();
    }

  private:
    /** Cheap natural log; accurate enough for trace spacing. */
    static double
    logApprox(double x)
    {
        // ln(x) via frexp-style decomposition would pull in <cmath>;
        // we accept it here — precision is irrelevant for synthesis.
        if (x <= 0)
            return -40.0;
        double sum = 0.0;
        while (x < 0.5) {
            x *= 2.0;
            sum -= 0.6931471805599453;
        }
        while (x > 1.0) {
            x *= 0.5;
            sum += 0.6931471805599453;
        }
        // ln(x) for x in (0.5, 1]: use atanh series around 1.
        double y = (x - 1.0) / (x + 1.0);
        double y2 = y * y;
        double term = y;
        double acc = 0.0;
        for (int k = 1; k <= 9; k += 2) {
            acc += term / k;
            term *= y2;
        }
        return sum + 2.0 * acc;
    }

    std::uint64_t state;
};

} // namespace fbdp

#endif // FBDP_COMMON_RANDOM_HH
