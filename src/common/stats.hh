/**
 * @file
 * A small statistics package in the spirit of the gem5 stats framework.
 *
 * Components declare named statistics inside a StatGroup; the group can
 * be reset between measurement phases (warm-up vs measured region) and
 * dumped as text.  Only the stat kinds this project needs are provided:
 * distributions and derived formulas evaluated at dump/query time
 * (components keep plain counters and expose them as formulas).
 */

#ifndef FBDP_COMMON_STATS_HH
#define FBDP_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace fbdp {
namespace stats {

/** Base class for every statistic. */
class Stat
{
  public:
    Stat(std::string stat_name, std::string stat_desc)
        : _name(std::move(stat_name)), _desc(std::move(stat_desc))
    {}
    virtual ~Stat() = default;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Reset to the zero state. */
    virtual void reset() = 0;

    /** Print "name value # desc" lines to @p os. */
    virtual void print(std::ostream &os) const = 0;

    /**
     * Print the value as a single JSON value (a number for formulas,
     * a summary object for histograms).
     * Non-finite values render as null, keeping the output valid
     * JSON.
     */
    virtual void printJson(std::ostream &os) const = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** Write @p v as a JSON number, or null when not finite. */
void printJsonNumber(std::ostream &os, double v);

/** Fixed-bucket histogram for distribution-shaped stats. */
class Histogram : public Stat
{
  public:
    /** Geometry must be non-degenerate: at least one bucket and a
     *  positive-width [lo, hi) range (asserted). */
    Histogram(std::string stat_name, std::string stat_desc,
              double bucket_lo, double bucket_hi, unsigned n_buckets);

    void sample(double v);

    std::uint64_t underflows() const { return under; }
    std::uint64_t overflows() const { return over; }
    std::uint64_t bucket(unsigned i) const { return buckets.at(i); }
    unsigned numBuckets() const
    {
        return static_cast<unsigned>(buckets.size());
    }
    std::uint64_t samples() const { return count; }
    double mean() const { return count ? sum / count : 0.0; }
    double low() const { return lo; }
    double high() const { return hi; }

    /**
     * Interpolated p-quantile (p in [0, 1]) of the sampled
     * distribution.  The target rank is located in the cumulative
     * bucket counts and the value is interpolated linearly within the
     * containing bucket, so quantiles move smoothly rather than
     * jumping from bucket edge to bucket edge.  Underflows resolve to
     * the low bound and overflows to the high bound.
     *
     * Edge cases are pinned down: an empty histogram reports 0 for
     * every p; p == 0 reports the low edge of the first populated
     * bucket (not the histogram's lower bound), so a distribution
     * concentrated in one bucket yields that bucket's own [low, high)
     * range across p instead of interpolating against the empty span
     * below it.
     */
    double quantile(double p) const;

    /** Accumulate @p other's samples (geometries must match). */
    void merge(const Histogram &other);

    void reset() override;
    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;

  private:
    double lo;
    double hi;
    std::vector<std::uint64_t> buckets;
    std::uint64_t under = 0;
    std::uint64_t over = 0;
    std::uint64_t count = 0;
    double sum = 0.0;
};

/** Derived statistic evaluated lazily from a lambda. */
class Formula : public Stat
{
  public:
    Formula(std::string stat_name, std::string stat_desc,
            std::function<double()> fn)
        : Stat(std::move(stat_name), std::move(stat_desc)),
          eval(std::move(fn))
    {}

    double value() const { return eval ? eval() : 0.0; }

    void reset() override {}
    void print(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;

  private:
    std::function<double()> eval;
};

/**
 * Container tying a set of stats to a component.  The group does not
 * own registered stats; components declare them as members and register
 * in their constructors, which keeps access free of indirection.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string group_name)
        : _name(std::move(group_name))
    {}

    void registerStat(Stat *s) { statList.push_back(s); }

    void resetAll();
    void printAll(std::ostream &os) const;

    /** Registered stat with @p stat_name, or nullptr. */
    Stat *find(const std::string &stat_name) const;

    const std::string &name() const { return _name; }
    const std::vector<Stat *> &all() const { return statList; }

  private:
    std::string _name;
    std::vector<Stat *> statList;
};

} // namespace stats
} // namespace fbdp

#endif // FBDP_COMMON_STATS_HH
