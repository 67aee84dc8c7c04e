#include "common/stats.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>

#include "common/logging.hh"

namespace fbdp {
namespace stats {

void
printJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null"; // NaN/Inf are not valid JSON numbers
        return;
    }
    os << v;
}

Histogram::Histogram(std::string stat_name, std::string stat_desc,
                     double bucket_lo, double bucket_hi,
                     unsigned n_buckets)
    : Stat(std::move(stat_name), std::move(stat_desc)),
      lo(bucket_lo), hi(bucket_hi),
      buckets(n_buckets, 0)
{
    fbdp_assert(n_buckets >= 1,
                "%s: histogram needs at least one bucket",
                name().c_str());
    fbdp_assert(hi > lo, "%s: degenerate histogram range",
                name().c_str());
}

void
Histogram::sample(double v)
{
    ++count;
    sum += v;
    if (v < lo) {
        ++under;
        return;
    }
    if (v >= hi) {
        ++over;
        return;
    }
    double width = (hi - lo) / static_cast<double>(buckets.size());
    auto idx = static_cast<size_t>((v - lo) / width);
    if (idx >= buckets.size())
        idx = buckets.size() - 1;
    ++buckets[idx];
}

double
Histogram::quantile(double p) const
{
    if (!count)
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;

    const double width = (hi - lo)
        / static_cast<double>(buckets.size());

    if (p == 0.0) {
        // The minimum of the distribution: the low edge of the first
        // populated region, NOT the histogram's lower bound — a
        // distribution concentrated in one bucket must report that
        // bucket's own edge instead of interpolating across the empty
        // span below it.
        if (under)
            return lo;
        for (size_t i = 0; i < buckets.size(); ++i) {
            if (buckets[i])
                return lo + width * static_cast<double>(i);
        }
        return hi; // only overflows
    }

    double target = p * static_cast<double>(count);
    double cum = static_cast<double>(under);
    if (target <= cum)
        return lo;

    for (size_t i = 0; i < buckets.size(); ++i) {
        if (!buckets[i])
            continue;
        double b = static_cast<double>(buckets[i]);
        if (cum + b >= target) {
            double frac = (target - cum) / b;
            return lo + width * (static_cast<double>(i) + frac);
        }
        cum += b;
    }
    // Only overflows remain above the target rank.
    return hi;
}

void
Histogram::merge(const Histogram &other)
{
    fbdp_assert(lo == other.lo && hi == other.hi &&
                buckets.size() == other.buckets.size(),
                "merging histograms with different geometry");
    for (size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    under += other.under;
    over += other.over;
    count += other.count;
    sum += other.sum;
}

void
Histogram::reset()
{
    for (auto &b : buckets)
        b = 0;
    under = over = count = 0;
    sum = 0.0;
}

void
Histogram::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " mean="
       << mean() << " samples=" << count << " # " << desc() << "\n";
    double width = (hi - lo) / static_cast<double>(buckets.size());
    std::uint64_t cum = under;
    for (size_t i = 0; i < buckets.size(); ++i) {
        if (!buckets[i])
            continue;
        cum += buckets[i];
        char pct[16];
        std::snprintf(pct, sizeof(pct), "%6.2f%%",
                      100.0 * static_cast<double>(cum) /
                          static_cast<double>(count));
        os << "  [" << lo + width * static_cast<double>(i) << ", "
           << lo + width * static_cast<double>(i + 1) << ") "
           << buckets[i] << " cum=" << pct << "\n";
    }
    if (under)
        os << "  underflows " << under << "\n";
    if (over)
        os << "  overflows " << over << "\n";
}

void
Histogram::printJson(std::ostream &os) const
{
    os << "{\"mean\": ";
    printJsonNumber(os, mean());
    os << ", \"samples\": " << count
       << ", \"p50\": ";
    printJsonNumber(os, quantile(0.50));
    os << ", \"p95\": ";
    printJsonNumber(os, quantile(0.95));
    os << ", \"p99\": ";
    printJsonNumber(os, quantile(0.99));
    os << ", \"underflows\": " << under
       << ", \"overflows\": " << over << "}";
}

void
Formula::print(std::ostream &os) const
{
    os << std::left << std::setw(40) << name() << " "
       << std::setw(16) << value() << " # " << desc() << "\n";
}

void
Formula::printJson(std::ostream &os) const
{
    printJsonNumber(os, value());
}

void
StatGroup::resetAll()
{
    for (auto *s : statList)
        s->reset();
}

Stat *
StatGroup::find(const std::string &stat_name) const
{
    for (auto *s : statList) {
        if (s->name() == stat_name)
            return s;
    }
    return nullptr;
}

void
StatGroup::printAll(std::ostream &os) const
{
    os << "---------- " << _name << " ----------\n";
    for (const auto *s : statList)
        s->print(os);
}

} // namespace stats
} // namespace fbdp
