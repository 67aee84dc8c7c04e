/**
 * @file
 * Typed results API for batch experiments.
 *
 * A sweep produces SweepRows; what the plotting / analysis pipelines
 * consume is a flat table of named, unit-annotated columns.  Instead
 * of hand-maintained header and row strings (the old
 * Sweep::csvHeader()/csvRow() pair), the table shape is declared once
 * as a ResultSchema — a list of Columns, each with a name, a unit, a
 * kind and a typed accessor — and both the CSV and the JSON emitters
 * are derived from that single definition, so the two can never drift
 * apart.
 *
 * Compatibility guarantee: ResultSchema::sweepRows() reproduces the
 * legacy CSV byte for byte (same column names, order, and number
 * formatting); Sweep::csvHeader()/csvRow() are thin wrappers over it.
 */

#ifndef FBDP_SYSTEM_RESULTS_HH
#define FBDP_SYSTEM_RESULTS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "system/system.hh"

namespace fbdp {

/** One row of sweep output. */
struct SweepRow
{
    std::string config;
    std::string mix;
    std::uint64_t seed = 0;
    RunResult result;
};

/** Value kind of one results column. */
enum class ColumnKind
{
    Text,  ///< identifiers (config and mix names)
    Count, ///< non-negative integer counters
    Real,  ///< measured quantities
};

/** One cell, already pulled out of a row by a Column accessor. */
struct ColumnValue
{
    ColumnKind kind = ColumnKind::Real;
    std::string text;
    std::uint64_t count = 0;
    double real = 0.0;

    static ColumnValue ofText(std::string v);
    static ColumnValue ofCount(std::uint64_t v);
    static ColumnValue ofReal(double v);

    /** Render for CSV (matches legacy operator<< formatting). */
    std::string csv() const;

    /** Render as a JSON value (quoted/escaped text, null for NaN). */
    std::string json() const;
};

/** One named, unit-annotated column of the results table. */
struct Column
{
    std::string name; ///< CSV header cell / JSON object key
    std::string unit; ///< "" when dimensionless
    std::string desc; ///< one-line meaning
    ColumnKind kind = ColumnKind::Real;
    std::function<ColumnValue(const SweepRow &)> get;
};

/**
 * An ordered set of Columns; the single source of truth for every
 * serialisation of sweep results.
 */
class ResultSchema
{
  public:
    ResultSchema &add(Column c);

    const std::vector<Column> &columns() const { return cols; }

    /** The canonical SweepRow schema (the legacy CSV layout). */
    static const ResultSchema &sweepRows();

    /**
     * Event-kernel profile columns (queue counters, transaction-pool
     * occupancy, sim-rate).  A separate table on purpose: sweepRows()
     * is a byte-for-byte compatibility surface and must not grow
     * columns, and host-time-derived rates are not comparable across
     * machines the way simulation results are.
     */
    static const ResultSchema &kernelStats();

    /**
     * Per-request-class latency percentiles (demand-miss reads,
     * prefetch-hit reads, writes) plus the late-prefetch counter.
     * A separate table for the same reason as kernelStats():
     * sweepRows() is a byte-for-byte compatibility surface.
     */
    static const ResultSchema &latencyPercentiles();

    /**
     * The prefetch-policy quality block (RunResult::prefetch): the
     * active policy's name plus the issued / hit / late-hit / dropped
     * / pollution counters and their derived ratios, aggregated over
     * channels.  The table head-to-head policy comparisons are built
     * from; a separate table because sweepRows() is a byte-for-byte
     * compatibility surface.
     */
    static const ResultSchema &prefetchStats();

    /**
     * The DRAM power block (Section 5.5): ACT/PRE and column-access
     * counts with the PowerModel's dynamic energy/power over the
     * measured window, in column-access units.  End-of-run companion
     * to the per-epoch power.* telemetry gauges; a separate table
     * because sweepRows() is a byte-for-byte compatibility surface.
     */
    static const ResultSchema &powerStats();

    /**
     * Per-class latency-phase breakdown (the attribution layer's
     * aggregate over all channels): per transaction class, the sample
     * count, the mean end-to-end latency and the mean time spent in
     * each phase — phase means sum to the total mean by construction.
     * Columns are all zero unless the run had
     * SystemConfig::attribution enabled.  A separate table because
     * sweepRows() is a byte-for-byte compatibility surface.
     */
    static const ResultSchema &latencyBreakdown();

    /** Comma-joined column names. */
    std::string csvHeader() const;

    /** One CSV line (no trailing newline). */
    std::string csvRow(const SweepRow &row) const;

    /** One JSON object ({"config":"fbd",...}, no trailing newline). */
    std::string jsonRow(const SweepRow &row) const;

    /**
     * Whole result set as one JSON document:
     *   { "columns": [ {"name","unit","kind"}, ... ],
     *     "rows":    [ {<name>: <value>, ...}, ... ] }
     * A non-empty @p manifest_json becomes a single "manifest" line
     * right after the opening brace — deleting that line recovers the
     * manifest-free bytes.
     */
    void writeJson(const std::vector<SweepRow> &rows,
                   std::ostream &os,
                   const std::string &manifest_json = "") const;

  private:
    std::vector<Column> cols;
};

} // namespace fbdp

#endif // FBDP_SYSTEM_RESULTS_HH
