/**
 * @file
 * Machine-readable dump of everything a run measured — the input side
 * of the fbdp-report run-diff tool.
 *
 * One JSON document with seven sections:
 *   "run"       the canonical sweep-row columns (ResultSchema::
 *               sweepRows), so a stats dump can be diffed against
 *               sweep output directly;
 *   "latency"   per-class latency percentiles (latencyPercentiles);
 *   "kernel"    event-kernel profile (kernelStats) — host-time rates
 *               live only here, so a diff can ignore the section;
 *   "power"     DRAM op counts and the PowerModel's dynamic
 *               energy/power over the window (powerStats);
 *   "prefetch"  the prefetch quality block (prefetchStats);
 *   "breakdown" per-class latency-phase means (latencyBreakdown;
 *               zeros unless --attribution was on);
 *   "groups"    every StatGroup from System::buildStatGroups(), stat
 *               by stat — counters as numbers, averages and
 *               histograms as summary objects (including p50/p95/p99).
 */

#ifndef FBDP_SYSTEM_STATSJSON_HH
#define FBDP_SYSTEM_STATSJSON_HH

#include <ostream>

#include "system/results.hh"

namespace fbdp {

struct RunManifest;

/** Write the full stats document for @p row's run to @p os.
 *  @p sys must be the System the row was collected from (its live
 *  stat groups are walked for the "groups" section).  A non-null
 *  @p manifest becomes a single-line "manifest" member, first in the
 *  document — removing that one line recovers the manifest-free
 *  bytes. */
void writeRunStatsJson(const System &sys, const SweepRow &row,
                       std::ostream &os,
                       const RunManifest *manifest = nullptr);

} // namespace fbdp

#endif // FBDP_SYSTEM_STATSJSON_HH
