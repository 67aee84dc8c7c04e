/**
 * @file
 * Batch experiment driver.
 *
 * Research use of a simulator is mostly grids: a set of machine
 * configurations crossed with a set of workloads, dumped as CSV or
 * JSON for a plotting pipeline.  Sweep collects named configurations
 * and mixes, runs the cross product (optionally with repeats over
 * seeds) through runCells() (system/runner.hh), and delivers one row
 * per run in deterministic config-major order regardless of how many
 * jobs ran concurrently or which finished first.
 *
 * Parallelism is runCells()'s: every cell is an independent System
 * built and run on a worker thread, and its result hook delivers
 * rows — and invokes the onRow() callback — on the calling thread, in
 * cell-definition order, so callbacks need no locking and streamed
 * output is byte-identical for any job count.  The job count comes
 * from jobs(), or the FBDP_JOBS environment variable when jobs() was
 * given 0 (the default), falling back to the host's CPU count.
 */

#ifndef FBDP_SYSTEM_SWEEP_HH
#define FBDP_SYSTEM_SWEEP_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "system/config.hh"
#include "system/manifest.hh"
#include "system/results.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

namespace fbdp {

class ProgressSink;

/** Cross-product experiment runner. */
class Sweep
{
  public:
    /** Add a named machine configuration (workload ignored). */
    Sweep &addConfig(std::string name, SystemConfig cfg);

    /** Add a workload mix by reference. */
    Sweep &addMix(const WorkloadMix &mix);

    /** Add every mix with the given core count. */
    Sweep &addMixGroup(unsigned cores);

    /** Repeat every cell with seeds base..base+n-1 (default 1),
     *  where base is the configuration's SystemConfig::seed — so two
     *  sweeps can use disjoint seed ranges. */
    Sweep &repeats(unsigned n);

    /** Worker threads for run(); 0 (default) means "use FBDP_JOBS
     *  from the environment, else the host's CPU count". */
    Sweep &jobs(unsigned n);

    /** Invoked after each run, on the calling thread, in row order
     *  (streaming output; see progress() for live status). */
    Sweep &onRow(std::function<void(const SweepRow &)> cb);

    /**
     * Attach a live progress sink (nullptr detaches).  The sink sees
     * sweepStarted / cellStarted / cellFinished / cellFailed /
     * sweepFinished in *completion* order — that is the point of live
     * progress — with calls serialised under an internal mutex, so
     * sinks need no locking.  Rows, row callbacks and every output
     * stay in config-major order and are byte-identical with or
     * without a sink attached.
     */
    Sweep &progress(ProgressSink *s);

    /**
     * Embed a run manifest in runCsv() / runJson() output: CSV gets
     * '#'-prefixed comment lines before the header, JSON a single
     * "manifest" line — stripping those recovers the manifest-free
     * bytes.  The manifest's config digest hashes *every* cell's
     * canonical configuration, so it identifies the whole grid.
     * Off by default.
     */
    Sweep &manifest(bool on);

    /**
     * Append one cross-run ledger record per finished row to @p path
     * (see system/ledger.hh; empty disables).  Each record carries
     * the *cell's* manifest — the digest of that cell's exact
     * configuration — so `fbdp-report --history` trends the same cell
     * across sweeps.  Off by default.
     */
    Sweep &ledger(std::string path);

    /** The grid manifest manifest(true) embeds (digest over every
     *  cell, in row order). */
    RunManifest gridManifest() const;

    /** Run everything; rows in config-major order. */
    std::vector<SweepRow> run();

    /** The schema behind every serialisation of sweep rows. */
    static const ResultSchema &schema();

    /** CSV header matching csvRow() (thin wrapper over schema()). */
    static std::string csvHeader();

    /** One row of CSV for a finished run (wrapper over schema()). */
    static std::string csvRow(const SweepRow &row);

    /** Run and stream CSV to @p os (header + one row per run). */
    void runCsv(std::ostream &os);

    /** Run and write the full JSON document to @p os. */
    void runJson(std::ostream &os);

    size_t cells() const
    {
        return configs.size() * mixes.size() * nRepeats;
    }

    /** Worker count run() will actually use: resolveJobs() over
     *  jobs() and the number of cells. */
    unsigned effectiveJobs() const;

  private:
    std::vector<std::pair<std::string, SystemConfig>> configs;
    std::vector<const WorkloadMix *> mixes;
    unsigned nRepeats = 1;
    unsigned nJobs = 0;
    std::function<void(const SweepRow &)> rowCb;
    ProgressSink *sink = nullptr;

    bool wantManifest = false;
    std::string ledgerPath;   ///< "" = no ledger
};

} // namespace fbdp

#endif // FBDP_SYSTEM_SWEEP_HH
