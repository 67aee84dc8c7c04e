/**
 * @file
 * Experiment helpers shared by the benches, examples and tests:
 * running a workload mix on a configuration (serially or as a batch
 * on a worker pool), caching the single-core DDR2 reference IPCs, and
 * computing the paper's SMT-speedup metric.
 */

#ifndef FBDP_SYSTEM_RUNNER_HH
#define FBDP_SYSTEM_RUNNER_HH

#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "system/config.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

namespace fbdp {

/** Run @p mix on @p base (benchmarks/core count filled from the mix). */
RunResult runMix(const SystemConfig &base, const WorkloadMix &mix);

/** One unit of batch work: a machine, optionally paired with a mix
 *  whose benchmarks overwrite the configuration's. */
struct RunCell
{
    SystemConfig cfg;
    const WorkloadMix *mix = nullptr;
};

/** Optional observers of one runCells() batch, which name cells by
 *  their index in the batch. */
struct CellHooks
{
    /** Takes each result on the calling thread, in index order, once
     *  that cell and every earlier one have finished.  When set,
     *  runCells() returns no results. */
    std::function<void(std::size_t, RunResult &&)> result;

    /** Progress notes in *completion* order, from whichever thread
     *  ran the cell, serialised under one mutex so receivers need no
     *  locking: start, finish (host wall seconds) and failure (the
     *  exception's message). */
    std::function<void(std::size_t)> started;
    std::function<void(std::size_t, double)> finished;
    std::function<void(std::size_t, const char *)> failed;
};

/**
 * Run every cell, each as an isolated System on a worker pool, and
 * return the results in input order (deterministic regardless of
 * completion order).  @p jobs resolves through resolveJobs().  This
 * is the one batch executor; Sweep runs its grid through it.  A cell
 * that throws ends the batch: the cells before it are delivered, and
 * its exception propagates once the workers have drained.
 */
std::vector<RunResult> runCells(const std::vector<RunCell> &cells,
                                unsigned jobs = 0,
                                const CellHooks &hooks = {});

/** Workers a batch of @p cells runs on: @p jobs, or jobsFromEnv()
 *  when @p jobs is 0, clamped to the number of cells. */
unsigned resolveJobs(unsigned jobs, std::size_t cells);

/**
 * Worker count requested by the FBDP_JOBS environment variable.
 * Accepted values are decimal integers in [1, 1024]; unset or empty
 * means serial (1).  Anything else — non-numeric text, trailing
 * junk, zero, negatives, absurd counts — logs a warning and falls
 * back to serial rather than silently misconfiguring the pool.
 */
unsigned jobsFromEnv();

/**
 * Per-program reference IPCs: each program alone on a single-core
 * machine with two-channel DDR2 (the paper's reference points).
 * Results are computed lazily and cached for the object lifetime.
 * Thread-safe: concurrent ipcOf() calls serialise on an internal
 * mutex (a miss simulates while holding it, so warming the cache is
 * sequential; hits are cheap lookups).
 */
class ReferenceSet
{
  public:
    /** @param ref_base the reference machine (workload ignored). */
    explicit ReferenceSet(SystemConfig ref_base);

    /** Reference IPC of @p bench (simulating on first use). */
    double ipcOf(const std::string &bench);

  private:
    SystemConfig base;
    std::mutex mtx;
    std::map<std::string, double> cache;
};

/**
 * SMT speedup (Section 4.2):
 *   sum_i IPC_cmp[i] / IPC_single[i]
 * where IPC_single comes from @p refs.
 */
double smtSpeedup(const RunResult &r, const WorkloadMix &mix,
                  ReferenceSet &refs);

/**
 * Scale per-run instruction counts from the environment.
 * FBDP_MEASURE_INSTS / FBDP_WARMUP_INSTS override the defaults;
 * benches use this so `--quick` and CI runs stay cheap.  Values follow
 * jobsFromEnv's rules: whole-string decimal integers in [1, 10^12]
 * are applied; anything else (`2e6`, `120k`, zero, negatives) warns
 * and leaves the count as it was.  Unset or empty is ignored.
 */
void applyInstsFromEnv(SystemConfig &cfg);

} // namespace fbdp

#endif // FBDP_SYSTEM_RUNNER_HH
