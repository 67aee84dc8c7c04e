/**
 * @file
 * Experiment helpers shared by the benches, examples and tests:
 * running a workload mix on a configuration (serially or as a batch
 * on a worker pool), caching the single-core DDR2 reference IPCs,
 * computing the paper's SMT-speedup metric, and fbdp-paper's plan
 * that runs each distinct cell of the figures once (PaperRun).
 */

#ifndef FBDP_SYSTEM_RUNNER_HH
#define FBDP_SYSTEM_RUNNER_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
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

/**
 * Run every cell, each as an isolated System on a worker pool, and
 * return the results in input order (deterministic regardless of
 * completion order).  @p jobs resolves through resolveJobs().  This
 * is the one batch executor; Sweep runs its grid through it.  When
 * @p result is set it takes each cell's index and result on the
 * calling thread, in index order, once that cell and every earlier
 * one have finished, and runCells() returns no results.  A cell that
 * throws ends the batch: the cells before it are delivered, and its
 * exception propagates once the workers have drained.
 */
std::vector<RunResult> runCells(
    const std::vector<RunCell> &cells, unsigned jobs = 0,
    const std::function<void(std::size_t, RunResult &&)> &result = {});

/** Workers a batch of @p cells runs on: @p jobs, or jobsFromEnv()
 *  when @p jobs is 0, clamped to the number of cells. */
unsigned resolveJobs(unsigned jobs, std::size_t cells);

/**
 * Worker count requested by the FBDP_JOBS environment variable.
 * Accepted values are decimal integers in [1, 1024]; unset or empty
 * means the host's CPU count (std::thread::hardware_concurrency,
 * clamped to [1, 1024]).  Anything else — non-numeric text, trailing
 * junk, zero, negatives, absurd counts — logs a warning and falls
 * back to that same default rather than silently misconfiguring the
 * pool.  Results never depend on the count.
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

    /** ipcOf(), so std::ref(refs) is smtSpeedup()'s lookup. */
    double operator()(const std::string &bench) { return ipcOf(bench); }

  private:
    SystemConfig base;
    std::mutex mtx;
    std::map<std::string, double> cache;
};

/**
 * SMT speedup (Section 4.2):
 *   sum_i IPC_cmp[i] / IPC_single[i]
 * where IPC_single is @p ref_ipc of the program's name.
 */
double smtSpeedup(
    const RunResult &r, const WorkloadMix &mix,
    const std::function<double(const std::string &)> &ref_ipc);

/** The paper figures' run windows: 20k/80k warm-up/measured insts
 *  (Short) or 30k/120k (Long: Figs. 4, 5, 7) with --quick, else
 *  50k/200k or 75k/300k. */
enum class Window { Short, Long };

/**
 * The cells of a set of figures, each run once.  play() draws the
 * figures in a record pass (output discarded) that collects the cells
 * run() and smt() ask for, runs the distinct ones (by
 * canonicalConfigString) in first-request order in one runCells()
 * call, then draws the figures again from the results.  The replay
 * must ask for exactly the recorded cells, or it is fatal: a figure's
 * cells may not depend on results.
 */
class PaperRun
{
  public:
    using Draw = std::function<void(PaperRun &, std::ostream &)>;

    explicit PaperRun(bool quick) : quick(quick) {}

    /** The window prep() and smt() use from now on. */
    void setWindow(Window w) { window = w; }

    /** @p c with the current window's warm-up and measured insts. */
    SystemConfig prep(SystemConfig c) const;

    /** @p mix on @p cfg; while recording, one zero IPC per core. */
    RunResult run(const SystemConfig &cfg, const WorkloadMix &mix);

    /** smtSpeedup() against each program alone on
     *  prep(SystemConfig::ddr2()): one more cell per program. */
    double smt(const RunResult &r, const WorkloadMix &mix);

    /** Record @p draw, run its cells through runCells(@p jobs),
     *  replay it into @p os.  Once per PaperRun. */
    void play(const Draw &draw, std::ostream &os, unsigned jobs = 0);

    /** Cells play() ran: one per distinct cell requested. */
    std::size_t cellsRun() const { return results.size(); }

  private:
    bool quick;
    Window window = Window::Short;
    bool replaying = false;
    std::vector<RunCell> cells;     ///< distinct, first-request order
    std::unordered_map<std::string, std::size_t> index; ///< into cells
    std::vector<std::size_t> asked; ///< every request, as cells index
    std::size_t next = 0;           ///< replay position in asked
    std::vector<RunResult> results; ///< by cells index
};

} // namespace fbdp

#endif // FBDP_SYSTEM_RUNNER_HH
