/**
 * @file
 * fbdp end-to-end benchmark program.
 *
 * Runs one named workload for a fixed host-time budget, checks that the
 * simulated outputs are correct, and prints every metric by name and
 * unit, ending with one JSON line:
 *
 *   fbdp_perfbench --workload paper_cells --seed 1 --seconds 10
 *                  --trace 0 --workdir DIR
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 repeats the
 * workload with latency attribution on, records host-time spans around
 * every call into the simulator, runs the workload/cache probes, and
 * reports the per-layer metrics instead.  The simulator is driven only
 * through its public API (presets, System, runCells, Generator::next,
 * CacheHierarchy::functionalAccess, canonicalConfigString), so nothing
 * here can perturb what it measures.  See README.md beside this file
 * for why each workload exists and which layer each metric tracks.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "power/power_model.hh"
#include "system/manifest.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workload/mixes.hh"
#include "workload/profile.hh"
#include "workload/trace_stream.hh"

namespace {

using namespace fbdp;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------------ //
// Paper reference table                                              //
// ------------------------------------------------------------------ //

constexpr unsigned coreCounts[4] = {1, 2, 4, 8};

/** Average gain per core count (1/2/4/8) that the paper reports. */
struct PaperRef
{
    const char *metric;
    const char *what;
    const char *source;
    double pct[4];
};

// Lin, Zheng, Zhu, Zhang, Davis: "DRAM-Level Prefetching for Fully-
// Buffered DIMM: Design, Performance and Power Saving", ISPASS 2007.
// The same numbers are quoted in EXPERIMENTS.md and DESIGN.md.
const PaperRef fig04Ref{
    "fig04_gain_err_pp", "FBD over DDR2, average SMT speedup",
    "Fig. 4 / Sec. 5.1", {-1.5, -0.6, 1.1, 6.0}};
const PaperRef fig07Ref{
    "fig07_gain_err_pp", "FBD-AP over FBD, average SMT speedup",
    "Fig. 7 / Sec. 5.2", {16.0, 19.4, 16.3, 15.0}};

/**
 * Seed of the accuracy set: the benches' default, so the errors are
 * those of the figures the repository regenerates.  They do not follow
 * --seed because at the --quick window they move by a quarter from
 * seed to seed, which would drown any drift they are meant to gate.
 */
constexpr std::uint64_t paperSeed = 1;

// ------------------------------------------------------------------ //
// Options and host record                                            //
// ------------------------------------------------------------------ //

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::filesystem::path workdir = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "fbdp_perfbench: %s\nusage: fbdp_perfbench --workload "
                 "{paper_cells|ap_stream_8c|trace_irregular_8c} --seed N "
                 "--seconds S --trace {0|1} --workdir DIR\n", why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0 || text[0] == '-')
        usage(csprintf("%s needs a non-negative integer, got '%s'",
                       flag, text).c_str());
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value after " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = parseUnsigned("--seed", v);
        else if (a == "--seconds")
            o.seconds = static_cast<double>(parseUnsigned("--seconds", v));
        else if (a == "--trace")
            o.trace = parseUnsigned("--trace", v) != 0;
        else if (a == "--workdir")
            o.workdir = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.seconds < 1.0)
        usage("--seconds must be at least 1");
    return o;
}

/** The CPUs this process may run on (empty if unknown). */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/** Pins the calling thread to one CPU while in scope (a negative CPU
 *  pins nothing), then restores its previous mask. */
class CpuPin
{
  public:
    explicit CpuPin(int cpu)
    {
        if (cpu < 0 || sched_getaffinity(0, sizeof(saved), &saved) != 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        active = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    ~CpuPin()
    {
        if (active)
            sched_setaffinity(0, sizeof(saved), &saved);
    }
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    cpu_set_t saved{};
    bool active = false;
};

double
loadAvg1()
{
    double l[1] = {0.0};
    return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------------ //
// Cells                                                              //
// ------------------------------------------------------------------ //

/** One simulation request of a workload. */
struct Cell
{
    std::string label;          ///< e.g. "2C-3/fbd-ap"
    const WorkloadMix *mix = nullptr;
    SystemConfig cfg;           ///< benchmarks already filled in
};

/**
 * Digest of the simulated statistics a speed-only change must keep:
 * per-core IPC (exact bits), measured ticks, reads/writes, AMB hits and
 * the DRAM operation counts.
 */
std::uint64_t
digestOf(const RunResult &r)
{
    std::string s;
    for (double v : r.ipc)
        s += csprintf("%a,", v);
    s += csprintf("t%llu,r%llu,w%llu,a%llu,o%llu,%llu,%llu,%llu",
                  static_cast<unsigned long long>(r.measuredTicks),
                  static_cast<unsigned long long>(r.reads),
                  static_cast<unsigned long long>(r.writes),
                  static_cast<unsigned long long>(r.ambHits),
                  static_cast<unsigned long long>(r.ops.actPre),
                  static_cast<unsigned long long>(r.ops.rdCas),
                  static_cast<unsigned long long>(r.ops.wrCas),
                  static_cast<unsigned long long>(r.ops.refresh));
    return fnv1a64(s);
}

std::uint64_t
combineDigests(const std::vector<std::uint64_t> &ds)
{
    std::string s;
    for (std::uint64_t d : ds)
        s += csprintf("%016llx", static_cast<unsigned long long>(d));
    return fnv1a64(s);
}

/** Outcome of one cell, with its host-time span boundaries (seconds
 *  since the process origin). */
struct CellRun
{
    bool ok = false;
    std::string error;
    RunResult r;
    std::uint64_t digest = 0;
    std::uint64_t ops = 0;      ///< ops the run's generators produced
    std::uint64_t wraps = 0;    ///< trace replays that wrapped around
    double t0 = 0, t1 = 0, t2 = 0, t3 = 0; ///< start, built, ran, freed

    double constructS() const { return t1 - t0; }
    double runS() const { return t2 - t1; }
    double wallS() const { return t3 - t0; }
    double eventS() const { return r.kernel.hostEventSeconds; }
    double warmupS() const { return runS() - eventS(); }
};

/** Host time and outcome of one workload probe (see runProbe). */
struct ProbeRun
{
    std::uint64_t ops = 0;
    double t0 = 0, t1 = 0, t2 = 0, t3 = 0; ///< start, built, drawn, fed
};

const Clock::time_point origin = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

/**
 * Functional warm-up ops per core of @p cfg: the rule System::run()
 * applies (twice the L2's lines, split over the cores) unless the
 * config fixes the count.  The probe add-up residual shows it if the
 * two ever drift apart.
 */
std::uint64_t
functionalWarmupOps(const SystemConfig &cfg)
{
    if (cfg.functionalWarmupOps)
        return cfg.functionalWarmupOps;
    return 20 * (cfg.hier.l2Bytes / lineBytes) / cfg.nCores();
}

/** Build and run one cell; System::run executes pinned to @p pin_cpu
 *  (see CpuPin).  Helper threads the constructor starts, such as the
 *  trace decoders, keep the process's full CPU mask. */
CellRun
runCell(const SystemConfig &cfg, int pin_cpu)
{
    CellRun c;
    c.t0 = now();
    try {
        System sys(cfg);
        c.t1 = now();
        {
            CpuPin pin(pin_cpu);
            c.r = sys.run();
        }
        c.t2 = now();
        for (unsigned i = 0; i < cfg.nCores(); ++i) {
            Generator &g = sys.generator(i);
            if (auto *s = dynamic_cast<SyntheticGenerator *>(&g)) {
                c.ops += s->opsGenerated();
            } else if (auto *t =
                           dynamic_cast<StreamingTraceGenerator *>(&g)) {
                c.ops += t->consumed();
                c.wraps += t->wraps();
            }
        }
        c.digest = digestOf(c.r);
        c.ok = true;
    } catch (const std::exception &e) {
        c.error = e.what();
        c.t1 = std::max(c.t1, c.t0);
        c.t2 = std::max(c.t2, c.t1);
    }
    c.t3 = now();
    return c;
}

/**
 * The workload and cache layers of one cell's functional warm-up,
 * timed apart: a fresh System of the same config supplies fresh
 * generators (Generator::next draws the warm-up ops) and a fresh
 * hierarchy (CacheHierarchy::functionalAccess replays them).
 */
ProbeRun
runProbe(const SystemConfig &cfg)
{
    ProbeRun p;
    p.t0 = now();
    System sys(cfg);
    const unsigned n = cfg.nCores();
    const std::uint64_t warm = functionalWarmupOps(cfg);
    std::vector<TraceOp> ops;
    ops.reserve(warm * n);
    p.t1 = now();
    for (std::uint64_t k = 0; k < warm; ++k) {
        for (unsigned i = 0; i < n; ++i)
            ops.push_back(sys.generator(i).next());
    }
    p.t2 = now();
    CacheHierarchy &h = sys.hierarchy();
    for (std::size_t k = 0; k < ops.size(); ++k) {
        const TraceOp &op = ops[k];
        const int core = static_cast<int>(k % n);
        if (op.kind == TraceOp::Kind::Prefetch)
            h.functionalPrefetch(core, op.addr);
        else
            h.functionalAccess(core, op.addr,
                               op.kind == TraceOp::Kind::Store);
    }
    p.t3 = now();
    p.ops = ops.size();
    return p;
}

/** Run @p fn(i) for every i < n on up to @p workers threads, taking
 *  indices in order from a shared counter (a closed loop). */
template <typename Fn>
void
forEachParallel(std::size_t n, unsigned workers, Fn fn)
{
    std::atomic<std::size_t> next{0};
    auto loop = [&] {
        for (std::size_t i = next++; i < n; i = next++)
            fn(i);
    };
    std::vector<std::thread> pool;
    for (unsigned w = 1; w < std::min<std::size_t>(workers, n); ++w)
        pool.emplace_back(loop);
    loop();
    for (auto &t : pool)
        t.join();
}

/** One pass over every cell of a workload. */
struct Iteration
{
    bool traced = false;
    double t0 = 0, t1 = 0;  ///< wall boundaries
    double cpuS = 0;
    std::vector<CellRun> cells;

    double wallS() const { return t1 - t0; }
};

Iteration
runIteration(const std::vector<Cell> &cells, unsigned workers,
             bool traced, int pin_cpu)
{
    Iteration it;
    it.traced = traced;
    it.cells.resize(cells.size());
    const double cpu0 = cpuSeconds();
    it.t0 = now();
    forEachParallel(cells.size(), workers, [&](std::size_t i) {
        SystemConfig cfg = cells[i].cfg;
        cfg.attribution = traced;
        it.cells[i] = runCell(cfg, pin_cpu);
    });
    it.t1 = now();
    it.cpuS = cpuSeconds() - cpu0;
    return it;
}

// ------------------------------------------------------------------ //
// Workloads                                                          //
// ------------------------------------------------------------------ //

SystemConfig
quickWindow(SystemConfig c, std::uint64_t seed)
{
    // The --quick window of the fig04/fig07 benches.
    c.warmupInsts = 30'000;
    c.measureInsts = 120'000;
    c.seed = seed;
    return c;
}

/**
 * The cells Fig. 4 and Fig. 7 request at --quick, four per Table 3
 * mix in this order: DDR2 and FBD (Fig. 4), FBD again and FBD-AP
 * (Fig. 7).  The 1-core DDR2 cells double as the SMT-speedup
 * references.
 */
std::vector<Cell>
paperCells(std::uint64_t seed)
{
    const std::pair<const char *, SystemConfig> machines[4] = {
        {"ddr2", SystemConfig::ddr2()},
        {"fbd", SystemConfig::fbdBase()},
        {"fbd", SystemConfig::fbdBase()},
        {"fbd-ap", SystemConfig::fbdAp()},
    };
    std::vector<Cell> cells;
    for (unsigned cores : coreCounts) {
        for (const WorkloadMix &mix : mixesFor(cores)) {
            for (const auto &[name, base] : machines) {
                Cell c;
                c.label = mix.name + "/" + name;
                c.mix = &mix;
                c.cfg = quickWindow(base, seed);
                c.cfg.benchmarks = mix.benches;
                cells.push_back(std::move(c));
            }
        }
    }
    return cells;
}

SystemConfig
longWindow(SystemConfig c, std::uint64_t seed)
{
    c.warmupInsts = 1'000'000;
    c.measureInsts = 4'000'000;
    c.seed = seed;
    c.threads = 1;
    return c;
}

/** Deletes a directory tree on scope exit (the recorded traces). */
struct TempDir
{
    std::filesystem::path path;
    ~TempDir()
    {
        std::error_code ec;
        if (!path.empty())
            std::filesystem::remove_all(path, ec);
    }
};

/**
 * Record one .fbt trace per core of @p mix from synthetic generators
 * seeded by @p seed.  Each trace holds the functional warm-up ops plus
 * enough ops for 1.25x the timed window's instructions, so no core of
 * the replay wraps around (checked after every run).
 * @return the trace: workload specs, one per core.
 */
std::vector<std::string>
recordTraces(const WorkloadMix &mix, const SystemConfig &cfg,
             std::uint64_t seed, const std::filesystem::path &dir,
             std::uint64_t *bytes)
{
    const std::uint64_t warm = functionalWarmupOps(cfg);
    const std::uint64_t target =
        (cfg.warmupInsts + cfg.measureInsts) * 5 / 4 + 100'000;
    std::vector<std::string> specs;
    *bytes = 0;
    for (unsigned i = 0; i < mix.benches.size(); ++i) {
        const std::string &bench = mix.benches[i];
        const auto path = dir / csprintf("core%u-%s.fbt", i,
                                         bench.c_str());
        // Addresses are recorded at base 0: replay adds the core's
        // slice, as for the synthetic stream.
        SyntheticGenerator gen(benchProfile(bench), 0, seed * 1000 + i,
                               cfg.swPrefetch);
        TraceWriter w(path.string(), TraceFormat::Fbt, false, bench);
        for (std::uint64_t k = 0; k < warm; ++k)
            w.append(gen.next());
        for (std::uint64_t insts = 0; insts < target;) {
            const TraceOp op = gen.next();
            w.append(op);
            insts += op.gap + 1u;
        }
        w.close();
        *bytes += std::filesystem::file_size(path);
        specs.push_back("trace:" + path.string());
    }
    return specs;
}

struct Workload
{
    std::vector<Cell> cells;
    unsigned workers = 1;
    std::vector<int> cpus;      ///< allowed CPUs, rotated over
    std::size_t iterations = 0; ///< iterations started so far
    std::string inputs;         ///< one-line description of the inputs
    double inputS = 0.0;        ///< host time spent making the inputs
    TempDir tmp;
};

void
buildWorkload(const Options &o, unsigned cpus, Workload *w)
{
    const double t0 = now();
    if (o.workload == "paper_cells") {
        w->cells = paperCells(o.seed);
        w->workers = std::min(cpus, 4u);
        w->inputs = csprintf("27 Table 3 mixes x {DDR2, FBD, FBD, FBD-AP}"
                             " at 30k+120k insts, seed %llu",
                             static_cast<unsigned long long>(o.seed));
    } else if (o.workload == "ap_stream_8c") {
        Cell c;
        c.mix = &mixByName("8C-1");
        c.label = "8C-1/fbd-ap";
        c.cfg = longWindow(SystemConfig::fbdAp(), o.seed);
        c.cfg.benchmarks = c.mix->benches;
        w->cells.push_back(std::move(c));
        w->inputs = csprintf("8C-1 synthetic, 1M+4M insts, seed %llu",
                             static_cast<unsigned long long>(o.seed));
    } else if (o.workload == "trace_irregular_8c") {
        Cell c;
        c.mix = &mixByName("8C-3");
        c.label = "8C-3/fbd (trace replay)";
        c.cfg = longWindow(SystemConfig::fbdBase(), o.seed);
        c.cfg.benchmarks = c.mix->benches;  // sizes the traces
        std::filesystem::create_directories(o.workdir);
        std::string tmpl = (o.workdir / "traces-XXXXXX").string();
        if (!mkdtemp(tmpl.data()))
            throw std::runtime_error("cannot create a trace directory "
                                     "under " + o.workdir.string());
        w->tmp.path = tmpl;
        std::uint64_t bytes = 0;
        c.cfg.benchmarks = recordTraces(*c.mix, c.cfg, o.seed,
                                        w->tmp.path, &bytes);
        w->cells.push_back(std::move(c));
        w->inputs = csprintf("8C-3 as 8 streamed .fbt traces (%.1f MB) "
                             "recorded from seed %llu, 1M+4M insts",
                             static_cast<double>(bytes) / 1e6,
                             static_cast<unsigned long long>(o.seed));
    } else {
        usage(("unknown workload '" + o.workload + "'").c_str());
    }
    w->inputS = now() - t0;
}

// ------------------------------------------------------------------ //
// Paper accuracy                                                     //
// ------------------------------------------------------------------ //

/** Average gains in percent per core count (1/2/4/8). */
struct Gains
{
    double fig04[4] = {};
    double fig07[4] = {};

    bool operator==(const Gains &) const = default;
};

/**
 * The fig04/fig07 "average" rows over paperCells() results @p res
 * (same order), with the SMT-speedup sum taken exactly as
 * smtSpeedup() takes it so equal inputs give bit-equal gains.
 */
template <typename RefIpc>
Gains
gainsOf(const std::vector<Cell> &cells,
        const std::vector<const RunResult *> &res, RefIpc ref)
{
    auto smt = [&](std::size_t k) {
        const WorkloadMix &mix = *cells[k].mix;
        double s = 0.0;
        for (std::size_t i = 0; i < mix.benches.size(); ++i)
            s += res[k]->ipc[i] / ref(mix.benches[i]);
        return s;
    };
    Gains g;
    std::size_t k = 0;
    for (unsigned ci = 0; ci < 4; ++ci) {
        double d = 0, f4 = 0, f7 = 0, ap = 0;
        for (std::size_t m = 0; m < mixesFor(coreCounts[ci]).size();
             ++m, k += 4) {
            d += smt(k);
            f4 += smt(k + 1);
            f7 += smt(k + 2);
            ap += smt(k + 3);
        }
        g.fig04[ci] = (f4 / d - 1.0) * 100.0;
        g.fig07[ci] = (ap / f7 - 1.0) * 100.0;
    }
    return g;
}

/** Reference IPCs read off the 1-core DDR2 cells. */
std::map<std::string, double>
refsFromCells(const std::vector<Cell> &cells,
              const std::vector<const RunResult *> &res)
{
    std::map<std::string, double> refs;
    for (std::size_t k = 0; k < cells.size(); k += 4) {
        if (cells[k].mix->benches.size() == 1)
            refs[cells[k].mix->benches[0]] = res[k]->ipc.at(0);
    }
    return refs;
}

double
errPp(const double *sim, const PaperRef &ref)
{
    double e = 0.0;
    for (unsigned i = 0; i < 4; ++i)
        e += std::fabs(sim[i] - ref.pct[i]);
    return e / 4.0;
}

/** The accuracy set: paperCells() through runCells(), with the bench's
 *  ReferenceSet, as `fig04/fig07 --quick` compute their averages. */
struct Accuracy
{
    std::vector<Cell> cells;
    std::vector<RunResult> res;
    Gains benchGains;   ///< via ReferenceSet::ipcOf (the benches' path)
    Gains cellGains;    ///< via the 1-core DDR2 cells
    double seconds = 0;
};

Accuracy
runAccuracy(std::uint64_t seed, unsigned workers)
{
    Accuracy a;
    const double t0 = now();
    a.cells = paperCells(seed);
    std::vector<RunCell> rc;
    for (const Cell &c : a.cells)
        rc.push_back({c.cfg, nullptr});
    a.res = runCells(rc, workers);
    std::vector<const RunResult *> ptrs;
    for (const RunResult &r : a.res)
        ptrs.push_back(&r);
    ReferenceSet refs(quickWindow(SystemConfig::ddr2(), seed));
    a.benchGains = gainsOf(a.cells, ptrs, [&](const std::string &b) {
        return refs.ipcOf(b);
    });
    const auto cell_refs = refsFromCells(a.cells, ptrs);
    a.cellGains = gainsOf(a.cells, ptrs, [&](const std::string &b) {
        return cell_refs.at(b);
    });
    a.seconds = now() - t0;
    return a;
}

// ------------------------------------------------------------------ //
// Checks                                                             //
// ------------------------------------------------------------------ //

/** Correctness bookkeeping: every cell run attempted, the ones that
 *  aborted or were implicated by a failed check, and each check. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::set<std::string> failedCells;  ///< "<set>#<index>" keys
    std::vector<std::pair<std::string, bool>> results;

    void
    add(const std::string &name, bool pass)
    {
        results.emplace_back(name, pass);
    }

    bool
    allPass() const
    {
        for (const auto &r : results) {
            if (!r.second)
                return false;
        }
        return failedCells.empty();
    }
};

/** Cells that must agree: (index a, index b) of duplicate requests. */
std::vector<std::pair<std::size_t, std::size_t>>
duplicatePairs(const std::vector<Cell> &cells)
{
    std::map<std::string, std::size_t> first;
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        auto [it, fresh] =
            first.emplace(canonicalConfigString(cells[i].cfg), i);
        if (!fresh)
            pairs.emplace_back(it->second, i);
    }
    return pairs;
}

// ------------------------------------------------------------------ //
// Metrics and reporting                                              //
// ------------------------------------------------------------------ //

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    return csprintf("%.17g", v);
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** Sums over the cells of one traced iteration (per-layer metrics). */
std::vector<Metric>
layerMetrics(const Iteration &it, unsigned workers,
             const std::vector<Cell> &cells,
             const std::vector<ProbeRun> &probes)
{
    double construct = 0, warm = 0, event = 0, cell_wall = 0;
    double events = 0, insts = 0, win_insts = 0, ops = 0;
    double l2m = 0, l2h = 0, ipc_sum = 0, lat_w = 0, p99 = 0, bw = 0;
    double reads = 0, writes = 0, pf_issued = 0, pf_hits = 0;
    double pf_late = 0, pf_unused = 0, act = 0, cas = 0, energy = 0;
    double stall[4] = {}, window = 0;
    ClassPhaseBreakdown rd, pref;
    const PowerModel power;
    for (const CellRun &c : it.cells) {
        const RunResult &r = c.r;
        construct += c.constructS();
        warm += c.warmupS();
        event += c.eventS();
        cell_wall += c.wallS();
        events += static_cast<double>(r.kernel.eventsDispatched);
        insts += static_cast<double>(r.runInsts);
        win_insts += r.totalInsts();
        ops += static_cast<double>(c.ops);
        l2m += static_cast<double>(r.l2Misses);
        l2h += static_cast<double>(r.l2Hits);
        ipc_sum += r.ipcSum();
        lat_w += r.avgReadLatencyNs * static_cast<double>(r.reads);
        p99 += r.latDemand.p99Ns;
        bw += r.bandwidthGBs;
        reads += static_cast<double>(r.reads);
        writes += static_cast<double>(r.writes);
        pf_issued += static_cast<double>(r.prefetch.issued);
        pf_hits += static_cast<double>(r.prefetch.hits);
        pf_late += static_cast<double>(r.prefetch.lateHits);
        pf_unused += static_cast<double>(r.prefetch.evictedUnused
                                         + r.prefetch.invalidatedUnused);
        act += static_cast<double>(r.ops.actPre);
        cas += static_cast<double>(r.ops.cas());
        energy += power.dynamicEnergy(r.ops);
        for (const CoreCycleBreakdown &cb : r.attribution.cores) {
            window += static_cast<double>(cb.windowTicks);
            for (unsigned k = 0; k < 4; ++k)
                stall[k] += static_cast<double>(cb.stall[k]);
        }
        const auto &cls = r.attribution.total.cls;
        rd.merge(cls[static_cast<unsigned>(LatClass::DemandRead)]);
        rd.merge(cls[static_cast<unsigned>(LatClass::PrefHit)]);
        rd.merge(cls[static_cast<unsigned>(LatClass::SwPrefetch)]);
        pref.merge(cls[static_cast<unsigned>(LatClass::PrefHit)]);
    }
    double probe_gen = 0, probe_cache = 0, probe_ops = 0;
    for (const ProbeRun &p : probes) {
        probe_gen += p.t2 - p.t1;
        probe_cache += p.t3 - p.t2;
        probe_ops += static_cast<double>(p.ops);
    }
    std::set<std::string> distinct;
    for (const Cell &c : cells)
        distinct.insert(canonicalConfigString(c.cfg));
    const double n = static_cast<double>(it.cells.size());
    auto div = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto phase = [](const ClassPhaseBreakdown &b, LatPhase p) {
        return b.meanPhaseNs(static_cast<unsigned>(p));
    };
    return {
        {"system.construct_s", "s", construct},
        {"system.functional_warmup_s", "s", warm},
        {"system.event_s", "s", event},
        {"system.unique_cell_frac", "ratio",
         div(static_cast<double>(distinct.size()), n)},
        {"system.worker_busy_frac", "ratio",
         div(cell_wall, workers * it.wallS())},
        {"sim.events", "count", events},
        {"sim.events_per_kinst", "1/kinst", div(events, insts / 1e3)},
        {"sim.ns_per_event", "ns", div(event * 1e9, events)},
        {"workload.ops", "count", ops},
        {"workload.next_ns", "ns", div(probe_gen * 1e9, probe_ops)},
        {"cache.functional_ns", "ns", div(probe_cache * 1e9, probe_ops)},
        {"cache.l2_miss_rate", "ratio", div(l2m, l2m + l2h)},
        {"cpu.ipc_sum", "ipc", div(ipc_sum, n)},
        {"cpu.stall_frac.rob", "ratio", div(stall[0], window)},
        {"cpu.stall_frac.lq", "ratio", div(stall[1], window)},
        {"cpu.stall_frac.sq", "ratio", div(stall[2], window)},
        {"cpu.stall_frac.mshr", "ratio", div(stall[3], window)},
        {"mc.read_latency_ns", "ns", div(lat_w, reads)},
        {"mc.read_p99_ns", "ns", div(p99, n)},
        {"mc.bandwidth_gbs", "GB/s", div(bw, n)},
        {"mc.reads", "count", reads},
        {"mc.writes", "count", writes},
        {"mc.queue_ns", "ns", phase(rd, LatPhase::Queue)},
        {"mc.sched_ns", "ns", phase(rd, LatPhase::Sched)},
        {"mc.south_ns", "ns", phase(rd, LatPhase::South)},
        {"mc.north_ns", "ns", phase(rd, LatPhase::North)},
        {"prefetch.issued", "count", pf_issued},
        {"prefetch.coverage", "ratio", div(pf_hits, reads)},
        {"prefetch.efficiency", "ratio", div(pf_hits, pf_issued)},
        {"prefetch.late_frac", "ratio", div(pf_late, pf_hits)},
        {"prefetch.pollution", "ratio", div(pf_unused, pf_issued)},
        {"prefetch.amb_ns", "ns", phase(pref, LatPhase::Amb)},
        {"dram.bank_prep_ns", "ns", phase(rd, LatPhase::BankPrep)},
        {"dram.bank_ns", "ns", phase(rd, LatPhase::Bank)},
        {"dram.act_pre", "count", act},
        {"dram.cas", "count", cas},
        {"power.energy_per_kinst", "cas/kinst",
         div(energy, win_insts / 1e3)},
    };
}

void
writeSpans(const std::filesystem::path &path, const Options &o,
           const std::vector<Cell> &cells,
           const std::vector<Iteration> &iters,
           const std::vector<ProbeRun> &probes, std::size_t probed_iter)
{
    std::ofstream out(path);
    out << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
        << ",\"clock\":\"steady, seconds since process start\""
        << ",\"spans\":[\n";
    std::size_t id = 0;
    bool first = true;
    auto span = [&](const char *name, long cell, long parent, double a,
                    double b) {
        out << (first ? "" : ",\n")
            << csprintf("{\"id\":%zu,\"name\":\"%s\",\"cell\":%ld,"
                        "\"parent\":%ld,\"start\":%.9f,\"end\":%.9f}",
                        id, name, cell, parent, a, b);
        first = false;
        return static_cast<long>(id++);
    };
    for (std::size_t k = 0; k < iters.size(); ++k) {
        const Iteration &it = iters[k];
        const long root = span(it.traced ? "iteration.traced"
                                         : "iteration", -1, -1, it.t0,
                               it.t1);
        for (std::size_t i = 0; i < it.cells.size(); ++i) {
            const CellRun &c = it.cells[i];
            const long ci = static_cast<long>(i);
            const long cs = span("cell", ci, root, c.t0, c.t3);
            span("system.construct", ci, cs, c.t0, c.t1);
            span("system.run", ci, cs, c.t1, c.t2);
        }
        if (k != probed_iter)
            continue;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            const ProbeRun &p = probes[i];
            const long ci = static_cast<long>(i);
            const long ps = span("probe", ci, root, p.t0, p.t3);
            span("probe.construct", ci, ps, p.t0, p.t1);
            span("probe.workload", ci, ps, p.t1, p.t2);
            span("probe.cache", ci, ps, p.t2, p.t3);
        }
    }
    out << "\n],\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i)
        out << (i ? "," : "") << '"' << cells[i].label << '"';
    out << "]}\n";
}

/**
 * The workload's next iteration.  A single-worker iteration runs pinned
 * to the next allowed CPU in turn: on a shared host one vCPU can run
 * ~40 % slower than the others for minutes, and rotating lets every run
 * sample all of them, so its median does not depend on where the
 * scheduler happened to place it.
 */
Iteration
nextIteration(Workload &w, bool traced)
{
    const int pin = w.workers == 1 && !w.cpus.empty()
        ? w.cpus[w.iterations % w.cpus.size()] : -1;
    ++w.iterations;
    return runIteration(w.cells, w.workers, traced, pin);
}

/** Iterations until @p seconds have passed and at least @p min ran. */
std::vector<Iteration>
timedLoop(Workload &w, bool traced, double seconds, unsigned min)
{
    std::vector<Iteration> iters;
    const double t0 = now();
    while (iters.size() < min || now() - t0 < seconds)
        iters.push_back(nextIteration(w, traced));
    return iters;
}

int
benchMain(const Options &o)
{
    const std::vector<int> allowed = allowedCpus();
    const unsigned cpus = allowed.empty()
        ? std::max(1u, std::thread::hardware_concurrency())
        : static_cast<unsigned>(allowed.size());
    const double load0 = loadAvg1();
    const RunManifest manifest = RunManifest::capture(SystemConfig{});
    std::printf("== fbdp benchmark: %s (seed %llu, %s) ==\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                o.trace ? "traced" : "timed");
    std::printf("host: nproc %u, load %.2f before, build %s\n", cpus,
                load0, RunManifest::buildInfo().c_str());
#ifndef __OPTIMIZE__
    const bool optimized = false;
#else
    const bool optimized = true;
#endif
    const std::string &bt = manifest.buildType;
    if (!optimized || (bt != "Release" && bt != "RelWithDebInfo"
                       && bt != "MinSizeRel")) {
        std::fprintf(stderr, "fbdp_perfbench: refusing to time an "
                     "unoptimised build (%s)\n", bt.c_str());
        return 3;
    }

    Workload w;
    w.cpus = allowed;
    buildWorkload(o, cpus, &w);
    std::printf("inputs: %s; made in %.3f s before timing\n",
                w.inputs.c_str(), w.inputS);
    std::printf("loop: closed, %zu cells per iteration, %u worker%s\n",
                w.cells.size(), w.workers,
                w.workers == 1 ? ", pinned to each CPU in turn" : "s");

    // Timed part.  Untraced iterations give the end-to-end metrics; a
    // traced run splits its budget between untraced and traced ones so
    // it can report the tracing overhead and compare digests.
    // The untimed first iteration faults in memory and warms the host
    // caches; its digests still take part in the checks.
    std::vector<Iteration> iters{nextIteration(w, false)};
    for (Iteration &it : timedLoop(w, false,
                                   o.trace ? o.seconds / 2 : o.seconds,
                                   o.trace ? 2 : 3))
        iters.push_back(std::move(it));
    const double rss = peakRssMb();
    const std::size_t n_plain = iters.size();
    std::vector<ProbeRun> probes;
    if (o.trace) {
        for (Iteration &it : timedLoop(w, true, o.seconds / 2, 2))
            iters.push_back(std::move(it));
        probes.resize(w.cells.size());
        forEachParallel(w.cells.size(), w.workers, [&](std::size_t i) {
            probes[i] = runProbe(w.cells[i].cfg);
        });
    }

    // Correctness.
    Checks chk;
    auto failCell = [&](const char *set, std::size_t i) {
        chk.failedCells.insert(csprintf("%s#%zu", set, i));
    };
    const Iteration &ref = iters.front();
    bool all_ok = true, repeat = true, traced_eq = true, dup_eq = true;
    bool no_wrap = true;
    const auto dups = duplicatePairs(w.cells);
    for (std::size_t k = 0; k < iters.size(); ++k) {
        const Iteration &it = iters[k];
        const std::string tag = csprintf("iter%zu", k);
        for (std::size_t i = 0; i < it.cells.size(); ++i) {
            const CellRun &c = it.cells[i];
            ++chk.attempted;
            if (!c.ok) {
                all_ok = false;
                failCell(tag.c_str(), i);
                std::fprintf(stderr, "cell %s failed: %s\n",
                             w.cells[i].label.c_str(), c.error.c_str());
                continue;
            }
            if (c.wraps) {
                no_wrap = false;
                failCell(tag.c_str(), i);
            }
            if (c.digest != ref.cells[i].digest) {
                failCell(tag.c_str(), i);
                (it.traced ? traced_eq : repeat) = false;
            }
        }
        for (const auto &[a, b] : dups) {
            if (it.cells[a].digest != it.cells[b].digest) {
                dup_eq = false;
                failCell(tag.c_str(), a);
                failCell(tag.c_str(), b);
            }
        }
    }

    bool gains_eq = true;
    auto checkSet = [&](const Accuracy &a, const char *set) {
        chk.attempted += a.res.size();
        for (const auto &[i, j] : duplicatePairs(a.cells)) {
            if (digestOf(a.res[i]) != digestOf(a.res[j])) {
                dup_eq = false;
                failCell(set, i);
                failCell(set, j);
            }
        }
        if (a.benchGains != a.cellGains) {
            gains_eq = false;
            for (std::size_t i = 0; i < a.res.size(); ++i)
                failCell(set, i);
        }
    };
    const unsigned acc_workers = std::min(cpus, 4u);
    const Accuracy acc = runAccuracy(paperSeed, acc_workers);
    checkSet(acc, "accuracy");
    bool loop_eq = true;
    if (o.workload == "paper_cells") {
        // The benchmark's own loop must reproduce the library's batch
        // path cell for cell, and so the benches' average rows.
        std::optional<Accuracy> own;
        if (o.seed != paperSeed) {
            own = runAccuracy(o.seed, acc_workers);
            checkSet(*own, "batch");
        }
        const Accuracy &batch = own ? *own : acc;
        std::vector<const RunResult *> ptrs;
        for (std::size_t i = 0; i < batch.res.size(); ++i) {
            ptrs.push_back(&ref.cells[i].r);
            if (ref.cells[i].digest != digestOf(batch.res[i])) {
                loop_eq = false;
                failCell("batch", i);
            }
        }
        if (all_ok) {
            const auto refs = refsFromCells(w.cells, ptrs);
            if (gainsOf(w.cells, ptrs, [&](const std::string &b) {
                    return refs.at(b);
                }) != batch.benchGains) {
                gains_eq = false;
                for (std::size_t i = 0; i < ptrs.size(); ++i)
                    failCell("batch", i);
            }
        }
    }
    chk.add("no cell aborted", all_ok);
    chk.add("iterations repeat the first iteration's digests", repeat);
    chk.add("duplicate requests give equal digests", dup_eq);
    chk.add("fig04/fig07 average rows equal the benches' formula",
            gains_eq);
    if (o.workload == "paper_cells")
        chk.add("benchmark loop equals runCells cell for cell", loop_eq);
    if (o.workload == "trace_irregular_8c")
        chk.add("no trace replay wrapped around", no_wrap);
    if (o.trace)
        chk.add("traced run matches untraced run", traced_eq);

    // End-to-end figures, per timed untraced iteration, as medians.
    std::vector<double> wall, setup, cpu, rate;
    for (std::size_t k = 1; k < n_plain; ++k) {
        const Iteration &it = iters[k];
        double s = 0, insts = 0;
        for (const CellRun &c : it.cells) {
            s += c.constructS() + c.warmupS();
            insts += static_cast<double>(c.r.runInsts);
        }
        wall.push_back(it.wallS());
        setup.push_back(s);
        cpu.push_back(it.cpuS);
        rate.push_back(insts / 1e6 / it.wallS());
    }
    const double fig04_err = errPp(acc.benchGains.fig04, fig04Ref);
    const double fig07_err = errPp(acc.benchGains.fig07, fig07Ref);
    const std::vector<Metric> e2e = {
        {"wall_s", "s", median(wall)},
        {"setup_s", "s", median(setup)},
        {"cpu_s", "s", median(cpu)},
        {"sim_minsts_per_s", "Minst/s", median(rate)},
        {"peak_rss_mb", "MB", rss},
        {"fig07_gain_err_pp", "pp", fig07_err},
        {"fig04_gain_err_pp", "pp", fig04_err},
    };

    std::vector<std::uint64_t> ds;
    for (const CellRun &c : ref.cells)
        ds.push_back(c.digest);
    std::vector<std::uint64_t> acc_ds;
    for (const RunResult &r : acc.res)
        acc_ds.push_back(digestOf(r));

    std::printf("\niterations: 1 untimed + %zu untraced%s; wall s "
                "(u untimed, t traced):", n_plain - 1,
                o.trace ? csprintf(" + %zu traced",
                                   iters.size() - n_plain).c_str()
                        : "");
    for (std::size_t k = 0; k < iters.size(); ++k)
        std::printf(" %s%.3f", k == 0 ? "u" : iters[k].traced ? "t" : "",
                    iters[k].wallS());
    std::printf("\n");
    std::printf("digest: workload %016llx, accuracy set %016llx\n",
                static_cast<unsigned long long>(combineDigests(ds)),
                static_cast<unsigned long long>(combineDigests(acc_ds)));
    std::printf("cells: %llu attempted, %zu failed\n",
                static_cast<unsigned long long>(chk.attempted),
                chk.failedCells.size());
    for (const auto &[name, pass] : chk.results)
        std::printf("  [%s] %s\n", pass ? "ok" : "FAIL", name.c_str());

    std::printf("\npaper accuracy (simulated, seed %llu, --quick window, "
                "%.2f s via runCells)\n",
                static_cast<unsigned long long>(paperSeed), acc.seconds);
    for (const PaperRef *pr : {&fig04Ref, &fig07Ref}) {
        const double *sim = pr == &fig04Ref ? acc.benchGains.fig04
                                            : acc.benchGains.fig07;
        std::printf("  %s (%s, paper %s)\n", pr->what, pr->metric,
                    pr->source);
        for (unsigned i = 0; i < 4; ++i)
            std::printf("    %uC  simulated %+6.2f %%   paper %+5.1f %%\n",
                        coreCounts[i], sim[i], pr->pct[i]);
    }
    std::printf("  The model is unvalidated beyond these two reference "
                "rows.\n\n");

    const double load1 = loadAvg1();
    const bool quiet = load0 <= cpus && load1 <= cpus;
    std::printf("host: load %.2f after; %s\n", load1,
                quiet ? "quiet" : "NOT QUIET: load exceeded nproc, "
                                  "timings are suspect");

    std::vector<Metric> out = e2e;
    if (o.trace) {
        // Per-layer figures from the median traced iteration.
        std::vector<std::pair<double, std::size_t>> traced;
        for (std::size_t k = n_plain; k < iters.size(); ++k)
            traced.emplace_back(iters[k].wallS(), k);
        std::sort(traced.begin(), traced.end());
        const std::size_t mid = traced[(traced.size() - 1) / 2].second;
        const Iteration &ti = iters[mid];
        out = layerMetrics(ti, w.workers, w.cells, probes);

        double cell_wall = 0, parts = 0, warm = 0, probe = 0;
        for (const CellRun &c : ti.cells) {
            cell_wall += c.wallS();
            parts += c.constructS() + c.runS();
            warm += c.warmupS();
        }
        for (const ProbeRun &p : probes)
            probe += p.t3 - p.t1;
        std::vector<double> traced_wall;
        for (std::size_t k = n_plain; k < iters.size(); ++k)
            traced_wall.push_back(iters[k].wallS());
        out.push_back({"system.span_residual_frac", "ratio",
                       (cell_wall - parts) / cell_wall});
        out.push_back({"system.probe_residual_frac", "ratio",
                       (warm - probe) / warm});
        out.push_back({"trace.overhead_s", "s",
                       median(traced_wall) - median(wall)});
        const auto spans = o.workdir / csprintf(
            "spans-%s-seed%llu.json", o.workload.c_str(),
            static_cast<unsigned long long>(o.seed));
        std::filesystem::create_directories(o.workdir);
        writeSpans(spans, o, w.cells, iters, probes, mid);
        std::printf("spans: %s\n", spans.string().c_str());
        std::printf("add-up: cells = construct + run within %.3f %%; "
                    "probes explain functional warm-up within %.3f %%\n",
                    100.0 * (cell_wall - parts) / cell_wall,
                    100.0 * (warm - probe) / warm);
        printMetrics("\nend-to-end metrics (untraced iterations)", e2e);
        printMetrics("\nper-layer metrics (median traced iteration)",
                     out);
    } else {
        printMetrics("\nend-to-end metrics", e2e);
    }

    const bool correct = chk.allPass();
    std::string json = csprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %zu, "
        "\"metrics\": {", correct ? "true" : "false",
        static_cast<unsigned long long>(chk.attempted),
        chk.failedCells.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        json += csprintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                         i ? ", " : "", out[i].name.c_str(),
                         jsonNumber(out[i].value).c_str(),
                         out[i].unit.c_str());
    }
    json += "}}";
    std::printf("\n%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    try {
        return benchMain(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fbdp_perfbench: %s\n", e.what());
        return 1;
    }
}
