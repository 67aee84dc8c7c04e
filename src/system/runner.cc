#include "system/runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <future>
#include <ostream>
#include <thread>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/thread_pool.hh"
#include "system/manifest.hh"

namespace fbdp {

RunResult
runMix(const SystemConfig &base, const WorkloadMix &mix)
{
    SystemConfig cfg = base;
    cfg.benchmarks = mix.benches;
    System sys(cfg);
    return sys.run();
}

namespace {

/** Largest instruction count the *_INSTS variables accept. */
constexpr long long maxEnvInsts = 1'000'000'000'000;

/** Set @p field from environment variable @p name when it holds a
 *  valid instruction count; warn and keep @p field otherwise. */
void
applyInstsVar(const char *name, std::uint64_t &field)
{
    const char *e = std::getenv(name);
    if (!e || !*e)
        return;
    if (const auto v = parseCount(e, 1, maxEnvInsts)) {
        field = static_cast<std::uint64_t>(*v);
        return;
    }
    warn("ignoring %s='%s': expected a decimal instruction count in "
         "[1, %lld]; keeping %llu", name, e, maxEnvInsts,
         static_cast<unsigned long long>(field));
}

} // namespace

unsigned
jobsFromEnv()
{
    const unsigned host =
        std::clamp(std::thread::hardware_concurrency(), 1u, 1024u);
    const char *e = std::getenv("FBDP_JOBS");
    if (!e || !*e)
        return host;
    const auto v = parseCount(e, 1, 1024);
    if (!v) {
        warn("ignoring FBDP_JOBS='%s': expected a worker count in "
             "[1, 1024]; using the host's %u CPUs", e, host);
        return host;
    }
    return static_cast<unsigned>(*v);
}

unsigned
resolveJobs(unsigned jobs, std::size_t cells)
{
    const unsigned n = jobs ? jobs : jobsFromEnv();
    if (cells > 0 && n > cells)
        return static_cast<unsigned>(cells);
    return n ? n : 1;
}

std::vector<RunResult>
runCells(const std::vector<RunCell> &cells, unsigned jobs,
         const CellHooks &hooks)
{
    std::vector<RunResult> results;
    auto deliver = [&](std::size_t i, RunResult &&r) {
        if (hooks.result)
            hooks.result(i, std::move(r));
        else
            results.push_back(std::move(r));
    };

    // Progress notes fire in completion order from the thread that
    // ran the cell; one mutex serialises them.
    std::mutex noteMu;
    auto note = [&noteMu](const auto &fn, auto... args) {
        if (!fn)
            return;
        std::lock_guard<std::mutex> lock(noteMu);
        fn(args...);
    };
    auto runCell = [&](std::size_t i) {
        using Clock = std::chrono::steady_clock;
        const RunCell &cell = cells[i];
        note(hooks.started, i);
        const auto t0 = Clock::now();
        try {
            RunResult r = cell.mix ? runMix(cell.cfg, *cell.mix)
                                   : System(cell.cfg).run();
            note(hooks.finished, i,
                 std::chrono::duration<double>(Clock::now() - t0)
                     .count());
            return r;
        } catch (const std::exception &e) {
            note(hooks.failed, i, e.what());
            throw;
        }
    };

    const unsigned n = resolveJobs(jobs, cells.size());
    if (!hooks.result)
        results.reserve(cells.size());
    if (n <= 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            deliver(i, runCell(i));
        return results;
    }

    // Each cell is an isolated System built and run on a worker;
    // collecting the futures in submission order keeps results, the
    // result hook and any exception deterministic.
    ThreadPool pool(n);
    std::vector<std::future<RunResult>> pending;
    pending.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        pending.push_back(
            pool.submit([&runCell, i] { return runCell(i); }));
    for (std::size_t i = 0; i < cells.size(); ++i)
        deliver(i, pending[i].get());
    return results;
}

ReferenceSet::ReferenceSet(SystemConfig ref_base)
    : base(std::move(ref_base))
{
}

double
ReferenceSet::ipcOf(const std::string &bench)
{
    std::lock_guard<std::mutex> lk(mtx);
    auto it = cache.find(bench);
    if (it != cache.end())
        return it->second;

    const RunResult r = runMix(base, {bench, {bench}});
    fbdp_assert(!r.ipc.empty() && r.ipc[0] > 0.0,
                "reference run for '%s' produced no IPC",
                bench.c_str());
    cache[bench] = r.ipc[0];
    return r.ipc[0];
}

double
smtSpeedup(const RunResult &r, const WorkloadMix &mix,
           const std::function<double(const std::string &)> &ref_ipc)
{
    fbdp_assert(r.ipc.size() == mix.benches.size(),
                "result/mix core-count mismatch");
    double s = 0.0;
    for (size_t i = 0; i < mix.benches.size(); ++i)
        s += r.ipc[i] / ref_ipc(mix.benches[i]);
    return s;
}

void
applyInstsFromEnv(SystemConfig &cfg)
{
    applyInstsVar("FBDP_MEASURE_INSTS", cfg.measureInsts);
    applyInstsVar("FBDP_WARMUP_INSTS", cfg.warmupInsts);
}

SystemConfig
PaperRun::prep(SystemConfig c) const
{
    const bool lng = window == Window::Long;
    c.warmupInsts = quick ? (lng ? 30'000 : 20'000)
                          : (lng ? 75'000 : 50'000);
    c.measureInsts = 4 * c.warmupInsts;
    applyInstsFromEnv(c);
    return c;
}

RunResult
PaperRun::run(const SystemConfig &cfg, const WorkloadMix &mix)
{
    SystemConfig c = cfg;
    c.benchmarks = mix.benches;
    const std::string key = canonicalConfigString(c);
    if (!replaying) {
        RunResult placeholder;
        placeholder.ipc.assign(c.benchmarks.size(), 0.0);
        const auto [it, fresh] = index.try_emplace(key, cells.size());
        if (fresh)
            cells.push_back({std::move(c), nullptr});
        asked.push_back(it->second);
        return placeholder;
    }
    const auto it = index.find(key);
    if (next >= asked.size() || it == index.end() ||
        it->second != asked[next])
        fatal("paper replay: request %zu (config digest %016llx) "
              "differs from the recorded one", next,
              static_cast<unsigned long long>(fnv1a64(key)));
    ++next;
    return results[it->second];
}

double
PaperRun::smt(const RunResult &r, const WorkloadMix &mix)
{
    const SystemConfig ref = prep(SystemConfig::ddr2());
    return smtSpeedup(r, mix, [&](const std::string &bench) {
        const double ipc = run(ref, {bench, {bench}}).ipc[0];
        fbdp_assert(!replaying || ipc > 0.0,
                    "reference run for '%s' produced no IPC",
                    bench.c_str());
        return ipc;
    });
}

void
PaperRun::play(const Draw &draw, std::ostream &os, unsigned jobs,
               const CellHooks &hooks)
{
    fbdp_assert(!replaying && asked.empty(), "a PaperRun plays once");
    std::ostream discard(nullptr);
    draw(*this, discard);
    results = runCells(cells, jobs, hooks);
    replaying = true;
    draw(*this, os);
    if (next != asked.size())
        fatal("paper replay asked for %zu of the %zu recorded cells",
              next, asked.size());
}

} // namespace fbdp
