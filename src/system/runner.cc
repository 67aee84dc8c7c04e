#include "system/runner.hh"

#include <algorithm>
#include <cstdlib>
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
         const std::function<void(std::size_t, RunResult &&)> &result)
{
    std::vector<RunResult> results;
    auto deliver = [&](std::size_t i, RunResult &&r) {
        if (result)
            result(i, std::move(r));
        else
            results.push_back(std::move(r));
    };
    auto runCell = [&cells](std::size_t i) {
        const RunCell &cell = cells[i];
        return cell.mix ? runMix(cell.cfg, *cell.mix)
                        : System(cell.cfg).run();
    };

    const unsigned n = resolveJobs(jobs, cells.size());
    if (!result)
        results.reserve(cells.size());
    if (n <= 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            deliver(i, runCell(i));
        return results;
    }

    // Each cell is an isolated System built and run on a worker;
    // collecting the futures in submission order keeps results, the
    // result callback and any exception deterministic.
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

SystemConfig
PaperRun::prep(SystemConfig c) const
{
    const bool lng = window == Window::Long;
    c.warmupInsts = quick ? (lng ? 30'000 : 20'000)
                          : (lng ? 75'000 : 50'000);
    c.measureInsts = 4 * c.warmupInsts;
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
PaperRun::play(const Draw &draw, std::ostream &os, unsigned jobs)
{
    fbdp_assert(!replaying && asked.empty(), "a PaperRun plays once");
    std::ostream discard(nullptr);
    draw(*this, discard);
    results = runCells(cells, jobs);
    replaying = true;
    draw(*this, os);
    if (next != asked.size())
        fatal("paper replay asked for %zu of the %zu recorded cells",
              next, asked.size());
}

} // namespace fbdp
