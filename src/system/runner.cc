#include "system/runner.hh"

#include <cstdlib>
#include <future>
#include <optional>
#include <thread>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace fbdp {

RunResult
runMix(const SystemConfig &base, const WorkloadMix &mix)
{
    SystemConfig cfg = base;
    cfg.benchmarks = mix.benches;
    applyThreadsFromEnv(cfg);
    System sys(cfg);
    return sys.run();
}

namespace {

/** @p text as a whole-string decimal integer in [@p lo, @p hi], or
 *  nothing (non-numeric text, trailing junk, out of range). */
std::optional<long long>
parseCount(const char *text, long long lo, long long hi)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < lo || v > hi)
        return std::nullopt;
    return v;
}

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
    const char *e = std::getenv("FBDP_JOBS");
    if (!e || !*e)
        return 1;
    const auto v = parseCount(e, 1, 1024);
    if (!v) {
        warn("ignoring FBDP_JOBS='%s': expected a worker count in "
             "[1, 1024]; running serially", e);
        return 1;
    }
    return static_cast<unsigned>(*v);
}

unsigned
parseThreadCount(const char *text, const char *origin)
{
    if (!text || !*text)
        return 1;
    const auto parsed = parseCount(text, 1, 1024);
    if (!parsed) {
        warn("ignoring %s='%s': expected a lane count in [1, 1024]; "
             "running serially", origin, text);
        return 1;
    }
    const long long v = *parsed;
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0 && v > hw) {
        warn("%s=%lld exceeds the %u host CPUs; clamping (results "
             "are identical for every thread count)", origin, v, hw);
        return hw;
    }
    return static_cast<unsigned>(v);
}

void
applyThreadsFromEnv(SystemConfig &cfg)
{
    const char *e = std::getenv("FBDP_THREADS");
    if (!e || !*e)
        return;
    cfg.threads = parseThreadCount(e, "FBDP_THREADS");
}

std::vector<RunResult>
runCells(const std::vector<RunCell> &cells, unsigned jobs)
{
    std::vector<SystemConfig> cfgs;
    cfgs.reserve(cells.size());
    for (const RunCell &cell : cells) {
        cfgs.push_back(cell.cfg);
        if (cell.mix)
            cfgs.back().benchmarks = cell.mix->benches;
        applyThreadsFromEnv(cfgs.back());
    }

    std::vector<RunResult> results;
    results.reserve(cfgs.size());

    unsigned n = jobs ? jobs : jobsFromEnv();
    if (n > cfgs.size())
        n = static_cast<unsigned>(cfgs.size());
    if (n <= 1) {
        for (const SystemConfig &cfg : cfgs) {
            System sys(cfg);
            results.push_back(sys.run());
        }
        return results;
    }

    ThreadPool pool(n);
    std::vector<std::future<RunResult>> pending;
    pending.reserve(cfgs.size());
    for (const SystemConfig &cfg : cfgs) {
        pending.push_back(pool.submit([&cfg] {
            System sys(cfg);
            return sys.run();
        }));
    }
    for (auto &f : pending)
        results.push_back(f.get());
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

    SystemConfig cfg = base;
    cfg.benchmarks = {bench};
    System sys(cfg);
    RunResult r = sys.run();
    fbdp_assert(!r.ipc.empty() && r.ipc[0] > 0.0,
                "reference run for '%s' produced no IPC",
                bench.c_str());
    cache[bench] = r.ipc[0];
    return r.ipc[0];
}

double
smtSpeedup(const RunResult &r, const WorkloadMix &mix,
           ReferenceSet &refs)
{
    fbdp_assert(r.ipc.size() == mix.benches.size(),
                "result/mix core-count mismatch");
    double s = 0.0;
    for (size_t i = 0; i < mix.benches.size(); ++i)
        s += r.ipc[i] / refs.ipcOf(mix.benches[i]);
    return s;
}

void
applyInstsFromEnv(SystemConfig &cfg)
{
    applyInstsVar("FBDP_MEASURE_INSTS", cfg.measureInsts);
    applyInstsVar("FBDP_WARMUP_INSTS", cfg.warmupInsts);
}

} // namespace fbdp
