/**
 * @file
 * Event-kernel microbenchmarks (google-benchmark): the indexed event
 * queue, the transaction pool and the end-to-end simulation rate.
 *
 * Each hot path is benchmarked twice: once against the current kernel
 * and once against a self-contained reference implementing the
 * pre-overhaul design (lazy-deletion binary heap with std::function
 * callbacks; malloc'ed transactions), so one run of this binary
 * produces before/after numbers measured on the same host:
 *
 *   ./micro_eventkernel
 *
 * writes BENCH_kernel.json (google-benchmark JSON) into the current
 * directory unless --benchmark_out is given explicitly.  Rows named
 * Ref... and Malloc... are the "before" design, Kernel... and
 * Pool... the current one.
 *
 * Because the default-output run is how the committed baseline gets
 * captured, it refuses to start when the host's 1-minute load average
 * exceeds 1.0 (set FBDP_BENCH_FORCE=1 to override).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "mc/transaction.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"
#include "system/config.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"
#include "workload/trace_stream.hh"

namespace {

using namespace fbdp;

/**
 * The pre-overhaul queue, kept as a measurement baseline: a
 * std::priority_queue with lazy deletion (a reschedule pushes a fresh
 * entry and stale ones are skipped at pop time by sequence check) and
 * heap-allocating std::function callbacks.
 */
class RefEventQueue
{
  public:
    struct RefEvent
    {
        std::function<void()> cb;
        Tick when = 0;
        std::uint64_t seq = 0;
        bool live = false;
    };

    void
    schedule(RefEvent *ev, Tick when)
    {
        ev->when = when;
        ev->seq = nextSeq++;
        ev->live = true;
        pq.push(Item{when, ev->seq, ev});
    }

    void deschedule(RefEvent *ev) { ev->live = false; }

    bool
    step()
    {
        while (!pq.empty()) {
            Item it = pq.top();
            pq.pop();
            // Lazy deletion: drop entries superseded by a reschedule
            // or cancelled outright.
            if (!it.ev->live || it.ev->seq != it.seq)
                continue;
            curTick = it.when;
            it.ev->live = false;
            it.ev->cb();
            return true;
        }
        return false;
    }

    Tick now() const { return curTick; }

  private:
    struct Item
    {
        Tick when;
        std::uint64_t seq;
        RefEvent *ev;

        bool
        operator>(const Item &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    std::priority_queue<Item, std::vector<Item>, std::greater<Item>>
        pq;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
};

// ---------------------------------------------------------------- //
// Schedule + dispatch of a single repeating event (the tightest     //
// kernel loop: a self-rescheduling clock).                          //
// ---------------------------------------------------------------- //

void
BM_KernelScheduleStep(benchmark::State &state)
{
    EventQueue eq;
    int counter = 0;
    Event ev([&counter] { ++counter; });
    Tick t = 0;
    for (auto _ : state) {
        t += 100;
        eq.schedule(&ev, t);
        eq.step();
    }
    benchmark::DoNotOptimize(counter);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelScheduleStep);

void
BM_RefScheduleStep(benchmark::State &state)
{
    RefEventQueue eq;
    int counter = 0;
    RefEventQueue::RefEvent ev;
    ev.cb = [&counter] { ++counter; };
    Tick t = 0;
    for (auto _ : state) {
        t += 100;
        eq.schedule(&ev, t);
        eq.step();
    }
    benchmark::DoNotOptimize(counter);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RefScheduleStep);

// ---------------------------------------------------------------- //
// Reschedule churn over a populated queue: the controller wake      //
// pattern.  A new arrival pulls a parked wake event to an earlier   //
// tick; it fires, then re-parks far in the future.  The indexed     //
// queue sifts the live entry in place; the reference pushes a       //
// duplicate and leaves a stale entry behind that a later dispatch   //
// must skip — the dominant cost of lazy deletion in the simulator.  //
// ---------------------------------------------------------------- //

constexpr int churnPopulation = 256;
constexpr Tick churnPark = 8192;  ///< how far wakes park ahead

void
BM_KernelRescheduleChurn(benchmark::State &state)
{
    EventQueue eq;
    std::size_t fired = 0;
    std::vector<std::unique_ptr<Event>> evs;
    for (int i = 0; i < churnPopulation; ++i)
        evs.push_back(std::make_unique<Event>([&fired, i] {
            fired = static_cast<std::size_t>(i);
        }));
    Tick t = 1000;
    for (int i = 0; i < churnPopulation; ++i)
        eq.schedule(evs[static_cast<size_t>(i)].get(),
                    t + churnPark + static_cast<Tick>(i * 97));
    std::size_t victim = 0;
    for (auto _ : state) {
        t += 64;
        eq.schedule(evs[victim].get(), t + 32);  // pull earlier
        if (++victim == evs.size())
            victim = 0;
        eq.step();                               // it fires...
        eq.schedule(evs[fired].get(),
                    eq.now() + churnPark);       // ...and re-parks
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelRescheduleChurn);

void
BM_RefRescheduleChurn(benchmark::State &state)
{
    RefEventQueue eq;
    std::size_t fired = 0;
    std::vector<RefEventQueue::RefEvent> evs(churnPopulation);
    for (int i = 0; i < churnPopulation; ++i)
        evs[static_cast<size_t>(i)].cb = [&fired, i] {
            fired = static_cast<std::size_t>(i);
        };
    Tick t = 1000;
    for (int i = 0; i < churnPopulation; ++i)
        eq.schedule(&evs[static_cast<size_t>(i)],
                    t + churnPark + static_cast<Tick>(i * 97));
    std::size_t victim = 0;
    for (auto _ : state) {
        t += 64;
        eq.schedule(&evs[victim], t + 32);
        if (++victim == evs.size())
            victim = 0;
        eq.step();
        eq.schedule(&evs[fired], eq.now() + churnPark);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RefRescheduleChurn);

// ---------------------------------------------------------------- //
// Schedule/deschedule pairs (timeout-style events that usually      //
// never fire).  The indexed queue removes in place; the reference   //
// leaves garbage behind and pays at the next pop.                   //
// ---------------------------------------------------------------- //

void
BM_KernelScheduleDeschedule(benchmark::State &state)
{
    EventQueue eq;
    Event ev([] {});
    Tick t = 0;
    for (auto _ : state) {
        t += 100;
        eq.schedule(&ev, t);
        eq.deschedule(&ev);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelScheduleDeschedule);

void
BM_RefScheduleDeschedule(benchmark::State &state)
{
    RefEventQueue eq;
    RefEventQueue::RefEvent ev;
    ev.cb = [] {};
    Tick t = 0;
    for (auto _ : state) {
        t += 100;
        eq.schedule(&ev, t);
        eq.deschedule(&ev);
        // The reference's cancelled entries pile up in the heap; make
        // it pay the deferred cost here, as the simulator would at
        // its next dispatch.
        if (!eq.step())
            benchmark::DoNotOptimize(&ev);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RefScheduleDeschedule);

// ---------------------------------------------------------------- //
// Transaction lifecycle: pooled freelist vs. plain heap             //
// allocation, with a realistic in-flight population.                //
// ---------------------------------------------------------------- //

constexpr std::size_t transWindow = 32;

void
BM_PoolTransactionChurn(benchmark::State &state)
{
    std::vector<TransPtr> window;
    window.reserve(transWindow);
    for (std::size_t i = 0; i < transWindow; ++i)
        window.push_back(makeTransaction());
    std::size_t slot = 0;
    for (auto _ : state) {
        window[slot].reset();  // release the oldest...
        auto t = makeTransaction();  // ...and check a fresh one out
        t->lineAddr = static_cast<Addr>(slot) << 6;
        window[slot] = std::move(t);
        if (++slot == transWindow)
            slot = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolTransactionChurn);

void
BM_MallocTransactionChurn(benchmark::State &state)
{
    std::vector<std::unique_ptr<Transaction>> window;
    window.reserve(transWindow);
    for (std::size_t i = 0; i < transWindow; ++i)
        window.push_back(std::make_unique<Transaction>());
    std::size_t slot = 0;
    for (auto _ : state) {
        window[slot].reset();
        auto t = std::make_unique<Transaction>();
        t->lineAddr = static_cast<Addr>(slot) << 6;
        window[slot] = std::move(t);
        if (++slot == transWindow)
            slot = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MallocTransactionChurn);

// ---------------------------------------------------------------- //
// Full-system simulation rate: a complete (small) run per           //
// iteration.  items/sec in the output is simulated insts per host   //
// second; the events_per_sec counter is dispatch throughput.        //
// ---------------------------------------------------------------- //

/** Minimum time of every row that runs a whole System per iteration
 *  (45-90 ms each): at a 0.1 s minimum such a row gets only 2-3
 *  iterations and a wide run-to-run spread; one second gives it at
 *  least ten. */
constexpr double fullRunMinTime = 1.0;

void
BM_FullSystemSimRate(benchmark::State &state)
{
    SystemConfig cfg = SystemConfig::fbdAp();
    cfg.measureInsts = 20'000;
    cfg.warmupInsts = 5'000;
    const WorkloadMix &mix = mixByName("2C-1");
    std::uint64_t insts = 0, events = 0;
    double event_seconds = 0.0;
    for (auto _ : state) {
        RunResult r = runMix(cfg, mix);
        insts += r.runInsts;
        events += r.kernel.eventsDispatched;
        event_seconds += r.kernel.hostEventSeconds;
        benchmark::DoNotOptimize(r.ipcSum());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
    state.counters["events_per_sec"] = benchmark::Counter(
        event_seconds > 0.0
            ? static_cast<double>(events) / event_seconds
            : 0.0);
}
BENCHMARK(BM_FullSystemSimRate)
    ->MinTime(fullRunMinTime)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- //
// Cost of the always-compiled trace points.  SimRateTraceDisabled   //
// runs with the tracer detached — every trace point reduces to one  //
// branch on a null pointer — and pairs with BM_FullSystemSimRate    //
// above (built before the trace points existed in older revisions)  //
// to bound the disabled-observability overhead.  SimRateTraced      //
// records a full lifecycle trace into the ring buffer (no export),  //
// measuring the enabled cost.                                       //
// ---------------------------------------------------------------- //

void
BM_FullSystemSimRateTraceDisabled(benchmark::State &state)
{
    SystemConfig cfg = SystemConfig::fbdAp();
    cfg.measureInsts = 20'000;
    cfg.warmupInsts = 5'000;
    const WorkloadMix &mix = mixByName("2C-1");
    cfg.benchmarks = mix.benches;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        System sys(cfg);
        sys.attachTracer(nullptr);
        RunResult r = sys.run();
        insts += r.runInsts;
        benchmark::DoNotOptimize(r.ipcSum());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_FullSystemSimRateTraceDisabled)
    ->MinTime(fullRunMinTime)
    ->Unit(benchmark::kMillisecond);

void
BM_FullSystemSimRateTraced(benchmark::State &state)
{
    SystemConfig cfg = SystemConfig::fbdAp();
    cfg.measureInsts = 20'000;
    cfg.warmupInsts = 5'000;
    const WorkloadMix &mix = mixByName("2C-1");
    cfg.benchmarks = mix.benches;
    std::uint64_t insts = 0, recorded = 0;
    for (auto _ : state) {
        trace::Tracer tracer{trace::Filter{}};
        System sys(cfg);
        sys.attachTracer(&tracer);
        RunResult r = sys.run();
        insts += r.runInsts;
        recorded += tracer.recorded();
        benchmark::DoNotOptimize(r.ipcSum());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
    state.counters["trace_events"] = benchmark::Counter(
        state.iterations()
            ? static_cast<double>(recorded)
                / static_cast<double>(state.iterations())
            : 0.0);
}
BENCHMARK(BM_FullSystemSimRateTraced)
    ->MinTime(fullRunMinTime)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- //
// Trace-ingest throughput: ops read per host second in one pass     //
// over one recorded trace.  TraceIngestText parses the text lines   //
// in the file's mapping; TraceIngestFbt decodes the fixed-width     //
// binary records in place.                                          //
// ---------------------------------------------------------------- //

std::string
benchTmpFile(const char *name)
{
    const char *tmp = std::getenv("TMPDIR");
    return std::string(tmp && *tmp ? tmp : "/tmp") + "/" + name;
}

/** One recorded text trace, shared by every ingest row. */
const std::string &
ingestTextTrace()
{
    static const std::string path = [] {
        std::string p = benchTmpFile("fbdp_bench_ingest.trace");
        SyntheticGenerator gen(benchProfile("swim"), 0, 42, true);
        TraceWriter w(p, TraceFormat::Text, false, "swim");
        for (int i = 0; i < 200'000; ++i)
            w.append(gen.next());
        w.close();
        return p;
    }();
    return path;
}

/** The same trace converted to .fbt. */
const std::string &
ingestFbtTrace()
{
    static const std::string path = [] {
        std::string p = benchTmpFile("fbdp_bench_ingest.fbt");
        TracePassReader in(ingestTextTrace());
        TraceWriter w(p, TraceFormat::Fbt, false, "swim");
        TraceOp op;
        while (in.next(&op))
            w.append(op);
        w.close();
        return p;
    }();
    return path;
}

void
BM_TraceIngestText(benchmark::State &state)
{
    const std::string &path = ingestTextTrace();
    std::uint64_t ops = 0;
    for (auto _ : state) {
        TracePassReader in(path);
        TraceOp op;
        while (in.next(&op)) {
            benchmark::DoNotOptimize(op);
            ++ops;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_TraceIngestText)->Unit(benchmark::kMillisecond);

void
BM_TraceIngestFbt(benchmark::State &state)
{
    const std::string &path = ingestFbtTrace();
    std::uint64_t ops = 0;
    for (auto _ : state) {
        TracePassReader in(path);
        TraceOp op;
        while (in.next(&op)) {
            benchmark::DoNotOptimize(op);
            ++ops;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_TraceIngestFbt)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- //
// Full-system sim rate on a trace-bound config.  items/sec is       //
// simulated insts per wall-clock second, loading the text trace     //
// into memory at System construction included.  The trace is        //
// shorter than the functional warm-up, so replay wraps around.      //
// ---------------------------------------------------------------- //

void
BM_TraceReplaySimRate(benchmark::State &state)
{
    SystemConfig cfg = SystemConfig::fbdAp();
    cfg.measureInsts = 20'000;
    cfg.warmupInsts = 5'000;
    cfg.benchmarks = {"trace:" + ingestTextTrace()};
    std::uint64_t insts = 0;
    for (auto _ : state) {
        System sys(cfg);
        RunResult r = sys.run();
        insts += r.runInsts;
        benchmark::DoNotOptimize(r.ipcSum());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_TraceReplaySimRate)
    ->MinTime(fullRunMinTime)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    // Default to emitting BENCH_kernel.json next to the caller unless
    // an explicit --benchmark_out was passed.
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strncmp(argv[i], "--benchmark_out", 15))
            has_out = true;
    }
    std::vector<char *> args(argv, argv + argc);
    std::string out_flag = "--benchmark_out=BENCH_kernel.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        // A default-output run is a baseline capture: refuse to write
        // BENCH_kernel.json from a busy machine, where the numbers
        // would bake scheduler noise into the regression gate.
        // Explicit --benchmark_out runs (CI, experiments) are exempt;
        // FBDP_BENCH_FORCE=1 overrides when the load is understood.
        const char *force = std::getenv("FBDP_BENCH_FORCE");
        if (!force || std::strcmp(force, "1") != 0) {
            double load1 = 0.0;
            std::ifstream loadavg("/proc/loadavg");
            if (loadavg >> load1 && load1 > 1.0) {
                std::fprintf(stderr,
                             "micro_eventkernel: 1-min load average "
                             "%.2f > 1.0 — refusing to capture a "
                             "BENCH_kernel.json baseline on a busy "
                             "host.\nQuiesce the machine, pass an "
                             "explicit --benchmark_out, or set "
                             "FBDP_BENCH_FORCE=1 to override.\n",
                             load1);
                return 1;
            }
        }
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::AddCustomContext(
        "comparison",
        "Ref*/Malloc* rows reproduce the pre-overhaul design "
        "(lazy-deletion binary heap, std::function callbacks, "
        "malloc'ed transactions); Kernel*/Pool* rows are the "
        "current kernel.");
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
