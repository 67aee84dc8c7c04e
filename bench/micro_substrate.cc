/**
 * @file
 * Substrate microbenchmarks (google-benchmark): raw throughput of the
 * simulation kernel and the hot data structures — the event queue,
 * the AMB cache, the address map, the cache tag array, the synthetic
 * trace generator and the functional cache warm-up they combine into.
 * These gate overall simulation speed.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/hierarchy.hh"
#include "mc/address_map.hh"
#include "prefetch/amb_cache.hh"
#include "sim/event_queue.hh"
#include "workload/generator.hh"
#include "workload/mixes.hh"

namespace {

using namespace fbdp;

void
BM_EventQueueScheduleStep(benchmark::State &state)
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
}
BENCHMARK(BM_EventQueueScheduleStep);

void
BM_EventQueueFanout(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        EventQueue eq;
        std::vector<std::unique_ptr<Event>> evs;
        int counter = 0;
        for (int i = 0; i < n; ++i)
            evs.push_back(std::make_unique<Event>(
                [&counter] { ++counter; }));
        state.ResumeTiming();
        for (int i = 0; i < n; ++i)
            eq.schedule(evs[static_cast<size_t>(i)].get(),
                        static_cast<Tick>((i * 7919) % 100000));
        eq.run();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueFanout)->Arg(1024)->Arg(16384);

void
BM_AmbCacheLookupHit(benchmark::State &state)
{
    AmbCache cache(64, static_cast<unsigned>(state.range(0)));
    for (unsigned i = 0; i < 64; ++i)
        cache.insert(static_cast<Addr>(i) * lineBytes, 0);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(a));
        a = (a + lineBytes) % (64 * lineBytes);
    }
}
BENCHMARK(BM_AmbCacheLookupHit)->Arg(0)->Arg(2)->Arg(4);

void
BM_AmbCacheInsertChurn(benchmark::State &state)
{
    AmbCache cache(64, 0);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.insert(a, 0));
        a += lineBytes;
    }
}
BENCHMARK(BM_AmbCacheInsertChurn);

void
BM_AddressMap(benchmark::State &state)
{
    AddressMapConfig cfg;
    cfg.scheme = static_cast<Interleave>(state.range(0));
    AddressMap map(cfg);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.map(a));
        a += lineBytes;
    }
}
BENCHMARK(BM_AddressMap)->Arg(0)->Arg(1)->Arg(2);

void
BM_CacheArrayAccess(benchmark::State &state)
{
    CacheArray l2(4 * 1024 * 1024, 4);
    Addr a = 0;
    for (auto _ : state) {
        if (!l2.lookup(a))
            l2.install(a, false);
        a += lineBytes;
        if (a > (16u << 20))
            a = 0;
    }
}
BENCHMARK(BM_CacheArrayAccess);

void
BM_SyntheticGenerator(benchmark::State &state)
{
    SyntheticGenerator gen(benchProfile("swim"), 0, 42, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_SyntheticGenerator);

void
BM_SyntheticGeneratorWarm(benchmark::State &state)
{
    SyntheticGenerator gen(benchProfile("swim"), 0, 42, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.nextWarm());
}
BENCHMARK(BM_SyntheticGeneratorWarm);

/**
 * System::run's functional warm-up loop: the first Table 3 mix with
 * range(0) cores, generators seeded as a default System seeds them
 * (seed 1, software prefetch on), drawing round-robin into a fresh
 * Table 1 hierarchy.  One item is one op.
 */
void
BM_FunctionalWarmup(benchmark::State &state)
{
    const auto n = static_cast<unsigned>(state.range(0));
    const WorkloadMix &mix = mixesFor(n).front();
    std::vector<std::unique_ptr<Generator>> gens;
    for (unsigned i = 0; i < n; ++i)
        gens.push_back(std::make_unique<SyntheticGenerator>(
            benchProfile(mix.benches[i]), static_cast<Addr>(i) << 32,
            1000 + i, true));
    CacheHierarchy hier(nullptr, n, HierConfig{}, nullptr);
    for (auto _ : state) {
        for (unsigned i = 0; i < n; ++i) {
            const TraceOp op = gens[i]->nextWarm();
            if (op.kind == TraceOp::Kind::Prefetch)
                hier.functionalPrefetch(static_cast<int>(i), op.addr);
            else
                hier.functionalAccess(static_cast<int>(i), op.addr,
                                      op.kind == TraceOp::Kind::Store);
        }
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FunctionalWarmup)->Arg(1)->Arg(4)->Arg(8);

} // namespace

BENCHMARK_MAIN();
