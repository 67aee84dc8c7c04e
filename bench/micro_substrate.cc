/**
 * @file
 * Substrate microbenchmarks (google-benchmark): raw throughput of the
 * simulation kernel and the hot data structures — the event queue,
 * the AMB cache, the memory-controller scheduler, the address map,
 * the cache tag array, the synthetic trace generator and the
 * functional cache warm-up they combine into.  These gate overall
 * simulation speed; BENCH_substrate.json at the repository root holds
 * a recorded run (--benchmark_format=json).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/hierarchy.hh"
#include "common/random.hh"
#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "prefetch/amb_cache.hh"
#include "sim/event_queue.hh"
#include "system/warm_share.hh"
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

/** Args: {ways (0 = fully associative), entries}. */
void
BM_AmbCacheLookupHit(benchmark::State &state)
{
    const auto entries = static_cast<unsigned>(state.range(1));
    AmbCache cache(entries, static_cast<unsigned>(state.range(0)));
    for (unsigned i = 0; i < entries; ++i)
        cache.insert(static_cast<Addr>(i) * lineBytes, 0);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(a));
        a = (a + lineBytes) % (entries * lineBytes);
    }
}
BENCHMARK(BM_AmbCacheLookupHit)
    ->Args({0, 64})->Args({2, 64})->Args({4, 64})
    ->Args({0, 128})->Args({2, 128})->Args({4, 128});

/** Arg: entries (fully associative). */
void
BM_AmbCacheInsertChurn(benchmark::State &state)
{
    AmbCache cache(static_cast<unsigned>(state.range(0)), 0);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.insert(a, 0));
        a += lineBytes;
    }
}
BENCHMARK(BM_AmbCacheInsertChurn)->Arg(64)->Arg(128);

/**
 * The controller's AMB-cache traffic for one demand read, as the
 * default FBD-AP configuration produces it: the demand looks its
 * line up; a miss inserts the K-1 = 3 region neighbours with
 * insertIfAbsent and the neighbours' own demands then hit; one read
 * in four is followed by a write that invalidates a line of a recent
 * region.  Streams over a footprint several times the capacity, so
 * the FIFO keeps evicting.  One item is one demand read.
 * Arg: entries (fully associative).
 */
void
BM_AmbCacheGroupFetch(benchmark::State &state)
{
    const auto entries = static_cast<unsigned>(state.range(0));
    AmbCache cache(entries, 0);
    Rng rng(7);
    const unsigned regions = 4 * entries;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        const Addr base =
            static_cast<Addr>(rng.below(regions)) * 4 * lineBytes;
        const Addr demand = base + rng.below(4) * lineBytes;
        if (AmbCache::Line *l = cache.lookup(demand)) {
            l->used = true;
            ++hits;
        } else {
            AmbCache::Evicted ev;
            for (unsigned i = 0; i < 4; ++i) {
                const Addr la = base + i * lineBytes;
                if (la != demand)
                    cache.insertIfAbsent(la, AmbCache::fillPending, &ev);
            }
        }
        if (rng.below(4) == 0) {
            bool used = false;
            cache.invalidate(
                static_cast<Addr>(rng.below(regions)) * 4 * lineBytes
                    + rng.below(4) * lineBytes,
                &used);
        }
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AmbCacheGroupFetch)->Arg(64)->Arg(128);

/**
 * One FB-DIMM controller with region prefetching kept saturated:
 * before every memory cycle the benchmark tops the controller up to
 * 96 queued requests (a full 64-entry window plus overflow) of random
 * streaming and scattered reads and writes, then runs the cycle.  The
 * time covers the cycle's scheduling (issueCycle), command issue and
 * completions, plus the top-up's pushes.  One item is one memory
 * cycle.  The prefetch buffer sits behind the AMBs
 * (BM_ControllerIssueCycle) or at the controller
 * (BM_ControllerIssueCycleMcBuf).
 */
void
controllerIssueCycle(benchmark::State &state, const ControllerConfig &cfg)
{
    EventQueue eq;
    AddressMapConfig map_cfg;
    map_cfg.channels = 1;
    map_cfg.scheme = Interleave::MultiCacheline;
    AddressMap map(map_cfg);
    MemController mc("mc", &eq, cfg);

    Rng rng(11);
    Addr stream = 0;
    auto top_up = [&] {
        while (mc.occupancy() < 96) {
            auto t = makeTransaction();
            const bool is_read = rng.below(10) < 7;
            t->cmd = is_read ? MemCmd::Read : MemCmd::Write;
            Addr a;
            if (rng.below(2) == 0) {
                stream += lineBytes;
                a = stream;
            } else {
                a = rng.below(1u << 22) * lineBytes;
            }
            t->lineAddr = lineAlign(a);
            t->coord = map.map(a);
            mc.push(std::move(t));
        }
    };
    const Tick cycle = cfg.timing.memCycle;
    // Reach steady state before timing.
    for (unsigned i = 0; i < 2000; ++i) {
        top_up();
        eq.run(eq.now() + cycle);
    }
    for (auto _ : state) {
        top_up();
        eq.run(eq.now() + cycle);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_ControllerIssueCycle(benchmark::State &state)
{
    ControllerConfig cfg;
    cfg.prefetch.enabled = true;
    controllerIssueCycle(state, cfg);
}
BENCHMARK(BM_ControllerIssueCycle);

void
BM_ControllerIssueCycleMcBuf(benchmark::State &state)
{
    ControllerConfig cfg;
    cfg.prefetch = PrefetchConfig::parse("region,place=mc");
    controllerIssueCycle(state, cfg);
}
BENCHMARK(BM_ControllerIssueCycleMcBuf);

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

/** Warm-up draws as phase 0 makes them: blocks of 64 through
 *  nextWarmBlock().  One item is one op. */
void
BM_SyntheticGeneratorWarm(benchmark::State &state)
{
    SyntheticGenerator gen(benchProfile("swim"), 0, 42, true);
    TraceOp block[64];
    for (auto _ : state) {
        gen.nextWarmBlock(block, 64);
        benchmark::DoNotOptimize(block);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SyntheticGeneratorWarm);

/**
 * System::run's functional warm-up kernel: the first Table 3 mix with
 * range(0) cores, generators seeded as a default System seeds them
 * (seed 1, software prefetch on), drawing into a fresh Table 1
 * hierarchy.  One item is one op; each iteration replays 4096 rounds.
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
    constexpr std::uint64_t rounds = 4096;
    for (auto _ : state)
        functionalWarmup(gens, hier, rounds);
    benchmark::DoNotOptimize(hier.l2Hits());
    state.SetItemsProcessed(state.iterations() * rounds * n);
}
BENCHMARK(BM_FunctionalWarmup)->Arg(1)->Arg(4)->Arg(8);

} // namespace

BENCHMARK_MAIN();
