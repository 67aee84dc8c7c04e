/**
 * @file
 * Whole-system assembly: cores -> cache hierarchy -> memory system
 * (address map + one controller per logic channel), plus the two-phase
 * (warm-up, measure) simulation driver.
 */

#ifndef FBDP_SYSTEM_SYSTEM_HH
#define FBDP_SYSTEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "dram/dimm.hh"
#include "mc/address_map.hh"
#include "mc/attribution.hh"
#include "mc/controller.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"
#include "workload/generator.hh"

namespace fbdp {

/**
 * Event-kernel activity of one simulation: queue counters, transaction
 * pool occupancy and the host time spent inside the event-driven
 * phases (timed warm-up + measurement; construction and the functional
 * cache warm-up are excluded, they run no events).  Collected on every
 * run — the counters are maintained on the hot path anyway — and
 * reported by `fbdpsim --profile` and ResultSchema::kernelStats().
 */
struct KernelProfile
{
    std::uint64_t eventsDispatched = 0;
    std::uint64_t schedules = 0;     ///< schedule() of an idle event
    std::uint64_t reschedules = 0;   ///< schedule() of a live event
    std::uint64_t deschedules = 0;
    std::uint64_t peakQueueDepth = 0;

    std::uint64_t poolAcquires = 0;   ///< transactions handed out
    std::uint64_t poolReuses = 0;     ///< acquires served by freelist
    std::uint64_t poolHighWater = 0;  ///< max simultaneous live
    std::uint64_t poolCapacity = 0;   ///< objects ever carved

    double hostEventSeconds = 0.0;    ///< wall time in the event loop

    /** True when the functional warm-up state was copied from a
     *  concurrent run with the same warm-up key (warm_share.hh)
     *  instead of computed.  A host fact like the seconds above:
     *  whether runs overlap depends on scheduling. */
    bool warmupCopied = false;

    /** Dispatch throughput over the event-driven phases. */
    double eventsPerSec() const
    {
        return hostEventSeconds > 0.0
            ? static_cast<double>(eventsDispatched) / hostEventSeconds
            : 0.0;
    }
};

/** Latency percentiles of one request class (Fig. 8-style shape). */
struct LatencyClassStats
{
    double p50Ns = 0.0;
    double p95Ns = 0.0;
    double p99Ns = 0.0;
    std::uint64_t samples = 0;
};

/**
 * Prefetch outcome of one run, aggregated over every channel's
 * prefetch buffer (AMB caches or the MC buffer).  The typed
 * block behind ResultSchema::prefetchStats() and the --stats-json
 * "prefetch" section.
 */
struct PrefetchRunStats
{
    std::string policy = "none";     ///< "region" or "none"
    std::uint64_t issued = 0;        ///< region lines fetched
    std::uint64_t hits = 0;          ///< demand reads served by one
    std::uint64_t lateHits = 0;      ///< hits with the fill in flight
    std::uint64_t dropped = 0;       ///< region lines past the group cap
    std::uint64_t evictedUnused = 0; ///< displaced before any use
    std::uint64_t invalidatedUnused = 0; ///< written before any use

    /** Late hits / hits (lower is better). */
    double
    lateness() const
    {
        return hits ? static_cast<double>(lateHits)
                / static_cast<double>(hits)
                    : 0.0;
    }

    /** Unused displaced or invalidated lines / prefetches issued. */
    double
    pollution() const
    {
        return issued
            ? static_cast<double>(evictedUnused + invalidatedUnused)
                / static_cast<double>(issued)
            : 0.0;
    }
};

/** Measured outcome of one simulation. */
struct RunResult
{
    std::vector<double> ipc;            ///< per core
    std::vector<std::uint64_t> insts;   ///< per core, window
    Tick measuredTicks = 0;

    double avgReadLatencyNs = 0.0;      ///< MC arrival -> data at MC
    double bandwidthGBs = 0.0;          ///< utilized channel bandwidth

    std::uint64_t reads = 0;            ///< memory reads served
    std::uint64_t writes = 0;
    std::uint64_t ambHits = 0;
    double coverage = 0.0;              ///< #prefetch_hit / #read
    double efficiency = 0.0;            ///< #prefetch_hit / #prefetch
    PrefetchRunStats prefetch;          ///< prefetch quality block
    DramOpCounts ops;                   ///< for the power model

    std::uint64_t l2Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t swPrefetchesSent = 0;

    /** Per-request-class latency percentiles, merged over channels. */
    LatencyClassStats latDemand;    ///< reads missing every buffer
    LatencyClassStats latPrefHit;   ///< reads served by AMB/MC buffer
    LatencyClassStats latWrite;     ///< posted-write completions

    /** Latency-phase / stall-cycle attribution (enabled flag inside;
     *  empty unless SystemConfig::attribution was set). */
    AttributionResult attribution;

    /** Simulated instructions over the whole run (warm-up included),
     *  all cores — the numerator of the sim-rate metric. */
    std::uint64_t runInsts = 0;

    KernelProfile kernel;

    /** Simulated-instructions per host second (event-driven phases). */
    double instsPerHostSec() const
    {
        return kernel.hostEventSeconds > 0.0
            ? static_cast<double>(runInsts) / kernel.hostEventSeconds
            : 0.0;
    }

    /** Sum of per-core IPCs (throughput). */
    double ipcSum() const;

    /** Total instructions executed in the window, all cores. */
    double totalInsts() const;
};

/**
 * Routes cache-hierarchy traffic to the per-channel controllers: each
 * request reaches the controller owning its channel at the tick the
 * cache sends it.
 */
class MemorySystem : public MemoryIface
{
  public:
    MemorySystem(EventQueue *event_queue, const AddressMap *map,
                 std::vector<MemController *> controllers);

    void read(Addr line_addr, int core_id, bool sw_prefetch,
              TickCallback done) override;
    void write(Addr line_addr, int core_id) override;

  private:
    EventQueue *eq;
    const AddressMap *map;
    std::vector<MemController *> controllers;  ///< [logic channel]
};

/** Physical address space each core owns: core i's slice starts at
 *  i * coreSliceBytes. */
constexpr Addr coreSliceBytes = 1ull << 32;

/** Fatal unless @p prof's footprint fits in one core's slice. */
void requireFitsCoreSlice(const BenchProfile &prof);

/**
 * One simulated machine on one event queue, run on the calling
 * thread.  Requests reach their controller when the cache sends them,
 * and completions reach the core at completedAt; each phase ends at
 * the tick of its notify.
 */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    /** Run warm-up then the measured window; return the results. */
    RunResult run();

    /**
     * Attach (or detach with nullptr) a lifecycle tracer, binding
     * every controller (with its channel index for channel filtering),
     * the cache hierarchy and every core; a filter naming a channel
     * the machine lacks is fatal.  Call before run(); tracing
     * must not — and does not — change simulation results.
     */
    void attachTracer(trace::Tracer *t);

    /**
     * Hierarchical statistics report of the last run: per-core,
     * per-cache and per-channel counters (built on the stats
     * framework).  Call after run().
     */
    void report(std::ostream &os) const;

    /**
     * One statistics group plus ownership of its stats.  StatGroup
     * itself is non-owning (components normally register member
     * stats); the report and JSON emitters instead build their derived
     * Formulas on the heap and keep them alive here.
     */
    struct OwnedStatGroup
    {
        explicit OwnedStatGroup(std::string n) : group(std::move(n)) {}

        stats::StatGroup group;
        std::vector<std::unique_ptr<stats::Stat>> owned;
    };

    /**
     * Every statistic of the last run as named groups: per-core, L2,
     * per-channel, and — when attribution is enabled — the phase
     * breakdown and stall accounting.  The single source both
     * report() and the --stats-json dump are derived from, so the two
     * can never drift apart.  Groups reference live components; they
     * must not outlive the System.
     *
     * @p include_histograms additionally registers the per-channel
     * latency (and per-phase breakdown) histograms — wanted by the
     * JSON dump, too verbose for the text report.
     */
    std::vector<OwnedStatGroup>
    buildStatGroups(bool include_histograms = false) const;

    // Component access for tests and custom experiments.
    /** The one event queue every component schedules on. */
    EventQueue &eventQueue() { return eq; }
    MemController &controller(unsigned i) { return *controllers.at(i); }
    unsigned numControllers() const
    {
        return static_cast<unsigned>(controllers.size());
    }
    CacheHierarchy &hierarchy() { return *hier; }
    Core &core(unsigned i) { return *cores.at(i); }
    Generator &generator(unsigned i) { return *gens.at(i); }

    /**
     * The synthetic generator driving core @p i; asserts when that
     * core replays a trace instead (synthetic-only counters such as
     * streamOps() have no trace equivalent).
     */
    SyntheticGenerator &
    syntheticGenerator(unsigned i)
    {
        auto *g = dynamic_cast<SyntheticGenerator *>(gens.at(i).get());
        fbdp_assert(g != nullptr,
                    "core %u replays a trace, not a synthetic profile",
                    i);
        return *g;
    }

    const SystemConfig &config() const { return cfg; }

  private:
    void resetAllStats();
    RunResult collect(Tick window_ticks) const;

    SystemConfig cfg;

    EventQueue eq;

    /** Completion hand-off between controllers and cores when
     *  attribution is enabled (see mc/attribution.hh). */
    AttributionHub attHub;

    /** Host wall time of the last run()'s event-driven phases. */
    double hostEventSeconds = 0.0;

    std::unique_ptr<AddressMap> map;
    std::vector<std::unique_ptr<MemController>> controllers;
    std::unique_ptr<MemorySystem> memSys;
    std::unique_ptr<CacheHierarchy> hier;
    std::vector<std::unique_ptr<Generator>> gens;
    std::vector<std::unique_ptr<Core>> cores;

    bool phaseDone = false;
};

} // namespace fbdp

#endif // FBDP_SYSTEM_SYSTEM_HH
