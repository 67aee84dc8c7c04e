/**
 * @file
 * The two-level cache hierarchy of Table 1: per-core 64 KB 2-way L1
 * data caches over a shared 4 MB 4-way L2, write-back/write-allocate,
 * with MSHR-based miss handling and non-binding software prefetch.
 *
 * Timing model: L1 hits are free (the 3-cycle L1 latency is folded
 * into each core's base IPC), L2 hits cost the configured hit latency,
 * and misses complete whenever the memory system delivers the line.
 * Functional state (tags, dirty bits) updates eagerly at access time,
 * which keeps the model deterministic.
 */

#ifndef FBDP_CACHE_HIERARCHY_HH
#define FBDP_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/mshr.hh"
#include "cache/stream_prefetcher.hh"
#include "common/callback.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"

namespace fbdp {

/** The memory system as seen from the cache hierarchy. */
class MemoryIface
{
  public:
    virtual ~MemoryIface() = default;

    /** Fetch a line; @p done fires when data is back at the MC. */
    virtual void read(Addr line_addr, int core_id, bool sw_prefetch,
                      TickCallback done) = 0;

    /** Posted write (writeback). */
    virtual void write(Addr line_addr, int core_id) = 0;
};

/** Geometry and latency knobs (defaults == Table 1). */
struct HierConfig
{
    std::uint64_t l1Bytes = 64 * 1024;
    unsigned l1Ways = 2;
    std::uint64_t l2Bytes = 4 * 1024 * 1024;
    unsigned l2Ways = 4;
    Tick l2HitLatency = 15 * cpuCyclePs;
    unsigned l1Mshrs = 32;  ///< per-core data MSHRs
    unsigned l2Mshrs = 64;
    /** Optional hardware stream prefetcher at the L2 (Section 5.4's
     *  speculation; off by default to match the paper's setup). */
    StreamPrefetcherConfig hwPrefetch;
};

/** Per-core L1s + shared L2 + the L2 MSHR file. */
class CacheHierarchy
{
  public:
    enum class Outcome {
        L1Hit,    ///< complete immediately
        L2Hit,    ///< complete at Result::doneAt
        Miss,     ///< completion via the supplied callback
        Blocked,  ///< MSHRs exhausted; retry after a poke
    };

    struct Result
    {
        Outcome outcome = Outcome::L1Hit;
        Tick doneAt = 0;  ///< valid for L1Hit / L2Hit
    };

    CacheHierarchy(EventQueue *event_queue, unsigned n_cores,
                   const HierConfig &cfg, MemoryIface *memory);

    /**
     * Demand access from @p core.  On Outcome::Miss the callback fires
     * when the line is installed; on Outcome::Blocked nothing was done
     * and the core must retry after its retry hook is poked.
     */
    Result access(int core, Addr addr, bool store,
                  TickCallback done);

    /** Non-binding software prefetch into the L2; never blocks. */
    void prefetch(int core, Addr addr);

    /** Hook poked whenever MSHR space frees up (after every fill). */
    void setRetryHook(int core, InlineCallback<> hook);

    /**
     * Timeless (functional) warm-up access: updates tags and dirty
     * bits without events or memory traffic.  Used to pre-warm the
     * large L2 before timed simulation, standing in for the warm
     * caches a SimPoint checkpoint would carry.  The L1 hit, most
     * warm-up ops, is inline; a miss goes on to the L2.
     */
    void
    functionalAccess(int core, Addr addr, bool store)
    {
        const Addr line = lineAlign(addr);
        CacheArray &l1c = l1[static_cast<size_t>(core)];
        if (!l1c.hit(line, store))
            functionalMiss(l1c, line, store);
    }

    /** Functional counterpart of a software prefetch. */
    void functionalPrefetch(int core, Addr addr);

    /**
     * Take @p other's functional state: the L1 and L2 tag arrays with
     * their hit/miss counters.  Both hierarchies must have the same
     * core count and geometry, and neither may have timed traffic in
     * flight (only the tags are copied, no MSHRs).
     */
    void copyFunctionalStateFrom(const CacheHierarchy &other);

    /** Bind (or unbind with nullptr) the lifecycle tracer: MSHR
     *  allocations/merges/fills plus an occupancy counter track. */
    void bindTracer(trace::Tracer *t);

    // --- statistics ---
    std::uint64_t l1Hits(int core) const;
    std::uint64_t l1Misses(int core) const;
    std::uint64_t l2Hits() const { return l2.hits(); }
    std::uint64_t l2Misses() const { return l2.misses(); }
    std::uint64_t memReads() const { return nMemReads; }
    std::uint64_t memWrites() const { return nMemWrites; }
    std::uint64_t prefetchesSent() const { return nPrefSent; }
    std::uint64_t prefetchesDropped() const { return nPrefDropped; }
    const StreamPrefetcher *hwPrefetcher() const { return hwPf.get(); }
    std::uint64_t loadMissReads() const { return nLoadMissReads; }
    std::uint64_t storeMissReads() const { return nStoreMissReads; }
    unsigned l1Outstanding(int core) const
    {
        return l1Pending.at(static_cast<size_t>(core));
    }
    size_t l2MshrOccupancy() const { return l2Mshr.occupancy(); }

    void resetStats();

    /** The tag arrays, for comparing functional state. */
    const CacheArray &l1Tags(int core) const
    {
        return l1.at(static_cast<size_t>(core));
    }
    const CacheArray &l2Tags() const { return l2; }

  private:
    /** functionalAccess() past an L1 miss of @p line. */
    void functionalMiss(CacheArray &l1c, Addr line, bool store);
    void fillComplete(Addr line_addr, Tick when);
    /** Write a dirty L1 victim back into the L2. */
    void writebackL1Victim(const CacheArray::Victim &v, int core);
    void l2InstallWithWriteback(Addr line_addr, bool dirty, int core);
    void pokeRetries();

    EventQueue *eq;
    HierConfig cfg;
    MemoryIface *mem;

    std::vector<CacheArray> l1;
    CacheArray l2;
    MshrTable l2Mshr;
    std::unique_ptr<StreamPrefetcher> hwPf;
    std::vector<unsigned> l1Pending;  ///< outstanding L1 misses/core

    std::vector<InlineCallback<>> retryHooks;

    /** Reusable buffer handed to MshrTable::complete; its capacity
     *  ping-pongs with the freed slot's, so fills allocate nothing. */
    std::vector<MshrTable::Waiter> waiterScratch;

    std::uint64_t nMemReads = 0;
    std::uint64_t nMemWrites = 0;
    std::uint64_t nPrefSent = 0;
    std::uint64_t nPrefDropped = 0;
    std::uint64_t nLoadMissReads = 0;   ///< memory reads from loads
    std::uint64_t nStoreMissReads = 0;  ///< memory reads from stores

    /** Lifecycle-tracer binding (tr == nullptr means disabled). */
    struct TraceBinding
    {
        trace::Tracer *tr = nullptr;
        std::uint32_t l2 = 0;    ///< miss/fill instants
        std::uint32_t mshr = 0;  ///< occupancy counter
    };
    TraceBinding trc;

    void
    traceMshrOccupancy()
    {
        trc.tr->counter(trc.mshr, "occupancy", eq->now(),
                        l2Mshr.occupancy());
    }
};

} // namespace fbdp

#endif // FBDP_CACHE_HIERARCHY_HH
