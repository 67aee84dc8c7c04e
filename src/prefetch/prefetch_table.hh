/**
 * @file
 * The prefetch information table held at the memory controller.
 *
 * One AmbCache tag mirror per slot of the channel's prefetch buffer
 * (one per DIMM for the AMB caches, one for a buffer at the
 * controller), plus the prefetch accounting the paper reports:
 * coverage (#prefetch_hit / #read) and efficiency (#prefetch_hit /
 * #prefetch).  Only the K-1 non-demanded lines of a group count as
 * prefetches; the demanded line goes straight to the processor and is
 * not retained.
 */

#ifndef FBDP_PREFETCH_PREFETCH_TABLE_HH
#define FBDP_PREFETCH_PREFETCH_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "prefetch/amb_cache.hh"

namespace fbdp {

/** Controller-side view of one channel's prefetch buffer. */
class PrefetchTable
{
  public:
    /**
     * @param n_dimms  DIMMs (hence AMBs) on the channel
     * @param entries  lines per AMB cache
     * @param ways     associativity; 0 = fully associative
     */
    PrefetchTable(unsigned n_dimms, unsigned entries, unsigned ways);

    AmbCache &dimm(unsigned i) { return caches.at(i); }
    const AmbCache &dimm(unsigned i) const { return caches.at(i); }
    unsigned numDimms() const
    {
        return static_cast<unsigned>(caches.size());
    }

    /** The line (possibly still in flight) or nullptr; counts nothing
     *  (a served read is counted with countHit()). */
    AmbCache::Line *
    peek(unsigned dimm_idx, Addr line_addr)
    {
        return caches.at(dimm_idx).lookup(line_addr);
    }

    /**
     * Record one region-fetch line: counts a prefetch issue even when
     * the line is already resident — a resident line keeps its FIFO
     * age — and counts a displaced victim that never served a demand
     * as pollution.  The entry becomes visible immediately with
     * @c fillPending readiness; its fill is timed later via
     * resolveFill().
     */
    void insertCandidate(unsigned dimm_idx, Addr line_addr);

    /** Set the SRAM arrival time of one previously inserted line. */
    void resolveFill(unsigned dimm_idx, Addr line_addr, Tick ready_at);

    /** A write to @p line_addr invalidates any stale prefetch.
     *  An unused dropped line counts as pollution.
     *  @return true iff a resident line was dropped. */
    bool invalidate(unsigned dimm_idx, Addr line_addr);

    /** Count one demand read (the coverage denominator). */
    void countRead() { ++nReads; }

    /** Count one read actually serviced from an AMB cache. */
    void countHit() { ++nHits; }

    /** Count a hit whose fill had not completed when demanded. */
    void countLateHit() { ++nLateHits; }

    /** Count @p n region lines a group fetch could not carry (past
     *  Transaction::maxPrefetchLines when K > 16). */
    void countDropped(unsigned n = 1) { nDropped += n; }

    std::uint64_t reads() const { return nReads; }
    std::uint64_t prefetchHits() const { return nHits; }

    /** Valid lines across every AMB cache (occupancy telemetry). */
    unsigned
    population() const
    {
        unsigned n = 0;
        for (const AmbCache &c : caches)
            n += c.population();
        return n;
    }

    /** Total line capacity across every AMB cache. */
    unsigned
    capacity() const
    {
        unsigned n = 0;
        for (const AmbCache &c : caches)
            n += c.entries();
        return n;
    }
    std::uint64_t prefetchesIssued() const { return nPrefetches; }
    std::uint64_t writeInvalidations() const { return nWriteInval; }
    std::uint64_t lateHits() const { return nLateHits; }
    std::uint64_t droppedCandidates() const { return nDropped; }

    /** Prefetched lines displaced by capacity pressure before any
     *  demand used them. */
    std::uint64_t evictedUnused() const { return nEvictedUnused; }

    /** Prefetched lines killed by a write before any demand used
     *  them. */
    std::uint64_t invalidatedUnused() const { return nInvalUnused; }

    /** #prefetch_hit / #read. */
    double coverage() const
    {
        return nReads
            ? static_cast<double>(nHits) / static_cast<double>(nReads)
            : 0.0;
    }

    /** #prefetch_hit / #prefetch. */
    double efficiency() const
    {
        return nPrefetches
            ? static_cast<double>(nHits)
                / static_cast<double>(nPrefetches)
            : 0.0;
    }

    /** Late hits / hits: how often a covering prefetch was not yet
     *  in the SRAM when demanded (lower is better). */
    double lateness() const
    {
        return nHits
            ? static_cast<double>(nLateHits)
                / static_cast<double>(nHits)
            : 0.0;
    }

    /** Unused displaced or invalidated lines / prefetches issued. */
    double pollution() const
    {
        return nPrefetches
            ? static_cast<double>(nEvictedUnused + nInvalUnused)
                / static_cast<double>(nPrefetches)
            : 0.0;
    }

    void resetStats();

  private:
    std::vector<AmbCache> caches;

    std::uint64_t nReads = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nPrefetches = 0;
    std::uint64_t nWriteInval = 0;
    std::uint64_t nLateHits = 0;
    std::uint64_t nDropped = 0;
    std::uint64_t nEvictedUnused = 0;
    std::uint64_t nInvalUnused = 0;
};

} // namespace fbdp

#endif // FBDP_PREFETCH_PREFETCH_TABLE_HH
