/**
 * @file
 * The AMB cache: the small SRAM prefetch buffer attached to each
 * Advanced Memory Buffer (the paper's core hardware addition).
 *
 * The data array lives on the AMB; the tag-and-status array is held by
 * the memory controller in its prefetch information table.  Because the
 * controller's mirror is authoritative for scheduling, a single model
 * class serves both roles.
 *
 * Organisation: @p entries cachelines of 64 bytes, set-associative with
 * a FIFO replacement policy inside each set.  The paper rejects LRU
 * because a block that just hit is now held by the processor caches and
 * will not be re-referenced soon; FIFO retires the oldest prefetch
 * regardless of use.  Fully associative (the default) is a single set.
 *
 * Each line carries a @c readyAt tick: a prefetch is visible in the tag
 * array from the moment its group fetch is queued, but its data only
 * reaches the SRAM when the pipelined column access completes.  A
 * demand hit on an in-flight line waits for @c readyAt, not for a full
 * DRAM access.
 *
 * Every operation is O(1) in the associativity (the controller
 * consults the mirror on every read, write and group fetch), through
 * three structures kept in lock step:
 *  - @b index: one open-addressed, linear-probing lineAddr -> slot
 *    table for the whole cache.  It holds exactly the valid lines;
 *    a line address maps to one set, so keys are unique cache-wide.
 *    Deletion shifts the probe run back, so there are no tombstones.
 *  - @b FIFO @b list: each set links its valid slots head-to-tail in
 *    insertion order.  The head, the oldest insertion, is the FIFO
 *    victim; insert() on a resident line restarts its age by moving
 *    it to the tail, while insertIfAbsent() leaves it in place.
 *  - @b free @b stack: each set stacks its invalid ways.  Which free
 *    way a new line lands in is not observable: nothing orders,
 *    reports or compares ways.
 */

#ifndef FBDP_PREFETCH_AMB_CACHE_HH
#define FBDP_PREFETCH_AMB_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace fbdp {

/** Prefetch buffer of one AMB (tags mirrored at the controller). */
class AmbCache
{
  public:
    /** Sentinel readyAt for "fill not yet scheduled". */
    static constexpr Tick fillPending = maxTick;

    struct Line
    {
        Addr lineAddr = 0;      ///< line-aligned physical address
        Tick readyAt = 0;       ///< data present in the SRAM from here
        bool used = false;      ///< serviced at least one demand read
    };

    /** What insertIfAbsent() displaced, for pollution accounting and
     *  policy on-evict training. */
    struct Evicted
    {
        Addr lineAddr = 0;
        bool used = false;
        bool valid = false;  ///< false: nothing was displaced
    };

    /**
     * @param entries total number of 64 B lines (32/64/128 in the
     *                paper's sweeps)
     * @param ways    set associativity; 0 means fully associative
     */
    AmbCache(unsigned entries, unsigned ways);

    /** Find a valid line (one index probe). @return nullptr on miss. */
    Line *lookup(Addr line_addr);
    const Line *lookup(Addr line_addr) const;

    /**
     * Insert a line (FIFO-evicting inside its set if needed).  An
     * existing entry for the same address is refreshed in place.
     * @return the inserted line.
     */
    Line *insert(Addr line_addr, Tick ready_at);

    /**
     * Insert only when absent: a resident entry keeps its FIFO age
     * and readiness (true FIFO retires by first insertion).  One
     * index probe — the group-fetch hot path.  When a valid victim is
     * displaced and @p evicted is non-null, its identity and used
     * bit are reported there.
     * @return the resident or inserted line.
     */
    Line *insertIfAbsent(Addr line_addr, Tick ready_at,
                         Evicted *evicted = nullptr);

    /** Drop a line if present. @return true if something was dropped;
     *  @p was_used (optional) reports the dropped line's used bit. */
    bool invalidate(Addr line_addr, bool *was_used = nullptr);

    /** Invalidate everything. */
    void reset();

    unsigned entries() const { return nEntries; }
    unsigned ways() const { return nWays; }
    unsigned sets() const { return nSets; }

    /** Number of currently valid lines. */
    unsigned population() const { return nValid; }

    std::uint64_t insertions() const { return nInsertions; }
    std::uint64_t evictions() const { return nEvictions; }

  private:
    /** "No slot": an empty index bucket or a list end. */
    static constexpr std::uint32_t none = ~0u;

    unsigned setOf(Addr line_addr) const;

    /** Home bucket of @p line_addr in the index. */
    std::uint32_t homeOf(Addr line_addr) const;
    /** Slot holding @p line_addr, or none. */
    std::uint32_t find(Addr line_addr) const;
    void indexInsert(Addr line_addr, std::uint32_t slot);
    void indexErase(Addr line_addr);

    /** Append @p slot at the tail of @p set's FIFO list. */
    void linkTail(unsigned set, std::uint32_t slot);
    void unlink(unsigned set, std::uint32_t slot);

    /** Place an absent line: a free way of its set, else the FIFO
     *  head (reported through @p evicted when non-null). */
    Line *place(Addr line_addr, Tick ready_at, Evicted *evicted);

    unsigned nEntries;
    unsigned nWays;
    unsigned nSets;
    unsigned setMask = 0;  ///< nSets - 1 when nSets is a power of two
    unsigned nValid = 0;

    std::uint64_t nInsertions = 0;
    std::uint64_t nEvictions = 0;

    std::vector<Line> lines;  ///< nSets x nWays, set-major

    /** FIFO neighbours of each valid slot. */
    struct Link
    {
        std::uint32_t prev = none;
        std::uint32_t next = none;
    };
    std::vector<Link> links;

    /** Per set: its FIFO list ends and its free-way count. */
    struct Set
    {
        std::uint32_t head = none;  ///< oldest valid line
        std::uint32_t tail = none;  ///< newest valid line
        std::uint32_t nFree = 0;
    };
    std::vector<Set> setState;

    /** Free-way stacks: set s keeps its setState[s].nFree invalid
     *  slots at freeWays[s * nWays ...]. */
    std::vector<std::uint32_t> freeWays;

    std::vector<std::uint32_t> index;  ///< slot or none; power of two
    unsigned indexShift = 0;           ///< 64 - log2(index.size())
};

} // namespace fbdp

#endif // FBDP_PREFETCH_AMB_CACHE_HH
