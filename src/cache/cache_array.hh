/**
 * @file
 * A generic set-associative, LRU, write-back tag array.
 *
 * Used for the per-core 64 KB 2-way L1 data caches and the shared 4 MB
 * 4-way L2 of Table 1.  Purely functional (tags only — the simulator
 * never carries data payloads); timing is applied by CacheHierarchy.
 */

#ifndef FBDP_CACHE_CACHE_ARRAY_HH
#define FBDP_CACHE_CACHE_ARRAY_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace fbdp {

/**
 * Tag array with true-LRU replacement.
 *
 * Each way is one packed 8-byte Tag: the line address with the valid
 * and dirty flags in its (always zero) offset bits.  Recency is held
 * by position rather than by a per-line age: a set keeps its valid
 * lines as a prefix of its ways in recency order, most recent first,
 * with the invalid ways after them.  So the LRU line of a full set is
 * its last way, and
 *  - a touching hit rotates the line to the front (hit(), without
 *    branching on the line's way: see promoteWays());
 *  - an install shifts the set back one way, dropping the last way
 *    (the victim, when the set is full), and takes the front;
 *  - invalidate shifts the lines behind the dropped one forward.
 *
 * Addresses passed in must be line-aligned.
 */
class CacheArray
{
  public:
    /** One way's packed tag word. */
    class Tag
    {
      public:
        Addr lineAddr() const { return word & ~flagMask; }
        bool valid() const { return word & validBit; }
        bool dirty() const { return word & dirtyBit; }
        void setDirty() { word |= dirtyBit; }

        bool operator==(const Tag &) const = default;

      private:
        friend class CacheArray;

        static constexpr std::uint64_t validBit = 1;
        static constexpr std::uint64_t dirtyBit = 2;
        static constexpr std::uint64_t flagMask = lineBytes - 1;

        std::uint64_t word = 0;  ///< 0 == invalid
    };

    /** Widest set: one bit per way in a 64-bit match mask. */
    static constexpr unsigned maxWays = 64;

    /** What fell out of the set on an install (16 bytes, so it is
     *  returned in registers). */
    struct Victim
    {
        Addr lineAddr = 0;
        bool valid = false;   ///< a line was evicted
        bool dirty = false;
    };

    CacheArray(std::uint64_t size_bytes, unsigned ways);

    /**
     * The hit path of every access: on a hit the line becomes the
     * set's most recent, with the dirty bit ORed in when @p dirty.
     * @return whether the line was present.
     */
    bool
    hit(Addr line_addr, bool dirty)
    {
        const bool found = promote(setBase(line_addr), line_addr, dirty);
        nHits += found;
        nMisses += !found;
        return found;
    }

    /**
     * Find a line; on a hit with @p touch it becomes the set's most
     * recent.  @return the line's tag (valid until the next call that
     * changes this array), or nullptr on a miss.
     */
    Tag *
    lookup(Addr line_addr, bool touch = true)
    {
        Tag *base = setBase(line_addr);
        if (touch)
            return hit(line_addr, false) ? base : nullptr;
        const std::uint64_t m = matchMask(base, line_addr);
        nHits += m != 0;
        nMisses += m == 0;
        return m ? &base[std::countr_zero(m)] : nullptr;
    }

    /**
     * Install @p line_addr as the set's most recent line.  The line
     * may already be present — e.g. the L2 writeback of a dirty L1
     * victim whose line the L2 still holds — in which case it is
     * refreshed: moved to the front with its dirty bit ORed in, and
     * nothing is evicted.
     */
    Victim install(Addr line_addr, bool dirty);

    /**
     * install() for a line known to be absent (a lookup() of it just
     * missed and nothing changed this array since): skips the scan.
     */
    Victim fill(Addr line_addr, bool dirty);

    /** Drop a line if present. */
    bool invalidate(Addr line_addr);

    void reset();

    unsigned numSets() const { return nSets; }
    unsigned numWays() const { return nWays; }
    std::uint64_t sizeBytes() const
    {
        return static_cast<std::uint64_t>(nSets) * nWays * lineBytes;
    }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    void resetStats() { nHits = 0; nMisses = 0; }

    /** Same geometry, tags (order and dirty bits) and counters. */
    bool operator==(const CacheArray &) const = default;

  private:
    unsigned setOf(Addr line_addr) const
    {
        // The common geometries (Table 1) all have power-of-two set
        // counts; the mask avoids a runtime modulo on the hottest
        // simulator path (every L1/L2 access indexes here).
        const std::uint64_t idx = lineIndex(line_addr);
        if (setMask)
            return static_cast<unsigned>(idx & setMask);
        return static_cast<unsigned>(idx % nSets);
    }

    Tag *setBase(Addr line_addr)
    {
        return &tags[static_cast<std::size_t>(setOf(line_addr)) * nWays];
    }

    /** Bit w set when way w of the set at @p base holds @p line_addr
     *  (at most one bit, since a set holds a line at most once).
     *  @p W fixes the way count at compile time; 0 reads nWays. */
    template <unsigned W = 0>
    std::uint64_t
    matchMask(const Tag *base, Addr line_addr) const
    {
        // A present line's word is the address plus validBit, with or
        // without dirtyBit; invalid ways (word 0) never match.
        const std::uint64_t key = line_addr | Tag::validBit
            | Tag::dirtyBit;
        const unsigned n = W ? W : nWays;
        std::uint64_t m = 0;
        for (unsigned w = 0; w < n; ++w)
            m |= std::uint64_t{(base[w].word | Tag::dirtyBit) == key}
                << w;
        return m;
    }

    /**
     * If the set at @p base holds @p line_addr, rotate it to the
     * front with @p dirty ORed in.  The rotate is arithmetic, so
     * nothing branches on where the line sits: way k takes way k-1
     * under a mask that is all ones exactly when the match lies at or
     * behind k.  @return whether the line was present.
     */
    template <unsigned W>
    bool
    promoteWays(Tag *base, Addr line_addr, bool dirty)
    {
        const unsigned n = W ? W : nWays;
        const std::uint64_t m = matchMask<W>(base, line_addr);
        if (!m)
            return false;
        std::uint64_t front = 0;
        for (unsigned w = 0; w < n; ++w)
            front |= base[w].word & -((m >> w) & 1);
        for (unsigned k = n - 1; k > 0; --k) {
            const std::uint64_t take = -std::uint64_t{(m >> k) != 0};
            base[k].word ^= (base[k].word ^ base[k - 1].word) & take;
        }
        base[0].word = front | (std::uint64_t{dirty} * Tag::dirtyBit);
        return true;
    }

    /** promoteWays() with Table 1's way counts unrolled. */
    bool
    promote(Tag *base, Addr line_addr, bool dirty)
    {
        switch (nWays) {
          case 2:
            return promoteWays<2>(base, line_addr, dirty);
          case 4:
            return promoteWays<4>(base, line_addr, dirty);
          default:
            return promoteWays<0>(base, line_addr, dirty);
        }
    }

    Victim fillSet(Tag *base, Addr line_addr, bool dirty);

    unsigned nSets;
    unsigned setMask = 0;  ///< nSets - 1 when nSets is a power of two
    unsigned nWays;
    std::vector<Tag> tags;  ///< set-major, each set in recency order

    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

} // namespace fbdp

#endif // FBDP_CACHE_CACHE_ARRAY_HH
