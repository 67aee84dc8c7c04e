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
 *  - a touching hit rotates the line to the front;
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

      private:
        friend class CacheArray;

        static constexpr std::uint64_t validBit = 1;
        static constexpr std::uint64_t dirtyBit = 2;
        static constexpr std::uint64_t flagMask = lineBytes - 1;

        std::uint64_t word = 0;  ///< 0 == invalid
    };

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
     * Find a line; on a hit with @p touch it becomes the set's most
     * recent.  @return the line's tag (valid until the next call that
     * changes this array), or nullptr on a miss.
     */
    Tag *lookup(Addr line_addr, bool touch = true);

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

    /** Way of @p line_addr in the set at @p base, or nWays. */
    unsigned find(const Tag *base, Addr line_addr) const
    {
        // A present line's word is the address plus validBit, with or
        // without dirtyBit; invalid ways (word 0) never match.
        const std::uint64_t key = line_addr | Tag::validBit
            | Tag::dirtyBit;
        unsigned w = 0;
        while (w < nWays && (base[w].word | Tag::dirtyBit) != key)
            ++w;
        return w;
    }

    /**
     * Put @p t at the front of the set at @p base, shifting ways
     * [0, n) back one.  @return the tag way @p n held before.  With
     * t == base[w] and n == w this moves way w to the front.
     */
    static Tag pushFront(Tag *base, unsigned n, Tag t);

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
