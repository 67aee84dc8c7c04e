#include "cache/cache_array.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace fbdp {

CacheArray::CacheArray(std::uint64_t size_bytes, unsigned ways)
    : nSets(0), nWays(ways)
{
    fbdp_assert(ways >= 1, "cache needs >= 1 way");
    fbdp_assert(size_bytes % (static_cast<std::uint64_t>(ways)
                              * lineBytes) == 0,
                "cache size not divisible by way size");
    nSets = static_cast<unsigned>(size_bytes
                                  / (static_cast<std::uint64_t>(ways)
                                     * lineBytes));
    fbdp_assert(nSets >= 1, "cache has zero sets");
    if ((nSets & (nSets - 1)) == 0)
        setMask = nSets - 1;
    tags.resize(static_cast<size_t>(nSets) * nWays);
}

CacheArray::Tag
CacheArray::pushFront(Tag *base, unsigned n, Tag t)
{
    // A carried swap rather than std::copy_backward: the shift is a
    // few words, and the library (or a loop the compiler recognises
    // as one) would make it a memmove call.
    for (unsigned k = 0; k <= n; ++k)
        std::swap(t, base[k]);
    return t;
}

CacheArray::Tag *
CacheArray::lookup(Addr line_addr, bool touch)
{
    Tag *base = setBase(line_addr);
    const unsigned w = find(base, line_addr);
    if (w == nWays) {
        ++nMisses;
        return nullptr;
    }
    ++nHits;
    if (!touch)
        return &base[w];
    pushFront(base, w, base[w]);
    return &base[0];
}

CacheArray::Victim
CacheArray::fillSet(Tag *base, Addr line_addr, bool dirty)
{
    Tag t;
    t.word = line_addr | Tag::validBit | (dirty ? Tag::dirtyBit : 0);
    // The last way is the LRU line when the set is full, else invalid.
    const Tag last = pushFront(base, nWays - 1, t);
    if (!last.valid())
        return Victim{};
    return Victim{last.lineAddr(), true, last.dirty()};
}

CacheArray::Victim
CacheArray::install(Addr line_addr, bool dirty)
{
    Tag *base = setBase(line_addr);
    const unsigned w = find(base, line_addr);
    if (w == nWays)
        return fillSet(base, line_addr, dirty);
    // Already present: refresh.
    pushFront(base, w, base[w]);
    if (dirty)
        base[0].setDirty();
    return Victim{};
}

CacheArray::Victim
CacheArray::fill(Addr line_addr, bool dirty)
{
    return fillSet(setBase(line_addr), line_addr, dirty);
}

bool
CacheArray::invalidate(Addr line_addr)
{
    Tag *base = setBase(line_addr);
    const unsigned w = find(base, line_addr);
    if (w == nWays)
        return false;
    std::copy(base + w + 1, base + nWays, base + w);
    base[nWays - 1] = Tag{};
    return true;
}

void
CacheArray::reset()
{
    std::fill(tags.begin(), tags.end(), Tag{});
    resetStats();
}

} // namespace fbdp
