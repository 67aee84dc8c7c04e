#include "cache/cache_array.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace fbdp {

CacheArray::CacheArray(std::uint64_t size_bytes, unsigned ways)
    : nSets(0), nWays(ways)
{
    fbdp_assert(ways >= 1 && ways <= maxWays,
                "cache has %u ways, not 1 to %u", ways, maxWays);
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

CacheArray::Victim
CacheArray::fillSet(Tag *base, Addr line_addr, bool dirty)
{
    Tag t;
    t.word = line_addr | Tag::validBit | (dirty ? Tag::dirtyBit : 0);
    // Shift the set back one way with a carried swap rather than
    // std::copy_backward: the shift is a few words, and the library
    // (or a loop the compiler recognises as one) would make it a
    // memmove call.  What falls out of the last way is the LRU line
    // when the set was full, else invalid.
    for (unsigned k = 0; k < nWays; ++k)
        std::swap(t, base[k]);
    if (!t.valid())
        return Victim{};
    return Victim{t.lineAddr(), true, t.dirty()};
}

CacheArray::Victim
CacheArray::install(Addr line_addr, bool dirty)
{
    Tag *base = setBase(line_addr);
    // Already present: refresh.
    if (promote(base, line_addr, dirty))
        return Victim{};
    return fillSet(base, line_addr, dirty);
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
    const std::uint64_t m = matchMask(base, line_addr);
    if (!m)
        return false;
    const auto w = static_cast<unsigned>(std::countr_zero(m));
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
