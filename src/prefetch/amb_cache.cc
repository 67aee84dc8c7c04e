#include "prefetch/amb_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fbdp {

AmbCache::AmbCache(unsigned entries, unsigned ways)
    : nEntries(entries),
      nWays(ways == 0 ? entries : ways),
      nSets(entries / (ways == 0 ? entries : ways))
{
    fbdp_assert(entries >= 1, "AMB cache needs at least one entry");
    fbdp_assert(nWays >= 1 && entries % nWays == 0,
                "entries %u not divisible by ways %u", entries, nWays);
    if ((nSets & (nSets - 1)) == 0)
        setMask = nSets - 1;
    lines.resize(entries);
    links.resize(entries);
    setState.resize(nSets);
    freeWays.resize(entries);
    // A load factor of at most 1/4 keeps probe runs about one bucket.
    unsigned bits = 2;
    while ((1u << bits) < 4u * entries)
        ++bits;
    index.resize(static_cast<size_t>(1) << bits);
    indexShift = 64 - bits;
    reset();
}

unsigned
AmbCache::setOf(Addr line_addr) const
{
    // Fold upper address bits into the index.  The lines that reach
    // one AMB share their low line-index bits with the channel/DIMM
    // selector of the interleaving, so a plain modulo would alias
    // every resident line onto a handful of sets; hardware indexes
    // with DIMM-local bits instead, which this is equivalent to.
    std::uint64_t l = lineIndex(line_addr);
    l ^= l >> 5;
    l ^= l >> 11;
    if (setMask)
        return static_cast<unsigned>(l & setMask);
    return static_cast<unsigned>(l % nSets);
}

std::uint32_t
AmbCache::homeOf(Addr line_addr) const
{
    // Fibonacci hashing: the top bits of the product mix every
    // address bit.
    return static_cast<std::uint32_t>(
        (lineIndex(line_addr) * 0x9e3779b97f4a7c15ull) >> indexShift);
}

std::uint32_t
AmbCache::find(Addr line_addr) const
{
    const std::uint32_t mask =
        static_cast<std::uint32_t>(index.size() - 1);
    for (std::uint32_t b = homeOf(line_addr);; b = (b + 1) & mask) {
        const std::uint32_t s = index[b];
        if (s == none || lines[s].lineAddr == line_addr)
            return s;
    }
}

void
AmbCache::indexInsert(Addr line_addr, std::uint32_t slot)
{
    const std::uint32_t mask =
        static_cast<std::uint32_t>(index.size() - 1);
    std::uint32_t b = homeOf(line_addr);
    while (index[b] != none)
        b = (b + 1) & mask;
    index[b] = slot;
}

void
AmbCache::indexErase(Addr line_addr)
{
    const std::uint32_t mask =
        static_cast<std::uint32_t>(index.size() - 1);
    std::uint32_t hole = homeOf(line_addr);
    while (lines[index[hole]].lineAddr != line_addr)
        hole = (hole + 1) & mask;
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless that would move them before their home.
    for (std::uint32_t b = (hole + 1) & mask; index[b] != none;
         b = (b + 1) & mask) {
        const std::uint32_t home = homeOf(lines[index[b]].lineAddr);
        if (((b - home) & mask) >= ((b - hole) & mask)) {
            index[hole] = index[b];
            hole = b;
        }
    }
    index[hole] = none;
}

void
AmbCache::linkTail(unsigned set, std::uint32_t slot)
{
    Set &st = setState[set];
    links[slot] = Link{st.tail, none};
    if (st.tail == none)
        st.head = slot;
    else
        links[st.tail].next = slot;
    st.tail = slot;
}

void
AmbCache::unlink(unsigned set, std::uint32_t slot)
{
    Set &st = setState[set];
    const Link l = links[slot];
    if (l.prev == none)
        st.head = l.next;
    else
        links[l.prev].next = l.next;
    if (l.next == none)
        st.tail = l.prev;
    else
        links[l.next].prev = l.prev;
}

AmbCache::Line *
AmbCache::lookup(Addr line_addr)
{
    const std::uint32_t s = find(line_addr);
    return s == none ? nullptr : &lines[s];
}

const AmbCache::Line *
AmbCache::lookup(Addr line_addr) const
{
    return const_cast<AmbCache *>(this)->lookup(line_addr);
}

AmbCache::Line *
AmbCache::place(Addr line_addr, Tick ready_at, Evicted *evicted)
{
    const unsigned set = setOf(line_addr);
    Set &st = setState[set];
    std::uint32_t slot;
    if (st.nFree) {
        slot = freeWays[static_cast<size_t>(set) * nWays + --st.nFree];
        ++nValid;
    } else {
        // FIFO: evict the oldest insertion in the set.
        slot = st.head;
        Line &victim = lines[slot];
        unlink(set, slot);
        indexErase(victim.lineAddr);
        ++nEvictions;
        if (evicted) {
            evicted->lineAddr = victim.lineAddr;
            evicted->used = victim.used;
            evicted->valid = true;
        }
    }

    Line &l = lines[slot];
    l.lineAddr = line_addr;
    l.readyAt = ready_at;
    l.used = false;
    linkTail(set, slot);
    indexInsert(line_addr, slot);
    ++nInsertions;
    return &l;
}

AmbCache::Line *
AmbCache::insert(Addr line_addr, Tick ready_at)
{
    const std::uint32_t s = find(line_addr);
    if (s == none)
        return place(line_addr, ready_at, nullptr);
    // Resident: refresh in place and restart its FIFO age.
    const unsigned set = s / nWays;
    unlink(set, s);
    linkTail(set, s);
    lines[s].readyAt = ready_at;
    return &lines[s];
}

AmbCache::Line *
AmbCache::insertIfAbsent(Addr line_addr, Tick ready_at,
                         Evicted *evicted)
{
    const std::uint32_t s = find(line_addr);
    if (s != none)
        return &lines[s];  // resident: keep FIFO age and readiness
    return place(line_addr, ready_at, evicted);
}

bool
AmbCache::invalidate(Addr line_addr, bool *was_used)
{
    const std::uint32_t s = find(line_addr);
    if (s == none)
        return false;
    if (was_used)
        *was_used = lines[s].used;
    const unsigned set = s / nWays;
    unlink(set, s);
    indexErase(line_addr);
    freeWays[static_cast<size_t>(set) * nWays + setState[set].nFree++] =
        s;
    --nValid;
    return true;
}

void
AmbCache::reset()
{
    for (unsigned set = 0; set < nSets; ++set) {
        Set &st = setState[set];
        st = Set{};
        for (unsigned w = 0; w < nWays; ++w)
            freeWays[static_cast<size_t>(set) * nWays + st.nFree++] =
                set * nWays + w;
    }
    std::fill(index.begin(), index.end(), none);
    nValid = 0;
    nInsertions = 0;
    nEvictions = 0;
}

} // namespace fbdp
