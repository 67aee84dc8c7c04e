#include "prefetch/prefetch_table.hh"

#include "common/logging.hh"

namespace fbdp {

PrefetchTable::PrefetchTable(unsigned n_dimms, unsigned entries,
                             unsigned ways)
{
    fbdp_assert(n_dimms >= 1, "prefetch table needs >= 1 DIMM");
    caches.reserve(n_dimms);
    for (unsigned i = 0; i < n_dimms; ++i)
        caches.emplace_back(entries, ways);
}

void
PrefetchTable::insertCandidate(unsigned dimm_idx, Addr line_addr)
{
    // A line that is already resident keeps its FIFO age; true FIFO
    // retires by first insertion, not by re-fetch.
    AmbCache::Evicted ev;
    caches.at(dimm_idx).insertIfAbsent(line_addr,
                                       AmbCache::fillPending, &ev);
    ++nPrefetches;
    if (ev.valid && !ev.used)
        ++nEvictedUnused;
}

void
PrefetchTable::resolveFill(unsigned dimm_idx, Addr line_addr,
                           Tick ready_at)
{
    if (AmbCache::Line *l = caches.at(dimm_idx).lookup(line_addr))
        l->readyAt = ready_at;
    // An already evicted line simply loses its fill; harmless.
}

bool
PrefetchTable::invalidate(unsigned dimm_idx, Addr line_addr)
{
    bool used = false;
    if (!caches.at(dimm_idx).invalidate(line_addr, &used))
        return false;
    ++nWriteInval;
    if (!used)
        ++nInvalUnused;
    return true;
}

void
PrefetchTable::resetStats()
{
    nReads = 0;
    nHits = 0;
    nPrefetches = 0;
    nWriteInval = 0;
    nLateHits = 0;
    nDropped = 0;
    nEvictedUnused = 0;
    nInvalUnused = 0;
}

} // namespace fbdp
