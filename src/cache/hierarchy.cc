#include "cache/hierarchy.hh"

#include "common/logging.hh"

namespace fbdp {

CacheHierarchy::CacheHierarchy(EventQueue *event_queue, unsigned n_cores,
                               const HierConfig &config,
                               MemoryIface *memory)
    : eq(event_queue),
      cfg(config),
      mem(memory),
      l2(cfg.l2Bytes, cfg.l2Ways),
      l2Mshr(cfg.l2Mshrs),
      l1Pending(n_cores, 0),
      retryHooks(n_cores)
{
    fbdp_assert(n_cores >= 1, "hierarchy needs >= 1 core");
    l1.reserve(n_cores);
    for (unsigned i = 0; i < n_cores; ++i)
        l1.emplace_back(cfg.l1Bytes, cfg.l1Ways);
    if (cfg.hwPrefetch.enable)
        hwPf = std::make_unique<StreamPrefetcher>(cfg.hwPrefetch,
                                                  n_cores);
}

void
CacheHierarchy::writebackL1Victim(const CacheArray::Victim &v, int core)
{
    if (v.valid && v.dirty)
        l2InstallWithWriteback(v.lineAddr, true, core);
}

void
CacheHierarchy::l2InstallWithWriteback(Addr line_addr, bool dirty,
                                       int core)
{
    auto v = l2.install(line_addr, dirty);
    if (v.valid && v.dirty) {
        ++nMemWrites;
        mem->write(v.lineAddr, core);
    }
}

CacheHierarchy::Result
CacheHierarchy::access(int core, Addr addr, bool store,
                       TickCallback done)
{
    const Addr line = lineAlign(addr);
    auto c = static_cast<size_t>(core);

    if (l1[c].hit(line, store))
        return Result{Outcome::L1Hit, eq->now()};

    if (l1Pending[c] >= cfg.l1Mshrs)
        return Result{Outcome::Blocked, 0};

    if (l2.hit(line, false)) {
        // The L1 lookup above just missed: fill without a rescan.
        writebackL1Victim(l1[c].fill(line, store), core);
        return Result{Outcome::L2Hit, eq->now() + cfg.l2HitLatency};
    }

    MshrTable::Waiter w;
    w.coreId = core;
    w.isStore = store;
    w.isPrefetch = false;
    w.done = std::move(done);

    if (MshrTable::Entry *e = l2Mshr.find(line)) {
        l2Mshr.merge(e, std::move(w));
        ++l1Pending[c];
        return Result{Outcome::Miss, 0};
    }

    if (l2Mshr.full())
        return Result{Outcome::Blocked, 0};

    MshrTable::Entry *e = l2Mshr.allocate(line, false);
    l2Mshr.merge(e, std::move(w));
    ++l1Pending[c];
    ++nMemReads;
    if (store)
        ++nStoreMissReads;
    else
        ++nLoadMissReads;
    if (trc.tr) {
        const trace::Kind k = store ? trace::Kind::Write
                                    : trace::Kind::Read;
        if (trc.tr->want(k))
            trc.tr->instant(trc.l2, "miss", eq->now(), k, core, line);
        traceMshrOccupancy();
    }
    mem->read(line, core, false,
              [this, line](Tick when) { fillComplete(line, when); });

    // Let the hardware stream detector chase this miss.
    if (hwPf) {
        for (Addr target : hwPf->onDemandMiss(core, line))
            prefetch(core, target);
    }
    return Result{Outcome::Miss, 0};
}

void
CacheHierarchy::prefetch(int core, Addr addr)
{
    const Addr line = lineAlign(addr);

    // Already resident or already in flight: the prefetch is satisfied.
    if (l2.lookup(line, /*touch=*/false)) {
        ++nPrefDropped;
        return;
    }
    if (MshrTable::Entry *e = l2Mshr.find(line)) {
        // Nothing to wait for; just make sure the entry survives.
        (void)e;
        ++nPrefDropped;
        return;
    }
    if (l2Mshr.full()) {
        // Non-binding: dropping is always legal.
        ++nPrefDropped;
        return;
    }

    l2Mshr.allocate(line, true);
    ++nPrefSent;
    if (trc.tr) {
        if (trc.tr->want(trace::Kind::Prefetch)) {
            trc.tr->instant(trc.l2, "sw_prefetch", eq->now(),
                            trace::Kind::Prefetch, core, line);
        }
        traceMshrOccupancy();
    }
    mem->read(line, core, true,
              [this, line](Tick when) { fillComplete(line, when); });
}

void
CacheHierarchy::fillComplete(Addr line_addr, Tick when)
{
    // Install into the L2 first so that waiter callbacks (and the
    // accesses they trigger) observe the line.
    l2InstallWithWriteback(line_addr, false, -1);

    l2Mshr.complete(line_addr, when, waiterScratch);
    if (trc.tr) {
        trc.tr->instant(trc.l2, "fill", when, trace::Kind::None, -1,
                        line_addr);
        traceMshrOccupancy();
    }
    auto &waiters = waiterScratch;
    for (auto &w : waiters) {
        if (w.isPrefetch)
            continue;
        // Two merged misses of one core install the line twice, so
        // the second finds it present.
        writebackL1Victim(
            l1[static_cast<size_t>(w.coreId)].install(line_addr,
                                                      w.isStore),
            w.coreId);
        fbdp_assert(l1Pending[static_cast<size_t>(w.coreId)] > 0,
                    "L1 pending underflow");
        --l1Pending[static_cast<size_t>(w.coreId)];
    }
    for (auto &w : waiters) {
        if (!w.isPrefetch && w.done)
            w.done(when);
    }

    pokeRetries();
}

void
CacheHierarchy::bindTracer(trace::Tracer *t)
{
    trc = TraceBinding{};
    if (!t)
        return;
    trc.tr = t;
    trc.l2 = t->track("l2");
    trc.mshr = t->track("l2.mshr");
}

void
CacheHierarchy::setRetryHook(int core, InlineCallback<> hook)
{
    retryHooks.at(static_cast<size_t>(core)) = hook;
}

void
CacheHierarchy::pokeRetries()
{
    for (const auto &h : retryHooks) {
        if (h)
            h();
    }
}

std::uint64_t
CacheHierarchy::l1Hits(int core) const
{
    return l1.at(static_cast<size_t>(core)).hits();
}

std::uint64_t
CacheHierarchy::l1Misses(int core) const
{
    return l1.at(static_cast<size_t>(core)).misses();
}

void
CacheHierarchy::resetStats()
{
    for (auto &c : l1)
        c.resetStats();
    l2.resetStats();
    l2Mshr.resetStats();
    nMemReads = 0;
    nMemWrites = 0;
    nPrefSent = 0;
    nPrefDropped = 0;
    nLoadMissReads = 0;
    nStoreMissReads = 0;
}

void
CacheHierarchy::functionalMiss(CacheArray &l1c, Addr line, bool store)
{
    // Both fills follow a lookup that just missed.  Nothing reaches
    // memory: warm-up victims are silently dropped, and a dirty L1
    // victim's writeback stops at the L2 (which may still hold that
    // line, hence a full install there).
    if (!l2.hit(line, false))
        l2.fill(line, false);
    auto v = l1c.fill(line, store);
    if (v.valid && v.dirty)
        l2.install(v.lineAddr, true);
}

void
CacheHierarchy::functionalPrefetch(int, Addr addr)
{
    const Addr line = lineAlign(addr);
    if (!l2.lookup(line, /*touch=*/false))
        l2.fill(line, false);
}

void
CacheHierarchy::copyFunctionalStateFrom(const CacheHierarchy &other)
{
    fbdp_assert(l1.size() == other.l1.size()
                    && l1[0].numSets() == other.l1[0].numSets()
                    && l1[0].numWays() == other.l1[0].numWays()
                    && l2.numSets() == other.l2.numSets()
                    && l2.numWays() == other.l2.numWays(),
                "functional state copied across cache geometries");
    l1 = other.l1;
    l2 = other.l2;
}

} // namespace fbdp
