#include "mc/controller.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace fbdp {

MemController::MemController(std::string name, EventQueue *event_queue,
                             const ControllerConfig &config)
    : _name(std::move(name)),
      eq(event_queue),
      cfg(config),
      cmdLink(cfg.timing.memCycle, cfg.fbd ? 3u : 1u),
      wakeEvent([this] { wake(); }),
      completionEvent([this] { completionFire(); }, Event::prioData)
{
    fbdp_assert(cfg.nDimms >= 1, "%s: no DIMMs", _name.c_str());
    if (cfg.queueSize < 1 || cfg.queueSize > maxWindow)
        fatal("%s: queueSize %u outside 1..%u", _name.c_str(),
              cfg.queueSize, maxWindow);
    window.reserve(cfg.queueSize);
    dimms.reserve(cfg.nDimms);
    for (unsigned i = 0; i < cfg.nDimms; ++i)
        dimms.emplace_back(&cfg.timing, cfg.banksPerDimm);
    if (cfg.fbd)
        dimmBus.resize(cfg.nDimms);
    const PrefetchConfig &pc = cfg.prefetch;
    if (pc.enabled()) {
        fbdp_assert(cfg.fbd || pc.atMc(),
                    "AMB prefetching requires FB-DIMM");
        // One AMB cache per DIMM, or one table at the controller.
        table = std::make_unique<PrefetchTable>(
            pc.atMc() ? 1u : cfg.nDimms, pc.entries, pc.ways);
        PolicyParams pp;
        pp.regionLines = cfg.regionLines;
        pp.degree = pc.degree;
        pp.nDimms = cfg.nDimms;  // the real topology at either place
        pp.throttle = pc.throttle;
        pol = PolicyRegistry::instance().make(pc.policy, pp);
    }
    if (cfg.refreshEnable) {
        refreshPending.assign(cfg.nDimms, false);
        nextRefreshAt.resize(cfg.nDimms);
        // Stagger the refresh schedule across DIMMs.
        for (unsigned i = 0; i < cfg.nDimms; ++i)
            nextRefreshAt[i] = cfg.timing.tREFI * (i + 1)
                / cfg.nDimms;
    }
}

void
MemController::bindTracer(trace::Tracer *t, unsigned channel)
{
    trc = TraceBinding{};
    if (!t || !t->wantChannel(channel))
        return;
    trc.tr = t;
    const std::string ch = "ch" + std::to_string(channel);
    trc.txn = t->track(ch + ".txn");
    trc.south = t->track(ch + ".south");
    trc.north = t->track(ch + ".north");
    trc.dimm.resize(cfg.nDimms);
    trc.bank.resize(cfg.nDimms * cfg.banksPerDimm);
    for (unsigned d = 0; d < cfg.nDimms; ++d) {
        const std::string dn = ch + ".dimm" + std::to_string(d);
        trc.dimm[d] = t->track(dn);
        for (unsigned b = 0; b < cfg.banksPerDimm; ++b)
            trc.bank[d * cfg.banksPerDimm + b] =
                t->track(dn + ".bank" + std::to_string(b));
    }
    if (table && cfg.prefetch.atMc()) {
        trc.pf.push_back(t->track(ch + ".pf"));
    } else if (table) {
        for (unsigned d = 0; d < cfg.nDimms; ++d)
            trc.pf.push_back(t->track(ch + ".dimm" + std::to_string(d)
                                      + ".pf"));
    }
}

void
MemController::enableAttribution(AttributionHub *hub)
{
    attHub = hub;
    att = hub ? std::make_unique<ChannelAttribution>() : nullptr;
}

void
MemController::serviceRefresh(Tick now)
{
    if (!cfg.refreshEnable)
        return;
    for (unsigned d = 0; d < cfg.nDimms; ++d) {
        if (now < nextRefreshAt[d])
            continue;
        if (dimms[d].anyRowOpen()) {
            // Block further activates until the rows drain.  Under
            // close page every open row belongs to a transaction
            // whose column access auto-precharges it; under open page
            // idle rows are closed here (precharge-all), and
            // transactions re-derive their phase afterwards.
            refreshPending[d] = true;
            if (cfg.openPage) {
                for (unsigned b = 0; b < cfg.banksPerDimm; ++b) {
                    Bank &bank = dimms[d].bank(b);
                    if (bank.rowOpen()
                        && bank.preAllowedAt() <= now + cfg.cmdDelay)
                        dimms[d].precharge(b, now + cfg.cmdDelay);
                }
            }
            if (dimms[d].anyRowOpen())
                continue;
        }
        // Catch up intervals that elapsed while the channel was idle:
        // they still consumed refresh energy, but one blocking window
        // covers them all.
        dimms[d].refresh(now + cfg.cmdDelay);
        nextRefreshAt[d] += cfg.timing.tREFI;
        while (nextRefreshAt[d] <= now) {
            dimms[d].refresh(now + cfg.cmdDelay);
            nextRefreshAt[d] += cfg.timing.tREFI;
        }
        refreshPending[d] = false;
        if (trc.tr) {
            trc.tr->begin(trc.dimm[d], "refresh", now + cfg.cmdDelay);
            trc.tr->end(trc.dimm[d], "refresh",
                        now + cfg.cmdDelay + cfg.timing.tRFC);
        }
    }
}

Tick
MemController::reserveNorthbound(Tick earliest, unsigned d)
{
    if (lastNbDimm >= 0 && static_cast<unsigned>(lastNbDimm) != d
        && !cfg.vrl && northbound.nextFree(earliest) > earliest) {
        // Fixed-latency mode: when transfers pack back to back and
        // the data source changes, the chain resynchronises, costing
        // one frame of bubble.  An idle link pays nothing.
        earliest += cfg.timing.memCycle;
    }
    lastNbDimm = static_cast<int>(d);
    const Tick start = northbound.reserve(earliest, cfg.timing.burst);
    if (trc.tr) {
        trc.tr->begin(trc.north, "data", start);
        trc.tr->end(trc.north, "data", start + cfg.timing.burst);
    }
    return start;
}

Tick
MemController::chainDelay(unsigned d) const
{
    if (!cfg.fbd)
        return 0;
    unsigned hops = cfg.vrl ? d + 1 : cfg.nDimms;
    return static_cast<Tick>(hops) * cfg.ambHop;
}

void
MemController::push(TransPtr t)
{
    const Tick now = eq->now();
    t->arrivedAtMc = now;
    t->earliestIssue = now + cfg.ctrlOverhead;
    t->retryAt = t->earliestIssue;
    t->mcSeq = nextMcSeq++;

    if (t->isRead()) {
        ++nReads;
    } else {
        ++nWrites;
    }

    t->phase = TransPhase::NeedActivate;
    if (table) {
        const unsigned b = bufSlot(t.get());
        if (t->isRead()) {
            table->countRead();
            if (table->peek(b, t->lineAddr)) {
                t->phase = TransPhase::PrefetchHit;
                pol->onHit(policyAccess(t.get(), now));
            } else {
                // Ask the policy what should ride this fetch; the
                // accepted candidates become visible in the tag
                // mirror immediately so later reads to the same
                // lines coalesce onto this fetch.
                emitCandidates(t.get(), /*convert=*/false);
            }
        } else {
            // Writes invalidate any stale prefetched copy.
            bool was_used = false;
            if (table->invalidate(b, t->lineAddr, &was_used)) {
                pol->onEvict(b, t->lineAddr, was_used);
                if (trc.tr && trc.tr->want(trace::Kind::Write)) {
                    trc.tr->instant(trc.pf[b], "inval", now,
                                    trace::Kind::Write, t->coreId,
                                    t->lineAddr);
                }
            }
        }
    }

    if (trc.tr)
        traceTxn("enqueue", now, t.get());

    overflow.push_back(std::move(t));
    if (!wakeEvent.scheduled()) {
        Tick cycle = cfg.timing.memCycle;
        Tick next = ((now + cycle - 1) / cycle) * cycle;
        scheduleWake(next);
    }
}

void
MemController::scheduleWake(Tick at)
{
    eq->schedule(&wakeEvent, std::max(at, eq->now()));
}

void
MemController::refillWindow()
{
    while (!overflow.empty() && window.size() < cfg.queueSize) {
        Transaction *t = overflow.front().get();
        if (!t->isRead())
            ++windowWrites;
        const size_t i = window.size();
        slotReady[i] = t->retryAt;
        slotKey[i] = classKey(t);
        window.push_back(std::move(overflow.front()));
        overflow.pop_front();
    }
}

std::uint8_t
MemController::classKey(const Transaction *t)
{
    std::uint8_t k;
    switch (t->phase) {
      case TransPhase::PrefetchHit:
        k = 0;
        break;
      case TransPhase::NeedCas:
        k = 1;  // row already open: finish it (hit-first)
        break;
      case TransPhase::NeedPrecharge:
      case TransPhase::NeedActivate:
        k = 2;
        break;
      default:
        return keyIdle;
    }
    return t->isRead() ? k : static_cast<std::uint8_t>(k + 3);
}

void
MemController::wake()
{
    const Tick now = eq->now();
    cmdLink.retireBefore(now);
    serviceRefresh(now);
    refillWindow();

    // Write-drain hysteresis (windowWrites is maintained on window
    // entry/exit instead of recounted every cycle).
    if (!draining && windowWrites >= cfg.writeDrainHigh)
        draining = true;
    if (draining && windowWrites <= cfg.writeDrainLow)
        draining = false;

    issueCycle(now);

    if (!window.empty() || !overflow.empty())
        scheduleWake(now + cfg.timing.memCycle);
}

void
MemController::issueCycle(Tick now)
{
    // Group candidates by priority class: hit-first (AMB hits, then
    // open-row hits, then in-progress CAS, then the rest FCFS); reads
    // before writes unless draining.  One bit mask per class key over
    // window positions; the window is in mcSeq order, so visiting set
    // bits lowest first walks the candidates in (bucket, mcSeq) order.
    // The masks are a snapshot: a slot whose class changes this cycle
    // is not visited again.
    const unsigned n = static_cast<unsigned>(window.size());
    std::uint64_t by_key[keyIdle + 1] = {};
    for (unsigned i = 0; i < n; ++i) {
        by_key[slotKey[i]] |=
            static_cast<std::uint64_t>(slotReady[i] <= now) << i;
    }

    if (!(by_key[0] | by_key[1] | by_key[2] | by_key[3] | by_key[4]
          | by_key[5]))
        return;

    // Deprioritised class: reads while draining, writes otherwise.
    // A refused try leaves the link untouched, so only an issue can
    // change the free-slot count.
    const unsigned first = draining ? 3 : 0;
    unsigned slots = cmdLink.cmdSlotsFree(now);
    for (unsigned b = 0; b < 6 && slots; ++b) {
        for (std::uint64_t m = by_key[(first + b) % 6]; m && slots;
             m &= m - 1) {
            if (tryIssue(static_cast<unsigned>(std::countr_zero(m)), now))
                slots = cmdLink.cmdSlotsFree(now);
        }
    }

    if (windowHoles) {
        // Order-preserving compaction of the slots finish() emptied.
        unsigned j = 0;
        for (unsigned i = 0; i < n; ++i) {
            if (!window[i])
                continue;
            if (i != j) {
                window[j] = std::move(window[i]);
                slotReady[j] = slotReady[i];
                slotKey[j] = slotKey[i];
            }
            ++j;
        }
        window.resize(j);
        windowHoles = false;
    }
}

bool
MemController::tryIssue(unsigned slot, Tick now)
{
    Transaction *t = window[slot].get();
    if (cfg.openPage && t->phase != TransPhase::PrefetchHit)
        recomputeOpenPagePhase(t);

    bool issued;
    switch (t->phase) {
      case TransPhase::PrefetchHit:
        issued = issuePrefetchHit(slot, now);
        break;
      case TransPhase::NeedPrecharge:
        issued = issuePrecharge(t, now);
        break;
      case TransPhase::NeedActivate:
        issued = issueActivate(t, now);
        break;
      case TransPhase::NeedCas:
        issued = t->isRead() ? issueRead(slot, now)
                             : issueWrite(slot, now);
        break;
      default:
        issued = false;
        break;
    }

    if (window[slot]) {
        slotKey[slot] = classKey(t);
        slotReady[slot] = t->retryAt;
    } else {
        slotKey[slot] = keyIdle;
    }
    return issued;
}

void
MemController::recomputeOpenPagePhase(Transaction *t)
{
    const Bank &b = dimms[t->coord.dimm].bank(t->coord.bank);
    if (b.rowOpen()) {
        t->phase = (b.openRow() == t->coord.row)
            ? TransPhase::NeedCas
            : TransPhase::NeedPrecharge;
    } else {
        t->phase = TransPhase::NeedActivate;
    }
}

PrefetchAccess
MemController::policyAccess(const Transaction *t, Tick now) const
{
    PrefetchAccess a;
    a.lineAddr = t->lineAddr;
    a.regionBase = t->coord.regionBase;
    a.regionLines = cfg.regionLines;
    a.dimm = t->coord.dimm;
    a.coreId = t->coreId;
    a.swPrefetch = t->swPrefetch;
    a.now = now;
    a.linkUtil = now
        ? static_cast<double>(northBusyTicks())
            / static_cast<double>(now)
        : 0.0;
    return a;
}

void
MemController::emitCandidates(Transaction *t, bool convert)
{
    const unsigned b = bufSlot(t);
    t->nPfLines = 0;
    t->groupLines = 1;
    if (!pol)
        return;

    const PrefetchAccess acc = policyAccess(t, eq->now());
    CandidateList cands(pol->degree());
    if (convert)
        pol->onConvert(acc, cands);
    else
        pol->onMiss(acc, cands);

    unsigned dropped = cands.dropped();

    const double throttle = pol->params().throttle;
    if (throttle > 0.0 && acc.linkUtil > throttle) {
        // The return link is past its configured ceiling: demand
        // traffic needs every frame, so every candidate is shed.
        table->countDropped(dropped + cands.size());
        return;
    }

    const Addr region_end = t->coord.regionBase
        + static_cast<Addr>(cfg.regionLines) * lineBytes;
    for (unsigned i = 0; i < cands.size(); ++i) {
        const Addr la = cands[i];
        // A candidate rides the demand's activation, so it must be an
        // in-region line other than the demanded one, once.
        bool ok = la != t->lineAddr && la >= t->coord.regionBase
            && la < region_end && (la % lineBytes) == 0;
        for (unsigned j = 0; ok && j < t->nPfLines; ++j)
            if (t->pfLines[j] == la)
                ok = false;
        if (!ok || t->nPfLines >= Transaction::maxPrefetchLines) {
            ++dropped;
            continue;
        }
        AmbCache::Evicted ev;
        table->insertCandidate(b, la, &ev);
        if (ev.valid)
            pol->onEvict(b, ev.lineAddr, ev.used);
        t->pfLines[t->nPfLines++] = la;
    }
    if (dropped)
        table->countDropped(dropped);
    t->groupLines = 1 + t->nPfLines;
}

void
MemController::convertHitToMiss(Transaction *t)
{
    ++nHitConversions;
    if (trc.tr && trc.tr->want(trace::Kind::Prefetch)) {
        // The prefetched line was evicted before its demand arrived.
        trc.tr->instant(trc.pf[bufSlot(t)], "kill", eq->now(),
                        trace::Kind::Prefetch, t->coreId, t->lineAddr);
    }
    t->phase = TransPhase::NeedActivate;
    emitCandidates(t, /*convert=*/true);
}

bool
MemController::issuePrefetchHit(unsigned slot, Tick now)
{
    Transaction *t = window[slot].get();
    const unsigned d = t->coord.dimm;
    const unsigned b = bufSlot(t);
    AmbCache::Line *line = table->peek(b, t->lineAddr);
    if (!line) {
        // The prefetched copy was evicted before we fetched it.
        convertHitToMiss(t);
        return false;
    }
    if (line->readyAt == AmbCache::fillPending) {
        // The producing region fetch has not issued its CAS yet.
        return false;
    }

    // Behind the AMB: one command to the AMB, then a northbound
    // frame and the chain.  At the controller the data is already
    // there: no command and no link, so the whole service interval
    // is the buffer wait, bounded by [now, ready].
    Tick arrive = now;
    Tick data_at, ready;
    if (cfg.prefetch.atMc()) {
        ready = data_at = std::max(now, line->readyAt);
    } else {
        cmdLink.useCmdSlot(now);
        arrive = now + cfg.cmdDelay;
        Tick nb_earliest = std::max(arrive, line->readyAt);
        if (cfg.apFullLatency) {
            // APFL (Fig. 9): same idle latency as a DRAM access, but
            // no bank activity.
            nb_earliest = std::max(
                arrive + cfg.timing.tRCD + cfg.timing.tCL, line->readyAt);
        }
        data_at = reserveNorthbound(nb_earliest, d);
        ready = data_at + cfg.timing.burst + chainDelay(d);
    }
    if (att) {
        if (!t->stampIssue)
            t->stampIssue = now;
        t->stampCas = now;
        t->stampArrive = arrive;
        t->stampData = data_at;
    }

    // Timeliness: the prefetch covered this read, but its fill had
    // not reached the buffer when the demand arrived.
    const bool late = line->readyAt > arrive;
    if (late)
        table->countLateHit();
    table->countHit();
    line->used = true;
    t->bufServed = true;
    t->phase = TransPhase::WaitData;
    if (trc.tr) {
        if (trc.tr->want(trace::Kind::Prefetch)) {
            trc.tr->instant(trc.pf[b], late ? "late_hit" : "hit",
                            arrive, trace::Kind::Prefetch, t->coreId,
                            t->lineAddr);
        }
        if (!cfg.prefetch.atMc())
            trc.tr->instant(trc.south, "amb_rd", now);
        traceTxn(cfg.prefetch.atMc() ? "mc_hit" : "amb_hit", arrive, t);
    }
    finish(slot, ready);
    return true;
}

bool
MemController::issuePrecharge(Transaction *t, Tick now)
{
    const Tick arrive = now + cfg.cmdDelay;
    Dimm &dimm = dimms[t->coord.dimm];
    if (dimm.earliestPrecharge(t->coord.bank, arrive) > arrive)
        return false;
    cmdLink.useCmdSlot(now);
    if (att && !t->stampIssue)
        t->stampIssue = now;
    dimm.precharge(t->coord.bank, arrive);
    if (trc.tr) {
        trc.tr->instant(trc.south, "pre", now);
        // The row-cycle duration on the bank track ends when the bank
        // can accept the next ACT.
        trc.tr->end(trc.bank[t->coord.dimm * cfg.banksPerDimm
                             + t->coord.bank],
                    "row", dimm.bank(t->coord.bank).actAllowedAt());
    }
    t->phase = TransPhase::NeedActivate;
    return true;
}

bool
MemController::issueActivate(Transaction *t, Tick now)
{
    const Tick arrive = now + cfg.cmdDelay;
    Dimm &dimm = dimms[t->coord.dimm];
    // An overdue refresh owns the DIMM before any new activation.
    if (cfg.refreshEnable && refreshPending[t->coord.dimm])
        return false;
    // Another transaction may have activated this bank and not yet
    // issued its column access; its row still owns the bank (the
    // auto-precharge is bound to the CAS).  Wait for it: the bank
    // precharges only after that CAS, which cannot arrive before the
    // bank's casAllowedAt.
    const Bank &bank = dimm.bank(t->coord.bank);
    if (bank.rowOpen()) {
        retryNotBefore(t, std::max(arrive, bank.casAllowedAt()));
        return false;
    }
    const Tick act_at = dimm.earliestAct(t->coord.bank, arrive);
    if (act_at > arrive) {
        retryNotBefore(t, act_at);
        return false;
    }
    cmdLink.useCmdSlot(now);
    if (att && !t->stampIssue)
        t->stampIssue = now;
    dimm.activate(t->coord.bank, arrive, t->coord.row);
    if (trc.tr) {
        trc.tr->instant(trc.south, "act", now);
        trc.tr->begin(trc.bank[t->coord.dimm * cfg.banksPerDimm
                               + t->coord.bank],
                      "row", arrive);
        traceTxn("act", arrive, t);
    }
    t->phase = TransPhase::NeedCas;
    return true;
}

bool
MemController::issueRead(unsigned slot, Tick now)
{
    Transaction *t = window[slot].get();
    const Tick arrive = now + cfg.cmdDelay;
    const unsigned d = t->coord.dimm;
    Dimm &dimm = dimms[d];
    const Tick rd_at = dimm.earliestRead(t->coord.bank, arrive);
    if (rd_at > arrive) {
        retryNotBefore(t, rd_at);
        return false;
    }
    if (!cfg.fbd && arrive < sharedWrDataEnd + cfg.timing.memCycle) {
        // Conventional DDR2: one data bus for reads and writes, so a
        // bus-turnaround bubble separates a write burst from the next
        // read channel-wide.  (The full tWTR applies per DIMM; the
        // FB-DIMM northbound link never pays either.)
        retryNotBefore(t, sharedWrDataEnd + cfg.timing.memCycle);
        return false;
    }

    const unsigned n = t->groupLines;
    // Open-page rows close early when a refresh is waiting.
    const bool auto_pre = !cfg.openPage
        || (cfg.refreshEnable && refreshPending[d]);
    const DramTiming &tm = cfg.timing;

    cmdLink.useCmdSlot(now);
    if (att) {
        if (!t->stampIssue)
            t->stampIssue = now;
        t->stampCas = now;
        t->stampArrive = arrive;
    }
    dimm.read(t->coord.bank, arrive, n, auto_pre);

    if (trc.tr) {
        trc.tr->instant(trc.south, "rd", now);
        const std::uint32_t bank_trk =
            trc.bank[d * cfg.banksPerDimm + t->coord.bank];
        trc.tr->instant(bank_trk, "rd_cas", arrive);
        if (auto_pre) {
            trc.tr->end(bank_trk, "row",
                        dimm.bank(t->coord.bank).actAllowedAt());
        }
        traceTxn("cas", arrive, t);
    }

    BusTracker &data_bus = cfg.fbd ? dimmBus[d] : sharedBus;

    // Column accesses in demanded-line-first, wrap-around order: the
    // accepted candidates (stored in buffer-insertion order) are
    // sorted by forward region distance from the demanded line, so
    // the pipelined CAS stream walks the region critical-word-first
    // exactly as the hardware group fetch does.
    const unsigned k = cfg.regionLines ? cfg.regionLines : 1;
    const unsigned demand_off = static_cast<unsigned>(
        (t->lineAddr - t->coord.regionBase) / lineBytes);
    const unsigned npf = t->nPfLines;
    unsigned order[Transaction::maxPrefetchLines];
    for (unsigned i = 0; i < npf; ++i)
        order[i] = i;
    auto wrap_dist = [&](unsigned idx) -> unsigned {
        const unsigned off = static_cast<unsigned>(
            (t->pfLines[idx] - t->coord.regionBase) / lineBytes);
        return (off + k - demand_off) % k;
    };
    // Stable insertion sort: npf <= 15, nearly sorted in practice.
    for (unsigned i = 1; i < npf; ++i) {
        const unsigned v = order[i];
        const unsigned dv = wrap_dist(v);
        unsigned j = i;
        while (j > 0 && wrap_dist(order[j - 1]) > dv) {
            order[j] = order[j - 1];
            --j;
        }
        order[j] = v;
    }

    for (unsigned i = 0; i < n; ++i) {
        const Tick cas = arrive + static_cast<Tick>(i) * tm.casGap();
        const Tick d_start = data_bus.reserve(cas + tm.tCL, tm.burst);
        if (i == 0) {
            // The demanded line: forwarded straight to the channel.
            if (att)
                t->stampData = d_start;
            const Tick nb_start = cfg.fbd
                ? reserveNorthbound(d_start, d)
                : d_start;
            const Tick ready = nb_start + tm.burst + chainDelay(d);
            t->phase = TransPhase::WaitData;
            finish(slot, ready);
        } else {
            const Addr la = t->pfLines[order[i - 1]];
            // Behind the AMB the fills never touch the channel; into
            // the buffer at the controller they must cross it,
            // consuming the bandwidth AMB prefetching preserves.
            Tick ready = d_start + tm.burst;
            if (cfg.prefetch.atMc()) {
                if (cfg.fbd) {
                    ready = reserveNorthbound(d_start, d) + tm.burst
                        + chainDelay(d);
                }
                nChannelBytes += lineBytes;
            }
            const unsigned b = bufSlot(t);
            table->resolveFill(b, la, ready);
            pol->onFill(b, la, ready);
            if (trc.tr && trc.tr->want(trace::Kind::Prefetch)) {
                trc.tr->instant(trc.pf[b], "fill", ready,
                                trace::Kind::Prefetch, t->coreId, la);
            }
        }
    }
    return true;
}

bool
MemController::issueWrite(unsigned slot, Tick now)
{
    Transaction *t = window[slot].get();
    const Tick arrive = now + cfg.cmdDelay;
    const unsigned d = t->coord.dimm;
    Dimm &dimm = dimms[d];
    const Tick wr_at = dimm.earliestWrite(t->coord.bank, arrive);
    if (wr_at > arrive) {
        retryNotBefore(t, wr_at);
        return false;
    }

    const DramTiming &tm = cfg.timing;
    const bool auto_pre = !cfg.openPage
        || (cfg.refreshEnable && refreshPending[d]);

    cmdLink.useCmdSlot(now);

    Tick wr_cas = arrive;
    if (cfg.fbd) {
        // The 64-byte payload needs four southbound data frames
        // (ganged pair: 16 bytes per frame); the DRAM write burst may
        // start only once the data has reached the AMB.
        const unsigned n_frames = 4;
        const Tick f_start = cmdLink.reserveDataFrames(now, n_frames);
        const Tick data_at_amb = f_start
            + static_cast<Tick>(n_frames) * tm.memCycle + cfg.cmdDelay;
        if (data_at_amb > tm.tWL)
            wr_cas = std::max(arrive, data_at_amb - tm.tWL);
        if (trc.tr) {
            trc.tr->begin(trc.south, "wdata", f_start);
            trc.tr->end(trc.south, "wdata",
                        f_start
                        + static_cast<Tick>(n_frames) * tm.memCycle);
        }
    }

    const Tick end = dimm.write(t->coord.bank, wr_cas, auto_pre);
    if (att) {
        // South covers the write-data frames (now -> wr_cas arrival);
        // Bank covers the DRAM write burst; nothing returns north.
        if (!t->stampIssue)
            t->stampIssue = now;
        t->stampCas = now;
        t->stampArrive = wr_cas;
        t->stampData = end;
    }
    if (trc.tr) {
        trc.tr->instant(trc.south, "wr", now);
        const std::uint32_t bank_trk =
            trc.bank[d * cfg.banksPerDimm + t->coord.bank];
        trc.tr->instant(bank_trk, "wr_cas", wr_cas);
        if (auto_pre) {
            trc.tr->end(bank_trk, "row",
                        dimm.bank(t->coord.bank).actAllowedAt());
        }
        traceTxn("cas", wr_cas, t);
    }
    BusTracker &data_bus = cfg.fbd ? dimmBus[d] : sharedBus;
    data_bus.reserve(wr_cas + tm.tWL, tm.burst);
    if (!cfg.fbd)
        sharedWrDataEnd = std::max(sharedWrDataEnd, end);

    t->phase = TransPhase::WaitData;
    finish(slot, end);
    return true;
}

void
MemController::finish(unsigned slot, Tick ready)
{
    Transaction *t = window[slot].get();
    t->completedAt = ready;
    nChannelBytes += lineBytes;
    if (trc.tr)
        traceTxn("complete", ready, t);

    // Move ownership from the window into the completion heap.  The
    // slot stays in place, empty, so the positions of this cycle's
    // candidate masks stay valid; issueCycle closes the gap once the
    // cycle is over, keeping the window in mcSeq order.
    if (!t->isRead())
        --windowWrites;
    completions.push_back(
        Completion{ready, nextCompletionSeq++, std::move(window[slot])});
    std::push_heap(completions.begin(), completions.end(),
                   CompletionAfter{});
    windowHoles = true;

    if (!completionEvent.scheduled()
        || completionEvent.when() > completions.front().ready) {
        eq->schedule(&completionEvent, completions.front().ready);
    }
}

bool
MemController::popCompletionDue(Tick now, TransPtr &out)
{
    if (completions.empty() || completions.front().ready > now)
        return false;
    std::pop_heap(completions.begin(), completions.end(),
                  CompletionAfter{});
    out = std::move(completions.back().t);
    completions.pop_back();
    return true;
}

void
MemController::completionFire()
{
    const Tick now = eq->now();
    TransPtr t;
    while (popCompletionDue(now, t)) {
        const double lat_ns =
            ticksToNs(t->completedAt - t->arrivedAtMc);
        if (t->isRead()) {
            ++nReadsDone;
            readLatTotal +=
                static_cast<double>(t->completedAt - t->arrivedAtMc);
            latHist.sample(lat_ns);
            (t->bufServed ? latHistPrefHit : latHistDemand)
                .sample(lat_ns);
        } else {
            latHistWrite.sample(lat_ns);
        }
        if (att) {
            // Publish the phase profile for the duration of the
            // completion callback so a core whose stall ends inside it
            // can attribute the stalled cycles to these phases.
            const PhaseDurations pd = att->record(*t);
            if (attHub)
                attHub->publish(pd);
        }
        if (t->onComplete)
            t->onComplete(t->completedAt);
        if (attHub)
            attHub->clear();
        t.reset();
    }
    if (!completions.empty())
        eq->schedule(&completionEvent, completions.front().ready);
}

double
MemController::avgReadLatencyNs() const
{
    if (!nReadsDone)
        return 0.0;
    return ticksToNs(static_cast<Tick>(
        readLatTotal / static_cast<double>(nReadsDone)));
}

double
MemController::readLatencyPercentileNs(double p) const
{
    const std::uint64_t total = latHist.samples();
    if (total == 0)
        return 0.0;
    const auto target = static_cast<std::uint64_t>(
        p * static_cast<double>(total));
    std::uint64_t seen = latHist.underflows();
    const double width = 1000.0 / latHist.numBuckets();
    for (unsigned i = 0; i < latHist.numBuckets(); ++i) {
        seen += latHist.bucket(i);
        if (seen >= target)
            return width * (i + 1);
    }
    return 1000.0;  // in the overflow tail
}

DramOpCounts
MemController::dramOps() const
{
    DramOpCounts total;
    for (const auto &d : dimms)
        total += d.counts();
    return total;
}

void
MemController::resetStats()
{
    nReads = 0;
    nWrites = 0;
    nReadsDone = 0;
    nChannelBytes = 0;
    nHitConversions = 0;
    readLatTotal = 0.0;
    latHist.reset();
    latHistDemand.reset();
    latHistPrefHit.reset();
    latHistWrite.reset();
    for (auto &d : dimms)
        d.resetCounts();
    if (table)
        table->resetStats();
    if (att)
        att->reset();
}

} // namespace fbdp
