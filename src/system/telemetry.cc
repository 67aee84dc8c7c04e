#include "system/telemetry.hh"

#include "common/logging.hh"
#include "common/parse.hh"
#include "power/power_model.hh"

namespace fbdp {

TelemetrySampler::TelemetrySampler(System &system, Tick epoch_ticks,
                                   std::ostream &os, Format format)
    : sys(system),
      eq(system.eventQueue()),
      epoch(epoch_ticks),
      out(os),
      fmt(format),
      // Fire after every same-tick completion and CPU advance so a
      // record reflects the boundary's settled state.
      sampleEvent([this] { fire(); }, Event::prioCpu + 5)
{
    fbdp_assert(epoch > 0, "telemetry epoch must be positive");

    const unsigned nCh = sys.numControllers();
    chPrev.resize(nCh);
    chCur.resize(nCh);
    coreScr.resize(sys.config().nCores());

    const double epochD = static_cast<double>(epoch);

    for (unsigned c = 0; c < nCh; ++c) {
        const MemController &mc = sys.controller(c);
        const ControllerConfig &mcc = mc.config();
        const std::string pfx = csprintf("ch%u.", c);
        const ChannelCur *cur = &chCur[c];

        // The southbound link carries three command slots per frame
        // (one command per cycle on the DDR2 command bus); a frame
        // with a write payload carries exactly one command, so the
        // utilisation estimate charges a data frame one full frame
        // and each command a slot's worth.
        const double slots = mcc.fbd ? 3.0 : 1.0;
        const double frame = static_cast<double>(mcc.timing.memCycle);
        const double nBanks =
            static_cast<double>(mcc.nDimms * mcc.banksPerDimm);

        addGauge(pfx + "south_cmds", "commands sent on the south link",
                 [cur] { return cur->southCmds; });
        addGauge(pfx + "south_util",
                 "southbound/command link utilisation (approx)",
                 [cur, slots, frame, epochD] {
                     return (cur->southCmds / slots
                             + cur->southDataFrames) * frame / epochD;
                 });
        addGauge(pfx + "north_util",
                 "northbound/data link busy fraction",
                 [cur, epochD] { return cur->northBusy / epochD; });
        addGauge(pfx + "queue_depth", "requests queued right now",
                 [&mc] {
                     return static_cast<double>(mc.queueDepth());
                 });
        addGauge(pfx + "pf_hit_rate",
                 "fraction of the reads completed this epoch that a "
                 "prefetch buffer served",
                 [cur] {
                     return cur->reads > 0.0 ? cur->hits / cur->reads
                                             : 0.0;
                 });
        addGauge(pfx + "pf_occupancy",
                 "prefetch-buffer fill fraction right now",
                 [&mc] {
                     const PrefetchTable *t = mc.prefetchTable();
                     if (!t || t->capacity() == 0)
                         return 0.0;
                     return static_cast<double>(t->population())
                         / static_cast<double>(t->capacity());
                 });
        addGauge(pfx + "late_pf_hits",
                 "prefetch hits still in flight when demanded",
                 [cur] { return cur->latePf; });
        addGauge(pfx + "bank_busy",
                 "mean bank busy fraction (ACT..PRE closed this epoch)",
                 [cur, nBanks, epochD] {
                     return cur->bankBusy / (nBanks * epochD);
                 });
        addGauge(pfx + "rows_open", "banks holding an open row",
                 [&mc] { return static_cast<double>(mc.rowsOpen()); });
    }

    addGauge("l2.mshr_occupancy", "L2 MSHRs in use right now", [this] {
        return static_cast<double>(sys.hierarchy().l2MshrOccupancy());
    });
    addGauge("prefetch.coverage",
             "cumulative #prefetch_hit / #read, all channels", [this] {
                 std::uint64_t hits = 0, reads = 0;
                 for (unsigned c = 0; c < sys.numControllers(); ++c) {
                     const PrefetchTable *t =
                         sys.controller(c).prefetchTable();
                     if (!t)
                         continue;
                     hits += t->prefetchHits();
                     reads += t->reads();
                 }
                 return reads
                     ? static_cast<double>(hits)
                         / static_cast<double>(reads)
                     : 0.0;
             });
    addGauge("prefetch.issued",
             "prefetch candidate lines fetched this epoch, all "
             "channels",
             [this] { return pfScr.dIssued; });
    addGauge("prefetch.pollution",
             "cumulative unused displaced or invalidated lines / "
             "prefetches issued, all channels", [this] {
                 std::uint64_t bad = 0, issued = 0;
                 for (unsigned c = 0; c < sys.numControllers(); ++c) {
                     const PrefetchTable *t =
                         sys.controller(c).prefetchTable();
                     if (!t)
                         continue;
                     bad += t->evictedUnused()
                         + t->invalidatedUnused();
                     issued += t->prefetchesIssued();
                 }
                 return issued
                     ? static_cast<double>(bad)
                         / static_cast<double>(issued)
                     : 0.0;
             });

    // Section 5.5 power gauges: the PowerModel applied to this
    // epoch's DRAM op deltas, summed over all channels.  Energy is in
    // column-access units (CAU), power in CAU per simulated second.
    const double epochSecs = epochD * 1e-12;
    addGauge("power.ops",
             "DRAM operations this epoch (ACT/PRE + CAS + refresh), "
             "all channels",
             [this] {
                 return pwScr.dActPre + pwScr.dRdCas + pwScr.dWrCas
                     + pwScr.dRefresh;
             });
    addGauge("power.energy",
             "dynamic DRAM energy this epoch, column-access units",
             [this] {
                 return PowerModel{}.actPreToCasRatio() * pwScr.dActPre
                     + pwScr.dRdCas + pwScr.dWrCas;
             });
    addGauge("power.dynamic",
             "dynamic DRAM power this epoch, column-access units per "
             "simulated second",
             [this, epochSecs] {
                 return (PowerModel{}.actPreToCasRatio()
                             * pwScr.dActPre
                         + pwScr.dRdCas + pwScr.dWrCas) / epochSecs;
             });

    for (size_t i = 0; i < coreScr.size(); ++i) {
        const CoreScratch *scr = &coreScr[i];
        const std::string pfx = csprintf("cpu%zu.", i);
        addGauge(pfx + "insts", "instructions retired this epoch",
                 [scr] { return scr->dInsts; });
        // All cores run at the global CPU clock (Table 1), so the
        // epoch's cycle count is epoch / cpuCyclePs.
        addGauge(pfx + "ipc", "IPC over this epoch",
                 [scr, epochD] {
                     return scr->dInsts
                         * static_cast<double>(cpuCyclePs) / epochD;
                 });
    }
}

TelemetrySampler::~TelemetrySampler()
{
    if (sampleEvent.scheduled())
        eq.deschedule(&sampleEvent);
}

void
TelemetrySampler::addGauge(const std::string &gauge_name,
                           const std::string &gauge_desc,
                           std::function<double()> fn)
{
    formulas.push_back(std::make_unique<stats::Formula>(
        gauge_name, gauge_desc, std::move(fn)));
    group.registerStat(formulas.back().get());
}

void
TelemetrySampler::setManifest(const RunManifest &m)
{
    manifest = m;
}

void
TelemetrySampler::start()
{
    if (manifest) {
        if (fmt == Format::Csv)
            out << manifest->csvComment();
        else
            out << "{\"manifest\": " << manifest->json() << "}\n";
        manifest.reset();
    }
    // The header goes out now, so a run shorter than one epoch still
    // leaves a CSV that names its columns.
    if (fmt == Format::Csv) {
        out << "epoch,t_ns";
        for (const stats::Stat *s : group.all())
            out << ',' << s->name();
        out << '\n';
    }
    nextAt = (eq.now() / epoch + 1) * epoch;
    eq.schedule(&sampleEvent, nextAt);
}

void
TelemetrySampler::fire()
{
    takeSample(nextAt);
    nextAt += epoch;
    eq.schedule(&sampleEvent, nextAt);
}

void
TelemetrySampler::finish()
{
    if (sampleEvent.scheduled())
        eq.deschedule(&sampleEvent);
    // The run can stop between a boundary and its event dispatch (the
    // event loop exits the moment the instruction target is hit);
    // catch up so records() == floor(simTime / epoch) always holds.
    while (nextAt != 0 && nextAt <= eq.now()) {
        takeSample(nextAt);
        nextAt += epoch;
    }
    nextAt = 0;
}

namespace {

/**
 * Delta of a cumulative counter that may have been zeroed by a
 * mid-run resetStats(): a reading below the baseline restarts the
 * accumulation from zero instead of going negative.
 */
template <typename T>
double
guardedDelta(T cur, T &prev)
{
    const double d = cur >= prev
        ? static_cast<double>(cur - prev)
        : static_cast<double>(cur);
    prev = cur;
    return d;
}

} // namespace

void
TelemetrySampler::takeSample(Tick at)
{
    for (unsigned c = 0; c < sys.numControllers(); ++c) {
        const MemController &mc = sys.controller(c);
        ChannelPrev &p = chPrev[c];
        ChannelCur &cur = chCur[c];
        cur.southCmds = guardedDelta(mc.southCommands(), p.southCmds);
        cur.southDataFrames =
            guardedDelta(mc.southDataFrames(), p.southDataFrames);
        cur.northBusy = guardedDelta(mc.northBusyTicks(), p.northBusy);
        cur.bankBusy = guardedDelta(mc.bankBusyTicks(), p.bankBusy);
        // Hits and reads from one population, the reads completed
        // this epoch, and as two non-negative deltas, so the hit
        // rate stays within [0, 1] across the mid-run reset too.
        const std::uint64_t done = mc.readLatSamples();
        const std::uint64_t hitsDone = mc.prefHitLatencyHist().samples();
        cur.hits = guardedDelta(hitsDone, p.hits);
        cur.reads =
            cur.hits + guardedDelta(done - hitsDone, p.otherReads);
        const PrefetchTable *t = mc.prefetchTable();
        cur.latePf = guardedDelta(t ? t->lateHits() : 0, p.latePf);
    }
    for (size_t i = 0; i < coreScr.size(); ++i)
        coreScr[i].dInsts =
            guardedDelta(sys.core(static_cast<unsigned>(i)).insts(),
                         coreScr[i].prevInsts);
    {
        std::uint64_t issued = 0;
        for (unsigned c = 0; c < sys.numControllers(); ++c) {
            if (const PrefetchTable *t = sys.controller(c).prefetchTable())
                issued += t->prefetchesIssued();
        }
        pfScr.dIssued = guardedDelta(issued, pfScr.prevIssued);
    }
    {
        DramOpCounts ops;
        for (unsigned c = 0; c < sys.numControllers(); ++c)
            ops += sys.controller(c).dramOps();
        pwScr.dActPre = guardedDelta(ops.actPre, pwScr.prevActPre);
        pwScr.dRdCas = guardedDelta(ops.rdCas, pwScr.prevRdCas);
        pwScr.dWrCas = guardedDelta(ops.wrCas, pwScr.prevWrCas);
        pwScr.dRefresh = guardedDelta(ops.refresh, pwScr.prevRefresh);
    }
    const double tNs =
        static_cast<double>(at) / static_cast<double>(ticksPerNs);

    if (fmt == Format::Csv) {
        out << nRecords + 1 << ',' << csprintf("%.9g", tNs);
        for (const stats::Stat *s : group.all()) {
            const auto *f = static_cast<const stats::Formula *>(s);
            out << ',' << csprintf("%.9g", f->value());
        }
        out << '\n';
    } else {
        out << csprintf("{\"epoch\": %llu, \"t_ns\": %.9g",
                        static_cast<unsigned long long>(nRecords + 1),
                        tNs);
        for (const stats::Stat *s : group.all()) {
            const auto *f = static_cast<const stats::Formula *>(s);
            out << csprintf(", \"%s\": %.9g", s->name().c_str(),
                            f->value());
        }
        out << "}\n";
    }
    ++nRecords;
}

std::optional<double>
TelemetrySampler::gauge(const std::string &name) const
{
    const stats::Stat *s = group.find(name);
    if (!s)
        return std::nullopt;
    // The group holds nothing but Formulas (see addGauge).
    return static_cast<const stats::Formula *>(s)->value();
}

bool
TelemetrySampler::hasGauge(const std::string &name) const
{
    return group.find(name) != nullptr;
}

Tick
TelemetrySampler::parseTimeSpec(const std::string &spec)
{
    // A million simulated seconds: far longer than any run, and small
    // enough that nsToTicks() cannot overflow a Tick.
    constexpr double maxNs = 1e15;
    const char *str = spec.c_str();
    const std::size_t n = spec.size();
    const std::string unit = spec.substr(n < 2 ? 0 : n - 2);
    double nsPerUnit = 0.0;
    if (unit == "ns")
        nsPerUnit = 1.0;
    else if (unit == "us")
        nsPerUnit = 1e3;
    else if (unit == "ms")
        nsPerUnit = 1e6;
    else
        fatal("bad time spec '%s': unit must be ns, us or ms", str);
    const auto v = parseDecimal(spec.substr(0, n - 2).c_str(), 0.0,
                                maxNs / nsPerUnit);
    if (!v)
        fatal("bad time spec '%s': expected a positive decimal "
              "<number><ns|us|ms> of at most %.0f ns", str, maxNs);
    if (*v <= 0.0)
        fatal("bad time spec '%s': duration must be positive", str);
    const Tick t = nsToTicks(*v * nsPerUnit);
    if (t == 0)
        fatal("bad time spec '%s': rounds to zero ticks", str);
    return t;
}

} // namespace fbdp
