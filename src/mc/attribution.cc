#include "mc/attribution.hh"

#include <algorithm>

#include "mc/transaction.hh"

namespace fbdp {

const char *
latPhaseName(LatPhase p)
{
    switch (p) {
      case LatPhase::Queue:    return "queue";
      case LatPhase::Sched:    return "sched";
      case LatPhase::BankPrep: return "bank_prep";
      case LatPhase::South:    return "south";
      case LatPhase::Amb:      return "amb";
      case LatPhase::Bank:     return "bank";
      case LatPhase::North:    return "north";
    }
    return "?";
}

const char *
latClassName(LatClass c)
{
    switch (c) {
      case LatClass::DemandRead: return "demand";
      case LatClass::PrefHit:    return "pref_hit";
      case LatClass::SwPrefetch: return "sw_prefetch";
      case LatClass::Write:      return "write";
    }
    return "?";
}

const char *
stallReasonName(unsigned reason)
{
    switch (reason) {
      case 0: return "rob";
      case 1: return "lq";
      case 2: return "sq";
      case 3: return "mshr";
    }
    return "?";
}

LatClass
latClassOf(const Transaction &t)
{
    if (!t.isRead())
        return LatClass::Write;
    if (t.bufServed)
        return LatClass::PrefHit;
    if (t.swPrefetch)
        return LatClass::SwPrefetch;
    return LatClass::DemandRead;
}

PhaseDurations
computePhaseDurations(const Transaction &t)
{
    PhaseDurations d;
    d.cls = latClassOf(t);

    // Boundary sequence of the transaction's life at the controller.
    // A stamp of 0 means "phase never happened" (e.g. an AMB hit has
    // no BankPrep); clamping each boundary to at least its predecessor
    // gives that phase a zero-width interval while keeping the
    // telescoping-sum identity intact.
    Tick b[numLatPhases + 1] = {
        t.arrivedAtMc,   // -> Queue
        t.earliestIssue, // -> Sched
        t.stampIssue,    // -> BankPrep
        t.stampCas,      // -> South
        t.stampArrive,   // -> Amb / Bank
        t.stampData,     // -> North
        t.completedAt,
    };
    for (unsigned i = 1; i <= numLatPhases; ++i)
        b[i] = std::max(b[i], b[i - 1]);

    d.phase[0] = b[1] - b[0];                     // Queue
    d.phase[1] = b[2] - b[1];                     // Sched
    d.phase[2] = b[3] - b[2];                     // BankPrep
    d.phase[3] = b[4] - b[3];                     // South
    // The [arrive, data] interval is AMB service for buffer hits and
    // DRAM bank service otherwise; the two phases are exclusive.
    const Tick service = b[5] - b[4];
    if (t.bufServed) {
        d.phase[4] = service;                     // Amb
    } else {
        d.phase[5] = service;                     // Bank
    }
    d.phase[6] = b[6] - b[5];                     // North
    d.total = b[6] - b[0];
    return d;
}

ChannelAttribution::ChannelAttribution()
{
    // Same geometry as the controller's read-latency histograms so
    // the breakdown percentiles compose with latencyPercentiles().
    for (unsigned c = 0; c < numLatClasses; ++c) {
        auto &cl = classes[c];
        cl.hist.reserve(numLatPhases);
        for (unsigned p = 0; p < numLatPhases; ++p) {
            cl.hist.emplace_back(
                std::string(latClassName(static_cast<LatClass>(c))) +
                    "_" + latPhaseName(static_cast<LatPhase>(p)),
                "phase latency (ns)", 0.0, 1000.0, 500);
        }
    }
}

PhaseDurations
ChannelAttribution::record(const Transaction &t)
{
    PhaseDurations d = computePhaseDurations(t);
    auto &cl = classes[static_cast<unsigned>(d.cls)];
    ++cl.samples;
    cl.totalTicks += d.total;
    for (unsigned p = 0; p < numLatPhases; ++p) {
        cl.phaseTicks[p] += d.phase[p];
        cl.hist[p].sample(ticksToNs(d.phase[p]));
    }
    return d;
}

void
ChannelAttribution::reset()
{
    for (auto &cl : classes) {
        cl.samples = 0;
        cl.totalTicks = 0;
        std::fill(std::begin(cl.phaseTicks), std::end(cl.phaseTicks),
                  std::uint64_t{0});
        for (auto &h : cl.hist)
            h.reset();
    }
}

void
CoreStallAttribution::attribute(unsigned reason, Tick dt,
                                const AttributionHub &hub)
{
    if (reason >= numReasons || dt == 0)
        return;

    switch (hub.source()) {
      case AttributionHub::Source::L2Hit:
        l2Wait[reason] += dt;
        return;
      case AttributionHub::Source::None:
        unattributed[reason] += dt;
        return;
      case AttributionHub::Source::Memory:
        break;
    }

    const PhaseDurations &d = hub.lastCompleted();
    if (d.total == 0) {
        unattributed[reason] += dt;
        return;
    }

    // Split dt across the transaction's phases in proportion to their
    // share of its latency.  Integer division leaves a remainder of at
    // most numLatPhases-1 ticks; assign it to the largest phase so the
    // per-reason rows sum to the reason's stall total exactly.
    Tick assigned = 0;
    unsigned largest = 0;
    for (unsigned p = 0; p < numLatPhases; ++p) {
        // Products fit: dt and phase are picoseconds of one run.
        const Tick share =
            static_cast<Tick>(static_cast<__uint128_t>(dt) * d.phase[p] /
                              d.total);
        byPhase[reason][p] += share;
        assigned += share;
        if (d.phase[p] > d.phase[largest])
            largest = p;
    }
    byPhase[reason][largest] += dt - assigned;
}

Tick
CoreStallAttribution::reasonTotal(unsigned reason) const
{
    if (reason >= numReasons)
        return 0;
    Tick sum = l2Wait[reason] + unattributed[reason];
    for (unsigned p = 0; p < numLatPhases; ++p)
        sum += byPhase[reason][p];
    return sum;
}

double
ClassPhaseBreakdown::meanTotalNs() const
{
    if (!samples)
        return 0.0;
    return static_cast<double>(totalTicks)
        / static_cast<double>(samples) / static_cast<double>(ticksPerNs);
}

double
ClassPhaseBreakdown::meanPhaseNs(unsigned p) const
{
    if (!samples || p >= numLatPhases)
        return 0.0;
    return static_cast<double>(phaseTicks[p])
        / static_cast<double>(samples) / static_cast<double>(ticksPerNs);
}

void
ClassPhaseBreakdown::merge(const ClassPhaseBreakdown &o)
{
    samples += o.samples;
    totalTicks += o.totalTicks;
    for (unsigned p = 0; p < numLatPhases; ++p)
        phaseTicks[p] += o.phaseTicks[p];
}

void
ChannelBreakdown::merge(const ChannelBreakdown &o)
{
    for (unsigned c = 0; c < numLatClasses; ++c)
        cls[c].merge(o.cls[c]);
}

Tick
CoreCycleBreakdown::stallTotal() const
{
    Tick sum = 0;
    for (Tick s : stall)
        sum += s;
    return sum;
}

Tick
CoreCycleBreakdown::baseTicks() const
{
    const Tick s = stallTotal();
    return windowTicks > s ? windowTicks - s : 0;
}

} // namespace fbdp
