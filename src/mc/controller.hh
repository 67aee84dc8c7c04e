/**
 * @file
 * The memory controller of one logic channel.
 *
 * One controller instance drives either
 *  - a conventional DDR2 channel (shared command bus, one command per
 *    memory cycle, shared data bus), or
 *  - an FB-DIMM channel (southbound command/write link with three
 *    command slots per frame, northbound read-data link, per-DIMM DDR2
 *    buses behind the AMBs, daisy-chain latency, optional VRL),
 * selected by ControllerConfig::fbd.
 *
 * Scheduling follows the paper: a 64-entry reorder window, the
 * hit-first policy (requests that can be served without opening a row —
 * prefetch-buffer hits and open-row hits — go first), and read priority
 * over writes until the number of queued writes crosses a drain
 * threshold.
 *
 * With prefetching enabled a demand read that misses the prefetch
 * information table becomes a K-line region fetch: one activation
 * followed by K pipelined column accesses on the DIMM-level bus; the
 * demanded line is forwarded on the channel first.  The K-1 neighbours
 * fill one prefetch buffer, whose place is the only difference between
 * the two configurations: behind each DIMM's AMB (AMB prefetching,
 * FB-DIMM only), where fills never touch the channel, or one buffer at
 * the controller (controller-level prefetching), where fills cross the
 * channel and hits need no command.
 */

#ifndef FBDP_MC_CONTROLLER_HH
#define FBDP_MC_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include <algorithm>
#include "dram/dimm.hh"
#include "dram/dram_timing.hh"
#include "mc/attribution.hh"
#include "mc/link.hh"
#include "mc/transaction.hh"
#include "prefetch/prefetch_config.hh"
#include "prefetch/prefetch_table.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"

namespace fbdp {

/** Static configuration of one memory controller / logic channel. */
struct ControllerConfig
{
    bool fbd = true;             ///< FB-DIMM (vs conventional DDR2)
    unsigned nDimms = 4;
    unsigned banksPerDimm = 4;
    DramTiming timing = DramTiming::forDataRate(667);

    Tick cmdDelay = nsToTicks(3);      ///< channel command delay
    Tick ctrlOverhead = nsToTicks(12); ///< controller overhead
    Tick ambHop = nsToTicks(3);        ///< per-AMB pass-through delay
    bool vrl = false;                  ///< variable read latency

    bool openPage = false;       ///< open-page policy (page interleave)

    unsigned queueSize = 64;     ///< reorder-window entries (<= 64)
    unsigned writeDrainHigh = 16;
    unsigned writeDrainLow = 4;

    /** Model DDR2 auto-refresh (tREFI / tRFC). */
    bool refreshEnable = true;

    unsigned regionLines = 4;    ///< K
    bool apFullLatency = false;  ///< APFL analysis mode (Fig. 9)

    /** The prefetch buffer: behind each DIMM's AMB (FB-DIMM only) or
     *  one table at the controller, where region fetches ride the
     *  channel into it (the comparison class the paper discusses in
     *  Section 6, after Lin/Reinhardt/Burger).  The spec "none"
     *  switches it off. */
    PrefetchConfig prefetch;
};

/** One logic-channel memory controller with its DRAM devices. */
class MemController
{
  public:
    MemController(std::string name, EventQueue *event_queue,
                  const ControllerConfig &cfg);

    /**
     * Hand a transaction to the controller at the current tick.  Its
     * completion callback runs from the controller's completion event
     * at completedAt.
     */
    void push(TransPtr t);

    /**
     * Bind (or unbind with nullptr) the lifecycle tracer.  @p channel
     * is this controller's logic-channel index; a tracer whose filter
     * excludes the channel binds as nullptr, so filtered-out channels
     * pay nothing.  Interns one track per link, bank and AMB cache.
     */
    void bindTracer(trace::Tracer *t, unsigned channel);

    /**
     * Enable latency-phase attribution (or disable with nullptr).
     * Allocates the per-channel accumulator; the hot path tests the
     * cached `att` pointer exactly like the tracer binding, so a
     * disabled controller pays one branch per stamp site.  Completion
     * profiles are published to @p hub (may be nullptr) for the cores'
     * stall accounting.
     */
    void enableAttribution(AttributionHub *hub);

    /** Phase-breakdown accumulator, nullptr unless enabled. */
    const ChannelAttribution *attribution() const { return att.get(); }

    /** Total requests currently inside the controller. */
    size_t occupancy() const
    {
        return window.size() + overflow.size() + completions.size();
    }

    // --- statistics ---
    std::uint64_t reads() const { return nReads; }
    std::uint64_t writes() const { return nWrites; }
    std::uint64_t channelBytes() const { return nChannelBytes; }
    double avgReadLatencyNs() const;
    std::uint64_t readLatSamples() const { return nReadsDone; }

    /** Read-latency distribution (2 ns buckets up to 1 µs). */
    const stats::Histogram &readLatencyHist() const
    {
        return latHist;
    }

    /** Latency percentile in ns (e.g. 0.95) from the histogram. */
    double readLatencyPercentileNs(double p) const;

    /** Demand reads that missed every prefetch buffer. */
    const stats::Histogram &demandLatencyHist() const
    {
        return latHistDemand;
    }
    /** Reads served from the prefetch buffer. */
    const stats::Histogram &prefHitLatencyHist() const
    {
        return latHistPrefHit;
    }
    /** Write (posted) completion latency. */
    const stats::Histogram &writeLatencyHist() const
    {
        return latHistWrite;
    }

    // --- telemetry gauges (cumulative; samplers take deltas) ---
    /** Requests queued in the controller (window + overflow). */
    size_t queueDepth() const
    {
        return window.size() + overflow.size();
    }
    /** Commands ever sent on the southbound/command link. */
    std::uint64_t southCommands() const
    {
        return cmdLink.commandsSent();
    }
    /** Southbound frames that carried write data. */
    std::uint64_t southDataFrames() const
    {
        return cmdLink.framesWithData();
    }
    /** Busy ticks on the northbound (or shared DDR2 data) link. */
    Tick northBusyTicks() const
    {
        return cfg.fbd ? northbound.busyTicks() : sharedBus.busyTicks();
    }
    /** Sum of Bank::busyTicks() over the whole channel. */
    Tick
    bankBusyTicks() const
    {
        Tick sum = 0;
        for (const Dimm &d : dimms)
            sum += d.bankBusyTicks();
        return sum;
    }
    /** Banks currently holding an open row. */
    unsigned
    rowsOpen() const
    {
        unsigned n = 0;
        for (const Dimm &d : dimms)
            n += d.rowsOpen();
        return n;
    }

    /** Aggregate DRAM operation counts across the channel's DIMMs. */
    DramOpCounts dramOps() const;

    /** The prefetch buffer at its configured place (one AMB cache
     *  per DIMM, or one table at the controller), or nullptr when no
     *  prefetching is configured.  Its counters are the only count of
     *  prefetch hits, late hits, coverage and efficiency. */
    const PrefetchTable *prefetchTable() const { return table.get(); }

    /** Buffer hits that lost their line to eviction before service. */
    std::uint64_t hitConversions() const { return nHitConversions; }

    /** Clear measurement counters (not timing state). */
    void resetStats();

    const ControllerConfig &config() const { return cfg; }
    const std::string &name() const { return _name; }

  private:
    /** Return-trip AMB chain delay for data from DIMM @p d. */
    Tick chainDelay(unsigned d) const;

    void wake();
    void scheduleWake(Tick at);
    void refillWindow();
    void issueCycle(Tick now);

    /** Try to issue the next command of window slot @p slot at cycle
     *  tick @p now, then refresh the slot's summary.
     *  @return true iff a command was issued. */
    bool tryIssue(unsigned slot, Tick now);

    /** Serve a read from the prefetch buffer.  The place decides
     *  only the timing: behind the AMB a hit takes a command slot and
     *  a northbound frame; at the controller the data is already
     *  there. */
    bool issuePrefetchHit(unsigned slot, Tick now);
    bool issueActivate(Transaction *t, Tick now);
    bool issuePrecharge(Transaction *t, Tick now);
    bool issueRead(unsigned slot, Tick now);
    bool issueWrite(unsigned slot, Tick now);

    /**
     * A command of @p t was refused and cannot be accepted before it
     * could arrive at @p arrive_at: skip its tries until then.  Off
     * under open page, where every try re-derives the phase.
     */
    void
    retryNotBefore(Transaction *t, Tick arrive_at)
    {
        if (!cfg.openPage)
            t->retryAt = arrive_at - cfg.cmdDelay;
    }

    /** Open-page: re-derive the phase from live bank state. */
    void recomputeOpenPagePhase(Transaction *t);

    /** A buffer hit's line disappeared: fall back to a region
     *  fetch. */
    void convertHitToMiss(Transaction *t);

    /**
     * Start @p t's region group fetch (on a buffer miss or a hit
     * conversion): insert the region's other lines into the buffer in
     * ascending address order, record them on the transaction and set
     * groupLines.
     */
    void emitCandidates(Transaction *t);

    /** Retire window slot @p slot at @p ready: move it to the
     *  completion heap, leaving the slot empty until issueCycle
     *  compacts the window. */
    void finish(unsigned slot, Tick ready);

    void completionFire();

    std::string _name;
    EventQueue *eq;
    ControllerConfig cfg;

    std::vector<Dimm> dimms;

    // Interconnect resources.
    CommandLink cmdLink;                 ///< southbound / DDR2 cmd bus
    BusTracker northbound;               ///< FB-DIMM read-return link
    std::vector<BusTracker> dimmBus;     ///< per-DIMM DDR2 buses (FBD)
    BusTracker sharedBus;                ///< DDR2 baseline data bus

    /** The prefetch buffer (null without one). */
    std::unique_ptr<PrefetchTable> table;
    /** @p t's slot in the buffer: its DIMM's AMB cache, or the one
     *  table at the controller. */
    unsigned
    bufSlot(const Transaction *t) const
    {
        return cfg.prefetch.atMc() ? 0u : t->coord.dimm;
    }

    /** One finished transaction waiting for its data to arrive. */
    struct Completion
    {
        Tick ready;
        std::uint64_t seq;  ///< FIFO tie-break within a tick
        TransPtr t;
    };

    /** Min-heap order on (ready, seq); seq is unique, so the pop
     *  sequence reproduces the old std::multimap exactly. */
    struct CompletionAfter
    {
        bool
        operator()(const Completion &a, const Completion &b) const
        {
            if (a.ready != b.ready)
                return a.ready > b.ready;
            return a.seq > b.seq;
        }
    };

    /** Pop completions due at or before @p now, FIFO within a tick. */
    bool popCompletionDue(Tick now, TransPtr &out);

    /**
     * The reorder window and its scheduler summary.  Each cycle,
     * issueCycle turns the summary into one 64-bit mask of ready
     * window positions per class key, without touching a Transaction.
     *
     * Invariants, outside issueCycle:
     *  - window holds at most maxWindow transactions in mcSeq order,
     *    none of them null and none past its last command.
     *  - slotKey[i] is the class of window[i] (see classKey).  Phases
     *    change only inside tryIssue, which refreshes the slot
     *    afterwards.
     *  - slotReady[i] == window[i]->retryAt, a lower bound on the
     *    first cycle at which a try of window[i] can issue.  It starts
     *    at earliestIssue and is raised only under close page, by a
     *    refused ACT/RD/WR, to the earliest arrival the refusing
     *    constraint allows minus cmdDelay: the Dimm::earliest* tick,
     *    the shared DDR2 bus's turnaround, or, for an ACT to a bank
     *    whose row another transaction holds, the bank's casAllowedAt
     *    (the row closes only after that CAS).  Every constraint
     *    behind these bounds only grows (the *AllowedAt ticks,
     *    lastActAt + tRRD, wrDataEnd + tWTR, the DDR2 bus's write
     *    end), and a refused try changes no state, so skipping the
     *    tries before the bound changes nothing.
     *
     * Inside issueCycle a finished transaction leaves its slot null
     * and idle; one order-preserving compaction at the end of the
     * cycle closes the gaps.
     */
    static constexpr unsigned maxWindow = 64;

    /** Slot class: hit (0), CAS (1) or other (2) for reads, plus 3
     *  for writes; keyIdle marks a slot with nothing to issue. */
    static constexpr std::uint8_t keyIdle = 6;
    static std::uint8_t classKey(const Transaction *t);

    std::vector<TransPtr> window;        ///< reorder window, mcSeq order
    Tick slotReady[maxWindow] = {};
    std::uint8_t slotKey[maxWindow] = {};
    std::deque<TransPtr> overflow;       ///< waiting to enter window
    unsigned windowWrites = 0;           ///< writes inside the window
    bool windowHoles = false;            ///< finish() emptied a slot
    /** Completed-but-in-flight transactions, a (ready, seq) min-heap:
     *  insertion is near-monotonic in ready time, so sift distances
     *  are short and no per-node allocation happens (vs multimap). */
    std::vector<Completion> completions;
    std::uint64_t nextCompletionSeq = 0;

    bool draining = false;
    std::uint64_t nextMcSeq = 0;

    /** DDR2 baseline only: end of the last write burst on the shared
     *  data bus, for channel-wide write-to-read turnaround. */
    Tick sharedWrDataEnd = 0;

    /** FB-DIMM: DIMM that produced the previous northbound transfer.
     *  Without VRL, back-to-back returns from different DIMMs need a
     *  resynchronisation bubble on the daisy chain. */
    int lastNbDimm = -1;

    /** Reserve the northbound link for one block from DIMM @p d. */
    Tick reserveNorthbound(Tick earliest, unsigned d);

    /** Issue due refreshes; sets refreshPending on blocked DIMMs. */
    void serviceRefresh(Tick now);

    std::vector<Tick> nextRefreshAt;   ///< per DIMM
    std::vector<bool> refreshPending;  ///< overdue, waiting for idle

    Event wakeEvent;
    Event completionEvent;

    // Counters.
    std::uint64_t nReads = 0;
    std::uint64_t nWrites = 0;
    std::uint64_t nReadsDone = 0;
    std::uint64_t nChannelBytes = 0;
    std::uint64_t nHitConversions = 0;
    double readLatTotal = 0.0;  ///< in ticks
    stats::Histogram latHist{"read_latency", "read latency (ns)",
                             0.0, 1000.0, 500};
    // Same geometry as latHist so quantiles are comparable and
    // System::collect can merge them across controllers.
    stats::Histogram latHistDemand{
        "read_latency_demand", "demand-miss read latency (ns)",
        0.0, 1000.0, 500};
    stats::Histogram latHistPrefHit{
        "read_latency_pref_hit", "prefetch-hit read latency (ns)",
        0.0, 1000.0, 500};
    stats::Histogram latHistWrite{
        "write_latency", "write completion latency (ns)",
        0.0, 1000.0, 500};

    /** Lifecycle-tracer binding; tr == nullptr means disabled, so a
     *  trace point costs one branch on this cached pointer. */
    struct TraceBinding
    {
        trace::Tracer *tr = nullptr;
        std::uint32_t txn = 0;    ///< lifecycle instants
        std::uint32_t south = 0;  ///< command/write-data link
        std::uint32_t north = 0;  ///< read-return link
        std::vector<std::uint32_t> bank;  ///< [dimm * banks + bank]
        std::vector<std::uint32_t> pf;    ///< per buffer slot
        std::vector<std::uint32_t> dimm;  ///< per DIMM (refresh)
    };
    TraceBinding trc;

    /** Phase-attribution accumulator; null == disabled (one branch
     *  per stamp site, same pattern as the tracer binding). */
    std::unique_ptr<ChannelAttribution> att;
    AttributionHub *attHub = nullptr;

    trace::Kind traceKind(const Transaction *t) const
    {
        if (t->swPrefetch)
            return trace::Kind::Prefetch;
        return t->isRead() ? trace::Kind::Read : trace::Kind::Write;
    }
    /** Lifecycle instant on the txn track, kind-filtered. */
    void
    traceTxn(const char *name, Tick ts, const Transaction *t)
    {
        const trace::Kind k = traceKind(t);
        if (trc.tr->want(k))
            trc.tr->instant(trc.txn, name, ts, k, t->coreId,
                            t->lineAddr);
    }
};

} // namespace fbdp

#endif // FBDP_MC_CONTROLLER_HH
