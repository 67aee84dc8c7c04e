#include "system/system.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <ostream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "mc/transaction.hh"
#include "sim/trace.hh"
#include "system/warm_share.hh"
#include "workload/trace_stream.hh"

namespace fbdp {

namespace {

/** Host seconds between two steady-clock reads. */
inline double
secsBetween(std::chrono::steady_clock::time_point a,
            std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

double
KernelProfile::eventImbalance() const
{
    // Max/mean over the channel shards (shard 0 is the core shard).
    double sum = 0.0, mx = 0.0;
    for (std::size_t i = 1; i < shards.size(); ++i) {
        const double v = static_cast<double>(shards[i].events);
        sum += v;
        mx = mx > v ? mx : v;
    }
    if (shards.size() < 3 || sum <= 0.0)
        return 0.0;
    return mx * static_cast<double>(shards.size() - 1) / sum;
}

double
RunResult::ipcSum() const
{
    double s = 0.0;
    for (double v : ipc)
        s += v;
    return s;
}

double
RunResult::totalInsts() const
{
    double s = 0.0;
    for (std::uint64_t v : insts)
        s += static_cast<double>(v);
    return s;
}

MemorySystem::MemorySystem(
    EventQueue *event_queue, const AddressMap *address_map,
    std::vector<std::unique_ptr<MemController>> *ctrls)
    : eq(event_queue), map(address_map), controllers(ctrls)
{
}

void
MemorySystem::read(Addr line_addr, int core_id, bool sw_prefetch,
                   TickCallback done)
{
    auto t = makeTransaction();
    t->cmd = MemCmd::Read;
    t->lineAddr = lineAlign(line_addr);
    t->coreId = core_id;
    t->swPrefetch = sw_prefetch;
    t->created = eq->now();
    t->coord = map->map(t->lineAddr);
    t->onComplete = std::move(done);
    const unsigned ch = t->coord.channel;
    if (router)
        router->routePush(ch, std::move(t));
    else
        (*controllers)[ch]->push(std::move(t));
}

void
MemorySystem::write(Addr line_addr, int core_id)
{
    auto t = makeTransaction();
    t->cmd = MemCmd::Write;
    t->lineAddr = lineAlign(line_addr);
    t->coreId = core_id;
    t->created = eq->now();
    t->coord = map->map(t->lineAddr);
    const unsigned ch = t->coord.channel;
    if (router)
        router->routePush(ch, std::move(t));
    else
        (*controllers)[ch]->push(std::move(t));
}

void
requireFitsCoreSlice(const BenchProfile &prof)
{
    if (prof.footprint > coreSliceBytes) {
        fatal("profile '%s': footprint of %llu bytes exceeds the "
              "%llu-byte address slice of a core",
              prof.name.c_str(),
              static_cast<unsigned long long>(prof.footprint),
              static_cast<unsigned long long>(coreSliceBytes));
    }
}

System::System(const SystemConfig &config)
    : cfg(config),
      deliverEvent([this] { deliverFire(); }, Event::prioData)
{
    fbdp_assert(!cfg.benchmarks.empty(),
                "system configured with no workload");

    // Validates the user-reachable configuration before any
    // component asserts on it.
    const ControllerConfig cc = cfg.controllerConfig();
    frame = cc.timing.memCycle;

    map = std::make_unique<AddressMap>(cfg.addressMapConfig());

    // Queue 0 drives the cores and caches; each logic channel gets its
    // own shard, reached only through the frame mailboxes.
    queues.push_back(std::make_unique<EventQueue>());
    shards.resize(cfg.logicChannels);
    for (unsigned ch = 0; ch < cfg.logicChannels; ++ch) {
        queues.push_back(std::make_unique<EventQueue>());
        controllers.push_back(std::make_unique<MemController>(
            csprintf("mc%u", ch), queues.back().get(), cc));
        controllers.back()->setCompletionSink(this, ch);
    }
    EventQueue *coreQ = queues.front().get();
    shardAcc.resize(1 + cfg.logicChannels);
    profiling = cfg.profileKernel;

    memSys = std::make_unique<MemorySystem>(coreQ, map.get(),
                                            &controllers);
    memSys->setRouter(this);
    hier = std::make_unique<CacheHierarchy>(coreQ, cfg.nCores(),
                                            cfg.hier, memSys.get());

    // Each core owns a disjoint 4 GB slice of the physical space; the
    // interleaving spreads every slice across all channels and banks.
    //
    // Benchmark slots name either a synthetic profile or a recorded
    // trace ("trace:PATH[,options]").  Cores replaying the same file
    // share one TraceStream — file handle, decode pipeline and chunk
    // window; the first spec mentioning a path fixes that file's
    // options.  A trace shorter than the warm-up is decoded once.
    const std::uint64_t warm_ops = resolvedWarmupOps(cfg);
    std::map<std::string, std::shared_ptr<TraceStream>> traceStreams;
    for (unsigned i = 0; i < cfg.nCores(); ++i) {
        const std::string &bench = cfg.benchmarks[i];
        const Addr base = static_cast<Addr>(i) * coreSliceBytes;
        std::unique_ptr<Generator> gen;
        if (TraceSpec::isTraceSpec(bench)) {
            const TraceSpec spec = TraceSpec::parse(bench);
            auto &str = traceStreams[spec.path];
            if (!str)
                str = std::make_shared<TraceStream>(spec, warm_ops);
            gen = std::make_unique<StreamingTraceGenerator>(str, base);
        } else {
            const BenchProfile &prof = benchProfile(bench);
            requireFitsCoreSlice(prof);
            gen = std::make_unique<SyntheticGenerator>(
                prof, base, cfg.seed * 1000 + i, cfg.swPrefetch);
        }
        gens.push_back(std::move(gen));
        const BenchProfile &prof = gens[i]->profile();

        CoreParams cp;
        cp.baseIpc = prof.baseIpc;
        cp.rob = cfg.rob;
        cp.lq = cfg.lq;
        cp.sq = cfg.sq;
        cores.push_back(std::make_unique<Core>(
            csprintf("cpu%u.%s", i, prof.name.c_str()),
            static_cast<int>(i), coreQ, hier.get(), gens[i].get(),
            cp));
    }

    if (cfg.attribution) {
        for (auto &mc : controllers)
            mc->enableAttribution(&attHub);
        for (auto &c : cores)
            c->enableAttribution(&attHub);
    }
}

System::~System() = default;

void
System::attachTracer(trace::Tracer *t)
{
    tracer = t;
    for (unsigned ch = 0; ch < controllers.size(); ++ch)
        controllers[ch]->bindTracer(t, ch);
    hier->bindTracer(t);
    for (auto &c : cores)
        c->bindTracer(t);

    // Kernel shard tracks: with the self-profiler on, a traced run also
    // gets one track per shard (frame slices + per-round event counts)
    // and a cross-shard traffic counter track, so the timeline shows
    // where each frame's work ran alongside the transaction lifecycle.
    kernelTracks.clear();
    if (t && cfg.profileKernel) {
        kernelTracks.push_back(t->track("kernel.core"));
        for (unsigned ch = 0; ch < cfg.logicChannels; ++ch)
            kernelTracks.push_back(t->track(csprintf("kernel.ch%u",
                                                     ch)));
        mailboxTrack = t->track("kernel.mailbox");
    }
}

void
System::resetAllStats()
{
    for (auto &c : cores)
        c->resetStats();
    for (auto &mc : controllers)
        mc->resetStats();
    hier->resetStats();
}

RunResult
System::run()
{
    // Phase 0: functional cache warm-up.  Replay a prefix of each
    // core's trace through the tag arrays so the measured region does
    // not see an artificially cold 4 MB L2 (the paper's SimPoint runs
    // start from warm state).  It reads only the generators and the
    // tags, so concurrent runs of the same mix compute it once
    // (warmOnce).
    const std::uint64_t warm_ops = resolvedWarmupOps(cfg);
    const auto warm_up = [this, warm_ops] {
        functionalWarmup(gens, *hier, warm_ops);
    };
    // Only a fresh System shares: a generator that has already drawn
    // (a second run()) is past the key's state.
    const std::optional<WarmKey> key = warmKeyOf(cfg);
    WarmState mine{{}, hier.get()};
    for (auto &g : gens) {
        auto *s = dynamic_cast<SyntheticGenerator *>(g.get());
        if (s && s->opsGenerated() == 0)
            mine.gens.push_back(s);
    }
    bool warm_copied = false;
    if (key && mine.gens.size() == gens.size())
        warm_copied = warmOnce(*key, mine, warm_up);
    else
        warm_up();

    // Time the event-driven phases only: sim-rate should reflect the
    // kernel, not process start-up or the functional replay above.
    const auto host0 = std::chrono::steady_clock::now();

    // Phase 1: warm up until the first core has executed warmupInsts.
    // Each phase runs whole rounds and stops at the end of the round
    // in which the notify fired, so both window edges are
    // frame-aligned.
    phaseDone = false;
    for (auto &c : cores) {
        c->setNotify(cfg.warmupInsts, [this] { phaseDone = true; });
        c->start();
    }
    runRounds();
    fbdp_assert(phaseDone, "simulation drained during warm-up");
    alignClocks();

    resetAllStats();
    const Tick t0 = queues.front()->now();

    // Phase 2: measure until the first core adds measureInsts more.
    phaseDone = false;
    for (auto &c : cores) {
        c->setNotify(c->insts() + cfg.measureInsts,
                     [this] { phaseDone = true; });
    }
    runRounds();
    fbdp_assert(phaseDone, "simulation drained during measurement");
    const Tick t1 = alignClocks();

    hostEventSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - host0).count();
    RunResult r = collect(t1 - t0);
    r.kernel.warmupCopied = warm_copied;
    return r;
}

void
System::runRounds()
{
    do {
        runRound();
    } while (!endOfRound());
}

void
System::runRound()
{
    using clk = std::chrono::steady_clock;
    const Tick start = static_cast<Tick>(curRound) * frame;
    const Tick limit = start + frame - 1;
    std::uint64_t roundMsgs = 0;

    {
        // The core/cache shard: deliver last round's completions.
        EventQueue &q = *queues.front();
        q.advanceTo(start);
        clk::time_point d0;
        if (profiling)
            d0 = clk::now();
        std::uint64_t got = 0;
        for (auto &sh : shards) {
            auto &in = sh.doneBox.inbox(curRound);
            got += in.size();
            for (CompleteMsg &m : in) {
                // One frame of hand-off latency, preserving the
                // completions' relative spacing and FIFO order.
                pendingDone.push_back(PendingDone{
                    m.t->completedAt + frame, nextDoneSeq++,
                    std::move(m.t), m.pd, m.hasProfile});
                std::push_heap(pendingDone.begin(), pendingDone.end(),
                               PendingAfter{});
            }
            in.clear();
        }
        shardAcc[0].drained += got;
        roundMsgs += got;
        if (!pendingDone.empty()
            && (!deliverEvent.scheduled()
                || deliverEvent.when()
                       > pendingDone.front().deliverAt)) {
            q.schedule(&deliverEvent, pendingDone.front().deliverAt);
        }
        if (!profiling) {
            q.run(limit);
        } else {
            const auto b0 = clk::now();
            const std::uint64_t before = q.dispatched();
            q.run(limit);
            const auto b1 = clk::now();
            shardAcc[0].drainSeconds += secsBetween(d0, b0);
            shardAcc[0].busySeconds += secsBetween(b0, b1);
            traceShardRound(0, start, q.dispatched() - before);
        }
    }

    for (unsigned ch = 0; ch < shards.size(); ++ch) {
        EventQueue &q = *queues[1 + ch];
        q.advanceTo(start);
        auto &in = shards[ch].pushBox.inbox(curRound);
        // An idle shard (nothing staged, nothing scheduled) can
        // dispatch nothing this round; skipping it costs no events
        // and keeps the profiler's clock reads off the quiet
        // channels.  Its clock re-aligns at the next advanceTo.
        if (in.empty() && q.empty())
            continue;
        ShardAccum &sa = shardAcc[1 + ch];
        sa.drained += in.size();
        roundMsgs += in.size();
        if (!profiling) {
            for (PushMsg &m : in)
                controllers[ch]->pushAt(std::move(m.t), m.sentAt);
            in.clear();
            q.run(limit);
            continue;
        }
        const auto d0 = clk::now();
        for (PushMsg &m : in)
            controllers[ch]->pushAt(std::move(m.t), m.sentAt);
        in.clear();
        const auto b0 = clk::now();
        const std::uint64_t before = q.dispatched();
        q.run(limit);
        const auto b1 = clk::now();
        sa.drainSeconds += secsBetween(d0, b0);
        sa.busySeconds += secsBetween(b0, b1);
        traceShardRound(1 + ch, start, q.dispatched() - before);
    }

    if (profiling && tracer && !kernelTracks.empty() && roundMsgs)
        tracer->counter(mailboxTrack, "cross_shard_msgs", start,
                        roundMsgs);
}

void
System::traceShardRound(unsigned shard, Tick start,
                        std::uint64_t events)
{
    if (!tracer || kernelTracks.empty() || events == 0)
        return;
    // One frame slice per active shard per round, plus the round's
    // dispatch count as a counter series.  exportJson's stable sort
    // keeps the end of one slice ahead of the next slice's begin at
    // the same tick.
    const std::uint32_t trk = kernelTracks[shard];
    tracer->begin(trk, "frame", start);
    tracer->counter(trk, "events", start, events);
    tracer->end(trk, "frame", start + frame);
}

bool
System::endOfRound()
{
    ++curRound;
    if (phaseDone)
        return true;
    // Termination backstop: a drained simulation (every shard idle,
    // every mailbox empty, nothing pending delivery) can never reach
    // the notify, so stop and let run() report it.
    bool active = !pendingDone.empty();
    for (const auto &q : queues)
        active = active || !q->empty();
    for (const auto &sh : shards)
        active = active || !sh.pushBox.bothEmpty()
            || !sh.doneBox.bothEmpty();
    return !active;
}

void
System::routePush(unsigned channel, TransPtr t)
{
    shards[channel].pushBox.post(
        curRound, PushMsg{std::move(t), queues.front()->now()});
}

void
System::complete(unsigned channel, TransPtr t,
                 const PhaseDurations &pd, bool has_profile)
{
    shards[channel].doneBox.post(
        curRound, CompleteMsg{std::move(t), pd, has_profile});
}

void
System::deliverFire()
{
    EventQueue &q = *queues.front();
    const Tick now = q.now();
    while (!pendingDone.empty()
           && pendingDone.front().deliverAt <= now) {
        std::pop_heap(pendingDone.begin(), pendingDone.end(),
                      PendingAfter{});
        PendingDone d = std::move(pendingDone.back());
        pendingDone.pop_back();
        if (d.hasProfile) {
            // Publish the phase profile for the duration of the
            // completion callback so a core whose stall ends inside
            // it can attribute the stalled cycles to these phases.
            attHub.publish(d.pd);
        }
        if (d.t->onComplete)
            d.t->onComplete(d.t->completedAt);
        if (d.hasProfile)
            attHub.clear();
        d.t.reset();
    }
    if (!pendingDone.empty())
        q.schedule(&deliverEvent, pendingDone.front().deliverAt);
}

double
System::kernelBusySeconds() const
{
    double s = 0.0;
    for (const ShardAccum &sa : shardAcc)
        s += sa.busySeconds;
    return s;
}

double
System::kernelDrainSeconds() const
{
    double s = 0.0;
    for (const ShardAccum &sa : shardAcc)
        s += sa.drainSeconds;
    return s;
}

std::uint64_t
System::mailboxMessagesPosted() const
{
    std::uint64_t n = 0;
    for (const ChannelShard &sh : shards)
        n += sh.pushBox.posted() + sh.doneBox.posted();
    return n;
}

Tick
System::alignClocks()
{
    const Tick boundary = static_cast<Tick>(curRound) * frame;
    for (auto &q : queues)
        q->advanceTo(boundary);
    return boundary;
}

void
System::report(std::ostream &os) const
{
    for (const OwnedStatGroup &g : buildStatGroups())
        g.group.printAll(os);
}

std::vector<System::OwnedStatGroup>
System::buildStatGroups(bool include_histograms) const
{
    using stats::Formula;

    std::vector<OwnedStatGroup> groups;

    auto addF = [](OwnedStatGroup &g, std::string name,
                   std::string desc, std::function<double()> fn) {
        auto f = std::make_unique<Formula>(
            std::move(name), std::move(desc), std::move(fn));
        g.group.registerStat(f.get());
        g.owned.push_back(std::move(f));
    };
    // Component-owned stats (histograms) are registered borrowed; the
    // group never mutates them, so shedding const is safe here.
    auto addBorrowed = [](OwnedStatGroup &g, const stats::Stat &s) {
        g.group.registerStat(const_cast<stats::Stat *>(&s));
    };

    for (size_t i = 0; i < cores.size(); ++i) {
        const Core &c = *cores[i];
        OwnedStatGroup &g = groups.emplace_back(c.name());
        addF(g, "ipc", "instructions per cycle (window)",
             [&c] { return c.ipc(); });
        addF(g, "insts", "instructions in window",
             [&c] { return static_cast<double>(c.windowInsts()); });
        addF(g, "rob_stall_ns", "ROB-full stall time",
             [&c] { return ticksToNs(c.robStallTicks()); });
        addF(g, "lq_stall_ns", "load-queue stall time",
             [&c] { return ticksToNs(c.lqStallTicks()); });
        addF(g, "sq_stall_ns", "store-queue stall time",
             [&c] { return ticksToNs(c.sqStallTicks()); });
        addF(g, "mshr_stall_ns", "MSHR-full stall time",
             [&c] { return ticksToNs(c.mshrStallTicks()); });
        addF(g, "l1_hits", "L1 hits",
             [this, i] { return static_cast<double>(
                             hier->l1Hits(static_cast<int>(i))); });
        addF(g, "l1_misses", "L1 misses",
             [this, i] { return static_cast<double>(
                             hier->l1Misses(static_cast<int>(i))); });

        // Stall-cycle attribution: every ended stall interval charged
        // to the phases of the completion that woke the core.
        if (const CoreStallAttribution *sa = c.stallAttribution()) {
            for (unsigned rsn = 0;
                 rsn < CoreStallAttribution::numReasons; ++rsn) {
                const std::string r = stallReasonName(rsn);
                for (unsigned p = 0; p < numLatPhases; ++p) {
                    addF(g,
                         r + "_stall_"
                             + latPhaseName(static_cast<LatPhase>(p))
                             + "_ns",
                         "stall time blocked in this memory phase",
                         [sa, rsn, p] {
                             return ticksToNs(sa->byPhase[rsn][p]);
                         });
                }
                addF(g, r + "_stall_l2_ns",
                     "stall time ended by an L2 hit",
                     [sa, rsn] { return ticksToNs(sa->l2Wait[rsn]); });
                addF(g, r + "_stall_other_ns",
                     "stall time with no completion in scope",
                     [sa, rsn] {
                         return ticksToNs(sa->unattributed[rsn]);
                     });
            }
        }
    }

    {
        OwnedStatGroup &g = groups.emplace_back("l2");
        addF(g, "hits", "L2 hits",
             [this] { return static_cast<double>(hier->l2Hits()); });
        addF(g, "misses", "L2 misses (incl. MSHR merges)",
             [this] { return static_cast<double>(hier->l2Misses()); });
        addF(g, "mem_reads", "demand reads sent to memory",
             [this] { return static_cast<double>(hier->memReads()); });
        addF(g, "mem_writes", "writebacks sent to memory",
             [this] { return static_cast<double>(
                          hier->memWrites()); });
        addF(g, "sw_prefetches", "software prefetches sent",
             [this] { return static_cast<double>(
                          hier->prefetchesSent()); });
        addF(g, "sw_prefetches_dropped",
             "software prefetches dropped",
             [this] { return static_cast<double>(
                          hier->prefetchesDropped()); });
    }

    for (const auto &mcp : controllers) {
        const MemController &mc = *mcp;
        OwnedStatGroup &g = groups.emplace_back(mc.name());
        addF(g, "reads", "read transactions",
             [&mc] { return static_cast<double>(mc.reads()); });
        addF(g, "writes", "write transactions",
             [&mc] { return static_cast<double>(mc.writes()); });
        addF(g, "avg_read_latency_ns", "MC arrival to data at MC",
             [&mc] { return mc.avgReadLatencyNs(); });
        addF(g, "p95_read_latency_ns", "95th percentile",
             [&mc] { return mc.readLatencyPercentileNs(0.95); });
        addF(g, "p99_read_latency_ns", "99th percentile",
             [&mc] { return mc.readLatencyPercentileNs(0.99); });
        addF(g, "act_pre", "activate/precharge pairs",
             [&mc] { return static_cast<double>(
                         mc.dramOps().actPre); });
        addF(g, "cas", "column accesses",
             [&mc] { return static_cast<double>(
                         mc.dramOps().cas()); });
        addF(g, "refresh", "refresh commands",
             [&mc] { return static_cast<double>(
                         mc.dramOps().refresh); });
        addF(g, "amb_hits", "reads served by the AMB cache",
             [&mc] { return static_cast<double>(mc.ambHits()); });
        addF(g, "late_prefetch_hits",
             "prefetch hits with the fill still in flight",
             [&mc] { return static_cast<double>(
                         mc.latePrefetchHits()); });
        addF(g, "coverage", "#prefetch_hit / #read", [&mc] {
            const PrefetchTable *t = mc.prefetchTable();
            return t ? t->coverage() : 0.0;
        });
        addF(g, "efficiency", "#prefetch_hit / #prefetch", [&mc] {
            const PrefetchTable *t = mc.prefetchTable();
            return t ? t->efficiency() : 0.0;
        });
        addF(g, "pf_dropped", "candidates shed before issue", [&mc] {
            const PrefetchTable *t = mc.prefetchTable()
                ? mc.prefetchTable() : mc.mcBuffer();
            return t ? static_cast<double>(t->droppedCandidates())
                     : 0.0;
        });
        addF(g, "pf_lateness", "late prefetch hits / hits", [&mc] {
            const PrefetchTable *t = mc.prefetchTable()
                ? mc.prefetchTable() : mc.mcBuffer();
            return t ? t->lateness() : 0.0;
        });
        addF(g, "pf_pollution",
             "unused displaced or invalidated / issued", [&mc] {
                 const PrefetchTable *t = mc.prefetchTable()
                     ? mc.prefetchTable() : mc.mcBuffer();
                 return t ? t->pollution() : 0.0;
             });

        // Phase breakdown: where the latency of each transaction
        // class went on this channel (means; Σ phases == total).
        if (const ChannelAttribution *att = mc.attribution()) {
            for (unsigned c = 0; c < numLatClasses; ++c) {
                const auto &cl = att->cls(static_cast<LatClass>(c));
                const std::string cn =
                    latClassName(static_cast<LatClass>(c));
                addF(g, cn + "_samples", "completed transactions",
                     [&cl] { return static_cast<double>(
                                 cl.samples); });
                addF(g, cn + "_total_ns", "mean end-to-end latency",
                     [&cl] {
                         return cl.samples
                             ? static_cast<double>(cl.totalTicks)
                                   / static_cast<double>(cl.samples)
                                   / static_cast<double>(ticksPerNs)
                             : 0.0;
                     });
                for (unsigned p = 0; p < numLatPhases; ++p) {
                    addF(g,
                         cn + "_"
                             + latPhaseName(static_cast<LatPhase>(p))
                             + "_ns",
                         "mean time in this phase",
                         [&cl, p] {
                             return cl.samples
                                 ? static_cast<double>(
                                       cl.phaseTicks[p])
                                       / static_cast<double>(
                                             cl.samples)
                                       / static_cast<double>(
                                             ticksPerNs)
                                 : 0.0;
                         });
                }
                if (include_histograms) {
                    for (const stats::Histogram &h : cl.hist)
                        addBorrowed(g, h);
                }
            }
        }

        if (include_histograms) {
            addBorrowed(g, mc.readLatencyHist());
            addBorrowed(g, mc.demandLatencyHist());
            addBorrowed(g, mc.prefHitLatencyHist());
            addBorrowed(g, mc.writeLatencyHist());
        }
    }

    return groups;
}

RunResult
System::collect(Tick window_ticks) const
{
    RunResult r;
    r.measuredTicks = window_ticks;
    for (const auto &c : cores) {
        r.ipc.push_back(c->ipc());
        r.insts.push_back(c->windowInsts());
    }

    std::uint64_t bytes = 0;
    double lat_weighted = 0.0;
    std::uint64_t lat_samples = 0;
    std::uint64_t pf_reads = 0, pf_hits = 0, pf_issued = 0;
    for (const auto &mc : controllers) {
        r.reads += mc->reads();
        r.writes += mc->writes();
        r.ambHits += mc->ambHits();
        bytes += mc->channelBytes();
        lat_weighted += mc->avgReadLatencyNs()
            * static_cast<double>(mc->readLatSamples());
        lat_samples += mc->readLatSamples();
        r.ops += mc->dramOps();
        const PrefetchTable *t = mc->prefetchTable()
            ? mc->prefetchTable() : mc->mcBuffer();
        if (t) {
            pf_reads += t->reads();
            pf_hits += t->prefetchHits();
            pf_issued += t->prefetchesIssued();
            r.prefetch.issued += t->prefetchesIssued();
            r.prefetch.hits += t->prefetchHits();
            r.prefetch.lateHits += t->lateHits();
            r.prefetch.dropped += t->droppedCandidates();
            r.prefetch.evictedUnused += t->evictedUnused();
            r.prefetch.invalidatedUnused += t->invalidatedUnused();
        }
        if (const PrefetchPolicy *pol = mc->activePolicy())
            r.prefetch.policy = pol->name();
        r.ambHits += mc->mcHits();  // MC hits fill the same role
    }
    if (lat_samples)
        r.avgReadLatencyNs = lat_weighted
            / static_cast<double>(lat_samples);
    if (window_ticks) {
        const double seconds = static_cast<double>(window_ticks)
            * 1e-12;
        r.bandwidthGBs = static_cast<double>(bytes) / 1e9 / seconds;
    }
    if (pf_reads)
        r.coverage = static_cast<double>(pf_hits)
            / static_cast<double>(pf_reads);
    if (pf_issued)
        r.efficiency = static_cast<double>(pf_hits)
            / static_cast<double>(pf_issued);

    // Per-class latency percentiles: merge the controllers' equal-
    // geometry histograms, then interpolate quantiles on the union.
    {
        stats::Histogram demand{"d", "", 0.0, 1000.0, 500};
        stats::Histogram pref{"p", "", 0.0, 1000.0, 500};
        stats::Histogram wr{"w", "", 0.0, 1000.0, 500};
        for (const auto &mc : controllers) {
            demand.merge(mc->demandLatencyHist());
            pref.merge(mc->prefHitLatencyHist());
            wr.merge(mc->writeLatencyHist());
            r.latePrefetchHits += mc->latePrefetchHits();
        }
        auto fill = [](const stats::Histogram &h) {
            LatencyClassStats s;
            s.p50Ns = h.quantile(0.50);
            s.p95Ns = h.quantile(0.95);
            s.p99Ns = h.quantile(0.99);
            s.samples = h.samples();
            return s;
        };
        r.latDemand = fill(demand);
        r.latPrefHit = fill(pref);
        r.latWrite = fill(wr);
    }

    r.l2Misses = hier->l2Misses();
    r.l2Hits = hier->l2Hits();
    r.swPrefetchesSent = hier->prefetchesSent();

    for (const auto &c : cores)
        r.runInsts += c->insts();

    // Sum the shard queues' counters in queue order (peak depth too:
    // an upper bound on simultaneous live events across all shards,
    // and — unlike a max — it degrades visibly if one shard bloats).
    for (const auto &q : queues) {
        const EventQueue::Counters &qc = q->counters();
        r.kernel.eventsDispatched += qc.dispatched;
        r.kernel.schedules += qc.schedules;
        r.kernel.reschedules += qc.reschedules;
        r.kernel.deschedules += qc.deschedules;
        r.kernel.peakQueueDepth += qc.peakDepth;
    }
    r.kernel.profiled = profiling;
    if (profiling) {
        for (std::size_t i = 0; i < queues.size(); ++i) {
            const EventQueue::Counters &qc = queues[i]->counters();
            ShardProfile sp;
            sp.name = i == 0
                ? "core"
                : csprintf("ch%zu", i - 1);
            sp.events = qc.dispatched;
            sp.schedules = qc.schedules;
            sp.reschedules = qc.reschedules;
            sp.deschedules = qc.deschedules;
            sp.peakQueueDepth = qc.peakDepth;
            sp.mailboxIn = shardAcc[i].drained;
            if (i == 0) {
                // The core shard posts requests into every pushBox.
                for (const ChannelShard &sh : shards)
                    sp.mailboxOut += sh.pushBox.posted();
            } else {
                sp.mailboxOut = shards[i - 1].doneBox.posted();
            }
            sp.busySeconds = shardAcc[i].busySeconds;
            sp.drainSeconds = shardAcc[i].drainSeconds;
            r.kernel.shards.push_back(std::move(sp));
        }
    }
    // The pool is thread-local and shared by every System this thread
    // has run, so the counters are cumulative across runs; high water
    // and capacity are still per-thread facts worth reporting.
    const TransPool::Stats &ps = TransPool::local().stats();
    r.kernel.poolAcquires = ps.acquires;
    r.kernel.poolReuses = ps.reuses;
    r.kernel.poolHighWater = ps.highWater;
    r.kernel.poolCapacity = ps.capacity;
    r.kernel.hostEventSeconds = hostEventSeconds;

    if (cfg.attribution) {
        r.attribution.enabled = true;
        r.attribution.channels.resize(controllers.size());
        for (size_t ch = 0; ch < controllers.size(); ++ch) {
            const ChannelAttribution *att =
                controllers[ch]->attribution();
            if (!att)
                continue;
            ChannelBreakdown &cb = r.attribution.channels[ch];
            for (unsigned c = 0; c < numLatClasses; ++c) {
                const auto &acc = att->cls(static_cast<LatClass>(c));
                cb.cls[c].samples = acc.samples;
                cb.cls[c].totalTicks = acc.totalTicks;
                for (unsigned p = 0; p < numLatPhases; ++p)
                    cb.cls[c].phaseTicks[p] = acc.phaseTicks[p];
            }
            r.attribution.total.merge(cb);
        }
        for (const auto &c : cores) {
            CoreCycleBreakdown cc;
            cc.windowTicks = window_ticks;
            cc.stall[0] = c->robStallTicks();
            cc.stall[1] = c->lqStallTicks();
            cc.stall[2] = c->sqStallTicks();
            cc.stall[3] = c->mshrStallTicks();
            if (const CoreStallAttribution *sa =
                    c->stallAttribution())
                cc.att = *sa;
            r.attribution.cores.push_back(cc);
        }
    }
    return r;
}

} // namespace fbdp
