#include "system/system.hh"

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

MemorySystem::MemorySystem(EventQueue *event_queue,
                           const AddressMap *address_map,
                           std::vector<MemController *> mcs)
    : eq(event_queue), map(address_map), controllers(std::move(mcs))
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
    controllers[t->coord.channel]->push(std::move(t));
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
    controllers[t->coord.channel]->push(std::move(t));
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
    : cfg(config)
{
    fbdp_assert(!cfg.benchmarks.empty(),
                "system configured with no workload");

    // Validates the user-reachable configuration before any
    // component asserts on it.
    const ControllerConfig cc = cfg.controllerConfig();

    map = std::make_unique<AddressMap>(cfg.addressMapConfig());

    std::vector<MemController *> mcs;
    for (unsigned ch = 0; ch < cfg.logicChannels; ++ch) {
        controllers.push_back(std::make_unique<MemController>(
            csprintf("mc%u", ch), &eq, cc));
        mcs.push_back(controllers.back().get());
    }

    memSys = std::make_unique<MemorySystem>(&eq, map.get(),
                                            std::move(mcs));
    hier = std::make_unique<CacheHierarchy>(&eq, cfg.nCores(),
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
            static_cast<int>(i), &eq, hier.get(), gens[i].get(),
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
    if (t && t->filter().channel >= static_cast<int>(controllers.size()))
        fatal("--trace-filter chan=%d: the machine has %zu channel(s)",
              t->filter().channel, controllers.size());
    for (unsigned ch = 0; ch < controllers.size(); ++ch)
        controllers[ch]->bindTracer(t, ch);
    hier->bindTracer(t);
    for (auto &c : cores)
        c->bindTracer(t);
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
    // Each phase stops at the tick of the notify; events left at that
    // tick run in the next phase.
    phaseDone = false;
    for (auto &c : cores) {
        c->setNotify(cfg.warmupInsts, [this] { phaseDone = true; });
        c->start();
    }
    while (!phaseDone && eq.step()) {
    }
    fbdp_assert(phaseDone, "simulation drained during warm-up");

    resetAllStats();
    const Tick t0 = eq.now();

    // Phase 2: measure until the first core adds measureInsts more.
    phaseDone = false;
    for (auto &c : cores) {
        c->setNotify(c->insts() + cfg.measureInsts,
                     [this] { phaseDone = true; });
    }
    while (!phaseDone && eq.step()) {
    }
    fbdp_assert(phaseDone, "simulation drained during measurement");
    const Tick t1 = eq.now();

    hostEventSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - host0).count();
    RunResult r = collect(t1 - t0);
    r.kernel.warmupCopied = warm_copied;
    return r;
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

        // The synthetic generator's op classes (a trace replay has
        // none).  Never reset: they count every op the core drew.
        if (const auto *sg =
                dynamic_cast<const SyntheticGenerator *>(gens[i].get())) {
            auto gen = [&](const char *name, const std::string &what,
                           std::uint64_t (SyntheticGenerator::*get)()
                               const) {
                addF(g, name,
                     what + ", whole run, functional warm-up included",
                     [sg, get] {
                         return static_cast<double>((sg->*get)());
                     });
            };
            gen("gen_stream_ops", "stream ops drawn",
                &SyntheticGenerator::streamOps);
            gen("gen_stream_crossings", "stream ops entering a new line",
                &SyntheticGenerator::streamLineCrossings);
            gen("gen_hot_ops", "hot-set ops drawn",
                &SyntheticGenerator::hotOps);
            gen("gen_cold_ops", "cold irregular ops drawn",
                &SyntheticGenerator::coldOps);
            gen("gen_prefetch_ops", "software prefetch ops drawn",
                &SyntheticGenerator::prefetchOps);
        }

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
        addF(g, "load_miss_reads",
             "demand reads sent for load misses, measured window",
             [this] { return static_cast<double>(
                          hier->loadMissReads()); });
        addF(g, "store_miss_reads",
             "demand reads sent for store misses (RFO), measured "
             "window",
             [this] { return static_cast<double>(
                          hier->storeMissReads()); });
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
        // The prefetch buffer's own counters, 0 without a buffer.
        auto pf = [&](const char *name, const char *desc,
                      double (*get)(const PrefetchTable &)) {
            addF(g, name, desc, [&mc, get] {
                const PrefetchTable *t = mc.prefetchTable();
                return t ? get(*t) : 0.0;
            });
        };
        pf("pf_hits", "reads served by the prefetch buffer",
           [](const PrefetchTable &t) {
               return static_cast<double>(t.prefetchHits());
           });
        pf("late_prefetch_hits",
           "prefetch hits with the fill still in flight",
           [](const PrefetchTable &t) {
               return static_cast<double>(t.lateHits());
           });
        pf("coverage", "#prefetch_hit / #read",
           [](const PrefetchTable &t) { return t.coverage(); });
        pf("efficiency", "#prefetch_hit / #prefetch",
           [](const PrefetchTable &t) { return t.efficiency(); });
        pf("pf_dropped", "region lines past the 15-line group cap",
           [](const PrefetchTable &t) {
               return static_cast<double>(t.droppedCandidates());
           });
        pf("pf_lateness", "late prefetch hits / hits",
           [](const PrefetchTable &t) { return t.lateness(); });
        pf("pf_pollution", "unused displaced or invalidated / issued",
           [](const PrefetchTable &t) { return t.pollution(); });
        pf("pf_issued", "prefetch lines issued, measured window",
           [](const PrefetchTable &t) {
               return static_cast<double>(t.prefetchesIssued());
           });
        // The buffer's tag mirrors are never reset (the functional
        // warm-up does not reach them).
        auto tags = [&](const char *name, const std::string &what,
                        std::uint64_t (AmbCache::*get)() const) {
            addF(g, name, what + ", whole run, timed warm-up included",
                 [&mc, get] {
                     std::uint64_t n = 0;
                     if (const PrefetchTable *t = mc.prefetchTable()) {
                         for (unsigned d = 0; d < t->numDimms(); ++d)
                             n += (t->dimm(d).*get)();
                     }
                     return static_cast<double>(n);
                 });
        };
        tags("pf_insertions", "lines inserted into the prefetch buffer",
             &AmbCache::insertions);
        tags("pf_evictions", "lines displaced from the prefetch buffer",
             &AmbCache::evictions);
        addF(g, "hit_conversions",
             "buffer hits whose line was evicted before service, so "
             "read from DRAM, measured window",
             [&mc] { return static_cast<double>(mc.hitConversions()); });

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
        bytes += mc->channelBytes();
        lat_weighted += mc->avgReadLatencyNs()
            * static_cast<double>(mc->readLatSamples());
        lat_samples += mc->readLatSamples();
        r.ops += mc->dramOps();
        if (const PrefetchTable *t = mc->prefetchTable()) {
            r.ambHits += t->prefetchHits();
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
        if (mc->prefetchTable())
            r.prefetch.policy = "region";
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

    const EventQueue::Counters &qc = eq.counters();
    r.kernel.eventsDispatched = qc.dispatched;
    r.kernel.schedules = qc.schedules;
    r.kernel.reschedules = qc.reschedules;
    r.kernel.deschedules = qc.deschedules;
    r.kernel.peakQueueDepth = qc.peakDepth;
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
