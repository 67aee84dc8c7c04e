/**
 * @file
 * fbdpsim — the command-line front end to the simulator.
 *
 *   ./example_fbdpsim [options]
 *
 * Options:
 *   --mix NAME        workload mix (default 2C-1; see Table 3 names,
 *                     or 1C-<bench> for single programs), or a trace
 *                     spec "trace:PATH" replaying a recorded trace
 *                     (text or .fbt, told apart by magic) on every
 *                     core — see --cores
 *   --cores N         cores replaying a trace spec (default 1; they
 *                     share one copy of the trace); only valid with
 *                     --mix trace:...
 *   --machine M       ddr2 | fbd | fbd-ap        (default fbd-ap)
 *   --channels N      logic channels             (default 2)
 *   --dimms N         DIMMs per channel          (default 4)
 *   --rate MT         533 | 667 | 800            (default 667)
 *   --k N             prefetch region lines      (default 4)
 *   --prefetch SPEC   the prefetch buffer, "region|none[,key=value]..."
 *                     with keys place (amb | mc, default amb) /
 *                     entries (default 64 at amb, 256 at mc) / ways,
 *                     e.g. --prefetch=region,place=mc,entries=128 (=
 *                     also accepted as a separate argument); replaces
 *                     the machine's buffer (fbd-ap: "region")
 *   --interleave I    line | multiline | page    (default by machine)
 *   --insts N         measured instructions      (default 400000)
 *   --warmup N        timed warm-up instructions (default insts/4)
 *   --seed N          workload seed              (default 1)
 *   --vrl             enable variable read latency
 *   --no-sp           disable software prefetching
 *   --no-refresh      disable DRAM auto-refresh
 *   --apfl            AMB prefetch with full latency (Fig. 9 mode)
 *   --verbose         append every statistic of the run, grouped per
 *                     core, L2 and channel; each description says
 *                     whether it covers the measured window or the
 *                     whole run
 *   --profile         append an event-kernel profile (events/sec,
 *                     simulated-insts/sec, queue + pool counters)
 *
 * Every run is serial; run independent configurations in parallel
 * with the sweep engine instead (FBDP_JOBS, see README.md).  Numeric
 * options must be whole decimal integers; anything else is fatal.
 *
 * Observability (all off by default; attaching them does not change
 * simulation results):
 *   --trace-out F     write a transaction-lifecycle trace as Chrome
 *                     trace_event JSON (load in Perfetto / about:tracing)
 *   --trace-filter S  restrict the trace, e.g. chan=0,kind=read|prefetch
 *                     (only with --trace-out)
 *   --telemetry-out F write per-epoch gauges; .csv extension selects
 *                     CSV, anything else JSON-lines
 *   --epoch T         telemetry epoch, e.g. 500ns / 1us / 2ms
 *                     (default 1us; only with --telemetry-out)
 *   --attribution     latency-phase attribution + stall cycle
 *                     accounting; appends a per-class phase table and
 *                     a per-core top-down cycle table
 *   --stats-json F    dump every statistic of the run (plus the
 *                     sweep-row / kernel / latency / breakdown
 *                     tables) as one JSON document — the input side
 *                     of tools/fbdp-report
 *   --manifest        embed the run manifest (build, git SHA, config
 *                     digest, seed, host, start time) in every output
 *                     written this run: stats JSON, telemetry header,
 *                     trace metadata
 *   --ledger F        append one cross-run ledger record (manifest +
 *                     headline metrics) to F after the run; trend
 *                     with fbdp-report --history F
 *   --version         print the build-info string and exit
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "common/parse.hh"
#include "power/power_model.hh"
#include "sim/trace.hh"
#include "system/ledger.hh"
#include "system/manifest.hh"
#include "system/metrics.hh"
#include "system/runner.hh"
#include "system/statsjson.hh"
#include "system/telemetry.hh"
#include "workload/mixes.hh"
#include "workload/trace_stream.hh"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--mix NAME] [--machine ddr2|fbd|fbd-ap] ...\n"
                 "see the header of examples/fbdpsim.cpp for the full "
                 "option list\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fbdp;

    std::string mix_name = "2C-1";
    std::string machine = "fbd-ap";
    std::string interleave;
    SystemConfig cfg = SystemConfig::fbdAp();
    std::uint64_t insts = 400'000;
    std::uint64_t warmup = 0;
    bool vrl = false, no_sp = false, no_refresh = false,
         apfl = false, verbose = false, profile = false,
         attribution = false,
         manifest_on = false;
    unsigned channels = 2, dimms = 4, rate = 667, k = 4,
             trace_cores = 1;
    std::uint64_t seed = 1;
    std::string trace_out, trace_filter, telemetry_out, epoch_spec,
        stats_json, prefetch_spec, ledger_out;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    // A numeric option's value: one whole decimal integer in
    // [lo, hi].  Whether the machine it describes can be built is
    // SystemConfig::controllerConfig()'s call.
    auto number = [&](int &i, long long lo, long long hi) {
        const char *opt = argv[i];
        return requireCount(opt, need(i), lo, hi);
    };
    constexpr long long maxU32 = 0xffffffffLL;
    constexpr long long maxU63 = 0x7fffffffffffffffLL;
    // "--prefetch=SPEC" form: specs contain commas, which shells
    // and scripts prefer to keep glued to the option.
    auto eqValue = [](const char *arg, const char *opt,
                      std::string &out) {
        const std::size_t n = std::strlen(opt);
        if (std::strncmp(arg, opt, n) != 0 || arg[n] != '=')
            return false;
        out = arg + n + 1;
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--mix"))
            mix_name = need(i);
        else if (!std::strcmp(a, "--cores"))
            trace_cores = static_cast<unsigned>(number(i, 0, 1024));
        else if (!std::strcmp(a, "--machine"))
            machine = need(i);
        else if (!std::strcmp(a, "--channels"))
            channels = static_cast<unsigned>(number(i, 0, maxU32));
        else if (!std::strcmp(a, "--dimms"))
            dimms = static_cast<unsigned>(number(i, 0, maxU32));
        else if (!std::strcmp(a, "--rate"))
            rate = static_cast<unsigned>(number(i, 0, maxU32));
        else if (!std::strcmp(a, "--k"))
            k = static_cast<unsigned>(number(i, 0, maxU32));
        else if (!std::strcmp(a, "--prefetch"))
            prefetch_spec = need(i);
        else if (eqValue(a, "--prefetch", prefetch_spec))
            ;
        else if (!std::strcmp(a, "--interleave"))
            interleave = need(i);
        else if (!std::strcmp(a, "--insts"))
            insts = static_cast<std::uint64_t>(number(i, 1, maxU63));
        else if (!std::strcmp(a, "--warmup"))
            warmup = static_cast<std::uint64_t>(number(i, 0, maxU63));
        else if (!std::strcmp(a, "--seed"))
            seed = static_cast<std::uint64_t>(number(i, 0, maxU63));
        else if (!std::strcmp(a, "--vrl"))
            vrl = true;
        else if (!std::strcmp(a, "--no-sp"))
            no_sp = true;
        else if (!std::strcmp(a, "--no-refresh"))
            no_refresh = true;
        else if (!std::strcmp(a, "--apfl"))
            apfl = true;
        else if (!std::strcmp(a, "--verbose"))
            verbose = true;
        else if (!std::strcmp(a, "--profile"))
            profile = true;
        else if (!std::strcmp(a, "--trace-out"))
            trace_out = need(i);
        else if (!std::strcmp(a, "--trace-filter"))
            trace_filter = need(i);
        else if (!std::strcmp(a, "--telemetry-out"))
            telemetry_out = need(i);
        else if (!std::strcmp(a, "--epoch"))
            epoch_spec = need(i);
        else if (!std::strcmp(a, "--attribution"))
            attribution = true;
        else if (!std::strcmp(a, "--stats-json"))
            stats_json = need(i);
        else if (!std::strcmp(a, "--manifest"))
            manifest_on = true;
        else if (!std::strcmp(a, "--ledger"))
            ledger_out = need(i);
        else if (!std::strcmp(a, "--version")) {
            std::cout << RunManifest::buildInfo() << "\n";
            return 0;
        } else
            usage(argv[0]);
    }

    if (machine == "ddr2")
        cfg = SystemConfig::ddr2();
    else if (machine == "fbd")
        cfg = SystemConfig::fbdBase();
    else if (machine == "fbd-ap")
        cfg = SystemConfig::fbdAp();
    else
        usage(argv[0]);

    if (!interleave.empty()) {
        if (interleave == "line")
            cfg.scheme = Interleave::Cacheline;
        else if (interleave == "multiline")
            cfg.scheme = Interleave::MultiCacheline;
        else if (interleave == "page")
            cfg.scheme = Interleave::Page;
        else
            usage(argv[0]);
    }

    cfg.logicChannels = channels;
    cfg.dimmsPerChannel = dimms;
    cfg.dataRate = rate;
    cfg.regionLines = k;
    if (!prefetch_spec.empty()) {
        cfg.prefetch = PrefetchConfig::parse(prefetch_spec);
        // Prefetching needs a region-preserving interleaving; switch
        // the plain presets over unless --interleave overrode it.
        if (cfg.prefetch.enabled && interleave.empty()
            && cfg.scheme == Interleave::Cacheline)
            cfg.scheme = Interleave::MultiCacheline;
    }
    cfg.vrl = vrl;
    cfg.swPrefetch = !no_sp;
    cfg.refreshEnable = !no_refresh;
    cfg.apFullLatency = apfl;
    cfg.measureInsts = insts;
    cfg.warmupInsts = warmup ? warmup : insts / 4;
    cfg.seed = seed;
    cfg.attribution = attribution;

    // A trace spec replaces the named mix: N cores (--cores) replay
    // the same file, sharing one stream cursor / loaded vector.
    WorkloadMix trace_mix;
    const bool trace_workload = TraceSpec::isTraceSpec(mix_name);
    if (trace_workload) {
        if (trace_cores < 1) {
            std::cerr << "fbdpsim: --cores must be at least 1\n";
            return 2;
        }
        const TraceSpec spec = TraceSpec::parse(mix_name);
        trace_mix.name = spec.canonicalName();
        trace_mix.benches.assign(trace_cores, mix_name);
    } else if (trace_cores != 1) {
        std::cerr << "fbdpsim: --cores only applies to --mix "
                     "trace:...\n";
        return 2;
    }
    const WorkloadMix &mix =
        trace_workload ? trace_mix : mixByName(mix_name);
    cfg.benchmarks = mix.benches;

    // A filter or epoch that would shape no output is a mistake, not
    // a no-op; both values are checked before anything is built or
    // any file is opened.
    if (!trace_filter.empty() && trace_out.empty()) {
        std::cerr << "fbdpsim: --trace-filter needs --trace-out\n";
        return 2;
    }
    if (!epoch_spec.empty() && telemetry_out.empty()) {
        std::cerr << "fbdpsim: --epoch needs --telemetry-out\n";
        return 2;
    }
    const trace::Filter filter = trace_filter.empty()
        ? trace::Filter{}
        : trace::Filter::parse(trace_filter);
    const Tick epoch = epoch_spec.empty()
        ? TelemetrySampler::defaultEpoch
        : TelemetrySampler::parseTimeSpec(epoch_spec);

    // Captured once the configuration is final, so the digest covers
    // exactly what the run will simulate.
    const RunManifest mft = RunManifest::capture(cfg);

    System sys(cfg);

    std::unique_ptr<trace::Tracer> tracer;
    if (!trace_out.empty()) {
        tracer = std::make_unique<trace::Tracer>(filter);
        sys.attachTracer(tracer.get());
    }

    std::ofstream telemetry_os;
    std::unique_ptr<TelemetrySampler> sampler;
    if (!telemetry_out.empty()) {
        telemetry_os.open(telemetry_out);
        if (!telemetry_os) {
            std::cerr << "fbdpsim: cannot open " << telemetry_out
                      << " for writing\n";
            return 1;
        }
        const bool csv = telemetry_out.size() >= 4
            && telemetry_out.compare(telemetry_out.size() - 4, 4,
                                     ".csv") == 0;
        sampler = std::make_unique<TelemetrySampler>(
            sys, epoch, telemetry_os,
            csv ? TelemetrySampler::Format::Csv
                : TelemetrySampler::Format::Jsonl);
        if (manifest_on)
            sampler->setManifest(mft);
        sampler->start();
    }

    RunResult r = sys.run();

    if (sampler)
        sampler->finish();
    if (tracer) {
        std::ofstream os(trace_out);
        if (!os) {
            std::cerr << "fbdpsim: cannot open " << trace_out
                      << " for writing\n";
            return 1;
        }
        tracer->exportJson(os, manifest_on ? mft.json()
                                           : std::string());
    }

    std::cout << "fbdpsim: " << machine << " / " << mix.name << " / "
              << channels << " logic channels @ " << rate
              << " MT/s\n\n";

    TextTable per_core({"core", "benchmark", "IPC", "insts"});
    for (size_t i = 0; i < r.ipc.size(); ++i) {
        // Trace specs print as "trace:PATH", however the spec was
        // spelled.
        per_core.addRow({std::to_string(i),
                         trace_workload ? trace_mix.name
                                        : mix.benches[i],
                         fmtD(r.ipc[i]),
                         std::to_string(r.insts[i])});
    }
    per_core.print(std::cout);

    std::cout << "\n";
    TextTable t({"metric", "value"});
    t.addRow({"IPC sum", fmtD(r.ipcSum())});
    t.addRow({"sim time (us)",
              fmtD(static_cast<double>(r.measuredTicks) * 1e-6, 1)});
    t.addRow({"avg read latency (ns)", fmtD(r.avgReadLatencyNs, 1)});
    t.addRow({"utilized bandwidth (GB/s)", fmtD(r.bandwidthGBs, 2)});
    t.addRow({"memory reads", std::to_string(r.reads)});
    t.addRow({"memory writes", std::to_string(r.writes)});
    t.addRow({"ACT/PRE pairs", std::to_string(r.ops.actPre)});
    t.addRow({"column accesses", std::to_string(r.ops.cas())});
    t.addRow({"refresh commands", std::to_string(r.ops.refresh)});
    const bool pf_on = cfg.prefetch.enabled;
    if (pf_on) {
        t.addRow({"prefetch coverage", fmtPct(r.coverage)});
    }
    t.addRow({"L2 hits", std::to_string(r.l2Hits)});
    t.addRow({"L2 misses", std::to_string(r.l2Misses)});
    t.addRow({"sw prefetches", std::to_string(r.swPrefetchesSent)});
    t.print(std::cout);

    std::cout << "\n";
    TextTable lat({"latency percentiles", "samples", "p50 (ns)",
                   "p95 (ns)", "p99 (ns)"});
    auto latRow = [&lat](const char *what,
                         const LatencyClassStats &s) {
        lat.addRow({what, std::to_string(s.samples), fmtD(s.p50Ns, 1),
                    fmtD(s.p95Ns, 1), fmtD(s.p99Ns, 1)});
    };
    latRow("demand read", r.latDemand);
    latRow("prefetch-hit read", r.latPrefHit);
    latRow("write", r.latWrite);
    lat.print(std::cout);
    if (pf_on) {
        // The prefetch quality block: what the region fetches brought
        // in and what became of it (mirrors --stats-json's "prefetch").
        std::cout << "\n";
        TextTable pf({"prefetch buffer (region fetch)", "value"});
        pf.addRow({"lines issued", std::to_string(r.prefetch.issued)});
        pf.addRow({"useful (hits)", std::to_string(r.prefetch.hits)});
        pf.addRow({"late hits (fill still in flight)",
                   std::to_string(r.prefetch.lateHits)});
        pf.addRow({"dropped candidates",
                   std::to_string(r.prefetch.dropped)});
        pf.addRow({"evicted unused",
                   std::to_string(r.prefetch.evictedUnused)});
        pf.addRow({"invalidated unused",
                   std::to_string(r.prefetch.invalidatedUnused)});
        pf.addRow({"accuracy", fmtPct(r.efficiency)});
        pf.addRow({"lateness", fmtPct(r.prefetch.lateness())});
        pf.addRow({"pollution", fmtPct(r.prefetch.pollution())});
        pf.print(std::cout);
    }

    if (r.attribution.enabled) {
        // Where each transaction class spends its latency.  Phase
        // means sum to the total mean by construction, so the table
        // reads top-down: the widest column is the bottleneck.
        std::cout << "\n";
        std::vector<std::string> hdr{"latency phases (mean ns)",
                                     "samples", "total"};
        for (unsigned p = 0; p < numLatPhases; ++p)
            hdr.push_back(latPhaseName(static_cast<LatPhase>(p)));
        TextTable ph(hdr);
        auto phaseRow = [&ph](const std::string &label,
                              const ClassPhaseBreakdown &c) {
            std::vector<std::string> row{
                label, std::to_string(c.samples),
                fmtD(c.meanTotalNs(), 1)};
            for (unsigned p = 0; p < numLatPhases; ++p)
                row.push_back(fmtD(c.meanPhaseNs(p), 1));
            ph.addRow(std::move(row));
        };
        for (unsigned c = 0; c < numLatClasses; ++c) {
            phaseRow(latClassName(static_cast<LatClass>(c)),
                     r.attribution.total.cls[c]);
        }
        if (r.attribution.channels.size() > 1) {
            for (size_t ch = 0; ch < r.attribution.channels.size();
                 ++ch) {
                for (unsigned c = 0; c < numLatClasses; ++c) {
                    phaseRow(
                        "ch" + std::to_string(ch) + "."
                            + latClassName(static_cast<LatClass>(c)),
                        r.attribution.channels[ch].cls[c]);
                }
            }
        }
        ph.print(std::cout);

        // Per-core top-down cycle accounting: base work vs stalls,
        // each stall reason split by the phase of the transaction
        // that ended it.
        for (size_t i = 0; i < r.attribution.cores.size(); ++i) {
            const CoreCycleBreakdown &cb = r.attribution.cores[i];
            const double window =
                static_cast<double>(cb.windowTicks);
            auto cyc = [](Tick t) {
                return std::to_string(t / cpuCyclePs);
            };
            auto pct = [window](Tick t) {
                return window > 0.0
                    ? fmtPct(static_cast<double>(t) / window)
                    : fmtPct(0.0);
            };
            std::cout << "\n";
            TextTable ct({"core " + std::to_string(i) + " cycles",
                          "cycles", "% of window"});
            ct.addRow({"window", cyc(cb.windowTicks), pct(cb.windowTicks)});
            ct.addRow({"base (non-stalled)", cyc(cb.baseTicks()),
                       pct(cb.baseTicks())});
            for (unsigned reas = 0;
                 reas < CoreStallAttribution::numReasons; ++reas) {
                if (!cb.stall[reas])
                    continue;
                const std::string rn = stallReasonName(reas);
                ct.addRow({rn + " stall", cyc(cb.stall[reas]),
                           pct(cb.stall[reas])});
                for (unsigned p = 0; p < numLatPhases; ++p) {
                    const Tick t = cb.att.byPhase[reas][p];
                    if (!t)
                        continue;
                    ct.addRow({"  " + rn + "."
                                   + latPhaseName(
                                       static_cast<LatPhase>(p)),
                               cyc(t), pct(t)});
                }
                if (cb.att.l2Wait[reas]) {
                    ct.addRow({"  " + rn + ".l2_wait",
                               cyc(cb.att.l2Wait[reas]),
                               pct(cb.att.l2Wait[reas])});
                }
                if (cb.att.unattributed[reas]) {
                    ct.addRow({"  " + rn + ".other",
                               cyc(cb.att.unattributed[reas]),
                               pct(cb.att.unattributed[reas])});
                }
            }
            ct.print(std::cout);
        }
    }

    if (sampler) {
        std::cout << "\ntelemetry: " << sampler->records()
                  << " epoch records ("
                  << fmtD(static_cast<double>(sampler->epochTicks())
                              / 1e3, 1)
                  << " ns each) -> " << telemetry_out << "\n";
    }
    if (tracer) {
        std::cout << "trace: " << tracer->recorded()
                  << " events recorded, " << tracer->dropped()
                  << " dropped -> " << trace_out << "\n";
    }

    if (profile) {
        const KernelProfile &k = r.kernel;
        std::cout << "\n";
        TextTable p({"kernel profile", "value"});
        p.addRow({"host time, event phases (ms)",
                  fmtD(k.hostEventSeconds * 1e3, 1)});
        p.addRow({"events dispatched",
                  std::to_string(k.eventsDispatched)});
        p.addRow({"events/sec", fmtD(k.eventsPerSec() / 1e6, 2) + "M"});
        p.addRow({"simulated insts (run total)",
                  std::to_string(r.runInsts)});
        p.addRow({"simulated insts/sec",
                  fmtD(r.instsPerHostSec() / 1e6, 2) + "M"});
        p.addRow({"queue schedules", std::to_string(k.schedules)});
        p.addRow({"queue reschedules",
                  std::to_string(k.reschedules)});
        p.addRow({"queue deschedules",
                  std::to_string(k.deschedules)});
        p.addRow({"peak queue depth",
                  std::to_string(k.peakQueueDepth)});
        p.addRow({"pool acquires", std::to_string(k.poolAcquires)});
        p.addRow({"pool reuses", std::to_string(k.poolReuses)});
        p.addRow({"pool high water",
                  std::to_string(k.poolHighWater)});
        p.addRow({"pool capacity", std::to_string(k.poolCapacity)});
        p.print(std::cout);
    }

    if (!stats_json.empty() || !ledger_out.empty()) {
        SweepRow row;
        row.config = machine;
        row.mix = mix.name;
        row.seed = seed;
        row.result = r;
        if (!stats_json.empty()) {
            std::ofstream os(stats_json);
            if (!os) {
                std::cerr << "fbdpsim: cannot open " << stats_json
                          << " for writing\n";
                return 1;
            }
            writeRunStatsJson(sys, row, os,
                              manifest_on ? &mft : nullptr);
            std::cout << "\nstats: full dump -> " << stats_json
                      << "\n";
        }
        if (!ledger_out.empty()) {
            std::string err;
            if (!appendLedgerRecord(ledger_out,
                                    ledgerRecordJson(mft, row),
                                    &err)) {
                std::cerr << "fbdpsim: " << err << "\n";
                return 1;
            }
            std::cout << "ledger: record appended -> " << ledger_out
                      << "\n";
        }
    }

    if (verbose) {
        std::cout << "\n";
        sys.report(std::cout);
    }
    return 0;
}
