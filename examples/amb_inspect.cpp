/**
 * @file
 * Diagnostic example: detailed AMB-prefetching internals for one
 * workload mix — insertions, evictions, hit conversions, coverage,
 * efficiency, DRAM operation mix — useful for understanding *why* the
 * prefetcher behaves as it does on a given workload.
 *
 *   ./example_amb_inspect [mix-name] [insts] [K] [entries] [ways]
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

int
main(int argc, char **argv)
{
    using namespace fbdp;

    const std::string mix_name = argc > 1 ? argv[1] : "8C-1";
    const std::uint64_t insts = argc > 2
        ? static_cast<std::uint64_t>(std::atoll(argv[2]))
        : 300'000;

    SystemConfig cfg = SystemConfig::fbdAp();
    if (argc > 3)
        cfg.regionLines = static_cast<unsigned>(std::atoi(argv[3]));
    if (argc > 4)
        cfg.prefetch.entries =
            static_cast<unsigned>(std::atoi(argv[4]));
    if (argc > 5)
        cfg.prefetch.ways =
            static_cast<unsigned>(std::atoi(argv[5]));
    cfg.warmupInsts = insts / 4;
    cfg.measureInsts = insts;
    applyInstsFromEnv(cfg);

    const WorkloadMix &mix = mixByName(mix_name);
    cfg.benchmarks = mix.benches;

    System sys(cfg);
    RunResult r = sys.run();

    std::cout << "mix " << mix.name << "  K=" << cfg.regionLines
              << " entries=" << cfg.prefetch.entries
              << " ways="
              << (cfg.prefetch.ways ? cfg.prefetch.ways : 999)
              << "\n\n";

    std::uint64_t ins = 0, ev = 0, conv = 0, pf = 0, hits = 0,
                  reads = 0;
    for (unsigned c = 0; c < sys.numControllers(); ++c) {
        const auto &mc = sys.controller(c);
        conv += mc.hitConversions();
        const PrefetchTable *t = mc.prefetchTable();
        if (!t)
            continue;
        pf += t->prefetchesIssued();
        hits += t->prefetchHits();
        reads += t->reads();
        for (unsigned d = 0; d < t->numDimms(); ++d) {
            ins += t->dimm(d).insertions();
            ev += t->dimm(d).evictions();
        }
    }

    TextTable t({"metric", "value"});
    t.addRow({"IPC sum", fmtD(r.ipcSum())});
    t.addRow({"bandwidth GB/s", fmtD(r.bandwidthGBs, 2)});
    t.addRow({"avg read latency ns", fmtD(r.avgReadLatencyNs, 1)});
    t.addRow({"memory reads", std::to_string(r.reads)});
    t.addRow({"memory writes", std::to_string(r.writes)});
    t.addRow({"AP reads (table)", std::to_string(reads)});
    t.addRow({"prefetch lines issued", std::to_string(pf)});
    t.addRow({"prefetch hits", std::to_string(hits)});
    t.addRow({"coverage", fmtPct(r.coverage)});
    t.addRow({"efficiency", fmtPct(r.efficiency)});
    t.addRow({"tag insertions", std::to_string(ins)});
    t.addRow({"tag evictions", std::to_string(ev)});
    t.addRow({"hit->miss conversions", std::to_string(conv)});
    t.addRow({"ACT/PRE pairs", std::to_string(r.ops.actPre)});
    t.addRow({"column accesses", std::to_string(r.ops.cas())});
    t.addRow({"sw prefetches sent", std::to_string(r.swPrefetchesSent)});
    t.addRow({"sw prefetches dropped",
              std::to_string(sys.hierarchy().prefetchesDropped())});
    t.addRow({"hier mem reads (demand)",
              std::to_string(sys.hierarchy().memReads())});
    t.addRow({"hier mem writes",
              std::to_string(sys.hierarchy().memWrites())});
    t.addRow({"load-miss reads",
              std::to_string(sys.hierarchy().loadMissReads())});
    t.addRow({"store-miss reads (RFO)",
              std::to_string(sys.hierarchy().storeMissReads())});
    t.addRow({"L2 hits", std::to_string(r.l2Hits)});
    t.addRow({"L2 misses", std::to_string(r.l2Misses)});

    std::uint64_t sOps = 0, sCross = 0, hOps = 0, cOps = 0, pOps = 0;
    for (unsigned i = 0; i < static_cast<unsigned>(r.ipc.size()); ++i) {
        const auto &g = sys.syntheticGenerator(i);
        sOps += g.streamOps();
        sCross += g.streamLineCrossings();
        hOps += g.hotOps();
        cOps += g.coldOps();
        pOps += g.prefetchOps();
    }
    t.addRow({"gen stream ops", std::to_string(sOps)});
    t.addRow({"gen stream crossings", std::to_string(sCross)});
    t.addRow({"gen hot ops", std::to_string(hOps)});
    t.addRow({"gen cold ops", std::to_string(cOps)});
    t.addRow({"gen prefetch ops", std::to_string(pOps)});

    Tick rob = 0, lq = 0, sq = 0, mshr = 0;
    for (unsigned i = 0; i < static_cast<unsigned>(r.ipc.size()); ++i) {
        rob += sys.core(i).robStallTicks();
        lq += sys.core(i).lqStallTicks();
        sq += sys.core(i).sqStallTicks();
        mshr += sys.core(i).mshrStallTicks();
    }
    const double per = static_cast<double>(r.ipc.size())
        * static_cast<double>(r.measuredTicks) / 100.0;
    t.addRow({"ROB stall %", fmtD(static_cast<double>(rob) / per, 1)});
    t.addRow({"LQ stall %", fmtD(static_cast<double>(lq) / per, 1)});
    t.addRow({"SQ stall %", fmtD(static_cast<double>(sq) / per, 1)});
    t.addRow({"MSHR stall %",
              fmtD(static_cast<double>(mshr) / per, 1)});
    t.print(std::cout);
    return 0;
}
