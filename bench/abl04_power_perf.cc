/**
 * @file
 * Ablation A4: the power/performance balance the paper leaves as
 * future work (Section 5.5: "we plan to study the trade off in the
 * future ... the prefetch buffer with four-way associativity, 64
 * cache lines and using four-cacheline interleaving mode is a good
 * choice").  Sweeps the design space and prints speedup vs relative
 * DRAM energy so the Pareto frontier is visible; flags the paper's
 * recommended point.
 *
 * The 36 variants run on every mix of the 1- and 4-core groups, next
 * to one FB-DIMM baseline per mix: 666 cells, which fbdp-paper runs
 * with the rest of the suite's on its worker pool (FBDP_JOBS).
 */

#include <ostream>

#include "power/power_model.hh"
#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
abl04(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    PowerModel pm;

    os << "== Ablation A4: power/performance balance "
          "(paper Section 5.5 future work) ==\n\n";

    struct Variant
    {
        unsigned k, entries, ways;
    };
    std::vector<Variant> variants;
    for (unsigned k : {2u, 4u, 8u})
        for (unsigned entries : {32u, 64u, 128u})
            for (unsigned ways : {1u, 2u, 4u, 0u})
                variants.push_back({k, entries, ways});

    for (unsigned cores : {1u, 4u}) {
        const auto &group = mixesFor(cores);
        const unsigned nMixes = static_cast<unsigned>(group.size());

        // Baselines per group, one cell per mix.
        std::vector<RunResult> bases;
        double base_perf = 0.0;
        for (const auto &mix : group) {
            bases.push_back(p.run(p.prep(SystemConfig::fbdBase()), mix));
            base_perf += bases.back().ipcSum();
        }

        TextTable t({"K", "entries", "ways", "speedup",
                     "rel. energy", "note"});
        for (const Variant &v : variants) {
            double perf = 0.0, energy = 0.0;
            for (unsigned i = 0; i < nMixes; ++i) {
                SystemConfig c = p.prep(SystemConfig::fbdAp());
                c.regionLines = v.k;
                c.prefetch.entries = v.entries;
                c.prefetch.ways = v.ways;
                const RunResult r = p.run(c, group[i]);
                perf += r.ipcSum();
                energy += pm.relativeDynamicEnergy(
                    r.ops, r.totalInsts(), bases[i].ops,
                    bases[i].totalInsts());
            }
            const bool recommended =
                v.k == 4 && v.entries == 64 && v.ways == 4;
            t.addRow({std::to_string(v.k),
                      std::to_string(v.entries),
                      v.ways ? std::to_string(v.ways) : "full",
                      fmtPct(perf / base_perf - 1.0),
                      fmtD(energy / nMixes),
                      recommended ? "<- paper pick" : ""});
        }
        os << cores << "-core average\n";
        t.print(os);
        os << "\n";
    }
}
