/**
 * @file
 * Figure 7: SMT speedup of FB-DIMM with and without AMB prefetching,
 * per workload, for 1-, 2-, 4- and 8-core machines.  Reference points
 * are the single-program runs on single-core two-channel DDR2, as in
 * the paper.
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
fig07(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    os << "== Figure 7: performance of AMB prefetching "
          "(FBD vs FBD-AP) ==\n"
       << "SMT speedup relative to single-core DDR2 "
          "references\n\n";

    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        TextTable t({"workload", "FBD", "FBD-AP", "gain"});
        double sum_fbd = 0.0, sum_ap = 0.0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            RunResult fbd = p.run(p.prep(SystemConfig::fbdBase()), mix);
            RunResult ap = p.run(p.prep(SystemConfig::fbdAp()), mix);
            const double s_fbd = p.smt(fbd, mix);
            const double s_ap = p.smt(ap, mix);
            sum_fbd += s_fbd;
            sum_ap += s_ap;
            ++n;
            t.addRow({mix.name, fmtD(s_fbd), fmtD(s_ap),
                      fmtPct(s_ap / s_fbd - 1.0)});
        }
        t.addRow({"average", fmtD(sum_fbd / n), fmtD(sum_ap / n),
                  fmtPct(sum_ap / sum_fbd - 1.0)});
        os << cores << "-core workloads\n";
        t.print(os);
        os << "\n";
    }
}
