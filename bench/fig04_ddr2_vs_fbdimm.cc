/**
 * @file
 * Figure 4: SMT speedup of 1-, 2-, 4- and 8-core execution with DDR2
 * and FB-DIMM memory systems (no AMB prefetching).  Reference points
 * are the single-program runs on single-core DDR2, so the DDR2
 * single-core bars average 1.0 by construction.
 *
 * Shape targets from the paper: DDR2 slightly ahead at 1-2 cores
 * (-1.5 % / -0.6 % for FBD), FB-DIMM ahead at 4 and 8 cores
 * (+1.1 % / +6.0 %).
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
fig04(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    os << "== Figure 4: SMT speedup, DDR2 vs FB-DIMM ==\n\n";

    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        TextTable t({"workload", "DDR2", "FBD", "FBD vs DDR2"});
        double sum_d = 0.0, sum_f = 0.0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            RunResult d = p.run(p.prep(SystemConfig::ddr2()), mix);
            RunResult f = p.run(p.prep(SystemConfig::fbdBase()), mix);
            const double sd = p.smt(d, mix);
            const double sf = p.smt(f, mix);
            sum_d += sd;
            sum_f += sf;
            ++n;
            t.addRow({mix.name, fmtD(sd), fmtD(sf),
                      fmtPct(sf / sd - 1.0)});
        }
        t.addRow({"average", fmtD(sum_d / n), fmtD(sum_f / n),
                  fmtPct(sum_f / sum_d - 1.0)});
        os << cores << "-core workloads\n";
        t.print(os);
        os << "\n";
    }
}
