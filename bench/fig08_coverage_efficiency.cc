/**
 * @file
 * Figure 8: AMB-prefetch coverage (#prefetch_hit / #read) and
 * efficiency (#prefetch_hit / #prefetch) while varying
 *   - the region size / interleaving granularity K (#CL = 2/4/8),
 *   - the AMB cache size (#entry = 32/64/128), and
 *   - the set associativity (1 / 2 / 4 / full),
 * per core-count group, averaged over the group's workloads.
 *
 * Shape targets: ~50 % coverage at K=4 (upper bound 75 %); larger K
 * raises coverage but lowers efficiency; more entries or associativity
 * help both.
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
fig08(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    struct Variant {
        const char *name;
        unsigned k, entries, ways;
    };
    // Default: #CL=4, #entry=64, fully associative (ways=0).
    const Variant variants[] = {
        {"#CL=2", 2, 64, 0},
        {"#CL=4", 4, 64, 0},
        {"#CL=8", 8, 64, 0},
        {"#entry=32", 4, 32, 0},
        {"#entry=64", 4, 64, 0},
        {"#entry=128", 4, 128, 0},
        {"Set=1(direct)", 4, 64, 1},
        {"Set=2", 4, 64, 2},
        {"Set=4", 4, 64, 4},
        {"Set=Full", 4, 64, 0},
    };

    os << "== Figure 8: prefetch coverage and efficiency ==\n\n";

    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        TextTable t({"variant", "coverage", "efficiency"});
        for (const auto &v : variants) {
            double cov = 0.0, eff = 0.0;
            unsigned n = 0;
            for (const auto &mix : mixesFor(cores)) {
                SystemConfig c = p.prep(SystemConfig::fbdAp());
                c.regionLines = v.k;
                c.prefetch.entries = v.entries;
                c.prefetch.ways = v.ways;
                RunResult r = p.run(c, mix);
                cov += r.coverage;
                eff += r.efficiency;
                ++n;
            }
            t.addRow({v.name, fmtPct(cov / n), fmtPct(eff / n)});
        }
        os << cores << "-core average\n";
        t.print(os);
        os << "\n";
    }
}
