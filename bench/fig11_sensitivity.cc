/**
 * @file
 * Figure 11: sensitivity of AMB-prefetching performance to the region
 * size (#CL = 2/4/8), prefetch-buffer size (32/64/128 lines) and set
 * associativity (direct/2/4/full), normalised to the default setting
 * (#CL=4, 64 entries, fully associative), per core-count group.
 *
 * Shape targets: 1- and 2-core workloads like larger K; 4- and 8-core
 * prefer K=4.  Buffer sizes 32-128 perform closely.  Two-way reaches
 * >= 98 % of fully associative; direct-mapped drops to ~87-95 %.
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
fig11(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    struct Variant {
        const char *name;
        unsigned k, entries, ways;
    };
    const Variant variants[] = {
        {"#CL=2", 2, 64, 0},
        {"#CL=4 (default)", 4, 64, 0},
        {"#CL=8", 8, 64, 0},
        {"#entry=32", 4, 32, 0},
        {"#entry=64 (default)", 4, 64, 0},
        {"#entry=128", 4, 128, 0},
        {"direct-mapped", 4, 64, 1},
        {"2-way", 4, 64, 2},
        {"4-way", 4, 64, 4},
        {"full (default)", 4, 64, 0},
    };

    os << "== Figure 11: sensitivity to AP configuration ==\n"
       << "throughput (sum of IPCs) normalised to the default "
          "setting\n\n";

    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        // Default baseline per group.
        double base = 0.0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            base += p.run(p.prep(SystemConfig::fbdAp()), mix).ipcSum();
            ++n;
        }
        base /= n;

        TextTable t({"variant", "relative performance"});
        for (const auto &v : variants) {
            double s = 0.0;
            for (const auto &mix : mixesFor(cores)) {
                SystemConfig c = p.prep(SystemConfig::fbdAp());
                c.regionLines = v.k;
                c.prefetch.entries = v.entries;
                c.prefetch.ways = v.ways;
                s += p.run(c, mix).ipcSum();
            }
            s /= n;
            t.addRow({v.name, fmtD(s / base)});
        }
        os << cores << "-core average\n";
        t.print(os);
        os << "\n";
    }
}
