/**
 * @file
 * Figure 12: interaction of AMB prefetching (AP) and software cache
 * prefetching (SP).  Four machines per group — no prefetching, AP
 * only, SP only, AP+SP — reported as SMT speedup relative to the
 * no-prefetching FB-DIMM, averaged per group.
 *
 * Shape targets: SP alone beats AP alone at 1-4 cores but falls below
 * it at 8 cores (software prefetches turn late/bandwidth-hungry);
 * AP+SP is close to the sum of the individual gains (the mechanisms
 * are complementary, not overlapping).
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
fig12(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    auto prep = [&](SystemConfig c, bool sp, bool ap) {
        c = p.prep(c);
        c.swPrefetch = sp;
        if (!ap) {
            c.prefetch.policy = "none";
            c.scheme = Interleave::Cacheline;
        }
        return c;
    };

    os << "== Figure 12: AMB prefetching vs software prefetching "
          "==\nSMT speedup relative to FB-DIMM with no "
          "prefetching at all\n\n";

    TextTable t({"cores", "NONE", "AP", "SP", "AP+SP", "AP+SP vs "
                 "sum"});
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        double none = 0, ap = 0, sp = 0, both = 0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            none += p.run(prep(SystemConfig::fbdBase(), false, false),
                          mix).ipcSum();
            ap += p.run(prep(SystemConfig::fbdAp(), false, true),
                        mix).ipcSum();
            sp += p.run(prep(SystemConfig::fbdBase(), true, false),
                        mix).ipcSum();
            both += p.run(prep(SystemConfig::fbdAp(), true, true),
                          mix).ipcSum();
            ++n;
        }
        const double r_ap = ap / none;
        const double r_sp = sp / none;
        const double r_both = both / none;
        const double sum = 1.0 + (r_ap - 1.0) + (r_sp - 1.0);
        t.addRow({std::to_string(cores), "1.000", fmtD(r_ap),
                  fmtD(r_sp), fmtD(r_both),
                  fmtPct(r_both / sum - 1.0)});
    }
    t.print(os);
}
