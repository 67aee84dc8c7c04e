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

#include <cstring>
#include <iostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

int
main(int argc, char **argv)
{
    using namespace fbdp;

    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick"))
            quick = true;
    }

    auto prep = [&](SystemConfig c, bool sp, bool ap) {
        c.warmupInsts = quick ? 20'000 : 50'000;
        c.measureInsts = quick ? 80'000 : 200'000;
        c.swPrefetch = sp;
        if (!ap) {
            c.ambPrefetch.policy = "none";
            c.scheme = Interleave::Cacheline;
        }
        applyInstsFromEnv(c);
        return c;
    };

    std::cout << "== Figure 12: AMB prefetching vs software prefetching "
                 "==\nSMT speedup relative to FB-DIMM with no "
                 "prefetching at all\n\n";

    TextTable t({"cores", "NONE", "AP", "SP", "AP+SP", "AP+SP vs "
                 "sum"});
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        double none = 0, ap = 0, sp = 0, both = 0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            none += runMix(prep(SystemConfig::fbdBase(), false, false),
                           mix).ipcSum();
            ap += runMix(prep(SystemConfig::fbdAp(), false, true),
                         mix).ipcSum();
            sp += runMix(prep(SystemConfig::fbdBase(), true, false),
                         mix).ipcSum();
            both += runMix(prep(SystemConfig::fbdAp(), true, true),
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
    t.print(std::cout);
    return 0;
}
