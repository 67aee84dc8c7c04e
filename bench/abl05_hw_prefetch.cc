/**
 * @file
 * Ablation A5: hardware prefetching (Section 5.4's speculation).
 *
 * The paper evaluates AMB prefetching against *software* cache
 * prefetching only and conjectures that "AMB prefetching will improve
 * performance similarly if hardware prefetching is used".  This bench
 * tests that: an L2 stream prefetcher replaces the compiler
 * prefetches (SP off), and AMB prefetching is measured on top of it.
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

    auto prep = [&](SystemConfig c, bool hw, bool ap) {
        c.warmupInsts = quick ? 20'000 : 50'000;
        c.measureInsts = quick ? 80'000 : 200'000;
        c.swPrefetch = false;  // isolate the hardware prefetcher
        c.hier.hwPrefetch.enable = hw;
        if (!ap) {
            c.ambPrefetch.policy = "none";
            c.scheme = Interleave::Cacheline;
        }
        applyInstsFromEnv(c);
        return c;
    };

    std::cout << "== Ablation A5: AMB prefetching under hardware "
                 "stream prefetching ==\n(software prefetching off; "
                 "speedup relative to plain FBD)\n\n";

    TextTable t({"cores", "FBD", "FBD+HWP", "FBD-AP", "FBD-AP+HWP",
                 "AP gain", "AP gain w/ HWP"});
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        double f = 0, fh = 0, a = 0, ah = 0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            f += runMix(prep(SystemConfig::fbdBase(), false, false),
                        mix).ipcSum();
            fh += runMix(prep(SystemConfig::fbdBase(), true, false),
                         mix).ipcSum();
            a += runMix(prep(SystemConfig::fbdAp(), false, true),
                        mix).ipcSum();
            ah += runMix(prep(SystemConfig::fbdAp(), true, true),
                         mix).ipcSum();
            ++n;
        }
        t.addRow({std::to_string(cores), fmtD(f / n), fmtD(fh / n),
                  fmtD(a / n), fmtD(ah / n), fmtPct(a / f - 1.0),
                  fmtPct(ah / fh - 1.0)});
    }
    t.print(std::cout);
    std::cout << "\nThe paper's conjecture holds if the two AP-gain "
                 "columns are similar.\n";
    return 0;
}
