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

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
abl05(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    auto prep = [&](SystemConfig c, bool hw, bool ap) {
        c = p.prep(c);
        c.swPrefetch = false;  // isolate the hardware prefetcher
        c.hier.hwPrefetch.enable = hw;
        if (!ap) {
            c.prefetch.enabled = false;
            c.scheme = Interleave::Cacheline;
        }
        return c;
    };

    os << "== Ablation A5: AMB prefetching under hardware "
          "stream prefetching ==\n(software prefetching off; "
          "speedup relative to plain FBD)\n\n";

    TextTable t({"cores", "FBD", "FBD+HWP", "FBD-AP", "FBD-AP+HWP",
                 "AP gain", "AP gain w/ HWP"});
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        double f = 0, fh = 0, a = 0, ah = 0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            f += p.run(prep(SystemConfig::fbdBase(), false, false),
                       mix).ipcSum();
            fh += p.run(prep(SystemConfig::fbdBase(), true, false),
                        mix).ipcSum();
            a += p.run(prep(SystemConfig::fbdAp(), false, true),
                       mix).ipcSum();
            ah += p.run(prep(SystemConfig::fbdAp(), true, true),
                        mix).ipcSum();
            ++n;
        }
        t.addRow({std::to_string(cores), fmtD(f / n), fmtD(fh / n),
                  fmtD(a / n), fmtD(ah / n), fmtPct(a / f - 1.0),
                  fmtPct(ah / fh - 1.0)});
    }
    t.print(os);
    os << "\nThe paper's conjecture holds if the two AP-gain "
          "columns are similar.\n";
}
