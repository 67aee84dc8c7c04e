/**
 * @file
 * Ablation A1: Variable Read Latency (VRL) on/off, with and without
 * AMB prefetching.  The paper states (Section 5) that the AMB-
 * prefetching improvement with VRL is "very similar" to without; this
 * bench verifies that claim in the model.
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
abl01(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    auto prep = [&](SystemConfig c, bool vrl) {
        c = p.prep(c);
        c.vrl = vrl;
        return c;
    };

    os << "== Ablation A1: variable read latency ==\n\n";

    TextTable t({"cores", "FBD", "FBD+VRL", "FBD-AP", "FBD-AP+VRL",
                 "AP gain", "AP gain w/ VRL"});
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        double f = 0, fv = 0, a = 0, av = 0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            f += p.run(prep(SystemConfig::fbdBase(), false),
                       mix).ipcSum();
            fv += p.run(prep(SystemConfig::fbdBase(), true),
                        mix).ipcSum();
            a += p.run(prep(SystemConfig::fbdAp(), false),
                       mix).ipcSum();
            av += p.run(prep(SystemConfig::fbdAp(), true),
                        mix).ipcSum();
            ++n;
        }
        t.addRow({std::to_string(cores), fmtD(f / n), fmtD(fv / n),
                  fmtD(a / n), fmtD(av / n), fmtPct(a / f - 1.0),
                  fmtPct(av / fv - 1.0)});
    }
    t.print(os);
}
