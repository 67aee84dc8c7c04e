/**
 * @file
 * Figure 9: decomposing the AMB-prefetching gain into its two sources
 * by comparing
 *   FBD      — FB-DIMM without prefetching,
 *   FBD-APFL — AMB prefetching with Full Latency: hits avoid DRAM
 *              bank activity (activation/column access) but pay the
 *              full miss idle latency, isolating the bandwidth-
 *              utilisation gain, and
 *   FBD-AP   — full AMB prefetching.
 *
 * (FBD-APFL - FBD) = gain from better bandwidth utilisation;
 * (FBD-AP - FBD-APFL) = gain from idle-latency reduction.
 *
 * Shape targets: both sources comparable (paper: 8-10 % vs 5-9 %);
 * at eight cores the bandwidth share exceeds the latency share.
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
fig09(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    os << "== Figure 9: decomposition of the performance gain "
          "==\n\n";

    TextTable t({"cores", "FBD", "FBD-APFL", "FBD-AP",
                 "bandwidth gain", "latency gain"});
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        double s_fbd = 0.0, s_fl = 0.0, s_ap = 0.0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            s_fbd += p.smt(p.run(p.prep(SystemConfig::fbdBase()), mix),
                           mix);
            SystemConfig fl = p.prep(SystemConfig::fbdAp());
            fl.apFullLatency = true;
            s_fl += p.smt(p.run(fl, mix), mix);
            s_ap += p.smt(p.run(p.prep(SystemConfig::fbdAp()), mix),
                          mix);
            ++n;
        }
        s_fbd /= n;
        s_fl /= n;
        s_ap /= n;
        t.addRow({std::to_string(cores), fmtD(s_fbd), fmtD(s_fl),
                  fmtD(s_ap), fmtPct(s_fl / s_fbd - 1.0),
                  fmtPct(s_ap / s_fl - 1.0)});
    }
    t.print(os);
}
