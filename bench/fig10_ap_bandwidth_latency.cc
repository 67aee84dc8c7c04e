/**
 * @file
 * Figure 10: average utilized bandwidth vs average memory latency for
 * FB-DIMM with (FBD-AP) and without (FBD) AMB prefetching, per
 * workload.
 *
 * Shape target: for every workload FBD-AP sustains *more* bandwidth at
 * *lower* latency — the AMB cache removes DRAM bank conflicts from the
 * critical path and serves hits 30 ns sooner.
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
fig10(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    os << "== Figure 10: bandwidth vs latency, FBD vs FBD-AP "
          "==\n\n";

    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        TextTable t({"workload", "FBD GB/s", "FBD lat ns",
                     "AP GB/s", "AP lat ns"});
        double bw_f = 0, lat_f = 0, bw_a = 0, lat_a = 0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            RunResult f = p.run(p.prep(SystemConfig::fbdBase()), mix);
            RunResult a = p.run(p.prep(SystemConfig::fbdAp()), mix);
            bw_f += f.bandwidthGBs;
            lat_f += f.avgReadLatencyNs;
            bw_a += a.bandwidthGBs;
            lat_a += a.avgReadLatencyNs;
            ++n;
            t.addRow({mix.name, fmtD(f.bandwidthGBs, 2),
                      fmtD(f.avgReadLatencyNs, 1),
                      fmtD(a.bandwidthGBs, 2),
                      fmtD(a.avgReadLatencyNs, 1)});
        }
        t.addRow({"average", fmtD(bw_f / n, 2), fmtD(lat_f / n, 1),
                  fmtD(bw_a / n, 2), fmtD(lat_a / n, 1)});
        os << cores << "-core workloads\n";
        t.print(os);
        os << "\n";
    }
}
