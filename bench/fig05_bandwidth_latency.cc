/**
 * @file
 * Figure 5: average utilized bandwidth (x) vs average memory latency
 * (y) for DDR2 and FB-DIMM, per workload.  The paper's shape: at one
 * core FB-DIMM shows slightly higher latency at equal bandwidth; at
 * eight cores FB-DIMM sustains more bandwidth at lower latency.
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
fig05(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    os << "== Figure 5: utilized bandwidth vs average latency, "
          "DDR2 vs FB-DIMM ==\n\n";

    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        TextTable t({"workload", "DDR2 GB/s", "DDR2 lat ns",
                     "FBD GB/s", "FBD lat ns"});
        double bw_d = 0, lat_d = 0, bw_f = 0, lat_f = 0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            RunResult d = p.run(p.prep(SystemConfig::ddr2()), mix);
            RunResult f = p.run(p.prep(SystemConfig::fbdBase()), mix);
            bw_d += d.bandwidthGBs;
            lat_d += d.avgReadLatencyNs;
            bw_f += f.bandwidthGBs;
            lat_f += f.avgReadLatencyNs;
            ++n;
            t.addRow({mix.name, fmtD(d.bandwidthGBs, 2),
                      fmtD(d.avgReadLatencyNs, 1),
                      fmtD(f.bandwidthGBs, 2),
                      fmtD(f.avgReadLatencyNs, 1)});
        }
        t.addRow({"average", fmtD(bw_d / n, 2), fmtD(lat_d / n, 1),
                  fmtD(bw_f / n, 2), fmtD(lat_f / n, 1)});
        os << cores << "-core workloads\n";
        t.print(os);
        os << "\n";
    }
}
