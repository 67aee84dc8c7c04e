/**
 * @file
 * Ablation A3: memory-controller scheduling knobs — the write-drain
 * thresholds.  Sweeps the high watermark (the paper's controller
 * schedules reads before writes "unless the number of outstanding
 * write requests is above a certain threshold") and reports FB-DIMM
 * throughput and latency per group.
 *
 * Each threshold is one FB-DIMM configuration run on every mix of the
 * core-count group; fbdp-paper runs those cells with the rest of the
 * suite's on its worker pool (FBDP_JOBS).
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
abl03(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    os << "== Ablation A3: write-drain threshold sweep ==\n\n";

    TextTable t({"cores", "drain@8", "drain@16", "drain@32",
                 "drain@48"});
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        std::vector<std::string> line{std::to_string(cores)};
        for (unsigned high : {8u, 16u, 32u, 48u}) {
            SystemConfig c = p.prep(SystemConfig::fbdBase());
            c.writeDrainHigh = high;
            c.writeDrainLow = high / 4;
            double sum = 0.0;
            unsigned n = 0;
            for (const auto &mix : mixesFor(cores)) {
                sum += p.run(c, mix).ipcSum();
                ++n;
            }
            line.push_back(fmtD(sum / n));
        }
        t.addRow(line);
    }
    t.print(os);
}
