/**
 * @file
 * Quickstart: build the paper's three machines (DDR2, FB-DIMM, and
 * FB-DIMM with AMB prefetching), run one memory-intensive workload on
 * each, and print the headline comparison.
 *
 *   ./example_quickstart [mix-name] [insts]
 *
 * Default mix: 2C-1 (wupwise + swim), 400k measured instructions.
 */

#include <iostream>
#include <string>

#include "common/parse.hh"
#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

int
main(int argc, char **argv)
{
    using namespace fbdp;

    const std::string mix_name = argc > 1 ? argv[1] : "2C-1";
    const std::uint64_t insts = argc > 2
        ? static_cast<std::uint64_t>(
              requireCount("insts", argv[2], 1, 0x7fffffffffffffffLL))
        : 400'000;

    const WorkloadMix &mix = mixByName(mix_name);

    auto prep = [&](SystemConfig c) {
        c.warmupInsts = insts / 4;
        c.measureInsts = insts;
        return c;
    };

    std::cout << "fbdp quickstart: workload " << mix.name << " (";
    for (size_t i = 0; i < mix.benches.size(); ++i)
        std::cout << (i ? ", " : "") << mix.benches[i];
    std::cout << ")\n\n";

    RunResult ddr2 = runMix(prep(SystemConfig::ddr2()), mix);
    RunResult fbd = runMix(prep(SystemConfig::fbdBase()), mix);
    RunResult ap = runMix(prep(SystemConfig::fbdAp()), mix);

    TextTable t({"machine", "IPC (sum)", "read lat (ns)",
                 "bandwidth (GB/s)", "AMB-hit coverage"});
    t.addRow({"DDR2", fmtD(ddr2.ipcSum()), fmtD(ddr2.avgReadLatencyNs, 1),
              fmtD(ddr2.bandwidthGBs, 2), "-"});
    t.addRow({"FB-DIMM", fmtD(fbd.ipcSum()),
              fmtD(fbd.avgReadLatencyNs, 1),
              fmtD(fbd.bandwidthGBs, 2), "-"});
    t.addRow({"FB-DIMM + AMB prefetch", fmtD(ap.ipcSum()),
              fmtD(ap.avgReadLatencyNs, 1), fmtD(ap.bandwidthGBs, 2),
              fmtPct(ap.coverage)});
    t.print(std::cout);

    std::cout << "\nAMB prefetching speedup over FB-DIMM: "
              << fmtPct(ap.ipcSum() / fbd.ipcSum() - 1.0) << "\n";
    return 0;
}
