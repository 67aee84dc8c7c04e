/**
 * @file
 * Power/performance exploration of the AMB-prefetching design space:
 * sweeps the region size and AMB-cache organisation for one workload
 * and reports throughput together with normalised DRAM energy — the
 * balance Section 5.5 of the paper discusses ("the memory mapping
 * policy and the prefetch buffer configuration need to be carefully
 * considered").
 *
 *   ./example_power_explorer [mix-name] [insts]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "power/power_model.hh"
#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

int
main(int argc, char **argv)
{
    using namespace fbdp;

    const std::string mix_name = argc > 1 ? argv[1] : "4C-1";
    const std::uint64_t insts = argc > 2
        ? static_cast<std::uint64_t>(std::atoll(argv[2]))
        : 300'000;

    const WorkloadMix &mix = mixByName(mix_name);

    auto prep = [&](SystemConfig c) {
        c.warmupInsts = insts / 4;
        c.measureInsts = insts;
        applyInstsFromEnv(c);
        return c;
    };

    PowerModel pm;
    RunResult base = runMix(prep(SystemConfig::fbdBase()), mix);

    std::cout << "fbdp power/performance explorer on " << mix.name
              << "\nbaseline: FB-DIMM without prefetching, IPC sum "
              << fmtD(base.ipcSum()) << "\n\n";

    TextTable t({"K", "entries", "ways", "speedup", "rel. energy",
                 "coverage", "efficiency"});
    for (unsigned k : {2u, 4u, 8u}) {
        for (unsigned entries : {32u, 64u, 128u}) {
            for (unsigned ways : {1u, 4u, 0u}) {
                SystemConfig c = prep(SystemConfig::fbdAp());
                c.regionLines = k;
                c.prefetch.entries = entries;
                c.prefetch.ways = ways;
                RunResult r = runMix(c, mix);
                const double rel = pm.relativeDynamicEnergy(
                    r.ops, r.totalInsts(), base.ops,
                    base.totalInsts());
                t.addRow({std::to_string(k),
                          std::to_string(entries),
                          ways ? std::to_string(ways) : "full",
                          fmtPct(r.ipcSum() / base.ipcSum() - 1.0),
                          fmtD(rel),
                          fmtPct(r.coverage), fmtPct(r.efficiency)});
            }
        }
    }
    t.print(std::cout);

    std::cout << "\nA good design point keeps the speedup while "
                 "holding relative energy\nbelow 1.0; the paper "
                 "settles on K=4 with a 64-entry four-way buffer.\n";
    return 0;
}
