/**
 * @file
 * Figure 6: performance impact of memory bandwidth — sweeping the
 * channel data rate (533 / 667 / 800 MT/s) and the number of logic
 * channels (1 / 2 / 4) for both DDR2 and FB-DIMM, reported as the
 * average SMT speedup per core-count group.
 *
 * Shape targets: performance rises monotonically with bandwidth; the
 * gains are far larger for the 4- and 8-core workloads (the paper
 * quotes +75 % for 8 cores going from one to two channels, +49 % from
 * two to four, vs +8.8 % / +5.1 % for single-core).
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
fig06(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    auto group_avg = [&](const SystemConfig &cfg, unsigned cores) {
        double sum = 0.0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            RunResult r = p.run(cfg, mix);
            sum += p.smt(r, mix);
            ++n;
        }
        return sum / n;
    };

    os << "== Figure 6: bandwidth impact on performance ==\n"
       << "average SMT speedup per group\n\n";

    os << "-- data-rate sweep (2 logic channels) --\n";
    {
        TextTable t({"cores", "DDR2-533", "DDR2-667", "DDR2-800",
                     "FBD-533", "FBD-667", "FBD-800"});
        for (unsigned cores : {1u, 2u, 4u, 8u}) {
            std::vector<std::string> row{std::to_string(cores)};
            for (bool fbd : {false, true}) {
                for (unsigned rate : {533u, 667u, 800u}) {
                    SystemConfig c = p.prep(fbd ? SystemConfig::fbdBase()
                                                : SystemConfig::ddr2());
                    c.dataRate = rate;
                    row.push_back(fmtD(group_avg(c, cores)));
                }
            }
            t.addRow(row);
        }
        t.print(os);
    }

    os << "\n-- channel-count sweep (667 MT/s) --\n";
    {
        TextTable t({"cores", "DDR2-1ch", "DDR2-2ch", "DDR2-4ch",
                     "FBD-1ch", "FBD-2ch", "FBD-4ch"});
        for (unsigned cores : {1u, 2u, 4u, 8u}) {
            std::vector<std::string> row{std::to_string(cores)};
            for (bool fbd : {false, true}) {
                for (unsigned ch : {1u, 2u, 4u}) {
                    SystemConfig c = p.prep(fbd ? SystemConfig::fbdBase()
                                                : SystemConfig::ddr2());
                    c.logicChannels = ch;
                    row.push_back(fmtD(group_avg(c, cores)));
                }
            }
            t.addRow(row);
        }
        t.print(os);
    }
}
