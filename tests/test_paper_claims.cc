/**
 * @file
 * The paper's shape claims as executable gates, over the `--quick`
 * cells of bench/fig04_ddr2_vs_fbdimm and bench/fig07_amb_prefetch_
 * speedup at seed 1: every Table 3 mix on DDR2, FBD and FBD-AP (the
 * two figures' 108 cells, 81 of them distinct), run through runCells,
 * with SMT speedups against a ReferenceSet of single-core DDR2 runs.
 * Averages are formed as the benches form them: the mean SMT speedup
 * of one machine over the mean of the other.
 *
 * Each threshold is the paper's own claim, quoted next to it.  A
 * claim that stops holding is a reproduction problem to explain in
 * EXPERIMENTS.md ("Known deviations"), never a threshold to move.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "system/runner.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

constexpr unsigned coreCounts[] = {1, 2, 4, 8};

/** A machine with the benches' `--quick` run lengths at seed 1. */
SystemConfig
quick(SystemConfig c)
{
    c.warmupInsts = 30'000;
    c.measureInsts = 120'000;
    c.seed = 1;
    return c;
}

/** Summed SMT speedups of one core count, per machine. */
struct Sums
{
    double ddr2 = 0.0, fbd = 0.0, ap = 0.0;
};

/** Per-mix SMT speedups and per-core-count sums of both figures. */
struct Figures
{
    std::map<unsigned, Sums> sums;
    /** (mix, FBD speedup, FBD-AP speedup) of every mix. */
    struct Mix
    {
        std::string name;
        double fbd, ap;
    };
    std::vector<Mix> mixes;
};

const Figures &
figures()
{
    static const Figures figs = [] {
        std::vector<RunCell> cells;
        std::vector<const WorkloadMix *> order;
        for (unsigned n : coreCounts) {
            for (const WorkloadMix &mix : mixesFor(n)) {
                order.push_back(&mix);
                cells.push_back({quick(SystemConfig::ddr2()), &mix});
                cells.push_back({quick(SystemConfig::fbdBase()), &mix});
                cells.push_back({quick(SystemConfig::fbdAp()), &mix});
            }
        }
        const unsigned jobs =
            std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
        const std::vector<RunResult> rs = runCells(cells, jobs);

        ReferenceSet refs(quick(SystemConfig::ddr2()));
        Figures f;
        for (std::size_t i = 0; i < order.size(); ++i) {
            const WorkloadMix &mix = *order[i];
            const double d = smtSpeedup(rs[3 * i], mix, refs);
            const double b = smtSpeedup(rs[3 * i + 1], mix, refs);
            const double a = smtSpeedup(rs[3 * i + 2], mix, refs);
            Sums &s = f.sums[static_cast<unsigned>(mix.benches.size())];
            s.ddr2 += d;
            s.fbd += b;
            s.ap += a;
            f.mixes.push_back({mix.name, b, a});
        }
        return f;
    }();
    return figs;
}

TEST(PaperClaims, Fig4CrossoverLiesBetweenTwoAndFourCores)
{
    // Paper, Fig. 4: FB-DIMM is "-1.5% / -0.6%" against DDR2 at 1 and
    // 2 cores and "+1.1% / +6.0%" at 4 and 8 cores.  Only the signs
    // are claimed here: DDR2 ahead up to 2 cores, FB-DIMM ahead from 4.
    const Figures &f = figures();
    for (unsigned n : coreCounts) {
        const Sums &s = f.sums.at(n);
        const double gain = s.fbd / s.ddr2 - 1.0;
        if (n <= 2)
            EXPECT_LT(gain, 0.0) << n << " cores: FBD vs DDR2 " << gain;
        else
            EXPECT_GT(gain, 0.0) << n << " cores: FBD vs DDR2 " << gain;
    }
}

TEST(PaperClaims, Fig7NoMixLosesAndEveryAverageGainIsDoubleDigit)
{
    // Paper, Fig. 7: FBD-AP improves on FBD by "16.0 / 19.4 / 16.3 /
    // 15.0 %" on average at 1/2/4/8 cores, and "no workload loses".
    const Figures &f = figures();
    for (const Figures::Mix &m : f.mixes)
        EXPECT_GE(m.ap, m.fbd) << m.name << " slows down with AP";
    for (unsigned n : coreCounts) {
        const Sums &s = f.sums.at(n);
        EXPECT_GE(s.ap / s.fbd - 1.0, 0.10)
            << n << " cores: average FBD-AP gain";
    }
}

} // namespace
} // namespace fbdp
