/**
 * @file
 * The paper's shape claims as executable gates, over the `--quick`
 * cells of fbdp-paper's figures at seed 1, each run once through
 * PaperRun:
 *  - fig04 and fig07 (Long window): every Table 3 mix on DDR2, FBD and
 *    FBD-AP (108 cells, 81 of them distinct), with SMT speedups
 *    against the single-core DDR2 cells.  Averages are formed as the
 *    benches form them: the mean SMT speedup of one machine over the
 *    mean of the other.
 *  - fig10 and fig08's region-size rows (Short window): every mix on
 *    FBD and on FBD-AP at K = 2, 4 and 8 (108 cells).
 *
 * Each threshold is the paper's own claim, quoted next to it.  A
 * claim that stops holding is a reproduction problem to explain in
 * EXPERIMENTS.md ("Known deviations"), never a threshold to move.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "system/runner.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

constexpr unsigned coreCounts[] = {1, 2, 4, 8};

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

/** Record, run and replay @p draw in window @p w, exactly as
 *  `fbdp-paper --quick` does: no run-length overrides. */
void
playQuick(Window w, const PaperRun::Draw &draw)
{
    unsetenv("FBDP_MEASURE_INSTS");
    unsetenv("FBDP_WARMUP_INSTS");
    PaperRun p(true);
    p.setWindow(w);
    std::ostringstream discard;
    p.play(draw, discard,
           std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

const Figures &
figures()
{
    static const Figures figs = [] {
        Figures f;
        playQuick(Window::Long, [&f](PaperRun &run, std::ostream &) {
            f = {};
            for (unsigned n : coreCounts) {
                for (const WorkloadMix &mix : mixesFor(n)) {
                    auto smt = [&](const SystemConfig &c) {
                        return run.smt(run.run(run.prep(c), mix), mix);
                    };
                    const double d = smt(SystemConfig::ddr2());
                    const double b = smt(SystemConfig::fbdBase());
                    const double a = smt(SystemConfig::fbdAp());
                    Sums &s = f.sums[n];
                    s.ddr2 += d;
                    s.fbd += b;
                    s.ap += a;
                    f.mixes.push_back({mix.name, b, a});
                }
            }
        });
        return f;
    }();
    return figs;
}

/** Fig. 10's rows and Fig. 8's region-size averages. */
struct ShortFigures
{
    /** One Fig. 10 row: bandwidth (GB/s) and latency (ns). */
    struct Row
    {
        std::string name;
        double fbdBw, fbdLat, apBw, apLat;
    };
    std::vector<Row> rows;

    /** Group-average coverage and efficiency of one K. */
    struct Pf
    {
        double coverage = 0.0, efficiency = 0.0;
    };
    /** By core count, then by K. */
    std::map<unsigned, std::map<unsigned, Pf>> byK;
};

constexpr unsigned regionSizes[] = {2, 4, 8};

const ShortFigures &
shortFigures()
{
    static const ShortFigures figs = [] {
        ShortFigures f;
        playQuick(Window::Short, [&f](PaperRun &run, std::ostream &) {
            f = {};
            for (unsigned n : coreCounts) {
                const auto &mixes = mixesFor(n);
                for (const WorkloadMix &mix : mixes) {
                    const RunResult b =
                        run.run(run.prep(SystemConfig::fbdBase()), mix);
                    const RunResult a =
                        run.run(run.prep(SystemConfig::fbdAp()), mix);
                    f.rows.push_back({mix.name, b.bandwidthGBs,
                                      b.avgReadLatencyNs, a.bandwidthGBs,
                                      a.avgReadLatencyNs});
                }
                // fig08's #CL rows: 64 entries, fully associative.
                for (unsigned k : regionSizes) {
                    ShortFigures::Pf &pf = f.byK[n][k];
                    for (const WorkloadMix &mix : mixes) {
                        SystemConfig c = run.prep(SystemConfig::fbdAp());
                        c.regionLines = k;
                        c.ambPrefetch.entries = 64;
                        c.ambPrefetch.ways = 0;
                        const RunResult r = run.run(c, mix);
                        pf.coverage += r.coverage;
                        pf.efficiency += r.efficiency;
                    }
                    pf.coverage /= mixes.size();
                    pf.efficiency /= mixes.size();
                }
            }
        });
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

TEST(PaperClaims, Fig10ApHasMoreBandwidthAndLessLatencyEverywhere)
{
    // DESIGN.md §4, Fig. 10: "AP: more BW *and* less latency for every
    // workload".
    const ShortFigures &f = shortFigures();
    EXPECT_EQ(f.rows.size(), 27u);
    for (const ShortFigures::Row &r : f.rows) {
        EXPECT_GT(r.apBw, r.fbdBw) << r.name << ": AP bandwidth";
        EXPECT_LT(r.apLat, r.fbdLat) << r.name << ": AP latency";
    }
}

TEST(PaperClaims, Fig8CoverageBoundAndLargerRegionTradeOff)
{
    // DESIGN.md §4, Fig. 8: "coverage ≈ 50 % at K=4 (bound 75 %);
    // K↑ ⇒ coverage↑ efficiency↓".  Only K-1 of a region's K lines are
    // prefetched, so coverage cannot pass (K-1)/K.
    const ShortFigures &f = shortFigures();
    for (unsigned n : coreCounts) {
        const auto &by_k = f.byK.at(n);
        for (unsigned k : regionSizes) {
            EXPECT_LE(by_k.at(k).coverage, (k - 1.0) / k)
                << n << " cores, K=" << k;
        }
        const ShortFigures::Pf &k4 = by_k.at(4), &k8 = by_k.at(8);
        EXPECT_GT(k8.coverage, k4.coverage) << n << " cores";
        EXPECT_LT(k8.efficiency, k4.efficiency) << n << " cores";
    }
}

} // namespace
} // namespace fbdp
