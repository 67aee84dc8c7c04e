/**
 * @file
 * Experiment-runner tests: reference caching, the SMT-speedup metric,
 * environment overrides, and the record/run/replay plan of PaperRun.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "run_digest.hh"
#include "system/runner.hh"

namespace fbdp {
namespace {

SystemConfig
quickRef()
{
    SystemConfig c = SystemConfig::ddr2();
    c.warmupInsts = 10'000;
    c.measureInsts = 50'000;
    return c;
}

TEST(RunnerTest, RunMixFillsBenchmarks)
{
    RunResult r = runMix(quickRef(), mixByName("2C-3"));
    ASSERT_EQ(r.ipc.size(), 2u);
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_GT(r.ipc[1], 0.0);
}

TEST(RunnerTest, ReferenceSetCachesRuns)
{
    ReferenceSet refs(quickRef());
    const double a = refs.ipcOf("vpr");
    const double b = refs.ipcOf("vpr");
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.0);
}

TEST(RunnerTest, ReferencesDifferAcrossPrograms)
{
    ReferenceSet refs(quickRef());
    // A streaming FP code and a low-ILP integer code should land at
    // visibly different absolute IPC.
    EXPECT_NE(refs.ipcOf("swim"), refs.ipcOf("parser"));
}

TEST(RunnerTest, SmtSpeedupOfReferenceMachineIsCoreCount)
{
    // Running each reference program on the reference machine gives
    // per-core ratios of ~1.0, so the sum is ~nCores for single-core.
    ReferenceSet refs(quickRef());
    const WorkloadMix &mix = mixByName("1C-gap");
    RunResult r = runMix(quickRef(), mix);
    const double s = smtSpeedup(r, mix, std::ref(refs));
    EXPECT_NEAR(s, 1.0, 0.05);
}

TEST(RunnerTest, SmtSpeedupRejectsMismatchedMix)
{
    ReferenceSet refs(quickRef());
    RunResult r = runMix(quickRef(), mixByName("1C-gap"));
    EXPECT_DEATH(smtSpeedup(r, mixByName("2C-1"), std::ref(refs)),
                 "mismatch");
}

TEST(RunnerTest, RunCellsMatchesRunMixInOrder)
{
    const WorkloadMix &gap = mixByName("1C-gap");
    const WorkloadMix &vpr = mixByName("1C-vpr");
    std::vector<RunCell> cells{{quickRef(), &gap},
                               {quickRef(), &vpr}};
    // Parallel batch vs the one-at-a-time helper: identical runs.
    const auto batch = runCells(cells, 2);
    ASSERT_EQ(batch.size(), 2u);
    const RunResult a = runMix(quickRef(), gap);
    const RunResult b = runMix(quickRef(), vpr);
    EXPECT_EQ(batch[0].reads, a.reads);
    EXPECT_DOUBLE_EQ(batch[0].ipcSum(), a.ipcSum());
    EXPECT_EQ(batch[1].reads, b.reads);
    EXPECT_DOUBLE_EQ(batch[1].ipcSum(), b.ipcSum());
}

TEST(RunnerTest, JobsFromEnvParsesAndFallsBack)
{
    setenv("FBDP_JOBS", "5", 1);
    EXPECT_EQ(jobsFromEnv(), 5u);
    setenv("FBDP_JOBS", "1024", 1);
    EXPECT_EQ(jobsFromEnv(), 1024u);
    // Unset means one worker per host CPU; garbage, out-of-range and
    // trailing-junk values all warn and fall back to that same default
    // instead of silently parsing to 0.
    const unsigned host =
        std::clamp(std::thread::hardware_concurrency(), 1u, 1024u);
    for (const char *bad : {"junk", "max", "0", "-3", "8x", "2000",
                            ""}) {
        setenv("FBDP_JOBS", bad, 1);
        EXPECT_EQ(jobsFromEnv(), host) << "FBDP_JOBS='" << bad << "'";
    }
    unsetenv("FBDP_JOBS");
    EXPECT_EQ(jobsFromEnv(), host);
}

TEST(RunnerTest, ReferenceSetIsThreadSafe)
{
    ReferenceSet refs(quickRef());
    std::vector<std::thread> threads;
    std::vector<double> got(4, 0.0);
    for (int i = 0; i < 4; ++i)
        threads.emplace_back(
            [&refs, &got, i] { got[i] = refs.ipcOf("gap"); });
    for (auto &t : threads)
        t.join();
    for (int i = 1; i < 4; ++i)
        EXPECT_DOUBLE_EQ(got[0], got[i]);
    EXPECT_GT(got[0], 0.0);
}

TEST(RunnerTest, EnvOverridesApply)
{
    setenv("FBDP_MEASURE_INSTS", "123456", 1);
    setenv("FBDP_WARMUP_INSTS", "7890", 1);
    SystemConfig c;
    applyInstsFromEnv(c);
    EXPECT_EQ(c.measureInsts, 123456u);
    EXPECT_EQ(c.warmupInsts, 7890u);
    unsetenv("FBDP_MEASURE_INSTS");
    unsetenv("FBDP_WARMUP_INSTS");
}

TEST(RunnerTest, EnvIgnoresGarbage)
{
    setenv("FBDP_MEASURE_INSTS", "not-a-number", 1);
    SystemConfig c;
    const std::uint64_t before = c.measureInsts;
    applyInstsFromEnv(c);
    EXPECT_EQ(c.measureInsts, before);
    unsetenv("FBDP_MEASURE_INSTS");
}

TEST(RunnerTest, EnvInstsRejectsPartialNumbers)
{
    // atoll would read "2e6" as 2 and "120k" as 120: every value that
    // is not a whole decimal count in range must leave the config as
    // it was, for both variables.
    for (const char *var : {"FBDP_MEASURE_INSTS", "FBDP_WARMUP_INSTS"}) {
        for (const char *bad :
             {"2e6", "120k", "1.5", "0", "-5", "12 ", "0x10",
              "1000000000001", "99999999999999999999999", "abc"}) {
            setenv(var, bad, 1);
            SystemConfig c;
            const SystemConfig before = c;
            applyInstsFromEnv(c);
            EXPECT_EQ(c.measureInsts, before.measureInsts)
                << var << "='" << bad << "'";
            EXPECT_EQ(c.warmupInsts, before.warmupInsts)
                << var << "='" << bad << "'";
        }
        unsetenv(var);
    }
}

TEST(RunnerTest, EnvInstsAcceptsTheWholeRange)
{
    setenv("FBDP_MEASURE_INSTS", "1", 1);
    setenv("FBDP_WARMUP_INSTS", "1000000000000", 1);
    SystemConfig c;
    applyInstsFromEnv(c);
    EXPECT_EQ(c.measureInsts, 1u);
    EXPECT_EQ(c.warmupInsts, 1'000'000'000'000u);
    // Empty counts as unset.
    setenv("FBDP_MEASURE_INSTS", "", 1);
    setenv("FBDP_WARMUP_INSTS", "", 1);
    SystemConfig d;
    const SystemConfig before = d;
    applyInstsFromEnv(d);
    EXPECT_EQ(d.measureInsts, before.measureInsts);
    EXPECT_EQ(d.warmupInsts, before.warmupInsts);
    unsetenv("FBDP_MEASURE_INSTS");
    unsetenv("FBDP_WARMUP_INSTS");
}

TEST(RunnerTest, TotalInstsSumsCores)
{
    RunResult r;
    r.insts = {100, 200, 300};
    EXPECT_DOUBLE_EQ(r.totalInsts(), 600.0);
    r.ipc = {1.0, 2.0, 0.5};
    EXPECT_DOUBLE_EQ(r.ipcSum(), 3.5);
}

TEST(PaperRunTest, RunsEachDistinctCellOnceAndReplaysIt)
{
    // A toy figure: the same FB-DIMM cell twice, then one SMT speedup,
    // whose references are one more cell per program.
    const WorkloadMix &mix = mixByName("2C-3");
    PaperRun p(true);
    RunResult first, second;
    double smt = 0.0;
    std::multiset<std::size_t> started;
    CellHooks hooks;
    hooks.started = [&](std::size_t i) { started.insert(i); };
    std::ostringstream out;
    p.play(
        [&](PaperRun &run, std::ostream &os) {
            first = run.run(run.prep(SystemConfig::fbdBase()), mix);
            second = run.run(run.prep(SystemConfig::fbdBase()), mix);
            smt = run.smt(first, mix);
            os << "replayed";
        },
        out, 2, hooks);
    EXPECT_EQ(started, (std::multiset<std::size_t>{0, 1, 2}));

    const RunResult lone = runMix(p.prep(SystemConfig::fbdBase()), mix);
    EXPECT_EQ(simDigest(first), simDigest(lone));
    EXPECT_EQ(simDigest(second), simDigest(lone));
    ReferenceSet refs(p.prep(SystemConfig::ddr2()));
    EXPECT_EQ(smt, smtSpeedup(lone, mix, std::ref(refs)));
    EXPECT_EQ(out.str(), "replayed"); // the record pass prints nowhere
}

TEST(PaperRunDeathTest, ReplayMustAskForTheRecordedCells)
{
    // A figure whose cells depend on the pass: it records 667 and 800
    // MT/s machines, then replays with the rates in @p replay.
    auto playSwitching = [](std::vector<unsigned> replay) {
        PaperRun p(true);
        std::vector<unsigned> rates{667, 800};
        std::ostringstream out;
        p.play(
            [&](PaperRun &run, std::ostream &) {
                for (unsigned rate : rates) {
                    SystemConfig c = run.prep(SystemConfig::fbdBase());
                    c.dataRate = rate;
                    run.run(c, mixByName("1C-gap"));
                }
                rates = replay;
            },
            out, 1);
    };
    EXPECT_DEATH(playSwitching({667, 533}), "differs from the recorded");
    EXPECT_DEATH(playSwitching({800, 667}), "differs from the recorded");
    EXPECT_DEATH(playSwitching({667}), "asked for 1 of the 2 recorded");
}

} // namespace
} // namespace fbdp
