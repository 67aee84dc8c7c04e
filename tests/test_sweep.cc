/**
 * @file
 * Batch sweep driver tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "system/sweep.hh"

namespace fbdp {
namespace {

SystemConfig
quick(SystemConfig c)
{
    c.warmupInsts = 10'000;
    c.measureInsts = 40'000;
    return c;
}

TEST(SweepTest, RunsCrossProduct)
{
    Sweep s;
    s.addConfig("ddr2", quick(SystemConfig::ddr2()))
        .addConfig("fbd", quick(SystemConfig::fbdBase()))
        .addMix(mixByName("1C-gap"))
        .addMix(mixByName("1C-vpr"));
    EXPECT_EQ(s.cells(), 4u);
    auto rows = s.run();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].config, "ddr2");
    EXPECT_EQ(rows[0].mix, "1C-gap");
    EXPECT_EQ(rows[3].config, "fbd");
    EXPECT_EQ(rows[3].mix, "1C-vpr");
    for (const auto &r : rows)
        EXPECT_GT(r.result.ipcSum(), 0.0);
}

TEST(SweepTest, RepeatsVarySeed)
{
    Sweep s;
    s.addConfig("fbd", quick(SystemConfig::fbdBase()))
        .addMix(mixByName("1C-gap"))
        .repeats(2);
    auto rows = s.run();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].seed, 1u);
    EXPECT_EQ(rows[1].seed, 2u);
    // Different seeds produce (slightly) different outcomes.
    EXPECT_NE(rows[0].result.reads, rows[1].result.reads);
}

TEST(SweepTest, ConfigSeedIsRepeatBase)
{
    // SystemConfig::seed offsets the repeat range, so two sweeps can
    // use disjoint seed ranges.
    SystemConfig c = quick(SystemConfig::fbdBase());
    c.seed = 100;
    Sweep s;
    s.addConfig("fbd", c).addMix(mixByName("1C-gap")).repeats(3);
    auto rows = s.run();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].seed, 100u);
    EXPECT_EQ(rows[1].seed, 101u);
    EXPECT_EQ(rows[2].seed, 102u);
}

TEST(SweepTest, MixGroupAddsAllMixes)
{
    Sweep s;
    s.addConfig("fbd", quick(SystemConfig::fbdBase()))
        .addMixGroup(2);
    EXPECT_EQ(s.cells(), 6u);
}

TEST(SweepTest, CsvOutputWellFormed)
{
    Sweep s;
    s.addConfig("ap", quick(SystemConfig::fbdAp()))
        .addMix(mixByName("1C-swim"));
    std::ostringstream os;
    s.runCsv(os);
    std::istringstream in(os.str());
    std::string header, row, extra;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_FALSE(std::getline(in, extra));
    EXPECT_EQ(header, Sweep::csvHeader());
    // Same number of commas in header and row.
    auto commas = [](const std::string &x) {
        return std::count(x.begin(), x.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row));
    EXPECT_EQ(row.rfind("ap,1C-swim,1,", 0), 0u);
}

TEST(SweepTest, CallbackSeesEveryRow)
{
    Sweep s;
    int n = 0;
    s.addConfig("fbd", quick(SystemConfig::fbdBase()))
        .addMix(mixByName("1C-gap"))
        .addMix(mixByName("1C-vortex"))
        .onRow([&n](const SweepRow &) { ++n; });
    s.run();
    EXPECT_EQ(n, 2);
}

TEST(SweepTest, ParallelMatchesSerialByteForByte)
{
    // The acceptance bar for the parallel engine: jobs(4) must be
    // indistinguishable from jobs(1) in both CSV and JSON output.
    auto build = [](unsigned jobs) {
        Sweep s;
        s.addConfig("fbd", quick(SystemConfig::fbdBase()))
            .addConfig("ap", quick(SystemConfig::fbdAp()))
            .addMix(mixByName("1C-gap"))
            .addMix(mixByName("1C-swim"))
            .jobs(jobs);
        return s;
    };

    std::ostringstream serialCsv, parallelCsv;
    build(1).runCsv(serialCsv);
    build(4).runCsv(parallelCsv);
    EXPECT_EQ(serialCsv.str(), parallelCsv.str());

    std::ostringstream serialJson, parallelJson;
    build(1).runJson(serialJson);
    build(4).runJson(parallelJson);
    EXPECT_EQ(serialJson.str(), parallelJson.str());
}

TEST(SweepTest, ParallelCallbackOrderIsRowOrder)
{
    Sweep s;
    s.addConfig("fbd", quick(SystemConfig::fbdBase()))
        .addConfig("ap", quick(SystemConfig::fbdAp()))
        .addMix(mixByName("1C-gap"))
        .addMix(mixByName("1C-vpr"))
        .jobs(4);
    std::vector<std::string> order;
    s.onRow([&order](const SweepRow &r) {
        order.push_back(r.config + "/" + r.mix);
    });
    s.run();
    const std::vector<std::string> expect{
        "fbd/1C-gap", "fbd/1C-vpr", "ap/1C-gap", "ap/1C-vpr"};
    EXPECT_EQ(order, expect);
}

TEST(SweepTest, JobsResolveFromEnvironment)
{
    Sweep s;
    s.addConfig("fbd", quick(SystemConfig::fbdBase()))
        .addMixGroup(1);
    setenv("FBDP_JOBS", "3", 1);
    EXPECT_EQ(s.effectiveJobs(), 3u);
    unsetenv("FBDP_JOBS");
    // One worker per host CPU, clamped to the 12 cells.
    const unsigned host =
        std::clamp(std::thread::hardware_concurrency(), 1u, 1024u);
    EXPECT_EQ(s.effectiveJobs(), std::min(host, 12u));
    s.jobs(64);
    EXPECT_EQ(s.effectiveJobs(), 12u); // clamped to cell count
}

TEST(SweepTest, SchemaMatchesLegacyCsvShape)
{
    const ResultSchema &schema = Sweep::schema();
    EXPECT_EQ(schema.csvHeader(), Sweep::csvHeader());
    ASSERT_FALSE(schema.columns().empty());
    EXPECT_EQ(schema.columns().front().name, "config");
    EXPECT_EQ(schema.columns().back().name, "sim_us");

    SweepRow row;
    row.config = "cfg";
    row.mix = "mix";
    row.seed = 9;
    row.result.ipc = {1.5, 0.5};
    row.result.reads = 1234;
    EXPECT_EQ(Sweep::csvRow(row), schema.csvRow(row));
    EXPECT_EQ(row.result.ipcSum(), 2.0);
    // Typed accessors see the same values the CSV prints.
    EXPECT_EQ(schema.columns()[0].get(row).text, "cfg");
    EXPECT_EQ(schema.columns()[2].get(row).count, 9u);
}

TEST(SweepTest, JsonRowIsWellFormed)
{
    SweepRow row;
    row.config = "a\"b"; // needs escaping
    row.mix = "1C-x";
    row.seed = 2;
    const std::string j = Sweep::schema().jsonRow(row);
    EXPECT_NE(j.find("\"config\": \"a\\\"b\""), std::string::npos);
    EXPECT_NE(j.find("\"seed\": 2"), std::string::npos);
    EXPECT_EQ(j.front(), '{');
    EXPECT_EQ(j.back(), '}');
}

TEST(SweepTest, EmptySweepIsFatal)
{
    Sweep s;
    EXPECT_DEATH(s.run(), "no configurations");
    s.addConfig("fbd", quick(SystemConfig::fbdBase()));
    EXPECT_DEATH(s.run(), "no workloads");
}

} // namespace
} // namespace fbdp
