/**
 * @file
 * The latency-phase attribution layer: phase conservation (per class,
 * the attributed phase times sum exactly to the end-to-end latency),
 * per-core stall accounting (attributed stall cycles sum exactly to
 * each reason's stall total), and observer invisibility (enabling
 * attribution changes no simulation result).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "mc/attribution.hh"
#include "mc/transaction.hh"
#include "system/results.hh"
#include "system/statsjson.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

using namespace fbdp;

namespace {

SystemConfig
smallConfig(SystemConfig cfg)
{
    cfg.measureInsts = 20'000;
    cfg.warmupInsts = 5'000;
    cfg.benchmarks = mixByName("2C-1").benches;
    return cfg;
}

Tick
phaseSum(const PhaseDurations &d)
{
    Tick sum = 0;
    for (unsigned p = 0; p < numLatPhases; ++p)
        sum += d.phase[p];
    return sum;
}

} // anonymous namespace

// ---------------------------------------------------------------- //
// computePhaseDurations unit behaviour                             //
// ---------------------------------------------------------------- //

TEST(PhaseDurationTest, FullyStampedReadTelescopesExactly)
{
    Transaction t;
    t.cmd = MemCmd::Read;
    t.arrivedAtMc = 100;
    t.earliestIssue = 200;
    t.stampIssue = 250;
    t.stampCas = 300;
    t.stampArrive = 400;
    t.stampData = 500;
    t.completedAt = 600;

    const PhaseDurations d = computePhaseDurations(t);
    EXPECT_EQ(d.cls, LatClass::DemandRead);
    EXPECT_EQ(d.total, 500u);
    EXPECT_EQ(d.phase[static_cast<unsigned>(LatPhase::Queue)], 100u);
    EXPECT_EQ(d.phase[static_cast<unsigned>(LatPhase::Sched)], 50u);
    EXPECT_EQ(d.phase[static_cast<unsigned>(LatPhase::BankPrep)], 50u);
    EXPECT_EQ(d.phase[static_cast<unsigned>(LatPhase::South)], 100u);
    EXPECT_EQ(d.phase[static_cast<unsigned>(LatPhase::Amb)], 0u);
    EXPECT_EQ(d.phase[static_cast<unsigned>(LatPhase::Bank)], 100u);
    EXPECT_EQ(d.phase[static_cast<unsigned>(LatPhase::North)], 100u);
    EXPECT_EQ(phaseSum(d), d.total);
}

TEST(PhaseDurationTest, AmbServedReadUsesAmbNotBank)
{
    Transaction t;
    t.cmd = MemCmd::Read;
    t.bufServed = true;
    t.arrivedAtMc = 100;
    t.earliestIssue = 100;
    t.stampIssue = 120;
    t.stampCas = 120;
    t.stampArrive = 180;
    t.stampData = 260;
    t.completedAt = 400;

    const PhaseDurations d = computePhaseDurations(t);
    EXPECT_EQ(d.cls, LatClass::PrefHit);
    EXPECT_EQ(d.phase[static_cast<unsigned>(LatPhase::Amb)], 80u);
    EXPECT_EQ(d.phase[static_cast<unsigned>(LatPhase::Bank)], 0u);
    EXPECT_EQ(phaseSum(d), d.total);
}

TEST(PhaseDurationTest, UnsetStampsInheritAndStillConserve)
{
    // A transaction with no intermediate stamps at all (e.g. a write
    // completed by a path that never set them) must still conserve:
    // unset boundaries clamp to their predecessor, giving zero-width
    // phases, never negative ones.
    Transaction t;
    t.cmd = MemCmd::Write;
    t.arrivedAtMc = 1000;
    t.earliestIssue = 1200;
    t.completedAt = 5000;

    const PhaseDurations d = computePhaseDurations(t);
    EXPECT_EQ(d.cls, LatClass::Write);
    EXPECT_EQ(d.total, 4000u);
    EXPECT_EQ(phaseSum(d), d.total);
    // Everything after Queue collapses into the final boundary diff.
    EXPECT_EQ(d.phase[static_cast<unsigned>(LatPhase::Queue)], 200u);
}

TEST(PhaseDurationTest, SwPrefetchClassifiesBelowAmbHit)
{
    Transaction t;
    t.cmd = MemCmd::Read;
    t.swPrefetch = true;
    t.arrivedAtMc = 0;
    t.completedAt = 10;
    EXPECT_EQ(computePhaseDurations(t).cls, LatClass::SwPrefetch);

    // An AMB hit wins over the sw-prefetch flag: the transaction was
    // served by the prefetch buffer, which is the interesting fact.
    t.bufServed = true;
    EXPECT_EQ(computePhaseDurations(t).cls, LatClass::PrefHit);
}

// ---------------------------------------------------------------- //
// Whole-system conservation                                        //
// ---------------------------------------------------------------- //

namespace {

void
expectBreakdownConserves(const ChannelBreakdown &cb)
{
    for (unsigned c = 0; c < numLatClasses; ++c) {
        const ClassPhaseBreakdown &cls = cb.cls[c];
        std::uint64_t sum = 0;
        for (unsigned p = 0; p < numLatPhases; ++p)
            sum += cls.phaseTicks[p];
        EXPECT_EQ(sum, cls.totalTicks)
            << "phase ticks must sum to end-to-end latency for class "
            << latClassName(static_cast<LatClass>(c));
    }
}

} // anonymous namespace

TEST(AttributionSystemTest, PhaseTicksSumToLatencyEveryClass)
{
    SystemConfig cfg = smallConfig(SystemConfig::fbdAp());
    cfg.attribution = true;
    System sys(cfg);
    RunResult r = sys.run();

    ASSERT_TRUE(r.attribution.enabled);
    ASSERT_EQ(r.attribution.channels.size(), cfg.logicChannels);

    expectBreakdownConserves(r.attribution.total);
    for (const ChannelBreakdown &cb : r.attribution.channels)
        expectBreakdownConserves(cb);

    // The interesting classes all saw traffic on the AP machine.
    const ChannelBreakdown &tot = r.attribution.total;
    EXPECT_GT(tot.cls[static_cast<unsigned>(LatClass::DemandRead)]
                  .samples, 0u);
    EXPECT_GT(tot.cls[static_cast<unsigned>(LatClass::PrefHit)]
                  .samples, 0u);
    EXPECT_GT(tot.cls[static_cast<unsigned>(LatClass::Write)]
                  .samples, 0u);

    // Class sample counts line up with the percentile plumbing, which
    // counts the same completions independently.
    EXPECT_EQ(tot.cls[static_cast<unsigned>(LatClass::PrefHit)]
                  .samples, r.latPrefHit.samples);
    EXPECT_EQ(tot.cls[static_cast<unsigned>(LatClass::Write)]
                  .samples, r.latWrite.samples);
    EXPECT_EQ(tot.cls[static_cast<unsigned>(LatClass::DemandRead)]
                      .samples
                  + tot.cls[static_cast<unsigned>(
                        LatClass::SwPrefetch)].samples,
              r.latDemand.samples);
}

TEST(AttributionSystemTest, CoreStallAccountingSumsExactly)
{
    SystemConfig cfg = smallConfig(SystemConfig::fbdAp());
    cfg.attribution = true;
    System sys(cfg);
    RunResult r = sys.run();

    ASSERT_EQ(r.attribution.cores.size(), cfg.benchmarks.size());
    bool sawStall = false;
    for (const CoreCycleBreakdown &cb : r.attribution.cores) {
        EXPECT_GT(cb.windowTicks, 0u);
        // Per-core accounting partitions the window.
        EXPECT_EQ(cb.baseTicks() + cb.stallTotal(), cb.windowTicks);
        for (unsigned reas = 0;
             reas < CoreStallAttribution::numReasons; ++reas) {
            // Attributed stall time sums exactly to the reason's
            // stall counter: per-phase + L2-wait + unattributed.
            EXPECT_EQ(cb.att.reasonTotal(reas), cb.stall[reas])
                << "reason " << stallReasonName(reas);
            sawStall = sawStall || cb.stall[reas] > 0;
        }
    }
    EXPECT_TRUE(sawStall) << "workload never stalled a core?";
}

// ---------------------------------------------------------------- //
// Observer invisibility: attribution must not change results       //
// ---------------------------------------------------------------- //

namespace {

void
expectAttributionInvisible(SystemConfig cfg, const char *config_name)
{
    SweepRow plain{config_name, "2C-1", cfg.seed, RunResult{}};
    {
        System sys(cfg);
        plain.result = sys.run();
    }

    SweepRow attributed{config_name, "2C-1", cfg.seed, RunResult{}};
    cfg.attribution = true;
    {
        System sys(cfg);
        attributed.result = sys.run();
    }

    const ResultSchema &schema = ResultSchema::sweepRows();
    EXPECT_EQ(schema.csvRow(plain), schema.csvRow(attributed));
    EXPECT_EQ(schema.jsonRow(plain), schema.jsonRow(attributed));
    const ResultSchema &lat = ResultSchema::latencyPercentiles();
    EXPECT_EQ(lat.csvRow(plain), lat.csvRow(attributed));
}

} // anonymous namespace

TEST(AttributionDeterminismTest, FbdResultsUnchanged)
{
    expectAttributionInvisible(smallConfig(SystemConfig::fbdBase()),
                               "fbd");
}

TEST(AttributionDeterminismTest, FbdApResultsUnchanged)
{
    expectAttributionInvisible(smallConfig(SystemConfig::fbdAp()),
                               "fbd-ap");
}

TEST(AttributionDeterminismTest, Ddr2ResultsUnchanged)
{
    expectAttributionInvisible(smallConfig(SystemConfig::ddr2()),
                               "ddr2");
}

// ---------------------------------------------------------------- //
// Surfaces: latencyBreakdown schema and the stats-json dump        //
// ---------------------------------------------------------------- //

TEST(AttributionSurfaceTest, BreakdownSchemaPhaseMeansSumToTotal)
{
    SystemConfig cfg = smallConfig(SystemConfig::fbdAp());
    cfg.attribution = true;
    System sys(cfg);

    SweepRow row{"fbd-ap", "2C-1", cfg.seed, sys.run()};

    const ResultSchema &schema = ResultSchema::latencyBreakdown();
    for (unsigned c = 0; c < numLatClasses; ++c) {
        const std::string cls =
            latClassName(static_cast<LatClass>(c));
        double total = 0.0, phases = 0.0;
        std::uint64_t samples = 0;
        for (const Column &col : schema.columns()) {
            if (col.name.rfind(cls + "_", 0) != 0)
                continue;
            const ColumnValue v = col.get(row);
            if (col.name == cls + "_samples")
                samples = v.count;
            else if (col.name == cls + "_total_ns")
                total = v.real;
            else
                phases += v.real;
        }
        EXPECT_GT(samples, 0u) << cls;
        EXPECT_NEAR(phases, total, 1e-9) << cls;
    }
}

TEST(AttributionSurfaceTest, StatsJsonIsOneParsableDocument)
{
    SystemConfig cfg = smallConfig(SystemConfig::fbdAp());
    cfg.attribution = true;
    System sys(cfg);
    SweepRow row{"fbd-ap", "2C-1", cfg.seed, sys.run()};

    std::ostringstream os;
    writeRunStatsJson(sys, row, os);

    const json::ParseResult pr = json::parse(os.str());
    ASSERT_TRUE(pr.ok()) << pr.error;
    ASSERT_TRUE(pr.value->isObject());
    for (const char *section :
         {"run", "latency", "kernel", "breakdown", "groups"}) {
        json::ValuePtr v = pr.value->get(section);
        ASSERT_TRUE(v && v->isObject()) << section;
    }

    // The breakdown section carries the attribution columns.
    json::ValuePtr bd = pr.value->get("breakdown");
    json::ValuePtr demand = bd->get("demand_total_ns");
    ASSERT_TRUE(demand && demand->isNumber());
    EXPECT_GT(demand->asNumber(), 0.0);

    // Per-channel stat groups expose the per-class phase means.
    json::ValuePtr groups = pr.value->get("groups");
    json::ValuePtr mc0 = groups->get("mc0");
    ASSERT_TRUE(mc0 && mc0->isObject());
    ASSERT_TRUE(mc0->get("pref_hit_amb_ns"));
}
