/**
 * @file
 * Observability-layer tests: the trace filter and ring buffer, the
 * structural validity of exported Chrome trace_event JSON, the epoch
 * telemetry sampler, and the guarantee that attaching observers does
 * not change simulation results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "system/results.hh"
#include "system/runner.hh"
#include "system/system.hh"
#include "system/telemetry.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

using trace::Filter;
using trace::Kind;
using trace::Ph;
using trace::Record;
using trace::Tracer;

// ---------------------------------------------------------------- //
// Filter parsing                                                   //
// ---------------------------------------------------------------- //

TEST(TraceFilterTest, DefaultSelectsEverything)
{
    Filter f;
    EXPECT_TRUE(f.wantChannel(0));
    EXPECT_TRUE(f.wantChannel(7));
    EXPECT_TRUE(f.want(Kind::Read));
    EXPECT_TRUE(f.want(Kind::Write));
    EXPECT_TRUE(f.want(Kind::Prefetch));
    EXPECT_TRUE(f.want(Kind::None));
}

TEST(TraceFilterTest, ParsesChannel)
{
    Filter f = Filter::parse("chan=1");
    EXPECT_FALSE(f.wantChannel(0));
    EXPECT_TRUE(f.wantChannel(1));
    // kinds untouched
    EXPECT_TRUE(f.want(Kind::Write));
}

TEST(TraceFilterTest, ParsesKindList)
{
    Filter f = Filter::parse("kind=read|prefetch");
    EXPECT_TRUE(f.want(Kind::Read));
    EXPECT_TRUE(f.want(Kind::Prefetch));
    EXPECT_FALSE(f.want(Kind::Write));
    // Unclassified resource events are never filtered out.
    EXPECT_TRUE(f.want(Kind::None));
    EXPECT_TRUE(f.wantChannel(3));
}

TEST(TraceFilterTest, ParsesCombined)
{
    Filter f = Filter::parse("chan=0,kind=write");
    EXPECT_TRUE(f.wantChannel(0));
    EXPECT_FALSE(f.wantChannel(1));
    EXPECT_TRUE(f.want(Kind::Write));
    EXPECT_FALSE(f.want(Kind::Read));
}

TEST(TraceFilterDeathTest, RejectsMalformedSpecs)
{
    EXPECT_DEATH((void)Filter::parse("bogus"), "key=value");
    EXPECT_DEATH((void)Filter::parse("chan=abc"), "channel index");
    EXPECT_DEATH((void)Filter::parse("kind=banana"),
                 "read\\|write\\|prefetch");
    EXPECT_DEATH((void)Filter::parse("speed=11"), "chan= or kind=");
    // A channel index is a whole decimal that fits an int: a parse
    // that wrapped would read 2^32 as channel 0 and 2^31 as "every
    // channel".
    for (const char *bad : {"chan=4294967296", "chan=4294967297",
                            "chan=2147483648", "chan=+1", "chan= 1",
                            "chan=-1", "chan=1x", "chan="})
        EXPECT_DEATH((void)Filter::parse(bad), "channel index") << bad;
}

// ---------------------------------------------------------------- //
// Tracer ring buffer                                               //
// ---------------------------------------------------------------- //

TEST(TracerTest, InternsTracksOnce)
{
    Tracer tr;
    const std::uint32_t a = tr.track("ch0.txn");
    const std::uint32_t b = tr.track("ch0.south");
    EXPECT_NE(a, b);
    EXPECT_EQ(tr.track("ch0.txn"), a);
    EXPECT_EQ(tr.numTracks(), 2u);
    EXPECT_EQ(tr.trackName(a), "ch0.txn");
}

TEST(TracerTest, RecordsInPushOrder)
{
    Tracer tr;
    const std::uint32_t t = tr.track("t");
    tr.begin(t, "row", 100);
    tr.instant(t, "cas", 150, Kind::Read, 2, 0x1000);
    tr.end(t, "row", 200);
    tr.counter(t, "occupancy", 250, 7);
    EXPECT_EQ(tr.recorded(), 4u);
    EXPECT_EQ(tr.dropped(), 0u);

    std::vector<Record> recs = tr.chronological();
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(recs[0].ph, Ph::Begin);
    EXPECT_EQ(recs[1].ph, Ph::Instant);
    EXPECT_EQ(recs[1].kind, Kind::Read);
    EXPECT_EQ(recs[1].core, 2);
    EXPECT_EQ(recs[1].addr, 0x1000u);
    EXPECT_EQ(recs[2].ph, Ph::End);
    EXPECT_EQ(recs[3].ph, Ph::Counter);
    EXPECT_EQ(recs[3].value, 7u);
}

TEST(TracerTest, RingWrapDropsOldestFirst)
{
    Tracer tr{Filter{}, 4};
    const std::uint32_t t = tr.track("t");
    for (Tick ts = 1; ts <= 6; ++ts)
        tr.instant(t, "ev", ts);
    EXPECT_EQ(tr.recorded(), 6u);
    EXPECT_EQ(tr.dropped(), 2u);
    EXPECT_EQ(tr.size(), 4u);

    std::vector<Record> recs = tr.chronological();
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(recs.front().ts, 3u);  // 1 and 2 were overwritten
    EXPECT_EQ(recs.back().ts, 6u);
}

TEST(TracerTest, ExportRepairsOrphanedDurations)
{
    // A tiny ring that keeps an End whose Begin was overwritten, and
    // a Begin that never closes; the export must still balance.
    Tracer tr{Filter{}, 2};
    const std::uint32_t t = tr.track("t");
    tr.begin(t, "a", 10);
    tr.end(t, "a", 20);      // ring now holds B@10 E@20
    tr.begin(t, "b", 30);    // overwrites B@10 -> orphan E@20
    std::ostringstream os;
    tr.exportJson(os);
    const std::string out = os.str();
    // One B (for "b"), one E (the synthetic close); the orphaned
    // E@20 is skipped.
    std::size_t nb = 0, ne = 0, at = 0;
    while ((at = out.find("\"ph\": \"B\"", at)) != std::string::npos) {
        ++nb;
        ++at;
    }
    at = 0;
    while ((at = out.find("\"ph\": \"E\"", at)) != std::string::npos) {
        ++ne;
        ++at;
    }
    EXPECT_EQ(nb, 1u);
    EXPECT_EQ(ne, 1u);
}

// ---------------------------------------------------------------- //
// Structural validation of a full-system trace                     //
// ---------------------------------------------------------------- //

namespace {

SystemConfig
smallConfig(SystemConfig cfg)
{
    cfg.measureInsts = 20'000;
    cfg.warmupInsts = 5'000;
    cfg.benchmarks = mixByName("2C-1").benches;
    return cfg;
}

/** Pull the integer after @p key from a JSON event line. */
long
fieldInt(const std::string &line, const std::string &key)
{
    const std::size_t at = line.find(key);
    if (at == std::string::npos)
        return -1;
    return std::atol(line.c_str() + at + key.size());
}

/** Pull the double after @p key from a JSON event line. */
double
fieldReal(const std::string &line, const std::string &key)
{
    const std::size_t at = line.find(key);
    if (at == std::string::npos)
        return -1.0;
    return std::atof(line.c_str() + at + key.size());
}

/**
 * Walk an exported trace line by line and check the structural
 * invariants: every event has name/ph/pid/tid/ts, timestamps are
 * globally non-decreasing (the export sorts), and Begin/End nest
 * per tid with depth never negative and zero at the end.
 */
void
validateTraceJson(const std::string &out)
{
    std::istringstream is(out);
    std::string line;
    std::getline(is, line);
    ASSERT_NE(line.find("{\"traceEvents\": ["), std::string::npos);

    std::map<long, long> depth;
    double lastTs = -1.0;
    std::size_t events = 0;
    while (std::getline(is, line)) {
        if (line.rfind("]", 0) == 0)
            break;  // closing "], \"displayTimeUnit\" ..." line
        ASSERT_NE(line.find("\"name\": \""), std::string::npos)
            << line;
        ASSERT_NE(line.find("\"pid\": 1"), std::string::npos) << line;
        const std::size_t phAt = line.find("\"ph\": \"");
        ASSERT_NE(phAt, std::string::npos) << line;
        const char ph = line[phAt + 7];
        const long tid = fieldInt(line, "\"tid\": ");
        ASSERT_GE(tid, 0) << line;
        if (ph == 'M')
            continue;  // metadata carries no ts
        ++events;
        const double ts = fieldReal(line, "\"ts\": ");
        ASSERT_GE(ts, 0.0) << line;
        ASSERT_GE(ts, lastTs) << "timestamps must not run backwards";
        lastTs = ts;
        if (ph == 'B') {
            ++depth[tid];
        } else if (ph == 'E') {
            --depth[tid];
            ASSERT_GE(depth[tid], 0)
                << "End without Begin on tid " << tid;
        } else {
            ASSERT_TRUE(ph == 'i' || ph == 'C') << line;
        }
    }
    EXPECT_GT(events, 0u);
    for (const auto &d : depth)
        EXPECT_EQ(d.second, 0)
            << "unbalanced durations on tid " << d.first;
}

} // anonymous namespace

TEST(TraceSystemTest, TwoCoreRunExportsValidBalancedJson)
{
    Tracer tr;
    System sys(smallConfig(SystemConfig::fbdAp()));
    sys.attachTracer(&tr);
    RunResult r = sys.run();
    EXPECT_GT(r.reads, 0u);
    EXPECT_GT(tr.recorded(), 0u);

    std::ostringstream os;
    tr.exportJson(os);
    const std::string out = os.str();
    validateTraceJson(out);

    // The acceptance tracks: per-channel transaction, bank and AMB
    // activity plus both cores.
    EXPECT_NE(out.find("ch0.txn"), std::string::npos);
    EXPECT_NE(out.find("ch1.txn"), std::string::npos);
    EXPECT_NE(out.find("ch0.dimm0.bank0"), std::string::npos);
    EXPECT_NE(out.find("ch0.dimm0.pf"), std::string::npos);
    EXPECT_NE(out.find("cpu0."), std::string::npos);
    EXPECT_NE(out.find("cpu1."), std::string::npos);
    EXPECT_NE(out.find("\"displayTimeUnit\": \"ns\""),
              std::string::npos);
}

TEST(TraceSystemTest, ChannelFilterBindsOnlyThatChannel)
{
    Tracer tr{Filter::parse("chan=0")};
    System sys(smallConfig(SystemConfig::fbdAp()));
    sys.attachTracer(&tr);
    sys.run();

    bool sawCh0 = false;
    for (std::uint32_t t = 0; t < tr.numTracks(); ++t) {
        const std::string &n = tr.trackName(t);
        EXPECT_NE(n.rfind("ch1.", 0), 0u)
            << "filtered-out channel interned track " << n;
        if (n.rfind("ch0.", 0) == 0)
            sawCh0 = true;
    }
    EXPECT_TRUE(sawCh0);
}

TEST(TraceSystemDeathTest, ChannelTheMachineLacksIsFatal)
{
    // chan=2 on a two-channel machine would record no channel track.
    Tracer tr{Filter::parse("chan=2")};
    System sys(smallConfig(SystemConfig::fbdAp()));
    EXPECT_DEATH(sys.attachTracer(&tr), "has 2 channel");
    Tracer lastChannel{Filter::parse("chan=1")};
    sys.attachTracer(&lastChannel);
}

TEST(TraceSystemTest, KindFilterSuppressesClassifiedRecords)
{
    Tracer tr{Filter::parse("kind=write")};
    System sys(smallConfig(SystemConfig::fbdAp()));
    sys.attachTracer(&tr);
    sys.run();

    ASSERT_GT(tr.recorded(), 0u);
    for (const Record &r : tr.chronological()) {
        EXPECT_NE(r.kind, Kind::Read)
            << "read-classified record survived kind=write";
        EXPECT_NE(r.kind, Kind::Prefetch)
            << "prefetch-classified record survived kind=write";
    }
}

// ---------------------------------------------------------------- //
// Epoch telemetry                                                  //
// ---------------------------------------------------------------- //

TEST(TelemetryTest, ParsesTimeSpecs)
{
    EXPECT_EQ(TelemetrySampler::parseTimeSpec("1us"), 1'000'000u);
    EXPECT_EQ(TelemetrySampler::parseTimeSpec("500ns"), 500'000u);
    EXPECT_EQ(TelemetrySampler::parseTimeSpec("2ms"),
              2'000'000'000u);
    EXPECT_EQ(TelemetrySampler::parseTimeSpec("1.5us"), 1'500'000u);
    EXPECT_EQ(TelemetrySampler::parseTimeSpec("1e15ns"),
              1'000'000'000'000'000'000u);
    EXPECT_EQ(TelemetrySampler::parseTimeSpec(".5ns"), 500u);
    EXPECT_EQ(TelemetrySampler::defaultEpoch, 1'000'000u);
}

TEST(TelemetryDeathTest, RejectsBadTimeSpecs)
{
    EXPECT_DEATH((void)TelemetrySampler::parseTimeSpec("abc"),
                 "bad time spec");
    EXPECT_DEATH((void)TelemetrySampler::parseTimeSpec("10"),
                 "unit must be");
    EXPECT_DEATH((void)TelemetrySampler::parseTimeSpec("10s"),
                 "unit must be");
    EXPECT_DEATH((void)TelemetrySampler::parseTimeSpec("-5us"),
                 "positive");
    // The number is a plain decimal of at most 1e15 ns: NaN would slip
    // past a sign check, hex would read 0x10 as 16, and larger values
    // would overflow the conversion to a Tick.
    for (const char *bad : {"nanns", "infus", "0x10ns", "1e300ms",
                            "1e16ns", "1e10ms", " 5us", "+5us", "ns",
                            "5.5.5us"})
        EXPECT_DEATH((void)TelemetrySampler::parseTimeSpec(bad),
                     "expected a positive decimal") << bad;
    EXPECT_DEATH((void)TelemetrySampler::parseTimeSpec("0ns"),
                 "must be positive");
    EXPECT_DEATH((void)TelemetrySampler::parseTimeSpec("0.0001ns"),
                 "rounds to zero ticks");
}

TEST(TelemetryTest, EmitsOneRecordPerElapsedEpoch)
{
    System sys(smallConfig(SystemConfig::fbdAp()));
    std::ostringstream os;
    const Tick epoch = TelemetrySampler::parseTimeSpec("500ns");
    TelemetrySampler sampler(sys, epoch, os);
    sampler.start();
    sys.run();
    sampler.finish();

    const Tick simTime = sys.eventQueue().now();
    ASSERT_GT(simTime, epoch);
    EXPECT_EQ(sampler.records(), simTime / epoch);

    // One JSONL object per record.
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"t_ns\":"), std::string::npos);
        EXPECT_NE(line.find("\"ch0.north_util\":"),
                  std::string::npos);
        EXPECT_NE(line.find("\"cpu0.ipc\":"), std::string::npos);
    }
    EXPECT_EQ(lines, sampler.records());

    // Gauges remain queryable by name after the run; unknown names
    // are distinguishable from a sampled zero.
    EXPECT_NE(sampler.gauges().find("ch0.pf_hit_rate"), nullptr);
    ASSERT_TRUE(sampler.hasGauge("ch0.queue_depth"));
    ASSERT_TRUE(sampler.gauge("ch0.queue_depth").has_value());
    EXPECT_GE(*sampler.gauge("ch0.queue_depth"), 0.0);
    EXPECT_FALSE(sampler.hasGauge("no.such.gauge"));
    EXPECT_FALSE(sampler.gauge("no.such.gauge").has_value());
}

// The hit rate takes hits and reads from one population, the reads
// completed in the epoch, so no epoch reads above 1.  Hits counted
// when served over reads counted on arrival can: a hit served in the
// epoch after its read arrived.
TEST(TelemetryTest, PrefetchHitRateIsAFraction)
{
    System sys(smallConfig(SystemConfig::fbdAp()));
    std::ostringstream os;
    TelemetrySampler sampler(sys, TelemetrySampler::defaultEpoch, os);
    sampler.start();
    sys.run();
    sampler.finish();

    std::istringstream is(os.str());
    std::string line;
    std::size_t checked = 0;
    double highest = 0.0;
    while (std::getline(is, line)) {
        for (unsigned c = 0; c < sys.numControllers(); ++c) {
            const std::string key =
                "\"ch" + std::to_string(c) + ".pf_hit_rate\": ";
            ASSERT_NE(line.find(key), std::string::npos) << line;
            const double rate = fieldReal(line, key);
            EXPECT_GE(rate, 0.0) << key << " in " << line;
            EXPECT_LE(rate, 1.0) << key << " in " << line;
            highest = std::max(highest, rate);
            ++checked;
        }
    }
    EXPECT_EQ(checked, sampler.records() * sys.numControllers());
    EXPECT_GT(highest, 0.0);
}

TEST(TelemetryTest, CsvFormatHasHeaderAndMatchingRows)
{
    System sys(smallConfig(SystemConfig::fbdBase()));
    std::ostringstream os;
    TelemetrySampler sampler(sys, TelemetrySampler::defaultEpoch, os,
                             TelemetrySampler::Format::Csv);
    sampler.start();
    sys.run();
    sampler.finish();

    std::istringstream is(os.str());
    std::string header;
    ASSERT_TRUE(static_cast<bool>(std::getline(is, header)));
    EXPECT_EQ(header.rfind("epoch,t_ns,", 0), 0u);
    const std::size_t cols =
        static_cast<std::size_t>(
            std::count(header.begin(), header.end(), ',')) + 1;
    std::string line;
    std::size_t rows = 0;
    while (std::getline(is, line)) {
        ++rows;
        EXPECT_EQ(static_cast<std::size_t>(
                      std::count(line.begin(), line.end(), ',')) + 1,
                  cols);
    }
    EXPECT_EQ(rows, sampler.records());
}

TEST(TelemetryTest, FinishEmitsPendingBoundariesExactlyOnce)
{
    // The run stops the moment the instruction target is hit, which
    // is almost never an epoch multiple: boundaries the event loop
    // did not reach are caught up by finish() — once.  A second
    // finish() must be a no-op, not a duplicate tail record.
    System sys(smallConfig(SystemConfig::fbdAp()));
    std::ostringstream os;
    const Tick epoch = TelemetrySampler::parseTimeSpec("700ns");
    TelemetrySampler sampler(sys, epoch, os);
    sampler.start();
    sys.run();

    const Tick simTime = sys.eventQueue().now();
    ASSERT_GT(simTime, epoch);
    // With a 700ns epoch the stop point falls mid-epoch here; the
    // assertion below is what makes this a boundary test at all.
    ASSERT_NE(simTime % epoch, 0u);

    sampler.finish();
    const std::uint64_t after_first = sampler.records();
    EXPECT_EQ(after_first, simTime / epoch);

    sampler.finish();
    EXPECT_EQ(sampler.records(), after_first);

    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    Tick last_t_ns = 0;
    while (std::getline(is, line)) {
        ++lines;
        const std::size_t at = line.find("\"t_ns\":");
        ASSERT_NE(at, std::string::npos);
        last_t_ns = static_cast<Tick>(
            std::atoll(line.c_str() + at + 7));
    }
    EXPECT_EQ(lines, after_first);
    // The final record sits on the last epoch boundary inside the
    // run, never beyond the simulated time.
    EXPECT_EQ(last_t_ns, (simTime / epoch) * epoch / 1000);
}

TEST(TelemetryTest, CsvAndJsonlAgreeOnRecordCount)
{
    // Identical runs sampled through the two formats must produce the
    // same number of data rows — the format changes the encoding,
    // never the epoch bookkeeping.
    const SystemConfig cfg = smallConfig(SystemConfig::fbdAp());
    const Tick epoch = TelemetrySampler::parseTimeSpec("500ns");

    std::ostringstream csv_os;
    {
        System sys(cfg);
        TelemetrySampler sampler(sys, epoch, csv_os,
                                 TelemetrySampler::Format::Csv);
        sampler.start();
        sys.run();
        sampler.finish();
    }
    std::ostringstream jsonl_os;
    std::uint64_t jsonl_records = 0;
    {
        System sys(cfg);
        TelemetrySampler sampler(sys, epoch, jsonl_os,
                                 TelemetrySampler::Format::Jsonl);
        sampler.start();
        sys.run();
        sampler.finish();
        jsonl_records = sampler.records();
    }

    auto countLines = [](const std::string &text) {
        std::istringstream is(text);
        std::string line;
        std::size_t n = 0;
        while (std::getline(is, line))
            ++n;
        return n;
    };
    // CSV carries one header line on top of the data rows.
    EXPECT_EQ(countLines(csv_os.str()),
              countLines(jsonl_os.str()) + 1);
    EXPECT_EQ(countLines(jsonl_os.str()), jsonl_records);
    EXPECT_GT(jsonl_records, 0u);
}

// ---------------------------------------------------------------- //
// Determinism guard: observers must not change results             //
// ---------------------------------------------------------------- //

namespace {

void
expectObserversAreInvisible(SystemConfig cfg, const char *config_name)
{
    SweepRow plain{config_name, "2C-1", cfg.seed, RunResult{}};
    {
        System sys(cfg);
        plain.result = sys.run();
    }

    SweepRow observed{config_name, "2C-1", cfg.seed, RunResult{}};
    std::ostringstream telemetry;
    {
        Tracer tr;
        System sys(cfg);
        sys.attachTracer(&tr);
        TelemetrySampler sampler(
            sys, TelemetrySampler::parseTimeSpec("500ns"), telemetry);
        sampler.start();
        observed.result = sys.run();
        sampler.finish();
        EXPECT_GT(tr.recorded(), 0u);
        EXPECT_GT(sampler.records(), 0u);
    }

    // The full sweep-facing result surface must be byte-identical.
    const ResultSchema &schema = ResultSchema::sweepRows();
    EXPECT_EQ(schema.csvRow(plain), schema.csvRow(observed));
    EXPECT_EQ(schema.jsonRow(plain), schema.jsonRow(observed));
    const ResultSchema &lat = ResultSchema::latencyPercentiles();
    EXPECT_EQ(lat.csvRow(plain), lat.csvRow(observed));
}

} // anonymous namespace

TEST(TraceDeterminismTest, FbdResultsUnchangedByObservers)
{
    expectObserversAreInvisible(smallConfig(SystemConfig::fbdBase()),
                                "fbd");
}

TEST(TraceDeterminismTest, FbdApResultsUnchangedByObservers)
{
    expectObserversAreInvisible(smallConfig(SystemConfig::fbdAp()),
                                "fbd-ap");
}

// ---------------------------------------------------------------- //
// Latency-percentile plumbing                                      //
// ---------------------------------------------------------------- //

TEST(LatencyPercentileTest, ClassesPopulateAndOrderSanely)
{
    System sys(smallConfig(SystemConfig::fbdAp()));
    RunResult r = sys.run();

    EXPECT_GT(r.latDemand.samples, 0u);
    EXPECT_GT(r.latPrefHit.samples, 0u);
    EXPECT_GT(r.latWrite.samples, 0u);
    // Demand + prefetch-hit reads partition the completed reads.
    // (Sampled at completion while r.reads counts arrivals, so reads
    // straddling the window boundary shift the sum by a few.)
    const double sum = static_cast<double>(r.latDemand.samples
                                           + r.latPrefHit.samples);
    EXPECT_NEAR(sum, static_cast<double>(r.reads),
                0.05 * static_cast<double>(r.reads));

    for (const LatencyClassStats *c :
         {&r.latDemand, &r.latPrefHit, &r.latWrite}) {
        EXPECT_GT(c->p50Ns, 0.0);
        EXPECT_LE(c->p50Ns, c->p95Ns);
        EXPECT_LE(c->p95Ns, c->p99Ns);
    }
    // Prefetch hits skip the DRAM access, so their median beats the
    // demand-miss median.
    EXPECT_LT(r.latPrefHit.p50Ns, r.latDemand.p50Ns);

    const ResultSchema &schema = ResultSchema::latencyPercentiles();
    SweepRow row{"fbd-ap", "2C-1", 1, r};
    const std::string header = schema.csvHeader();
    EXPECT_NE(header.find("demand_p99_ns"), std::string::npos);
    EXPECT_NE(header.find("pref_hit_p50_ns"), std::string::npos);
    EXPECT_NE(header.find("late_prefetch_hits"), std::string::npos);
    // Row and header agree on width.
    const std::string csvRow = schema.csvRow(row);
    EXPECT_EQ(std::count(header.begin(), header.end(), ','),
              std::count(csvRow.begin(), csvRow.end(), ','));
}

} // namespace
} // namespace fbdp
