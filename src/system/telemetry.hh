/**
 * @file
 * Epoch telemetry: a sim-time periodic sampler that walks the live
 * system at every epoch boundary (default 1 µs) and appends one gauge
 * record per epoch to a stream, as JSON-lines or CSV.
 *
 * The sampler is a pure observer.  It self-schedules one event per
 * epoch, reads component state through const accessors, and writes to
 * its output stream; it never mutates simulation state, so attaching
 * it cannot change results.  Cumulative counters (link busy ticks,
 * commands sent, instructions) are turned into per-epoch deltas with a
 * guard that survives the mid-run resetStats() between the warm-up and
 * measured phases.
 *
 * Gauges are published as a StatGroup of Formulas, so tests and tools
 * can query the latest record by name via gauge("ch0.north_util").
 */

#ifndef FBDP_SYSTEM_TELEMETRY_HH
#define FBDP_SYSTEM_TELEMETRY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"
#include "system/manifest.hh"
#include "system/system.hh"

namespace fbdp {

/** Periodic gauge sampler; one record per simulated epoch. */
class TelemetrySampler
{
  public:
    enum class Format { Jsonl, Csv };

    /** One microsecond of simulated time, in ticks. */
    static constexpr Tick defaultEpoch = nsToTicks(1000);

    /**
     * @param system  the system to observe (must outlive the sampler)
     * @param epoch_ticks  sampling period in ticks (> 0)
     * @param os      output stream for the records (must outlive
     *                the sampler)
     */
    TelemetrySampler(System &system, Tick epoch_ticks, std::ostream &os,
                     Format format = Format::Jsonl);
    ~TelemetrySampler();

    TelemetrySampler(const TelemetrySampler &) = delete;
    TelemetrySampler &operator=(const TelemetrySampler &) = delete;

    /**
     * Embed @p m in the output: start() prepends it as '#' comment
     * lines (CSV) or a single {"manifest": ...} line (JSON-lines), so
     * stripping those recovers the manifest-free bytes.  Call before
     * start().
     */
    void setManifest(const RunManifest &m);

    /** Arm the sampler: first record at the next epoch boundary.
     *  Call before System::run(). */
    void start();

    /**
     * Emit any boundary records the event loop did not reach (the run
     * stops mid-epoch) and disarm.  After finish() the record count is
     * exactly floor(simTime / epoch).  Call after System::run().
     */
    void finish();

    /** Records emitted so far. */
    std::uint64_t records() const { return nRecords; }

    Tick epochTicks() const { return epoch; }

    /** Latest sampled value of the gauge named @p name, or nullopt
     *  for a name no gauge carries — a misspelt gauge name in a test
     *  or a report filter should be loud, not a silent 0. */
    std::optional<double> gauge(const std::string &name) const;

    /** True when a gauge named @p name exists. */
    bool hasGauge(const std::string &name) const;

    /** The gauge set, for enumeration. */
    const stats::StatGroup &gauges() const { return group; }

    /**
     * Parse a time specification with a unit suffix — "500ns", "1us",
     * "2ms" — into ticks.  The number is a plain decimal
     * (parseDecimal: no sign, hex, "nan" or "inf") of at most 1e15 ns;
     * anything else, or a duration that is zero or rounds to zero
     * ticks, is fatal.
     */
    static Tick parseTimeSpec(const std::string &spec);

  private:
    /** Previous cumulative readings of one channel (delta baselines). */
    struct ChannelPrev
    {
        std::uint64_t southCmds = 0;
        std::uint64_t southDataFrames = 0;
        Tick northBusy = 0;
        Tick bankBusy = 0;
        std::uint64_t hits = 0;        ///< reads completed from a buffer
        std::uint64_t otherReads = 0;  ///< the other reads completed
        std::uint64_t latePf = 0;
    };

    /** Per-epoch deltas of one channel, read by the Formulas. */
    struct ChannelCur
    {
        double southCmds = 0.0;
        double southDataFrames = 0.0;
        double northBusy = 0.0;
        double bankBusy = 0.0;
        double hits = 0.0;
        double reads = 0.0;
        double latePf = 0.0;
    };

    struct CoreScratch
    {
        std::uint64_t prevInsts = 0;
        double dInsts = 0.0;
    };

    /** Delta baseline / per-epoch value of the prefetch gauges,
     *  summed over every channel's prefetch buffer. */
    struct PrefetchScratch
    {
        std::uint64_t prevIssued = 0;
        double dIssued = 0.0;
    };

    /** Delta baselines / per-epoch DRAM op counts for the power.*
     *  gauges, summed over every channel. */
    struct PowerScratch
    {
        std::uint64_t prevActPre = 0;
        std::uint64_t prevRdCas = 0;
        std::uint64_t prevWrCas = 0;
        std::uint64_t prevRefresh = 0;
        double dActPre = 0.0;
        double dRdCas = 0.0;
        double dWrCas = 0.0;
        double dRefresh = 0.0;
    };

    void fire();
    void takeSample(Tick at);
    void addGauge(const std::string &gauge_name,
                  const std::string &gauge_desc,
                  std::function<double()> fn);

    System &sys;
    EventQueue &eq;
    Tick epoch;
    std::ostream &out;
    Format fmt;

    Event sampleEvent;
    Tick nextAt = 0;
    std::uint64_t nRecords = 0;
    bool headerDone = false;
    std::optional<RunManifest> manifest;

    std::vector<ChannelPrev> chPrev;
    std::vector<ChannelCur> chCur;
    std::vector<CoreScratch> coreScr;
    PrefetchScratch pfScr;
    PowerScratch pwScr;

    stats::StatGroup group{"telemetry"};
    std::vector<std::unique_ptr<stats::Formula>> formulas;
};

} // namespace fbdp

#endif // FBDP_SYSTEM_TELEMETRY_HH
