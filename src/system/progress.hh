/**
 * @file
 * Live progress for sweeps and long single runs.
 *
 * A design-space sweep at production trace scale runs for hours; until
 * now it was a silent process that either eventually printed rows or
 * didn't.  This layer makes a sweep or a long run observable while it
 * runs, in two shapes:
 *
 *  - ProgressSink: a callback interface the Sweep driver feeds with
 *    per-cell start / finish / fail events (plus sweep start/end), and
 *    a long single run feeds with periodic heartbeats.  Two bundled
 *    sinks render them as a self-overwriting terminal status line
 *    (TerminalProgress) and as machine-readable JSON-lines
 *    (JsonlProgress, the `--progress-out` stream that CI consumes).
 *
 *  - ProgressPulse: the heartbeat source for a single System run.  It
 *    self-schedules one event per sim-time period on the System's
 *    queue — exactly the TelemetrySampler pattern, so attaching it
 *    cannot change simulation results — and reports instructions
 *    retired, the percent of the run target, and the host-side sim
 *    rate.  It reads only core state.
 *
 * Everything here is opt-in and zero-overhead when absent: a Sweep
 * without a sink and a System without a pulse execute exactly the
 * seed code path.
 *
 * Progress events are completion-ordered, not row-ordered — that is
 * their point.  runCells(), which runs the Sweep's cells, serialises
 * sink calls under a mutex, so sinks need no locking of their own;
 * sweep outputs (CSV/JSON rows) stay row-ordered and byte-identical
 * with or without a sink.
 */

#ifndef FBDP_SYSTEM_PROGRESS_HH
#define FBDP_SYSTEM_PROGRESS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"
#include "system/manifest.hh"

namespace fbdp {

class System;

/** Identity of one sweep cell, as shown in progress events. */
struct CellId
{
    std::string config;
    std::string mix;
    std::uint64_t seed = 0;
};

/** One heartbeat of a long single run. */
struct HeartbeatSample
{
    Tick now = 0;                  ///< simulated time
    std::uint64_t instsDone = 0;   ///< retired so far, all cores
    std::uint64_t instsTarget = 0; ///< warm-up + measure, all cores
    double hostSeconds = 0.0;      ///< since the pulse started
    double instsPerSec = 0.0;      ///< instsDone / hostSeconds

    /** Fraction of the run target retired (clamped to 1). */
    double fraction() const;

    /** Host seconds left at the observed rate (0 when unknown). */
    double etaSeconds() const;
};

/**
 * Receiver of progress events.  Every method has an empty default so
 * sinks override only what they render.  Calls arrive serialised (the
 * Sweep holds a lock; a pulse fires from one event context).
 */
class ProgressSink
{
  public:
    virtual ~ProgressSink() = default;

    virtual void sweepStarted(std::size_t cells, unsigned jobs);
    virtual void cellStarted(std::size_t index, const CellId &id);
    virtual void cellFinished(std::size_t index, const CellId &id,
                              double wall_seconds);
    virtual void cellFailed(std::size_t index, const CellId &id,
                            const std::string &what);
    virtual void sweepFinished(double wall_seconds);

    virtual void runHeartbeat(const HeartbeatSample &hb);
};

/**
 * Shared ETA arithmetic of the sweep sinks: mean wall seconds of the
 * completed cells times the cells still outstanding, divided by the
 * worker count.
 */
struct SweepEta
{
    std::size_t total = 0;
    unsigned jobs = 1;
    std::size_t done = 0;
    double wallSum = 0.0;

    void start(std::size_t cells, unsigned n);
    void finished(double wall_seconds);
    double etaSeconds() const;
};

/**
 * Self-overwriting status line on a terminal stream (stderr by
 * default; redraws are throttled to one per 100 ms of host time so a
 * fast sweep is not dominated by terminal writes).
 */
class TerminalProgress : public ProgressSink
{
  public:
    explicit TerminalProgress(std::ostream &os);

    void sweepStarted(std::size_t cells, unsigned jobs) override;
    void cellFinished(std::size_t index, const CellId &id,
                      double wall_seconds) override;
    void cellFailed(std::size_t index, const CellId &id,
                    const std::string &what) override;
    void sweepFinished(double wall_seconds) override;

    void runHeartbeat(const HeartbeatSample &hb) override;

  private:
    void line(const std::string &text, bool final_line);
    bool throttled();

    std::ostream &out;
    SweepEta eta;
    std::size_t lastLen = 0;
    std::chrono::steady_clock::time_point lastDraw{};
    bool drawn = false;
};

/**
 * Machine-readable JSON-lines stream: one object per event, flushed
 * per line so `tail -f` and CI see events live.  When a manifest is
 * supplied the first line is {"event": "manifest", ...} — the stream
 * is then self-describing like every other output surface.
 */
class JsonlProgress : public ProgressSink
{
  public:
    explicit JsonlProgress(std::ostream &os,
                           const RunManifest *m = nullptr);

    void sweepStarted(std::size_t cells, unsigned jobs) override;
    void cellStarted(std::size_t index, const CellId &id) override;
    void cellFinished(std::size_t index, const CellId &id,
                      double wall_seconds) override;
    void cellFailed(std::size_t index, const CellId &id,
                    const std::string &what) override;
    void sweepFinished(double wall_seconds) override;

    void runHeartbeat(const HeartbeatSample &hb) override;

  private:
    std::ostream &out;
    SweepEta eta;
};

/** Fan-out to several sinks (terminal + JSONL at once). */
class ProgressMux : public ProgressSink
{
  public:
    void add(ProgressSink *s) { sinks.push_back(s); }

    void sweepStarted(std::size_t cells, unsigned jobs) override;
    void cellStarted(std::size_t index, const CellId &id) override;
    void cellFinished(std::size_t index, const CellId &id,
                      double wall_seconds) override;
    void cellFailed(std::size_t index, const CellId &id,
                    const std::string &what) override;
    void sweepFinished(double wall_seconds) override;
    void runHeartbeat(const HeartbeatSample &hb) override;

  private:
    std::vector<ProgressSink *> sinks;
};

/**
 * Heartbeat source for one System run: one self-scheduled event per
 * @p period ticks of simulated time reads the cores' retired
 * instruction counters (guarded against the mid-run resetStats()
 * between warm-up and measurement) and reports a HeartbeatSample.
 * Observer-only: results are bit-identical with a pulse attached or
 * not.
 */
class ProgressPulse
{
  public:
    /** 100 µs of simulated time: a handful of beats on a default
     *  400k-instruction run, thousands on a production trace. */
    static constexpr Tick defaultPeriod = nsToTicks(100'000);

    ProgressPulse(System &system, Tick period_ticks,
                  ProgressSink &sink);
    ~ProgressPulse();

    ProgressPulse(const ProgressPulse &) = delete;
    ProgressPulse &operator=(const ProgressPulse &) = delete;

    /** Arm the pulse; call before System::run(). */
    void start();

    /** Emit one final sample and disarm; call after System::run(). */
    void finish();

    std::uint64_t beats() const { return nBeats; }

  private:
    void fire();
    void sample();

    System &sys;
    EventQueue &eq;
    Tick period;
    ProgressSink &sink;

    Event beatEvent;
    Tick nextAt = 0;
    std::uint64_t nBeats = 0;
    std::uint64_t instsTarget = 0;
    std::uint64_t instsAccum = 0;
    std::vector<std::uint64_t> prevInsts; ///< per core, reset guard
    std::chrono::steady_clock::time_point t0{};
};

} // namespace fbdp

#endif // FBDP_SYSTEM_PROGRESS_HH
