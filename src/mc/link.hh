/**
 * @file
 * Bandwidth/occupancy models for the interconnect resources.
 *
 * BusTracker — a simple busy-until reservation tracker used for every
 * resource that streams data bursts: the FB-DIMM northbound link, the
 * per-DIMM DDR2 bus between the AMB and the DRAM chips, and the shared
 * data bus of the conventional DDR2 baseline channel.
 *
 * CommandLink — a frame/slot model of a command-carrying link.  The
 * FB-DIMM southbound link carries, per memory cycle (frame), either
 * three commands or one command plus a write-data payload; the DDR2
 * baseline command bus carries one command per cycle and never data.
 */

#ifndef FBDP_MC_LINK_HH
#define FBDP_MC_LINK_HH

#include <cstdint>
#include <deque>

#include "common/types.hh"

namespace fbdp {

/** Busy-until reservation tracker for a streaming data resource. */
class BusTracker
{
  public:
    /** Earliest start for a reservation wanting to begin at
     *  @p earliest. */
    Tick nextFree(Tick earliest) const
    {
        return earliest > busyUntil ? earliest : busyUntil;
    }

    /** Reserve @p duration ticks starting no earlier than @p earliest.
     *  @return the granted start tick. */
    Tick
    reserve(Tick earliest, Tick duration)
    {
        Tick start = nextFree(earliest);
        busyUntil = start + duration;
        totalBusy += duration;
        return start;
    }

    /** Total ticks ever reserved (for utilisation stats). */
    Tick busyTicks() const { return totalBusy; }

    void reset() { busyUntil = 0; totalBusy = 0; }

  private:
    Tick busyUntil = 0;
    Tick totalBusy = 0;
};

/**
 * Slotted command link.  Frames are one memory cycle long; each frame
 * offers @p slots_per_frame command slots unless it carries a data
 * payload, in which case it offers exactly one.
 */
class CommandLink
{
  public:
    CommandLink(Tick cycle_period, unsigned slots_per_frame);

    /** Tick of the frame containing @p t, i.e. t rounded down. */
    Tick frameStart(Tick t) const { return (t / period) * period; }

    /** Number of command slots still free in the frame at @p t. */
    unsigned cmdSlotsFree(Tick t);

    /** Consume one command slot in the frame at @p t. */
    void useCmdSlot(Tick t);

    /**
     * Reserve @p n_frames consecutive data-payload frames, the first
     * starting no earlier than @p earliest.  Frames already carrying
     * data, or with more than one command slot used, are skipped.
     *
     * @return the start tick of the first reserved frame.
     */
    Tick reserveDataFrames(Tick earliest, unsigned n_frames);

    /** Drop bookkeeping for frames strictly before @p t.  Those
     *  frames are then closed: touching one is a model error. */
    void retireBefore(Tick t);

    std::uint64_t framesWithData() const { return nDataFrames; }
    std::uint64_t commandsSent() const { return nCommands; }

  private:
    struct Frame {
        std::uint8_t cmdsUsed = 0;
        bool data = false;
    };

    Frame &frameAt(std::uint64_t cycle);
    unsigned capacity(const Frame &f) const
    {
        return f.data ? 1u : slotsPerFrame;
    }

    Tick period;
    unsigned slotsPerFrame;

    std::deque<Frame> window;
    std::uint64_t windowStart = 0;  ///< cycle index of window.front()

    std::uint64_t nDataFrames = 0;
    std::uint64_t nCommands = 0;
};

} // namespace fbdp

#endif // FBDP_MC_LINK_HH
