#include "mc/link.hh"

#include "common/logging.hh"

namespace fbdp {

CommandLink::CommandLink(Tick cycle_period, unsigned slots_per_frame)
    : period(cycle_period), slotsPerFrame(slots_per_frame)
{
    fbdp_assert(period > 0, "zero link cycle period");
    fbdp_assert(slotsPerFrame >= 1, "link needs at least one slot");
}

CommandLink::Frame &
CommandLink::frameAt(std::uint64_t cycle)
{
    // Frames before windowStart were retired as past; a command or
    // data reservation there would rewrite history.
    fbdp_assert(cycle >= windowStart,
                "frame %llu is before the retained window (first %llu)",
                static_cast<unsigned long long>(cycle),
                static_cast<unsigned long long>(windowStart));
    while (cycle >= windowStart + window.size())
        window.emplace_back();
    return window[static_cast<size_t>(cycle - windowStart)];
}

unsigned
CommandLink::cmdSlotsFree(Tick t)
{
    Frame &f = frameAt(t / period);
    unsigned cap = capacity(f);
    return f.cmdsUsed >= cap ? 0 : cap - f.cmdsUsed;
}

void
CommandLink::useCmdSlot(Tick t)
{
    Frame &f = frameAt(t / period);
    fbdp_assert(f.cmdsUsed < capacity(f), "command slot overflow");
    ++f.cmdsUsed;
    ++nCommands;
}

Tick
CommandLink::reserveDataFrames(Tick earliest, unsigned n_frames)
{
    fbdp_assert(n_frames >= 1, "empty data reservation");
    std::uint64_t cycle = earliest / period;
    if (earliest % period)
        ++cycle;

    for (;;) {
        bool ok = true;
        for (unsigned i = 0; i < n_frames; ++i) {
            Frame &f = frameAt(cycle + i);
            if (f.data || f.cmdsUsed > 1) {
                ok = false;
                cycle = cycle + i + 1;
                break;
            }
        }
        if (ok)
            break;
    }

    for (unsigned i = 0; i < n_frames; ++i) {
        Frame &f = frameAt(cycle + i);
        f.data = true;
        ++nDataFrames;
    }
    return cycle * period;
}

void
CommandLink::retireBefore(Tick t)
{
    std::uint64_t cycle = t / period;
    while (!window.empty() && windowStart < cycle) {
        window.pop_front();
        ++windowStart;
    }
    if (windowStart < cycle)
        windowStart = cycle;  // retired frames that were never used
}

} // namespace fbdp
