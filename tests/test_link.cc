/**
 * @file
 * Unit tests of the interconnect occupancy models: BusTracker and the
 * slotted CommandLink (FB-DIMM southbound / DDR2 command bus).
 */

#include <gtest/gtest.h>

#include "mc/link.hh"

namespace fbdp {
namespace {

TEST(BusTrackerTest, GrantsAtEarliestWhenIdle)
{
    BusTracker bus;
    EXPECT_EQ(bus.nextFree(1000), 1000u);
    EXPECT_EQ(bus.reserve(1000, 500), 1000u);
}

TEST(BusTrackerTest, QueuesBackToBack)
{
    BusTracker bus;
    EXPECT_EQ(bus.reserve(0, 100), 0u);
    EXPECT_EQ(bus.reserve(0, 100), 100u);
    EXPECT_EQ(bus.reserve(150, 100), 200u);
    EXPECT_EQ(bus.busyTicks(), 300u);
}

TEST(BusTrackerTest, IdleGapsAreNotReclaimed)
{
    BusTracker bus;
    bus.reserve(1000, 100);
    // A later request for an earlier time still waits (conservative).
    EXPECT_EQ(bus.reserve(0, 50), 1100u);
}

TEST(BusTrackerTest, ResetClears)
{
    BusTracker bus;
    bus.reserve(0, 1000);
    bus.reset();
    EXPECT_EQ(bus.reserve(0, 10), 0u);
    EXPECT_EQ(bus.busyTicks(), 10u);
}

class CommandLinkTest : public ::testing::Test
{
  protected:
    static constexpr Tick cycle = 3000;
    CommandLink fbd{cycle, 3};   // southbound
    CommandLink ddr2{cycle, 1};  // command bus
};

TEST_F(CommandLinkTest, ThreeSlotsPerFbdFrame)
{
    EXPECT_EQ(fbd.cmdSlotsFree(0), 3u);
    fbd.useCmdSlot(0);
    fbd.useCmdSlot(100);  // same frame
    EXPECT_EQ(fbd.cmdSlotsFree(0), 1u);
    fbd.useCmdSlot(2999);
    EXPECT_EQ(fbd.cmdSlotsFree(0), 0u);
    // Next frame is fresh.
    EXPECT_EQ(fbd.cmdSlotsFree(cycle), 3u);
}

TEST_F(CommandLinkTest, OneSlotPerDdr2Cycle)
{
    EXPECT_EQ(ddr2.cmdSlotsFree(0), 1u);
    ddr2.useCmdSlot(0);
    EXPECT_EQ(ddr2.cmdSlotsFree(0), 0u);
    EXPECT_EQ(ddr2.cmdSlotsFree(cycle), 1u);
}

TEST_F(CommandLinkTest, DataFrameLeavesOneCommandSlot)
{
    Tick start = fbd.reserveDataFrames(0, 4);
    EXPECT_EQ(start, 0u);
    for (unsigned f = 0; f < 4; ++f)
        EXPECT_EQ(fbd.cmdSlotsFree(f * cycle), 1u)
            << "frame " << f;
    EXPECT_EQ(fbd.framesWithData(), 4u);
}

TEST_F(CommandLinkTest, DataReservationSkipsBusyFrames)
{
    // Fill frame 1 with two commands: it cannot carry data.
    fbd.useCmdSlot(cycle);
    fbd.useCmdSlot(cycle);
    Tick start = fbd.reserveDataFrames(0, 2);
    // Frame 0 is free but frame 1 is not: the run must start at 2.
    EXPECT_EQ(start, 2 * cycle);
}

TEST_F(CommandLinkTest, DataFramesDoNotOverlap)
{
    Tick a = fbd.reserveDataFrames(0, 4);
    Tick b = fbd.reserveDataFrames(0, 4);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 4 * cycle);
}

TEST_F(CommandLinkTest, ReservationAlignsUpToFrame)
{
    Tick start = fbd.reserveDataFrames(cycle + 1, 1);
    EXPECT_EQ(start, 2 * cycle);
}

TEST_F(CommandLinkTest, RetireKeepsFutureFrames)
{
    fbd.useCmdSlot(0);
    fbd.useCmdSlot(5 * cycle);
    fbd.retireBefore(3 * cycle);
    EXPECT_EQ(fbd.cmdSlotsFree(5 * cycle), 2u);
    EXPECT_EQ(fbd.commandsSent(), 2u);
}

TEST_F(CommandLinkTest, SlotOverflowPanics)
{
    ddr2.useCmdSlot(0);
    EXPECT_DEATH(ddr2.useCmdSlot(0), "overflow");
}

TEST_F(CommandLinkTest, RetiredFramesAreClosed)
{
    fbd.useCmdSlot(5 * cycle);
    fbd.retireBefore(3 * cycle);
    EXPECT_DEATH(fbd.useCmdSlot(cycle), "before the retained window");
    EXPECT_DEATH(fbd.cmdSlotsFree(2 * cycle),
                 "before the retained window");
    EXPECT_EQ(fbd.cmdSlotsFree(3 * cycle), 3u);

    // Retiring past every used frame closes the unused ones too.
    CommandLink idle{cycle, 3};
    idle.retireBefore(4 * cycle);
    EXPECT_DEATH(idle.reserveDataFrames(0, 1),
                 "before the retained window");
    EXPECT_EQ(idle.reserveDataFrames(4 * cycle, 1), 4 * cycle);
}

TEST_F(CommandLinkTest, FrameStartRoundsDown)
{
    EXPECT_EQ(fbd.frameStart(0), 0u);
    EXPECT_EQ(fbd.frameStart(2999), 0u);
    EXPECT_EQ(fbd.frameStart(3000), 3000u);
}

} // namespace
} // namespace fbdp
