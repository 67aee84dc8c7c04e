/**
 * @file
 * The kernel self-profiler's contract (SystemConfig::profileKernel):
 *
 *  - invisibility: a profiled run is bit-for-bit identical to the same
 *    run unprofiled — the profiler only reads clocks and existing
 *    state;
 *  - bounded host time: the shards' busy + drain seconds fit inside
 *    the event phases' wall time they were measured in;
 *  - shape: one ShardProfile per queue shard, shard event counts
 *    summing to the kernel total, mailbox traffic consistent between
 *    posters and drainers;
 *  - determinism of the gateable summary: eventImbalance() is exactly
 *    equal between repeated runs.
 */

#include <gtest/gtest.h>

#include <string>

#include "run_digest.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

SystemConfig
profiledMachine(unsigned channels)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.logicChannels = channels;
    c.benchmarks = mixByName("2C-1").benches;
    c.warmupInsts = 5'000;
    c.measureInsts = 15'000;
    c.seed = 7;
    return c;
}

RunResult
runProfiled(SystemConfig c, bool profiled)
{
    c.profileKernel = profiled;
    System sys(c);
    return sys.run();
}

} // namespace

TEST(KernelProfileInvisibility, OnEqualsOff)
{
    const SystemConfig c = profiledMachine(8);
    EXPECT_EQ(digest(runProfiled(c, false)),
              digest(runProfiled(c, true)));
}

TEST(KernelProfileHostTime, ShardSecondsFitInsideTheEventPhases)
{
    const RunResult r = runProfiled(profiledMachine(4), true);
    ASSERT_TRUE(r.kernel.profiled);
    // Each shard's busy and drain seconds come from disjoint clock
    // intervals inside the event phases, so their sum cannot exceed
    // the phases' wall time.
    double busy = 0.0, drain = 0.0;
    for (const ShardProfile &s : r.kernel.shards) {
        EXPECT_GE(s.busySeconds, 0.0) << s.name;
        EXPECT_GE(s.drainSeconds, 0.0) << s.name;
        busy += s.busySeconds;
        drain += s.drainSeconds;
    }
    EXPECT_GT(busy, 0.0);
    EXPECT_LE(busy + drain, r.kernel.hostEventSeconds);
}

TEST(KernelProfileShape, ShardRowsCoverEveryQueue)
{
    const unsigned channels = 4;
    const RunResult r = runProfiled(profiledMachine(channels), true);
    ASSERT_TRUE(r.kernel.profiled);
    ASSERT_EQ(r.kernel.shards.size(), 1 + channels);
    EXPECT_EQ(r.kernel.shards[0].name, "core");
    for (unsigned ch = 0; ch < channels; ++ch)
        EXPECT_EQ(r.kernel.shards[1 + ch].name,
                  "ch" + std::to_string(ch));

    // Shard dispatch counts partition the kernel total.
    std::uint64_t events = 0, in = 0, out = 0;
    for (const ShardProfile &s : r.kernel.shards) {
        events += s.events;
        in += s.mailboxIn;
        out += s.mailboxOut;
        EXPECT_GT(s.events, 0u) << s.name;
    }
    EXPECT_EQ(events, r.kernel.eventsDispatched);

    // Mailbox traffic: nothing is drained that was not posted; at
    // most the final round's hand-offs are still in flight when the
    // run stops.
    EXPECT_GT(out, 0u);
    EXPECT_LE(in, out);
}

TEST(KernelProfileShape, UnprofiledRunStaysEmpty)
{
    const RunResult r = runProfiled(profiledMachine(2), false);
    EXPECT_FALSE(r.kernel.profiled);
    EXPECT_TRUE(r.kernel.shards.empty());
    EXPECT_EQ(r.kernel.eventImbalance(), 0.0);
    // The aggregate counters stay on regardless of profiling.
    EXPECT_GT(r.kernel.eventsDispatched, 0u);
}

TEST(KernelProfileShape, EventImbalanceIsDeterministic)
{
    const SystemConfig c = profiledMachine(4);
    const RunResult first = runProfiled(c, true);
    const RunResult again = runProfiled(c, true);
    ASSERT_GT(first.kernel.eventImbalance(), 0.0);
    // Dispatch counts are deterministic, so the summary is exactly
    // equal — this is what lets CI gate it at tolerance zero.
    EXPECT_EQ(first.kernel.eventImbalance(),
              again.kernel.eventImbalance());
    for (std::size_t i = 0; i < first.kernel.shards.size(); ++i) {
        EXPECT_EQ(first.kernel.shards[i].events,
                  again.kernel.shards[i].events)
            << first.kernel.shards[i].name;
    }
}

} // namespace fbdp
