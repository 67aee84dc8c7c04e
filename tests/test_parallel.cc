/**
 * @file
 * Determinism contract of the sharded parallel event kernel: for any
 * `SystemConfig::threads`, a run is bit-for-bit identical to the
 * serial run of the same machine.  Serial execution walks the exact
 * round/drain schedule the parallel lanes execute, so equality here is
 * structural, not coincidental — but this test is the tripwire that
 * keeps it that way.
 *
 * Every deterministic field of RunResult (counters, exact doubles via
 * hexfloat, per-channel attribution, kernel counters) is folded into
 * one digest string and compared with EXPECT_EQ; only host-time fields
 * (KernelProfile::hostEventSeconds and rates derived from it) are
 * excluded, since wall time legitimately varies.
 */

#include <gtest/gtest.h>

#include <string>

#include "run_digest.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

SystemConfig
eightChannelMachine()
{
    SystemConfig c = SystemConfig::fbdAp();
    c.logicChannels = 8;
    c.benchmarks = mixByName("2C-1").benches;
    c.warmupInsts = 10'000;
    c.measureInsts = 30'000;
    c.seed = 7;
    c.attribution = true;
    return c;
}

std::string
runDigest(SystemConfig c, unsigned threads)
{
    c.threads = threads;
    System sys(c);
    return digest(sys.run());
}

} // namespace

TEST(ParallelDeterminism, TwoLanesMatchSerial)
{
    const SystemConfig c = eightChannelMachine();
    EXPECT_EQ(runDigest(c, 1), runDigest(c, 2));
}

TEST(ParallelDeterminism, EightLanesMatchSerial)
{
    const SystemConfig c = eightChannelMachine();
    EXPECT_EQ(runDigest(c, 1), runDigest(c, 8));
}

TEST(ParallelDeterminism, OversubscribedLanesClampAndMatch)
{
    // More lanes than channel shards exist: laneCount() clamps to
    // 1 + logicChannels and the result is still identical.
    const SystemConfig c = eightChannelMachine();
    EXPECT_EQ(runDigest(c, 1), runDigest(c, 64));
}

TEST(ParallelDeterminism, TwoChannelDefaultMachineMatches)
{
    // The stock two-channel FBD-AP preset (different frame population
    // per round, uneven lane loads) must also digest identically.
    SystemConfig c = SystemConfig::fbdAp();
    c.benchmarks = mixByName("2C-1").benches;
    c.warmupInsts = 10'000;
    c.measureInsts = 30'000;
    c.seed = 7;
    EXPECT_EQ(runDigest(c, 1), runDigest(c, 3));
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreStable)
{
    // Two parallel runs of the same config: no hidden dependence on
    // thread scheduling from run to run.
    const SystemConfig c = eightChannelMachine();
    EXPECT_EQ(runDigest(c, 4), runDigest(c, 4));
}

} // namespace fbdp
