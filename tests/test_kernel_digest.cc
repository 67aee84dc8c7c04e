/**
 * @file
 * Pins the event kernel's output.  Two fixed runs are folded into
 * run_digest.hh's simDigest() (every simulated RunResult field,
 * doubles bit-exact) and hashed with fnv1a64; the hashes must equal
 * the recorded constants, so a change to how the kernel executes a
 * run must leave them alone.  The tests/golden/ tables cover only
 * two-channel machines; the first run here has eight channels.
 *
 * The kernel counters (kernelLine()) are pinned separately: a change
 * to how the kernel executes a run may move them while every
 * simulated bit stays put.
 *
 * A change that is meant to move simulated results (a documented
 * model fix) re-records the constants from the failure message.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>

#include "run_digest.hh"
#include "system/manifest.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

SystemConfig
pinnedMachine(unsigned channels)
{
    SystemConfig c = SystemConfig::fbdAp();
    c.logicChannels = channels;
    c.benchmarks = mixByName("2C-1").benches;
    c.warmupInsts = 10'000;
    c.measureInsts = 30'000;
    c.seed = 7;
    return c;
}

/** One run of @p c, on a fresh thread: the transaction pool behind
 *  poolHighWater is per thread, so this keeps the kernel line
 *  independent of whatever ran earlier in the process. */
RunResult
freshRun(const SystemConfig &c)
{
    RunResult r;
    std::thread([&c, &r] {
        System sys(c);
        r = sys.run();
    }).join();
    return r;
}

} // namespace

TEST(KernelDigest, EightChannelFbdApWithAttribution)
{
    SystemConfig c = pinnedMachine(8);
    c.attribution = true;
    const RunResult r = freshRun(c);
    const std::string d = simDigest(r);
    EXPECT_EQ(fnv1a64(d), 0x3edb7e8b67366d47ull) << d;
    EXPECT_EQ(kernelLine(r), "kernel 11207 11219 20 0 18 25\n");
}

TEST(KernelDigest, TwoChannelDefaultMachine)
{
    const RunResult r = freshRun(pinnedMachine(2));
    const std::string d = simDigest(r);
    EXPECT_EQ(fnv1a64(d), 0x7316393c06c2f48cull) << d;
    EXPECT_EQ(kernelLine(r), "kernel 7118 7126 13 0 8 30\n");
}

} // namespace fbdp
