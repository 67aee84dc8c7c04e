/**
 * @file
 * Pins the event kernel's output.  Two fixed runs are folded into the
 * run_digest.hh digest (every deterministic RunResult field, doubles
 * bit-exact) and hashed with fnv1a64; the hashes must equal constants
 * recorded before the kernel's intra-run thread lanes and its batched
 * same-tick dispatch were removed, so they also prove the removal
 * changed no simulated bit.  The tests/golden/ tables cover only
 * two-channel machines; the first run here has eight channels.
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

/** fbdp::digest of one run of @p c, on a fresh thread: the
 *  transaction pool behind poolHighWater is per thread, so this keeps
 *  the digest independent of whatever ran earlier in the process. */
std::string
freshDigest(const SystemConfig &c)
{
    std::string text;
    std::thread([&c, &text] {
        System sys(c);
        text = digest(sys.run());
    }).join();
    return text;
}

} // namespace

TEST(KernelDigest, EightChannelFbdApWithAttribution)
{
    SystemConfig c = pinnedMachine(8);
    c.attribution = true;
    const std::string d = freshDigest(c);
    EXPECT_EQ(fnv1a64(d), 0xc8090f1feb5e236bull) << d;
}

TEST(KernelDigest, TwoChannelDefaultMachine)
{
    const std::string d = freshDigest(pinnedMachine(2));
    EXPECT_EQ(fnv1a64(d), 0x840d12ddfc6c4720ull) << d;
}

} // namespace fbdp
