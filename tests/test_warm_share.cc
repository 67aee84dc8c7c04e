/**
 * @file
 * Shared functional warm-up (system/warm_share.hh).
 *
 *  - The warm-up key holds exactly the inputs phase 0 reads: every one
 *    of them changes it, and memory-side fields do not.
 *  - warmOnce() hands one computation to every caller that arrives
 *    while it runs, falls back to computing when the leader throws,
 *    and keeps nothing once the callers return.
 *  - Whole runs started together on threads are bit-identical to the
 *    same configurations run alone, and same-key runs copy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "run_digest.hh"
#include "system/system.hh"
#include "system/warm_share.hh"
#include "workload/mixes.hh"
#include "workload/profile.hh"

namespace fbdp {
namespace {

/** The fig04/fig07 --quick window. */
SystemConfig
quick(SystemConfig c, const char *mix, std::uint64_t seed = 1)
{
    c.benchmarks = mixByName(mix).benches;
    c.warmupInsts = 30'000;
    c.measureInsts = 120'000;
    c.seed = seed;
    return c;
}

WarmKey
keyOf(const SystemConfig &c)
{
    const std::optional<WarmKey> k = warmKeyOf(c);
    EXPECT_TRUE(k.has_value());
    return k.value_or(WarmKey{});
}

TEST(WarmKey, EveryPhaseZeroInputChangesTheKey)
{
    const SystemConfig base = quick(SystemConfig::fbdBase(), "2C-1");
    const WarmKey k = keyOf(base);
    const std::vector<std::pair<const char *, void (*)(SystemConfig &)>>
        perturb = {
            {"benchmark", [](SystemConfig &c) { c.benchmarks[1] = "mcf"; }},
            {"core order",
             [](SystemConfig &c) {
                 std::swap(c.benchmarks[0], c.benchmarks[1]);
             }},
            {"core count",
             [](SystemConfig &c) { c.benchmarks.push_back("swim"); }},
            {"seed", [](SystemConfig &c) { c.seed = 2; }},
            {"swPrefetch", [](SystemConfig &c) { c.swPrefetch = false; }},
            {"l1Bytes", [](SystemConfig &c) { c.hier.l1Bytes *= 2; }},
            {"l1Ways", [](SystemConfig &c) { c.hier.l1Ways = 4; }},
            {"l2Bytes", [](SystemConfig &c) { c.hier.l2Bytes *= 2; }},
            {"l2Ways", [](SystemConfig &c) { c.hier.l2Ways = 8; }},
            {"functionalWarmupOps",
             [](SystemConfig &c) { c.functionalWarmupOps = 1000; }},
        };
    for (const auto &[name, fn] : perturb) {
        SystemConfig c = base;
        fn(c);
        EXPECT_NE(keyOf(c), k) << name;
    }
}

TEST(WarmKey, MemorySideFieldsLeaveTheKeyAlone)
{
    const SystemConfig base = quick(SystemConfig::fbdBase(), "2C-1");
    const WarmKey k = keyOf(base);
    EXPECT_EQ(keyOf(quick(SystemConfig::ddr2(), "2C-1")), k);
    EXPECT_EQ(keyOf(quick(SystemConfig::fbdAp(), "2C-1")), k);
    const std::vector<std::pair<const char *, void (*)(SystemConfig &)>>
        perturb = {
            {"channels", [](SystemConfig &c) { c.logicChannels = 4; }},
            {"buffer shape",
             [](SystemConfig &c) {
                 c.prefetch =
                     PrefetchConfig::parse("region,place=mc,entries=32");
             }},
            {"mc buffer",
             [](SystemConfig &c) {
                 c.prefetch = PrefetchConfig::parse("region,place=mc");
             }},
            {"threads", [](SystemConfig &c) { c.threads = 4; }},
            {"attribution", [](SystemConfig &c) { c.attribution = true; }},
            {"window",
             [](SystemConfig &c) {
                 c.warmupInsts = 1;
                 c.measureInsts = 2;
             }},
            {"rob", [](SystemConfig &c) { c.rob = 64; }},
            {"hwPrefetch",
             [](SystemConfig &c) { c.hier.hwPrefetch.enable = true; }},
            {"l2 latency",
             [](SystemConfig &c) { c.hier.l2HitLatency *= 2; }},
        };
    for (const auto &[name, fn] : perturb) {
        SystemConfig c = base;
        fn(c);
        EXPECT_EQ(keyOf(c), k) << name;
    }
}

TEST(WarmKey, ResolvesTheWarmupOpCount)
{
    SystemConfig c = quick(SystemConfig::fbdBase(), "2C-1");
    EXPECT_EQ(resolvedWarmupOps(c), 20 * (c.hier.l2Bytes / lineBytes) / 2);
    EXPECT_EQ(keyOf(c).warmupOps, resolvedWarmupOps(c));
    c.functionalWarmupOps = 777;
    EXPECT_EQ(resolvedWarmupOps(c), 777u);
}

TEST(WarmKey, TraceReplayNeverShares)
{
    SystemConfig c = quick(SystemConfig::fbdBase(), "2C-1");
    c.benchmarks[1] = "trace:/nonexistent.fbt";
    EXPECT_FALSE(warmKeyOf(c).has_value());
}

/** One generator plus a hierarchy, to hand to warmOnce() directly. */
struct Rig
{
    explicit Rig(std::uint64_t seed)
        : gen(benchProfile("swim"), 0, seed, true),
          hier(nullptr, 1, HierConfig{}, nullptr)
    {
        state.gens = {&gen};
        state.hier = &hier;
    }

    void
    warm(std::uint64_t ops)
    {
        for (std::uint64_t k = 0; k < ops; ++k) {
            const TraceOp op = gen.nextWarm();
            if (op.kind == TraceOp::Kind::Prefetch)
                hier.functionalPrefetch(0, op.addr);
            else
                hier.functionalAccess(0, op.addr,
                                      op.kind == TraceOp::Kind::Store);
        }
    }

    /** Generator and tag state folded into comparable numbers. */
    std::vector<std::uint64_t>
    fingerprint()
    {
        std::vector<std::uint64_t> f = {
            gen.opsGenerated(), hier.l1Hits(0), hier.l1Misses(0),
            hier.l2Hits(), hier.l2Misses()};
        // Identical tags answer an identical probe identically.
        for (int k = 0; k < 2000; ++k) {
            const TraceOp op = gen.next();
            f.push_back(op.addr);
            hier.functionalAccess(0, op.addr, false);
        }
        f.push_back(hier.l1Hits(0));
        f.push_back(hier.l2Hits());
        return f;
    }

    SyntheticGenerator gen;
    CacheHierarchy hier;
    WarmState state;
};

WarmKey
rigKey()
{
    WarmKey k;
    k.benchmarks = {"swim"};
    k.warmupOps = 50'000;
    return k;
}

TEST(WarmOnce, FollowersCopyTheLeadersState)
{
    const WarmKey key = rigKey();
    Rig lead(3), f1(3), f2(3), alone(3);
    alone.warm(key.warmupOps);

    std::atomic<bool> leader_in{false};
    std::atomic<int> follower_computes{0};
    bool lead_copied = true, c1 = false, c2 = false;
    std::thread leader([&] {
        lead_copied = warmOnce(key, lead.state, [&] {
            leader_in = true;
            // Hold the slot open until both followers wait on it.
            while (warmShareWaiters(key) < 2)
                std::this_thread::yield();
            lead.warm(key.warmupOps);
        });
    });
    while (!leader_in)
        std::this_thread::yield();
    const auto follow = [&](Rig &r, bool &copied) {
        copied = warmOnce(key, r.state, [&] { ++follower_computes; });
    };
    std::thread t1(follow, std::ref(f1), std::ref(c1));
    std::thread t2(follow, std::ref(f2), std::ref(c2));
    leader.join();
    t1.join();
    t2.join();

    EXPECT_FALSE(lead_copied);
    EXPECT_TRUE(c1);
    EXPECT_TRUE(c2);
    EXPECT_EQ(follower_computes.load(), 0);
    EXPECT_EQ(warmSharesInFlight(), 0u);
    const auto want = alone.fingerprint();
    EXPECT_EQ(lead.fingerprint(), want);
    EXPECT_EQ(f1.fingerprint(), want);
    EXPECT_EQ(f2.fingerprint(), want);
}

TEST(WarmOnce, FollowersComputeWhenTheLeaderThrows)
{
    const WarmKey key = rigKey();
    Rig lead(3), f1(3), alone(3);
    alone.warm(key.warmupOps);

    std::atomic<bool> leader_in{false};
    bool threw = false, copied = true;
    std::thread leader([&] {
        try {
            warmOnce(key, lead.state, [&] {
                leader_in = true;
                while (warmShareWaiters(key) < 1)
                    std::this_thread::yield();
                throw std::runtime_error("warm-up failed");
            });
        } catch (const std::runtime_error &) {
            threw = true;
        }
    });
    while (!leader_in)
        std::this_thread::yield();
    std::thread follower([&] {
        copied = warmOnce(key, f1.state,
                          [&] { f1.warm(key.warmupOps); });
    });
    leader.join();
    follower.join();

    EXPECT_TRUE(threw);
    EXPECT_FALSE(copied);
    EXPECT_EQ(warmSharesInFlight(), 0u);
    EXPECT_EQ(f1.fingerprint(), alone.fingerprint());
}

TEST(WarmOnce, NothingOutlivesTheWarmup)
{
    // Back-to-back callers never overlap: each computes afresh.
    const WarmKey key = rigKey();
    Rig a(3), b(3);
    int computes = 0;
    EXPECT_FALSE(warmOnce(key, a.state, [&] {
        ++computes;
        EXPECT_EQ(warmSharesInFlight(), 1u);
        a.warm(key.warmupOps);
    }));
    EXPECT_EQ(warmSharesInFlight(), 0u);
    EXPECT_FALSE(warmOnce(key, b.state, [&] {
        ++computes;
        b.warm(key.warmupOps);
    }));
    EXPECT_EQ(computes, 2);
    EXPECT_EQ(warmSharesInFlight(), 0u);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

/** The differential set: one mix on every machine plus three runs
 *  whose keys differ (another seed, another mix, no software
 *  prefetch). */
std::vector<SystemConfig>
differentialSet()
{
    SystemConfig no_sw = quick(SystemConfig::fbdBase(), "2C-1");
    no_sw.swPrefetch = false;
    return {
        quick(SystemConfig::ddr2(), "2C-1"),
        quick(SystemConfig::fbdBase(), "2C-1"),
        quick(SystemConfig::fbdBase(), "2C-1"),
        quick(SystemConfig::fbdAp(), "2C-1"),
        quick(SystemConfig::fbdBase(), "2C-1", 2),
        quick(SystemConfig::fbdBase(), "4C-1"),
        no_sw,
    };
}

constexpr std::size_t sameKeyRuns = 4;

/**
 * Build @p c, apply @p prep, run and destroy it, all on a thread of
 * its own: the transaction pool behind KernelProfile::poolHighWater is
 * per thread, so runs compared by digest each start from a fresh one.
 * @p start, when given, is waited on between construction and run().
 */
RunResult
runOnThread(const SystemConfig &c, void (*prep)(System &) = nullptr,
            std::barrier<> *start = nullptr)
{
    RunResult r;
    std::thread([&] {
        System sys(c);
        if (prep)
            prep(sys);
        if (start)
            start->arrive_and_wait();
        r = sys.run();
    }).join();
    return r;
}

void
drawOne(System &sys)
{
    sys.generator(0).next();
}

TEST(WarmShare, ConcurrentRunsMatchLoneRuns)
{
    const std::vector<SystemConfig> cfgs = differentialSet();
    std::vector<std::string> alone;
    for (const SystemConfig &c : cfgs) {
        const RunResult r = runOnThread(c);
        EXPECT_FALSE(r.kernel.warmupCopied) << "a lone run copied";
        alone.push_back(digest(r));
    }
    EXPECT_NE(alone[1], alone[4]) << "the seed must matter";
    EXPECT_NE(alone[1], alone[6]) << "software prefetch must matter";

    // Whether a run arrives while another computes is up to the host
    // scheduler; the runs are retried until one copies, and every
    // attempt must match the lone runs bit for bit.
    bool any_copied = false;
    for (int attempt = 0; attempt < 5 && !any_copied; ++attempt) {
        std::vector<RunResult> res(cfgs.size());
        std::barrier<> start(static_cast<std::ptrdiff_t>(cfgs.size()));
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            threads.emplace_back([&, i] {
                res[i] = runOnThread(cfgs[i], nullptr, &start);
            });
        }
        for (auto &t : threads)
            t.join();
        EXPECT_EQ(warmSharesInFlight(), 0u);

        for (std::size_t i = 0; i < cfgs.size(); ++i)
            EXPECT_EQ(digest(res[i]), alone[i]) << "run " << i;
        for (std::size_t i = 0; i < sameKeyRuns; ++i)
            any_copied = any_copied || res[i].kernel.warmupCopied;
        for (std::size_t i = sameKeyRuns; i < cfgs.size(); ++i)
            EXPECT_FALSE(res[i].kernel.warmupCopied) << "run " << i;
    }
    EXPECT_TRUE(any_copied) << "no same-key run copied in 5 attempts";
}

TEST(WarmShare, OnlyAFreshSystemJoinsAnInFlightWarmup)
{
    // The test leads a share itself, warming a third System's state,
    // and holds the slot open while two runs arrive: a fresh one must
    // wait and copy; one whose generator has already drawn is past the
    // key's state and must compute its own without waiting.
    const SystemConfig c = quick(SystemConfig::fbdBase(), "2C-1");
    const WarmKey key = keyOf(c);
    const std::string alone = digest(runOnThread(c));
    const std::string drawn_alone = digest(runOnThread(c, drawOne));
    EXPECT_NE(drawn_alone, alone);

    System lead(c);
    WarmState lead_state{{}, &lead.hierarchy()};
    for (unsigned i = 0; i < c.nCores(); ++i)
        lead_state.gens.push_back(&lead.syntheticGenerator(i));

    RunResult fresh, drawn;
    std::thread fresh_t;
    EXPECT_FALSE(warmOnce(key, lead_state, [&] {
        fresh_t = std::thread([&] { fresh = runOnThread(c); });
        while (warmShareWaiters(key) < 1)
            std::this_thread::yield();
        // Would deadlock here if the drawn System joined the share.
        drawn = runOnThread(c, drawOne);
        EXPECT_EQ(warmShareWaiters(key), 1u);
        for (std::uint64_t k = 0; k < key.warmupOps; ++k) {
            for (unsigned i = 0; i < c.nCores(); ++i) {
                const TraceOp op = lead.generator(i).nextWarm();
                if (op.kind == TraceOp::Kind::Prefetch)
                    lead.hierarchy().functionalPrefetch(
                        static_cast<int>(i), op.addr);
                else
                    lead.hierarchy().functionalAccess(
                        static_cast<int>(i), op.addr,
                        op.kind == TraceOp::Kind::Store);
            }
        }
    }));
    fresh_t.join();
    EXPECT_EQ(warmSharesInFlight(), 0u);

    EXPECT_TRUE(fresh.kernel.warmupCopied);
    EXPECT_EQ(digest(fresh), alone);
    EXPECT_FALSE(drawn.kernel.warmupCopied);
    EXPECT_EQ(digest(drawn), drawn_alone);
}

} // namespace
} // namespace fbdp
