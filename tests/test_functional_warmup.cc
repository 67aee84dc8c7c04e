/**
 * @file
 * functionalWarmup() against the loop it replaced: drawing each core's
 * ops a block ahead must leave the tag arrays and the generators
 * exactly where drawing and replaying one op at a time does.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "system/warm_share.hh"
#include "workload/mixes.hh"
#include "workload/trace_stream.hh"

namespace fbdp {
namespace {

/** The reference: op k of every core in core order, one nextWarm()
 *  and one tag access at a time. */
void
perOpWarmup(std::span<const std::unique_ptr<Generator>> gens,
            CacheHierarchy &hier, std::uint64_t ops)
{
    for (std::uint64_t k = 0; k < ops; ++k) {
        for (unsigned i = 0; i < gens.size(); ++i) {
            const TraceOp op = gens[i]->nextWarm();
            if (op.kind == TraceOp::Kind::Prefetch)
                hier.functionalPrefetch(static_cast<int>(i), op.addr);
            else
                hier.functionalAccess(static_cast<int>(i), op.addr,
                                      op.kind == TraceOp::Kind::Store);
        }
    }
}

/** Generators plus the hierarchy they warm. */
struct Rig
{
    Rig(std::vector<std::unique_ptr<Generator>> generators,
        const HierConfig &hc)
        : gens(std::move(generators)),
          hier(nullptr, static_cast<unsigned>(gens.size()), hc, nullptr)
    {
    }

    std::vector<std::unique_ptr<Generator>> gens;
    CacheHierarchy hier;
};

/** Synthetic generators for @p benches, based and seeded the way a
 *  System with seed @p seed lays them out. */
Rig
syntheticRig(const std::vector<std::string> &benches, std::uint64_t seed,
             bool sw_prefetch, const HierConfig &hc)
{
    std::vector<std::unique_ptr<Generator>> g;
    for (unsigned i = 0; i < benches.size(); ++i)
        g.push_back(std::make_unique<SyntheticGenerator>(
            benchProfile(benches[i]), static_cast<Addr>(i) << 32,
            seed * 1000 + i, sw_prefetch));
    return Rig(std::move(g), hc);
}

void
expectSameOps(Generator &a, Generator &b, int n)
{
    for (int k = 0; k < n; ++k) {
        const TraceOp x = a.next();
        const TraceOp y = b.next();
        ASSERT_EQ(x.gap, y.gap) << "op " << k;
        ASSERT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind))
            << "op " << k;
        ASSERT_EQ(x.addr, y.addr) << "op " << k;
    }
}

/** Same tags (order, dirty bits, counters) in every array, then the
 *  same next 10 k ops from every generator. */
void
expectSameState(Rig &blocked, Rig &ref)
{
    const auto n = static_cast<int>(ref.gens.size());
    for (int i = 0; i < n; ++i)
        EXPECT_TRUE(blocked.hier.l1Tags(i) == ref.hier.l1Tags(i))
            << "L1 of core " << i;
    EXPECT_TRUE(blocked.hier.l2Tags() == ref.hier.l2Tags());
    for (int i = 0; i < n; ++i) {
        SCOPED_TRACE(testing::Message() << "core " << i);
        const auto *a =
            dynamic_cast<SyntheticGenerator *>(blocked.gens[i].get());
        const auto *b =
            dynamic_cast<SyntheticGenerator *>(ref.gens[i].get());
        if (a && b) {
            EXPECT_EQ(a->opsGenerated(), b->opsGenerated());
            EXPECT_EQ(a->streamOps(), b->streamOps());
            EXPECT_EQ(a->streamLineCrossings(), b->streamLineCrossings());
            EXPECT_EQ(a->hotOps(), b->hotOps());
            EXPECT_EQ(a->coldOps(), b->coldOps());
            EXPECT_EQ(a->prefetchOps(), b->prefetchOps());
        }
        expectSameOps(*blocked.gens[i], *ref.gens[i], 10'000);
    }
}

void
expectBlockedMatchesPerOp(const std::vector<std::string> &benches,
                          bool sw_prefetch, const HierConfig &hc,
                          std::uint64_t ops)
{
    Rig blocked = syntheticRig(benches, 1, sw_prefetch, hc);
    Rig ref = syntheticRig(benches, 1, sw_prefetch, hc);
    functionalWarmup(blocked.gens, blocked.hier, ops);
    perOpWarmup(ref.gens, ref.hier, ops);
    expectSameState(blocked, ref);
}

TEST(FunctionalWarmup, EveryTable3MixMatchesThePerOpLoop)
{
    // An odd op count: the last block is partial whatever its size.
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        for (const WorkloadMix &mix : mixesFor(cores)) {
            for (bool sw_prefetch : {false, true}) {
                SCOPED_TRACE(mix.name
                             + (sw_prefetch ? " +swpf" : " -swpf"));
                expectBlockedMatchesPerOp(mix.benches, sw_prefetch,
                                          HierConfig{}, 30'001);
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

TEST(FunctionalWarmup, ShortAndEmptyWarmupsMatch)
{
    const std::vector<std::string> mix = mixesFor(4).front().benches;
    for (std::uint64_t ops : {0u, 1u, 7u, 33u}) {
        SCOPED_TRACE(testing::Message() << ops << " ops");
        expectBlockedMatchesPerOp(mix, true, HierConfig{}, ops);
    }
}

TEST(FunctionalWarmup, WiderWaysAndEvictingL2Match)
{
    // A 4-way L1 over an 8-way L2 small enough that the warm-up
    // evicts from both, dirty victims included.
    HierConfig hc;
    hc.l1Bytes = 16 * 1024;
    hc.l1Ways = 4;
    hc.l2Bytes = 256 * 1024;
    hc.l2Ways = 8;
    for (unsigned cores : {1u, 4u}) {
        const WorkloadMix &mix = mixesFor(cores).front();
        SCOPED_TRACE(mix.name);
        Rig probe = syntheticRig(mix.benches, 1, true, hc);
        functionalWarmup(probe.gens, probe.hier, 40'003);
        EXPECT_GT(probe.hier.l2Misses(), hc.l2Bytes / lineBytes)
            << "the L2 must evict";
        expectBlockedMatchesPerOp(mix.benches, true, hc, 40'003);
    }
}

TEST(FunctionalWarmup, TwoCoresStreamingOneFbtFileMatch)
{
    // Two views of one mapped .fbt, as a System shares a file between
    // cores; a short trace makes the views wrap several times, inside
    // warm-up blocks as well as between them.
    const std::string path =
        ::testing::TempDir() + "fbdp_functional_warmup.fbt";
    {
        SyntheticGenerator gen(benchProfile("equake"), 0, 9, true);
        TraceWriter w(path, TraceFormat::Fbt, false, "equake");
        for (int k = 0; k < 3'001; ++k)
            w.append(gen.next());
        w.close();
    }
    const auto streamed = [&path] {
        auto str = std::make_shared<TraceStream>(path);
        std::vector<std::unique_ptr<Generator>> g;
        for (unsigned i = 0; i < 2; ++i)
            g.push_back(std::make_unique<StreamingTraceGenerator>(
                str, static_cast<Addr>(i) << 32));
        return g;
    };
    Rig blocked(streamed(), HierConfig{});
    Rig ref(streamed(), HierConfig{});
    functionalWarmup(blocked.gens, blocked.hier, 10'007);
    perOpWarmup(ref.gens, ref.hier, 10'007);
    for (unsigned i = 0; i < 2; ++i) {
        const auto &a =
            dynamic_cast<StreamingTraceGenerator &>(*blocked.gens[i]);
        const auto &b =
            dynamic_cast<StreamingTraceGenerator &>(*ref.gens[i]);
        EXPECT_EQ(a.consumed(), b.consumed());
        EXPECT_EQ(a.wraps(), b.wraps());
        EXPECT_GE(a.wraps(), 3u);
    }
    expectSameState(blocked, ref);
    std::remove(path.c_str());
}

} // namespace
} // namespace fbdp
