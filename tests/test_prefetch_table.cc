/**
 * @file
 * Unit tests of the controller-side prefetch information table.
 */

#include <gtest/gtest.h>

#include "prefetch/prefetch_table.hh"

namespace fbdp {
namespace {

Addr
line(unsigned i)
{
    return static_cast<Addr>(i) * lineBytes;
}

/** Insert the candidates the region policy emits for a demand of
 *  @p demanded in the @p k-line region at @p base: every other line
 *  of the region, in ascending order. */
void
fetchRegion(PrefetchTable &t, Addr base, unsigned k, Addr demanded)
{
    for (unsigned i = 0; i < k; ++i) {
        const Addr la = base + static_cast<Addr>(i) * lineBytes;
        if (la != demanded)
            t.insertCandidate(0, la);
    }
}

TEST(PrefetchTableTest, OneCachePerDimm)
{
    PrefetchTable t(4, 64, 0);
    EXPECT_EQ(t.numDimms(), 4u);
    t.dimm(0).insert(line(1), 0);
    EXPECT_EQ(t.peek(1, line(1)), nullptr) << "per-DIMM isolation";
    EXPECT_NE(t.peek(0, line(1)), nullptr);
}

TEST(PrefetchTableTest, CandidatesStartPending)
{
    PrefetchTable t(1, 64, 0);
    fetchRegion(t, 0, 4, line(0));
    EXPECT_EQ(t.peek(0, line(1))->readyAt, AmbCache::fillPending);
    t.resolveFill(0, line(1), 5555);
    EXPECT_EQ(t.peek(0, line(1))->readyAt, 5555u);
}

TEST(PrefetchTableTest, ResolveFillOnEvictedLineIsHarmless)
{
    PrefetchTable t(1, 64, 0);
    t.resolveFill(0, line(99), 123);  // nothing there
    EXPECT_EQ(t.peek(0, line(99)), nullptr);
}

TEST(PrefetchTableTest, ReinsertKeepsFifoAge)
{
    PrefetchTable t(1, 4, 0);
    fetchRegion(t, 0, 4, line(0));            // inserts 1,2,3
    fetchRegion(t, 0, 4, line(2));            // 0 new; 1,3 existing
    // Capacity 4: entries now 1,2,3,0 -> no eviction yet.
    EXPECT_EQ(t.dimm(0).population(), 4u);
    fetchRegion(t, 4 * lineBytes, 4, line(4));    // 5,6,7: evicts 3
    EXPECT_EQ(t.peek(0, line(1)), nullptr);
    EXPECT_EQ(t.peek(0, line(2)), nullptr);
    EXPECT_EQ(t.peek(0, line(3)), nullptr);
    EXPECT_NE(t.peek(0, line(0)), nullptr)
        << "line 0 was inserted later than 1-3";
}

TEST(PrefetchTableTest, CoverageAndEfficiency)
{
    PrefetchTable t(1, 64, 0);
    fetchRegion(t, 0, 4, line(0));  // 3 prefetches
    for (int i = 0; i < 4; ++i)
        t.countRead();
    t.countHit();
    t.countHit();
    EXPECT_DOUBLE_EQ(t.coverage(), 0.5);
    EXPECT_DOUBLE_EQ(t.efficiency(), 2.0 / 3.0);
}

TEST(PrefetchTableTest, ZeroDenominators)
{
    PrefetchTable t(1, 64, 0);
    EXPECT_DOUBLE_EQ(t.coverage(), 0.0);
    EXPECT_DOUBLE_EQ(t.efficiency(), 0.0);
}

TEST(PrefetchTableTest, WriteInvalidationCountsOnlyPresent)
{
    PrefetchTable t(1, 64, 0);
    fetchRegion(t, 0, 4, line(0));
    t.invalidate(0, line(1));
    t.invalidate(0, line(1));  // second time: no entry
    t.invalidate(0, line(0));  // demanded line never inserted
    EXPECT_EQ(t.writeInvalidations(), 1u);
    EXPECT_EQ(t.peek(0, line(1)), nullptr);
}

TEST(PrefetchTableTest, PeekCountsNoHit)
{
    PrefetchTable t(1, 64, 0);
    fetchRegion(t, 0, 4, line(0));
    EXPECT_NE(t.peek(0, line(1)), nullptr);
    EXPECT_EQ(t.peek(0, line(40)), nullptr);
    EXPECT_EQ(t.prefetchHits(), 0u) << "only countHit() counts";
}

TEST(PrefetchTableTest, ResetStatsKeepsContents)
{
    PrefetchTable t(1, 64, 0);
    fetchRegion(t, 0, 4, line(0));
    t.countRead();
    t.countHit();
    t.resetStats();
    EXPECT_EQ(t.reads(), 0u);
    EXPECT_EQ(t.prefetchHits(), 0u);
    EXPECT_EQ(t.prefetchesIssued(), 0u);
    EXPECT_NE(t.peek(0, line(1)), nullptr) << "contents survive";
}

TEST(PrefetchTableTest, RegionSizesTwoAndEight)
{
    PrefetchTable t(1, 64, 0);
    fetchRegion(t, 0, 2, line(1));
    EXPECT_EQ(t.prefetchesIssued(), 1u);
    fetchRegion(t, 8 * lineBytes, 8, line(8));
    EXPECT_EQ(t.prefetchesIssued(), 8u);  // 1 + 7
    for (unsigned i = 9; i < 16; ++i)
        EXPECT_NE(t.peek(0, line(i)), nullptr) << i;
}

} // namespace
} // namespace fbdp
