/**
 * @file
 * Unit tests of the generic LRU tag array used for the L1s and L2.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache_array.hh"
#include "common/random.hh"

namespace fbdp {
namespace {

Addr
line(unsigned i)
{
    return static_cast<Addr>(i) * lineBytes;
}

TEST(CacheArrayTest, GeometryFromSizeAndWays)
{
    CacheArray c(64 * 1024, 2);
    EXPECT_EQ(c.numSets(), 512u);
    EXPECT_EQ(c.numWays(), 2u);
    EXPECT_EQ(c.sizeBytes(), 64u * 1024u);
}

TEST(CacheArrayTest, MissThenInstallThenHit)
{
    CacheArray c(64 * 1024, 2);
    EXPECT_EQ(c.lookup(line(1)), nullptr);
    c.install(line(1), false);
    EXPECT_NE(c.lookup(line(1)), nullptr);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheArrayTest, LruEvictsLeastRecentlyUsed)
{
    CacheArray c(2 * lineBytes, 2);  // one set, two ways
    c.install(line(0), false);
    c.install(line(1), false);
    c.lookup(line(0));  // make line 1 the LRU
    auto v = c.install(line(2), false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, line(1));
    EXPECT_NE(c.lookup(line(0)), nullptr);
    EXPECT_EQ(c.lookup(line(1)), nullptr);
}

TEST(CacheArrayTest, DirtyVictimReported)
{
    CacheArray c(2 * lineBytes, 2);
    c.install(line(0), true);
    c.install(line(1), false);
    auto v = c.install(line(2), false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, line(0));
    EXPECT_TRUE(v.dirty);
}

TEST(CacheArrayTest, ReinstallRefreshesAndOrsDirty)
{
    CacheArray c(2 * lineBytes, 2);
    c.install(line(0), false);
    c.install(line(1), false);
    auto v = c.install(line(0), true);  // refresh, set dirty
    EXPECT_FALSE(v.valid);
    auto v2 = c.install(line(2), false);  // evicts LRU == line 1
    EXPECT_EQ(v2.lineAddr, line(1));
    // Line 0 is still dirty.
    c.lookup(line(0));
    auto v3 = c.install(line(3), false);
    EXPECT_EQ(v3.lineAddr, line(2));
}

TEST(CacheArrayTest, LookupWithoutTouchKeepsLru)
{
    CacheArray c(2 * lineBytes, 2);
    c.install(line(0), false);
    c.install(line(1), false);
    c.lookup(line(0), /*touch=*/false);
    // LRU is still line 0.
    auto v = c.install(line(2), false);
    EXPECT_EQ(v.lineAddr, line(0));
}

TEST(CacheArrayTest, InvalidateFreesSlot)
{
    CacheArray c(2 * lineBytes, 2);
    c.install(line(0), false);
    c.install(line(1), false);
    EXPECT_TRUE(c.invalidate(line(0)));
    EXPECT_FALSE(c.invalidate(line(0)));
    auto v = c.install(line(2), false);
    EXPECT_FALSE(v.valid) << "free slot, no eviction";
}

TEST(CacheArrayTest, SetsIsolateAddresses)
{
    CacheArray c(4 * lineBytes, 1);  // 4 sets, direct-mapped
    c.install(line(0), false);
    c.install(line(1), false);
    c.install(line(4), false);  // conflicts with line 0
    EXPECT_EQ(c.lookup(line(0)), nullptr);
    EXPECT_NE(c.lookup(line(1)), nullptr);
    EXPECT_NE(c.lookup(line(4)), nullptr);
}

TEST(CacheArrayTest, StatsResetSeparateFromContents)
{
    CacheArray c(64 * 1024, 2);
    c.install(line(0), false);
    c.lookup(line(0));
    c.resetStats();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_NE(c.lookup(line(0)), nullptr);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(CacheArrayTest, CapacityWorkloadNeverExceeds)
{
    CacheArray c(1024 * lineBytes, 4);
    unsigned installed = 0;
    unsigned evicted = 0;
    for (unsigned i = 0; i < 4096; ++i) {
        auto v = c.install(line(i * 7), false);
        ++installed;
        evicted += v.valid ? 1 : 0;
    }
    EXPECT_EQ(installed - evicted, 1024u) << "steady-state full";
}

TEST(CacheArrayTest, InvalidateMiddleWayKeepsLruOrder)
{
    CacheArray c(4 * lineBytes, 4);  // one set, four ways
    for (unsigned i = 0; i < 4; ++i)
        c.install(line(i), false);  // recency: 3 2 1 0
    EXPECT_TRUE(c.invalidate(line(2)));
    EXPECT_FALSE(c.install(line(4), false).valid) << "fills the gap";
    // Recency is now 4 3 1 0: the victims come out oldest first.
    for (unsigned expect : {0u, 1u, 3u, 4u}) {
        auto v = c.install(line(10 + expect), false);
        ASSERT_TRUE(v.valid);
        EXPECT_EQ(v.lineAddr, line(expect));
    }
}

TEST(CacheArrayTest, TagWordPacksAddressAndFlags)
{
    static_assert(sizeof(CacheArray::Tag) == 8, "one word per way");
    CacheArray c(2 * lineBytes, 2);
    const Addr high = (Addr{1} << 47) + line(5);
    c.install(high, false);
    CacheArray::Tag *t = c.lookup(high);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->lineAddr(), high);
    EXPECT_TRUE(t->valid());
    EXPECT_FALSE(t->dirty());
    t->setDirty();
    EXPECT_TRUE(c.lookup(high)->dirty());
    EXPECT_EQ(c.lookup(high)->lineAddr(), high);
}

/**
 * The tag array as it was before recency moved into way order: each
 * line carries a unique, ever-increasing LRU sequence number and the
 * victim is the valid line with the smallest.  Kept as the reference
 * model the packed array must match operation for operation.
 */
class RefCacheArray
{
  public:
    struct Line
    {
        Addr lineAddr = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruSeq = 0;
    };

    RefCacheArray(unsigned sets, unsigned ways)
        : nSets(sets), nWays(ways),
          lines(static_cast<size_t>(sets) * ways)
    {}

    Line *
    lookup(Addr line_addr, bool touch)
    {
        Line *base = setBase(line_addr);
        for (unsigned w = 0; w < nWays; ++w) {
            if (base[w].valid && base[w].lineAddr == line_addr) {
                if (touch)
                    base[w].lruSeq = nextLru++;
                ++nHits;
                return &base[w];
            }
        }
        ++nMisses;
        return nullptr;
    }

    CacheArray::Victim
    install(Addr line_addr, bool dirty)
    {
        Line *base = setBase(line_addr);
        Line *slot = nullptr;
        for (unsigned w = 0; w < nWays; ++w) {
            if (base[w].valid && base[w].lineAddr == line_addr) {
                base[w].dirty = base[w].dirty || dirty;
                base[w].lruSeq = nextLru++;
                return CacheArray::Victim{};
            }
            if (!slot && !base[w].valid)
                slot = &base[w];
        }
        CacheArray::Victim v;
        if (!slot) {
            slot = &base[0];
            for (unsigned w = 1; w < nWays; ++w) {
                if (base[w].lruSeq < slot->lruSeq)
                    slot = &base[w];
            }
            v.valid = true;
            v.lineAddr = slot->lineAddr;
            v.dirty = slot->dirty;
        }
        slot->lineAddr = line_addr;
        slot->valid = true;
        slot->dirty = dirty;
        slot->lruSeq = nextLru++;
        return v;
    }

    bool
    invalidate(Addr line_addr)
    {
        Line *base = setBase(line_addr);
        for (unsigned w = 0; w < nWays; ++w) {
            if (base[w].valid && base[w].lineAddr == line_addr) {
                base[w].valid = false;
                return true;
            }
        }
        return false;
    }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }

  private:
    Line *
    setBase(Addr line_addr)
    {
        return &lines[static_cast<size_t>(lineIndex(line_addr) % nSets)
                      * nWays];
    }

    unsigned nSets;
    unsigned nWays;
    std::vector<Line> lines;
    std::uint64_t nextLru = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

void
expectSameVictim(const CacheArray::Victim &got,
                 const CacheArray::Victim &want, int step)
{
    ASSERT_EQ(got.valid, want.valid) << "step " << step;
    if (want.valid) {
        ASSERT_EQ(got.lineAddr, want.lineAddr) << "step " << step;
        ASSERT_EQ(got.dirty, want.dirty) << "step " << step;
    }
}

/** Seeded random operation mix over a footprint of 3x the capacity,
 *  so sets fill, thrash and get holes punched in them. */
void
runDifferential(unsigned sets, unsigned ways, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << sets << " sets x " << ways
                                    << " ways, seed " << seed);
    CacheArray dut(static_cast<std::uint64_t>(sets) * ways * lineBytes,
                   ways);
    RefCacheArray ref(sets, ways);
    Rng rng(seed);
    const std::uint64_t footprint = 3ull * sets * ways;
    for (int step = 0; step < 20'000; ++step) {
        const Addr a = line(static_cast<unsigned>(rng.below(footprint)));
        const bool flag = rng.chance(0.5);
        switch (rng.below(7)) {
          case 0:
          case 1: {
            // Touching lookup; a hit may be a store that dirties it.
            CacheArray::Tag *t = dut.lookup(a);
            RefCacheArray::Line *l = ref.lookup(a, true);
            ASSERT_EQ(t != nullptr, l != nullptr) << "step " << step;
            if (t) {
                ASSERT_EQ(t->lineAddr(), l->lineAddr);
                ASSERT_EQ(t->dirty(), l->dirty) << "step " << step;
                if (flag) {
                    t->setDirty();
                    l->dirty = true;
                }
            }
            break;
          }
          case 2: {
            CacheArray::Tag *t = dut.lookup(a, /*touch=*/false);
            RefCacheArray::Line *l = ref.lookup(a, false);
            ASSERT_EQ(t != nullptr, l != nullptr) << "step " << step;
            if (t) {
                ASSERT_EQ(t->dirty(), l->dirty) << "step " << step;
            }
            break;
          }
          case 3:
            // Install, present or not: covers dirty re-installs.
            expectSameVictim(dut.install(a, flag), ref.install(a, flag),
                             step);
            break;
          case 4: {
            // The miss-then-fill pattern of the hierarchy.
            const bool hit = dut.lookup(a) != nullptr;
            ASSERT_EQ(hit, ref.lookup(a, true) != nullptr)
                << "step " << step;
            if (!hit)
                expectSameVictim(dut.fill(a, flag), ref.install(a, flag),
                                 step);
            break;
          }
          case 5: {
            // The access hit path: a hit takes the dirty bit ORed in.
            const bool hit = dut.hit(a, flag);
            RefCacheArray::Line *l = ref.lookup(a, true);
            ASSERT_EQ(hit, l != nullptr) << "step " << step;
            if (l) {
                l->dirty = l->dirty || flag;
                CacheArray::Tag *t = dut.lookup(a, /*touch=*/false);
                ASSERT_NE(t, nullptr) << "step " << step;
                ASSERT_EQ(t->dirty(), l->dirty) << "step " << step;
                ref.lookup(a, false);  // keep the counters in step
            }
            break;
          }
          default:
            ASSERT_EQ(dut.invalidate(a), ref.invalidate(a))
                << "step " << step;
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_EQ(dut.hits(), ref.hits());
    EXPECT_EQ(dut.misses(), ref.misses());
}

TEST(CacheArrayTest, MatchesLruSequenceReference)
{
    std::uint64_t seed = 1;
    for (unsigned ways : {1u, 2u, 3u, 4u, 8u, 16u, 32u}) {
        for (unsigned sets : {1u, 4u, 6u, 16u, 24u}) {
            runDifferential(sets, ways, seed++);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(CacheArrayTest, WaysCappedByTheMatchMask)
{
    const unsigned cap = CacheArray::maxWays;
    EXPECT_EQ(CacheArray(cap * lineBytes, cap).numWays(), cap);
    EXPECT_DEATH(CacheArray((cap + 1) * lineBytes, cap + 1),
                 "65 ways, not 1 to 64");
}

} // namespace
} // namespace fbdp
