/**
 * @file
 * Unit tests of the AMB cache (the prefetch buffer): lookup, FIFO
 * replacement, associativity variants, in-flight fills, and a
 * differential test against the straightforward stamp-and-scan
 * implementation the indexed one replaced.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "prefetch/amb_cache.hh"

namespace fbdp {
namespace {

Addr
line(unsigned i)
{
    return static_cast<Addr>(i) * lineBytes;
}

TEST(AmbCacheTest, MissOnEmpty)
{
    AmbCache c(64, 0);
    EXPECT_EQ(c.lookup(line(1)), nullptr);
    EXPECT_EQ(c.population(), 0u);
}

TEST(AmbCacheTest, InsertThenHit)
{
    AmbCache c(64, 0);
    c.insert(line(5), 1234);
    auto *l = c.lookup(line(5));
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->readyAt, 1234u);
    EXPECT_EQ(c.population(), 1u);
}

TEST(AmbCacheTest, FullyAssociativeGeometry)
{
    AmbCache c(64, 0);
    EXPECT_EQ(c.sets(), 1u);
    EXPECT_EQ(c.ways(), 64u);
    EXPECT_EQ(c.entries(), 64u);
}

TEST(AmbCacheTest, SetAssociativeGeometry)
{
    AmbCache c(64, 2);
    EXPECT_EQ(c.sets(), 32u);
    EXPECT_EQ(c.ways(), 2u);
}

TEST(AmbCacheTest, FifoEvictsOldestInsertion)
{
    AmbCache c(4, 0);
    for (unsigned i = 0; i < 4; ++i)
        c.insert(line(i), 0);
    // Touch line 0 (a hit must NOT refresh FIFO order).
    EXPECT_NE(c.lookup(line(0)), nullptr);
    c.insert(line(10), 0);
    EXPECT_EQ(c.lookup(line(0)), nullptr) << "oldest must go";
    EXPECT_NE(c.lookup(line(1)), nullptr);
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(AmbCacheTest, ReinsertRefreshesInPlaceWithoutEvicting)
{
    AmbCache c(4, 0);
    for (unsigned i = 0; i < 4; ++i)
        c.insert(line(i), 0);
    c.insert(line(2), 777);  // already present
    EXPECT_EQ(c.population(), 4u);
    EXPECT_EQ(c.evictions(), 0u);
    EXPECT_EQ(c.lookup(line(2))->readyAt, 777u);
}

TEST(AmbCacheTest, DirectMappedConflicts)
{
    AmbCache c(8, 1);  // 8 sets, 1 way
    // Lines 0 and 8 collide in set 0.
    c.insert(line(0), 0);
    c.insert(line(8), 0);
    EXPECT_EQ(c.lookup(line(0)), nullptr);
    EXPECT_NE(c.lookup(line(8)), nullptr);
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(AmbCacheTest, TwoWayToleratesOneConflict)
{
    AmbCache c(16, 2);  // 8 sets, 2 ways
    c.insert(line(0), 0);
    c.insert(line(8), 0);
    EXPECT_NE(c.lookup(line(0)), nullptr);
    EXPECT_NE(c.lookup(line(8)), nullptr);
    c.insert(line(16), 0);  // third in set 0: evict FIFO (line 0)
    EXPECT_EQ(c.lookup(line(0)), nullptr);
    EXPECT_NE(c.lookup(line(8)), nullptr);
    EXPECT_NE(c.lookup(line(16)), nullptr);
}

TEST(AmbCacheTest, InvalidatePresentAndAbsent)
{
    AmbCache c(64, 0);
    c.insert(line(3), 0);
    EXPECT_TRUE(c.invalidate(line(3)));
    EXPECT_FALSE(c.invalidate(line(3)));
    EXPECT_EQ(c.lookup(line(3)), nullptr);
}

TEST(AmbCacheTest, InvalidatedSlotReusedBeforeEviction)
{
    AmbCache c(2, 0);
    c.insert(line(0), 0);
    c.insert(line(1), 0);
    c.invalidate(line(0));
    c.insert(line(2), 0);
    EXPECT_NE(c.lookup(line(1)), nullptr) << "no eviction needed";
    EXPECT_EQ(c.evictions(), 0u);
}

TEST(AmbCacheTest, FillPendingSentinel)
{
    AmbCache c(64, 0);
    c.insert(line(9), AmbCache::fillPending);
    auto *l = c.lookup(line(9));
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->readyAt, AmbCache::fillPending);
    l->readyAt = 4242;  // resolve
    EXPECT_EQ(c.lookup(line(9))->readyAt, 4242u);
}

TEST(AmbCacheTest, ResetEmptiesAndClearsStats)
{
    AmbCache c(8, 0);
    for (unsigned i = 0; i < 12; ++i)
        c.insert(line(i), 0);
    EXPECT_GT(c.evictions(), 0u);
    c.reset();
    EXPECT_EQ(c.population(), 0u);
    EXPECT_EQ(c.insertions(), 0u);
    EXPECT_EQ(c.evictions(), 0u);
}

/** Property: at any fill level, population never exceeds capacity and
 *  lookups return exactly the most recent `entries` distinct lines
 *  under pure-FIFO fully-associative insertion. */
class AmbCacheFifoProp : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AmbCacheFifoProp, SlidingWindowSemantics)
{
    const unsigned cap = GetParam();
    AmbCache c(cap, 0);
    const unsigned total = cap * 3;
    for (unsigned i = 0; i < total; ++i) {
        c.insert(line(i), 0);
        EXPECT_LE(c.population(), cap);
        // The newest `cap` lines are present, older ones are not.
        if (i >= cap)
            EXPECT_EQ(c.lookup(line(i - cap)), nullptr);
        EXPECT_NE(c.lookup(line(i)), nullptr);
    }
    EXPECT_EQ(c.evictions(), total - cap);
}

INSTANTIATE_TEST_SUITE_P(Capacities, AmbCacheFifoProp,
                         ::testing::Values(4u, 32u, 64u, 128u));

/**
 * Reference model: every set is scanned linearly and FIFO age is a
 * per-line insertion stamp (the smallest valid stamp is the victim).
 * The indexed AmbCache must agree with it on every observable.
 */
class RefAmbCache
{
  public:
    struct Line
    {
        Addr lineAddr = 0;
        Tick readyAt = 0;
        bool valid = false;
        bool used = false;
        std::uint64_t fifoSeq = 0;
    };

    RefAmbCache(unsigned entries, unsigned ways)
        : nWays(ways == 0 ? entries : ways), nSets(entries / nWays),
          lines(entries)
    {
    }

    Line *
    lookup(Addr a)
    {
        Line *base = &lines[setOf(a) * nWays];
        for (unsigned w = 0; w < nWays; ++w)
            if (base[w].valid && base[w].lineAddr == a)
                return &base[w];
        return nullptr;
    }

    Line *
    insert(Addr a, Tick ready, bool if_absent, AmbCache::Evicted *ev)
    {
        Line *base = &lines[setOf(a) * nWays];
        Line *first_invalid = nullptr;
        Line *oldest = base;
        for (unsigned w = 0; w < nWays; ++w) {
            Line &l = base[w];
            if (l.valid && l.lineAddr == a) {
                if (!if_absent) {
                    l.readyAt = ready;
                    l.fifoSeq = nextSeq++;
                }
                return &l;
            }
            if (!l.valid) {
                if (!first_invalid)
                    first_invalid = &l;
            } else if (l.fifoSeq < oldest->fifoSeq) {
                oldest = &l;
            }
        }
        Line *victim = first_invalid;
        if (!victim) {
            victim = oldest;
            ++nEvictions;
            if (ev) {
                ev->lineAddr = victim->lineAddr;
                ev->used = victim->used;
                ev->valid = true;
            }
        }
        victim->lineAddr = a;
        victim->readyAt = ready;
        victim->valid = true;
        victim->used = false;
        victim->fifoSeq = nextSeq++;
        ++nInsertions;
        return victim;
    }

    bool
    invalidate(Addr a, bool *was_used)
    {
        Line *l = lookup(a);
        if (!l)
            return false;
        l->valid = false;
        *was_used = l->used;
        return true;
    }

    void
    reset()
    {
        for (auto &l : lines)
            l.valid = l.used = false;
        nextSeq = nInsertions = nEvictions = 0;
    }

    unsigned
    population() const
    {
        unsigned n = 0;
        for (const auto &l : lines)
            n += l.valid;
        return n;
    }

    std::uint64_t nInsertions = 0;
    std::uint64_t nEvictions = 0;

  private:
    /** Same set function as AmbCache::setOf. */
    size_t
    setOf(Addr a) const
    {
        std::uint64_t l = lineIndex(a);
        l ^= l >> 5;
        l ^= l >> 11;
        return static_cast<size_t>(l % nSets);
    }

    unsigned nWays;
    unsigned nSets;
    std::vector<Line> lines;
    std::uint64_t nextSeq = 0;
};

struct Geometry
{
    unsigned entries;
    unsigned ways;
};

class AmbCacheDifferential : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(AmbCacheDifferential, MatchesStampAndScanReference)
{
    const Geometry g = GetParam();
    AmbCache dut(g.entries, g.ways);
    RefAmbCache ref(g.entries, g.ways);
    Rng rng(0xa3bc + 131 * g.entries + g.ways);

    // Lines drawn from a pool a few times the capacity, so hits,
    // refreshes, evictions and invalidations all happen often.
    const unsigned pool = 3 * g.entries + 5;
    for (unsigned op = 0; op < 40000; ++op) {
        const Addr a = static_cast<Addr>(rng.below(pool)) * lineBytes;
        const Tick ready = rng.below(1000);
        const unsigned kind = rng.below(100);
        if (kind < 35) {
            AmbCache::Line *d = dut.lookup(a);
            RefAmbCache::Line *r = ref.lookup(a);
            ASSERT_EQ(d != nullptr, r != nullptr);
            if (d) {
                ASSERT_EQ(d->lineAddr, r->lineAddr);
                ASSERT_EQ(d->readyAt, r->readyAt);
                ASSERT_EQ(d->used, r->used);
                if (rng.chance(0.5))
                    d->used = r->used = true;  // a demand hit
                if (rng.chance(0.3))
                    d->readyAt = r->readyAt = ready;  // a fill
            }
        } else if (kind < 70) {
            AmbCache::Evicted de, re;
            AmbCache::Line *d = dut.insertIfAbsent(a, ready, &de);
            RefAmbCache::Line *r = ref.insert(a, ready, true, &re);
            ASSERT_EQ(d->readyAt, r->readyAt);
            ASSERT_EQ(d->used, r->used);
            ASSERT_EQ(de.valid, re.valid);
            ASSERT_EQ(de.lineAddr, re.lineAddr);
            ASSERT_EQ(de.used, re.used);
        } else if (kind < 85) {
            AmbCache::Line *d = dut.insert(a, ready);
            RefAmbCache::Line *r = ref.insert(a, ready, false, nullptr);
            ASSERT_EQ(d->readyAt, r->readyAt);
            ASSERT_EQ(d->used, r->used);
        } else if (kind < 99) {
            bool du = false, ru = false;
            ASSERT_EQ(dut.invalidate(a, &du), ref.invalidate(a, &ru));
            ASSERT_EQ(du, ru);
        } else if (rng.chance(0.2)) {
            dut.reset();
            ref.reset();
        }
        ASSERT_EQ(dut.population(), ref.population()) << "op " << op;
        ASSERT_EQ(dut.insertions(), ref.nInsertions);
        ASSERT_EQ(dut.evictions(), ref.nEvictions);
    }
}

std::vector<Geometry>
differentialGeometries()
{
    std::vector<Geometry> out;
    for (unsigned e : {1u, 32u, 48u, 64u, 128u})
        for (unsigned w : {0u, 1u, 2u, 4u, 8u})
            if (w == 0 || (w <= e && e % w == 0))
                out.push_back({e, w});
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AmbCacheDifferential,
    ::testing::ValuesIn(differentialGeometries()),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return "e" + std::to_string(info.param.entries) + "w"
            + std::to_string(info.param.ways);
    });

} // namespace
} // namespace fbdp
