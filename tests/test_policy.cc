/**
 * @file
 * Conformance suite for the prefetch-policy plug-in interface: every
 * policy in the PolicyRegistry is driven through the same scripted
 * hook sequences and must honour the interface contract — the degree
 * bound on emissions, tolerance of any hook ordering, and bit-exact
 * determinism (same construction parameters + same hook sequence =>
 * same emissions, including across reset()).  Also covers the
 * PrefetchConfig spec-string grammar.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/types.hh"
#include "prefetch/policy.hh"
#include "prefetch/prefetch_config.hh"

using namespace fbdp;

namespace {

/** Deterministic access script: a few interleaved region walks. */
std::vector<PrefetchAccess>
script(unsigned region_lines, unsigned n_dimms)
{
    std::vector<PrefetchAccess> seq;
    const Addr region_bytes =
        static_cast<Addr>(region_lines) * lineBytes;
    std::uint64_t lcg = 12345;
    for (unsigned i = 0; i < 200; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        PrefetchAccess a;
        const unsigned region = (lcg >> 33) % 16;
        const unsigned off = (lcg >> 29) % region_lines;
        a.regionBase = static_cast<Addr>(region) * region_bytes;
        a.lineAddr = a.regionBase
            + static_cast<Addr>(off) * lineBytes;
        a.regionLines = region_lines;
        a.dimm = (lcg >> 40) % n_dimms;
        a.coreId = static_cast<int>((lcg >> 45) % 2);
        a.now = static_cast<Tick>(i) * 1000;
        a.linkUtil = static_cast<double>(i % 10) / 10.0;
        seq.push_back(a);
    }
    return seq;
}

/**
 * Drive one policy instance through the script with a plausible hook
 * mix (miss -> fills, every 3rd access a hit, every 7th an eviction,
 * every 11th a convert) and record every emission.
 */
std::vector<Addr>
drive(PrefetchPolicy &pol, const std::vector<PrefetchAccess> &seq,
      unsigned *max_emitted = nullptr)
{
    std::vector<Addr> out;
    unsigned max_n = 0;
    for (unsigned i = 0; i < seq.size(); ++i) {
        const PrefetchAccess &a = seq[i];
        if (i % 3 == 0) {
            pol.onHit(a);
            continue;
        }
        CandidateList cands(pol.degree());
        if (i % 11 == 0)
            pol.onConvert(a, cands);
        else
            pol.onMiss(a, cands);
        max_n = std::max(max_n, cands.size());
        for (unsigned c = 0; c < cands.size(); ++c) {
            out.push_back(cands[c]);
            pol.onFill(a.dimm, cands[c], a.now + 100);
        }
        if (i % 7 == 0 && !out.empty())
            pol.onEvict(a.dimm, out.back(), i % 2 == 0);
    }
    if (max_emitted)
        *max_emitted = max_n;
    return out;
}

} // namespace

TEST(PolicyRegistry, BuiltinsRegisteredAndSorted)
{
    const auto names = PolicyRegistry::instance().names();
    const std::vector<std::string> expect{"dspatch", "indram", "none",
                                          "region"};
    EXPECT_EQ(names, expect);
    for (const auto &n : expect)
        EXPECT_TRUE(PolicyRegistry::instance().has(n));
    EXPECT_FALSE(PolicyRegistry::instance().has("bogus"));
}

TEST(PolicyRegistry, MakeHonoursNameAndParams)
{
    PolicyParams pp;
    pp.regionLines = 8;
    pp.degree = 3;
    for (const auto &n : PolicyRegistry::instance().names()) {
        auto pol = PolicyRegistry::instance().make(n, pp);
        ASSERT_NE(pol, nullptr);
        EXPECT_EQ(std::string(pol->name()), n);
        EXPECT_EQ(pol->params().regionLines, 8u);
        EXPECT_EQ(pol->degree(), 3u);
    }
}

TEST(PolicyRegistryDeathTest, UnknownNameIsFatal)
{
    PolicyParams pp;
    EXPECT_DEATH(PolicyRegistry::instance().make("bogus", pp),
                 "unknown prefetch policy");
}

TEST(PolicyRegistryDeathTest, DuplicateRegistrationIsFatal)
{
    EXPECT_DEATH(PolicyRegistry::instance().add(
                     "region",
                     [](const PolicyParams &p) {
                         return PolicyRegistry::instance().make(
                             "none", p);
                     }),
                 "duplicate prefetch policy");
}

TEST(PolicyConformance, EmissionsRespectDegreeBound)
{
    for (const auto &n : PolicyRegistry::instance().names()) {
        for (unsigned degree : {0u, 1u, 2u, 8u}) {
            PolicyParams pp;
            pp.regionLines = 4;
            pp.degree = degree;
            pp.nDimms = 4;
            auto pol = PolicyRegistry::instance().make(n, pp);
            unsigned max_emitted = 0;
            drive(*pol, script(4, 4), &max_emitted);
            EXPECT_LE(max_emitted, pol->degree())
                << n << " degree=" << degree;
            if (n == "none")
                EXPECT_EQ(max_emitted, 0u);
        }
    }
}

TEST(PolicyConformance, EmissionsAreLineAligned)
{
    for (const auto &n : PolicyRegistry::instance().names()) {
        PolicyParams pp;
        pp.regionLines = 4;
        pp.nDimms = 4;
        auto pol = PolicyRegistry::instance().make(n, pp);
        for (Addr a : drive(*pol, script(4, 4)))
            EXPECT_EQ(a % lineBytes, 0u) << n;
    }
}

TEST(PolicyConformance, ToleratesColdHooks)
{
    // Hits, fills, evictions and converts before any miss training
    // must be safe for every policy.
    for (const auto &n : PolicyRegistry::instance().names()) {
        PolicyParams pp;
        pp.regionLines = 4;
        pp.nDimms = 2;
        auto pol = PolicyRegistry::instance().make(n, pp);
        PrefetchAccess a;
        a.regionBase = 0x1000;
        a.lineAddr = 0x1040;
        a.regionLines = 4;
        a.dimm = 1;
        pol->onHit(a);
        pol->onFill(1, 0x1080, 500);
        pol->onEvict(1, 0x1080, false);
        CandidateList cands(pol->degree());
        pol->onConvert(a, cands);
        EXPECT_LE(cands.size(), pol->degree()) << n;
    }
}

TEST(PolicyConformance, DeterministicAcrossInstancesAndReset)
{
    for (const auto &n : PolicyRegistry::instance().names()) {
        PolicyParams pp;
        pp.regionLines = 4;
        pp.nDimms = 4;
        const auto seq = script(4, 4);

        auto p1 = PolicyRegistry::instance().make(n, pp);
        auto p2 = PolicyRegistry::instance().make(n, pp);
        const auto e1 = drive(*p1, seq);
        const auto e2 = drive(*p2, seq);
        EXPECT_EQ(e1, e2) << n << ": two fresh instances diverged";

        // reset() must return to the freshly constructed state.
        p1->reset();
        const auto e3 = drive(*p1, seq);
        EXPECT_EQ(e1, e3) << n << ": replay after reset() diverged";
    }
}

TEST(PolicyConformance, RegionEmitsWholeResidualRegionAscending)
{
    // The paper's scheme: every in-region line except the demanded
    // one, in ascending order (the controller re-orders for the CAS
    // walk).
    PolicyParams pp;
    pp.regionLines = 4;
    auto pol = PolicyRegistry::instance().make("region", pp);
    PrefetchAccess a;
    a.regionBase = 0x2000;
    a.lineAddr = 0x2080; // offset 2 of 4
    a.regionLines = 4;
    CandidateList cands(pol->degree());
    pol->onMiss(a, cands);
    ASSERT_EQ(cands.size(), 3u);
    EXPECT_EQ(cands[0], 0x2000u);
    EXPECT_EQ(cands[1], 0x2040u);
    EXPECT_EQ(cands[2], 0x20c0u);
}

TEST(CandidateListTest, CapsAndCountsDrops)
{
    CandidateList c(2);
    c.add(0x0);
    c.add(0x40);
    c.add(0x80);
    c.add(0xc0);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.dropped(), 2u);
    c.clear();
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.dropped(), 0u);
}

TEST(PrefetchConfigTest, ParseDefaultsAndKeys)
{
    const PrefetchConfig p = PrefetchConfig::parse("region");
    EXPECT_EQ(p.policy, "region");
    EXPECT_EQ(p.place, PrefetchPlace::Amb);
    EXPECT_EQ(p.degree, 0u);
    EXPECT_EQ(p.entries, 64u);
    EXPECT_EQ(p.ways, 0u);
    EXPECT_EQ(p.throttle, 0.0);
    EXPECT_TRUE(p.enabled());

    const PrefetchConfig q = PrefetchConfig::parse(
        "dspatch,place=mc,degree=2,entries=128,ways=4,throttle=0.8");
    EXPECT_EQ(q.policy, "dspatch");
    EXPECT_EQ(q.place, PrefetchPlace::Mc);
    EXPECT_EQ(q.degree, 2u);
    EXPECT_EQ(q.entries, 128u);
    EXPECT_EQ(q.ways, 4u);
    EXPECT_DOUBLE_EQ(q.throttle, 0.8);

    EXPECT_FALSE(PrefetchConfig::parse("none").enabled());
}

TEST(PrefetchConfigDeathTest, RejectsMalformedSpecs)
{
    EXPECT_DEATH(PrefetchConfig::parse(""), "empty prefetch policy");
    EXPECT_DEATH(PrefetchConfig::parse("bogus"),
                 "unknown prefetch policy");
    EXPECT_DEATH(PrefetchConfig::parse("region,degree"),
                 "not key=value");
    EXPECT_DEATH(PrefetchConfig::parse("region,degree="),
                 "has no value");
    EXPECT_DEATH(PrefetchConfig::parse("region,frobnicate=1"),
                 "unknown prefetch spec key");
    EXPECT_DEATH(PrefetchConfig::parse("region,throttle=1.5"),
                 "outside");
}

TEST(PrefetchConfigDeathTest, RejectsValuesThatAreNotWholeNumbers)
{
    // Each once misparsed: a huge unsigned (bad_alloc), zero entries
    // (a panic in AmbCache), a silent 4, a silent 0, and NaN slipping
    // past the range check.  Now each is a clean fatal, exit code 1.
    const auto fatalExit = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(PrefetchConfig::parse("region,entries=-4"), fatalExit,
                "key 'entries': bad value '-4'");
    EXPECT_EXIT(PrefetchConfig::parse("region,entries=abc"), fatalExit,
                "key 'entries': bad value 'abc'");
    EXPECT_EXIT(PrefetchConfig::parse("region,degree=4x"), fatalExit,
                "key 'degree': bad value '4x'");
    EXPECT_EXIT(PrefetchConfig::parse("region,throttle=abc"), fatalExit,
                "'throttle' has value 'abc' outside");
    EXPECT_EXIT(PrefetchConfig::parse("region,throttle=nan"), fatalExit,
                "'throttle' has value 'nan' outside");
    // Signs, blanks and hex, which strtod alone would take.
    EXPECT_EXIT(PrefetchConfig::parse("region,throttle=-0"), fatalExit,
                "'throttle' has value '-0' outside");
    EXPECT_EXIT(PrefetchConfig::parse("region,throttle= 0.5"), fatalExit,
                "'throttle' has value ' 0.5' outside");
    EXPECT_EXIT(PrefetchConfig::parse("region,throttle=0x.8"), fatalExit,
                "'throttle' has value '0x.8' outside");
    EXPECT_EXIT(PrefetchConfig::parse("region,degree=+4"), fatalExit,
                "key 'degree': bad value '.4'");
}
