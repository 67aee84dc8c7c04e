/**
 * @file
 * Randomized mutation tests of the spec-string parsers that read user
 * input: PrefetchConfig::parse (the --prefetch value)
 * and TraceSpec::parse (a "trace:PATH[,key=value]..." workload).
 *
 * Valid seed specs are mutated with a fixed seed: byte flips, inserted
 * or deleted ',' and '=', duplicate keys, signs, overflow, empty values
 * and NaN.  A small reference acceptor, written from the grammar the
 * parsers' headers document, judges each mutant.  A rejected mutant
 * must end in a fatal() with a message (exit code 1); an accepted one
 * must parse to exactly the fields the acceptor reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "prefetch/prefetch_config.hh"
#include "system/config.hh"
#include "workload/trace_stream.hh"

namespace fbdp {
namespace {

constexpr unsigned mutantsPerSeed = 50;

// --- the reference acceptor ------------------------------------------

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> items;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t comma = s.find(',', pos);
        items.push_back(s.substr(pos, comma - pos));
        if (comma == std::string::npos)
            return items;
        pos = comma + 1;
    }
}

/** Leading decimal digits of @p v as a number, saturated at 2^40. */
std::uint64_t
digitValue(const std::string &v, std::size_t n)
{
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < n; ++i)
        x = std::min<std::uint64_t>(x * 10 + (v[i] - '0'),
                                    std::uint64_t{1} << 40);
    return x;
}

std::size_t
leadingDigits(const std::string &v)
{
    std::size_t n = 0;
    while (n < v.size() && v[n] >= '0' && v[n] <= '9')
        ++n;
    return n;
}

/** A whole decimal count: digits only, no sign or blanks. */
std::optional<std::uint64_t>
refCount(const std::string &v, std::uint64_t lo, std::uint64_t hi)
{
    const std::size_t n = leadingDigits(v);
    if (n == 0 || n != v.size())
        return std::nullopt;
    const std::uint64_t x = digitValue(v, n);
    if (x < lo || x > hi)
        return std::nullopt;
    return x;
}

/** PrefetchConfig's grammar: "region|none[,key=value]...", with
 *  the buffer lines set by the place unless a spec names them. */
std::optional<PrefetchConfig>
refPrefetch(const std::string &spec)
{
    const std::vector<std::string> items = splitCommas(spec);
    const std::string &policy = items[0];
    if (policy != "region" && policy != "none")
        return std::nullopt;
    PrefetchConfig pc;
    pc.enabled = policy == "region";
    bool entries_set = false;
    for (std::size_t i = 1; i < items.size(); ++i) {
        if (items[i].empty())
            continue;
        const std::size_t eq = items[i].find('=');
        if (eq == std::string::npos)
            return std::nullopt;
        const std::string key = items[i].substr(0, eq);
        const std::string val = items[i].substr(eq + 1);
        if (key == "place") {
            if (val != "amb" && val != "mc")
                return std::nullopt;
            pc.place = val == "mc" ? PrefetchPlace::Mc : PrefetchPlace::Amb;
            continue;
        }
        unsigned *field = key == "entries" ? &pc.entries
            : key == "ways"                ? &pc.ways
                                           : nullptr;
        if (!field)
            return std::nullopt;
        const auto n = refCount(val, key == "entries" ? 1 : 0,
                                PrefetchConfig::maxCount);
        if (!n)
            return std::nullopt;
        *field = static_cast<unsigned>(*n);
        entries_set |= field == &pc.entries;
    }
    if (!entries_set)
        pc.entries = pc.place == PrefetchPlace::Mc ? 256 : 64;
    return pc;
}

/** What TraceSpec::parse must produce, plus whether it warns. */
struct RefTrace
{
    TraceSpec spec;
    bool warnsSmallChunk = false;
};

/** TraceSpec's grammar: "trace:PATH[,key=value]...". */
std::optional<RefTrace>
refTrace(const std::string &bench)
{
    const std::vector<std::string> items =
        splitCommas(bench.substr(std::string("trace:").size()));
    if (items[0].empty())
        return std::nullopt;
    RefTrace r;
    r.spec.path = items[0];
    for (std::size_t i = 1; i < items.size(); ++i) {
        if (items[i].empty())
            continue;
        const std::size_t eq = items[i].find('=');
        if (eq == std::string::npos)
            return std::nullopt;
        const std::string key = items[i].substr(0, eq);
        const std::string val = items[i].substr(eq + 1);
        if (key == "chunk") {
            const std::size_t n = leadingDigits(val);
            const std::string unit = val.substr(n);
            unsigned shift = 0;
            if (unit == "k" || unit == "K")
                shift = 10;
            else if (unit == "m" || unit == "M")
                shift = 20;
            else if (!unit.empty())
                return std::nullopt;
            const std::uint64_t bytes = digitValue(val, n) << shift;
            if (bytes == 0 || bytes > TraceSpec::maxChunkBytes)
                return std::nullopt;
            if (bytes < TraceSpec::minChunkBytes)
                r.warnsSmallChunk = true;
            r.spec.chunkBytes = std::max<std::size_t>(
                bytes, TraceSpec::minChunkBytes);
        } else {
            return std::nullopt;
        }
    }
    return r;
}

// --- the mutator ------------------------------------------------------

/** Values that probe the number and keyword grammars' edges. */
const std::vector<std::string> edgeValues = {
    "", "0", "1", "4", "63", "64", "65536", "65537", "4294967296",
    "99999999999999999999", "-1", "-0", "+4", " 4", "4 ", "0x40",
    "1e3", "0.5", ".5", "5.", "1e-1", "1e999", "1e-999", ".", "e1",
    "nan", "NaN", "-nan", "inf", "1k", "8m", "1024M", "1048576k",
    "1048577k", "0k", "64K", "2M", "on", "off", "true", "false", "fbt",
    "text", "auto", "TEXT", "none", "region", "amb", "mc", "MC", "both",
};

/** Bytes a flip may write.  No NUL: spec strings arrive as C strings
 *  (argv), which cannot hold one. */
const std::string flipBytes =
    ",,==..--++  \t0123456789aefikmnorstxEKMN:/_\x7f\xff";

/** One random edit of @p s; a duplicated key is drawn from those in
 *  @p s or from @p keys. */
std::string
mutateOnce(std::string s, Rng &rng, const std::vector<std::string> &keys)
{
    auto at = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.below(n + 1));
    };
    auto pick = [&](const auto &v) { return v[rng.below(v.size())]; };
    // Duplicate keys and value swaps, which probe the value grammars
    // and the last-wins rule, are drawn twice as often as the rest.
    switch (rng.below(10)) {
    case 0:  // byte flip
        if (!s.empty())
            s[at(s.size() - 1)] = flipBytes[rng.below(flipBytes.size())];
        break;
    case 1:  // insert a separator
        s.insert(at(s.size()), 1, rng.below(2) ? ',' : '=');
        break;
    case 2: {  // delete a separator
        const std::size_t p = s.find_first_of(rng.below(2) ? "," : "=",
                                              at(s.size()));
        if (p != std::string::npos)
            s.erase(p, 1);
        break;
    }
    case 3:
    case 4: {  // duplicate key: a key already there, or any key
        const std::vector<std::string> items = splitCommas(s);
        std::string key = pick(keys);
        if (items.size() > 1 && rng.below(4)) {
            const std::string &it = items[1 + rng.below(items.size() - 1)];
            key = it.substr(0, it.find('='));
        }
        s += "," + key + "=" + pick(edgeValues);
        break;
    }
    case 5: {  // a sign in front of a value
        const std::size_t p = s.find('=', at(s.size()));
        if (p != std::string::npos)
            s.insert(p + 1, 1, rng.below(2) ? '-' : '+');
        break;
    }
    case 6:
    case 7: {  // overflow, empty, NaN, ...: swap a value for an edge
        const std::size_t p = s.find('=', at(s.size()));
        if (p != std::string::npos) {
            const std::size_t end = s.find(',', p);
            s.replace(p + 1, end == std::string::npos ? end : end - p - 1,
                      pick(edgeValues));
        }
        break;
    }
    case 8:  // delete a byte
        if (!s.empty())
            s.erase(at(s.size() - 1), 1);
        break;
    default:  // truncate
        s.resize(at(s.size()));
        break;
    }
    return s;
}

/**
 * The last seed (which sets every key) with one value swapped for
 * each edge value in turn, then mutantsPerSeed random mutants of each
 * seed, one to three edits apiece.  Random edits seldom keep the rest
 * of a spec valid around a boundary value, so each boundary is also
 * probed alone.
 */
std::vector<std::string>
mutants(const std::vector<std::string> &seeds,
        const std::vector<std::string> &keys, std::uint64_t rng_seed)
{
    Rng rng(rng_seed);
    std::vector<std::string> out;
    const std::vector<std::string> items = splitCommas(seeds.back());
    for (std::size_t i = 1; i < items.size(); ++i) {
        for (const std::string &v : edgeValues) {
            std::string m = items[0];
            for (std::size_t j = 1; j < items.size(); ++j)
                m += "," + (j == i ? items[j].substr(
                                         0, items[j].find('=') + 1) + v
                                   : items[j]);
            out.push_back(m);
        }
    }
    for (const std::string &seed : seeds) {
        for (unsigned i = 0; i < mutantsPerSeed; ++i) {
            std::string m = seed;
            for (unsigned e = 1 + rng.below(3); e > 0; --e)
                m = mutateOnce(m, rng, keys);
            out.push_back(m);
        }
    }
    return out;
}

// --- the tests ----------------------------------------------------------

TEST(SpecMutationDeathTest, PrefetchSpecsFatalOrMatchTheGrammar)
{
    // The deleted policies and keys stay among the seeds: every
    // mutant that keeps one must now be fatal.
    const std::vector<std::string> seeds = {
        "region",
        "region,degree=4,entries=64",
        "dspatch,throttle=0.8",
        "indram,entries=128,ways=8",
        "none,entries=65536,ways=0",
        "region,throttle=1e-1,degree=0",
        "region,place=mc",
        "indram,place=amb,ways=2",
        "dspatch,place=mc,degree=2,entries=128,ways=4,throttle=0.8",
        "region,entries=32,ways=4",
        "none,place=mc",
        "region,place=amb,entries=64,ways=0",
        "region,place=mc,entries=128,ways=4",
    };
    unsigned accepted = 0, rejected = 0;
    for (const std::string &m : mutants(
             seeds,
             {"place", "degree", "entries", "ways", "throttle", "Ways", ""},
             0x5eed)) {
        const auto want = refPrefetch(m);
        if (!want) {
            ++rejected;
            EXPECT_EXIT(PrefetchConfig::parse(m),
                        ::testing::ExitedWithCode(1), "fatal: .")
                << "mutant '" << m << "'";
            continue;
        }
        ++accepted;
        const PrefetchConfig got = PrefetchConfig::parse(m);
        EXPECT_EQ(got.enabled, want->enabled) << m;
        EXPECT_EQ(got.place, want->place) << m;
        EXPECT_EQ(got.entries, want->entries) << m;
        EXPECT_EQ(got.ways, want->ways) << m;
    }
    // Both verdicts are exercised, so neither check is vacuous.
    EXPECT_GE(accepted, 30u);
    EXPECT_GE(rejected, 300u);
}

TEST(SpecMutationDeathTest, PlaceInputsFatalOrLastWins)
{
    const auto fatalExit = ::testing::ExitedWithCode(1);
    // The spec parser refuses what no place can mean.
    EXPECT_EXIT(PrefetchConfig::parse("region,place=both"), fatalExit,
                "fatal: prefetch spec key 'place' has value 'both'");
    EXPECT_EXIT(PrefetchConfig::parse("region,place="), fatalExit,
                "fatal: prefetch spec key 'place' has no value");

    // The machine refuses a place it cannot host.
    SystemConfig ddr2 = SystemConfig::ddr2();
    ddr2.scheme = Interleave::MultiCacheline;
    ddr2.prefetch = PrefetchConfig::parse("region,place=amb");
    EXPECT_EXIT(ddr2.controllerConfig(), fatalExit,
                "fatal: AMB prefetching requires FB-DIMM");
    for (const char *spec : {"region,place=amb", "region,place=mc"}) {
        SystemConfig c = SystemConfig::fbdBase();
        ASSERT_EQ(c.scheme, Interleave::Cacheline);
        c.prefetch = PrefetchConfig::parse(spec);
        EXPECT_EXIT(c.controllerConfig(), fatalExit,
                    "fatal: .* prefetching needs multi-cacheline or page "
                    "interleaving")
            << spec;
    }

    // A repeated place: the last value wins, shape and all.
    const PrefetchConfig mc =
        PrefetchConfig::parse("region,place=amb,place=mc");
    EXPECT_EQ(mc.place, PrefetchPlace::Mc);
    EXPECT_EQ(mc.entries, 256u);
    const PrefetchConfig amb =
        PrefetchConfig::parse("region,place=mc,place=amb");
    EXPECT_EQ(amb.place, PrefetchPlace::Amb);
    EXPECT_EQ(amb.entries, 64u);
}

TEST(SpecMutationDeathTest, TraceSpecsFatalOrMatchTheGrammar)
{
    const std::string prefix = "trace:";
    const std::vector<std::string> seeds = {
        "/data/app.fbt",
        "/tmp/x.txt,chunk=1m",
        "t.txt,,chunk=64k",
        "t,chunk=4096,chunk=64",
        "x.txt,chunk=48",
        "a.fbt.gz,chunk=8m",
    };
    unsigned accepted = 0, rejected = 0;
    for (const std::string &body :
         mutants(seeds, {"stream", "chunk", "format", "path", ""},
                 0xf00d)) {
        const std::string m = prefix + body;
        const auto want = refTrace(m);
        if (!want) {
            ++rejected;
            EXPECT_EXIT(TraceSpec::parse(m), ::testing::ExitedWithCode(1),
                        "fatal: .")
                << "mutant '" << m << "'";
            continue;
        }
        ++accepted;
        ::testing::internal::CaptureStderr();
        const TraceSpec got = TraceSpec::parse(m);
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(got.path, want->spec.path) << m;
        EXPECT_EQ(got.chunkBytes, want->spec.chunkBytes) << m;
        EXPECT_EQ(err.find("warn: trace chunk size") != std::string::npos,
                  want->warnsSmallChunk)
            << m << ": " << err;
    }
    EXPECT_GE(accepted, 60u);
    EXPECT_GE(rejected, 200u);
}

} // namespace
} // namespace fbdp
