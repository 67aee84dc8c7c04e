/**
 * @file
 * Randomized mutation tests of the JSON reader (common/json), which
 * the ledger uses to re-read its own records and fbdp-report uses on
 * any file it is given.
 *
 * A real ledger record and a real `--stats-json` document are mutated
 * with a fixed seed: byte flips, inserted and deleted bytes,
 * truncations.  Edge tokens are added on their own: numbers at every
 * grammar and range boundary, escapes, surrogates, control characters
 * and nesting depth.  A reference acceptor written from RFC 8259 plus
 * the extensions json.hh documents judges each text.  A rejected text
 * must come back as a non-empty ParseResult::error; an accepted one
 * must parse to exactly the acceptor's value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/random.hh"
#include "system/ledger.hh"
#include "system/statsjson.hh"
#include "system/system.hh"
#include "workload/mixes.hh"

namespace fbdp {
namespace {

constexpr unsigned mutantsPerSeed = 600;

// Both sides spell the value they read in one tagged form, so "the
// parser produced the acceptor's value" is one string compare: n, t,
// f; u<uint64> or i<int64> plus the double's bits for exact integers;
// d<bits> for other numbers (NaN as dnan); s<len>:<bytes>; [...] and
// {key value ...}.

std::string
doubleBits(double d)
{
    if (d != d)
        return "dnan";
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    char buf[24];
    std::snprintf(buf, sizeof buf, "d%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

std::string
tagged(const std::string &s)
{
    return "s" + std::to_string(s.size()) + ":" + s;
}

/** The parser's value in the tagged form. */
std::string
describe(const json::Value &v)
{
    using K = json::Value::Kind;
    std::string out;
    switch (v.kind()) {
    case K::Null: return "n";
    case K::Bool: return v.asBool() ? "t" : "f";
    case K::String: return tagged(v.asString());
    case K::Number:
        if (!v.isInteger())
            return doubleBits(v.asNumber());
        return (v.asNumber() < 0 ? "i" + std::to_string(v.asInt64())
                                 : "u" + std::to_string(v.asUint64()))
            + doubleBits(v.asNumber());
    case K::Array:
        for (const auto &item : v.asArray())
            out += describe(*item) + " ";
        return "[" + out + "]";
    case K::Object:
        for (const auto &[key, item] : v.members())
            out += tagged(key) + " " + describe(*item) + " ";
        return "{" + out + "}";
    }
    return "?";
}

// --- the reference acceptor ------------------------------------------

/** RFC 8259 section 6, verbatim. */
const std::regex numberGrammar(
    "-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][-+]?[0-9]+)?");

class RefReader
{
  public:
    explicit RefReader(const std::string &text) : t(text) {}

    /** The document's value in the tagged form, or nothing if the
     *  text is not JSON. */
    std::optional<std::string>
    document()
    {
        auto v = value(1);
        ws();
        return i == t.size() ? v : std::nullopt;
    }

  private:
    const std::string &t;
    std::size_t i = 0;

    bool
    at(const char *word) const
    {
        return t.compare(i, std::strlen(word), word) == 0;
    }

    void
    ws()
    {
        while (i < t.size() && std::strchr(" \t\n\r", t[i]) && t[i])
            ++i;
    }

    std::optional<std::string>
    value(int depth)
    {
        ws();
        if (depth > json::maxDepth || i >= t.size())
            return std::nullopt;
        for (const auto &[word, tag] :
             {std::pair<const char *, const char *>{"true", "t"},
              {"false", "f"}, {"null", "n"}, {"NaN", "dnan"},
              {"Infinity", "d7ff0000000000000"},
              {"-Infinity", "dfff0000000000000"}}) {
            if (at(word)) {
                i += std::strlen(word);
                return std::string(tag);
            }
        }
        if (t[i] == '"')
            return string();
        if (t[i] == '[' || t[i] == '{')
            return container(depth);
        return number();
    }

    std::optional<std::string>
    container(int depth)
    {
        const char close = t[i++] == '{' ? '}' : ']';
        std::string out;
        ws();
        while (i < t.size() && t[i] != close) {
            if (!out.empty() && t[i++] != ',')
                return std::nullopt;
            if (close == '}') {
                ws();
                const auto key = i < t.size() && t[i] == '"'
                    ? string() : std::nullopt;
                ws();
                if (!key || i >= t.size() || t[i++] != ':')
                    return std::nullopt;
                out += *key + " ";
            }
            const auto item = value(depth + 1);
            if (!item)
                return std::nullopt;
            out += *item + " ";
            ws();
        }
        if (i++ >= t.size())
            return std::nullopt;
        return (close == '}' ? "{" : "[") + out + close;
    }

    /** Four hex digits at @p p, or -1. */
    long
    hex4(std::size_t p) const
    {
        const std::string h = t.substr(std::min(p, t.size()), 4);
        if (h.size() != 4
            || h.find_first_not_of("0123456789abcdefABCDEF")
                != std::string::npos)
            return -1;
        return std::strtol(h.c_str(), nullptr, 16);
    }

    std::optional<std::string>
    string()
    {
        std::string s;
        for (++i; i < t.size();) {
            const auto c = static_cast<unsigned char>(t[i++]);
            if (c == '"')
                return tagged(s);
            if (c < 0x20)
                return std::nullopt;
            if (c != '\\') {
                s += static_cast<char>(c);
                continue;
            }
            const char *esc = i < t.size() && t[i]
                ? std::strchr("\"\\/bfnrt", t[i]) : nullptr;
            if (esc) {
                s += "\"\\/\b\f\n\r\t"[esc - "\"\\/bfnrt"];
                ++i;
                continue;
            }
            long cp = t[i++] == 'u' ? hex4(i) : -1;
            if (cp < 0)
                return std::nullopt;
            i += 4;
            // Section 7: a character beyond the BMP is escaped as its
            // UTF-16 surrogate pair.
            const long lo = at("\\u") ? hex4(i + 2) : -1;
            if (cp >= 0xD800 && cp < 0xDC00 && lo >= 0xDC00
                && lo < 0xE000) {
                cp = 0x10000 + (cp - 0xD800) * 0x400 + (lo - 0xDC00);
                i += 6;
            }
            const int n = cp < 0x80 ? 1 : cp < 0x800 ? 2
                : cp < 0x10000 ? 3 : 4;
            const int lead[] = {0, 0, 0xC0, 0xE0, 0xF0};
            s += static_cast<char>(lead[n] | (cp >> (6 * (n - 1))));
            for (int k = n - 2; k >= 0; --k)
                s += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F));
        }
        return std::nullopt;
    }

    std::optional<std::string>
    number()
    {
        // A token runs to the first byte outside the number alphabet:
        // in valid JSON a delimiter follows a number, so a run the
        // grammar does not match whole makes the document invalid.
        const std::size_t from = i;
        while (i < t.size() && t[i]
               && std::strchr("0123456789.eE+-", t[i]))
            ++i;
        const std::string tok = t.substr(from, i - from);
        if (!std::regex_match(tok, numberGrammar))
            return std::nullopt;
        // Integer tokens keep their exact value when it fits 64 bits;
        // "-0" is the double negative zero (json.hh).
        const bool neg = tok[0] == '-';
        const std::string mag = tok.substr(neg);
        auto fits = [&](const std::string &limit) {
            return mag.size() < limit.size()
                || (mag.size() == limit.size() && mag <= limit);
        };
        if (tok.find_first_of(".eE") == std::string::npos) {
            if (tok == "-0")
                return doubleBits(-0.0);
            if (!neg && fits("18446744073709551615")) {
                const auto u = std::stoull(mag);
                return "u" + mag + doubleBits(static_cast<double>(u));
            }
            if (neg && fits("9223372036854775808")) {
                const auto v = std::stoll(tok);
                return "i" + tok + doubleBits(static_cast<double>(v));
            }
        }
        const double d = std::strtod(tok.c_str(), nullptr);
        if (std::isinf(d))  // a finite token too large for a double
            return std::nullopt;
        return doubleBits(d);
    }
};

// --- the seeds and the mutator ----------------------------------------

/** A short real run, dumped as @p ledger ? a ledger record : the
 *  `--stats-json` document. */
std::string
realDocument(bool ledger)
{
    SystemConfig cfg = SystemConfig::fbdAp();
    cfg.warmupInsts = 5'000;
    cfg.measureInsts = 20'000;
    cfg.benchmarks = mixByName("1C-swim").benches;
    System sys(cfg);
    const SweepRow row{"fbd-ap", "1C-swim", cfg.seed, sys.run()};
    const RunManifest m = RunManifest::capture(cfg);
    if (ledger)
        return ledgerRecordJson(m, row);
    std::ostringstream os;
    writeRunStatsJson(sys, row, os, &m);
    return os.str();
}

/** Bytes a flip or insert may write: JSON's alphabet, near misses,
 *  control bytes and non-ASCII. */
const std::string jsonBytes =
    std::string("0123456789-+.eE\"\\/bfnrtu{}[],: \t\r\nNaIyxdD8")
    + std::string("\x01\x1f\x7f\xff\xc3\xa9\0", 7);

std::vector<std::string>
mutants(const std::string &seed, std::uint64_t rng_seed)
{
    Rng rng(rng_seed);
    std::vector<std::string> out;
    for (unsigned k = 0; k < mutantsPerSeed; ++k) {
        std::string s = seed;
        for (unsigned e = 1 + rng.below(3); e > 0; --e) {
            const auto at = rng.below(s.size() + 1);
            const char b = jsonBytes[rng.below(jsonBytes.size())];
            switch (rng.below(4)) {
            case 0: if (at < s.size()) s[at] = b; break;       // flip
            case 1: s.insert(at, 1, b); break;                 // insert
            case 2: if (at < s.size()) s.erase(at, 1); break;  // delete
            default: s.resize(at); break;                      // truncate
            }
        }
        out.push_back(s);
    }
    return out;
}

/** Tokens at each grammar and range edge. */
const std::vector<std::string> edgeTokens = {
    "0", "-0", "01", "-01", "00", "1.", ".5", "+1", "-", "--1", "1e",
    "1e+", "1E+2", "1e-2", "2.e3", "2.0e", "0.0", "-0.0", "1.5e-3",
    "0e0", "1e01", "1ee2", "1.2.3", "1-2", "0x10", "1_000", "1 2",
    "1e400", "-1e400", "1e-400", "-1e-400", "1.7976931348623157e308",
    "1.7976931348623159e308", "4.9e-324", "2e-324",
    "18446744073709551615", "18446744073709551616",
    "-9223372036854775808", "-9223372036854775809", "9007199254740993",
    "NaN", "Infinity", "-Infinity", "-NaN", "+Infinity", "nan", "Inf",
    "NaNx", "Infinity1", "true", "false", "null", "tru", "truex",
    "nul", "False", "\"\"", "\"\\u00e9\"", "\"\\u20AC\"",
    "\"\\ud83d\\ude00\"", "\"\\uD83D\\uDE00\"", "\"\\ud83d\"",
    "\"\\ude00\"", "\"\\ud83d\\u0041\"", "\"\\ud83dx\"",
    "\"\\ud83d\\ud83d\\ude00\"", "\"\\ud83d\\u12\"", "\"\\u12\"",
    "\"\\u12g4\"", "\"\\u0000\"", "\"\\x41\"", "\"\\'\"", "\"\\/\"",
    "\"\\b\\f\\n\\r\\t\"", "\"\\\"", "\"", "\"\\", "\"a\tb\"",
    "\"a\nb\"", "\"\x01\"", "\"\x7f\"", "\"\xff\xfe\"", "\"\xc3\xa9\"",
    std::string("\"\0\"", 3), "[]", "[,]", "[1,]", "[,1]", "[1 2]",
    "[1,,2]", "[", "]", "{}", "{,}", "{\"a\":1,}", "{\"a\" 1}", "{1:1}",
    "{\"a\":1 \"b\":2}", "{\"a\":1,\"a\":2}", "{\"a\"}", "{\"a\":}",
    "[[]]", "[{}]", "{\"\":[]}", "", " ", " \t\r\n1 \n", "\f1", "\v1",
    std::string("1\0", 2), "\xef\xbb\xbf" "1",
};

class JsonMutationTest : public ::testing::Test
{
  protected:
    /** Judge @p text and check the parser agrees. */
    void
    check(const std::string &text)
    {
        const auto want = RefReader(text).document();
        const json::ParseResult got = json::parse(text);
        const std::string shown = ::testing::PrintToString(text);
        if (!want) {
            ++rejected;
            EXPECT_FALSE(got.ok()) << "accepted " << shown;
            EXPECT_FALSE(got.error.empty()) << "no error for " << shown;
            return;
        }
        ++accepted;
        ASSERT_TRUE(got.ok()) << got.error << " for " << shown;
        EXPECT_EQ(describe(*got.value), *want) << shown;
    }

    unsigned accepted = 0, rejected = 0;
};

TEST_F(JsonMutationTest, EdgeTokensErrorOrMatchTheGrammar)
{
    for (const std::string &tok : edgeTokens) {
        check(tok);
        check("{\"k\": " + tok + "}");
        check("[" + tok + ", 1]");
    }
    EXPECT_GE(accepted, 100u);
    EXPECT_GE(rejected, 150u);
}

TEST_F(JsonMutationTest, NestingStopsAtMaxDepth)
{
    // n arrays put "" at depth n, "1" at n + 1 and {"a":1}'s 1 at n + 2.
    const int d = json::maxDepth;
    for (int n : {d - 2, d - 1, d, d + 1, 4 * d}) {
        for (const std::string inner : {"", "1", "{\"a\":1}"})
            check(std::string(n, '[') + inner + std::string(n, ']'));
    }
    EXPECT_EQ(accepted, 6u);
    EXPECT_EQ(rejected, 9u);
}

TEST_F(JsonMutationTest, EncodedNumbersReadBackBitForBit)
{
    for (double d : {0.0, -0.0, 0.25, -1.5, 1e-300, 4.9e-324,
                     1.7976931348623157e308, -2.5e100, 3.0}) {
        const std::string text = json::encodeNumber(d);
        check(text);
        const json::ParseResult got = json::parse(text);
        ASSERT_TRUE(got.ok()) << text;
        EXPECT_EQ(doubleBits(got.value->asNumber()), doubleBits(d))
            << text;
    }
}

TEST_F(JsonMutationTest, LedgerRecordMutantsErrorOrMatchTheGrammar)
{
    const std::string seed = realDocument(true);
    check(seed);
    ASSERT_EQ(accepted, 1u) << "the seed itself must be valid";
    for (const std::string &m : mutants(seed, 0x1ed9))
        check(m);
    // Both verdicts are exercised, so neither check is vacuous.
    EXPECT_GE(accepted, 100u);
    EXPECT_GE(rejected, 100u);
}

TEST_F(JsonMutationTest, StatsDocumentMutantsErrorOrMatchTheGrammar)
{
    const std::string seed = realDocument(false);
    check(seed);
    ASSERT_EQ(accepted, 1u) << "the seed itself must be valid";
    for (const std::string &m : mutants(seed, 0x57a7))
        check(m);
    EXPECT_GE(accepted, 100u);
    EXPECT_GE(rejected, 100u);
}

} // namespace
} // namespace fbdp
