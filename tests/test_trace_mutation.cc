/**
 * @file
 * Randomized mutation tests of the trace decoders: the text lines and
 * .fbt records that TraceFile reads from disk.
 *
 * A small text trace and a small .fbt trace are mutated with a fixed
 * seed: byte flips, inserted and deleted bytes, truncations.  Each
 * field's edge values are added on their own: gaps of 2^32-1 and
 * 2^32, addresses of 16 and 17 hex digits, .fbt kind bytes 0 to 3,
 * CRLF, comments, whitespace-only lines, header counts off by one.
 * A reference acceptor written from the grammar in trace_stream.hh
 * judges each file.  A rejected file must end in a fatal() naming the
 * file and the line or record (exit code 1); an accepted one must
 * decode through TracePassReader to exactly the acceptor's ops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "workload/trace_stream.hh"

namespace fbdp {
namespace {

constexpr unsigned mutantsPerSeed = 150;

/** The acceptor's judgement of one file. */
struct Verdict
{
    /** The ops an accepted file holds. */
    std::vector<TraceOp> ops;
    /** For a rejected file: a regex its fatal message must match. */
    std::optional<std::string> fatal;
};

/** @p s with the POSIX extended-regex metacharacters escaped. */
std::string
quoteRegex(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (std::string(".[]{}()*+?^$|\\").find(c) != std::string::npos)
            out += '\\';
        out += c;
    }
    return out;
}

// --- the reference acceptor ------------------------------------------

/** @p s split at runs of spaces and tabs. */
std::vector<std::string>
fields(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == ' ' || c == '\t') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** A GAP field: decimal digits worth at most 2^32-1. */
std::optional<std::uint32_t>
refGap(const std::string &f)
{
    if (f.empty() || f.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    const std::string v = f.substr(std::min(f.find_first_not_of('0'),
                                            f.size() - 1));
    if (v.size() > 10 || (v.size() == 10 && v > "4294967295"))
        return std::nullopt;
    return static_cast<std::uint32_t>(std::stoull(v));
}

/** An ADDR field: an optional 0x or 0X, then 1 to 16 hex digits. */
std::optional<Addr>
refAddr(std::string f)
{
    if (f.size() > 2 && f[0] == '0' && (f[1] == 'x' || f[1] == 'X'))
        f = f.substr(2);
    if (f.empty() || f.size() > 16
        || f.find_first_not_of("0123456789abcdefABCDEF")
               != std::string::npos)
        return std::nullopt;
    return static_cast<Addr>(std::stoull(f, nullptr, 16));
}

Verdict
refText(const std::string &bytes, const std::string &path)
{
    Verdict v;
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
        const std::size_t nl = bytes.find('\n', pos);
        lines.push_back(bytes.substr(pos, nl - pos));
        pos = nl == std::string::npos ? bytes.size() : nl + 1;
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::string line = lines[i];
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        const std::vector<std::string> f = fields(line);
        if (f.empty() || f[0][0] == '#')
            continue;
        std::optional<std::uint32_t> gap;
        std::optional<Addr> addr;
        if (f.size() == 3 && (gap = refGap(f[0]))
            && (f[1] == "L" || f[1] == "S" || f[1] == "P")
            && (addr = refAddr(f[2]))) {
            TraceOp op;
            op.gap = *gap;
            op.kind = f[1] == "L"   ? TraceOp::Kind::Load
                : f[1] == "S"       ? TraceOp::Kind::Store
                                    : TraceOp::Kind::Prefetch;
            op.addr = *addr;
            v.ops.push_back(op);
            continue;
        }
        v.fatal = "malformed trace line " + std::to_string(i + 1)
            + " in '" + quoteRegex(path) + "'";
        return v;
    }
    if (v.ops.empty())
        v.fatal = "'" + quoteRegex(path) + "' contains no operations";
    return v;
}

std::uint64_t
le(const std::string &b, std::size_t at, unsigned n)
{
    std::uint64_t x = 0;
    for (unsigned i = 0; i < n; ++i)
        x |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(b[at + i]))
            << (8 * i);
    return x;
}

Verdict
refFbt(const std::string &b, const std::string &path)
{
    Verdict v;
    const std::string file = "'" + quoteRegex(path) + "'";
    const std::string shortHeader =
        file + " is truncated \\(short fbt header\\)";
    if (b.size() < 20) {
        v.fatal = shortHeader;
        return v;
    }
    if (le(b, 4, 4) != 1) {
        v.fatal = "unsupported fbt version";
        return v;
    }
    const std::uint64_t count = le(b, 8, 8);
    const std::uint64_t name = le(b, 16, 4);
    if (name > (1u << 20)) {
        v.fatal = "implausible fbt profile-name length";
        return v;
    }
    if (20 + name > b.size()) {
        v.fatal = shortHeader;
        return v;
    }
    const std::size_t body = 20 + static_cast<std::size_t>(name);
    const std::size_t records = (b.size() - body) / 13;
    // The record area and the header count are checked at open.
    if (const std::size_t stray = (b.size() - body) % 13) {
        v.fatal = file + " is truncated \\(" + std::to_string(stray)
            + " stray bytes after fbt record " + std::to_string(records)
            + "\\)";
        return v;
    }
    if (count != 0 && count != records) {
        v.fatal = file + " holds " + std::to_string(records)
            + " fbt records but its header claims "
            + std::to_string(count);
        return v;
    }
    if (records == 0) {
        v.fatal = file + " contains no operations";
        return v;
    }
    for (std::size_t r = 0; r < records; ++r) {
        const std::size_t at = body + 13 * r;
        const unsigned kind = static_cast<unsigned char>(b[at + 4]);
        if (kind > 2) {
            v.fatal = "unknown trace op kind " + std::to_string(kind)
                + " in fbt record " + std::to_string(r + 1) + " of "
                + file;
            return v;
        }
        TraceOp op;
        op.gap = static_cast<std::uint32_t>(le(b, at, 4));
        op.kind = static_cast<TraceOp::Kind>(kind);
        op.addr = static_cast<Addr>(le(b, at + 5, 8));
        v.ops.push_back(op);
    }
    return v;
}

/** Judge @p bytes as the decoder sniffs them: by the .fbt magic. */
Verdict
refTrace(const std::string &bytes, const std::string &path)
{
    if (bytes.compare(0, 4, "FBT1") == 0)
        return refFbt(bytes, path);
    return refText(bytes, path);
}

// --- the seeds and the mutator ----------------------------------------

/** A text trace with each kind, both address spellings, blanks, a
 *  comment and a CRLF line. */
std::string
textSeed()
{
    std::string s = "# fbdp trace: swim\n";
    SyntheticGenerator gen(benchProfile("swim"), 0, 3, true);
    for (int i = 0; i < 12; ++i)
        s += formatTraceOp(gen.next()) + "\n";
    s += "  7\tS  0x7f3a2b40c0 \r\n"
         "\n"
         "# a comment\n"
         "3 P 0X1000\n"
         "4294967295 L ffffffffffffffff";
    return s;
}

/** A .fbt trace of @p n synthetic ops with an exact header count. */
std::string
fbtSeed(const std::string &path, int n)
{
    {
        SyntheticGenerator gen(benchProfile("mcf"), 0, 4, true);
        TraceWriter w(path, TraceFormat::Fbt, false, "mcf");
        for (int i = 0; i < n; ++i)
            w.append(gen.next());
    }
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Bytes a text flip or insert may write: the grammar's alphabet,
 *  its neighbours and a few strays.  No 0x1f, which could forge the
 *  gzip magic. */
const std::string textBytes = std::string("0123456789abcdefABCDEFxXLSPlsp"
                                          "gG#  \t\t\r\n\n-+.,\x7f\xff")
    + std::string(1, '\0');

/** One random edit of @p s: for text, bytes from textBytes; for
 *  .fbt, any byte. */
std::string
mutateOnce(std::string s, Rng &rng, bool binary)
{
    auto at = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.below(n + 1));
    };
    auto byte = [&] {
        return binary ? static_cast<char>(rng.below(256))
                      : textBytes[rng.below(textBytes.size())];
    };
    switch (rng.below(4)) {
    case 0:  // byte flip
        if (!s.empty())
            s[at(s.size() - 1)] = byte();
        break;
    case 1:  // insert
        s.insert(at(s.size()), 1, byte());
        break;
    case 2:  // delete
        if (!s.empty())
            s.erase(at(s.size() - 1), 1);
        break;
    default:  // truncate, at a record boundary half the time for .fbt
        if (binary && rng.below(2) && s.size() > 20 + 3)
            s.resize(s.size() - std::min<std::size_t>(
                                    s.size(), 13 * (1 + rng.below(3))));
        else
            s.resize(at(s.size()));
        break;
    }
    return s;
}

std::vector<std::string>
mutants(const std::string &seed, bool binary, std::uint64_t rng_seed)
{
    Rng rng(rng_seed);
    std::vector<std::string> out;
    for (unsigned i = 0; i < mutantsPerSeed; ++i) {
        std::string m = seed;
        for (unsigned e = 1 + rng.below(3); e > 0; --e)
            m = mutateOnce(m, rng, binary);
        out.push_back(m);
    }
    return out;
}

/** Text lines that probe each field's edges, each spliced alone into
 *  a valid trace. */
const std::vector<std::string> edgeLines = {
    "4294967295 L 40", "4294967296 L 40", "00004294967295 L 40",
    "99999999999 L 40", "0 L ffffffffffffffff", "0 L fffffffffffffffff",
    "0 L 0x000000000000000f", "0 L 0x0000000000000000f",
    "0 L 0000000000000000f", "1 L 40\r", "1 L 40\r\r", "\r", "  ",
    "\t", " \t\r", "# comment", "   # indented", "1 L 40 # comment",
    "1 L 3 0", "1 L 30g", "6L30", "6 L30", "6L 30", "1 l 40", "1 X 40",
    "1 LS 40", " 1 L 40 ", "1  L\t\t40", "1 L -40", "1 L 0x", "1 L x40",
    "-1 L 40", "+1 L 40", "1 L", "1", "L 40", "1 L 0x40x",
    std::string("1 L 40\0", 7), "1 L 4\r0",
};

/** Every edge of the .fbt fields, as whole files. */
std::vector<std::string>
fbtEdges(const std::string &seed)
{
    std::vector<std::string> out;
    const std::size_t body = seed.size() - 13 * 5;  // 5-record seed
    auto with = [&](std::size_t at, std::uint64_t x, unsigned n) {
        std::string s = seed;
        for (unsigned i = 0; i < n; ++i)
            s[at + i] = static_cast<char>((x >> (8 * i)) & 0xff);
        return s;
    };
    for (unsigned kind = 0; kind <= 3; ++kind)
        out.push_back(with(body + 13 * 2 + 4, kind, 1));
    out.push_back(with(body, 0xffffffffu, 4));           // largest gap
    out.push_back(with(body + 5, ~std::uint64_t{0}, 8)); // largest addr
    for (std::uint64_t count : {0, 4, 5, 6})
        out.push_back(with(8, count, 8));
    // A count below the records is fatal before any kind is read.
    std::string past = with(8, 2, 8);
    past[body + 13 * 2 + 4] = 3;
    out.push_back(past);
    for (std::uint32_t version : {0u, 2u})
        out.push_back(with(4, version, 4));
    out.push_back(with(16, (1u << 20) + 1, 4));  // implausible name
    out.push_back(with(16, 1u << 20, 4));        // name past the end
    out.push_back(seed.substr(0, 19));           // short header
    out.push_back(seed.substr(0, body));         // header only
    out.push_back(seed + std::string(13, '\0')); // one record too many
    return out;
}

// --- the tests ----------------------------------------------------------

class TraceMutationDeathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = ::testing::TempDir() + "fbdp_trace_mutant";
    }

    void TearDown() override { std::remove(path.c_str()); }

    /** Decode every op of the file at the path. */
    std::vector<TraceOp>
    decode() const
    {
        TracePassReader in(path);
        std::vector<TraceOp> ops;
        TraceOp op;
        while (in.next(&op))
            ops.push_back(op);
        return ops;
    }

    /** Judge @p bytes and check the decoder agrees. */
    void
    check(const std::string &bytes)
    {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << bytes;
        }
        const Verdict want = refTrace(bytes, path);
        const std::string shown = ::testing::PrintToString(bytes);
        if (want.fatal) {
            ++rejected;
            EXPECT_EXIT(decode(), ::testing::ExitedWithCode(1),
                        "fatal: .*" + *want.fatal)
                << "mutant " << shown;
            return;
        }
        ++accepted;
        const std::vector<TraceOp> got = decode();
        ASSERT_EQ(got.size(), want.ops.size()) << "mutant " << shown;
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].gap, want.ops[i].gap)
                << "op " << i << " of mutant " << shown;
            ASSERT_EQ(got[i].kind, want.ops[i].kind)
                << "op " << i << " of mutant " << shown;
            ASSERT_EQ(got[i].addr, want.ops[i].addr)
                << "op " << i << " of mutant " << shown;
        }
    }

    std::string path;
    unsigned accepted = 0, rejected = 0;
};

TEST_F(TraceMutationDeathTest, TextEdgeValuesFatalOrMatchTheGrammar)
{
    for (const std::string &line : edgeLines)
        check("1 L 40\n" + line + "\n2 S 80\n");
    EXPECT_GE(accepted, 12u);
    EXPECT_GE(rejected, 20u);
}

TEST_F(TraceMutationDeathTest, TextMutantsFatalOrMatchTheGrammar)
{
    const std::string seed = textSeed();
    check(seed);
    ASSERT_EQ(accepted, 1u) << "the seed itself must be valid";
    for (const std::string &m : mutants(seed, false, 0x7e47))
        check(m);
    // Both verdicts are exercised, so neither check is vacuous.
    EXPECT_GE(accepted, 25u);
    EXPECT_GE(rejected, 50u);
}

TEST_F(TraceMutationDeathTest, FbtEdgeValuesFatalOrMatchTheGrammar)
{
    for (const std::string &f : fbtEdges(fbtSeed(path, 5)))
        check(f);
    EXPECT_GE(accepted, 7u);
    EXPECT_GE(rejected, 10u);
}

TEST_F(TraceMutationDeathTest, FbtMutantsFatalOrMatchTheGrammar)
{
    const std::string seed = fbtSeed(path, 12);
    check(seed);
    ASSERT_EQ(accepted, 1u) << "the seed itself must be valid";
    for (const std::string &m : mutants(seed, true, 0xfb7))
        check(m);
    EXPECT_GE(accepted, 15u);
    EXPECT_GE(rejected, 50u);
}

} // namespace
} // namespace fbdp
