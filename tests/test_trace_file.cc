/**
 * @file
 * Trace record/replay tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "workload/trace_file.hh"
#include "workload/trace_stream.hh"

namespace fbdp {
namespace {

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = ::testing::TempDir() + "fbdp_trace_test.txt";
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

TEST_F(TraceFileTest, FormatRoundTrip)
{
    TraceOp op;
    op.gap = 17;
    op.kind = TraceOp::Kind::Store;
    op.addr = 0xdeadbeef40;
    TraceOp back;
    ASSERT_TRUE(parseTraceOp(formatTraceOp(op), &back));
    EXPECT_EQ(back.gap, op.gap);
    EXPECT_EQ(static_cast<int>(back.kind),
              static_cast<int>(op.kind));
    EXPECT_EQ(back.addr, op.addr);
}

TEST_F(TraceFileTest, CommentsAndBlankLinesSkipped)
{
    TraceOp op;
    EXPECT_FALSE(parseTraceOp("# comment", &op));
    EXPECT_FALSE(parseTraceOp("", &op));
    EXPECT_TRUE(parseTraceOp("3 P 1000", &op));
    EXPECT_EQ(op.addr, 0x1000u);
    EXPECT_EQ(static_cast<int>(op.kind),
              static_cast<int>(TraceOp::Kind::Prefetch));
}

TEST_F(TraceFileTest, MalformedLineIsFatal)
{
    TraceOp op;
    EXPECT_DEATH(parseTraceOp("banana", &op), "malformed");
    EXPECT_DEATH(parseTraceOp("1 X 40", &op), "unknown trace op");
}

TEST_F(TraceFileTest, RecordThenReplayIdentical)
{
    SyntheticGenerator gen(benchProfile("equake"), 0, 5, true);
    {
        TraceRecorder rec(&gen, path);
        for (int i = 0; i < 2000; ++i)
            rec.next();
        EXPECT_EQ(rec.recorded(), 2000u);
    }

    SyntheticGenerator ref(benchProfile("equake"), 0, 5, true);
    TraceFileGenerator replay(path);
    EXPECT_EQ(replay.size(), 2000u);
    for (int i = 0; i < 2000; ++i) {
        TraceOp a = ref.next();
        TraceOp b = replay.next();
        ASSERT_EQ(a.addr, b.addr) << "op " << i;
        ASSERT_EQ(a.gap, b.gap);
        ASSERT_EQ(static_cast<int>(a.kind),
                  static_cast<int>(b.kind));
    }
}

TEST_F(TraceFileTest, ReplayWrapsAtEof)
{
    {
        std::ofstream out(path);
        out << "1 L 40\n2 S 80\n";
    }
    TraceFileGenerator replay(path);
    EXPECT_EQ(replay.size(), 2u);
    TraceOp first = replay.next();
    replay.next();
    TraceOp wrapped = replay.next();
    EXPECT_EQ(wrapped.addr, first.addr);
    EXPECT_EQ(replay.wraps(), 1u);
}

TEST_F(TraceFileTest, BaseAddressOffsetsReplay)
{
    {
        std::ofstream out(path);
        out << "0 L 40\n";
    }
    TraceFileGenerator replay(path, 1ull << 32);
    EXPECT_EQ(replay.next().addr, (1ull << 32) + 0x40);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_DEATH(TraceFileGenerator g("/nonexistent/trace.txt"),
                 "cannot open");
}

TEST_F(TraceFileTest, EmptyTraceIsFatal)
{
    {
        std::ofstream out(path);
        out << "# only a comment\n";
    }
    EXPECT_DEATH(TraceFileGenerator g(path), "no operations");
}

TEST_F(TraceFileTest, CrlfAndWhitespaceLinesTolerated)
{
    TraceOp op;
    EXPECT_FALSE(parseTraceOp("\r", &op));
    EXPECT_FALSE(parseTraceOp("  \t ", &op));
    EXPECT_FALSE(parseTraceOp(" \t\r", &op));
    ASSERT_TRUE(parseTraceOp("1 L 40\r", &op));
    EXPECT_EQ(op.addr, 0x40u);
    ASSERT_TRUE(parseTraceOp("  2 S 80", &op));
    EXPECT_EQ(op.gap, 2u);
}

TEST_F(TraceFileTest, MalformedLineReportsLineNumber)
{
    TraceOp op;
    EXPECT_DEATH(parseTraceOp("banana", &op, 7),
                 "malformed trace line 7");
    EXPECT_DEATH(parseTraceOp("1 X 40", &op, 9),
                 "kind 'X' on line 9");
}

TEST_F(TraceFileTest, LoaderReportsLineNumberOfBadRecord)
{
    {
        std::ofstream out(path);
        out << "# header\n1 L 40\nbogus line\n";
    }
    EXPECT_DEATH(TraceFileGenerator g(path),
                 "malformed trace line 3");
}

TEST_F(TraceFileTest, DosFormattedTraceReplays)
{
    {
        std::ofstream out(path);
        out << "1 L 40\r\n\r\n2 S 80\r\n";
    }
    TraceFileGenerator replay(path);
    EXPECT_EQ(replay.size(), 2u);
    EXPECT_EQ(replay.next().addr, 0x40u);
    EXPECT_EQ(replay.next().addr, 0x80u);
}

TEST_F(TraceFileTest, RecorderDetectsWriteFailure)
{
    // /dev/full accepts the open and fails every flushed write, the
    // classic disk-full simulation.
    std::ifstream probe("/dev/full");
    if (!probe.good())
        GTEST_SKIP() << "no /dev/full on this host";
    EXPECT_DEATH(
        {
            SyntheticGenerator gen(benchProfile("swim"), 0, 1, true);
            TraceRecorder rec(&gen, "/dev/full");
            for (int i = 0; i < 100000; ++i)
                rec.next();
        },
        "disk full");
}

// ---------------------------------------------------------------- //
// Streaming frontend                                                //
// ---------------------------------------------------------------- //

class TraceStreamTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base = ::testing::TempDir() + "fbdp_stream_test";
        textPath = base + ".trace";
        fbtPath = base + ".fbt";
        gzPath = base + ".fbt.gz";
    }

    void
    TearDown() override
    {
        std::remove(textPath.c_str());
        std::remove(fbtPath.c_str());
        std::remove(gzPath.c_str());
    }

    /** Record @p n synthetic ops to the text path. */
    std::vector<TraceOp>
    record(std::uint64_t n, const std::string &bench = "equake")
    {
        SyntheticGenerator gen(benchProfile(bench), 0, 5, true);
        std::vector<TraceOp> ops;
        TraceWriter w(textPath, TraceFormat::Text, false, bench);
        for (std::uint64_t i = 0; i < n; ++i) {
            ops.push_back(gen.next());
            w.append(ops.back());
        }
        w.close();
        return ops;
    }

    /** Convert the text trace to its .fbt twin at the fbt path. */
    void
    convertToFbt()
    {
        TracePassReader in(spec(textPath));
        TraceWriter w(fbtPath, TraceFormat::Fbt, false, "equake");
        TraceOp op;
        while (in.next(&op))
            w.append(op);
        w.close();
    }

    static TraceSpec
    spec(const std::string &p, std::size_t chunk = 0)
    {
        TraceSpec s;
        s.path = p;
        if (chunk)
            s.chunkBytes = chunk;
        return s;
    }

    static void
    expectSameOp(const TraceOp &a, const TraceOp &b, std::uint64_t i)
    {
        ASSERT_EQ(a.addr, b.addr) << "op " << i;
        ASSERT_EQ(a.gap, b.gap) << "op " << i;
        ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind))
            << "op " << i;
    }

    std::string base, textPath, fbtPath, gzPath;
};

TEST_F(TraceStreamTest, SpecParsing)
{
    EXPECT_TRUE(TraceSpec::isTraceSpec("trace:/tmp/x"));
    EXPECT_FALSE(TraceSpec::isTraceSpec("swim"));

    TraceSpec s = TraceSpec::parse("trace:/tmp/x.fbt");
    EXPECT_EQ(s.path, "/tmp/x.fbt");
    EXPECT_TRUE(s.stream);
    EXPECT_EQ(s.chunkBytes, TraceSpec::defaultChunkBytes);
    EXPECT_EQ(static_cast<int>(s.format),
              static_cast<int>(TraceFormat::Auto));
    EXPECT_EQ(s.canonicalName(), "trace:/tmp/x.fbt");

    s = TraceSpec::parse(
        "trace:/a/b,stream=off,chunk=128k,format=fbt");
    EXPECT_FALSE(s.stream);
    EXPECT_EQ(s.chunkBytes, 128u << 10);
    EXPECT_EQ(static_cast<int>(s.format),
              static_cast<int>(TraceFormat::Fbt));

    s = TraceSpec::parse("trace:/a/b,chunk=2m");
    EXPECT_EQ(s.chunkBytes, 2u << 20);
    s = TraceSpec::parse("trace:/a/b,chunk=64");
    EXPECT_EQ(s.chunkBytes, 64u);

    EXPECT_DEATH(TraceSpec::parse("trace:"), "missing a path");
    EXPECT_DEATH(TraceSpec::parse("trace:/a,bogus=1"),
                 "unknown trace spec option");
    EXPECT_DEATH(TraceSpec::parse("trace:/a,stream=maybe"),
                 "bad value");
    EXPECT_DEATH(TraceSpec::parse("trace:/a,chunk=banana"),
                 "bad chunk size");
}

TEST_F(TraceStreamTest, ChunkSizeParsingIsStrict)
{
    EXPECT_EQ(TraceSpec::parse("trace:/a,chunk=1024m").chunkBytes,
              TraceSpec::maxChunkBytes);
    EXPECT_EQ(TraceSpec::parse("trace:/a,chunk=1048576K").chunkBytes,
              TraceSpec::maxChunkBytes);
    EXPECT_EQ(TraceSpec::parse("trace:/a,chunk=1073741824").chunkBytes,
              TraceSpec::maxChunkBytes);
    EXPECT_EQ(TraceSpec::parse("trace:/a,chunk=16").chunkBytes,
              TraceSpec::minChunkBytes);

    // Trailing text, signs, a missing number, zero: each names the
    // spec instead of parsing into something else.
    for (const char *bad :
         {"trace:/a,chunk=4mjunk", "trace:/a,chunk=4kk",
          "trace:/a,chunk=4 k", "trace:/a,chunk=-1",
          "trace:/a,chunk=+4k", "trace:/a,chunk=", "trace:/a,chunk=k",
          "trace:/a,chunk=0", "trace:/a,chunk=0m",
          "trace:/a,chunk=4g"}) {
        EXPECT_DEATH(TraceSpec::parse(bad),
                     "bad chunk size .* in trace spec 'trace:/a,chunk=")
            << bad;
    }

    // Above the 1 GiB cap, including values whose k/m shift or digit
    // count would wrap a 64-bit size.
    for (const char *huge :
         {"trace:/a,chunk=1073741825", "trace:/a,chunk=1025m",
          "trace:/a,chunk=1048577k", "trace:/a,chunk=18014398509481985m",
          "trace:/a,chunk=99999999999999999999999"}) {
        EXPECT_DEATH(TraceSpec::parse(huge),
                     "exceeds the 1 GiB maximum")
            << huge;
    }
}

TEST_F(TraceStreamTest, TextBinaryGzipRoundTrip)
{
    const auto ops = record(3000);

    {
        TracePassReader in(spec(textPath));
        TraceWriter w(fbtPath, TraceFormat::Fbt, false, "equake",
                      ops.size());
        TraceOp op;
        while (in.next(&op))
            w.append(op);
        w.close();
        EXPECT_EQ(w.written(), ops.size());
    }

    {
        TracePassReader in(spec(fbtPath));
        EXPECT_EQ(static_cast<int>(in.format()),
                  static_cast<int>(TraceFormat::Fbt));
        EXPECT_EQ(in.header().profileName, "equake");
        EXPECT_EQ(in.header().opCount, ops.size());
        TraceOp op;
        std::uint64_t i = 0;
        while (in.next(&op)) {
            ASSERT_LT(i, ops.size());
            expectSameOp(op, ops[i], i);
            ++i;
        }
        EXPECT_EQ(i, ops.size());
    }

    if (!zlibAvailable())
        GTEST_SKIP() << "built without zlib";
    {
        TracePassReader in(spec(fbtPath));
        TraceWriter w(gzPath, TraceFormat::Fbt, true, "equake",
                      ops.size());
        TraceOp op;
        while (in.next(&op))
            w.append(op);
        w.close();
    }
    TracePassReader in(spec(gzPath));
    EXPECT_EQ(in.header().profileName, "equake");
    TraceOp op;
    std::uint64_t i = 0;
    while (in.next(&op)) {
        ASSERT_LT(i, ops.size());
        expectSameOp(op, ops[i], i);
        ++i;
    }
    EXPECT_EQ(i, ops.size());
}

TEST_F(TraceStreamTest, TinyChunksSplitRecordsAcrossReads)
{
    // 64-byte chunks guarantee both text lines and 13-byte fbt
    // records straddle every read boundary.
    const auto ops = record(500);
    convertToFbt();
    for (const auto &p : {textPath, fbtPath}) {
        TracePassReader in(spec(p, 64));
        TraceOp op;
        std::uint64_t i = 0;
        while (in.next(&op)) {
            ASSERT_LT(i, ops.size()) << p;
            expectSameOp(op, ops[i], i);
            ++i;
        }
        EXPECT_EQ(i, ops.size()) << p;
    }
}

TEST_F(TraceStreamTest, WrapDigestsMatchInRamReplay)
{
    record(700);
    TraceFileGenerator ram(textPath, 1ull << 32);
    StreamingTraceGenerator stream(spec(textPath, 256), 1ull << 32);
    // 2.5 passes: wrap counters must agree after every op.
    for (std::uint64_t i = 0; i < 1750; ++i) {
        TraceOp a = ram.next();
        TraceOp b = stream.next();
        expectSameOp(a, b, i);
        ASSERT_EQ(ram.wraps(), stream.wraps()) << "op " << i;
    }
    EXPECT_EQ(stream.wraps(), 2u);
    EXPECT_EQ(stream.consumed(), 1750u);
}

TEST_F(TraceStreamTest, SharedStreamMultipleViews)
{
    record(400);
    auto shared = std::make_shared<TraceStream>(spec(textPath, 512));
    StreamingTraceGenerator v0(shared, 0);
    StreamingTraceGenerator v1(shared, 1ull << 32);
    TraceFileGenerator r0(textPath, 0);
    TraceFileGenerator r1(textPath, 1ull << 32);
    // Interleave like the warm-up loop drives cores round-robin.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        expectSameOp(v0.next(), r0.next(), i);
        expectSameOp(v1.next(), r1.next(), i);
    }
    // Lock-step views share the window: a chunk or two resident,
    // never a whole pass.
    EXPECT_LE(shared->windowPeakChunks(), 4u);
    EXPECT_GE(shared->passes(), 2u);
}

TEST_F(TraceStreamTest, SingleViewFootprintIsBounded)
{
    // A multi-chunk text trace and its .fbt twin, each replayed for
    // two passes through one view at a small budget: the window never
    // holds more than two decoded chunks, and no chunk reserves much
    // more than the ops it decoded.
    const auto ops = record(6000);
    convertToFbt();
    for (const auto &p : {textPath, fbtPath}) {
        auto str = std::make_shared<TraceStream>(spec(p, 4096));
        StreamingTraceGenerator gen(str);
        std::uint64_t chunks = 0;
        std::uint64_t lastSeq = ~std::uint64_t{0};
        for (std::uint64_t i = 0; i < 2 * ops.size(); ++i) {
            expectSameOp(gen.next(), ops[i % ops.size()], i);
            const TraceChunk *c = gen.currentChunk();
            if (c->seq == lastSeq)
                continue;
            lastSeq = c->seq;
            ++chunks;
            const std::size_t n = c->ops.size();
            ASSERT_LE(c->ops.capacity(), n + n / 4 + 1)
                << p << " chunk " << c->seq;
        }
        EXPECT_GT(chunks, 20u) << p;
        EXPECT_LE(str->windowPeakChunks(), 2u) << p;
    }
}

TEST_F(TraceStreamTest, BackgroundAndSynchronousDecodeAgree)
{
    const auto ops = record(1200);
    StreamingTraceGenerator sync(spec(textPath, 256));
    {
        TraceSpec s = spec(textPath, 256);
        auto str = std::make_shared<TraceStream>(s, false);
        StreamingTraceGenerator nobg(str);
        for (std::uint64_t i = 0; i < 2400; ++i)
            expectSameOp(sync.next(), nobg.next(), i);
    }
}

TEST_F(TraceStreamTest, LoadOpsReadsBinary)
{
    const auto ops = record(300);
    convertToFbt();
    // The in-RAM loader goes through the same decoder: .fbt loads
    // transparently.
    TraceFileGenerator ram(fbtPath);
    EXPECT_EQ(ram.size(), ops.size());
    for (std::uint64_t i = 0; i < ops.size(); ++i)
        expectSameOp(ram.next(), ops[i], i);
}

TEST_F(TraceStreamTest, EmptyAndCorruptFilesAreFatal)
{
    {
        TraceWriter w(fbtPath, TraceFormat::Fbt, false, "empty");
        w.close();
    }
    EXPECT_DEATH(
        {
            TracePassReader in(spec(fbtPath));
            TraceOp op;
            in.next(&op);
        },
        "no operations");

    // Truncated record tail.
    {
        TraceWriter w(fbtPath, TraceFormat::Fbt, false, "trunc");
        TraceOp op;
        w.append(op);
        w.close();
        std::ofstream out(fbtPath, std::ios::app | std::ios::binary);
        out << "xyz";
    }
    EXPECT_DEATH(
        {
            TracePassReader in(spec(fbtPath));
            TraceOp op;
            while (in.next(&op)) {
            }
        },
        "truncated");

    // Forcing fbt on a text file trips the magic check.
    record(10);
    {
        TraceSpec s = spec(textPath);
        s.format = TraceFormat::Fbt;
        EXPECT_DEATH(TraceStream bad(s), "bad magic");
    }

    EXPECT_DEATH(TraceStream missing(spec("/nonexistent/x.fbt")),
                 "cannot open");
}

TEST_F(TraceStreamTest, WriterDetectsWriteFailure)
{
    std::ifstream probe("/dev/full");
    if (!probe.good())
        GTEST_SKIP() << "no /dev/full on this host";
    EXPECT_DEATH(
        {
            TraceWriter w("/dev/full", TraceFormat::Fbt, false,
                          "full");
            TraceOp op;
            for (int i = 0; i < 100000; ++i)
                w.append(op);
            w.close();
        },
        "disk full");
}

TEST_F(TraceStreamTest, GzipWithoutZlibIsFatal)
{
    if (zlibAvailable())
        GTEST_SKIP() << "this build has zlib";
    {
        // Hand-craft a gzip magic so the sniff triggers.
        std::ofstream out(gzPath, std::ios::binary);
        out << '\x1f' << '\x8b' << "rest";
    }
    EXPECT_DEATH(TraceStream gz(spec(gzPath)), "no zlib");
}

} // namespace
} // namespace fbdp
