/**
 * @file
 * Trace record/replay tests: the writer, the strict text and .fbt
 * decoders, streamed and kept replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "system/system.hh"
#include "workload/trace_stream.hh"

namespace fbdp {
namespace {

// ---------------------------------------------------------------- //
// Text decoding                                                     //
// ---------------------------------------------------------------- //

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = ::testing::TempDir() + "fbdp_trace_test.txt";
    }

    void TearDown() override { std::remove(path.c_str()); }

    /** Write @p content to the trace path. */
    void
    write(const std::string &content)
    {
        std::ofstream out(path, std::ios::binary);
        out << content;
    }

    /** One pass over the trace path. */
    std::vector<TraceOp>
    decode()
    {
        TraceSpec spec;
        spec.path = path;
        TracePassReader in(spec);
        std::vector<TraceOp> ops;
        TraceOp op;
        while (in.next(&op))
            ops.push_back(op);
        return ops;
    }

    /** Decoding @p content must fail on line @p line_no. */
    void
    expectBadLine(const std::string &content, unsigned line_no)
    {
        write(content);
        EXPECT_DEATH(decode(), "malformed trace line "
                                   + std::to_string(line_no) + " in '"
                                   + path + "'")
            << content;
    }

    std::string path;
};

TEST_F(TraceFileTest, FormatRoundTrip)
{
    TraceOp op;
    op.gap = 17;
    op.kind = TraceOp::Kind::Store;
    op.addr = 0xdeadbeef40;
    EXPECT_EQ(formatTraceOp(op), "17 S deadbeef40");
    write(formatTraceOp(op) + "\n");
    const auto back = decode();
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].gap, op.gap);
    EXPECT_EQ(back[0].kind, op.kind);
    EXPECT_EQ(back[0].addr, op.addr);
}

TEST_F(TraceFileTest, CommentsAndBlankLinesSkipped)
{
    write("# comment\n\n  # indented comment\n3 P 1000\n");
    const auto ops = decode();
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].addr, 0x1000u);
    EXPECT_EQ(ops[0].kind, TraceOp::Kind::Prefetch);
}

TEST_F(TraceFileTest, CrlfAndWhitespaceLinesTolerated)
{
    write("\r\n  \t \n \t\r\n1 L 40\r\n  2\tS  0x80 \t\n7 P 0XaB");
    const auto ops = decode();
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].addr, 0x40u);
    EXPECT_EQ(ops[1].gap, 2u);
    EXPECT_EQ(ops[1].addr, 0x80u);
    EXPECT_EQ(ops[2].addr, 0xabu);
}

TEST_F(TraceFileTest, FieldLimitsAreInclusive)
{
    write("4294967295 L ffffffffffffffff\n0 S 0000000000000001\n");
    const auto ops = decode();
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].gap, 4294967295u);
    EXPECT_EQ(ops[0].addr, ~Addr{0});
    EXPECT_EQ(ops[1].addr, 1u);
}

TEST_F(TraceFileTest, MalformedLinesAreFatalWithTheirLineNumber)
{
    expectBadLine("banana\n", 1);
    expectBadLine("1 X 40\n", 1);
    expectBadLine("# header\n1 L 40\nbogus line\n", 3);
    expectBadLine("# a\n#b\n\n1 L 40\n2 S 80\n\t\nbanana", 7);
    // Lines a lenient parser misreads: an overflowing gap, address
    // digits past 16, text after the address, a missing separator.
    expectBadLine("1 L 40\n99999999999 L 40\n", 2);
    expectBadLine("4294967296 L 40\n", 1);
    expectBadLine("1 L fffffffffffffffffff\n", 1);
    expectBadLine("1 L 00000000000000040\n", 1);
    expectBadLine("6 L 3 0\n", 1);
    expectBadLine("6 L 30g\n", 1);
    expectBadLine("6 L 3 # trailing comment\n", 1);
    expectBadLine("6L30\n", 1);
    expectBadLine("6 L30\n", 1);
    expectBadLine("6 LS 30\n", 1);
    expectBadLine("6 L 0x\n", 1);
    expectBadLine("6 L\n", 1);
    expectBadLine("-6 L 30\n", 1);
    expectBadLine("1 L 40\r\r\n", 1);
}

TEST_F(TraceFileTest, RecordThenReplayIdentical)
{
    SyntheticGenerator gen(benchProfile("equake"), 0, 5, true);
    SyntheticGenerator ref(benchProfile("equake"), 0, 5, true);
    {
        TraceWriter w(path, TraceFormat::Text, false, "equake");
        for (int i = 0; i < 2000; ++i)
            w.append(gen.next());
        EXPECT_EQ(w.written(), 2000u);
    }
    const auto ops = decode();
    ASSERT_EQ(ops.size(), 2000u);
    for (int i = 0; i < 2000; ++i) {
        TraceOp a = ref.next();
        ASSERT_EQ(a.addr, ops[i].addr) << "op " << i;
        ASSERT_EQ(a.gap, ops[i].gap);
        ASSERT_EQ(a.kind, ops[i].kind);
    }
}

TEST_F(TraceFileTest, ReplayWrapsAtEof)
{
    write("1 L 40\n2 S 80\n");
    TraceSpec spec;
    spec.path = path;
    StreamingTraceGenerator replay(spec);
    TraceOp first = replay.next();
    replay.next();
    TraceOp wrapped = replay.next();
    EXPECT_EQ(wrapped.addr, first.addr);
    EXPECT_EQ(replay.wraps(), 1u);
}

TEST_F(TraceFileTest, BaseAddressOffsetsReplay)
{
    write("0 L 40\n");
    TraceSpec spec;
    spec.path = path;
    StreamingTraceGenerator replay(spec, 1ull << 32);
    EXPECT_EQ(replay.next().addr, (1ull << 32) + 0x40);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    TraceSpec spec;
    spec.path = "/nonexistent/trace.txt";
    EXPECT_DEATH(TraceStream s(spec), "cannot open");
}

TEST_F(TraceFileTest, EmptyTraceIsFatal)
{
    write("# only a comment\n");
    EXPECT_DEATH(decode(), "no operations");
}

TEST_F(TraceFileTest, TextWriterDetectsWriteFailure)
{
    // /dev/full accepts the open and fails every flushed write, the
    // classic disk-full simulation.
    std::ifstream probe("/dev/full");
    if (!probe.good())
        GTEST_SKIP() << "no /dev/full on this host";
    EXPECT_DEATH(
        {
            SyntheticGenerator gen(benchProfile("swim"), 0, 1, true);
            TraceWriter w("/dev/full", TraceFormat::Text, false, "swim");
            for (int i = 0; i < 100000; ++i)
                w.append(gen.next());
            w.close();
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

    /** Convert the text trace to @p out as .fbt, gzipped if @p gz,
     *  with @p count as the header's op count (patched to the exact
     *  count on close unless gzipped). */
    void
    convertToFbt(const std::string &out = "", bool gz = false,
                 std::uint64_t count = 0)
    {
        TracePassReader in(spec(textPath));
        TraceWriter w(out.empty() ? fbtPath : out, TraceFormat::Fbt, gz,
                      "equake", count);
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
    EXPECT_EQ(s.chunkBytes, TraceSpec::defaultChunkBytes);
    EXPECT_EQ(s.canonicalName(), "trace:/tmp/x.fbt");

    s = TraceSpec::parse("trace:/a/b,chunk=128k");
    EXPECT_EQ(s.chunkBytes, 128u << 10);

    s = TraceSpec::parse("trace:/a/b,chunk=2m");
    EXPECT_EQ(s.chunkBytes, 2u << 20);
    s = TraceSpec::parse("trace:/a/b,chunk=64");
    EXPECT_EQ(s.chunkBytes, 64u);

    EXPECT_DEATH(TraceSpec::parse("trace:"), "missing a path");
    EXPECT_DEATH(TraceSpec::parse("trace:/a,bogus=1"),
                 "unknown trace spec option");
    // Replay mode is the stream's own decision, not an option.
    EXPECT_DEATH(TraceSpec::parse("trace:/a,stream=off"),
                 "unknown trace spec option 'stream'");
    EXPECT_DEATH(TraceSpec::parse("trace:/a,stream=on"),
                 "unknown trace spec option 'stream'");
    // So is the format: the file's magic decides it.
    EXPECT_DEATH(TraceSpec::parse("trace:/a,format=fbt"),
                 "unknown trace spec option 'format'");
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

TEST_F(TraceStreamTest, WrapsMatchTheRecordedOps)
{
    const auto ops = record(700);
    StreamingTraceGenerator stream(spec(textPath, 256), 1ull << 32);
    // 2.5 passes: the wrap counter must step at each pass boundary.
    for (std::uint64_t i = 0; i < 1750; ++i) {
        TraceOp want = ops[i % ops.size()];
        want.addr += 1ull << 32;
        expectSameOp(stream.next(), want, i);
        ASSERT_EQ(stream.wraps(), (i + 1) / ops.size()) << "op " << i;
    }
    EXPECT_EQ(stream.wraps(), 2u);
    EXPECT_EQ(stream.consumed(), 1750u);
}

TEST_F(TraceStreamTest, SharedStreamMultipleViews)
{
    const auto ops = record(400);
    auto shared = std::make_shared<TraceStream>(spec(textPath, 512));
    StreamingTraceGenerator v0(shared, 0);
    StreamingTraceGenerator v1(shared, 1ull << 32);
    // Interleave like the warm-up loop drives cores round-robin.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        TraceOp want = ops[i % ops.size()];
        expectSameOp(v0.next(), want, i);
        want.addr += 1ull << 32;
        expectSameOp(v1.next(), want, i);
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
    record(1200);
    StreamingTraceGenerator sync(spec(textPath, 256));
    auto str = std::make_shared<TraceStream>(spec(textPath, 256), 0,
                                             false);
    StreamingTraceGenerator nobg(str);
    for (std::uint64_t i = 0; i < 2400; ++i)
        expectSameOp(sync.next(), nobg.next(), i);
}

TEST_F(TraceStreamTest, KeepsOnlyATraceKnownShorterThanTheWarmup)
{
    const auto ops = record(300);
    convertToFbt();
    auto keeps = [&](const std::string &p, std::uint64_t warm) {
        return TraceStream(spec(p), warm).keeps();
    };
    // .fbt: the header's exact count decides.
    EXPECT_TRUE(keeps(fbtPath, ops.size() + 1));
    EXPECT_FALSE(keeps(fbtPath, ops.size()));
    EXPECT_FALSE(keeps(fbtPath, 0));
    // Text: at most one op per 6 bytes ("0 L 0\n").
    const auto bytes = std::filesystem::file_size(textPath);
    EXPECT_TRUE(keeps(textPath, (bytes + 1) / 6 + 1));
    EXPECT_FALSE(keeps(textPath, (bytes + 1) / 6));
    EXPECT_FALSE(keeps(textPath, ops.size() + 1));

    if (!zlibAvailable())
        GTEST_SKIP() << "built without zlib";
    // Gzip with a header count is still known; without one it is not.
    convertToFbt(gzPath, true, ops.size());
    EXPECT_TRUE(keeps(gzPath, ops.size() + 1));
    convertToFbt(gzPath, true, 0);
    EXPECT_FALSE(keeps(gzPath, ~std::uint64_t{0}));
}

TEST_F(TraceStreamTest, KeptAndStreamedReplayAgree)
{
    // Two views over 3.5 passes, at a chunk budget that splits the
    // pass in several chunks and at one that does not: the kept
    // stream decodes the file once and replays the very ops a
    // streamed one re-decodes.  Both decode ahead on their workers.
    const auto ops = record(900);
    for (std::size_t chunk : {std::size_t{256}, std::size_t{0}}) {
        auto kept = std::make_shared<TraceStream>(spec(textPath, chunk),
                                                  ~std::uint64_t{0});
        auto streamed = std::make_shared<TraceStream>(
            spec(textPath, chunk));
        ASSERT_TRUE(kept->keeps());
        ASSERT_FALSE(streamed->keeps());
        StreamingTraceGenerator k0(kept, 0), k1(kept, 1ull << 32);
        StreamingTraceGenerator s0(streamed, 0), s1(streamed, 1ull << 32);
        for (std::uint64_t i = 0; i < 3150; ++i) {
            TraceOp want = ops[i % ops.size()];
            expectSameOp(k0.next(), want, i);
            expectSameOp(s0.next(), want, i);
            want.addr += 1ull << 32;
            expectSameOp(k1.next(), want, i);
            expectSameOp(s1.next(), want, i);
            ASSERT_EQ(k0.wraps(), s0.wraps()) << "op " << i;
        }
        EXPECT_EQ(k1.wraps(), 3u);
        EXPECT_EQ(kept->passes(), 0u);
        EXPECT_GE(streamed->passes(), 3u);
        EXPECT_EQ(kept->chunksDecoded(), kept->windowPeakChunks());
        // The streamed worker decodes one chunk past the furthest
        // view's: wait for it while it runs.
        const std::uint64_t ahead =
            std::max(s0.currentChunk()->seq, s1.currentChunk()->seq) + 2;
        const auto t0 = std::chrono::steady_clock::now();
        while (streamed->chunksDecoded() < ahead
               && std::chrono::steady_clock::now() - t0
                   < std::chrono::seconds(10))
            std::this_thread::yield();
        EXPECT_EQ(streamed->chunksDecoded(), ahead);
    }
}

TEST_F(TraceStreamTest, SystemReplaysKeptAndStreamedAlike)
{
    // A trace shorter than the warm-up: plain text is kept, the same
    // file gzipped is of unknown size and streams.
    if (!zlibAvailable())
        GTEST_SKIP() << "built without zlib";
    record(20000, "swim");
    convertToFbt(gzPath, true, 0);
    SystemConfig cfg = SystemConfig::fbdAp();
    cfg.warmupInsts = 2000;
    cfg.measureInsts = 8000;
    auto run = [&](const std::string &p, bool want_keep) {
        cfg.benchmarks = {"trace:" + p, "trace:" + p};
        System sys(cfg);
        auto &g = dynamic_cast<StreamingTraceGenerator &>(
            sys.generator(0));
        EXPECT_EQ(g.stream().keeps(), want_keep) << p;
        return sys.run();
    };
    const RunResult a = run(textPath, true);
    const RunResult b = run(gzPath, false);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
}

TEST_F(TraceStreamTest, EmptyAndCorruptFilesAreFatal)
{
    {
        TraceWriter w(fbtPath, TraceFormat::Fbt, false, "empty");
        w.close();
    }
    auto drain = [&](const std::string &p) {
        TracePassReader in(spec(p));
        TraceOp op;
        while (in.next(&op)) {
        }
    };
    EXPECT_DEATH(drain(fbtPath), "no operations");

    // Truncated record tail.
    {
        TraceWriter w(fbtPath, TraceFormat::Fbt, false, "trunc");
        TraceOp op;
        w.append(op);
        w.close();
        std::ofstream out(fbtPath, std::ios::app | std::ios::binary);
        out << "xyz";
    }
    EXPECT_DEATH(drain(fbtPath), "truncated .*after fbt record 1");

    // Truncated at a record boundary: the header's count no longer
    // matches, and a stream that kept the trace on that count's word
    // would replay something else.
    record(10);
    convertToFbt();
    std::filesystem::resize_file(
        fbtPath, std::filesystem::file_size(fbtPath) - fbtRecordBytes);
    EXPECT_DEATH(drain(fbtPath),
                 "holds 9 fbt records but its header claims 10");

    // An unknown record kind names its record.
    convertToFbt();
    {
        std::fstream f(fbtPath,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(fbtPath) - 2 * fbtRecordBytes
            + 4));
        f.put('\x03');
    }
    EXPECT_DEATH(drain(fbtPath), "unknown trace op kind 3 in fbt "
                                 "record 9 of");

    // A header count below the records is fatal at the first record
    // past it, though the reader stops long before the file ends: a
    // stream that kept the trace on that count's word would otherwise
    // grow with every op it replays.
    record(100);
    convertToFbt();
    {
        std::fstream f(fbtPath,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(8);
        f.put('\x02');
    }
    EXPECT_DEATH(
        {
            StreamingTraceGenerator gen(
                std::make_shared<TraceStream>(spec(fbtPath, 64),
                                              ~std::uint64_t{0}));
            for (int i = 0; i < 3; ++i)
                gen.next();
        },
        "has fbt record 3 but its header claims 2");

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

TEST_F(TraceStreamTest, GzipWriterHoldsItsHeaderCountToTheOps)
{
    // A gzip sink cannot patch its header, and readers trust it.
    if (!zlibAvailable())
        GTEST_SKIP() << "built without zlib";
    EXPECT_DEATH(
        {
            TraceWriter w(gzPath, TraceFormat::Fbt, true, "x", 5);
            w.append(TraceOp{});
            w.close();
        },
        "promised 5 ops in its header but holds 1");
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
