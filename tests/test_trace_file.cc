/**
 * @file
 * Trace record/replay tests: the writer, the strict text and .fbt
 * decoders, shared replay and the release of passed pages.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
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
        TracePassReader in(path);
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
    StreamingTraceGenerator replay(path);
    TraceOp first = replay.next();
    replay.next();
    TraceOp wrapped = replay.next();
    EXPECT_EQ(wrapped.addr, first.addr);
    EXPECT_EQ(replay.wraps(), 1u);
}

TEST_F(TraceFileTest, BaseAddressOffsetsReplay)
{
    write("0 L 40\n");
    StreamingTraceGenerator replay(path, 1ull << 32);
    EXPECT_EQ(replay.next().addr, (1ull << 32) + 0x40);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_DEATH(TraceStream s("/nonexistent/trace.txt"), "cannot open");
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
// Replay                                                            //
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
    }

    void
    TearDown() override
    {
        std::remove(textPath.c_str());
        std::remove(fbtPath.c_str());
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

    /** Convert the text trace to the .fbt path. */
    void
    convertToFbt()
    {
        TracePassReader in(textPath);
        TraceWriter w(fbtPath, TraceFormat::Fbt, false, "equake");
        TraceOp op;
        while (in.next(&op))
            w.append(op);
        w.close();
    }

    /** Overwrite the .fbt header's op count with @p count. */
    void
    patchCount(std::uint64_t count)
    {
        std::fstream f(fbtPath,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(8);
        for (int i = 0; i < 8; ++i)
            f.put(static_cast<char>((count >> (8 * i)) & 0xff));
    }

    static void
    expectSameOp(const TraceOp &a, const TraceOp &b, std::uint64_t i)
    {
        ASSERT_EQ(a.addr, b.addr) << "op " << i;
        ASSERT_EQ(a.gap, b.gap) << "op " << i;
        ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind))
            << "op " << i;
    }

    std::string base, textPath, fbtPath;
};

TEST_F(TraceStreamTest, SpecParsing)
{
    EXPECT_TRUE(TraceSpec::isTraceSpec("trace:/tmp/x"));
    EXPECT_FALSE(TraceSpec::isTraceSpec("swim"));

    TraceSpec s = TraceSpec::parse("trace:/tmp/x.fbt");
    EXPECT_EQ(s.path, "/tmp/x.fbt");
    EXPECT_EQ(s.canonicalName(), "trace:/tmp/x.fbt");
    // Empty items after the path are skipped.
    EXPECT_EQ(TraceSpec::parse("trace:/a/b,,").path, "/a/b");

    EXPECT_DEATH(TraceSpec::parse("trace:"), "missing a path");
    EXPECT_DEATH(TraceSpec::parse("trace:,x"), "missing a path");
    EXPECT_DEATH(TraceSpec::parse("trace:/a,bogus=1"),
                 "unknown trace spec option 'bogus'");
    // chunk= is an unknown key like any other.
    EXPECT_DEATH(TraceSpec::parse("trace:/a,chunk=64k"),
                 "unknown trace spec option 'chunk'");
    EXPECT_DEATH(TraceSpec::parse("trace:/a,stream=off"),
                 "unknown trace spec option 'stream'");
    // So is the format: the file's magic decides it.
    EXPECT_DEATH(TraceSpec::parse("trace:/a,format=fbt"),
                 "unknown trace spec option 'format'");
}

TEST_F(TraceStreamTest, TextBinaryRoundTrip)
{
    const auto ops = record(3000);
    convertToFbt();
    TracePassReader in(fbtPath);
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
    EXPECT_FALSE(in.next(&op));
}

TEST_F(TraceStreamTest, WrapsMatchTheRecordedOps)
{
    const auto ops = record(700);
    convertToFbt();
    for (const auto &p : {textPath, fbtPath}) {
        StreamingTraceGenerator stream(p, 1ull << 32);
        // 2.5 passes: the wrap counter must step at each pass boundary.
        for (std::uint64_t i = 0; i < 1750; ++i) {
            TraceOp want = ops[i % ops.size()];
            want.addr += 1ull << 32;
            expectSameOp(stream.next(), want, i);
            ASSERT_EQ(stream.wraps(), (i + 1) / ops.size())
                << p << " op " << i;
        }
        EXPECT_EQ(stream.wraps(), 2u) << p;
        EXPECT_EQ(stream.consumed(), 1750u) << p;
    }
}

TEST_F(TraceStreamTest, WarmBlocksMatchSingleOps)
{
    // Blocks that end on, straddle and span the pass boundary.
    const auto ops = record(300);
    convertToFbt();
    for (const auto &p : {textPath, fbtPath}) {
        StreamingTraceGenerator blocks(p, 1ull << 32);
        StreamingTraceGenerator single(p, 1ull << 32);
        std::vector<TraceOp> buf(700);
        std::uint64_t i = 0;
        for (std::size_t n : {300u, 7u, 293u, 1u, 650u, 49u}) {
            blocks.nextWarmBlock(buf.data(), n);
            for (std::size_t k = 0; k < n; ++k, ++i) {
                const TraceOp want = single.next();
                ASSERT_EQ(buf[k].addr, want.addr) << p << " op " << i;
                ASSERT_EQ(buf[k].kind, want.kind) << p << " op " << i;
            }
            ASSERT_EQ(blocks.wraps(), single.wraps()) << p;
            ASSERT_EQ(blocks.consumed(), single.consumed()) << p;
        }
        EXPECT_EQ(blocks.wraps(), 4u) << p;
    }
}

TEST_F(TraceStreamTest, TextAndFbtReplayAgree)
{
    // Two views of each form over 3.5 passes, driven round-robin as
    // the warm-up drives cores.
    const auto ops = record(900);
    convertToFbt();
    auto text = std::make_shared<TraceStream>(textPath);
    auto fbt = std::make_shared<TraceStream>(fbtPath);
    EXPECT_EQ(text->ops(), ops.size());
    EXPECT_EQ(fbt->ops(), ops.size());
    StreamingTraceGenerator t0(text, 0), t1(text, 1ull << 32);
    StreamingTraceGenerator f0(fbt, 0), f1(fbt, 1ull << 32);
    for (std::uint64_t i = 0; i < 3150; ++i) {
        TraceOp want = ops[i % ops.size()];
        expectSameOp(t0.next(), want, i);
        expectSameOp(f0.next(), want, i);
        want.addr += 1ull << 32;
        expectSameOp(t1.next(), want, i);
        expectSameOp(f1.next(), want, i);
        ASSERT_EQ(t0.wraps(), f0.wraps()) << "op " << i;
    }
    EXPECT_EQ(f1.wraps(), 3u);
}

TEST_F(TraceStreamTest, ViewsFarApartReplayLikeALoneView)
{
    // Three views of one .fbt held tens of thousands of ops apart, so
    // the pages behind the slowest one are released many times while
    // the others run ahead, over more than two passes.  Each must read
    // what a lone view of the file reads.
    record(100'000);
    convertToFbt();
    std::vector<TraceOp> lone(330'000);
    {
        StreamingTraceGenerator g(fbtPath);
        for (TraceOp &op : lone)
            op = g.next();
    }
    auto shared = std::make_shared<TraceStream>(fbtPath);
    std::vector<std::unique_ptr<StreamingTraceGenerator>> views;
    for (unsigned v = 0; v < 3; ++v)
        views.push_back(std::make_unique<StreamingTraceGenerator>(
            shared, static_cast<Addr>(v) << 32));
    std::vector<std::uint64_t> at(3, 0);
    auto step = [&](unsigned v) {
        TraceOp want = lone[at[v]];
        want.addr += static_cast<Addr>(v) << 32;
        expectSameOp(views[v]->next(), want, at[v]);
        ++at[v];
    };
    for (int i = 0; i < 60'000; ++i)
        step(0);
    for (int i = 0; i < 30'000; ++i)
        step(1);
    for (int i = 0; i < 240'000; ++i) {
        for (unsigned v = 0; v < 3; ++v)
            step(v);
        if (HasFatalFailure())
            return;
    }
    EXPECT_EQ(views[2]->wraps(), 2u);
}

/** This process's mapped file pages in KB (RssFile), or -1. */
long
rssFileKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("RssFile:", 0) == 0)
            return std::stol(line.substr(8));
    }
    return -1;
}

TEST_F(TraceStreamTest, ReplayReleasesPassedPages)
{
    // One pass of a 5.2 MB .fbt through one view and through a pass
    // reader: the mapped pages behind them are released as they go,
    // so the resident set grows by far less than the file.
    record(400'000);
    convertToFbt();
    const long before = rssFileKb();
    if (before < 0)
        GTEST_SKIP() << "no RssFile in /proc/self/status";
    const long file_kb =
        static_cast<long>(std::filesystem::file_size(fbtPath) >> 10);
    {
        StreamingTraceGenerator gen(fbtPath);
        long peak = before;
        for (int i = 0; i < 400'000; ++i) {
            gen.next();
            if (i % 10'000 == 0)
                peak = std::max(peak, rssFileKb());
        }
        EXPECT_LT(peak - before, file_kb / 4) << "file " << file_kb;
    }
    {
        TracePassReader in(fbtPath);
        TraceOp op;
        long peak = before;
        for (int i = 0; in.next(&op); ++i) {
            if (i % 10'000 == 0)
                peak = std::max(peak, rssFileKb());
        }
        EXPECT_LT(peak - before, file_kb / 4) << "file " << file_kb;
    }
}

TEST_F(TraceStreamTest, SystemReplaysTextAndFbtAlike)
{
    // A trace shorter than the warm-up, so both forms wrap.
    record(20000, "swim");
    convertToFbt();
    SystemConfig cfg = SystemConfig::fbdAp();
    cfg.warmupInsts = 2000;
    cfg.measureInsts = 8000;
    auto run = [&](const std::string &p) {
        cfg.benchmarks = {"trace:" + p, "trace:" + p};
        System sys(cfg);
        RunResult r = sys.run();
        EXPECT_GT(dynamic_cast<StreamingTraceGenerator &>(
                      sys.generator(0)).wraps(), 0u) << p;
        return r;
    };
    const RunResult a = run(textPath);
    const RunResult b = run(fbtPath);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
}

TEST_F(TraceStreamTest, EmptyAndCorruptFilesAreFatalAtOpen)
{
    {
        TraceWriter w(fbtPath, TraceFormat::Fbt, false, "empty");
        w.close();
    }
    EXPECT_DEATH(TraceFile f(fbtPath), "no operations");

    // A ragged record area: three stray bytes after record 1.
    {
        TraceWriter w(fbtPath, TraceFormat::Fbt, false, "trunc");
        TraceOp op;
        w.append(op);
        w.close();
        std::ofstream out(fbtPath, std::ios::app | std::ios::binary);
        out << "xyz";
    }
    EXPECT_DEATH(TraceFile f(fbtPath),
                 "truncated \\(3 stray bytes after fbt record 1\\)");

    // Truncated at a record boundary: the header's count no longer
    // matches.
    record(10);
    convertToFbt();
    std::filesystem::resize_file(
        fbtPath, std::filesystem::file_size(fbtPath) - fbtRecordBytes);
    EXPECT_DEATH(TraceFile f(fbtPath),
                 "holds 9 fbt records but its header claims 10");

    // A header count below or above the records, fatal before any
    // record is read; zero means "not recorded" and is accepted.
    record(100);
    convertToFbt();
    patchCount(2);
    EXPECT_DEATH(TraceStream s(fbtPath),
                 "holds 100 fbt records but its header claims 2");
    patchCount(101);
    EXPECT_DEATH(TracePassReader in(fbtPath),
                 "holds 100 fbt records but its header claims 101");
    patchCount(0);
    EXPECT_EQ(TraceStream(fbtPath).ops(), 100u);

    EXPECT_DEATH(TraceFile f("/nonexistent/x.fbt"), "cannot open");
}

TEST_F(TraceStreamTest, UnknownRecordKindIsFatalWhenRead)
{
    record(10);
    convertToFbt();
    {
        std::fstream f(fbtPath,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(fbtPath) - 2 * fbtRecordBytes
            + 4));
        f.put('\x03');
    }
    StreamingTraceGenerator gen(fbtPath);
    for (int i = 0; i < 8; ++i)
        gen.next();
    EXPECT_DEATH(gen.next(), "unknown trace op kind 3 in fbt record 9 of");
}

TEST_F(TraceStreamTest, GzipFileIsFatalNamingGunzip)
{
    {
        std::ofstream out(fbtPath, std::ios::binary);
        out << '\x1f' << '\x8b' << "rest";
    }
    EXPECT_DEATH(TraceStream s(fbtPath), "gzip-compressed.*gunzip");
    EXPECT_DEATH(TracePassReader in(fbtPath), "gzip-compressed.*gunzip");
    EXPECT_DEATH(TraceWriter w(textPath, TraceFormat::Text, true, "x"),
                 "cannot write gzip trace");
}

TEST_F(TraceStreamTest, TextTraceAboveTheCapIsFatalNamingConvert)
{
    {
        std::ofstream out(textPath, std::ios::binary);
        for (std::uint64_t i = 0; i < TraceStream::maxTextOps; ++i)
            out << "0 L 0\n";
    }
    EXPECT_EQ(TraceStream(textPath).ops(), TraceStream::maxTextOps);
    {
        std::ofstream out(textPath, std::ios::app | std::ios::binary);
        out << "0 S 40\n";
    }
    EXPECT_DEATH(TraceStream s(textPath),
                 "holds more than 1048576 ops.*fbdp-trace convert");
    // A pass reader streams it, so conversion still works.
    TracePassReader in(textPath);
    TraceOp op;
    std::uint64_t n = 0;
    while (in.next(&op))
        ++n;
    EXPECT_EQ(n, TraceStream::maxTextOps + 1);
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

} // namespace
} // namespace fbdp
