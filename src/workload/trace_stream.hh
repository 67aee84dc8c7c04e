/**
 * @file
 * Trace replay: recorded traces read back as endless Generators, and
 * the writer that records them.
 *
 * Two file encodings, told apart by magic:
 *   - .fbt — "fbdp binary trace": fixed-width little-endian records
 *            behind a small header (magic, version, op count,
 *            originating profile name).  Replay reads the records in
 *            place from one read-only mapping of the file.
 *   - text — one op per line, parsed strictly (grammar below).
 *            Replay loads the whole trace into memory, so a text
 *            trace may hold at most TraceStream::maxTextOps ops;
 *            `fbdp-trace convert` turns a longer one into .fbt.
 * A gzip-compressed file is fatal: decompress it first (gunzip).
 *
 * Text grammar, one line at a time ('\n' ends a line; the last line
 * may lack it, and one '\r' before it is dropped):
 *   - a line of only spaces and tabs is blank and skipped;
 *   - a line whose first non-blank byte is '#' is a comment;
 *   - any other line is `GAP KIND ADDR`, fields separated by one or
 *     more spaces or tabs, with optional blanks before and after:
 *     GAP is decimal digits worth at most 2^32-1, KIND one of L
 *     (load), S (store) or P (software prefetch), ADDR one to 16 hex
 *     digits after an optional 0x or 0X.
 * Anything else is fatal, naming the file and line, as is a trace
 * with no ops.  An .fbt file is checked when it is opened: a record
 * area that does not end on a record boundary, and a nonzero header
 * op count that disagrees with the records, are fatal.  A record of
 * an unknown kind is fatal when it is read.
 *
 * Cores replaying one file share one TraceStream: every core's
 * StreamingTraceGenerator view has its own cursor (and base address
 * offset) into the same records, so an N-core replay costs one copy
 * of the trace.  Mapped pages every view has passed are released in
 * steps of dropStepBytes, so a replay's resident set stays near one
 * step per file however long the trace is.
 *
 * Thread model: all views of a stream must be driven from one thread
 * (the thread that runs the System).
 */

#ifndef FBDP_WORKLOAD_TRACE_STREAM_HH
#define FBDP_WORKLOAD_TRACE_STREAM_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "workload/generator.hh"

namespace fbdp {

/** File encoding of a trace. */
enum class TraceFormat { Auto, Text, Fbt };

/** @return "text" / "fbt" / "auto". */
const char *traceFormatName(TraceFormat f);

// ---------------------------------------------------------------- //
// The .fbt binary format                                            //
// ---------------------------------------------------------------- //

/** Leading magic of a .fbt file (detects the format; bumping the
 *  trailing digit is the compatibility break). */
constexpr unsigned char fbtMagic[4] = {'F', 'B', 'T', '1'};

/** Current header version. */
constexpr std::uint32_t fbtVersion = 1;

/** Fixed bytes per record: gap u32le, kind u8 (0=L 1=S 2=P),
 *  addr u64le. */
constexpr std::size_t fbtRecordBytes = 13;

/** Fixed header prefix: magic, version u32le, op-count u64le,
 *  profile-name length u32le (name bytes follow). */
constexpr std::size_t fbtHeaderFixedBytes = 4 + 4 + 8 + 4;

/** Decoded .fbt header (text traces report an empty one). */
struct FbtHeader
{
    std::uint64_t opCount = 0;  ///< 0 = not recorded
    std::string profileName;
};

/** Mapped bytes a reader passes before they are released. */
constexpr std::size_t dropStepBytes = 256u << 10;

// ---------------------------------------------------------------- //
// Workload-spec parsing: "trace:PATH"                               //
// ---------------------------------------------------------------- //

/**
 * A parsed `trace:` workload spec.  The benchmark-name slot of
 * SystemConfig::benchmarks accepts `trace:PATH`.  PATH is the first
 * comma-separated item, verbatim; empty items after it are skipped,
 * and any other item is fatal (a trace spec takes no options).  The
 * format is the file's own: the .fbt magic, else text.
 */
struct TraceSpec
{
    std::string path;

    /** Does @p bench name a trace workload ("trace:" prefix)? */
    static bool isTraceSpec(const std::string &bench);

    /** Parse a full spec (fatal on a missing path or any option). */
    static TraceSpec parse(const std::string &bench);

    /** The workload name: "trace:" + path. */
    std::string canonicalName() const { return "trace:" + path; }
};

// ---------------------------------------------------------------- //
// Writing                                                           //
// ---------------------------------------------------------------- //

/**
 * Sequential trace writer: text or .fbt.  The .fbt op count is
 * patched into the header on close().  Write failures (disk full) are
 * fatal with the path, at the failing append or on close at the
 * latest.
 */
class TraceWriter
{
  public:
    /** @p gzip must be false: compressed traces are not written. */
    TraceWriter(const std::string &path, TraceFormat format,
                bool gzip, const std::string &profile_name);
    ~TraceWriter();  ///< closes (and so checks) if still open

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const TraceOp &op);
    void close();

    std::uint64_t written() const { return nWritten; }

  private:
    std::string path;
    TraceFormat fmt;
    std::FILE *f = nullptr;
    std::uint64_t nWritten = 0;

    void write(const char *d, std::size_t n);
};

/** One op as a text-trace line (`GAP KIND ADDR`, no newline). */
std::string formatTraceOp(const TraceOp &op);

// ---------------------------------------------------------------- //
// Reading                                                           //
// ---------------------------------------------------------------- //

/**
 * One trace file, mapped read-only and sniffed: the header and record
 * area of an .fbt file are checked here, a gzip file is refused, and
 * anything else is text whose first op must parse.  Fatal if the file
 * cannot be opened or mapped.
 */
class TraceFile
{
  public:
    explicit TraceFile(const std::string &path);
    ~TraceFile();

    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;

    const std::string &path() const { return p; }
    TraceFormat format() const { return fmt; }
    const FbtHeader &header() const { return hdr; }

    /** .fbt: the records in the file. */
    std::uint64_t records() const { return nRecs; }
    /** .fbt: record @p i (< records()); fatal on an unknown kind. */
    TraceOp record(std::uint64_t i) const;
    /** .fbt: file offset of record @p i (<= records()). */
    std::size_t
    recordOffset(std::uint64_t i) const
    {
        return body + static_cast<std::size_t>(i) * fbtRecordBytes;
    }

    /**
     * Text: the first op at or after byte @p *at into @p out, leaving
     * @p *at after its line and @p *line_no at its line number.
     * @return false at the end of the file.
     */
    bool nextLine(std::size_t *at, std::uint64_t *line_no,
                  TraceOp *out) const;

    std::size_t bytes() const { return len; }

    /** Release the mapped pages wholly inside [@p from, @p to)
     *  (@p to == bytes() includes the last page); they read back
     *  from the file if touched again. */
    void drop(std::size_t from, std::size_t to) const;
    /** For a reader that only moves forward: drop what lies before
     *  byte @p at once it adds up to dropStepBytes. */
    void dropBefore(std::size_t at);

    /** Unmap the file (the accessors above stay valid). */
    void close();

  private:
    [[noreturn, gnu::cold]] void badRecord(std::uint64_t i) const;

    std::string p;
    TraceFormat fmt = TraceFormat::Text;
    FbtHeader hdr;
    const char *base = nullptr;  ///< the mapping; null when empty
    std::size_t len = 0;
    std::size_t body = 0;        ///< offset of the first record
    std::uint64_t nRecs = 0;
    std::size_t dropped = 0;     ///< dropBefore()'s frontier
};

/**
 * The ops of one trace file, shared by every core replaying it.  An
 * .fbt trace is read in place from its mapping; a text trace is
 * loaded whole (fatal above maxTextOps ops).  Views
 * (StreamingTraceGenerator) register, read op(i) at their own
 * cursors, and report their progress, which releases the mapped
 * pages behind the slowest view.
 */
class TraceStream
{
  public:
    /** Most ops a text trace may hold for replay. */
    static constexpr std::uint64_t maxTextOps = std::uint64_t{1} << 20;
    /** .fbt records in one step of dropStepBytes. */
    static constexpr std::uint64_t dropStepOps =
        dropStepBytes / fbtRecordBytes;

    explicit TraceStream(const std::string &path);

    /** Register a view; returns its id. */
    unsigned addView();

    /** Ops in one pass over the trace. */
    std::uint64_t ops() const { return nOps; }
    /** Op @p i (< ops()) of the pass. */
    TraceOp op(std::uint64_t i) const;

    /** View @p view has consumed @p consumed ops in all: pages every
     *  view has passed may go. */
    void advanced(unsigned view, std::uint64_t consumed);

    const std::string &path() const { return file.path(); }

  private:
    TraceFile file;
    std::vector<TraceOp> textOps;  ///< a text trace, loaded whole
    std::uint64_t nOps = 0;
    std::vector<std::uint64_t> viewOps;  ///< ops each view consumed
    std::uint64_t droppedOps = 0;  ///< ops behind the drop frontier
};

/**
 * One core's view of a (possibly shared) TraceStream: an endless
 * Generator replaying the trace with wrap-around.
 */
class StreamingTraceGenerator : public Generator
{
  public:
    /** View onto an existing (shared) stream. */
    explicit StreamingTraceGenerator(
        std::shared_ptr<TraceStream> stream, Addr base_addr = 0);

    /** Convenience: open a private stream over @p path. */
    explicit StreamingTraceGenerator(const std::string &path,
                                     Addr base_addr = 0);

    TraceOp next() override;
    void nextWarmBlock(TraceOp *out, std::size_t n) override;
    const BenchProfile &profile() const override { return prof; }

    std::uint64_t wraps() const { return nWraps; }
    std::uint64_t consumed() const { return nOps; }

  private:
    void report();

    std::shared_ptr<TraceStream> str;
    std::uint64_t pos = 0;  ///< next op of the pass
    unsigned viewId;
    BenchProfile prof;
    Addr base;
    std::uint64_t nWraps = 0;
    std::uint64_t nOps = 0;
    std::uint64_t nextReport = TraceStream::dropStepOps;
};

/**
 * Single-pass reader for tools and loaders: yields every op of the
 * file once, then reports end.  Streams text line by line and .fbt
 * record by record, releasing what it has passed, so it reads a
 * trace of any size.
 */
class TracePassReader
{
  public:
    explicit TracePassReader(const std::string &path);

    /** @return false once the pass is exhausted. */
    bool next(TraceOp *out);

    const FbtHeader &header() const { return file.header(); }
    TraceFormat format() const { return file.format(); }

  private:
    TraceFile file;
    std::uint64_t rec = 0;   ///< .fbt: the next record
    std::size_t at = 0;      ///< text: byte after the last line read
    std::uint64_t lineNo = 0;
};

} // namespace fbdp

#endif // FBDP_WORKLOAD_TRACE_STREAM_HH
