/**
 * @file
 * Trace replay: bounded-memory, compressed, overlapped-decode replay
 * of recorded traces, and the writer that records them.
 *
 * A TraceStream reads its file in bounded chunks (default 64 KiB of
 * raw input per chunk) and decodes the *next* chunk on a background
 * worker while the simulator consumes the current one, so ingest
 * overlaps simulation and the resident set is O(chunk) no matter how
 * large the trace is.  A single-view stream holds one raw buffer plus
 * at most three decoded chunks (the window's one or two and the one
 * decoding ahead), each sized to the ops it decoded (about 80 KB at
 * the default): about 0.3 MB per stream, so an eight-stream 8-core
 * replay peaks at the same ~14 MB of process RSS as its synthetic
 * twin.  Wrap-around replay rewinds the file and decodes it again.
 *
 * One case keeps the decoded trace instead: a file that says, before
 * any decoding, that it holds fewer ops than one view draws in the
 * functional warm-up is certain to wrap during warm-up, so its first
 * pass is kept and every later pass is served from memory.  The op
 * count comes from the .fbt header, or for plain text from the file
 * size (the shortest op line, "0 L 0\n", is 6 bytes).  Gzipped text
 * and .fbt files with a zero op count are of unknown size and
 * stream.  Both ways replay the same ops.
 *
 * Three file encodings are auto-detected by magic:
 *   - text   — one op per line, parsed strictly by a hand-rolled
 *              chunked parser (grammar below);
 *   - .fbt   — "fbdp binary trace": a fixed-width little-endian
 *              record stream behind a small header (magic, version,
 *              op count, originating profile name);
 *   - gzip   — either of the above compressed; decompressed on the
 *              fly through zlib when the build found it, a clear
 *              fatal otherwise.
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
 * Anything else is fatal, naming the file and line.  A .fbt record
 * of an unknown kind, a record stream that does not end on a record
 * boundary, and a nonzero header op count that disagrees with the
 * records are fatal too (a record past the count as soon as it is
 * read), as is a trace with no ops.
 *
 * Multi-core slicing shares one TraceStream per file: every core's
 * StreamingTraceGenerator view has its own logical cursor (and base
 * address offset), but all views pull from a single underlying file
 * cursor and a shared window of decoded chunks, so an N-core replay
 * costs one decode pipeline — not N copies of the buffer.  Chunks
 * retire from the window once every view has consumed them; views
 * that drift apart widen the window (worst case one trace pass, in
 * practice a chunk or two since cores progress at similar rates).
 *
 * Thread model: all views of a stream must be driven from one thread
 * (the thread that runs the System).  The only concurrency is the
 * internal decode worker, and its hand-off is a std::future.
 */

#ifndef FBDP_WORKLOAD_TRACE_STREAM_HH
#define FBDP_WORKLOAD_TRACE_STREAM_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "workload/generator.hh"

namespace fbdp {

/** File encoding of a trace (gzip is orthogonal: either may be
 *  compressed, detected separately by the gzip magic). */
enum class TraceFormat { Auto, Text, Fbt };

/** @return "text" / "fbt" / "auto". */
const char *traceFormatName(TraceFormat f);

/** True when this build can read and write gzip traces (zlib). */
bool zlibAvailable();

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
    std::uint64_t opCount = 0;  ///< 0 = unknown (unseekable writer)
    std::string profileName;
};

// ---------------------------------------------------------------- //
// Workload-spec parsing: "trace:PATH[,key=value]..."                //
// ---------------------------------------------------------------- //

/**
 * A parsed `trace:` workload spec.  The benchmark-name slot of
 * SystemConfig::benchmarks accepts `trace:PATH` plus options:
 *
 *   trace:/data/app.fbt.gz,chunk=8m
 *
 *   chunk=N[k|m]    raw chunk budget per read (default 64k; K and M
 *                   also work; below 64 bytes is raised to 64 with a
 *                   warning, 0 and above 1 GiB are fatal, as are
 *                   signs and trailing text)
 *
 * PATH is the first item, verbatim.  Empty items are skipped, and a
 * repeated key's last value wins.  The format is the file's own: the
 * .fbt magic, else text.
 *
 * The default is the smallest budget that ingests and replays no
 * slower than larger ones (EXPERIMENTS.md, "Chunk budget").
 */
struct TraceSpec
{
    static constexpr std::size_t defaultChunkBytes = 64u << 10;
    static constexpr std::size_t minChunkBytes = 64;
    static constexpr std::size_t maxChunkBytes = std::size_t{1} << 30;

    std::string path;
    std::size_t chunkBytes = defaultChunkBytes;

    /** Does @p bench name a trace workload ("trace:" prefix)? */
    static bool isTraceSpec(const std::string &bench);

    /** Parse a full spec (fatal on unknown keys / bad values). */
    static TraceSpec parse(const std::string &bench);

    /** The option-independent workload name: "trace:" + path, the
     *  profile name of every replay of the file whatever its chunk
     *  budget. */
    std::string canonicalName() const { return "trace:" + path; }
};

// ---------------------------------------------------------------- //
// Raw byte I/O                                                      //
// ---------------------------------------------------------------- //

/**
 * Sequential raw-byte reader with rewind.  read() returns fewer than
 * @p n bytes only at end of stream (I/O errors are fatal inside), so
 * a short read *is* the end-of-pass signal.
 */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;
    virtual std::size_t read(char *dst, std::size_t n) = 0;
    virtual void rewind() = 0;
    /** Bytes in the stream, when known before reading it: a regular
     *  uncompressed file's size; nullopt for gzip and pipes. */
    virtual std::optional<std::uint64_t> size() const
    {
        return std::nullopt;
    }
    const std::string &path() const { return p; }

  protected:
    explicit ByteSource(std::string path_) : p(std::move(path_)) {}
    std::string p;
};

/**
 * Open @p path, sniffing the gzip magic: compressed files come back
 * wrapped in a zlib-backed source (fatal when zlib is unavailable),
 * plain files in a buffered stdio source.  Fatal if unreadable.
 */
std::unique_ptr<ByteSource> openByteSource(const std::string &path);

/**
 * Sequential trace writer: text or .fbt, optionally gzipped.  The
 * .fbt op count is patched into the header on close() when the sink
 * is seekable (plain files); gzip sinks keep @p op_count_hint (0 =
 * unknown), which must then be exact.  Write failures (disk full) are fatal with the path, at
 * the failing append or on close at the latest.
 */
class TraceWriter
{
  public:
    TraceWriter(const std::string &path, TraceFormat format,
                bool gzip, const std::string &profile_name,
                std::uint64_t op_count_hint = 0);
    ~TraceWriter();  ///< closes (and so checks) if still open

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const TraceOp &op);
    void close();

    std::uint64_t written() const { return nWritten; }

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
    std::uint64_t nWritten = 0;
};

/** One op as a text-trace line (`GAP KIND ADDR`, no newline). */
std::string formatTraceOp(const TraceOp &op);

// ---------------------------------------------------------------- //
// Chunked decoding                                                  //
// ---------------------------------------------------------------- //

/** One decoded chunk: the ops of ~chunkBytes of raw input. */
struct TraceChunk
{
    std::uint64_t seq = 0;      ///< position in the decode sequence
    std::vector<TraceOp> ops;   ///< may be empty (comment-only block)
    bool lastOfPass = false;    ///< EOF hit; the stream rewound after
};

/**
 * The shared, endless chunk pipeline over one trace file.  Views
 * (StreamingTraceGenerator) pull consecutive chunks; the stream
 * decodes ahead on a one-thread worker and retires chunks that every
 * view has passed, or keeps a short trace's one pass (see the file
 * comment).  Not thread-safe across views by design.
 */
class TraceStream
{
  public:
    /**
     * Open @p spec.path; the format is .fbt by magic, else text.
     * Fatal on missing files, a bad version, or (at first decode)
     * an empty trace.
     * @param warmup_ops ops each view draws in the functional
     *        warm-up; a file known to hold fewer is kept (0: never)
     * @param background decode ahead on a worker thread
     */
    explicit TraceStream(const TraceSpec &spec,
                         std::uint64_t warmup_ops = 0,
                         bool background = true);
    ~TraceStream();

    TraceStream(const TraceStream &) = delete;
    TraceStream &operator=(const TraceStream &) = delete;

    /** Register a view; returns its id.  Register every view before
     *  the first chunkFor() call. */
    unsigned addView();

    /**
     * The chunk at position @p seq for view @p view.  Views advance
     * one chunk at a time (seq == previous + 1, starting at 0);
     * fetching decodes ahead as needed and retires chunks all views
     * have passed.
     */
    std::shared_ptr<const TraceChunk> chunkFor(unsigned view,
                                               std::uint64_t seq);

    const FbtHeader &header() const { return hdr; }
    TraceFormat format() const { return fmt; }
    const std::string &path() const { return spec.path; }
    std::size_t chunkBytes() const { return spec.chunkBytes; }

    /** Peak simultaneous decoded chunks (memory-bound telemetry;
     *  1-2 for a single view, grows only when views drift apart). */
    std::size_t windowPeakChunks() const { return windowPeak; }
    /** Chunks decoded so far (across passes; may include one the
     *  worker is decoding ahead). */
    std::uint64_t chunksDecoded() const
    {
        return nextSeq.load(std::memory_order_relaxed);
    }
    /** Completed passes over the file (wraps of the file cursor;
     *  may include one the worker has begun ahead). */
    std::uint64_t passes() const
    {
        return nPasses.load(std::memory_order_relaxed);
    }
    /** Is the first pass kept and replayed from memory? */
    bool keeps() const { return keep; }

  private:
    std::shared_ptr<TraceChunk> decodeNext();
    std::shared_ptr<TraceChunk> produce();
    void startPass();
    void readFbtHeader(bool first);
    std::size_t fillRaw(char *dst, std::size_t n);
    [[noreturn]] void badRecordKind(const char *rec,
                                    std::uint64_t rec_no) const;
    [[noreturn]] void pastHeaderCount(std::uint64_t rec_no) const;

    TraceSpec spec;
    TraceFormat fmt = TraceFormat::Text;
    FbtHeader hdr;
    std::unique_ptr<ByteSource> src;
    std::string preload;         ///< sniffed bytes not yet consumed

    // Decoder state (touched only by whoever runs decodeNext():
    // strictly alternating caller / worker, synchronized by the
    // pending future).
    std::vector<char> rawBuf;
    std::string textCarry;       ///< partial line across reads
    char recCarry[fbtRecordBytes];
    std::size_t recCarryLen = 0; ///< partial record across reads
    std::uint64_t lineNo = 0;    ///< text line counter (this pass)
    std::uint64_t passOps = 0;   ///< ops decoded this pass
    // Counters the getters read from the driving thread while the
    // worker may be writing them (the future orders everything else).
    std::atomic<std::uint64_t> nextSeq{0};
    std::atomic<std::uint64_t> nPasses{0};
    bool keep = false;
    std::size_t keptChunks = 0;  ///< chunks in the kept pass, once whole

    // Overlapped decode.
    std::unique_ptr<ThreadPool> worker;
    std::future<std::shared_ptr<TraceChunk>> pending;

    // Shared chunk window.
    std::deque<std::shared_ptr<TraceChunk>> window;
    std::uint64_t firstSeq = 0;
    std::size_t windowPeak = 0;
    std::vector<std::uint64_t> viewSeq;
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

    /** Convenience: open a private, never-kept stream for @p spec. */
    explicit StreamingTraceGenerator(const TraceSpec &spec,
                                     Addr base_addr = 0);

    TraceOp next() override;
    /** next() over @p n ops, a chunk's span at a time. */
    void nextWarmBlock(TraceOp *out, std::size_t n) override;
    const BenchProfile &profile() const override { return prof; }

    std::uint64_t wraps() const { return nWraps; }
    std::uint64_t consumed() const { return nOps; }
    /** The chunk the next op comes from (null before the first
     *  next()). */
    const TraceChunk *currentChunk() const { return chunk.get(); }
    TraceStream &stream() { return *str; }
    const TraceStream &stream() const { return *str; }

  private:
    void advanceChunk();

    std::shared_ptr<TraceStream> str;
    std::shared_ptr<const TraceChunk> chunk;
    std::size_t idx = 0;
    std::uint64_t seq = 0;
    unsigned viewId;
    BenchProfile prof;
    Addr base;
    std::uint64_t nWraps = 0;
    std::uint64_t nOps = 0;
};

/**
 * Single-pass reader for tools and loaders: yields every op of the
 * first pass, then reports end instead of wrapping.  Drives the
 * chunk window directly so exhausting the pass never touches (or
 * decodes) the start of a second one.
 */
class TracePassReader
{
  public:
    explicit TracePassReader(const TraceSpec &spec,
                             bool background = false);

    /** @return false once the pass is exhausted. */
    bool next(TraceOp *out);

    const FbtHeader &header() const { return str->header(); }
    TraceFormat format() const { return str->format(); }

  private:
    std::shared_ptr<TraceStream> str;
    std::shared_ptr<const TraceChunk> chunk;
    std::size_t idx = 0;
    std::uint64_t seq = 0;
    unsigned viewId;
    bool done = false;
};

} // namespace fbdp

#endif // FBDP_WORKLOAD_TRACE_STREAM_HH
