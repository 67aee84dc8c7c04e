/**
 * @file
 * Streaming trace frontend: bounded-memory, compressed, overlapped-
 * decode replay of recorded traces at production scale.
 *
 * The in-RAM replayer (workload/trace_file.hh) materialises the whole
 * trace as a std::vector<TraceOp>, which caps trace size at host
 * memory and ingests at text-parse speed while the simulator waits.
 * This frontend instead reads the file in bounded chunks (default
 * 64 KiB of raw input per chunk) and decodes the *next* chunk on a
 * background worker while the simulator consumes the current one, so
 * ingest overlaps simulation and the resident set is O(chunk) no
 * matter how large the trace is.  A single-view stream holds one raw
 * buffer plus at most three decoded chunks (the window's one or two
 * and the one decoding ahead), each sized to the ops it decoded
 * (about 80 KB at the default): about 0.3 MB per stream, so an
 * eight-stream 8-core replay peaks at the same ~14 MB of process RSS
 * as its synthetic twin.  Wrap-around replay reopens the
 * stream, exactly like the in-RAM replayer loops its vector; replay
 * through either frontend is bit-identical.
 *
 * Three file encodings are auto-detected by magic:
 *   - text   — the `<gap> <kind> <addr-hex>` line format of
 *              TraceRecorder, parsed by a hand-rolled chunked parser
 *              (several times faster than the sscanf loader);
 *   - .fbt   — "fbdp binary trace": a fixed-width little-endian
 *              record stream behind a small header (magic, version,
 *              op count, originating profile name);
 *   - gzip   — either of the above compressed; decompressed on the
 *              fly through zlib when the build found it, a clear
 *              fatal otherwise.
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
 * (the simulator's core shard; the functional warm-up loop).  The
 * only concurrency is the internal decode worker, and its hand-off
 * is a std::future.
 */

#ifndef FBDP_WORKLOAD_TRACE_STREAM_HH
#define FBDP_WORKLOAD_TRACE_STREAM_HH

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
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
 *   trace:/data/app.fbt.gz,stream=on,chunk=8m,format=auto
 *
 *   stream=on|off   streaming (default) vs legacy in-RAM replay
 *                   (1/true and 0/false also work)
 *   chunk=N[k|m]    raw chunk budget per read (default 64k; K and M
 *                   also work; below 64 bytes is raised to 64 with a
 *                   warning, 0 and above 1 GiB are fatal, as are
 *                   signs and trailing text)
 *   format=auto|text|fbt   override the by-magic detection
 *
 * PATH is the first item, verbatim.  Empty items are skipped, and a
 * repeated key's last value wins.
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
    bool stream = true;
    std::size_t chunkBytes = defaultChunkBytes;
    TraceFormat format = TraceFormat::Auto;

    /** Does @p bench name a trace workload ("trace:" prefix)? */
    static bool isTraceSpec(const std::string &bench);

    /** Parse a full spec (fatal on unknown keys / bad values). */
    static TraceSpec parse(const std::string &bench);

    /** The option-independent workload name: "trace:" + path.  Both
     *  replay modes report this as the profile name, so streamed and
     *  in-RAM runs of one file are byte-identical everywhere. */
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
 * unknown).  Write failures (disk full) are fatal with the path, at
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

// ---------------------------------------------------------------- //
// Chunked decoding                                                  //
// ---------------------------------------------------------------- //

/** One decoded chunk: the ops of ~chunkBytes of raw input. */
struct TraceChunk
{
    std::uint64_t seq = 0;      ///< position in the chunk sequence
    std::vector<TraceOp> ops;   ///< may be empty (comment-only block)
    bool lastOfPass = false;    ///< EOF hit; the stream rewound after
};

/**
 * The shared, endless chunk pipeline over one trace file.  Views
 * (StreamingTraceGenerator) pull consecutive chunks; the stream
 * decodes ahead on a one-thread worker and retires chunks that every
 * view has passed.  Not thread-safe across views by design (see the
 * file comment).
 */
class TraceStream
{
  public:
    /** Open @p spec.path; resolves Auto format by magic.  Fatal on
     *  missing files, bad magic/version, or (at first decode) an
     *  empty trace. */
    explicit TraceStream(const TraceSpec &spec,
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
    /** Chunks decoded so far (across passes). */
    std::uint64_t chunksDecoded() const { return nextSeq; }
    /** Completed passes over the file (wraps of the file cursor). */
    std::uint64_t passes() const { return nPasses; }

  private:
    std::shared_ptr<TraceChunk> decodeNext();
    std::shared_ptr<TraceChunk> produce();
    void startPass();
    void readFbtHeader(bool first);
    std::size_t fillRaw(char *dst, std::size_t n);
    void decodeRecord(const char *rec, TraceOp *out);

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
    std::uint64_t nextSeq = 0;
    std::uint64_t nPasses = 0;

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
 * Generator replaying the trace with wrap-around, bit-identical to
 * TraceFileGenerator over the same file.
 */
class StreamingTraceGenerator : public Generator
{
  public:
    /** View onto an existing (shared) stream. */
    explicit StreamingTraceGenerator(
        std::shared_ptr<TraceStream> stream, Addr base_addr = 0);

    /** Convenience: open a private stream for @p spec. */
    explicit StreamingTraceGenerator(const TraceSpec &spec,
                                     Addr base_addr = 0);

    TraceOp next() override;
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
