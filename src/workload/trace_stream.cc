#include "workload/trace_stream.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "workload/trace_file.hh"

#ifdef FBDP_HAVE_ZLIB
#include <zlib.h>
#endif

namespace fbdp {

const char *
traceFormatName(TraceFormat f)
{
    switch (f) {
      case TraceFormat::Text:
        return "text";
      case TraceFormat::Fbt:
        return "fbt";
      default:
        return "auto";
    }
}

bool
zlibAvailable()
{
#ifdef FBDP_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

// ---------------------------------------------------------------- //
// TraceSpec                                                         //
// ---------------------------------------------------------------- //

namespace {

constexpr const char *traceSpecPrefix = "trace:";

/**
 * Parse a `chunk=` value: decimal digits and an optional k or m
 * suffix, nothing else.  Signs, trailing text and sizes above
 * TraceSpec::maxChunkBytes are fatal (checked before every multiply
 * and shift, so no value wraps); sizes below minChunkBytes are raised
 * to it with a warning.
 */
std::size_t
parseChunkSize(const std::string &val, const std::string &spec)
{
    auto tooLarge = [&] {
        fatal("chunk size '%s' in trace spec '%s' exceeds the 1 GiB "
              "maximum", val.c_str(), spec.c_str());
    };
    std::size_t i = 0;
    std::uint64_t n = 0;
    for (; i < val.size() && val[i] >= '0' && val[i] <= '9'; ++i) {
        n = n * 10 + static_cast<std::uint64_t>(val[i] - '0');
        if (n > TraceSpec::maxChunkBytes)
            tooLarge();
    }
    const bool last = i + 1 == val.size();
    const bool kilo = last && (val[i] == 'k' || val[i] == 'K');
    const bool mega = last && (val[i] == 'm' || val[i] == 'M');
    if (i == 0 || n == 0 || !(i == val.size() || kilo || mega))
        fatal("bad chunk size '%s' in trace spec '%s' (use a positive "
              "N, Nk or Nm)", val.c_str(), spec.c_str());
    const unsigned shift = kilo ? 10 : mega ? 20 : 0;
    if (n > TraceSpec::maxChunkBytes >> shift)
        tooLarge();
    n <<= shift;
    if (n < TraceSpec::minChunkBytes) {
        warn("trace chunk size %llu below minimum; using %zu bytes",
             static_cast<unsigned long long>(n),
             TraceSpec::minChunkBytes);
        n = TraceSpec::minChunkBytes;
    }
    return static_cast<std::size_t>(n);
}

bool
parseOnOff(const std::string &val, const std::string &key,
           const std::string &spec)
{
    if (val == "on" || val == "1" || val == "true")
        return true;
    if (val == "off" || val == "0" || val == "false")
        return false;
    fatal("bad value '%s' for %s= in trace spec '%s' (use on/off)",
          val.c_str(), key.c_str(), spec.c_str());
    return false; // unreached
}

} // namespace

bool
TraceSpec::isTraceSpec(const std::string &bench)
{
    return bench.rfind(traceSpecPrefix, 0) == 0;
}

TraceSpec
TraceSpec::parse(const std::string &bench)
{
    fbdp_assert(isTraceSpec(bench), "'%s' is not a trace spec",
                bench.c_str());
    TraceSpec spec;
    std::string body = bench.substr(std::strlen(traceSpecPrefix));
    std::size_t pos = 0;
    bool first = true;
    while (pos <= body.size()) {
        std::size_t comma = body.find(',', pos);
        if (comma == std::string::npos)
            comma = body.size();
        std::string part = body.substr(pos, comma - pos);
        pos = comma + 1;
        if (first) {
            first = false;
            if (part.empty())
                fatal("trace spec '%s' is missing a path",
                      bench.c_str());
            spec.path = part;
            continue;
        }
        if (part.empty())
            continue;
        std::size_t eq = part.find('=');
        std::string key = part.substr(0, eq);
        std::string val =
            eq == std::string::npos ? "" : part.substr(eq + 1);
        if (key == "stream") {
            spec.stream = parseOnOff(val, key, bench);
        } else if (key == "chunk") {
            spec.chunkBytes = parseChunkSize(val, bench);
        } else if (key == "format") {
            if (val == "auto")
                spec.format = TraceFormat::Auto;
            else if (val == "text")
                spec.format = TraceFormat::Text;
            else if (val == "fbt")
                spec.format = TraceFormat::Fbt;
            else
                fatal("bad value '%s' for format= in trace spec '%s' "
                      "(use auto/text/fbt)", val.c_str(),
                      bench.c_str());
        } else {
            fatal("unknown trace spec option '%s' in '%s' (valid: "
                  "stream=, chunk=, format=)", key.c_str(),
                  bench.c_str());
        }
    }
    return spec;
}

// ---------------------------------------------------------------- //
// Byte sources                                                      //
// ---------------------------------------------------------------- //

namespace {

/** Plain (uncompressed) file, buffered stdio. */
class FileByteSource : public ByteSource
{
  public:
    FileByteSource(std::string path_, std::FILE *f_)
        : ByteSource(std::move(path_)), f(f_)
    {
    }

    ~FileByteSource() override
    {
        if (f)
            std::fclose(f);
    }

    std::size_t
    read(char *dst, std::size_t n) override
    {
        std::size_t got = std::fread(dst, 1, n, f);
        if (got < n && std::ferror(f))
            fatal("read from trace file '%s' failed", p.c_str());
        return got;
    }

    void
    rewind() override
    {
        if (std::fseek(f, 0, SEEK_SET) != 0)
            fatal("cannot rewind trace file '%s'", p.c_str());
    }

  private:
    std::FILE *f;
};

#ifdef FBDP_HAVE_ZLIB
/** Gzip-compressed file, decompressed on the fly through zlib. */
class GzByteSource : public ByteSource
{
  public:
    explicit GzByteSource(std::string path_)
        : ByteSource(std::move(path_))
    {
        zf = gzopen(p.c_str(), "rb");
        if (!zf)
            fatal("cannot open trace file '%s'", p.c_str());
        // A sensible internal buffer makes chunked reads cheap.
        gzbuffer(zf, 256 << 10);
    }

    ~GzByteSource() override
    {
        if (zf)
            gzclose(zf);
    }

    std::size_t
    read(char *dst, std::size_t n) override
    {
        std::size_t got = 0;
        while (got < n) {
            // gzread takes an unsigned length; loop for huge chunks.
            unsigned want = static_cast<unsigned>(
                std::min<std::size_t>(n - got, 1u << 30));
            int r = gzread(zf, dst + got, want);
            if (r < 0) {
                int errnum = Z_OK;
                const char *msg = gzerror(zf, &errnum);
                fatal("gzip read from trace file '%s' failed: %s",
                      p.c_str(),
                      msg && *msg ? msg : "corrupt stream");
            }
            got += static_cast<std::size_t>(r);
            if (r == 0)
                break; // clean end of stream
        }
        return got;
    }

    void
    rewind() override
    {
        if (gzrewind(zf) != 0)
            fatal("cannot rewind trace file '%s'", p.c_str());
    }

  private:
    gzFile zf = nullptr;
};
#endif // FBDP_HAVE_ZLIB

} // namespace

std::unique_ptr<ByteSource>
openByteSource(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open trace file '%s'", path.c_str());
    int c1 = std::getc(f);
    int c2 = std::getc(f);
    bool gz = c1 == 0x1f && c2 == 0x8b;
    if (gz) {
        std::fclose(f);
#ifdef FBDP_HAVE_ZLIB
        return std::make_unique<GzByteSource>(path);
#else
        fatal("trace file '%s' is gzip-compressed but this build has "
              "no zlib; decompress it first (gunzip) or rebuild with "
              "zlib available", path.c_str());
#endif
    }
    if (std::fseek(f, 0, SEEK_SET) != 0)
        fatal("cannot rewind trace file '%s'", path.c_str());
    return std::make_unique<FileByteSource>(path, f);
}

// ---------------------------------------------------------------- //
// Little-endian helpers                                             //
// ---------------------------------------------------------------- //

namespace {

void
putLE32(char *dst, std::uint32_t v)
{
    dst[0] = static_cast<char>(v & 0xff);
    dst[1] = static_cast<char>((v >> 8) & 0xff);
    dst[2] = static_cast<char>((v >> 16) & 0xff);
    dst[3] = static_cast<char>((v >> 24) & 0xff);
}

void
putLE64(char *dst, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        dst[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t
getLE32(const char *src)
{
    const unsigned char *u =
        reinterpret_cast<const unsigned char *>(src);
    return static_cast<std::uint32_t>(u[0])
        | static_cast<std::uint32_t>(u[1]) << 8
        | static_cast<std::uint32_t>(u[2]) << 16
        | static_cast<std::uint32_t>(u[3]) << 24;
}

std::uint64_t
getLE64(const char *src)
{
    const unsigned char *u =
        reinterpret_cast<const unsigned char *>(src);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(u[i]) << (8 * i);
    return v;
}

char
kindByte(TraceOp::Kind k)
{
    if (k == TraceOp::Kind::Store)
        return 1;
    if (k == TraceOp::Kind::Prefetch)
        return 2;
    return 0;
}

void
encodeRecord(char *dst, const TraceOp &op)
{
    putLE32(dst, op.gap);
    dst[4] = kindByte(op.kind);
    putLE64(dst + 5, static_cast<std::uint64_t>(op.addr));
}

} // namespace

// ---------------------------------------------------------------- //
// TraceWriter                                                       //
// ---------------------------------------------------------------- //

struct TraceWriter::Impl
{
    std::string path;
    TraceFormat fmt;
    bool gz;
    std::uint64_t hinted;
    std::FILE *f = nullptr;
#ifdef FBDP_HAVE_ZLIB
    gzFile zf = nullptr;
#endif

    void
    write(const char *d, std::size_t n)
    {
#ifdef FBDP_HAVE_ZLIB
        if (gz) {
            if (n && gzwrite(zf, d, static_cast<unsigned>(n)) !=
                         static_cast<int>(n))
                fatal("write to trace file '%s' failed (disk full?)",
                      path.c_str());
            return;
        }
#endif
        if (n && std::fwrite(d, 1, n, f) != n)
            fatal("write to trace file '%s' failed (disk full?)",
                  path.c_str());
    }
};

TraceWriter::TraceWriter(const std::string &path, TraceFormat format,
                         bool gzip, const std::string &profile_name,
                         std::uint64_t op_count_hint)
    : impl(std::make_unique<Impl>())
{
    fbdp_assert(format != TraceFormat::Auto,
                "TraceWriter needs a concrete format");
    impl->path = path;
    impl->fmt = format;
    impl->gz = gzip;
    impl->hinted = op_count_hint;
    if (gzip) {
#ifdef FBDP_HAVE_ZLIB
        impl->zf = gzopen(path.c_str(), "wb6");
        if (!impl->zf)
            fatal("cannot open trace file '%s' for writing",
                  path.c_str());
#else
        fatal("cannot write gzip trace '%s': this build has no zlib",
              path.c_str());
#endif
    } else {
        impl->f = std::fopen(path.c_str(), "wb");
        if (!impl->f)
            fatal("cannot open trace file '%s' for writing",
                  path.c_str());
    }
    if (format == TraceFormat::Fbt) {
        char hdr[fbtHeaderFixedBytes];
        std::memcpy(hdr, fbtMagic, 4);
        putLE32(hdr + 4, fbtVersion);
        putLE64(hdr + 8, op_count_hint);
        putLE32(hdr + 16,
                static_cast<std::uint32_t>(profile_name.size()));
        impl->write(hdr, sizeof(hdr));
        impl->write(profile_name.data(), profile_name.size());
    } else {
        std::string banner = "# fbdp trace: " + profile_name + "\n";
        impl->write(banner.data(), banner.size());
    }
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const TraceOp &op)
{
    fbdp_assert(impl->f
#ifdef FBDP_HAVE_ZLIB
                    || impl->zf
#endif
                , "append to a closed TraceWriter");
    if (impl->fmt == TraceFormat::Fbt) {
        char rec[fbtRecordBytes];
        encodeRecord(rec, op);
        impl->write(rec, sizeof(rec));
    } else {
        std::string line = formatTraceOp(op) + "\n";
        impl->write(line.data(), line.size());
    }
    ++nWritten;
}

void
TraceWriter::close()
{
#ifdef FBDP_HAVE_ZLIB
    if (impl->zf) {
        if (gzclose(impl->zf) != Z_OK)
            fatal("write to trace file '%s' failed (disk full?)",
                  impl->path.c_str());
        impl->zf = nullptr;
        return;
    }
#endif
    if (!impl->f)
        return;
    // Seekable sink: patch the real op count into the header so
    // readers can pre-size their buffers.
    if (impl->fmt == TraceFormat::Fbt && nWritten != impl->hinted) {
        char cnt[8];
        putLE64(cnt, nWritten);
        if (std::fseek(impl->f, 8, SEEK_SET) != 0
            || std::fwrite(cnt, 1, 8, impl->f) != 8)
            fatal("cannot patch op count into trace file '%s'",
                  impl->path.c_str());
    }
    int flush_err = std::fflush(impl->f);
    int close_err = std::fclose(impl->f);
    impl->f = nullptr;
    if (flush_err != 0 || close_err != 0)
        fatal("write to trace file '%s' failed (disk full?)",
              impl->path.c_str());
}

// ---------------------------------------------------------------- //
// TraceStream                                                       //
// ---------------------------------------------------------------- //

namespace {

[[noreturn]] void
failTextLine(const std::string &path, std::uint64_t line_no,
             const char *s, std::size_t n)
{
    std::string line(s, std::min<std::size_t>(n, 128));
    fatal("malformed trace line %llu in '%s': '%s'",
          static_cast<unsigned long long>(line_no), path.c_str(),
          line.c_str());
}

/**
 * The fast text-line parser: `<gap> <kind> <addr-hex>`, '#' comments,
 * blank / whitespace-only lines (and CRLF tails) skipped.  Anything
 * after the address is ignored, matching the sscanf loader it
 * replaces.  @return false when the line held no op.
 */
bool
parseTextLine(const char *s, std::size_t n, const std::string &path,
              std::uint64_t line_no, TraceOp *out)
{
    const char *q = s;
    const char *e = s + n;
    while (q < e && (*q == ' ' || *q == '\t' || *q == '\r'))
        ++q;
    if (q == e || *q == '#')
        return false;

    // Decimal gap.
    std::uint64_t gap = 0;
    bool any = false;
    while (q < e && *q >= '0' && *q <= '9') {
        gap = gap * 10 + static_cast<std::uint64_t>(*q - '0');
        any = true;
        ++q;
    }
    if (!any)
        failTextLine(path, line_no, s, n);
    while (q < e && (*q == ' ' || *q == '\t'))
        ++q;

    // Kind letter.
    if (q == e)
        failTextLine(path, line_no, s, n);
    char kind = *q++;
    switch (kind) {
      case 'L':
        out->kind = TraceOp::Kind::Load;
        break;
      case 'S':
        out->kind = TraceOp::Kind::Store;
        break;
      case 'P':
        out->kind = TraceOp::Kind::Prefetch;
        break;
      default:
        fatal("unknown trace op kind '%c' on line %llu in '%s'", kind,
              static_cast<unsigned long long>(line_no), path.c_str());
    }
    while (q < e && (*q == ' ' || *q == '\t'))
        ++q;

    // Hex address, optional 0x prefix.
    if (q + 1 < e && q[0] == '0' && (q[1] == 'x' || q[1] == 'X'))
        q += 2;
    std::uint64_t addr = 0;
    bool anyHex = false;
    while (q < e) {
        char c = *q;
        unsigned v;
        if (c >= '0' && c <= '9')
            v = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v = static_cast<unsigned>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            v = static_cast<unsigned>(c - 'A') + 10;
        else
            break;
        addr = (addr << 4) | v;
        anyHex = true;
        ++q;
    }
    if (!anyHex)
        failTextLine(path, line_no, s, n);

    out->gap = static_cast<std::uint32_t>(gap);
    out->addr = static_cast<Addr>(addr);
    return true;
}

} // namespace

TraceStream::TraceStream(const TraceSpec &spec_, bool background)
    : spec(spec_)
{
    src = openByteSource(spec.path);
    rawBuf.resize(spec.chunkBytes);

    // Sniff the format magic.  The sniffed bytes are pushed back into
    // `preload` when they turn out to be text content.
    char m4[4];
    std::size_t got = src->read(m4, sizeof(m4));
    bool looksFbt =
        got == sizeof(m4) && std::memcmp(m4, fbtMagic, 4) == 0;
    if (spec.format == TraceFormat::Auto)
        fmt = looksFbt ? TraceFormat::Fbt : TraceFormat::Text;
    else
        fmt = spec.format;
    if (fmt == TraceFormat::Fbt) {
        if (!looksFbt)
            fatal("trace file '%s' is not an fbt trace (bad magic)",
                  spec.path.c_str());
        readFbtHeader(true);
    } else {
        preload.assign(m4, got);
    }

    if (background)
        worker = std::make_unique<ThreadPool>(1);
}

TraceStream::~TraceStream()
{
    // Member destruction order already drains `pending` (declared
    // after `worker`, so destroyed first) and then joins the worker
    // before the decoder state it touches goes away.
}

void
TraceStream::readFbtHeader(bool first)
{
    // Called with the source positioned right after the 4 magic bytes
    // on first open, or at offset 0 after a rewind.
    char fixed[fbtHeaderFixedBytes];
    std::size_t off = 0;
    if (first) {
        std::memcpy(fixed, fbtMagic, 4);
        off = 4;
    }
    if (src->read(fixed + off, sizeof(fixed) - off)
        != sizeof(fixed) - off)
        fatal("trace file '%s' is truncated (short fbt header)",
              spec.path.c_str());
    if (std::memcmp(fixed, fbtMagic, 4) != 0)
        fatal("trace file '%s' is not an fbt trace (bad magic)",
              spec.path.c_str());
    std::uint32_t version = getLE32(fixed + 4);
    if (version != fbtVersion)
        fatal("trace file '%s' has unsupported fbt version %u "
              "(this build reads version %u)", spec.path.c_str(),
              version, fbtVersion);
    hdr.opCount = getLE64(fixed + 8);
    std::uint32_t nameLen = getLE32(fixed + 16);
    if (nameLen > (1u << 20))
        fatal("trace file '%s' has an implausible fbt profile-name "
              "length %u", spec.path.c_str(), nameLen);
    std::string name(nameLen, '\0');
    if (nameLen && src->read(name.data(), nameLen) != nameLen)
        fatal("trace file '%s' is truncated (short fbt header)",
              spec.path.c_str());
    if (first)
        hdr.profileName = std::move(name);
}

std::size_t
TraceStream::fillRaw(char *dst, std::size_t n)
{
    std::size_t got = 0;
    if (!preload.empty()) {
        std::size_t take = std::min(n, preload.size());
        std::memcpy(dst, preload.data(), take);
        preload.erase(0, take);
        got = take;
    }
    if (got < n)
        got += src->read(dst + got, n - got);
    return got;
}

void
TraceStream::startPass()
{
    src->rewind();
    preload.clear();
    textCarry.clear();
    recCarryLen = 0;
    lineNo = 0;
    passOps = 0;
    ++nPasses;
    if (fmt == TraceFormat::Fbt)
        readFbtHeader(false);
}

std::shared_ptr<TraceChunk>
TraceStream::decodeNext()
{
    auto chunk = std::make_shared<TraceChunk>();
    chunk->seq = nextSeq++;

    const std::size_t want = spec.chunkBytes;
    std::size_t got = fillRaw(rawBuf.data(), want);
    const char *p = rawBuf.data();
    const char *end = p + got;
    TraceOp op;

    if (fmt == TraceFormat::Text) {
        chunk->ops.reserve(got / 8 + 1);
        // Complete a line carried over from the previous chunk.
        if (!textCarry.empty()) {
            const char *nl = static_cast<const char *>(
                std::memchr(p, '\n', got));
            if (!nl) {
                textCarry.append(p, end);
                p = end;
            } else {
                textCarry.append(p, nl);
                p = nl + 1;
                ++lineNo;
                if (parseTextLine(textCarry.data(), textCarry.size(),
                                  spec.path, lineNo, &op))
                    chunk->ops.push_back(op);
                textCarry.clear();
            }
        }
        while (p < end) {
            const char *nl = static_cast<const char *>(std::memchr(
                p, '\n', static_cast<std::size_t>(end - p)));
            if (!nl) {
                textCarry.assign(p, end);
                break;
            }
            ++lineNo;
            if (parseTextLine(p, static_cast<std::size_t>(nl - p),
                              spec.path, lineNo, &op))
                chunk->ops.push_back(op);
            p = nl + 1;
        }
        if (got < want && !textCarry.empty()) {
            // Final line without a trailing newline.
            ++lineNo;
            if (parseTextLine(textCarry.data(), textCarry.size(),
                              spec.path, lineNo, &op))
                chunk->ops.push_back(op);
            textCarry.clear();
        }
        // Size the chunk to what it decoded: the reserve above is a
        // guess (1.5x the ops of typical 12-byte lines, too few for
        // shorter ones), and a resident chunk should hold no slack.
        // At the default budget the chunk is cache-resident and this
        // copy costs nothing measurable; counting the lines before
        // parsing instead cost a quarter of the parse.
        chunk->ops.shrink_to_fit();
    } else {
        std::size_t avail = got;
        chunk->ops.reserve((recCarryLen + avail) / fbtRecordBytes + 1);
        if (recCarryLen) {
            std::size_t need = fbtRecordBytes - recCarryLen;
            std::size_t take = std::min(need, avail);
            std::memcpy(recCarry + recCarryLen, p, take);
            recCarryLen += take;
            p += take;
            avail -= take;
            if (recCarryLen == fbtRecordBytes) {
                decodeRecord(recCarry, &op);
                chunk->ops.push_back(op);
                recCarryLen = 0;
            }
        }
        std::size_t nRec = avail / fbtRecordBytes;
        for (std::size_t i = 0; i < nRec; ++i) {
            decodeRecord(p + i * fbtRecordBytes, &op);
            chunk->ops.push_back(op);
        }
        std::size_t rem = avail % fbtRecordBytes;
        if (rem)
            std::memcpy(recCarry, p + nRec * fbtRecordBytes, rem);
        recCarryLen = rem;
        if (got < want && recCarryLen)
            fatal("trace file '%s' is truncated (%zu stray bytes at "
                  "end of record stream)", spec.path.c_str(),
                  recCarryLen);
    }

    passOps += chunk->ops.size();
    if (got < want) {
        // Short read == end of this pass: validate, rewind, loop.
        if (passOps == 0)
            fatal("trace file '%s' contains no operations",
                  spec.path.c_str());
        if (fmt == TraceFormat::Fbt && hdr.opCount
            && passOps != hdr.opCount)
            warn("trace file '%s' decoded %llu ops but its header "
                 "claims %llu", spec.path.c_str(),
                 static_cast<unsigned long long>(passOps),
                 static_cast<unsigned long long>(hdr.opCount));
        chunk->lastOfPass = true;
        startPass();
    }
    return chunk;
}

void
TraceStream::decodeRecord(const char *rec, TraceOp *out)
{
    out->gap = getLE32(rec);
    unsigned char kind = static_cast<unsigned char>(rec[4]);
    switch (kind) {
      case 0:
        out->kind = TraceOp::Kind::Load;
        break;
      case 1:
        out->kind = TraceOp::Kind::Store;
        break;
      case 2:
        out->kind = TraceOp::Kind::Prefetch;
        break;
      default:
        fatal("unknown trace op kind %u in fbt record %llu of '%s'",
              kind,
              static_cast<unsigned long long>(passOps
                                              + /* current */ 1),
              spec.path.c_str());
    }
    out->addr = static_cast<Addr>(getLE64(rec + 5));
}

std::shared_ptr<TraceChunk>
TraceStream::produce()
{
    std::shared_ptr<TraceChunk> c;
    if (pending.valid())
        c = pending.get();
    else
        c = decodeNext();
    // Overlap: kick off the next decode before handing this one out.
    if (worker)
        pending = worker->submit([this] { return decodeNext(); });
    return c;
}

unsigned
TraceStream::addView()
{
    fbdp_assert(window.empty() && firstSeq == 0,
                "register every trace view before replay begins");
    viewSeq.push_back(0);
    return static_cast<unsigned>(viewSeq.size() - 1);
}

std::shared_ptr<const TraceChunk>
TraceStream::chunkFor(unsigned view, std::uint64_t seq)
{
    fbdp_assert(view < viewSeq.size(),
                "unknown trace view %u of '%s'", view,
                spec.path.c_str());
    fbdp_assert(seq >= firstSeq,
                "trace view %u asked for retired chunk %llu", view,
                static_cast<unsigned long long>(seq));
    viewSeq[view] = seq;
    while (firstSeq + window.size() <= seq) {
        window.push_back(produce());
        windowPeak = std::max(windowPeak, window.size());
    }
    // Retire chunks every view has passed (each view still holds a
    // shared_ptr to its current chunk, so dropping the window entry
    // below the minimum is safe).
    std::uint64_t minSeq =
        *std::min_element(viewSeq.begin(), viewSeq.end());
    while (firstSeq < minSeq && !window.empty()) {
        window.pop_front();
        ++firstSeq;
    }
    return window[static_cast<std::size_t>(seq - firstSeq)];
}

// ---------------------------------------------------------------- //
// StreamingTraceGenerator                                           //
// ---------------------------------------------------------------- //

StreamingTraceGenerator::StreamingTraceGenerator(
    std::shared_ptr<TraceStream> stream, Addr base_addr)
    : str(std::move(stream)), viewId(str->addView()), base(base_addr)
{
    prof.name = "trace:" + str->path();
}

StreamingTraceGenerator::StreamingTraceGenerator(
    const TraceSpec &spec, Addr base_addr)
    : StreamingTraceGenerator(std::make_shared<TraceStream>(spec),
                              base_addr)
{
}

void
StreamingTraceGenerator::advanceChunk()
{
    // A pass completes when its lastOfPass chunk is fully consumed —
    // the same op boundary where TraceFileGenerator resets its
    // cursor.  Empty chunks (comment-only blocks, or the zero-op
    // chunk a chunk-aligned file ends on) are skipped here; a whole
    // pass with no ops is fatal inside the decoder, so this loop
    // always terminates with ops in hand.
    for (;;) {
        if (chunk->lastOfPass)
            ++nWraps;
        chunk = str->chunkFor(viewId, ++seq);
        idx = 0;
        if (!chunk->ops.empty())
            return;
    }
}

TraceOp
StreamingTraceGenerator::next()
{
    if (!chunk) {
        chunk = str->chunkFor(viewId, 0);
        while (chunk->ops.empty()) {
            if (chunk->lastOfPass)
                ++nWraps;
            chunk = str->chunkFor(viewId, ++seq);
        }
    }
    TraceOp op = chunk->ops[idx];
    op.addr += base;
    ++nOps;
    if (++idx == chunk->ops.size())
        advanceChunk();
    return op;
}

// ---------------------------------------------------------------- //
// TracePassReader                                                   //
// ---------------------------------------------------------------- //

TracePassReader::TracePassReader(const TraceSpec &spec,
                                 bool background)
    : str(std::make_shared<TraceStream>(spec, background)),
      viewId(str->addView())
{
}

bool
TracePassReader::next(TraceOp *out)
{
    while (true) {
        if (done)
            return false;
        if (!chunk || idx == chunk->ops.size()) {
            if (chunk && chunk->lastOfPass) {
                done = true;
                return false;
            }
            chunk = str->chunkFor(viewId, chunk ? ++seq : 0);
            idx = 0;
            continue;
        }
        *out = chunk->ops[idx++];
        return true;
    }
}

} // namespace fbdp
