#include "workload/trace_stream.hh"

#include <algorithm>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

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

// ---------------------------------------------------------------- //
// TraceSpec                                                         //
// ---------------------------------------------------------------- //

namespace {

constexpr const char *traceSpecPrefix = "trace:";

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
    const std::string body = bench.substr(std::strlen(traceSpecPrefix));
    std::size_t comma = body.find(',');
    spec.path = body.substr(0, comma);
    if (spec.path.empty())
        fatal("trace spec '%s' is missing a path", bench.c_str());
    while (comma != std::string::npos) {
        const std::size_t pos = comma + 1;
        comma = body.find(',', pos);
        const std::string part = body.substr(pos, comma - pos);
        if (!part.empty())
            fatal("unknown trace spec option '%s' in '%s' (a trace "
                  "spec takes no options)",
                  part.substr(0, part.find('=')).c_str(), bench.c_str());
    }
    return spec;
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
    // Two unrolled halves, which the compiler turns into one load.
    return getLE32(src) | static_cast<std::uint64_t>(getLE32(src + 4))
                              << 32;
}

// The .fbt kind byte, and the index into "LSP" of the text kind
// letter, is the Kind's value.
static_assert(static_cast<int>(TraceOp::Kind::Load) == 0
              && static_cast<int>(TraceOp::Kind::Store) == 1
              && static_cast<int>(TraceOp::Kind::Prefetch) == 2);

void
encodeRecord(char *dst, const TraceOp &op)
{
    putLE32(dst, op.gap);
    dst[4] = static_cast<char>(op.kind);
    putLE64(dst + 5, static_cast<std::uint64_t>(op.addr));
}

/** encodeRecord() reversed; @return false for an unknown kind. */
bool
decodeRecord(const char *src, TraceOp *out)
{
    const unsigned char kind = static_cast<unsigned char>(src[4]);
    out->gap = getLE32(src);
    out->kind = static_cast<TraceOp::Kind>(kind);
    out->addr = static_cast<Addr>(getLE64(src + 5));
    return kind <= 2;
}

} // namespace

// ---------------------------------------------------------------- //
// TraceWriter                                                       //
// ---------------------------------------------------------------- //

std::string
formatTraceOp(const TraceOp &op)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%u %c %llx", op.gap,
                  "LSP"[static_cast<int>(op.kind)],
                  static_cast<unsigned long long>(op.addr));
    return buf;
}

TraceWriter::TraceWriter(const std::string &path_, TraceFormat format,
                         bool gzip, const std::string &profile_name)
    : path(path_), fmt(format)
{
    fbdp_assert(format != TraceFormat::Auto,
                "TraceWriter needs a concrete format");
    if (gzip)
        fatal("cannot write gzip trace '%s': traces are written "
              "uncompressed", path.c_str());
    f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open trace file '%s' for writing", path.c_str());
    if (format == TraceFormat::Fbt) {
        // The op count is patched in on close().
        char hdr[fbtHeaderFixedBytes];
        std::memcpy(hdr, fbtMagic, 4);
        putLE32(hdr + 4, fbtVersion);
        putLE64(hdr + 8, 0);
        putLE32(hdr + 16,
                static_cast<std::uint32_t>(profile_name.size()));
        write(hdr, sizeof(hdr));
        write(profile_name.data(), profile_name.size());
    } else {
        std::string banner = "# fbdp trace: " + profile_name + "\n";
        write(banner.data(), banner.size());
    }
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::write(const char *d, std::size_t n)
{
    if (n && std::fwrite(d, 1, n, f) != n)
        fatal("write to trace file '%s' failed (disk full?)",
              path.c_str());
}

void
TraceWriter::append(const TraceOp &op)
{
    fbdp_assert(f, "append to a closed TraceWriter");
    if (fmt == TraceFormat::Fbt) {
        char rec[fbtRecordBytes];
        encodeRecord(rec, op);
        write(rec, sizeof(rec));
    } else {
        std::string line = formatTraceOp(op) + "\n";
        write(line.data(), line.size());
    }
    ++nWritten;
}

void
TraceWriter::close()
{
    if (!f)
        return;
    if (fmt == TraceFormat::Fbt && nWritten) {
        char cnt[8];
        putLE64(cnt, nWritten);
        if (std::fseek(f, 8, SEEK_SET) != 0
            || std::fwrite(cnt, 1, 8, f) != 8)
            fatal("cannot patch op count into trace file '%s'",
                  path.c_str());
    }
    int flush_err = std::fflush(f);
    int close_err = std::fclose(f);
    f = nullptr;
    if (flush_err != 0 || close_err != 0)
        fatal("write to trace file '%s' failed (disk full?)",
              path.c_str());
}

namespace {

[[noreturn]] void
failTextLine(const std::string &path, std::uint64_t line_no,
             const char *why, const char *s, std::size_t n)
{
    std::string line(s, std::min<std::size_t>(n, 128));
    fatal("malformed trace line %llu in '%s' (%s): '%s'",
          static_cast<unsigned long long>(line_no), path.c_str(), why,
          line.c_str());
}

bool
isBlank(char c)
{
    return c == ' ' || c == '\t';
}

/**
 * The text-line parser, to the grammar in trace_stream.hh: every
 * departure from it is fatal.  @return false when the line held no
 * op.
 */
bool
parseTextLine(const char *s, std::size_t n, const std::string &path,
              std::uint64_t line_no, TraceOp *out)
{
    const char *q = s;
    const char *e = s + n;
    if (q < e && e[-1] == '\r')
        --e;
    while (q < e && isBlank(*q))
        ++q;
    if (q == e || *q == '#')
        return false;

    // Decimal gap.
    const char *field = q;
    std::uint64_t gap = 0;
    for (; q < e && *q >= '0' && *q <= '9'; ++q) {
        gap = gap * 10 + static_cast<std::uint64_t>(*q - '0');
        if (gap > 0xffffffffu)
            failTextLine(path, line_no, "gap above 4294967295", s, n);
    }
    if (q == field)
        failTextLine(path, line_no, "no decimal gap", s, n);
    if (q == e || !isBlank(*q))
        failTextLine(path, line_no, "no blank after the gap", s, n);
    while (q < e && isBlank(*q))
        ++q;

    // Kind letter.
    switch (q < e ? *q : '\0') {
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
        failTextLine(path, line_no, "unknown op kind", s, n);
    }
    if (++q == e || !isBlank(*q))
        failTextLine(path, line_no, "no blank after the op kind", s, n);
    while (q < e && isBlank(*q))
        ++q;

    // Hex address: optional 0x prefix, 1 to 16 digits.
    if (e - q >= 2 && q[0] == '0' && (q[1] == 'x' || q[1] == 'X'))
        q += 2;
    field = q;
    std::uint64_t addr = 0;
    for (; q < e; ++q) {
        const char c = *q;
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
    }
    if (q == field)
        failTextLine(path, line_no, "no hex address", s, n);
    if (q - field > 16)
        failTextLine(path, line_no, "address above 16 hex digits", s, n);
    while (q < e && isBlank(*q))
        ++q;
    if (q != e)
        failTextLine(path, line_no, "text after the address", s, n);

    out->gap = static_cast<std::uint32_t>(gap);
    out->addr = static_cast<Addr>(addr);
    return true;
}

} // namespace

// ---------------------------------------------------------------- //
// TraceFile                                                         //
// ---------------------------------------------------------------- //

namespace {

std::size_t
pageBytes()
{
    static const std::size_t n =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return n;
}

} // namespace

TraceFile::TraceFile(const std::string &path) : p(path)
{
    const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        fatal("cannot open trace file '%s'", p.c_str());
    struct stat st;
    if (fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        fatal("cannot open trace file '%s': not a regular file",
              p.c_str());
    }
    len = static_cast<std::size_t>(st.st_size);
    if (len) {
        void *m = mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
        if (m == MAP_FAILED) {
            ::close(fd);
            fatal("cannot map trace file '%s'", p.c_str());
        }
        base = static_cast<const char *>(m);
        madvise(m, len, MADV_SEQUENTIAL);
    }
    ::close(fd);

    if (len >= 2 && static_cast<unsigned char>(base[0]) == 0x1f
        && static_cast<unsigned char>(base[1]) == 0x8b)
        fatal("trace file '%s' is gzip-compressed; decompress it first "
              "(gunzip)", p.c_str());

    if (len < 4 || std::memcmp(base, fbtMagic, 4) != 0) {
        // Text: find the first op, so a trace without one fails here.
        std::size_t at = 0;
        std::uint64_t line_no = 0;
        TraceOp op;
        if (!nextLine(&at, &line_no, &op))
            fatal("trace file '%s' contains no operations", p.c_str());
        return;
    }

    fmt = TraceFormat::Fbt;
    if (len < fbtHeaderFixedBytes)
        fatal("trace file '%s' is truncated (short fbt header)",
              p.c_str());
    const std::uint32_t version = getLE32(base + 4);
    if (version != fbtVersion)
        fatal("trace file '%s' has unsupported fbt version %u "
              "(this build reads version %u)", p.c_str(), version,
              fbtVersion);
    hdr.opCount = getLE64(base + 8);
    const std::uint32_t name_len = getLE32(base + 16);
    if (name_len > (1u << 20))
        fatal("trace file '%s' has an implausible fbt profile-name "
              "length %u", p.c_str(), name_len);
    body = fbtHeaderFixedBytes + name_len;
    if (len < body)
        fatal("trace file '%s' is truncated (short fbt header)",
              p.c_str());
    hdr.profileName.assign(base + fbtHeaderFixedBytes, name_len);
    nRecs = (len - body) / fbtRecordBytes;
    if (const std::size_t stray = (len - body) % fbtRecordBytes)
        fatal("trace file '%s' is truncated (%zu stray bytes after fbt "
              "record %llu)", p.c_str(), stray,
              static_cast<unsigned long long>(nRecs));
    if (hdr.opCount && hdr.opCount != nRecs)
        fatal("trace file '%s' holds %llu fbt records but its header "
              "claims %llu", p.c_str(),
              static_cast<unsigned long long>(nRecs),
              static_cast<unsigned long long>(hdr.opCount));
    if (!nRecs)
        fatal("trace file '%s' contains no operations", p.c_str());
}

TraceFile::~TraceFile()
{
    close();
}

void
TraceFile::close()
{
    if (base)
        munmap(const_cast<char *>(base), len);
    base = nullptr;
}

TraceOp
TraceFile::record(std::uint64_t i) const
{
    TraceOp op;
    if (!decodeRecord(base + recordOffset(i), &op))
        badRecord(i);
    return op;
}

void
TraceFile::badRecord(std::uint64_t i) const
{
    fatal("unknown trace op kind %u in fbt record %llu of '%s'",
          static_cast<unsigned char>(base[recordOffset(i) + 4]),
          static_cast<unsigned long long>(i + 1), p.c_str());
}

bool
TraceFile::nextLine(std::size_t *at, std::uint64_t *line_no,
                    TraceOp *out) const
{
    while (*at < len) {
        const char *s = base + *at;
        const char *nl = static_cast<const char *>(
            std::memchr(s, '\n', len - *at));
        const std::size_t n =
            nl ? static_cast<std::size_t>(nl - s) : len - *at;
        *at += nl ? n + 1 : n;
        ++*line_no;
        if (parseTextLine(s, n, p, *line_no, out))
            return true;
    }
    return false;
}

void
TraceFile::drop(std::size_t from, std::size_t to) const
{
    const std::size_t page = pageBytes();
    from &= ~(page - 1);
    if (to < len)
        to &= ~(page - 1);
    if (base && to > from)
        madvise(const_cast<char *>(base) + from, to - from,
                MADV_DONTNEED);
}

void
TraceFile::dropBefore(std::size_t at)
{
    if (at - dropped < dropStepBytes)
        return;
    drop(dropped, at);
    dropped = at;
}

// ---------------------------------------------------------------- //
// TraceStream                                                       //
// ---------------------------------------------------------------- //

TraceStream::TraceStream(const std::string &path) : file(path)
{
    if (file.format() == TraceFormat::Fbt) {
        nOps = file.records();
        return;
    }
    // At most one op per 6 bytes ("0 L 0\n"); pages of the
    // reserve that no op fills are never touched.
    textOps.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>((file.bytes() + 1) / 6, maxTextOps)));
    std::size_t at = 0;
    std::uint64_t line_no = 0;
    TraceOp op;
    while (file.nextLine(&at, &line_no, &op)) {
        if (textOps.size() == maxTextOps)
            fatal("text trace '%s' holds more than %llu ops, the most "
                  "replay loads into memory; convert it to .fbt "
                  "(fbdp-trace convert IN OUT.fbt) and replay that",
                  path.c_str(),
                  static_cast<unsigned long long>(maxTextOps));
        textOps.push_back(op);
        file.dropBefore(at);
    }
    nOps = textOps.size();
    file.close();
}

TraceOp
TraceStream::op(std::uint64_t i) const
{
    return textOps.empty() ? file.record(i)
                           : textOps[static_cast<std::size_t>(i)];
}

unsigned
TraceStream::addView()
{
    viewOps.push_back(0);
    return static_cast<unsigned>(viewOps.size() - 1);
}

void
TraceStream::advanced(unsigned view, std::uint64_t consumed)
{
    viewOps[view] = consumed;
    if (!textOps.empty())
        return;
    // Drop the records between the frontier and the slowest view, in
    // pass order, wrapping at the end of the file.  (A view added late
    // starts behind the frontier.)
    const std::uint64_t slow =
        *std::min_element(viewOps.begin(), viewOps.end());
    if (slow < droppedOps + dropStepOps)
        return;
    const std::uint64_t a = droppedOps % nOps;
    const std::uint64_t b = slow % nOps;
    if (slow - droppedOps >= nOps) {
        file.drop(0, file.bytes());
    } else if (a < b) {
        file.drop(file.recordOffset(a), file.recordOffset(b));
    } else {
        file.drop(file.recordOffset(a), file.bytes());
        file.drop(0, file.recordOffset(b));
    }
    droppedOps = slow;
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
    const std::string &path, Addr base_addr)
    : StreamingTraceGenerator(std::make_shared<TraceStream>(path),
                              base_addr)
{
}

void
StreamingTraceGenerator::report()
{
    str->advanced(viewId, nOps);
    nextReport = nOps + TraceStream::dropStepOps;
}

TraceOp
StreamingTraceGenerator::next()
{
    TraceOp op = str->op(pos);
    op.addr += base;
    if (++pos == str->ops()) {
        pos = 0;
        ++nWraps;
    }
    if (++nOps >= nextReport)
        report();
    return op;
}

void
StreamingTraceGenerator::nextWarmBlock(TraceOp *out, std::size_t n)
{
    while (n) {
        const std::uint64_t take =
            std::min<std::uint64_t>(n, str->ops() - pos);
        for (std::uint64_t k = 0; k < take; ++k) {
            out[k] = str->op(pos + k);
            out[k].addr += base;
        }
        out += take;
        n -= static_cast<std::size_t>(take);
        nOps += take;
        pos += take;
        if (pos == str->ops()) {
            pos = 0;
            ++nWraps;
        }
    }
    if (nOps >= nextReport)
        report();
}

// ---------------------------------------------------------------- //
// TracePassReader                                                   //
// ---------------------------------------------------------------- //

TracePassReader::TracePassReader(const std::string &path) : file(path)
{
}

bool
TracePassReader::next(TraceOp *out)
{
    if (file.format() == TraceFormat::Fbt) {
        if (rec == file.records())
            return false;
        *out = file.record(rec++);
        file.dropBefore(file.recordOffset(rec));
        return true;
    }
    if (!file.nextLine(&at, &lineNo, out))
        return false;
    file.dropBefore(at);
    return true;
}

} // namespace fbdp
