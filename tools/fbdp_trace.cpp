/**
 * @file
 * fbdp-trace — trace-file Swiss-army knife for the streaming frontend.
 *
 *   fbdp-trace convert IN OUT [--format auto|text|fbt]
 *       Re-encode IN (text or .fbt, detected by magic) as OUT, one
 *       op at a time, so IN may be of any size.  The output format
 *       defaults to OUT's extension: *.fbt writes binary, anything
 *       else text.
 *
 *   fbdp-trace record BENCH OUT [--ops N] [--seed S] [--no-sp]
 *              [--format auto|text|fbt]
 *       Record N ops (default 1000000) of the synthetic generator for
 *       profile BENCH straight to OUT (same format rules as convert).
 *
 *   fbdp-trace head IN [--ops N]
 *       Print the first N ops (default 10) in the text format.
 *
 *   fbdp-trace stat IN
 *       One pass over IN: format, header metadata, op counts by
 *       kind, instruction count, address bounds, and a summary of the
 *       demand stream (software prefetches left out): distinct lines,
 *       footprint, mean line-reuse distance and the most common
 *       strides within a 4 MB segment.
 *
 * Exit codes: 0 success, 2 usage error.  File errors and bad --ops /
 * --seed values are fatal (exit 1).
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "system/manifest.hh"
#include "system/metrics.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workload/trace_stream.hh"

namespace {

using namespace fbdp;

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: fbdp-trace convert IN OUT [--format auto|text|fbt]\n"
        "       fbdp-trace record BENCH OUT [--ops N] [--seed S] "
        "[--no-sp] [--format ...]\n"
        "       fbdp-trace head IN [--ops N]\n"
        "       fbdp-trace stat IN\n"
        "       fbdp-trace --version\n";
    std::exit(2);
}

bool
hasSuffix(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size()
        && s.compare(s.size() - suffix.size(), suffix.size(), suffix)
               == 0;
}

/** Output encoding of @p out_path: @p format, or by extension. */
TraceFormat
outputFormat(TraceFormat format, const std::string &out_path)
{
    if (format != TraceFormat::Auto)
        return format;
    return hasSuffix(out_path, ".fbt") ? TraceFormat::Fbt
                                       : TraceFormat::Text;
}

int
cmdConvert(const std::string &in, const std::string &out,
           TraceFormat format)
{
    TracePassReader reader(in);
    const TraceFormat ofmt = outputFormat(format, out);
    std::string name = reader.header().profileName;
    if (name.empty())
        name = "converted:" + in;
    TraceWriter writer(out, ofmt, false, name);
    TraceOp op;
    while (reader.next(&op))
        writer.append(op);
    writer.close();
    std::cout << "fbdp-trace: wrote " << writer.written() << " ops to "
              << out << " (" << traceFormatName(ofmt) << ")\n";
    return 0;
}

int
cmdRecord(const std::string &bench, const std::string &out,
          std::uint64_t n_ops, std::uint64_t seed, bool sw_prefetch,
          TraceFormat format)
{
    SyntheticGenerator gen(benchProfile(bench), 0, seed, sw_prefetch);
    const TraceFormat ofmt = outputFormat(format, out);
    TraceWriter writer(out, ofmt, false, bench);
    for (std::uint64_t i = 0; i < n_ops; ++i)
        writer.append(gen.next());
    writer.close();
    std::cout << "fbdp-trace: recorded " << n_ops << " ops of '"
              << bench << "' to " << out << " ("
              << traceFormatName(ofmt) << ")\n";
    return 0;
}

int
cmdHead(const std::string &in, std::uint64_t n_ops)
{
    TracePassReader reader(in);
    TraceOp op;
    for (std::uint64_t i = 0; i < n_ops && reader.next(&op); ++i)
        std::cout << formatTraceOp(op) << "\n";
    return 0;
}

int
cmdStat(const std::string &in)
{
    TracePassReader reader(in);
    std::uint64_t counts[3] = {0, 0, 0};
    std::uint64_t total = 0, insts = 0;
    Addr lo = ~static_cast<Addr>(0), hi = 0;
    // The demand stream: each line's last touch (by op index, so the
    // map also counts distinct lines), the running reuse-distance sum,
    // and strides against the previous access in the same 4 MB
    // segment, which separates interleaved streams well enough to
    // expose each stream's own stride.
    std::unordered_map<Addr, std::uint64_t> last_touch;
    std::uint64_t reuse_sum = 0, reuses = 0;
    std::unordered_map<Addr, Addr> prev_in_segment;
    std::map<std::int64_t, std::uint64_t> stride_hist;
    std::uint64_t strided = 0;
    TraceOp op;
    for (; reader.next(&op); ++total) {
        ++counts[static_cast<int>(op.kind)];
        insts += op.gap + 1;
        lo = op.addr < lo ? op.addr : lo;
        hi = op.addr > hi ? op.addr : hi;
        if (op.kind == TraceOp::Kind::Prefetch)
            continue;
        auto [seg, fresh] = prev_in_segment.try_emplace(op.addr >> 22,
                                                        op.addr);
        if (!fresh) {
            const auto stride = static_cast<std::int64_t>(op.addr)
                - static_cast<std::int64_t>(seg->second);
            if (stride > -4096 && stride < 4096) {
                ++stride_hist[stride];
                ++strided;
            }
            seg->second = op.addr;
        }
        auto [line, first] =
            last_touch.try_emplace(lineIndex(op.addr), total);
        if (!first) {
            reuse_sum += total - line->second;
            ++reuses;
            line->second = total;
        }
    }
    TextTable t({"metric", "value"});
    t.addRow({"file", in});
    t.addRow({"format", traceFormatName(reader.format())});
    if (reader.format() == TraceFormat::Fbt) {
        t.addRow({"header profile", reader.header().profileName});
        t.addRow({"header op count",
                  std::to_string(reader.header().opCount)});
    }
    t.addRow({"operations", std::to_string(total)});
    t.addRow({"loads", std::to_string(counts[0])});
    t.addRow({"stores", std::to_string(counts[1])});
    t.addRow({"prefetches", std::to_string(counts[2])});
    t.addRow({"instructions (incl. gaps)", std::to_string(insts)});
    t.addRow({"lowest address", csprintf("%llx",
              static_cast<unsigned long long>(lo))});
    t.addRow({"highest address", csprintf("%llx",
              static_cast<unsigned long long>(hi))});
    t.addRow({"distinct cachelines", std::to_string(last_touch.size())});
    t.addRow({"footprint (MB)",
              fmtD(static_cast<double>(last_touch.size()) * lineBytes
                       / (1 << 20), 1)});
    t.addRow({"mean line-reuse distance (ops)",
              fmtD(reuses ? static_cast<double>(reuse_sum)
                               / static_cast<double>(reuses)
                          : 0.0, 0)});
    t.print(std::cout);

    // Most common first; among equals, the larger stride first.
    std::vector<std::pair<std::uint64_t, std::int64_t>> top;
    for (const auto &[stride, n] : stride_hist)
        top.emplace_back(n, stride);
    std::sort(top.rbegin(), top.rend());
    std::cout << "\ntop same-segment strides (bytes -> share):\n";
    for (std::size_t i = 0; i < top.size() && i < 6; ++i) {
        std::cout << "  " << top[i].second << " -> "
                  << fmtPct(static_cast<double>(top[i].first)
                            / static_cast<double>(strided))
                  << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    if (cmd == "--version") {
        std::cout << RunManifest::buildInfo() << "\n";
        return 0;
    }

    // Leading positional arguments, then options.
    std::vector<std::string> pos;
    TraceFormat format = TraceFormat::Auto;  // Auto = by extension
    std::uint64_t n_ops = 0;
    bool n_ops_set = false;
    std::uint64_t seed = 42;
    bool sw_prefetch = true;
    constexpr long long maxU63 = 0x7fffffffffffffffLL;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--format")) {
            const std::string v = need(i);
            if (v == "auto")
                format = TraceFormat::Auto;
            else if (v == "text")
                format = TraceFormat::Text;
            else if (v == "fbt")
                format = TraceFormat::Fbt;
            else
                usage();
        } else if (!std::strcmp(a, "--ops")) {
            n_ops = static_cast<std::uint64_t>(
                requireCount(a, need(i), 1, maxU63));
            n_ops_set = true;
        } else if (!std::strcmp(a, "--seed")) {
            seed = static_cast<std::uint64_t>(
                requireCount(a, need(i), 0, maxU63));
        } else if (!std::strcmp(a, "--no-sp")) {
            sw_prefetch = false;
        } else if (a[0] == '-') {
            usage();
        } else {
            pos.push_back(a);
        }
    }

    if (cmd == "convert" && pos.size() == 2)
        return cmdConvert(pos[0], pos[1], format);
    if (cmd == "record" && pos.size() == 2)
        return cmdRecord(pos[0], pos[1],
                         n_ops_set ? n_ops : 1'000'000, seed,
                         sw_prefetch, format);
    if (cmd == "head" && pos.size() == 1)
        return cmdHead(pos[0], n_ops_set ? n_ops : 10);
    if (cmd == "stat" && pos.size() == 1)
        return cmdStat(pos[0]);
    usage();
}
