/**
 * @file
 * Trace tooling: record a synthetic benchmark to a trace file, then
 * analyse it — operation mix, footprint, stride distribution, line
 * reuse — the quantities one checks before trusting a workload model.
 *
 *   ./example_trace_tools [bench] [ops] [path]
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "system/metrics.hh"
#include "workload/trace_stream.hh"

int
main(int argc, char **argv)
{
    using namespace fbdp;

    const std::string bench = argc > 1 ? argv[1] : "mgrid";
    const std::uint64_t n_ops = argc > 2
        ? static_cast<std::uint64_t>(std::atoll(argv[2]))
        : 100'000;
    const std::string path = argc > 3
        ? argv[3]
        : "/tmp/fbdp_" + bench + ".trace";

    // 1. Record.
    SyntheticGenerator gen(benchProfile(bench), 0, 42, true);
    {
        TraceWriter w(path, TraceFormat::Text, false, bench);
        for (std::uint64_t i = 0; i < n_ops; ++i)
            w.append(gen.next());
    }
    std::cout << "recorded " << n_ops << " ops of '" << bench
              << "' to " << path << "\n\n";

    // 2. Read it back and analyse.
    TraceSpec spec;
    spec.path = path;
    TracePassReader reader(spec);
    std::uint64_t ops = 0, loads = 0, stores = 0, prefetches = 0;
    std::uint64_t insts = 0;
    std::set<Addr> lines;
    // Strides are measured against the previous access in the same
    // 4 MB segment, which separates interleaved streams well enough
    // to expose each stream's own stride.
    std::map<std::int64_t, std::uint64_t> stride_hist;
    std::map<Addr, Addr> prev_in_segment;
    std::uint64_t strided_samples = 0;
    std::map<Addr, std::uint64_t> last_touch;
    std::vector<std::uint64_t> reuse;

    TraceOp op;
    for (; reader.next(&op); ++ops) {
        insts += op.gap + 1;
        switch (op.kind) {
          case TraceOp::Kind::Load:
            ++loads;
            break;
          case TraceOp::Kind::Store:
            ++stores;
            break;
          case TraceOp::Kind::Prefetch:
            ++prefetches;
            continue;  // not part of the demand stream
        }
        const Addr line = lineIndex(op.addr);
        lines.insert(line);
        const Addr seg = op.addr >> 22;
        auto pit = prev_in_segment.find(seg);
        if (pit != prev_in_segment.end()) {
            const auto stride = static_cast<std::int64_t>(op.addr)
                - static_cast<std::int64_t>(pit->second);
            if (stride > -4096 && stride < 4096) {
                ++stride_hist[stride];
                ++strided_samples;
            }
        }
        prev_in_segment[seg] = op.addr;
        auto it = last_touch.find(line);
        if (it != last_touch.end())
            reuse.push_back(ops - it->second);
        last_touch[line] = ops;
    }

    TextTable t({"metric", "value"});
    t.addRow({"operations", std::to_string(ops)});
    t.addRow({"instructions (incl. gaps)", std::to_string(insts)});
    t.addRow({"loads", std::to_string(loads)});
    t.addRow({"stores", std::to_string(stores)});
    t.addRow({"sw prefetches", std::to_string(prefetches)});
    t.addRow({"distinct cachelines", std::to_string(lines.size())});
    t.addRow({"footprint (MB)",
              fmtD(static_cast<double>(lines.size()) * lineBytes
                       / (1 << 20), 1)});
    double mean_reuse = 0;
    for (auto r : reuse)
        mean_reuse += static_cast<double>(r);
    if (!reuse.empty())
        mean_reuse /= static_cast<double>(reuse.size());
    t.addRow({"mean line-reuse distance (ops)", fmtD(mean_reuse, 0)});
    t.print(std::cout);

    std::cout << "\ntop same-segment strides (bytes -> share):\n";
    std::vector<std::pair<std::uint64_t, std::int64_t>> top;
    for (auto &[s, n] : stride_hist)
        top.emplace_back(n, s);
    std::sort(top.rbegin(), top.rend());
    const double denom = strided_samples
        ? static_cast<double>(strided_samples)
        : 1.0;
    for (size_t i = 0; i < top.size() && i < 6; ++i) {
        std::cout << "  " << top[i].second << " -> "
                  << fmtPct(static_cast<double>(top[i].first) / denom)
                  << "\n";
    }
    return 0;
}
