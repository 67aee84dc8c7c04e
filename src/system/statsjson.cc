#include "system/statsjson.hh"

#include <sstream>

#include "system/manifest.hh"
#include "system/metrics.hh"

namespace fbdp {

namespace {

std::string
jsonReal(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

/**
 * The "kernel" section.  Always the flat kernelStats() row; when the
 * run was profiled (--profile-kernel) the object is extended in place
 * with the imbalance summary and the per-shard array.  Each array
 * element carries a "name" member so fbdp-report's flattener produces
 * stable dotted paths (kernel.shards.ch0.events).  Unprofiled runs
 * emit the array empty, which keeps a profiled-off diff free of
 * one-sided keys.
 */
void
writeKernelSection(const SweepRow &row, std::ostream &os)
{
    std::string flat = ResultSchema::kernelStats().jsonRow(row);
    // Re-open the flat object to append the profile members.
    flat.pop_back(); // trailing '}'
    os << flat;

    const KernelProfile &k = row.result.kernel;
    os << ", \"profiled\": " << (k.profiled ? "true" : "false")
       << ", \"event_imbalance\": " << jsonReal(k.eventImbalance());

    os << ", \"shards\": [";
    for (std::size_t i = 0; i < k.shards.size(); ++i) {
        const ShardProfile &s = k.shards[i];
        os << (i ? ", " : "")
           << "{\"name\": \"" << jsonEscape(s.name) << "\""
           << ", \"events\": " << s.events
           << ", \"schedules\": " << s.schedules
           << ", \"reschedules\": " << s.reschedules
           << ", \"deschedules\": " << s.deschedules
           << ", \"peak_queue_depth\": " << s.peakQueueDepth
           << ", \"mailbox_in\": " << s.mailboxIn
           << ", \"mailbox_out\": " << s.mailboxOut
           << ", \"busy_seconds\": " << jsonReal(s.busySeconds)
           << ", \"drain_seconds\": " << jsonReal(s.drainSeconds)
           << "}";
    }
    os << "]}";
}

} // namespace

void
writeRunStatsJson(const System &sys, const SweepRow &row,
                  std::ostream &os, const RunManifest *manifest)
{
    os << "{\n";
    if (manifest)
        os << "  \"manifest\": " << manifest->json() << ",\n";
    os << "  \"run\": "
       << ResultSchema::sweepRows().jsonRow(row) << ",\n";
    os << "  \"latency\": "
       << ResultSchema::latencyPercentiles().jsonRow(row) << ",\n";
    os << "  \"kernel\": ";
    writeKernelSection(row, os);
    os << ",\n";
    os << "  \"power\": "
       << ResultSchema::powerStats().jsonRow(row) << ",\n";
    os << "  \"prefetch\": "
       << ResultSchema::prefetchStats().jsonRow(row) << ",\n";
    os << "  \"breakdown\": "
       << ResultSchema::latencyBreakdown().jsonRow(row) << ",\n";

    os << "  \"groups\": {\n";
    const auto groups = sys.buildStatGroups(true);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        os << "    \"" << jsonEscape(groups[g].group.name())
           << "\": {\n";
        const auto &all = groups[g].group.all();
        for (std::size_t i = 0; i < all.size(); ++i) {
            os << "      \"" << jsonEscape(all[i]->name()) << "\": ";
            all[i]->printJson(os);
            os << (i + 1 < all.size() ? ",\n" : "\n");
        }
        os << "    }" << (g + 1 < groups.size() ? ",\n" : "\n");
    }
    os << "  }\n";
    os << "}\n";
}

} // namespace fbdp
