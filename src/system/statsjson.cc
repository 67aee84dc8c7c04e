#include "system/statsjson.hh"

#include "system/manifest.hh"
#include "system/metrics.hh"

namespace fbdp {

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
    os << "  \"kernel\": "
       << ResultSchema::kernelStats().jsonRow(row) << ",\n";
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
