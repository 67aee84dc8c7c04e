#include "system/ledger.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "power/power_model.hh"
#include "system/metrics.hh"

namespace fbdp {

namespace {

void
metric(std::ostringstream &os, bool &first, const char *key, double v)
{
    os << (first ? "" : ", ") << '"' << key
       << "\": " << json::encodeNumber(v);
    first = false;
}

void
metric(std::ostringstream &os, bool &first, const char *key,
       std::uint64_t v)
{
    os << (first ? "" : ", ") << '"' << key
       << "\": " << json::encodeNumber(v);
    first = false;
}

} // namespace

std::string
ledgerRecordJson(const RunManifest &m, const SweepRow &row)
{
    const RunResult &r = row.result;
    std::ostringstream os;
    os << "{\"schema\": \"" << ledgerSchema << "\", \"manifest\": "
       << m.json() << ", \"config\": \"" << jsonEscape(row.config)
       << "\", \"mix\": \"" << jsonEscape(row.mix)
       << "\", \"seed\": " << row.seed << ", \"metrics\": {";

    bool first = true;
    // Simulated outcomes — deterministic for a given digest.
    metric(os, first, "ipc_sum", r.ipcSum());
    metric(os, first, "avg_read_latency_ns", r.avgReadLatencyNs);
    metric(os, first, "bandwidth_gbs", r.bandwidthGBs);
    metric(os, first, "reads", r.reads);
    metric(os, first, "writes", r.writes);
    metric(os, first, "pf_hits", r.ambHits);
    metric(os, first, "coverage", r.coverage);
    metric(os, first, "efficiency", r.efficiency);
    metric(os, first, "demand_p99_ns", r.latDemand.p99Ns);
    metric(os, first, "pref_hit_p99_ns", r.latPrefHit.p99Ns);
    metric(os, first, "write_p99_ns", r.latWrite.p99Ns);
    metric(os, first, "dynamic_power",
           PowerModel{}.dynamicPower(r.ops, r.measuredTicks));
    {
        const double insts = r.totalInsts();
        metric(os, first, "energy_per_inst",
               insts > 0.0
                   ? PowerModel{}.dynamicEnergy(r.ops) / insts
                   : 0.0);
    }
    // Host facts — the sim-rate trend --history exists to watch.
    metric(os, first, "insts_per_sec", r.instsPerHostSec());
    metric(os, first, "events_per_sec", r.kernel.eventsPerSec());
    metric(os, first, "host_event_seconds",
           r.kernel.hostEventSeconds);

    os << "}}";
    return os.str();
}

bool
appendLedgerRecord(const std::string &path,
                   const std::string &record_json, std::string *error)
{
    std::ofstream os(path, std::ios::app);
    if (!os) {
        if (error)
            *error = "cannot open ledger '" + path + "' for append";
        return false;
    }
    os << record_json << '\n';
    os.flush();
    if (!os) {
        if (error)
            *error = "short write appending to ledger '" + path + "'";
        return false;
    }
    return true;
}

std::vector<json::ValuePtr>
readLedger(const std::string &path, std::string *error)
{
    std::vector<json::ValuePtr> records;
    std::ifstream is(path);
    if (!is) {
        if (error)
            *error = "cannot read ledger '" + path + "'";
        return records;
    }
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        json::ParseResult pr = json::parse(line);
        if (!pr.ok()) {
            if (error)
                *error = csprintf("%s:%zu: %s", path.c_str(), lineNo,
                                  pr.error.c_str());
            records.clear();
            return records;
        }
        records.push_back(pr.value);
    }
    return records;
}

namespace {

/** The record's manifest config digest, or "" if it is not a ledger
 *  record at all. */
std::string
recordDigest(const json::ValuePtr &rec)
{
    if (!rec || !rec->isObject())
        return "";
    const json::ValuePtr schema = rec->get("schema");
    if (!schema || !schema->isString()
        || schema->asString() != ledgerSchema)
        return "";
    const json::ValuePtr m = rec->get("manifest");
    if (!m || !m->isObject())
        return "";
    const json::ValuePtr d = m->get("config_digest");
    if (!d || !d->isString())
        return "";
    return d->asString();
}

std::string
recordLabel(const json::ValuePtr &rec, const char *key)
{
    const json::ValuePtr v = rec->get(key);
    return v && v->isString() ? v->asString() : "";
}

} // namespace

HistoryReport
analyzeHistory(const std::vector<json::ValuePtr> &records,
               const HistoryOptions &opt)
{
    HistoryReport rep;

    // Valid ledger records, file order.
    std::vector<json::ValuePtr> valid;
    std::vector<std::string> digests;
    for (const json::ValuePtr &rec : records) {
        std::string d = recordDigest(rec);
        if (d.empty())
            continue;
        valid.push_back(rec);
        digests.push_back(std::move(d));
    }
    if (valid.empty()) {
        rep.error = "ledger holds no records";
        return rep;
    }

    rep.digest = opt.digest.empty() ? digests.back() : opt.digest;

    std::vector<json::ValuePtr> matching;
    for (std::size_t i = 0; i < valid.size(); ++i) {
        if (digests[i] == rep.digest)
            matching.push_back(valid[i]);
    }
    rep.matching = matching.size();
    if (opt.lastN > 0 && matching.size() > opt.lastN)
        matching.erase(matching.begin(),
                       matching.end()
                           - static_cast<std::ptrdiff_t>(opt.lastN));
    rep.window = matching.size();
    if (rep.window < 2) {
        rep.error = csprintf(
            "need >= 2 records with digest %s to trend (have %zu)",
            rep.digest.c_str(), rep.window);
        return rep;
    }

    rep.config = recordLabel(matching.back(), "config");
    rep.mix = recordLabel(matching.back(), "mix");

    // Baseline: per-metric mean over the prior records (text metrics
    // keep the most recent prior value).
    std::map<std::string, FlatEntry> baseline;
    std::map<std::string, std::size_t> counts;
    for (std::size_t i = 0; i + 1 < matching.size(); ++i) {
        const json::ValuePtr metrics = matching[i]->get("metrics");
        if (!metrics)
            continue;
        for (auto &[key, entry] : flattenJson(metrics)) {
            auto it = baseline.find(key);
            if (it == baseline.end()) {
                baseline.emplace(key, entry);
                counts[key] = 1;
            } else if (entry.numeric && it->second.numeric) {
                it->second.num += entry.num;
                ++counts[key];
            } else {
                it->second = entry;  // text: most recent wins
                counts[key] = 1;
            }
        }
    }
    for (auto &[key, entry] : baseline) {
        if (entry.numeric && counts[key] > 1)
            entry.num /= static_cast<double>(counts[key]);
    }

    const json::ValuePtr candMetrics = matching.back()->get("metrics");
    std::map<std::string, FlatEntry> candidate;
    if (candMetrics)
        candidate = flattenJson(candMetrics);

    DiffOptions dopt;
    dopt.tolerance = opt.tolerance;
    dopt.direction = opt.direction;
    dopt.only = opt.only;
    dopt.ignore = opt.ignore;
    rep.diff = diffRuns(baseline, candidate, dopt);
    return rep;
}

void
printHistoryReport(const HistoryReport &r, std::ostream &os,
                   bool verbose)
{
    if (!r.ok()) {
        os << "history: " << r.error << '\n';
        return;
    }
    os << "history: digest " << r.digest;
    if (!r.config.empty())
        os << " (" << r.config << '/' << r.mix << ')';
    os << ": newest record vs mean of " << (r.window - 1)
       << " prior record" << (r.window == 2 ? "" : "s");
    if (r.matching != r.window)
        os << " (of " << r.matching << " matching)";
    os << '\n';
    printDiffReport(r.diff, os, verbose);
}

} // namespace fbdp
