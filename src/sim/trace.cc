#include "sim/trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "common/parse.hh"

namespace fbdp {
namespace trace {

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Read:
        return "read";
      case Kind::Write:
        return "write";
      case Kind::Prefetch:
        return "prefetch";
      case Kind::None:
        break;
    }
    return "none";
}

namespace {

/** Split @p s on @p sep into non-empty pieces. */
std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t at = 0;
    while (at <= s.size()) {
        std::size_t end = s.find(sep, at);
        if (end == std::string::npos)
            end = s.size();
        if (end > at)
            out.push_back(s.substr(at, end - at));
        at = end + 1;
    }
    return out;
}

} // anonymous namespace

Filter
Filter::parse(const std::string &spec)
{
    Filter f;
    for (const std::string &term : split(spec, ',')) {
        std::size_t eq = term.find('=');
        if (eq == std::string::npos)
            fatal("--trace-filter term '%s' is not key=value",
                  term.c_str());
        std::string key = term.substr(0, eq);
        std::string val = term.substr(eq + 1);
        if (key == "chan") {
            const auto ch = parseCount(
                val.c_str(), 0, std::numeric_limits<int>::max());
            if (!ch)
                fatal("--trace-filter chan '%s' is not a channel index",
                      val.c_str());
            f.channel = static_cast<int>(*ch);
        } else if (key == "kind") {
            f.reads = f.writes = f.prefetches = false;
            for (const std::string &k : split(val, '|')) {
                if (k == "read")
                    f.reads = true;
                else if (k == "write")
                    f.writes = true;
                else if (k == "prefetch")
                    f.prefetches = true;
                else
                    fatal("--trace-filter kind '%s' (want "
                          "read|write|prefetch)", k.c_str());
            }
            if (!f.reads && !f.writes && !f.prefetches)
                fatal("--trace-filter kind selects nothing");
        } else {
            fatal("--trace-filter key '%s' (want chan= or kind=)",
                  key.c_str());
        }
    }
    return f;
}

Tracer::Tracer(Filter f, std::size_t capacity)
    : filt(f), cap(capacity ? capacity : 1)
{
    ring.reserve(std::min<std::size_t>(cap, 1u << 16));
}

std::uint32_t
Tracer::track(const std::string &name)
{
    for (std::uint32_t i = 0; i < trackNames.size(); ++i) {
        if (trackNames[i] == name)
            return i;
    }
    trackNames.push_back(name);
    return static_cast<std::uint32_t>(trackNames.size() - 1);
}

std::vector<Record>
Tracer::chronological() const
{
    std::vector<Record> out;
    out.reserve(ring.size());
    // Once the ring has wrapped, `head` is the oldest slot.
    for (std::size_t i = 0; i < ring.size(); ++i)
        out.push_back(ring[(head + i) % ring.size()]);
    return out;
}

void
Tracer::clear()
{
    ring.clear();
    head = 0;
    nRecorded = 0;
    nDropped = 0;
}

namespace {

/** Print a tick as microseconds with 1 ps resolution (exact). */
void
printTs(std::ostream &os, Tick ts)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(ts / 1000000),
                  static_cast<unsigned long long>(ts % 1000000));
    os << buf;
}

void
printEscaped(std::ostream &os, const std::string &s)
{
    for (char c : s) {
        unsigned char u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(u));
            os << buf;
        } else {
            os << c;
        }
    }
}

} // anonymous namespace

void
Tracer::exportJson(std::ostream &os,
                   const std::string &manifest_json) const
{
    std::vector<Record> recs = chronological();
    // Stable sort by timestamp: same-tick records keep push order, so
    // the export is deterministic and viewers see non-decreasing ts.
    std::stable_sort(recs.begin(), recs.end(),
                     [](const Record &a, const Record &b) {
                         return a.ts < b.ts;
                     });

    os << "{\"traceEvents\": [\n";

    // Metadata: one process, one named thread per track.
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"name\": \"fbdp\"}}";
    for (std::uint32_t t = 0; t < trackNames.size(); ++t) {
        os << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", "
              "\"pid\": 1, \"tid\": " << (t + 1)
           << ", \"args\": {\"name\": \"";
        printEscaped(os, trackNames[t]);
        os << "\"}}";
    }
    for (std::uint32_t t = 0; t < trackNames.size(); ++t) {
        os << ",\n{\"name\": \"thread_sort_index\", \"ph\": \"M\", "
              "\"pid\": 1, \"tid\": " << (t + 1)
           << ", \"args\": {\"sort_index\": " << t << "}}";
    }

    // Ring wrap-around can orphan one half of a Begin/End pair; track
    // the open-duration depth per track so orphaned Ends are skipped
    // and dangling Begins get closed at the end of the trace.
    std::vector<unsigned> depth(trackNames.size(), 0);
    std::vector<const char *> openName(trackNames.size(), nullptr);
    Tick lastTs = recs.empty() ? 0 : recs.back().ts;

    for (const Record &r : recs) {
        if (r.track >= trackNames.size())
            continue;  // bound to a track this Tracer never interned
        if (r.ph == Ph::End) {
            if (depth[r.track] == 0)
                continue;  // Begin was overwritten by ring wrap
            --depth[r.track];
        } else if (r.ph == Ph::Begin) {
            ++depth[r.track];
            openName[r.track] = r.name;
        }

        os << ",\n{\"name\": \"" << (r.name ? r.name : "?")
           << "\", \"cat\": \"sim\", \"ph\": \"";
        switch (r.ph) {
          case Ph::Begin:
            os << 'B';
            break;
          case Ph::End:
            os << 'E';
            break;
          case Ph::Instant:
            os << 'i';
            break;
          case Ph::Counter:
            os << 'C';
            break;
        }
        os << "\", \"pid\": 1, \"tid\": " << (r.track + 1)
           << ", \"ts\": ";
        printTs(os, r.ts);
        if (r.ph == Ph::Instant)
            os << ", \"s\": \"t\"";

        bool args = r.ph == Ph::Counter || r.kind != Kind::None ||
                    r.core >= 0 || r.addr != noAddr;
        if (args) {
            os << ", \"args\": {";
            bool first = true;
            if (r.ph == Ph::Counter) {
                os << "\"value\": " << r.value;
                first = false;
            }
            if (r.kind != Kind::None) {
                os << (first ? "" : ", ") << "\"kind\": \""
                   << kindName(r.kind) << '"';
                first = false;
            }
            if (r.core >= 0) {
                os << (first ? "" : ", ") << "\"core\": " << r.core;
                first = false;
            }
            if (r.addr != noAddr) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "0x%llx",
                              static_cast<unsigned long long>(r.addr));
                os << (first ? "" : ", ") << "\"addr\": \"" << buf
                   << '"';
            }
            os << '}';
        }
        os << '}';
    }

    // Close whatever is still open so every Begin has an End.
    for (std::uint32_t t = 0; t < trackNames.size(); ++t) {
        while (depth[t] > 0) {
            --depth[t];
            os << ",\n{\"name\": \""
               << (openName[t] ? openName[t] : "?")
               << "\", \"cat\": \"sim\", \"ph\": \"E\", \"pid\": 1, "
                  "\"tid\": " << (t + 1) << ", \"ts\": ";
            printTs(os, lastTs);
            os << '}';
        }
    }

    os << "\n], \"displayTimeUnit\": \"ns\"";
    if (!manifest_json.empty())
        os << ", \"metadata\": {\"fbdp_manifest\": " << manifest_json
           << "}";
    os << "}\n";
}

} // namespace trace
} // namespace fbdp
