#include "prefetch/prefetch_config.hh"

#include "common/logging.hh"
#include "common/parse.hh"

namespace fbdp {

namespace {

/** @p val as a whole-string integer in [@p lo, maxCount]; fatal()s
 *  naming @p key and @p spec otherwise. */
unsigned
specCount(const std::string &key, const std::string &val, long long lo,
          const std::string &spec)
{
    const std::string what =
        csprintf("prefetch spec '%s' key '%s'", spec.c_str(),
                 key.c_str());
    return static_cast<unsigned>(
        requireCount(what.c_str(), val.c_str(), lo,
                     PrefetchConfig::maxCount));
}

} // namespace

PrefetchConfig
PrefetchConfig::parse(const std::string &spec)
{
    PrefetchConfig pc;
    bool entries_set = false;

    std::size_t pos = 0;
    bool first = true;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;

        if (first) {
            first = false;
            if (tok.empty())
                fatal("empty prefetch policy spec");
            if (tok == "region")
                pc.enabled = true;
            else if (tok != "none")
                fatal("unknown prefetch policy '%s' in spec '%s' "
                      "(known: region, none)", tok.c_str(),
                      spec.c_str());
            continue;
        }
        if (tok.empty())
            continue;

        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos)
            fatal("prefetch spec token '%s' is not key=value "
                  "(spec '%s')", tok.c_str(), spec.c_str());
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        if (val.empty())
            fatal("prefetch spec key '%s' has no value (spec '%s')",
                  key.c_str(), spec.c_str());

        if (key == "place") {
            if (val == "amb")
                pc.place = PrefetchPlace::Amb;
            else if (val == "mc")
                pc.place = PrefetchPlace::Mc;
            else
                fatal("prefetch spec key 'place' has value '%s' (known: "
                      "amb, mc; spec '%s')", val.c_str(), spec.c_str());
        } else if (key == "entries") {
            pc.entries = specCount(key, val, 1, spec);
            entries_set = true;
        } else if (key == "ways") {
            pc.ways = specCount(key, val, 0, spec);
        } else {
            fatal("unknown prefetch spec key '%s' (spec '%s'; known: "
                  "place, entries, ways)",
                  key.c_str(), spec.c_str());
        }
    }

    if (!entries_set)
        pc.entries = pc.atMc() ? 256 : 64;

    return pc;
}

} // namespace fbdp
