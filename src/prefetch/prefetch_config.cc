#include "prefetch/prefetch_config.hh"

#include <cctype>
#include <cstdlib>

#include "common/logging.hh"
#include "common/parse.hh"
#include "prefetch/policy.hh"

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
PrefetchConfig::parse(const std::string &spec, const PrefetchConfig &dflt)
{
    PrefetchConfig pc = dflt;

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
            pc.policy = tok;
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

        if (key == "degree") {
            pc.degree = specCount(key, val, 0, spec);
        } else if (key == "entries") {
            pc.entries = specCount(key, val, 1, spec);
        } else if (key == "ways") {
            pc.ways = specCount(key, val, 0, spec);
        } else if (key == "throttle") {
            // A plain decimal: strtod alone would also take blanks,
            // signs, hex and "nan".
            const bool plain = (std::isdigit(static_cast<unsigned char>(
                                    val[0])) || val[0] == '.')
                && val.find_first_not_of("0123456789.eE+-")
                    == std::string::npos;
            char *end = nullptr;
            const double t = std::strtod(val.c_str(), &end);
            if (!plain || *end != '\0' || !(t >= 0.0 && t <= 1.0))
                fatal("prefetch spec key 'throttle' has value '%s' "
                      "outside [0,1] (a plain decimal such as 0.8; "
                      "spec '%s')", val.c_str(), spec.c_str());
            pc.throttle = t;
        } else {
            fatal("unknown prefetch spec key '%s' (spec '%s'; known: "
                  "degree, entries, ways, throttle)",
                  key.c_str(), spec.c_str());
        }
    }

    if (!PolicyRegistry::instance().has(pc.policy)) {
        std::string known;
        for (const auto &n : PolicyRegistry::instance().names()) {
            if (!known.empty())
                known += ", ";
            known += n;
        }
        fatal("unknown prefetch policy '%s' in spec '%s' "
              "(registered: %s)",
              pc.policy.c_str(), spec.c_str(), known.c_str());
    }
    return pc;
}

} // namespace fbdp
