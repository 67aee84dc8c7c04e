/**
 * @file
 * PolicyRegistry: the string-keyed factory table behind the policy
 * name of a --prefetch spec.
 */

#include "prefetch/policy.hh"

#include <algorithm>

#include "common/logging.hh"
#include "prefetch/dspatch_policy.hh"
#include "prefetch/indram_policy.hh"
#include "prefetch/region_policy.hh"

namespace fbdp {

namespace {

/** The degenerate policy: trains on nothing, emits nothing. */
class NonePolicy : public PrefetchPolicy
{
  public:
    using PrefetchPolicy::PrefetchPolicy;

    const char *name() const override { return "none"; }

    void
    onMiss(const PrefetchAccess &, CandidateList &) override
    {
    }

  protected:
    unsigned defaultDegree() const override { return 0; }
};

template <class P>
PolicyFactory
factoryOf()
{
    return [](const PolicyParams &prm) -> std::unique_ptr<PrefetchPolicy> {
        return std::make_unique<P>(prm);
    };
}

} // namespace

PolicyRegistry::PolicyRegistry()
{
    // Built-ins registered eagerly so names() is complete from the
    // first call; external policies come in through add().
    add("none", factoryOf<NonePolicy>());
    add("region", factoryOf<RegionPolicy>());
    add("dspatch", factoryOf<DSPatchPolicy>());
    add("indram", factoryOf<InDramPolicy>());
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry reg;
    return reg;
}

void
PolicyRegistry::add(const std::string &name, PolicyFactory factory)
{
    if (has(name))
        fatal("duplicate prefetch policy '%s'", name.c_str());
    entries.push_back({name, std::move(factory)});
}

bool
PolicyRegistry::has(const std::string &name) const
{
    for (const auto &e : entries)
        if (e.name == name)
            return true;
    return false;
}

std::unique_ptr<PrefetchPolicy>
PolicyRegistry::make(const std::string &name,
                     const PolicyParams &params) const
{
    for (const auto &e : entries)
        if (e.name == name)
            return e.factory(params);

    std::string known;
    for (const auto &e : entries) {
        if (!known.empty())
            known += ", ";
        known += e.name;
    }
    fatal("unknown prefetch policy '%s' (registered: %s)",
          name.c_str(), known.c_str());
    return nullptr;
}

std::vector<std::string>
PolicyRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &e : entries)
        out.push_back(e.name);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace fbdp
