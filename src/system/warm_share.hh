/**
 * @file
 * The functional warm-up, shared: concurrent runs that would replay
 * the same warm-up compute it once.
 *
 * Phase 0 of System::run() replays a prefix of every core's synthetic
 * trace through the cache tags (functionalWarmup()).  It reads only
 * the generators and the tag arrays, so every memory configuration of
 * one mix reaches the same warm state.  warmOnce() lets runs that
 * reach phase 0 while another run with the same WarmKey is computing
 * it wait and copy the result instead, the way the paper's
 * configurations all start from one SimPoint checkpoint.  Sharing
 * lasts only while a warm-up is in flight: nothing is cached, and
 * nothing outlives the runs involved.
 */

#ifndef FBDP_SYSTEM_WARM_SHARE_HH
#define FBDP_SYSTEM_WARM_SHARE_HH

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "system/config.hh"
#include "workload/generator.hh"

namespace fbdp {

/**
 * Exactly the inputs phase 0 reads.  The core count and each core's
 * address slice and generator seed follow from these; memory-side
 * fields (machine, channels, prefetch buffer, threads, attribution)
 * are not read and so are not part of the key.
 */
struct WarmKey
{
    std::vector<std::string> benchmarks;  ///< one profile per core
    std::uint64_t seed = 0;
    bool swPrefetch = false;
    std::uint64_t l1Bytes = 0;
    unsigned l1Ways = 0;
    std::uint64_t l2Bytes = 0;
    unsigned l2Ways = 0;
    std::uint64_t warmupOps = 0;  ///< resolved ops per core

    auto operator<=>(const WarmKey &) const = default;
};

/**
 * Functional warm-up ops per core of @p cfg: cfg.functionalWarmupOps
 * or, when that is 0, twenty ops per L2 line split over the cores.
 * At roughly one install per ten ops, that installs about twice the
 * L2's capacity in all.
 */
std::uint64_t resolvedWarmupOps(const SystemConfig &cfg);

/**
 * Phase 0 of System::run(): replay @p ops warm-up ops of each of
 * @p gens (core i draws from gens[i]) through @p hier's tags, round
 * by round: op k of every core in core order, then op k + 1.
 */
void functionalWarmup(std::span<const std::unique_ptr<Generator>> gens,
                      CacheHierarchy &hier, std::uint64_t ops);

/** The warm-up key of @p cfg, or nothing when a core replays a trace
 *  (trace generators hold stream positions and never share). */
std::optional<WarmKey> warmKeyOf(const SystemConfig &cfg);

/** The state phase 0 leaves behind: one generator per core plus the
 *  cache hierarchy's tag arrays. */
struct WarmState
{
    std::vector<SyntheticGenerator *> gens;
    CacheHierarchy *hier = nullptr;
};

/**
 * Bring @p mine to the warm state of @p key.
 *
 * The first caller for a key runs @p compute on its own state; callers
 * with that key arriving while it runs block until it ends and then
 * copy its generators and tag arrays, while the computing caller waits
 * for their copies to finish.  The slot closes when @p compute
 * returns, so a later caller computes afresh.  If @p compute throws,
 * the exception propagates to its caller and the waiting callers
 * compute their own.
 *
 * @return true when @p mine was copied from another caller.
 */
bool warmOnce(const WarmKey &key, const WarmState &mine,
              const std::function<void()> &compute);

/** Warm-ups currently in flight (0 whenever no warmOnce() runs). */
std::size_t warmSharesInFlight();

/** Callers waiting on the in-flight warm-up of @p key. */
unsigned warmShareWaiters(const WarmKey &key);

} // namespace fbdp

#endif // FBDP_SYSTEM_WARM_SHARE_HH
