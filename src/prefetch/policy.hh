/**
 * @file
 * The prefetch-policy plug-in interface and its registry.
 *
 * A PrefetchPolicy decides *which* lines to prefetch; it owns no
 * storage.  The buffer (the AMB cache / MC prefetch buffer, modelled
 * by PrefetchTable) and the fetch mechanism (the region group fetch:
 * one activation plus pipelined column accesses) belong to the
 * controller.  The split is the paper's hardware split: the policy is
 * the prediction logic in the controller's prefetch information
 * table; the AMB SRAM is dumb storage.
 *
 * Hook contract (all calls come from the owning controller):
 *  - onMiss(access, out)  train on a demand read that missed the
 *    buffer and emit candidate lines into @p out.  Candidates must
 *    lie inside the access's K-line region (they ride the demand's
 *    activation as extra pipelined CASes; a line in another row
 *    cannot).  Out-of-region, duplicate and demanded-line candidates
 *    are dropped — and counted — by the controller.
 *  - onHit(access)        train on a demand read served by the buffer.
 *  - onFill(dimm, line, ready_at)  a previously emitted candidate's
 *    data reached the buffer SRAM (train-on-fill).
 *  - onEvict(dimm, line, used)  a buffered line was dropped, either
 *    by capacity replacement or by a write invalidation; @p used says
 *    whether it ever serviced a demand.
 *  - onConvert(access, out)  a hit lost its line before service and
 *    is being re-issued as a miss; re-emit candidates WITHOUT
 *    training (the access was already trained as a hit).
 *
 * Degree/throttle contract: a policy never emits more than degree()
 * candidates per demand (CandidateList enforces the hard cap).  The
 * controller additionally suppresses all candidates while the
 * northbound-link utilisation exceeds the configured throttle
 * threshold; policies can also self-throttle through
 * PrefetchAccess::linkUtil (DSPatch's coverage-vs-accuracy switch).
 *
 * Determinism: policies must be pure functions of their construction
 * parameters and the hook sequence — no host state, no randomness.
 * The conformance suite (tests/test_policy.cc) checks this for every
 * registered policy.
 */

#ifndef FBDP_PREFETCH_POLICY_HH
#define FBDP_PREFETCH_POLICY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace fbdp {

/** What a policy sees of one demand access. */
struct PrefetchAccess
{
    Addr lineAddr = 0;       ///< line-aligned demanded address
    Addr regionBase = 0;     ///< base of the K-line region
    unsigned regionLines = 4;///< K: lines per region
    unsigned dimm = 0;       ///< DIMM the access maps to
    int coreId = -1;
    bool swPrefetch = false; ///< generated by a software prefetch
    Tick now = 0;
    /**
     * Smoothed northbound-link busy fraction since the last stats
     * reset (0 when the controller cannot tell yet).  The bandwidth
     * headroom signal for self-throttling policies.
     */
    double linkUtil = 0.0;
};

/**
 * Fixed-capacity candidate sink: no allocation on the hot path, and
 * the degree cap is structural — add() beyond the cap is dropped and
 * counted rather than UB.
 */
class CandidateList
{
  public:
    /** Hard cap on candidates per demand (Transaction mirrors it). */
    static constexpr unsigned cap = 15;

    explicit CandidateList(unsigned limit = cap)
        : lim(limit < cap ? limit : cap)
    {
    }

    void
    add(Addr line_addr)
    {
        if (n < lim)
            addrs[n++] = line_addr;
        else
            ++nDropped;
    }

    unsigned size() const { return n; }
    bool empty() const { return n == 0; }
    Addr operator[](unsigned i) const { return addrs[i]; }
    unsigned dropped() const { return nDropped; }
    void clear() { n = 0; nDropped = 0; }

  private:
    Addr addrs[cap];
    unsigned n = 0;
    unsigned lim = cap;
    unsigned nDropped = 0;
};

/** Construction parameters common to every policy. */
struct PolicyParams
{
    unsigned regionLines = 4; ///< K of the address interleaving
    /** Max candidates per demand; 0 = the policy's own default. */
    unsigned degree = 0;
    unsigned nDimms = 1;      ///< DIMMs on the buffer's channel
    /**
     * Northbound-utilisation ceiling in [0,1]; above it the
     * controller drops every candidate.  0 disables throttling.
     */
    double throttle = 0.0;
};

/** Candidate-selection policy of one prefetch buffer. */
class PrefetchPolicy
{
  public:
    explicit PrefetchPolicy(const PolicyParams &params) : prm(params) {}
    virtual ~PrefetchPolicy() = default;

    PrefetchPolicy(const PrefetchPolicy &) = delete;
    PrefetchPolicy &operator=(const PrefetchPolicy &) = delete;

    /** Registry key this instance was created under. */
    virtual const char *name() const = 0;

    /** Train on a buffer miss and emit candidates (see file header
     *  for the emission rules). */
    virtual void onMiss(const PrefetchAccess &access,
                        CandidateList &out) = 0;

    /** Train on a demand read served by the buffer. */
    virtual void onHit(const PrefetchAccess &access) { (void)access; }

    /** A candidate's data reached the buffer SRAM. */
    virtual void
    onFill(unsigned dimm, Addr line_addr, Tick ready_at)
    {
        (void)dimm;
        (void)line_addr;
        (void)ready_at;
    }

    /** A buffered line was dropped (eviction or write invalidation). */
    virtual void
    onEvict(unsigned dimm, Addr line_addr, bool used)
    {
        (void)dimm;
        (void)line_addr;
        (void)used;
    }

    /** Re-emit for a hit that lost its line; default re-runs onMiss
     *  (correct for stateless policies — stateful ones override to
     *  avoid double training). */
    virtual void
    onConvert(const PrefetchAccess &access, CandidateList &out)
    {
        onMiss(access, out);
    }

    /** Forget all learned state (not the construction parameters). */
    virtual void reset() {}

    /** Resolved per-demand candidate limit. */
    unsigned
    degree() const
    {
        const unsigned dflt = defaultDegree();
        unsigned d = prm.degree ? prm.degree : dflt;
        return d < CandidateList::cap ? d : CandidateList::cap;
    }

    const PolicyParams &params() const { return prm; }

  protected:
    /** Per-policy default when PolicyParams::degree is 0. */
    virtual unsigned defaultDegree() const { return prm.regionLines - 1; }

    PolicyParams prm;
};

/** Factory signature stored in the registry. */
using PolicyFactory =
    std::function<std::unique_ptr<PrefetchPolicy>(const PolicyParams &)>;

/**
 * String-keyed factory table.  Built-ins ("region", "dspatch",
 * "indram", "none") self-register on first use; extensions call
 * add() before building their System and need never touch the
 * controller.
 */
class PolicyRegistry
{
  public:
    /** The process-wide registry (built-ins already registered). */
    static PolicyRegistry &instance();

    /** Register @p factory under @p name; fatal()s on a duplicate. */
    void add(const std::string &name, PolicyFactory factory);

    /** True iff @p name is registered. */
    bool has(const std::string &name) const;

    /** Instantiate @p name; fatal()s on an unknown name (the message
     *  lists what is registered). */
    std::unique_ptr<PrefetchPolicy>
    make(const std::string &name, const PolicyParams &params) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    PolicyRegistry();

    struct Entry
    {
        std::string name;
        PolicyFactory factory;
    };
    std::vector<Entry> entries;
};

} // namespace fbdp

#endif // FBDP_PREFETCH_POLICY_HH
