/**
 * @file
 * DSPatch-style dual spatial bit-pattern prefetching (Bera et al.,
 * MICRO 2019, arxiv 1910.03075), adapted to the FB-DIMM group-fetch
 * constraint: predicted lines must share the demand's K-line region
 * so they can ride its activation.
 *
 * Per trigger signature the policy learns TWO bit-patterns over the
 * region's line offsets: a coverage pattern (CovP, OR of every
 * observed program footprint — biased towards catching more hits) and
 * an accuracy pattern (AccP, AND — biased towards wasting no
 * bandwidth).  At prediction time the northbound-link utilisation
 * picks between them: plenty of headroom → CovP, congested → AccP.
 * Untrained signatures fall back to next-line inside the region.
 */

#ifndef FBDP_PREFETCH_DSPATCH_POLICY_HH
#define FBDP_PREFETCH_DSPATCH_POLICY_HH

#include <cstdint>

#include "prefetch/policy.hh"

namespace fbdp {

class DSPatchPolicy : public PrefetchPolicy
{
  public:
    explicit DSPatchPolicy(const PolicyParams &params);

    const char *name() const override { return "dspatch"; }

    void onMiss(const PrefetchAccess &access, CandidateList &out) override;
    void onHit(const PrefetchAccess &access) override;
    void onConvert(const PrefetchAccess &access,
                   CandidateList &out) override;
    void reset() override;

    /** Link utilisation at which prediction switches CovP → AccP. */
    static constexpr double accuracyModeUtil = 0.60;

  private:
    /** One learned signature: the dual patterns. */
    struct PatternEntry
    {
        std::uint32_t sig = 0;
        std::uint16_t covPattern = 0;
        std::uint16_t accPattern = 0;
        bool trained = false;
    };

    /** An in-flight region accumulating its access footprint. */
    struct TrackerEntry
    {
        Addr regionBase = 0;
        std::uint32_t sig = 0;
        std::uint16_t bits = 0;
        std::uint64_t fifoSeq = 0;
        bool valid = false;
    };

    static constexpr unsigned patternEntries = 64;
    static constexpr unsigned trackerEntries = 32;

    std::uint32_t signatureOf(const PrefetchAccess &access) const;
    void observe(const PrefetchAccess &access);
    void commit(TrackerEntry &te);
    void predict(const PrefetchAccess &access, CandidateList &out);

    PatternEntry patterns[patternEntries];
    TrackerEntry tracker[trackerEntries];
    std::uint64_t nextSeq = 0;
};

} // namespace fbdp

#endif // FBDP_PREFETCH_DSPATCH_POLICY_HH
