/**
 * @file
 * The paper's region scheme as a PrefetchPolicy: on every qualifying
 * demand miss, fetch the rest of the K-line region the demand maps
 * to.  Stateless — the region group IS the prediction, which is what
 * makes the one-ACT + K-CAS group fetch possible at the DIMM.
 */

#ifndef FBDP_PREFETCH_REGION_POLICY_HH
#define FBDP_PREFETCH_REGION_POLICY_HH

#include "prefetch/policy.hh"

namespace fbdp {

class RegionPolicy : public PrefetchPolicy
{
  public:
    using PrefetchPolicy::PrefetchPolicy;

    const char *name() const override { return "region"; }

    void
    onMiss(const PrefetchAccess &access, CandidateList &out) override
    {
        // Ascending address order, demanded line skipped: the order
        // in which the buffer takes the lines, and so their FIFO ages.
        // The controller re-orders the actual CAS stream into
        // wrap-around critical-word-first order.
        for (unsigned off = 0; off < access.regionLines; ++off) {
            const Addr la =
                access.regionBase +
                static_cast<Addr>(off) * lineBytes;
            if (la != access.lineAddr)
                out.add(la);
        }
    }
};

} // namespace fbdp

#endif // FBDP_PREFETCH_REGION_POLICY_HH
