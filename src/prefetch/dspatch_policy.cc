/**
 * @file
 * DSPatchPolicy implementation.  Everything is fixed-size and
 * deterministic: direct-mapped pattern table, FIFO region tracker, no
 * randomness — identical hook sequences give identical predictions.
 */

#include "prefetch/dspatch_policy.hh"

namespace fbdp {

DSPatchPolicy::DSPatchPolicy(const PolicyParams &params)
    : PrefetchPolicy(params)
{
}

void
DSPatchPolicy::reset()
{
    for (auto &p : patterns)
        p = PatternEntry{};
    for (auto &t : tracker)
        t = TrackerEntry{};
    nextSeq = 0;
}

std::uint32_t
DSPatchPolicy::signatureOf(const PrefetchAccess &access) const
{
    // No PC at the memory controller: approximate DSPatch's
    // PC+offset signature with core x trigger-offset, the two access
    // properties that survive to this level.
    const std::uint32_t off = static_cast<std::uint32_t>(
        (access.lineAddr - access.regionBase) / lineBytes);
    const std::uint32_t core =
        static_cast<std::uint32_t>(access.coreId < 0 ? 0
                                                     : access.coreId);
    return core * 31u + off;
}

void
DSPatchPolicy::commit(TrackerEntry &te)
{
    if (!te.valid || te.bits == 0)
        return;
    PatternEntry &pe = patterns[te.sig % patternEntries];
    if (pe.sig != te.sig || !pe.trained) {
        // New (or conflicting) signature: both patterns start from
        // this footprint.
        pe.sig = te.sig;
        pe.covPattern = te.bits;
        pe.accPattern = te.bits;
        pe.trained = true;
    } else {
        pe.covPattern |= te.bits;   // anything ever touched
        pe.accPattern &= te.bits;   // only what is always touched
    }
    te.valid = false;
}

void
DSPatchPolicy::observe(const PrefetchAccess &access)
{
    const unsigned off = static_cast<unsigned>(
        (access.lineAddr - access.regionBase) / lineBytes);
    const std::uint16_t bit =
        static_cast<std::uint16_t>(1u << (off & 15u));

    // Already tracking this region?  Accumulate and return.
    for (auto &te : tracker) {
        if (te.valid && te.regionBase == access.regionBase) {
            te.bits |= bit;
            return;
        }
    }

    // New region: evict the oldest tracker entry into the pattern
    // table (its footprint is complete as far as we can tell) and
    // start tracking with this access as the trigger.
    TrackerEntry *victim = nullptr;
    for (auto &te : tracker) {
        if (!te.valid) {
            victim = &te;
            break;
        }
        if (!victim || te.fifoSeq < victim->fifoSeq)
            victim = &te;
    }
    commit(*victim);
    victim->regionBase = access.regionBase;
    victim->sig = signatureOf(access);
    victim->bits = bit;
    victim->fifoSeq = nextSeq++;
    victim->valid = true;
}

void
DSPatchPolicy::predict(const PrefetchAccess &access, CandidateList &out)
{
    const unsigned k = access.regionLines;
    const unsigned demand_off = static_cast<unsigned>(
        (access.lineAddr - access.regionBase) / lineBytes);

    const std::uint32_t sig = signatureOf(access);
    const PatternEntry &pe = patterns[sig % patternEntries];

    std::uint16_t bits = 0;
    if (pe.trained && pe.sig == sig) {
        bits = access.linkUtil >= accuracyModeUtil ? pe.accPattern
                                                   : pe.covPattern;
    } else if (demand_off + 1 < k) {
        // Untrained: next line inside the region.
        bits = static_cast<std::uint16_t>(1u << (demand_off + 1));
    }

    for (unsigned off = 0; off < k && off < 16; ++off) {
        if (off == demand_off || !(bits & (1u << off)))
            continue;
        out.add(access.regionBase +
                static_cast<Addr>(off) * lineBytes);
    }
}

void
DSPatchPolicy::onMiss(const PrefetchAccess &access, CandidateList &out)
{
    observe(access);
    predict(access, out);
}

void
DSPatchPolicy::onHit(const PrefetchAccess &access)
{
    // Hits are part of the program's footprint too; without them the
    // accuracy pattern would decay to just the trigger line.
    observe(access);
}

void
DSPatchPolicy::onConvert(const PrefetchAccess &access, CandidateList &out)
{
    // Re-issue after a lost in-flight hit: predict again but do not
    // re-observe — the access was already trained via onHit().
    predict(access, out);
}

} // namespace fbdp
