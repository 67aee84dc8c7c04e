/**
 * @file
 * Digest strings over every deterministic field of a RunResult, for
 * tests that assert two runs are bit-identical.  simDigest() covers
 * the simulated fields (counters, exact doubles via hexfloat,
 * per-channel attribution); kernelLine() the event kernel's counters,
 * which describe how the run was executed rather than what it
 * simulated; digest() is both.  Host-time fields
 * (KernelProfile::hostEventSeconds, warmupCopied and rates derived
 * from them) are left out, since they legitimately vary.
 */

#ifndef FBDP_TESTS_RUN_DIGEST_HH
#define FBDP_TESTS_RUN_DIGEST_HH

#include <iomanip>
#include <sstream>
#include <string>

#include "system/system.hh"

namespace fbdp {

inline void
digestBreakdown(std::ostringstream &os, const ChannelBreakdown &b)
{
    for (unsigned c = 0; c < numLatClasses; ++c) {
        os << " s" << b.cls[c].samples << " t" << b.cls[c].totalTicks;
        for (unsigned p = 0; p < numLatPhases; ++p)
            os << " p" << b.cls[c].phaseTicks[p];
    }
}

/** Every simulated field of @p r, one token stream. */
inline std::string
simDigest(const RunResult &r)
{
    std::ostringstream os;
    os << std::hexfloat; // doubles bit-exact, not rounded
    os << "ticks " << r.measuredTicks << " lat " << r.avgReadLatencyNs
       << " bw " << r.bandwidthGBs << "\n";
    os << "reads " << r.reads << " writes " << r.writes << " ambHits "
       << r.ambHits << " cov " << r.coverage << " eff " << r.efficiency
       << "\n";
    os << "ipc";
    for (double v : r.ipc)
        os << ' ' << v;
    os << "\ninsts";
    for (std::uint64_t v : r.insts)
        os << ' ' << v;
    os << "\nprefetch " << r.prefetch.policy << ' ' << r.prefetch.issued
       << ' ' << r.prefetch.hits << ' ' << r.prefetch.lateHits << ' '
       << r.prefetch.dropped << ' ' << r.prefetch.evictedUnused << ' '
       << r.prefetch.invalidatedUnused << "\n";
    os << "ops " << r.ops.actPre << ' ' << r.ops.rdCas << ' '
       << r.ops.wrCas << ' ' << r.ops.refresh << "\n";
    os << "l2 " << r.l2Misses << ' ' << r.l2Hits << ' '
       << r.swPrefetchesSent << " late " << r.prefetch.lateHits << "\n";
    for (const LatencyClassStats *s :
         {&r.latDemand, &r.latPrefHit, &r.latWrite})
        os << "latclass " << s->samples << ' ' << s->p50Ns << ' '
           << s->p95Ns << ' ' << s->p99Ns << "\n";
    os << "att " << r.attribution.enabled;
    digestBreakdown(os, r.attribution.total);
    for (const ChannelBreakdown &cb : r.attribution.channels)
        digestBreakdown(os, cb);
    for (const CoreCycleBreakdown &core : r.attribution.cores) {
        os << " w" << core.windowTicks;
        for (unsigned i = 0; i < CoreStallAttribution::numReasons; ++i)
            os << " r" << core.stall[i];
    }
    os << "\nruninsts " << r.runInsts << "\n";
    return os.str();
}

/**
 * The event kernel's counters of @p r as one line.  Pool acquire/reuse
 * counters are deliberately absent — the transaction pool is
 * per-thread and process-cumulative, so a second System in the same
 * process reports running totals.
 */
inline std::string
kernelLine(const RunResult &r)
{
    std::ostringstream os;
    os << "kernel " << r.kernel.eventsDispatched << ' '
       << r.kernel.schedules << ' ' << r.kernel.reschedules << ' '
       << r.kernel.deschedules << ' ' << r.kernel.peakQueueDepth << ' '
       << r.kernel.poolHighWater << "\n";
    return os.str();
}

/** simDigest() then kernelLine(): every deterministic field. */
inline std::string
digest(const RunResult &r)
{
    return simDigest(r) + kernelLine(r);
}

} // namespace fbdp

#endif // FBDP_TESTS_RUN_DIGEST_HH
