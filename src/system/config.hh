/**
 * @file
 * Whole-system configuration and the paper's preset configurations.
 *
 * Defaults reproduce Table 1 / Table 2 / Section 5's default setting:
 * 4 GHz cores, 64 KB 2-way L1s, a shared 4 MB 4-way L2, two logic
 * channels (each two ganged physical channels) of DDR2-667, four DIMMs
 * per channel, four banks per DIMM, close-page cacheline interleaving,
 * software prefetching on.  The AMB-prefetching preset switches to
 * four-cacheline (multi-cacheline) interleaving with a 64-entry fully
 * associative AMB cache, as in Section 5.2.
 */

#ifndef FBDP_SYSTEM_CONFIG_HH
#define FBDP_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "system/prefetch_config.hh"

namespace fbdp {

/** Everything needed to build and run one simulated machine. */
struct SystemConfig
{
    // --- workload ---
    std::vector<std::string> benchmarks;  ///< one per core
    std::uint64_t warmupInsts = 300'000;
    std::uint64_t measureInsts = 1'000'000;
    /**
     * Trace prefix replayed functionally (no timing) through the
     * cache tags before simulation starts, standing in for the warm
     * caches of a SimPoint checkpoint.  0 derives a default from the
     * L2 size and core count.
     */
    std::uint64_t functionalWarmupOps = 0;
    std::uint64_t seed = 1;
    bool swPrefetch = true;

    // --- processor ---
    unsigned rob = 196;
    unsigned lq = 32;
    unsigned sq = 32;

    // --- caches ---
    HierConfig hier;

    // --- memory subsystem ---
    bool fbd = true;              ///< FB-DIMM vs conventional DDR2
    unsigned logicChannels = 2;   ///< each = two ganged physical ch.
    unsigned dimmsPerChannel = 4;
    unsigned banksPerDimm = 4;
    unsigned dataRate = 667;      ///< MT/s (533 / 667 / 800)
    Interleave scheme = Interleave::Cacheline;
    bool vrl = false;
    unsigned writeDrainHigh = 16;  ///< start draining writes here
    unsigned writeDrainLow = 4;    ///< stop draining here
    bool refreshEnable = true;     ///< DDR2 auto-refresh (tREFI/tRFC)

    // --- DRAM-level prefetching ---
    /**
     * The AMB attachment point: policy + buffer shape of the per-DIMM
     * AMB caches.  The FBD-AP preset is the canned spec
     * "region,entries=64,ways=0"; select other policies with e.g.
     * PrefetchConfig::parse("dspatch,degree=2").
     */
    PrefetchConfig ambPrefetch;
    /**
     * The controller attachment point: prefetches cross the channel
     * into a buffer at the MC (the Section 6 comparison class).
     * Mutually exclusive with ambPrefetch.
     */
    PrefetchConfig mcBufPrefetch{"none", 0, 256, 0, 0.0};

    unsigned regionLines = 4;     ///< K of the address interleaving
    bool apFullLatency = false;   ///< APFL analysis mode

    // --- deprecated prefetch mirrors ---
    // Honoured (with a one-time warning) only while the nested block
    // above is untouched; new code should set ambPrefetch /
    // mcBufPrefetch instead.  Presets keep them in sync so existing
    // readers observe the same values.
    bool apEnable = false;
    unsigned ambEntries = 64;
    unsigned ambWays = 0;         ///< 0 = fully associative
    bool mcPrefetch = false;
    unsigned mcEntries = 256;
    unsigned mcWays = 0;
    /** Hardware stream prefetcher at the L2 (Section 5.4's
     *  speculation). Configure via hier.hwPrefetch for detail. */
    bool hwPrefetch = false;

    // --- observability ---
    /**
     * Latency-phase attribution: stamp every transaction's phase
     * boundaries and account stall cycles to the phase of the
     * blocking transaction.  Observer-only — enabling it never
     * changes simulation results.
     */
    bool attribution = false;

    /**
     * Kernel self-profiling: time every shard round (busy vs mailbox
     * drain) and count the cross-shard mailbox traffic, into
     * KernelProfile::shards.  Observer-only — simulation results are
     * bit-identical with it on or off; the cost is a few clock reads
     * per active shard per round.  Surfaced
     * by `fbdpsim --profile-kernel`, the --stats-json "kernel" block
     * and the kernel.* telemetry gauges.
     */
    bool profileKernel = false;

    /** Unread (every run is serial); perfbench/ still assigns it. */
    unsigned threads = 1;

    /** Number of cores (== benchmarks.size() once assigned). */
    unsigned
    nCores() const
    {
        return static_cast<unsigned>(benchmarks.size());
    }

    /** Conventional DDR2 baseline (Fig. 4/5/6 "DDR2"). */
    static SystemConfig ddr2();

    /** FB-DIMM without AMB prefetching ("FBD"). */
    static SystemConfig fbdBase();

    /** FB-DIMM with AMB prefetching ("FBD-AP", Section 5.2 default). */
    static SystemConfig fbdAp();

    /**
     * ambPrefetch with the deprecated mirrors folded in: when the
     * nested block is disabled but the legacy apEnable flag is set,
     * the legacy fields are honoured as a region policy (and a
     * one-time deprecation warning is emitted).
     */
    PrefetchConfig resolvedAmbPrefetch() const;

    /** mcBufPrefetch with the deprecated mirrors folded in. */
    PrefetchConfig resolvedMcPrefetch() const;

    /**
     * Derived controller configuration for one logic channel.
     * fatal()s on a configuration the components cannot build: no
     * channels or DIMMs, a region size K that does not divide a DRAM
     * row, an empty or unevenly divided prefetch buffer, or prefetching
     * on a machine or interleaving that cannot support it.
     */
    ControllerConfig controllerConfig() const;

    /** Derived address-map configuration. */
    AddressMapConfig addressMapConfig() const;
};

} // namespace fbdp

#endif // FBDP_SYSTEM_CONFIG_HH
