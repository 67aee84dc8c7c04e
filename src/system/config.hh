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
#include "prefetch/prefetch_config.hh"

namespace fbdp {

/** Everything needed to build and run one simulated machine. */
struct SystemConfig
{
    // --- workload ---
    std::vector<std::string> benchmarks;  ///< one per core
    std::uint64_t warmupInsts = 300'000;
    std::uint64_t measureInsts = 1'000'000;
    /**
     * Ops of each core's trace replayed functionally (no timing)
     * through the cache tags before simulation starts, standing in
     * for the warm caches of a SimPoint checkpoint.  0 derives a
     * default from the L2 size and core count (resolvedWarmupOps()).
     */
    std::uint64_t functionalWarmupOps = 0;
    std::uint64_t seed = 1;
    bool swPrefetch = true;

    // --- processor ---
    unsigned rob = 196;
    unsigned lq = 32;
    unsigned sq = 32;

    // --- caches ---
    HierConfig hier;  ///< hier.hwPrefetch: the L2 stream prefetcher

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
     * The prefetch buffer: policy, place and shape ("none", the
     * default, switches it off).  The FBD-AP preset is the spec
     * "region" (place=amb, 64 lines, fully associative); select others
     * with e.g. PrefetchConfig::parse("dspatch,degree=2") or
     * PrefetchConfig::parse("region,place=mc").
     */
    PrefetchConfig prefetch;

    unsigned regionLines = 4;     ///< K of the address interleaving
    bool apFullLatency = false;   ///< APFL analysis mode

    // --- observability ---
    /**
     * Latency-phase attribution: stamp every transaction's phase
     * boundaries and account stall cycles to the phase of the
     * blocking transaction.  Observer-only — enabling it never
     * changes simulation results.
     */
    bool attribution = false;

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
     * Derived controller configuration for one logic channel.
     * fatal()s on a configuration the components cannot build: no
     * channels or DIMMs, a region size K that does not divide a DRAM
     * row, an empty or unevenly divided prefetch buffer, or a
     * prefetch buffer on a machine or interleaving that cannot host
     * it.
     */
    ControllerConfig controllerConfig() const;

    /** Derived address-map configuration. */
    AddressMapConfig addressMapConfig() const;
};

} // namespace fbdp

#endif // FBDP_SYSTEM_CONFIG_HH
