#include "system/config.hh"

#include "common/logging.hh"

namespace fbdp {

SystemConfig
SystemConfig::ddr2()
{
    SystemConfig c;
    c.fbd = false;
    c.scheme = Interleave::Cacheline;
    c.apEnable = false;
    return c;
}

SystemConfig
SystemConfig::fbdBase()
{
    SystemConfig c;
    c.fbd = true;
    c.scheme = Interleave::Cacheline;
    c.apEnable = false;
    return c;
}

SystemConfig
SystemConfig::fbdAp()
{
    SystemConfig c;
    c.fbd = true;
    c.scheme = Interleave::MultiCacheline;
    c.regionLines = 4;
    // The canned FBD-AP spec; the deprecated mirrors are kept in sync
    // so legacy readers observe the same values.
    c.ambPrefetch = PrefetchConfig{"region", 0, 64, 0, 0.0};
    c.apEnable = true;
    c.ambEntries = 64;
    c.ambWays = 0;
    return c;
}

namespace {

/** One-time deprecation nag for the pre-PrefetchConfig fields. */
void
warnLegacyPrefetchFields(const char *which)
{
    static bool warned = false;
    if (warned)
        return;
    warned = true;
    warn("SystemConfig::%s and its companion fields are deprecated; "
         "set SystemConfig::ambPrefetch / mcBufPrefetch (e.g. "
         "PrefetchConfig::parse(\"region,entries=64\")) instead",
         which);
}

} // namespace

PrefetchConfig
SystemConfig::resolvedAmbPrefetch() const
{
    PrefetchConfig ap = ambPrefetch;
    if (!ap.enabled() && apEnable) {
        // Only the legacy mirror enables it: honour the legacy
        // buffer-shape fields as the paper's region scheme.
        warnLegacyPrefetchFields("apEnable");
        ap.policy = "region";
        ap.entries = ambEntries;
        ap.ways = ambWays;
        ap.degree = 0;
        ap.throttle = 0.0;
    }
    return ap;
}

PrefetchConfig
SystemConfig::resolvedMcPrefetch() const
{
    PrefetchConfig mp = mcBufPrefetch;
    if (!mp.enabled() && mcPrefetch) {
        warnLegacyPrefetchFields("mcPrefetch");
        mp.policy = "region";
        mp.entries = mcEntries;
        mp.ways = mcWays;
        mp.degree = 0;
        mp.throttle = 0.0;
    }
    return mp;
}

namespace {

/** Most logic channels or DIMMs per channel a machine may have: far
 *  past any FB-DIMM system, short of exhausting host memory. */
constexpr unsigned maxTopology = 1024;

/** fatal()s unless @p pc's buffer can be built (AmbCache's shape). */
void
checkBufferShape(const char *point, const PrefetchConfig &pc)
{
    if (pc.entries < 1 || pc.entries > PrefetchConfig::maxCount)
        fatal("%s prefetch buffer needs 1 to %u entries, not %u",
              point, PrefetchConfig::maxCount, pc.entries);
    if (pc.ways != 0 && pc.entries % pc.ways != 0)
        fatal("%s prefetch buffer: %u entries not divisible by %u "
              "ways", point, pc.entries, pc.ways);
}

} // namespace

ControllerConfig
SystemConfig::controllerConfig() const
{
    if (logicChannels < 1 || logicChannels > maxTopology
        || dimmsPerChannel < 1 || dimmsPerChannel > maxTopology
        || banksPerDimm < 1)
        fatal("unsupported DRAM topology: %u channels, %u DIMMs per "
              "channel, %u banks per DIMM (channels and DIMMs must be "
              "in [1, %u])", logicChannels, dimmsPerChannel,
              banksPerDimm, maxTopology);
    const unsigned row_lines = addressMapConfig().rowBytes / lineBytes;
    if (regionLines < 1 || row_lines % regionLines != 0)
        fatal("region size K=%u must divide the %u lines of a DRAM row",
              regionLines, row_lines);
    const PrefetchConfig ap = resolvedAmbPrefetch();
    const PrefetchConfig mp = resolvedMcPrefetch();
    if (ap.enabled()) {
        if (!fbd)
            fatal("AMB prefetching requires FB-DIMM");
        if (scheme == Interleave::Cacheline)
            fatal("AMB prefetching needs multi-cacheline or page "
                  "interleaving (Section 3.2)");
        checkBufferShape("AMB", ap);
    }
    if (mp.enabled()) {
        if (ap.enabled())
            fatal("mcPrefetch and apEnable are exclusive");
        if (scheme == Interleave::Cacheline)
            fatal("controller prefetching needs region-preserving "
                  "interleaving too");
        checkBufferShape("controller", mp);
    }
    ControllerConfig cc;
    cc.fbd = fbd;
    cc.nDimms = dimmsPerChannel;
    cc.banksPerDimm = banksPerDimm;
    cc.timing = DramTiming::forDataRate(dataRate);
    if (!fbd) {
        // Command path of the conventional DDR2 channel: a register
        // buffering cycle (the AMB plays this role on FB-DIMM, costed
        // via the chain delay) plus 2T command timing, which stub-bus
        // channels loaded with four DIMMs need for signal integrity.
        cc.cmdDelay = nsToTicks(3) + 2 * cc.timing.memCycle;
    }
    cc.vrl = vrl;
    cc.writeDrainHigh = writeDrainHigh;
    cc.writeDrainLow = writeDrainLow;
    cc.refreshEnable = refreshEnable;
    cc.openPage = (scheme == Interleave::Page);
    cc.regionLines = regionLines;
    cc.apFullLatency = apFullLatency;
    cc.apEnable = ap.enabled();
    cc.apPolicy = ap.policy;
    cc.apDegree = ap.degree;
    cc.apThrottle = ap.throttle;
    cc.ambEntries = ap.entries;
    cc.ambWays = ap.ways;
    cc.mcPrefetch = mp.enabled();
    cc.mcPolicy = mp.policy;
    cc.mcDegree = mp.degree;
    cc.mcThrottle = mp.throttle;
    cc.mcEntries = mp.entries;
    cc.mcWays = mp.ways;
    return cc;
}

AddressMapConfig
SystemConfig::addressMapConfig() const
{
    AddressMapConfig mc;
    mc.channels = logicChannels;
    mc.dimmsPerChannel = dimmsPerChannel;
    mc.banksPerDimm = banksPerDimm;
    mc.regionLines = regionLines;
    mc.scheme = scheme;
    return mc;
}

} // namespace fbdp
