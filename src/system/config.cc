#include "system/config.hh"

#include "common/logging.hh"

namespace fbdp {

SystemConfig
SystemConfig::ddr2()
{
    SystemConfig c;
    c.fbd = false;
    c.scheme = Interleave::Cacheline;
    return c;
}

SystemConfig
SystemConfig::fbdBase()
{
    SystemConfig c;
    c.fbd = true;
    c.scheme = Interleave::Cacheline;
    return c;
}

SystemConfig
SystemConfig::fbdAp()
{
    SystemConfig c;
    c.fbd = true;
    c.scheme = Interleave::MultiCacheline;
    c.regionLines = 4;
    c.prefetch.policy = "region";
    return c;
}

namespace {

/** Most logic channels or DIMMs per channel a machine may have: far
 *  past any FB-DIMM system, short of exhausting host memory. */
constexpr unsigned maxTopology = 1024;

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
    if (prefetch.enabled()) {
        const char *where = prefetch.atMc() ? "controller" : "AMB";
        if (!fbd && !prefetch.atMc())
            fatal("AMB prefetching requires FB-DIMM");
        if (scheme == Interleave::Cacheline)
            fatal("%s prefetching needs multi-cacheline or page "
                  "interleaving (Section 3.2)", where);
        if (prefetch.entries < 1
            || prefetch.entries > PrefetchConfig::maxCount)
            fatal("%s prefetch buffer needs 1 to %u entries, not %u",
                  where, PrefetchConfig::maxCount, prefetch.entries);
        if (prefetch.ways != 0 && prefetch.entries % prefetch.ways != 0)
            fatal("%s prefetch buffer: %u entries not divisible by %u "
                  "ways", where, prefetch.entries, prefetch.ways);
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
    cc.prefetch = prefetch;
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
