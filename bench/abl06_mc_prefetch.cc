/**
 * @file
 * Ablation A6: AMB prefetching vs controller-level prefetching.
 *
 * Section 6 of the paper positions AMB prefetching against the class
 * of designs that prefetch from DRAM *into the memory controller*
 * (Lin, Reinhardt and Burger [13]): those serve hits with an even
 * shorter latency, but every prefetched line crosses the processor-
 * side channel, spending exactly the bandwidth that gets scarce with
 * more cores.  This bench measures both on identical region fetching.
 *
 * Expected shape: MC prefetching competitive (or ahead, thanks to the
 * lower hit latency) at one core; AMB prefetching pulls ahead as the
 * channel saturates.
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
abl06(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    auto mcp = [&] {
        SystemConfig c = SystemConfig::fbdBase();
        c.scheme = Interleave::MultiCacheline;
        c.prefetch = PrefetchConfig::parse("region,place=mc");
        return p.prep(c);
    };

    os << "== Ablation A6: prefetch destination — AMB cache "
          "vs memory controller ==\n\n";

    TextTable t({"cores", "FBD", "FBD-MCP", "FBD-AP", "MCP GB/s",
                 "AP GB/s", "MCP cover", "AP cover"});
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        double f = 0, m = 0, a = 0;
        double m_bw = 0, a_bw = 0, m_cov = 0, a_cov = 0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            f += p.run(p.prep(SystemConfig::fbdBase()), mix).ipcSum();
            RunResult rm = p.run(mcp(), mix);
            RunResult ra = p.run(p.prep(SystemConfig::fbdAp()), mix);
            m += rm.ipcSum();
            a += ra.ipcSum();
            m_bw += rm.bandwidthGBs;
            a_bw += ra.bandwidthGBs;
            m_cov += rm.coverage;
            a_cov += ra.coverage;
            ++n;
        }
        t.addRow({std::to_string(cores), fmtD(f / n), fmtD(m / n),
                  fmtD(a / n), fmtD(m_bw / n, 1), fmtD(a_bw / n, 1),
                  fmtPct(m_cov / n), fmtPct(a_cov / n)});
    }
    t.print(os);
    os << "\nMCP bandwidth includes its prefetch transfers; AP "
          "keeps them behind the AMBs.\n";
}
