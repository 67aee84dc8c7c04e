/**
 * @file
 * Figure 13: DRAM device power with AMB prefetching, normalised to
 * FB-DIMM without prefetching, for region sizes K = 2/4/8, buffer
 * sizes 32/64/128 and associativities 1/2/4/full, per group.
 *
 * The power model follows Section 5.5: an activate/precharge pair
 * costs ~4x the dynamic energy of one column access (Micron DDR2
 * calculator at 70 % utilisation, close page); power is the simulated
 * operation mix divided by the measured run time.
 *
 * Shape targets: large savings for single-core (paper: ~30 % at K=4),
 * ~15 % averages; aggressive K=8 at eight cores can *increase* power
 * (the paper reports +12.7 %) because extra column accesses outgrow
 * the saved activations.
 */

#include <ostream>

#include "power/power_model.hh"
#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
fig13(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    struct Variant {
        const char *name;
        unsigned k, entries, ways;
    };
    const Variant variants[] = {
        {"#CL=2", 2, 64, 0},
        {"#CL=4", 4, 64, 0},
        {"#CL=8", 8, 64, 0},
        {"#entry=32", 4, 32, 0},
        {"#entry=128", 4, 128, 0},
        {"4-way", 4, 64, 4},
    };

    PowerModel pm;

    os << "== Figure 13: normalised DRAM dynamic power of AMB "
          "prefetching ==\n(relative to FB-DIMM without "
          "prefetching; < 1.0 is a saving)\n\n";

    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        TextTable t({"variant", "rel. dynamic energy", "ACT/PRE",
                     "CAS", "rel. total power"});
        for (const auto &v : variants) {
            double rel = 0.0, rel_tot = 0.0;
            double d_act = 0.0, d_cas = 0.0;
            unsigned n = 0;
            for (const auto &mix : mixesFor(cores)) {
                RunResult base =
                    p.run(p.prep(SystemConfig::fbdBase()), mix);
                SystemConfig c = p.prep(SystemConfig::fbdAp());
                c.regionLines = v.k;
                c.prefetch.entries = v.entries;
                c.prefetch.ways = v.ways;
                RunResult ap = p.run(c, mix);
                rel += pm.relativeDynamicEnergy(
                    ap.ops, ap.totalInsts(), base.ops,
                    base.totalInsts());
                rel_tot += pm.relativeTotalPower(
                    ap.ops, ap.measuredTicks, base.ops,
                    base.measuredTicks);
                // Operation-count ratios (per instruction of work).
                const double tb = base.totalInsts();
                const double ta = ap.totalInsts();
                d_act += (static_cast<double>(ap.ops.actPre) / ta)
                    / (static_cast<double>(base.ops.actPre) / tb);
                d_cas += (static_cast<double>(ap.ops.cas()) / ta)
                    / (static_cast<double>(base.ops.cas()) / tb);
                ++n;
            }
            t.addRow({v.name, fmtD(rel / n), fmtD(d_act / n),
                      fmtD(d_cas / n), fmtD(rel_tot / n)});
        }
        os << cores << "-core average\n";
        t.print(os);
        os << "\n";
    }
}
