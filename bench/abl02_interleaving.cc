/**
 * @file
 * Ablation A2: interleaving schemes.  Compares, on FB-DIMM without
 * prefetching, cacheline interleaving (close page), multi-cacheline
 * interleaving (close page) and page interleaving (open page); and,
 * with AMB prefetching, multi-cacheline vs page-interleaved regions
 * (the two schemes Figure 2 describes for AP).
 */

#include <ostream>

#include "system/metrics.hh"
#include "system/runner.hh"
#include "workload/mixes.hh"

void
abl02(fbdp::PaperRun &p, std::ostream &os)
{
    using namespace fbdp;

    auto prep = [&](SystemConfig c, Interleave s) {
        c = p.prep(c);
        c.scheme = s;
        return c;
    };

    os << "== Ablation A2: DRAM interleaving schemes ==\n"
       << "throughput (sum of IPCs), group averages\n\n";

    TextTable t({"cores", "FBD line", "FBD multi-line", "FBD page",
                 "AP multi-line", "AP page"});
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        double line = 0, multi = 0, page = 0, apm = 0, app = 0;
        unsigned n = 0;
        for (const auto &mix : mixesFor(cores)) {
            line += p.run(prep(SystemConfig::fbdBase(),
                               Interleave::Cacheline), mix).ipcSum();
            multi += p.run(prep(SystemConfig::fbdBase(),
                                Interleave::MultiCacheline),
                           mix).ipcSum();
            page += p.run(prep(SystemConfig::fbdBase(),
                               Interleave::Page), mix).ipcSum();
            apm += p.run(prep(SystemConfig::fbdAp(),
                              Interleave::MultiCacheline),
                         mix).ipcSum();
            app += p.run(prep(SystemConfig::fbdAp(),
                              Interleave::Page), mix).ipcSum();
            ++n;
        }
        t.addRow({std::to_string(cores), fmtD(line / n),
                  fmtD(multi / n), fmtD(page / n), fmtD(apm / n),
                  fmtD(app / n)});
    }
    t.print(os);
}
