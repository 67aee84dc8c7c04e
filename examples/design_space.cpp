/**
 * @file
 * Design-space sweep to CSV or JSON: the three machines x a workload
 * group, streamed for external plotting.  Demonstrates the Sweep
 * batch driver, its worker pool and the typed results schema.
 *
 *   ./example_design_space [cores] [insts] [--json] [--manifest]
 *       [--ledger F] > results.csv
 *
 * Parallelism comes from FBDP_JOBS (e.g. FBDP_JOBS=8; unset, one
 * worker per host CPU); row order and bytes are identical whatever
 * the job count.  --manifest embeds the grid manifest in the
 * CSV/JSON output, and --ledger appends one record per cell to a
 * cross-run ledger.  [insts] (default 200000) is each cell's measured
 * window, after insts/4 of timed warm-up.  A third positional
 * argument or an unknown --flag prints the usage line and exits 2.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/parse.hh"
#include "system/sweep.hh"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [cores] [insts] [--json] [--manifest] [--ledger F]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fbdp;

    bool json = false, manifest = false;
    std::string ledgerPath;
    std::vector<const char *> pos;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json")) {
            json = true;
        } else if (!std::strcmp(argv[i], "--manifest")) {
            manifest = true;
        } else if (!std::strcmp(argv[i], "--ledger")) {
            if (i + 1 >= argc)
                usage(argv[0]);
            ledgerPath = argv[++i];
        } else if (!std::strncmp(argv[i], "--", 2) || pos.size() == 2) {
            usage(argv[0]);
        } else {
            pos.push_back(argv[i]);
        }
    }

    // Whole decimal counts; mixesFor() refuses a core count with no
    // Table 3 group.
    const unsigned cores = pos.size() > 0
        ? static_cast<unsigned>(
              requireCount("cores", pos[0], 1, 0xffffffffLL))
        : 2;
    const std::uint64_t insts = pos.size() > 1
        ? static_cast<std::uint64_t>(
              requireCount("insts", pos[1], 1, 0x7fffffffffffffffLL))
        : 200'000;

    auto prep = [&](SystemConfig c) {
        c.warmupInsts = insts / 4;
        c.measureInsts = insts;
        return c;
    };

    Sweep sweep;
    sweep.addConfig("ddr2", prep(SystemConfig::ddr2()))
        .addConfig("fbd", prep(SystemConfig::fbdBase()))
        .addConfig("fbd-ap", prep(SystemConfig::fbdAp()));

    // A few AP variants for the design-space flavour.
    for (unsigned k : {2u, 8u}) {
        SystemConfig c = prep(SystemConfig::fbdAp());
        c.regionLines = k;
        sweep.addConfig("fbd-ap-k" + std::to_string(k), c);
    }

    sweep.addMixGroup(cores).manifest(manifest).ledger(ledgerPath);

    if (json)
        sweep.runJson(std::cout);
    else
        sweep.runCsv(std::cout);
    return 0;
}
