/**
 * @file
 * Design-space sweep to CSV or JSON: the three machines x a workload
 * group, streamed for external plotting.  Demonstrates the Sweep
 * batch driver, its worker pool and the typed results schema.
 *
 *   ./example_design_space [cores] [insts] [--json]
 *       [--progress] [--progress-out F] [--manifest] [--ledger F]
 *       > results.csv
 *
 * Parallelism comes from FBDP_JOBS (e.g. FBDP_JOBS=8; unset, one
 * worker per host CPU); row order and bytes are identical whatever
 * the job count.  --progress draws a
 * live per-cell status line with an ETA on stderr; --progress-out
 * streams the same events as JSONL for machines.  --manifest embeds
 * the grid manifest in the CSV/JSON output, and --ledger appends one
 * record per cell to a cross-run ledger.  [insts] (default 200000)
 * is each cell's measured window, after insts/4 of timed warm-up.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "common/parse.hh"
#include "system/progress.hh"
#include "system/runner.hh"
#include "system/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace fbdp;

    bool json = false, progress = false, manifest = false;
    std::string progressPath, ledgerPath;
    std::vector<const char *> pos;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << argv[i] << " needs an argument\n";
            return nullptr;
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json")) {
            json = true;
        } else if (!std::strcmp(argv[i], "--progress")) {
            progress = true;
        } else if (!std::strcmp(argv[i], "--progress-out")) {
            const char *p = need(i);
            if (!p)
                return 2;
            progressPath = p;
        } else if (!std::strcmp(argv[i], "--manifest")) {
            manifest = true;
        } else if (!std::strcmp(argv[i], "--ledger")) {
            const char *p = need(i);
            if (!p)
                return 2;
            ledgerPath = p;
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

    // Progress sinks observe completion order only; rows and bytes on
    // stdout stay identical with or without them.
    ProgressMux mux;
    std::unique_ptr<TerminalProgress> term;
    std::unique_ptr<JsonlProgress> jsonl;
    std::ofstream progressFile;
    RunManifest grid;
    if (progress) {
        term = std::make_unique<TerminalProgress>(std::cerr);
        mux.add(term.get());
    }
    if (!progressPath.empty()) {
        progressFile.open(progressPath);
        if (!progressFile) {
            std::cerr << "cannot open " << progressPath
                      << " for writing\n";
            return 2;
        }
        grid = sweep.gridManifest();
        jsonl = std::make_unique<JsonlProgress>(
            progressFile, manifest ? &grid : nullptr);
        mux.add(jsonl.get());
    }
    if (term || jsonl)
        sweep.progress(&mux);

    if (json)
        sweep.runJson(std::cout);
    else
        sweep.runCsv(std::cout);
    return 0;
}
