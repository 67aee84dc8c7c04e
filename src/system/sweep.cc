#include "system/sweep.hh"

#include "common/logging.hh"
#include "system/ledger.hh"
#include "system/runner.hh"

namespace fbdp {

namespace {

/** The grid's cells in row (config-major) order, each with its row
 *  named (config, mix, seed) and its result still empty. */
struct Grid
{
    std::vector<SweepRow> rows;
    std::vector<RunCell> cells;
};

Grid
materializeGrid(
    const std::vector<std::pair<std::string, SystemConfig>> &configs,
    const std::vector<const WorkloadMix *> &mixes, unsigned n_repeats)
{
    Grid g;
    g.rows.reserve(configs.size() * mixes.size() * n_repeats);
    g.cells.reserve(g.rows.capacity());
    for (const auto &[name, cfg] : configs) {
        for (const WorkloadMix *mix : mixes) {
            for (unsigned r = 0; r < n_repeats; ++r) {
                SystemConfig c = cfg;
                // The configuration's seed is the base of the repeat
                // range, so sweeps can use disjoint seed ranges.
                c.seed = cfg.seed + r;
                c.benchmarks = mix->benches;
                g.rows.push_back({name, mix->name, c.seed, {}});
                g.cells.push_back({std::move(c), nullptr});
            }
        }
    }
    return g;
}

} // namespace

Sweep &
Sweep::addConfig(std::string name, SystemConfig cfg)
{
    configs.emplace_back(std::move(name), std::move(cfg));
    return *this;
}

Sweep &
Sweep::addMix(const WorkloadMix &mix)
{
    mixes.push_back(&mix);
    return *this;
}

Sweep &
Sweep::addMixGroup(unsigned cores)
{
    for (const auto &m : mixesFor(cores))
        mixes.push_back(&m);
    return *this;
}

Sweep &
Sweep::repeats(unsigned n)
{
    fbdp_assert(n >= 1, "sweep needs >= 1 repeat");
    nRepeats = n;
    return *this;
}

Sweep &
Sweep::jobs(unsigned n)
{
    nJobs = n;
    return *this;
}

Sweep &
Sweep::onRow(std::function<void(const SweepRow &)> cb)
{
    rowCb = std::move(cb);
    return *this;
}

Sweep &
Sweep::manifest(bool on)
{
    wantManifest = on;
    return *this;
}

Sweep &
Sweep::ledger(std::string path)
{
    ledgerPath = std::move(path);
    return *this;
}

RunManifest
Sweep::gridManifest() const
{
    fbdp_assert(!configs.empty(), "sweep has no configurations");
    fbdp_assert(!mixes.empty(), "sweep has no workloads");
    const Grid grid = materializeGrid(configs, mixes, nRepeats);
    std::string canon;
    for (const RunCell &cell : grid.cells)
        canon += canonicalConfigString(cell.cfg);
    RunManifest m = RunManifest::capture(grid.cells.front().cfg);
    m.configDigest = csprintf(
        "%016llx",
        static_cast<unsigned long long>(fnv1a64(canon)));
    return m;
}

unsigned
Sweep::effectiveJobs() const
{
    return resolveJobs(nJobs, cells());
}

std::vector<SweepRow>
Sweep::run()
{
    fbdp_assert(!configs.empty(), "sweep has no configurations");
    fbdp_assert(!mixes.empty(), "sweep has no workloads");

    // Every cell is materialised up front, in config-major order;
    // this order — not completion order — defines the row order.
    Grid grid = materializeGrid(configs, mixes, nRepeats);

    // Rows, row callbacks and ledger appends happen in the result
    // callback — calling thread, row order — with each cell's own
    // manifest, so ledger records trend per cell.
    runCells(grid.cells, effectiveJobs(),
             [&](std::size_t i, RunResult &&result) {
        SweepRow &row = grid.rows[i];
        row.result = std::move(result);
        if (rowCb)
            rowCb(row);
        if (!ledgerPath.empty()) {
            std::string err;
            if (!appendLedgerRecord(
                    ledgerPath,
                    ledgerRecordJson(
                        RunManifest::capture(grid.cells[i].cfg), row),
                    &err))
                fatal("%s", err.c_str());
        }
    });
    return std::move(grid.rows);
}

const ResultSchema &
Sweep::schema()
{
    return ResultSchema::sweepRows();
}

std::string
Sweep::csvHeader()
{
    return schema().csvHeader();
}

std::string
Sweep::csvRow(const SweepRow &row)
{
    return schema().csvRow(row);
}

void
Sweep::runCsv(std::ostream &os)
{
    if (wantManifest)
        os << gridManifest().csvComment();
    os << csvHeader() << '\n';
    onRow([&os](const SweepRow &row) {
        os << csvRow(row) << '\n';
    });
    run();
}

void
Sweep::runJson(std::ostream &os)
{
    const std::string m =
        wantManifest ? gridManifest().json() : std::string();
    schema().writeJson(run(), os, m);
}

} // namespace fbdp
