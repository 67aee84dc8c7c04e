/**
 * @file
 * fbdp-report — diff two runs' stats/telemetry/benchmark JSON and
 * gate on regressions.
 *
 *   fbdp-report baseline.json candidate.json [options]
 *
 * Both inputs are arbitrary JSON documents: a `fbdpsim --stats-json`
 * dump, a google-benchmark results file, a telemetry summary.  Every
 * numeric leaf is compared under a relative tolerance; array elements
 * carrying a "name" member (google-benchmark's layout) are keyed by
 * that name so reordering does not produce spurious diffs.
 *
 * Options:
 *   --tol <frac>          relative tolerance, default 0.10 (10%)
 *   --key-tol <key>=<f>   per-key tolerance override (exact path)
 *   --only <substr>       compare only paths containing <substr>
 *                         (repeatable; OR semantics)
 *   --ignore <substr>     skip paths containing <substr> (repeatable)
 *   --higher-better       only a drop beyond tolerance is a regression
 *   --lower-better        only a rise beyond tolerance is a regression
 *   --strict              keys present on one side only also fail
 *   --verbose             list every changed key and missing key
 *
 * History mode — trend a cross-run ledger instead of diffing two
 * files (see system/ledger.hh; records come from `fbdpsim --ledger`
 * or `example_design_space --ledger`, i.e. Sweep::ledger()):
 *
 *   fbdp-report --history runs.jsonl [options]
 *
 *   --digest <hex>        trend this config digest (default: the
 *                         newest record's digest)
 *   --last <n>            use only the newest <n> matching records
 *   --tol / --only / --ignore / --higher-better / --lower-better /
 *   --verbose             as above; drift is two-sided by default
 *
 * The newest matching record is compared against the mean of its
 * predecessors; drift beyond tolerance exits 1, just like a two-file
 * regression.
 *
 *   --version             print the build-info string and exit
 *
 * Exit status: 0 no regression, 1 regression found, 2 usage or IO
 * error — so CI can tell "the metric got worse" apart from "the
 * comparison never happened".  A numeric flag whose value is not a
 * whole plain number (`--tol nan`, `--tol 1e9x`, `--last abc`) is a
 * usage error too.  An --only filter that matches nothing
 * also exits 2: a filter typo must not read as a clean pass.
 */

#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "common/json.hh"
#include "common/parse.hh"
#include "system/ledger.hh"
#include "system/manifest.hh"
#include "system/rundiff.hh"

namespace {

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " <baseline.json> <candidate.json>"
        << " [options]\n"
        << "  --tol <frac>         relative tolerance (default 0.10)\n"
        << "  --key-tol <key>=<f>  per-key tolerance override\n"
        << "  --only <substr>      compare only matching paths"
        << " (repeatable)\n"
        << "  --ignore <substr>    skip matching paths (repeatable)\n"
        << "  --higher-better      only drops are regressions\n"
        << "  --lower-better       only rises are regressions\n"
        << "  --strict             one-sided keys also fail\n"
        << "  --verbose            list all changes and missing keys\n"
        << "or trend a cross-run ledger:\n"
        << "       " << argv0 << " --history <runs.jsonl> [options]\n"
        << "  --digest <hex>       config digest to trend (default:\n"
        << "                       the newest record's)\n"
        << "  --last <n>           only the newest n matching records\n"
        << "  --version            print build info and exit\n"
        << "exit: 0 ok, 1 regression/drift, 2 usage/IO error\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fbdp;

    std::string pathA, pathB, historyPath, digest;
    DiffOptions opt;
    bool verbose = false, history = false;
    std::size_t lastN = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs an argument\n";
                std::exit(usage(argv[0]));
            }
            return argv[++i];
        };
        // A numeric flag takes a whole plain number or exits 2:
        // strtod would read "nan", "1e9x" and "abc" as something.
        auto fraction = [&](const char *flag, const char *text) {
            const auto v = parseDecimal(
                text, 0.0, std::numeric_limits<double>::max());
            if (!v) {
                std::cerr << flag << ": bad value '" << text
                          << "' (expected a plain decimal >= 0)\n";
                std::exit(usage(argv[0]));
            }
            return *v;
        };
        if (arg == "--tol") {
            opt.tolerance = fraction("--tol", need("--tol"));
        } else if (arg == "--key-tol") {
            const std::string kv = need("--key-tol");
            const auto eq = kv.rfind('=');
            if (eq == std::string::npos || eq == 0) {
                std::cerr << "--key-tol wants <key>=<frac>, got '"
                          << kv << "'\n";
                return usage(argv[0]);
            }
            opt.keyTolerances[kv.substr(0, eq)] =
                fraction("--key-tol", kv.c_str() + eq + 1);
        } else if (arg == "--only") {
            opt.only.push_back(need("--only"));
        } else if (arg == "--ignore") {
            opt.ignore.push_back(need("--ignore"));
        } else if (arg == "--higher-better") {
            opt.direction = DiffDirection::HigherBetter;
        } else if (arg == "--lower-better") {
            opt.direction = DiffDirection::LowerBetter;
        } else if (arg == "--strict") {
            opt.strict = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else if (arg == "--history") {
            history = true;
            historyPath = need("--history");
        } else if (arg == "--digest") {
            digest = need("--digest");
        } else if (arg == "--last") {
            const char *text = need("--last");
            const auto v = parseCount(
                text, 0, std::numeric_limits<long long>::max());
            if (!v) {
                std::cerr << "--last: bad value '" << text
                          << "' (expected a decimal count)\n";
                return usage(argv[0]);
            }
            lastN = static_cast<std::size_t>(*v);
        } else if (arg == "--version") {
            std::cout << RunManifest::buildInfo() << "\n";
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage(argv[0]);
        } else if (pathA.empty()) {
            pathA = arg;
        } else if (pathB.empty()) {
            pathB = arg;
        } else {
            std::cerr << "unexpected extra operand '" << arg << "'\n";
            return usage(argv[0]);
        }
    }
    if (history) {
        if (!pathA.empty() || !pathB.empty()) {
            std::cerr << "--history takes the ledger path, no other "
                         "operands\n";
            return usage(argv[0]);
        }
        std::string err;
        const auto records = readLedger(historyPath, &err);
        if (!err.empty()) {
            std::cerr << err << "\n";
            return 2;
        }
        HistoryOptions hopt;
        hopt.tolerance = opt.tolerance;
        hopt.lastN = lastN;
        hopt.digest = digest;
        hopt.direction = opt.direction;
        hopt.only = opt.only;
        hopt.ignore = opt.ignore;
        const HistoryReport rep = analyzeHistory(records, hopt);
        if (!rep.ok()) {
            std::cerr << "fbdp-report: " << rep.error << "\n";
            return 2;
        }
        printHistoryReport(rep, std::cout, verbose);
        if (!opt.only.empty() && rep.diff.compared == 0) {
            std::cerr << "fbdp-report: --only filter matched no "
                         "metric\n";
            return 2;
        }
        if (rep.drifted()) {
            std::cout << "RESULT: DRIFT\n";
            return 1;
        }
        std::cout << "RESULT: OK\n";
        return 0;
    }

    if (pathA.empty() || pathB.empty())
        return usage(argv[0]);

    const json::ParseResult a = json::parseFile(pathA);
    if (!a.ok()) {
        std::cerr << pathA << ": " << a.error << "\n";
        return 2;
    }
    const json::ParseResult b = json::parseFile(pathB);
    if (!b.ok()) {
        std::cerr << pathB << ": " << b.error << "\n";
        return 2;
    }

    const DiffReport report = diffRuns(flattenJson(a.value),
                                       flattenJson(b.value), opt);

    std::cout << "A: " << pathA << "\nB: " << pathB << "\n";
    printDiffReport(report, std::cout, verbose);

    // A filter that selects nothing compared nothing: that is a typo
    // (or a renamed metric), not a pass.
    if (!opt.only.empty() && report.compared == 0) {
        std::cerr << "fbdp-report: --only filter matched no key\n";
        return 2;
    }

    if (report.failed()) {
        std::cout << "RESULT: REGRESSION\n";
        return 1;
    }
    std::cout << "RESULT: OK\n";
    return 0;
}
