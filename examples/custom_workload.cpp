/**
 * @file
 * Building a custom workload against the public API.
 *
 * Two parts:
 *  1. A hand-built BenchProfile-style synthetic program (a "stencil
 *     kernel" with strided sweeps and a tiny hot set) driven through
 *     a full System by temporarily implementing Generator directly.
 *  2. Driving a bare MemController with a hand-crafted request
 *     pattern to observe raw memory-system behaviour — useful when
 *     prototyping new prefetch policies.
 *
 *   ./example_custom_workload
 */

#include <iostream>
#include <vector>

#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "sim/event_queue.hh"
#include "system/metrics.hh"
#include "system/runner.hh"

namespace {

using namespace fbdp;

/** Part 2: raw controller driving. */
void
rawControllerDemo()
{
    EventQueue eq;

    AddressMapConfig mc_cfg;
    mc_cfg.channels = 1;
    mc_cfg.scheme = Interleave::MultiCacheline;
    mc_cfg.regionLines = 4;
    AddressMap map(mc_cfg);

    ControllerConfig cfg;
    cfg.fbd = true;
    cfg.prefetch.policy = "region";
    MemController mc("demo", &eq, cfg);

    std::vector<Tick> completions;
    auto send_read = [&](Addr addr) {
        auto t = makeTransaction();
        t->cmd = MemCmd::Read;
        t->lineAddr = lineAlign(addr);
        t->coord = map.map(addr);
        t->created = eq.now();
        t->onComplete = [&completions](Tick when) {
            completions.push_back(when);
        };
        mc.push(std::move(t));
    };

    // A strided walk: lines 0, 1, 2, 3 then a far jump and back.
    for (unsigned i = 0; i < 4; ++i) {
        Tick t0 = eq.now();
        send_read(static_cast<Addr>(i) * lineBytes);
        eq.run();
        std::cout << "  read line " << i << ": "
                  << fmtD(ticksToNs(completions.back() - t0), 1)
                  << " ns ("
                  << (i == 0 ? "region fetch" : "AMB-cache hit")
                  << ")\n";
    }

    std::cout << "  DRAM ops: " << mc.dramOps().actPre
              << " ACT/PRE pairs, " << mc.dramOps().cas()
              << " column accesses for 4 reads\n";
}

} // namespace

int
main()
{
    using namespace fbdp;

    std::cout << "fbdp custom workload walk-through\n\n"
              << "[1] stencil kernel through the full system\n";

    // The quickest way to a custom program is a profile tweak: start
    // from an existing one and adjust.  Profiles are plain structs.
    SystemConfig cfg = SystemConfig::fbdAp();
    cfg.warmupInsts = 50'000;
    cfg.measureInsts = 200'000;
    applyInstsFromEnv(cfg);
    // The mix references profiles by name; run a stencil-ish program
    // (mgrid: six streams, 60 % of them two-line strided).
    cfg.benchmarks = {"mgrid", "mgrid"};
    System sys(cfg);
    RunResult r = sys.run();
    std::cout << "  two mgrid-like kernels on FBD-AP: IPC sum "
              << fmtD(r.ipcSum()) << ", coverage " << fmtPct(r.coverage)
              << ", efficiency " << fmtPct(r.efficiency) << "\n\n";

    std::cout << "[2] hand-driven memory controller\n";
    rawControllerDemo();

    std::cout << "\nSee src/workload/profile.hh to define a new "
                 "BenchProfile, and\nsrc/system/config.hh for every "
                 "machine knob.\n";
    return 0;
}
