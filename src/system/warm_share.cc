#include "system/warm_share.hh"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

#include "common/logging.hh"
#include "workload/trace_stream.hh"

namespace fbdp {

namespace {

/** One in-flight warm-up. */
struct Slot
{
    enum class State { Computing, Ready, Failed };

    State state = State::Computing;
    const WarmState *leader = nullptr;  ///< set once Ready
    unsigned waiters = 0;               ///< callers blocked on it
};

/** Every slot is guarded by one mutex: it is taken a few times per
 *  warm-up, never per op. */
std::mutex mtx;
std::condition_variable cv;
std::map<WarmKey, std::shared_ptr<Slot>> inFlight;

void
copyWarmState(const WarmState &from, const WarmState &to)
{
    fbdp_assert(from.gens.size() == to.gens.size(),
                "warm-state copy across %zu and %zu cores",
                from.gens.size(), to.gens.size());
    for (std::size_t i = 0; i < to.gens.size(); ++i)
        *to.gens[i] = *from.gens[i];
    to.hier->copyFunctionalStateFrom(*from.hier);
}

} // namespace

std::uint64_t
resolvedWarmupOps(const SystemConfig &cfg)
{
    if (cfg.functionalWarmupOps)
        return cfg.functionalWarmupOps;
    // Roughly one line install per ten ops: 2x capacity in all.
    const std::uint64_t l2_lines = cfg.hier.l2Bytes / lineBytes;
    return 20 * l2_lines / cfg.nCores();
}

void
functionalWarmup(std::span<const std::unique_ptr<Generator>> gens,
                 CacheHierarchy &hier, std::uint64_t ops)
{
    // Generators never read the tags, so each core can draw a block
    // of rounds ahead, one virtual call per block; the block then
    // replays in (round, core) order, the order of drawing one op at
    // a time.  Blocks of 32 to 128 rounds measured alike on the 27
    // Table 3 warm-ups, 8 and 16 slower, 256 no better; 64 keeps an
    // 8-core block at 8 KB.
    constexpr std::uint64_t block = 64;
    const std::size_t n = gens.size();
    std::vector<TraceOp> buf(block * n);
    for (std::uint64_t done = 0; done < ops; done += block) {
        const auto rounds =
            static_cast<std::size_t>(std::min(block, ops - done));
        for (std::size_t i = 0; i < n; ++i)
            gens[i]->nextWarmBlock(&buf[i * block], rounds);
        for (std::size_t k = 0; k < rounds; ++k) {
            for (std::size_t i = 0; i < n; ++i) {
                const TraceOp &op = buf[i * block + k];
                const int core = static_cast<int>(i);
                if (op.kind == TraceOp::Kind::Prefetch)
                    hier.functionalPrefetch(core, op.addr);
                else
                    hier.functionalAccess(
                        core, op.addr, op.kind == TraceOp::Kind::Store);
            }
        }
    }
}

std::optional<WarmKey>
warmKeyOf(const SystemConfig &cfg)
{
    for (const std::string &bench : cfg.benchmarks) {
        if (TraceSpec::isTraceSpec(bench))
            return std::nullopt;
    }
    WarmKey k;
    k.benchmarks = cfg.benchmarks;
    k.seed = cfg.seed;
    k.swPrefetch = cfg.swPrefetch;
    k.l1Bytes = cfg.hier.l1Bytes;
    k.l1Ways = cfg.hier.l1Ways;
    k.l2Bytes = cfg.hier.l2Bytes;
    k.l2Ways = cfg.hier.l2Ways;
    k.warmupOps = resolvedWarmupOps(cfg);
    return k;
}

bool
warmOnce(const WarmKey &key, const WarmState &mine,
         const std::function<void()> &compute)
{
    std::unique_lock<std::mutex> lk(mtx);
    if (auto it = inFlight.find(key); it != inFlight.end()) {
        // Follower: wait for the leader, copy while it holds still.
        const std::shared_ptr<Slot> slot = it->second;
        ++slot->waiters;
        cv.wait(lk, [&] { return slot->state != Slot::State::Computing; });
        const bool copy = slot->state == Slot::State::Ready;
        if (copy) {
            lk.unlock();
            try {
                copyWarmState(*slot->leader, mine);
            } catch (...) {
                lk.lock();
                if (--slot->waiters == 0)
                    cv.notify_all();
                throw;
            }
            lk.lock();
        }
        if (--slot->waiters == 0)
            cv.notify_all();
        lk.unlock();
        if (!copy)
            compute();  // the leader failed
        return copy;
    }

    // Leader: compute, publish, close the slot, wait out the copies.
    const auto it =
        inFlight.emplace(key, std::make_shared<Slot>()).first;
    const std::shared_ptr<Slot> slot = it->second;
    lk.unlock();
    try {
        compute();
    } catch (...) {
        lk.lock();
        slot->state = Slot::State::Failed;
        inFlight.erase(it);
        cv.notify_all();
        throw;
    }
    lk.lock();
    slot->state = Slot::State::Ready;
    slot->leader = &mine;
    inFlight.erase(it);
    cv.notify_all();
    cv.wait(lk, [&] { return slot->waiters == 0; });
    return false;
}

std::size_t
warmSharesInFlight()
{
    std::lock_guard<std::mutex> lk(mtx);
    return inFlight.size();
}

unsigned
warmShareWaiters(const WarmKey &key)
{
    std::lock_guard<std::mutex> lk(mtx);
    const auto it = inFlight.find(key);
    return it == inFlight.end() ? 0 : it->second->waiters;
}

} // namespace fbdp
