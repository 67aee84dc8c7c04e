/**
 * @file
 * Memory transactions as seen by the memory controller.
 *
 * Transactions are pooled: makeTransaction() hands out recycled
 * objects from a thread-local freelist and the TransPtr deleter
 * returns them, so a steady-state simulation performs zero
 * per-transaction heap allocations (the pool grows in chunks only
 * while the in-flight population is still reaching its high-water
 * mark).  Each simulator thread owns its pool — Systems never share
 * transactions across threads — so no locking is involved.
 */

#ifndef FBDP_MC_TRANSACTION_HH
#define FBDP_MC_TRANSACTION_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/callback.hh"
#include "common/types.hh"
#include "mc/address_map.hh"

namespace fbdp {

/** Transaction direction. */
enum class MemCmd {
    Read,
    Write,
};

/** Controller-internal progress state of a transaction. */
enum class TransPhase {
    NeedPrecharge,  ///< open-page row conflict: PRE first
    NeedActivate,   ///< bank precharged: ACT next
    NeedCas,        ///< row open (or being opened): RD/WR next
    PrefetchHit,    ///< serviceable from the prefetch buffer
    WaitData,       ///< all commands issued, data in flight
    Complete,
};

/**
 * One memory request at the controller.  Reads carry a completion
 * callback invoked when the data is back at the controller; writes are
 * posted.
 */
struct Transaction
{
    MemCmd cmd = MemCmd::Read;
    Addr lineAddr = 0;        ///< line-aligned physical address
    int coreId = -1;
    bool swPrefetch = false;  ///< generated by a software prefetch
    bool bufServed = false;   ///< read served from the prefetch buffer

    Tick created = 0;         ///< left the cache hierarchy
    Tick arrivedAtMc = 0;     ///< entered the controller
    Tick earliestIssue = 0;   ///< arrivedAtMc + controller overhead
    /** Scheduler lower bound on the next cycle a command of this
     *  transaction can issue (see MemController's window summary). */
    Tick retryAt = 0;

    DramCoord coord;
    TransPhase phase = TransPhase::NeedActivate;

    /** Number of column accesses this read will perform (1 plus the
     *  accepted prefetch candidates on a group fetch). */
    unsigned groupLines = 1;

    /** Upper bound on prefetch candidates per demand; mirrors
     *  CandidateList::cap in prefetch/policy.hh. */
    static constexpr unsigned maxPrefetchLines = 15;

    /** Accepted prefetch candidate lines riding this group fetch, in
     *  buffer-insertion order (issueRead re-sorts them into the
     *  wrap-around CAS order). */
    Addr pfLines[maxPrefetchLines] = {};
    std::uint8_t nPfLines = 0;

    Tick completedAt = 0;
    std::uint64_t mcSeq = 0;  ///< arrival order, for FCFS tie-breaks

    /**
     * Latency-attribution boundary stamps (see mc/attribution.hh).
     * Written only when attribution is enabled; 0 means "phase never
     * happened" and collapses to a zero-width interval.
     */
    Tick stampIssue = 0;   ///< first command left the scheduler
    Tick stampCas = 0;     ///< decisive CAS / hit command issued
    Tick stampArrive = 0;  ///< that command arrived at the DIMM
    Tick stampData = 0;    ///< data left the bank / AMB for the return trip

    /** Invoked at completion time with the completion tick. */
    TickCallback onComplete;

    bool isRead() const { return cmd == MemCmd::Read; }

    /** Restore the default-constructed state (pool recycling). */
    void reset() { *this = Transaction{}; }
};

/** Returns a Transaction to its owning thread's pool. */
struct TransDeleter
{
    void operator()(Transaction *t) const noexcept;
};

using TransPtr = std::unique_ptr<Transaction, TransDeleter>;

/**
 * Thread-local freelist of Transaction objects.  Storage grows in
 * chunks and is never returned to the allocator until thread exit;
 * acquire()/release() are pointer pushes in steady state.
 */
class TransPool
{
  public:
    struct Stats
    {
        std::uint64_t acquires = 0;   ///< makeTransaction() calls
        std::uint64_t reuses = 0;     ///< acquires served by freelist
        std::uint64_t live = 0;       ///< currently checked out
        std::uint64_t highWater = 0;  ///< max simultaneous live
        std::uint64_t capacity = 0;   ///< objects ever carved
    };

    /** The calling thread's pool. */
    static TransPool &local();

    Transaction *acquire();
    void release(Transaction *t) noexcept;

    const Stats &stats() const { return st; }

  private:
    TransPool() = default;

    static constexpr std::size_t chunkSize = 64;

    struct Chunk
    {
        std::unique_ptr<Transaction[]> objs;
        std::unique_ptr<Chunk> next;
    };

    std::unique_ptr<Chunk> chunks;
    std::vector<Transaction *> freeList;
    Stats st;
};

/** Pooled replacement for std::make_unique<Transaction>(). */
inline TransPtr
makeTransaction()
{
    return TransPtr(TransPool::local().acquire());
}

inline void
TransDeleter::operator()(Transaction *t) const noexcept
{
    TransPool::local().release(t);
}

} // namespace fbdp

#endif // FBDP_MC_TRANSACTION_HH
