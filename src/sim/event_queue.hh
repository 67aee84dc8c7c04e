/**
 * @file
 * The event-driven simulation kernel.
 *
 * fbdp is a discrete-event simulator: every component schedules Event
 * objects on a shared EventQueue, which dispatches them in (tick,
 * priority, sequence) order.  The sequence number makes simulation
 * deterministic when several events share a tick, which in turn makes
 * configuration comparisons exact.
 *
 * The queue is an *indexed* d-ary min-heap: each Event remembers its
 * heap slot, so deschedule() and re-schedule() sift the event in place
 * instead of leaving a stale entry behind to be skipped at pop time.
 * Under the controller's constant wake rescheduling this keeps the
 * heap exactly as large as the number of live events.  Callbacks are
 * stored inline in the Event (a context pointer plus a trampoline
 * function pointer): binding a callback never allocates, and dispatch
 * is a single indirect call.
 */

#ifndef FBDP_SIM_EVENT_QUEUE_HH
#define FBDP_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace fbdp {

class EventQueue;

/**
 * A schedulable unit of work.  Events are intrusive: components embed
 * them as members and re-schedule the same object; the queue never owns
 * an Event.
 *
 * The callback is any callable object that fits in the inline storage
 * and is trivially copyable (a capturing lambda over a few pointers, or
 * an object pointer + member-function trampoline).  `[this] { wake(); }`
 * compiles to exactly the object-plus-trampoline form: the capture *is*
 * the context pointer and the lambda's call operator the trampoline.
 */
class Event
{
  public:
    /** Lower value == dispatched earlier within the same tick. */
    enum Priority : int {
        prioData = 0,      ///< data returns / completions
        prioDefault = 10,  ///< component wake-ups
        prioCpu = 20,      ///< CPU advance, after same-tick completions
    };

    /** Inline callback storage, sized for a few captured pointers. */
    static constexpr std::size_t callbackCapacity = 32;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Event>>>
    explicit Event(F cb, int prio = prioDefault)
        : _priority(prio)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= callbackCapacity,
                      "Event callback too large for inline storage");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "Event callback over-aligned");
        static_assert(std::is_trivially_copyable_v<Fn>
                          && std::is_trivially_destructible_v<Fn>,
                      "Event callbacks must be trivially copyable "
                      "(capture raw pointers/references, not owning "
                      "objects)");
        new (cbStore) Fn(std::move(cb));
        trampoline = [](void *ctx) {
            (*std::launder(reinterpret_cast<Fn *>(ctx)))();
        };
    }

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    bool scheduled() const { return heapIdx != invalidIdx; }
    Tick when() const { return _when; }
    int priority() const { return _priority; }

  private:
    friend class EventQueue;

    static constexpr std::uint32_t invalidIdx = ~0u;

    void invoke() { trampoline(cbStore); }

    alignas(std::max_align_t) unsigned char cbStore[callbackCapacity];
    void (*trampoline)(void *);
    Tick _when = 0;
    std::uint64_t seq = 0;
    std::uint32_t heapIdx = invalidIdx;  ///< slot in EventQueue::heap
    int _priority;
};

/**
 * Tick-ordered dispatch queue over an indexed d-ary heap.  The heap
 * holds one pointer per *live* event — no stale entries, no lazy
 * deletion — and sifts in place on reschedule.
 */
class EventQueue
{
  public:
    /** Hot-path activity counters (see also dispatched()). */
    struct Counters
    {
        std::uint64_t dispatched = 0;   ///< callbacks invoked
        std::uint64_t schedules = 0;    ///< schedule() of an idle event
        std::uint64_t reschedules = 0;  ///< schedule() of a live event
        std::uint64_t deschedules = 0;  ///< deschedule() of a live event
        std::uint64_t peakDepth = 0;    ///< max simultaneous live events
    };

    EventQueue() = default;

    /** Current simulation time. */
    Tick now() const { return curTick; }

    /**
     * Schedule @p ev at absolute tick @p when (>= now()).  An already
     * scheduled event is moved to the new time.
     */
    void schedule(Event *ev, Tick when);

    /** Remove @p ev from the queue if scheduled. */
    void deschedule(Event *ev);

    /**
     * Dispatch events until the queue is empty or @p limit is passed.
     * Each event is popped off the heap top in (tick, priority, seq)
     * order, so callbacks that schedule, deschedule or reschedule
     * events at the *current* tick see them dispatched in that same
     * total order.  run() is not reentrant — callbacks must not call
     * run().
     */
    void run(Tick limit = maxTick);

    /**
     * Advance now() to @p t without dispatching anything.  Used by the
     * sharded round engine to align every shard's clock at frame
     * boundaries.  No pending event may be due before @p t; a no-op if
     * t <= now().
     */
    void advanceTo(Tick t);

    /** Dispatch exactly one event. @return false if the queue is empty. */
    bool step();

    bool empty() const { return heap.empty(); }
    std::size_t depth() const { return heap.size(); }
    std::uint64_t dispatched() const { return stats.dispatched; }
    const Counters &counters() const { return stats; }

  private:
    /** Heap arity: flatter than binary, so reschedules (the dominant
     *  operation under controller wake churn) sift fewer levels. */
    static constexpr std::size_t arity = 4;

    /** One heap slot.  The sort key (when, priority, seq) is packed
     *  next to the event pointer so sift comparisons walk contiguous
     *  memory instead of dereferencing every compared Event. */
    struct Slot
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;
        std::int32_t prio;
    };

    /** Strict (tick, priority, seq) order; seq is unique, so this is
     *  a total order and dispatch is deterministic. */
    static bool
    before(const Slot &a, const Slot &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.prio != b.prio)
            return a.prio < b.prio;
        return a.seq < b.seq;
    }

    void siftUp(std::size_t idx, Slot s);
    void siftDown(std::size_t idx, Slot s);
    void removeAt(std::size_t idx);

    std::vector<Slot> heap;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    Counters stats;
};

} // namespace fbdp

#endif // FBDP_SIM_EVENT_QUEUE_HH
