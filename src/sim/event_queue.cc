#include "sim/event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fbdp {

void
EventQueue::siftUp(std::size_t idx, Slot s)
{
    while (idx > 0) {
        const std::size_t parent = (idx - 1) / arity;
        if (!before(s, heap[parent]))
            break;
        heap[idx] = heap[parent];
        heap[idx].ev->heapIdx = static_cast<std::uint32_t>(idx);
        idx = parent;
    }
    heap[idx] = s;
    s.ev->heapIdx = static_cast<std::uint32_t>(idx);
}

void
EventQueue::siftDown(std::size_t idx, Slot s)
{
    const std::size_t n = heap.size();
    for (;;) {
        const std::size_t first = idx * arity + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + arity, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap[c], heap[best]))
                best = c;
        }
        if (!before(heap[best], s))
            break;
        heap[idx] = heap[best];
        heap[idx].ev->heapIdx = static_cast<std::uint32_t>(idx);
        idx = best;
    }
    heap[idx] = s;
    s.ev->heapIdx = static_cast<std::uint32_t>(idx);
}

void
EventQueue::removeAt(std::size_t idx)
{
    Slot moved = heap.back();
    heap.pop_back();
    if (idx == heap.size())
        return;  // removed the tail slot itself
    // Re-seat the tail element at the vacated slot.
    if (idx > 0 && before(moved, heap[(idx - 1) / arity]))
        siftUp(idx, moved);
    else
        siftDown(idx, moved);
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    fbdp_assert(when >= curTick,
                "scheduling event in the past: when=%llu now=%llu",
                static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(curTick));
    // A fresh sequence number on every (re)schedule keeps same-tick
    // FIFO order identical to the historical lazy-deletion queue.
    const std::uint64_t seq = nextSeq++;
    ev->_when = when;
    ev->seq = seq;
    const Slot s{when, seq, ev, ev->_priority};
    if (ev->scheduled()) {
        ++stats.reschedules;
        // The key can move either way (seq always grows, when may
        // shrink toward now): try up first, else down.
        const std::size_t idx = ev->heapIdx;
        if (idx > 0 && before(s, heap[(idx - 1) / arity]))
            siftUp(idx, s);
        else
            siftDown(idx, s);
        return;
    }
    ++stats.schedules;
    if (heap.empty()) {
        // Empty-heap fast path: the hot schedule→dispatch ping-pong
        // of a single live event never touches the sift machinery.
        ev->heapIdx = 0;
        heap.push_back(s);
        if (stats.peakDepth == 0)
            stats.peakDepth = 1;
        return;
    }
    heap.push_back(s);
    siftUp(heap.size() - 1, s);
    if (heap.size() > stats.peakDepth)
        stats.peakDepth = heap.size();
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->scheduled())
        return;
    ++stats.deschedules;
    const std::size_t idx = ev->heapIdx;
    ev->heapIdx = Event::invalidIdx;
    removeAt(idx);
}

bool
EventQueue::step()
{
    if (heap.empty())
        return false;
    Event *top = heap[0].ev;
    curTick = heap[0].when;
    top->heapIdx = Event::invalidIdx;
    if (heap.size() == 1)
        heap.pop_back();  // single-event fast path: no sift, no copy
    else
        removeAt(0);
    ++stats.dispatched;
    top->invoke();
    return true;
}

void
EventQueue::run(Tick limit)
{
    while (!heap.empty() && heap[0].when <= limit)
        step();
    if (curTick < limit && limit != maxTick)
        curTick = limit;
}

} // namespace fbdp
