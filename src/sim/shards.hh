/**
 * @file
 * Building blocks of the sharded event kernel.
 *
 * The system partitions its components into event-queue *shards*: one
 * core/cache shard (queue 0) plus one shard per memory channel.  Time
 * advances in *rounds* of one memory-cycle frame: in round k each
 * shard in turn, on the calling thread, dispatches its events over
 * [kC, (k+1)C).  Cross-shard traffic — core→MC requests and MC→core
 * completions — never touches a foreign queue directly; it is staged
 * in a FrameMailbox and drained by the owning shard at the *next*
 * round's start.  The one-frame hand-off latency is part of the
 * model's canonical semantics.
 */

#ifndef FBDP_SIM_SHARDS_HH
#define FBDP_SIM_SHARDS_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace fbdp {

/**
 * Single-producer / single-consumer message channel between two shards,
 * double-buffered by round parity.
 *
 * In round k the producer appends to buffer k&1 while the consumer
 * drains buffer (k&1)^1 — the messages its peer staged in round k-1.
 * Messages are drained in staging order, which is deterministic
 * because each producer is a single shard executing a deterministic
 * schedule.
 */
template <typename T>
class FrameMailbox
{
  public:
    /** Staging buffer for round @p k (producer side). */
    void
    post(std::size_t k, T msg)
    {
        buf[k & 1].push_back(std::move(msg));
        ++nPosted;
    }

    /** Messages staged in round k-1, to drain in round @p k (consumer
     *  side).  The consumer must clear() after draining. */
    std::vector<T> &
    inbox(std::size_t k)
    {
        return buf[(k & 1) ^ 1];
    }

    bool
    bothEmpty() const
    {
        return buf[0].empty() && buf[1].empty();
    }

    /** Messages ever posted (cheap enough to maintain always; the
     *  kernel profiler reads it, and posted minus drained bounds the
     *  in-flight hand-offs). */
    std::uint64_t posted() const { return nPosted; }

  private:
    std::vector<T> buf[2];
    std::uint64_t nPosted = 0;
};

} // namespace fbdp

#endif // FBDP_SIM_SHARDS_HH
