/**
 * @file
 * Trace-operation model and the synthetic trace generator.
 *
 * A Generator produces an endless stream of TraceOps: each op carries
 * the number of non-memory instructions preceding it, its kind (load /
 * store / software prefetch) and a byte address.  SyntheticGenerator
 * realises one BenchProfile; it is seeded deterministically so that
 * every simulated configuration replays exactly the same stream.
 */

#ifndef FBDP_WORKLOAD_GENERATOR_HH
#define FBDP_WORKLOAD_GENERATOR_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "workload/profile.hh"

namespace fbdp {

/** One record of the synthetic instruction trace. */
struct TraceOp
{
    enum class Kind { Load, Store, Prefetch };

    std::uint32_t gap = 0;  ///< non-memory instructions before this op
    Kind kind = Kind::Load;
    Addr addr = 0;
};

/** Abstract trace source. */
class Generator
{
  public:
    virtual ~Generator() = default;

    /** Produce the next operation (the trace never ends). */
    virtual TraceOp next() = 0;

    /**
     * next() for functional warm-up, which ignores the gap: the same
     * kind and address and the same state advance, but the returned
     * gap is unspecified, so a generator may skip computing it.
     */
    virtual TraceOp nextWarm() { return next(); }

    /** @p n nextWarm() ops into @p out: one call per block of
     *  functional warm-up rather than one per op. */
    virtual void
    nextWarmBlock(TraceOp *out, std::size_t n)
    {
        for (std::size_t k = 0; k < n; ++k)
            out[k] = nextWarm();
    }

    /** The profile driving this trace. */
    virtual const BenchProfile &profile() const = 0;

  protected:
    // Copyable only as a concrete generator, never sliced.
    Generator() = default;
    Generator(const Generator &) = default;
    Generator &operator=(const Generator &) = default;
};

/** Profile-driven synthetic trace. */
class SyntheticGenerator final : public Generator
{
  public:
    /**
     * @param prof        benchmark profile
     * @param base_addr   physical base of this core's address slice
     * @param seed        RNG seed (vary per core)
     * @param sw_prefetch emit software-prefetch ops per the profile
     *
     * Fatal when the profile's streams split its stream area into
     * lanes shorter than one cacheline.
     */
    SyntheticGenerator(const BenchProfile &prof, Addr base_addr,
                       std::uint64_t seed, bool sw_prefetch);

    TraceOp next() override;
    /** Draws the gap's random number but not its logarithm. */
    TraceOp nextWarm() override;
    /** nextWarm()'s draw inlined into the block loop. */
    void nextWarmBlock(TraceOp *out, std::size_t n) override;
    const BenchProfile &profile() const override { return prof; }

    std::uint64_t opsGenerated() const { return nOps; }

    // Op-class counters (for calibration and tests).
    std::uint64_t streamOps() const { return nStreamOps; }
    std::uint64_t streamLineCrossings() const { return nCrossings; }
    std::uint64_t hotOps() const { return nHotOps; }
    std::uint64_t coldOps() const { return nColdOps; }
    std::uint64_t prefetchOps() const { return nPrefetchOps; }

  private:
    /** The body of next() (@p WantGap) and nextWarm() (gap left 0),
     *  drawing from @p r (rng or a copy of it), forced inline so
     *  nextWarmBlock()'s loop carries no call. */
    template <bool WantGap>
    [[gnu::always_inline]] inline TraceOp draw(Rng &r);

    static Addr randomIn(Rng &r, Addr base, Addr size);

    BenchProfile prof;
    Addr base;
    bool spEnabled;
    Rng rng;

    /** Rng::chanceThreshold() of the profile's probabilities, so each
     *  draw is one integer compare. */
    std::uint64_t streamThr;
    std::uint64_t jumpThr;
    std::uint64_t spThr;
    std::uint64_t hotThr;
    std::uint64_t storeThr;

    struct Stream {
        Addr laneBase = 0;   ///< start of this stream's lane
        Addr laneSize = 0;
        Addr cursor = 0;     ///< next byte to touch
        unsigned lineStride = 1;  ///< lines advanced per line consumed
    };
    std::vector<Stream> streams;
    size_t nextStream = 0;   ///< round-robin (lockstep) stream cursor
    size_t storeStreams = 0; ///< leading streams that are outputs

    /** The software prefetch to emit next, if any.  One slot is
     *  enough: a draw emits a pending prefetch before it can queue
     *  another. */
    std::optional<Addr> queuedPrefetch;
    std::uint64_t nOps = 0;

    std::uint64_t nStreamOps = 0;
    std::uint64_t nCrossings = 0;
    std::uint64_t nHotOps = 0;
    std::uint64_t nColdOps = 0;
    std::uint64_t nPrefetchOps = 0;
};

} // namespace fbdp

#endif // FBDP_WORKLOAD_GENERATOR_HH
