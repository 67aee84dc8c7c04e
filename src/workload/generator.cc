#include "workload/generator.hh"

#include "common/logging.hh"

namespace fbdp {

SyntheticGenerator::SyntheticGenerator(const BenchProfile &profile_in,
                                       Addr base_addr,
                                       std::uint64_t seed,
                                       bool sw_prefetch)
    : prof(profile_in),
      base(base_addr),
      spEnabled(sw_prefetch),
      rng(seed ^ 0xfbd0fbd0fbd0fbd0ULL),
      streamThr(Rng::chanceThreshold(prof.streamFrac)),
      jumpThr(Rng::chanceThreshold(prof.jumpProb)),
      spThr(Rng::chanceThreshold(prof.spCoverage)),
      hotThr(Rng::chanceThreshold(prof.hotFrac)),
      storeThr(Rng::chanceThreshold(prof.storeFrac))
{
    fbdp_assert(prof.nStreams >= 1, "profile needs >= 1 stream");
    fbdp_assert(prof.elemBytes >= 1, "zero stream element");

    // Carve the footprint (beyond the hot set) into per-stream lanes.
    const Addr stream_area = prof.footprint > prof.hotBytes
        ? prof.footprint - prof.hotBytes
        : prof.footprint;
    // Lanes stay line-aligned so stride patterns land on real
    // cacheline boundaries.
    const Addr lane = lineAlign(stream_area / prof.nStreams);
    if (lane < lineBytes) {
        fatal("profile '%s': %u streams over %llu bytes leave lanes "
              "shorter than one %u-byte line",
              prof.name.c_str(), prof.nStreams,
              static_cast<unsigned long long>(stream_area), lineBytes);
    }
    streams.resize(prof.nStreams);
    storeStreams = static_cast<size_t>(
        prof.storeFrac * static_cast<double>(prof.nStreams) + 0.5);
    if (storeStreams >= prof.nStreams && prof.nStreams > 1)
        storeStreams = prof.nStreams - 1;
    const auto n_stride2 = static_cast<unsigned>(
        prof.stride2Frac * static_cast<double>(prof.nStreams) + 0.5);
    for (unsigned s = 0; s < prof.nStreams; ++s) {
        streams[s].laneBase = base + prof.hotBytes
            + static_cast<Addr>(s) * lane;
        streams[s].laneSize = lane;
        streams[s].cursor = streams[s].laneBase
            + lineAlign(randomIn(rng, 0, lane / 2));
        // The trailing streams stride; the leading (store) streams
        // stay unit-stride, as output arrays are written densely.
        if (s >= prof.nStreams - n_stride2)
            streams[s].lineStride = 2;
    }
}

Addr
SyntheticGenerator::randomIn(Rng &r, Addr base_addr, Addr size)
{
    if (size == 0)
        return base_addr;
    return base_addr + r.below(size);
}

template <bool WantGap>
TraceOp
SyntheticGenerator::draw(Rng &r)
{
    ++nOps;
    TraceOp op;
    if (queuedPrefetch) {
        op.kind = TraceOp::Kind::Prefetch;
        op.addr = *queuedPrefetch;
        queuedPrefetch.reset();
        ++nPrefetchOps;
        return op;
    }

    if constexpr (WantGap) {
        op.gap = static_cast<std::uint32_t>(
            r.geometric(prof.meanGap, 0));
    } else {
        r.skipGeometric(prof.meanGap);
    }

    if (r.chanceBelow(streamThr)) {
        // Sequential stream access.  Streams advance in lockstep
        // (round-robin), like the arrays of a vector inner loop.
        const size_t idx = nextStream;
        Stream &s = streams[idx];
        if (++nextStream == streams.size())
            nextStream = 0;
        if (r.chanceBelow(jumpThr)
            || s.cursor + prof.elemBytes
               >= s.laneBase + s.laneSize) {
            s.cursor = s.laneBase
                + lineAlign(randomIn(r, 0, s.laneSize - lineBytes));
        }
        op.addr = s.cursor;
        s.cursor += prof.elemBytes;
        // First element touching a cacheline == the stream crossed
        // into a new line.  A strided stream then skips ahead past
        // the lines it does not touch.
        const bool new_line =
            (op.addr - s.laneBase) % lineBytes < prof.elemBytes;
        if (s.lineStride > 1
            && (s.cursor - s.laneBase) % lineBytes == 0) {
            s.cursor += static_cast<Addr>(s.lineStride - 1) * lineBytes;
        }
        ++nStreamOps;
        if (new_line)
            ++nCrossings;
        if (spEnabled && new_line && r.chanceBelow(spThr)) {
            queuedPrefetch = lineAlign(op.addr)
                + static_cast<Addr>(prof.spDistanceLines) * lineBytes;
        }
        // The first storeStreams streams are output arrays (all
        // stores); the rest are inputs (all loads).  Vector codes
        // write whole result arrays rather than scattering stores
        // over every array, so write traffic scales with the share
        // of output streams, not with the raw store fraction.
        op.kind = idx < storeStreams
            ? TraceOp::Kind::Store
            : TraceOp::Kind::Load;
        return op;
    } else if (r.chanceBelow(hotThr)) {
        // Hot-set access (mostly cache resident).
        op.addr = randomIn(r, base, prof.hotBytes);
        ++nHotOps;
    } else {
        // Cold irregular access.
        op.addr = randomIn(r, base, prof.footprint);
        ++nColdOps;
    }

    op.kind = r.chanceBelow(storeThr)
        ? TraceOp::Kind::Store
        : TraceOp::Kind::Load;
    return op;
}

TraceOp
SyntheticGenerator::next()
{
    return draw<true>(rng);
}

TraceOp
SyntheticGenerator::nextWarm()
{
    return draw<false>(rng);
}

void
SyntheticGenerator::nextWarmBlock(TraceOp *out, std::size_t n)
{
    // A local copy keeps the state in a register: the stores into
    // out and the streams could otherwise alias the member.
    Rng r = rng;
    for (std::size_t k = 0; k < n; ++k)
        out[k] = draw<false>(r);
    rng = r;
}

} // namespace fbdp
