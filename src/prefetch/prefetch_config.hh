/**
 * @file
 * The configuration of the prefetch buffer.
 *
 * One PrefetchConfig describes the one prefetch buffer of a machine:
 * whether the controller runs the paper's region fetch into it, where
 * it sits and how it is organised.
 *
 * Spec-string grammar (the CLI's --prefetch value):
 *
 *     region|none[,key=value]...
 *
 * where the policy "region" turns the region group fetch on, "none"
 * turns prefetching off, and key is one of
 *
 *     place     amb (one buffer per DIMM, behind its AMB; FB-DIMM
 *               only) or mc (one buffer at the memory controller)
 *     entries   buffer lines (default: 64 at amb, 256 at mc)
 *     ways      buffer associativity (0 = fully associative)
 *
 * place defaults to amb.  entries and ways take decimal digits only
 * (no sign or blank).  Empty items are skipped, and a repeated key's
 * last value wins.  e.g. "region,entries=64", "region,place=mc" or
 * "region,ways=4".
 */

#ifndef FBDP_PREFETCH_PREFETCH_CONFIG_HH
#define FBDP_PREFETCH_PREFETCH_CONFIG_HH

#include <string>

namespace fbdp {

/** Where the prefetch buffer sits; the place changes only what a
 *  fill and a hit cost. */
enum class PrefetchPlace
{
    Amb,  ///< one buffer per DIMM behind its AMB (the paper's)
    Mc,   ///< one buffer at the controller (Section 6's comparison)
};

/** On/off, place and shape of the prefetch buffer. */
struct PrefetchConfig
{
    bool enabled = false;   ///< region fetch on ("region") or off
    PrefetchPlace place = PrefetchPlace::Amb;
    unsigned entries = 64;  ///< buffer lines (see parse())
    unsigned ways = 0;      ///< associativity; 0 = fully associative

    bool atMc() const { return place == PrefetchPlace::Mc; }

    /** Upper bound of entries and ways: a DRAM-side buffer larger
     *  than the 4 MB L2's 65536 lines is meaningless. */
    static constexpr unsigned maxCount = 1u << 16;

    /**
     * Parse a spec string (see the grammar above).  fatal()s on a
     * malformed spec, a policy other than region or none, an unknown
     * key, a place other than amb or mc, or a value that is not one
     * whole in-range number (ways in [0, maxCount], entries in
     * [1, maxCount]).  A spec without entries gets its place's: the
     * paper's 64-line AMB cache, or 256 lines at the controller.
     */
    static PrefetchConfig parse(const std::string &spec);
};

} // namespace fbdp

#endif // FBDP_PREFETCH_PREFETCH_CONFIG_HH
