/**
 * @file
 * The configuration of the prefetch buffer.
 *
 * One PrefetchConfig describes the one prefetch buffer of a machine:
 * which PolicyRegistry policy drives it, where it sits, how
 * aggressively it may emit, and how it is organised.  The policy
 * "none" switches prefetching off.
 *
 * Spec-string grammar (the CLI's --prefetch value):
 *
 *     policy[,key=value]...
 *
 * where policy is a PolicyRegistry name ("region", "dspatch",
 * "indram", "none") and key is one of
 *
 *     place     amb (one buffer per DIMM, behind its AMB; FB-DIMM
 *               only) or mc (one buffer at the memory controller)
 *     degree    max candidate lines per demand (0 = policy default)
 *     entries   buffer lines (default: 64 at amb, 256 at mc)
 *     ways      buffer associativity (0 = fully associative)
 *     throttle  northbound-utilisation ceiling in [0,1] above which
 *               all candidates are shed (0 = no throttling)
 *
 * place defaults to amb.  degree, entries and ways take decimal
 * digits only (no sign or blank); throttle takes a plain decimal such
 * as "0.8", ".5" or "1e-1".  Empty items are skipped, and a repeated
 * key's last value wins.  e.g. "region,degree=4,entries=64",
 * "dspatch,throttle=0.8" or "region,place=mc".
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

/** Policy, place and shape of the prefetch buffer. */
struct PrefetchConfig
{
    /** PolicyRegistry key; "none" disables prefetching. */
    std::string policy = "none";
    PrefetchPlace place = PrefetchPlace::Amb;
    unsigned degree = 0;    ///< candidates per demand; 0 = default
    unsigned entries = 64;  ///< buffer lines (see parse())
    unsigned ways = 0;      ///< associativity; 0 = fully associative
    double throttle = 0.0;  ///< link-util ceiling; 0 = off

    bool enabled() const { return policy != "none"; }
    bool atMc() const { return place == PrefetchPlace::Mc; }

    /** Upper bound of degree, entries and ways: a DRAM-side buffer
     *  larger than the 4 MB L2's 65536 lines is meaningless. */
    static constexpr unsigned maxCount = 1u << 16;

    /**
     * Parse a spec string (see the grammar above).  fatal()s on a
     * malformed spec, an unknown key, a place other than amb or mc, a
     * value that is not one whole in-range number (degree and ways in
     * [0, maxCount], entries in [1, maxCount], throttle in [0,1]), or
     * a policy name missing from the PolicyRegistry.  A spec without
     * entries gets its place's: the paper's 64-line AMB cache, or 256
     * lines at the controller.
     */
    static PrefetchConfig parse(const std::string &spec);
};

} // namespace fbdp

#endif // FBDP_PREFETCH_PREFETCH_CONFIG_HH
