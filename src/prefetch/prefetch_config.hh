/**
 * @file
 * The configuration of one prefetch attachment point.
 *
 * One PrefetchConfig describes one prefetch attachment point (the AMB
 * caches or the controller-level buffer): which PolicyRegistry policy
 * drives it, how aggressively it may emit, and how its buffer is
 * organised.  SystemConfig and ControllerConfig each hold one per
 * attachment point; the policy "none" switches the point off.
 *
 * Spec-string grammar (the CLI's --amb-policy / --mc-policy value):
 *
 *     policy[,key=value]...
 *
 * where policy is a PolicyRegistry name ("region", "dspatch",
 * "indram", "none") and key is one of
 *
 *     degree    max candidate lines per demand (0 = policy default)
 *     entries   buffer lines
 *     ways      buffer associativity (0 = fully associative)
 *     throttle  northbound-utilisation ceiling in [0,1] above which
 *               all candidates are shed (0 = no throttling)
 *
 * degree, entries and ways take decimal digits only (no sign or
 * blank); throttle takes a plain decimal such as "0.8", ".5" or
 * "1e-1".  Empty items are skipped, and a repeated key's last value
 * wins.  e.g. "region,degree=4,entries=64" or "dspatch,throttle=0.8".
 */

#ifndef FBDP_PREFETCH_PREFETCH_CONFIG_HH
#define FBDP_PREFETCH_PREFETCH_CONFIG_HH

#include <string>

namespace fbdp {

/** Policy + buffer shape of one prefetch attachment point. */
struct PrefetchConfig
{
    /** PolicyRegistry key; "none" disables the attachment point. */
    std::string policy = "none";
    unsigned degree = 0;    ///< candidates per demand; 0 = default
    unsigned entries = 64;  ///< buffer lines
    unsigned ways = 0;      ///< associativity; 0 = fully associative
    double throttle = 0.0;  ///< link-util ceiling; 0 = off

    bool enabled() const { return policy != "none"; }

    /** Upper bound of degree, entries and ways: a DRAM-side buffer
     *  larger than the 4 MB L2's 65536 lines is meaningless. */
    static constexpr unsigned maxCount = 1u << 16;

    /**
     * Parse a spec string (see the grammar above).  fatal()s on a
     * malformed spec, an unknown key, a value that is not one whole
     * in-range number (degree and ways in [0, maxCount], entries in
     * [1, maxCount], throttle in [0,1]), or a policy name missing
     * from the PolicyRegistry.  @p dflt supplies the buffer shape for keys
     * the spec leaves out, so "--amb-policy=dspatch" inherits the
     * attachment point's natural entries/ways.
     */
    static PrefetchConfig parse(const std::string &spec,
                                const PrefetchConfig &dflt);
    static PrefetchConfig
    parse(const std::string &spec)
    {
        return parse(spec, PrefetchConfig{});
    }
};

} // namespace fbdp

#endif // FBDP_PREFETCH_PREFETCH_CONFIG_HH
