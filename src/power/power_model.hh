/**
 * @file
 * DRAM device power estimation (Section 5.5).
 *
 * The paper feeds DDR2 parameters to the Micron system-power
 * calculator at 70 % bandwidth utilisation and 0 % row-buffer hit rate
 * (close-page), and extracts one calibration: an activate/precharge
 * pair consumes roughly four times the dynamic energy of one column
 * access.  With the simulator supplying the ACT/PRE and column-access
 * counts, relative dynamic power follows directly.  Static power
 * (17.5 % of the baseline total per the calculator) can be folded in
 * for total-power comparisons.
 */

#ifndef FBDP_POWER_POWER_MODEL_HH
#define FBDP_POWER_POWER_MODEL_HH

#include "common/types.hh"
#include "dram/dimm.hh"

namespace fbdp {

/** Calibrated DRAM energy model. */
class PowerModel
{
  public:
    /** @param act_pre_weight energy of one ACT/PRE pair relative to
     *                        one column access (paper: 4.0) */
    explicit PowerModel(double act_pre_weight = 4.0,
                        double static_share = 0.175)
        : actPreWeight(act_pre_weight), staticShare(static_share)
    {}

    /** Dynamic energy in column-access units. */
    double
    dynamicEnergy(const DramOpCounts &c) const
    {
        return actPreWeight * static_cast<double>(c.actPre)
            + static_cast<double>(c.cas());
    }

    /** Dynamic power in column-access units per second. */
    double
    dynamicPower(const DramOpCounts &c, Tick window) const
    {
        if (window == 0)
            return 0.0;
        return dynamicEnergy(c)
            / (static_cast<double>(window) * 1e-12);
    }

    /**
     * Dynamic power of @p test relative to @p base (the paper's
     * Fig. 13 metric: device power normalised to FB-DIMM without AMB
     * prefetching; only dynamic power counted).
     */
    double
    relativeDynamicPower(const DramOpCounts &test, Tick test_window,
                         const DramOpCounts &base,
                         Tick base_window) const;

    /**
     * Dynamic energy for the same amount of work, i.e. normalised per
     * executed instruction.  This is the Fig. 13 metric: the paper
     * compares DRAM operation counts for identical instruction
     * windows, so a faster run does not inflate its "power".
     */
    double
    relativeDynamicEnergy(const DramOpCounts &test,
                          double test_insts,
                          const DramOpCounts &base,
                          double base_insts) const;

    /**
     * Total-power ratio including the static share: static power is
     * constant in watts, so it contributes the same to both sides.
     */
    double
    relativeTotalPower(const DramOpCounts &test, Tick test_window,
                       const DramOpCounts &base,
                       Tick base_window) const;

    double actPreToCasRatio() const { return actPreWeight; }

  private:
    double actPreWeight;
    double staticShare;
};

} // namespace fbdp

#endif // FBDP_POWER_POWER_MODEL_HH
