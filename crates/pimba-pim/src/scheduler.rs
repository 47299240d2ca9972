//! Pimba command scheduling (Figure 11).
//!
//! During the generation phase, the host drives each pseudo-channel with the
//! repeating pattern
//!
//! ```text
//! ACT4 ... ACT4   REG_WRITE (overlapped)   COMP x N   RESULT_READ / PRECHARGES
//! ```
//!
//! where operand transfers (REG_WRITE) are slotted into the idle cycles forced by the
//! `tFAW` window between ACT4 commands. This module builds that stream for one *row
//! group* (all banks of a pseudo-channel processing one open row each) and runs it on
//! the cycle-level DRAM controller: [`measure_row_group`] checks that the stream obeys
//! every timing constraint and reports its cycles. The kernels do not use it; their
//! latencies come from the analytic [`row_group_cycles`](crate::kernels::row_group_cycles),
//! which the tests and the ablation bench compare against this measurement.
//!
//! The stream issues the RESULT_READ bursts after PRECHARGES when the group writes
//! its state back, and before PRECHARGES when the group is read-only. Figure 11
//! instead overlaps RESULT_READ with the precharge.

use pimba_dram::command::DramCommand;
use pimba_dram::controller::PseudoChannel;
use pimba_dram::geometry::DramGeometry;
use pimba_dram::timing::TimingParams;

/// Description of one row-group command stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowGroupPlan {
    /// Number of COMP commands issued (each advances every active SPU by one column).
    pub comps: usize,
    /// Number of operand REG_WRITE bursts (shared d/q/k vectors plus per-chunk v).
    pub reg_writes: usize,
    /// Number of RESULT_READ bursts returning partial sums to the host.
    pub result_reads: usize,
    /// Whether the updated state must be written back (state update) or the row is
    /// read-only (attention score/attend).
    pub writes_back: bool,
}

/// Measured outcome of executing a row-group stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowGroupTiming {
    /// Total cycles from the first ACT4 to the final PRECHARGES.
    pub total_cycles: u64,
    /// Cycles spent in the COMP stream itself.
    pub comp_cycles: u64,
    /// Cycles of per-group overhead (activation, operand transfer, precharge).
    pub overhead_cycles: u64,
}

impl RowGroupTiming {
    /// Fraction of the group spent doing useful COMP work.
    pub fn compute_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.comp_cycles as f64 / self.total_cycles as f64
        }
    }
}

/// Builds the command stream for one row group and executes it on a fresh
/// pseudo-channel, returning the measured timing.
///
/// The stream opens all banks with ganged ACT4 commands, slots the REG_WRITE operand
/// transfers into the activation window, streams the COMP commands at the `tCCD_L`
/// cadence, and finishes with the RESULT_READ bursts and PRECHARGES: the bursts come
/// after PRECHARGES when the group writes back, before it otherwise.
pub fn measure_row_group(
    timing: TimingParams,
    geometry: DramGeometry,
    plan: &RowGroupPlan,
) -> RowGroupTiming {
    let mut pc = PseudoChannel::new(timing, geometry);
    // Refresh is accounted at the system level (it costs tRFC every tREFI regardless of
    // what the PIM does), so the per-group measurement excludes it.
    pc.set_auto_refresh(false);

    let banks = geometry.banks_per_pseudo_channel();
    let start = pc.now();

    // Ganged activations, four banks at a time, with operand transfers overlapped in
    // the tFAW-forced gaps.
    let mut reg_written = 0usize;
    for first in (0..banks).step_by(4) {
        let group = [first, first + 1, first + 2, first + 3];
        pc.execute(DramCommand::Act4 {
            banks: group,
            row: 0,
        });
        while reg_written < plan.reg_writes
            && reg_written < (first / 4 + 1) * plan.reg_writes.div_ceil(banks / 4)
        {
            pc.execute(DramCommand::RegWrite);
            reg_written += 1;
        }
    }
    while reg_written < plan.reg_writes {
        pc.execute(DramCommand::RegWrite);
        reg_written += 1;
    }

    let comp_start = pc.now();
    for _ in 0..plan.comps {
        pc.execute(DramCommand::Comp);
    }
    let comp_end = pc.now();

    // Results stream back after the precharge on write-back groups, before it on
    // read-only ones.
    if plan.writes_back {
        pc.execute(DramCommand::PrechargeAll);
        for _ in 0..plan.result_reads {
            pc.execute(DramCommand::ResultRead);
        }
    } else {
        for _ in 0..plan.result_reads {
            pc.execute(DramCommand::ResultRead);
        }
        pc.execute(DramCommand::PrechargeAll);
    }

    let total = pc.now() - start;
    let comp = comp_end.saturating_sub(comp_start);
    RowGroupTiming {
        total_cycles: total,
        comp_cycles: comp,
        overhead_cycles: total.saturating_sub(comp),
    }
}

/// Convenience: the steady-state cycles per COMP (should equal `tCCD_L`).
pub fn comp_cadence_cycles(timing: TimingParams, geometry: DramGeometry) -> u64 {
    let mut pc = PseudoChannel::new(timing, geometry);
    pc.set_auto_refresh(false);
    pc.execute(DramCommand::Act4 {
        banks: [0, 1, 2, 3],
        row: 0,
    });
    let first = pc.execute(DramCommand::Comp);
    let second = pc.execute(DramCommand::Comp);
    second - first
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> (TimingParams, DramGeometry) {
        (TimingParams::hbm2e(), DramGeometry::hbm2e())
    }

    #[test]
    fn comp_cadence_equals_tccd_l() {
        let (t, g) = defaults();
        assert_eq!(comp_cadence_cycles(t, g), t.t_ccd_l);
    }

    #[test]
    fn row_group_compute_dominates_for_full_rows() {
        // A full row group (every bank streams its 32 columns through 8 SPUs => 64
        // COMPs at tCCD_L) must spend most of its time computing, not activating.
        let (t, g) = defaults();
        let plan = RowGroupPlan {
            comps: 64,
            reg_writes: 8,
            result_reads: 4,
            writes_back: true,
        };
        let timing = measure_row_group(t, g, &plan);
        assert!(timing.comp_cycles >= 63 * t.t_ccd_l);
        assert!(
            timing.compute_fraction() > 0.55,
            "compute fraction {} too low",
            timing.compute_fraction()
        );
        assert!(
            timing.overhead_cycles > 0,
            "activation/precharge overhead cannot be zero"
        );
    }

    #[test]
    fn reg_writes_are_hidden_in_the_activation_window() {
        let (t, g) = defaults();
        let without = measure_row_group(
            t,
            g,
            &RowGroupPlan {
                comps: 64,
                reg_writes: 0,
                result_reads: 4,
                writes_back: true,
            },
        );
        let with = measure_row_group(
            t,
            g,
            &RowGroupPlan {
                comps: 64,
                reg_writes: 8,
                result_reads: 4,
                writes_back: true,
            },
        );
        // Eight operand bursts fit into the tFAW gaps between ACT4 commands, so the
        // total barely moves (Figure 11).
        assert!(
            with.total_cycles <= without.total_cycles + 2 * t.burst_cycles,
            "REG_WRITE not overlapped: {} vs {}",
            with.total_cycles,
            without.total_cycles
        );
    }

    #[test]
    fn result_read_overlaps_with_precharge() {
        let (t, g) = defaults();
        let plan = RowGroupPlan {
            comps: 32,
            reg_writes: 4,
            result_reads: 4,
            writes_back: true,
        };
        let timing = measure_row_group(t, g, &plan);
        let plan_no_rr = RowGroupPlan {
            comps: 32,
            reg_writes: 4,
            result_reads: 0,
            writes_back: true,
        };
        let without = measure_row_group(t, g, &plan_no_rr);
        // Result reads ride on the data bus while the banks precharge; the extra cost
        // is bounded by the bus bursts themselves, not a serial tail.
        assert!(timing.total_cycles <= without.total_cycles + 4 * (t.t_cl + t.burst_cycles));
    }

    #[test]
    fn more_comps_scale_linearly() {
        let (t, g) = defaults();
        let small = measure_row_group(
            t,
            g,
            &RowGroupPlan {
                comps: 32,
                reg_writes: 4,
                result_reads: 2,
                writes_back: true,
            },
        );
        let large = measure_row_group(
            t,
            g,
            &RowGroupPlan {
                comps: 128,
                reg_writes: 4,
                result_reads: 2,
                writes_back: true,
            },
        );
        let delta = large.total_cycles - small.total_cycles;
        assert_eq!(
            delta,
            96 * t.t_ccd_l,
            "COMP stream must scale at the tCCD_L cadence"
        );
    }

    #[test]
    fn read_only_groups_are_cheaper_than_write_back_groups() {
        let (t, g) = defaults();
        let wb = measure_row_group(
            t,
            g,
            &RowGroupPlan {
                comps: 64,
                reg_writes: 4,
                result_reads: 4,
                writes_back: true,
            },
        );
        let ro = measure_row_group(
            t,
            g,
            &RowGroupPlan {
                comps: 64,
                reg_writes: 4,
                result_reads: 4,
                writes_back: false,
            },
        );
        assert!(ro.total_cycles <= wb.total_cycles);
    }
}
