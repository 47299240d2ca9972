//! Mapping of state-update and attention operators onto the PIM and the resulting
//! latency and energy.
//!
//! Following Figure 7 (state data layout) and Figure 10 (KV cache layout), the
//! per-head state / KV tensors are split into DRAM-column-sized *sub-chunks*, grouped
//! into row-sized *chunks* and distributed round-robin over all banks of all
//! pseudo-channels, so every SPU has an equal share of columns to stream through.
//!
//! The latency of one operator is then
//!
//! ```text
//! row_groups_per_pc x row_group_cycles x cycle_time x refresh_penalty
//! ```
//!
//! where a *row group* is "every bank of a pseudo-channel streams one open row through
//! its unit". The row-group cycle count combines the COMP stream (validated against
//! the cycle-level controller in `scheduler`) with the activation / precharge
//! turnaround, of which the ACT4 serialization forced by `tFAW` is overlapped with
//! compute as in Figure 11.

use crate::designs::PimDesign;
use pimba_dram::energy::{EnergyCounters, EnergyModel};
use pimba_models::ops::OpShape;

/// Latency / energy result of running one operator on the PIM of a single device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimLatency {
    /// End-to-end latency in nanoseconds.
    pub latency_ns: f64,
    /// Total DRAM cycles on the critical pseudo-channel.
    pub(crate) cycles: f64,
    /// Number of columns processed device-wide.
    pub(crate) columns: f64,
    /// Number of row activations device-wide.
    pub activations: f64,
    /// Energy consumed device-wide.
    pub energy: EnergyCounters,
}

/// Cycles one row group takes for a design, including unhidden overheads.
pub fn row_group_cycles(design: &PimDesign, slots_per_column: u64, writes_back: bool) -> f64 {
    let t = design.timing;
    let g = design.geometry;
    let banks = g.banks_per_pseudo_channel() as u64;
    let columns = banks * g.columns_per_row() as u64;
    let units = design.units_per_pseudo_channel() as u64;
    let comp_cycles = columns.div_ceil(units) * slots_per_column * t.t_ccd_l;

    // Activating all banks takes (banks/4) ACT4 commands separated by tFAW; all but the
    // window that sticks out beyond the compute stream is hidden (Figure 11).
    let act_serialization = (banks / 4).saturating_sub(1) * t.t_faw;
    let unhidden_act = act_serialization.saturating_sub(comp_cycles);

    let turnaround = t.t_rcd + t.t_rp + if writes_back { t.t_wr } else { t.t_rtp_l };
    (comp_cycles + unhidden_act + turnaround) as f64
}

/// Multiplicative penalty for periodic refresh (`tRFC` every `tREFI`).
fn refresh_penalty(design: &PimDesign) -> f64 {
    let t = design.timing;
    t.t_refi as f64 / (t.t_refi - t.t_rfc) as f64
}

/// The per-(design, mode) factors of an operator's PIM latency: everything
/// but the element count it streams. A caller costing one mode at many sizes
/// (a step table fills the attention operator of one batch row at every
/// sequence length) derives them once with [`PimDesign::attention_mode`];
/// [`attention_latency`] and [`state_update_latency`] derive them per call.
/// Both paths evaluate the same formula through one private method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceMode {
    writes_back: bool,
    elems_per_col: f64,
    pseudo_channels: f64,
    columns_per_group: f64,
    group_cycles: f64,
    refresh_penalty: f64,
    cycle_ns: f64,
}

impl DeviceMode {
    /// The mode of `design` streaming with `slots_per_column` `tCCD_L` slots
    /// per column, writing results back or not.
    pub(crate) fn new(design: &PimDesign, writes_back: bool, slots_per_column: u64) -> Self {
        let g = design.geometry;
        Self {
            writes_back,
            elems_per_col: design.elements_per_column() as f64,
            pseudo_channels: g.pseudo_channels() as f64,
            columns_per_group: (g.banks_per_pseudo_channel() * g.columns_per_row()) as f64,
            group_cycles: row_group_cycles(design, slots_per_column, writes_back),
            refresh_penalty: refresh_penalty(design),
            cycle_ns: design.timing.cycle_ns(),
        }
    }

    /// Columns streamed device-wide for `total_elements`, and the cycles of
    /// the critical pseudo-channel.
    fn columns_and_cycles(&self, total_elements: f64) -> (f64, f64) {
        let columns_total = (total_elements / self.elems_per_col).ceil();
        let columns_per_pc = (columns_total / self.pseudo_channels).ceil();
        let groups = (columns_per_pc / self.columns_per_group).max(1.0);
        (
            columns_total,
            groups * self.group_cycles * self.refresh_penalty,
        )
    }

    /// Latency in nanoseconds of streaming `total_elements` — the
    /// [`PimLatency::latency_ns`] of the full operator costing, without its
    /// energy accounting.
    pub fn latency_ns(&self, total_elements: f64) -> f64 {
        self.columns_and_cycles(total_elements).1 * self.cycle_ns
    }
}

fn device_latency(design: &PimDesign, mode: &DeviceMode, total_elements: f64) -> PimLatency {
    let g = design.geometry;
    let (columns_total, cycles) = mode.columns_and_cycles(total_elements);
    let latency_ns = cycles * mode.cycle_ns;

    // Energy accounting: every column is an internal access; every touched row is an
    // activation; operands/results cross the IO pins once per chunk.
    let rows_touched = columns_total / g.columns_per_row() as f64;
    let io_transfers = rows_touched * 1.5; // REG_WRITE per chunk group + RESULT_READ per chunk
    let model = EnergyModel::hbm2e();
    let col_bits = (g.column_bytes * 8) as f64;
    let energy = EnergyCounters {
        activation_pj: rows_touched * model.activation_pj,
        column_pj: columns_total
            * col_bits
            * model.column_pj_per_bit
            * if mode.writes_back { 2.0 } else { 1.0 },
        io_pj: io_transfers * col_bits * model.io_pj_per_bit,
        pim_compute_pj: columns_total * g.column_bytes as f64 * model.pim_compute_pj_per_byte,
    };

    PimLatency {
        latency_ns,
        cycles,
        columns: columns_total,
        activations: rows_touched,
        energy,
    }
}

/// Latency of a full state-update operator (all layers, heads and requests of the
/// shape) on the PIM of one device.
///
/// # Panics
///
/// Panics if `shape` is not a state-update shape (callers go through
/// [`PimDesign::state_update_latency`], which checks).
pub fn state_update_latency(design: &PimDesign, shape: &OpShape) -> PimLatency {
    let OpShape::StateUpdate {
        batch,
        layers,
        heads,
        dim_head,
        dim_state,
    } = *shape
    else {
        panic!("state_update_latency requires a StateUpdate shape");
    };
    let total_elements =
        batch as f64 * layers as f64 * heads as f64 * dim_head as f64 * dim_state as f64;
    let mode = DeviceMode::new(design, true, design.state_update_slots_per_column());
    device_latency(design, &mode, total_elements)
}

/// Latency of a full attention operator (score + attend over the whole KV cache) on
/// the PIM of one device.
///
/// # Panics
///
/// Panics if `shape` is not an attention shape.
pub fn attention_latency(design: &PimDesign, shape: &OpShape) -> PimLatency {
    let OpShape::Attention {
        batch,
        layers,
        heads,
        dim_head,
        seq_len,
    } = *shape
    else {
        panic!("attention_latency requires an Attention shape");
    };
    let total_elements =
        attention_elements_per_token(batch, layers, heads, dim_head) * seq_len as f64;
    device_latency(design, &design.attention_mode(), total_elements)
}

/// KV elements an attention operator streams per cached token: keys in the
/// score phase, values in the attend phase. Times the sequence length, this
/// is the element count [`attention_latency`] costs.
pub fn attention_elements_per_token(
    batch: usize,
    layers: usize,
    heads: usize,
    dim_head: usize,
) -> f64 {
    2.0 * batch as f64 * layers as f64 * heads as f64 * dim_head as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::PimDesignKind;
    use crate::scheduler::{measure_row_group, RowGroupPlan};

    fn pimba() -> PimDesign {
        PimDesign::new(PimDesignKind::Pimba)
    }

    #[test]
    fn analytic_row_group_is_consistent_with_cycle_level_measurement() {
        // The analytic row-group model (with ACT4 serialization overlapped) must sit
        // between the pure COMP stream and the fully serialized measurement.
        let d = pimba();
        let columns = d.geometry.banks_per_pseudo_channel() * d.geometry.columns_per_row();
        let comps = columns / d.units_per_pseudo_channel();
        let plan = RowGroupPlan {
            comps,
            reg_writes: 8,
            result_reads: 8,
            writes_back: true,
        };
        let measured = measure_row_group(d.timing, d.geometry, &plan);
        let analytic = row_group_cycles(&d, 1, true);
        let comp_only = (comps as u64 * d.timing.t_ccd_l) as f64;
        assert!(analytic >= comp_only);
        assert!(
            analytic <= measured.total_cycles as f64 * 1.05,
            "analytic {analytic} should not exceed the serialized measurement {}",
            measured.total_cycles
        );
    }

    #[test]
    fn state_update_speedup_over_gpu_is_about_an_order_of_magnitude() {
        // Mamba-2 2.7B, batch 128: the paper reports 14.6x lower state-update latency
        // than the GPU. The GPU needs ~(read+write of the fp16 state)/bandwidth.
        let shape = OpShape::StateUpdate {
            batch: 128,
            layers: 64,
            heads: 80,
            dim_head: 64,
            dim_state: 128,
        };
        let d = pimba();
        let pim = state_update_latency(&d, &shape);
        let elements = 128.0 * 64.0 * 80.0 * 64.0 * 128.0;
        let gpu_bytes = elements * 2.0 * 2.0; // fp16, read + write
        let gpu_bw = d.geometry.peak_bandwidth_gbps(d.timing.bus_ghz) * 0.85; // GB/s effective
        let gpu_ns = gpu_bytes / gpu_bw;
        let speedup = gpu_ns / pim.latency_ns;
        assert!(
            (8.0..22.0).contains(&speedup),
            "Pimba state-update speedup {speedup:.1}x out of the expected band"
        );
    }

    #[test]
    fn latency_scales_linearly_with_batch() {
        let d = pimba();
        let small = OpShape::StateUpdate {
            batch: 32,
            layers: 64,
            heads: 80,
            dim_head: 64,
            dim_state: 128,
        };
        let large = OpShape::StateUpdate {
            batch: 128,
            layers: 64,
            heads: 80,
            dim_head: 64,
            dim_state: 128,
        };
        let a = state_update_latency(&d, &small).latency_ns;
        let b = state_update_latency(&d, &large).latency_ns;
        let ratio = b / a;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn attention_avoids_write_back_costs() {
        let d = pimba();
        let su = OpShape::StateUpdate {
            batch: 64,
            layers: 32,
            heads: 32,
            dim_head: 128,
            dim_state: 128,
        };
        let at = OpShape::Attention {
            batch: 64,
            layers: 32,
            heads: 32,
            dim_head: 128,
            seq_len: 64,
        };
        // Same number of elements streamed (2 * seq_len == dim_state).
        let su_elems = 64.0 * 32.0 * 32.0 * 128.0 * 128.0;
        let at_elems = 2.0 * 64.0 * 32.0 * 32.0 * 128.0 * 64.0;
        assert_eq!(su_elems, at_elems);
        let su_lat = state_update_latency(&d, &su);
        let at_lat = attention_latency(&d, &at);
        assert!(at_lat.latency_ns <= su_lat.latency_ns);
        assert!(
            at_lat.energy.column_pj < su_lat.energy.column_pj,
            "no write-back energy"
        );
    }

    #[test]
    fn energy_has_no_io_dominance() {
        // The whole point of PIM: column/activation energy dominates, IO energy is a
        // small fraction because only operands and results cross the pins.
        let d = pimba();
        let shape = OpShape::StateUpdate {
            batch: 128,
            layers: 64,
            heads: 80,
            dim_head: 64,
            dim_state: 128,
        };
        let lat = state_update_latency(&d, &shape);
        assert!(lat.energy.io_pj < 0.2 * lat.energy.total_pj());
    }

    #[test]
    fn refresh_penalty_is_small_but_positive() {
        let d = pimba();
        let p = refresh_penalty(&d);
        assert!(p > 1.0 && p < 1.2, "refresh penalty {p}");
    }
}
