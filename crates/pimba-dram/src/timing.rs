//! DRAM timing parameter sets.
//!
//! All parameters are expressed in memory-bus clock cycles, following Table 1 of the
//! paper. The PIM compute units (SPUs) are clocked at a quarter of the bus frequency
//! because one `COMP` occupies `tCCD_L = 4` bus cycles.

/// Timing parameters of one HBM generation (all values in memory-bus cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingParams {
    /// Memory bus frequency in GHz (command/address clock).
    pub bus_ghz: f64,
    /// Row precharge time.
    pub t_rp: u64,
    /// Row active time (minimum time a row must stay open).
    pub t_ras: u64,
    /// Activate-to-column-command delay.
    pub t_rcd: u64,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s: u64,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: u64,
    /// Write recovery time.
    pub t_wr: u64,
    /// Read-to-precharge, different bank group.
    pub(crate) t_rtp_s: u64,
    /// Read-to-precharge, same bank group.
    pub t_rtp_l: u64,
    /// Average refresh interval.
    pub t_refi: u64,
    /// Refresh cycle time (bank busy during refresh).
    pub t_rfc: u64,
    /// Four-activation window.
    pub t_faw: u64,
    /// CAS (read) latency.
    pub t_cl: u64,
    /// Write latency.
    pub t_cwl: u64,
    /// Burst length in bus cycles (BL4 double-data-rate = 2 cycles of occupancy).
    pub burst_cycles: u64,
}

impl TimingParams {
    /// HBM2E parameters from Table 1 of the paper (1.512 GHz bus).
    pub fn hbm2e() -> Self {
        Self {
            bus_ghz: 1.512,
            t_rp: 14,
            t_ras: 34,
            t_rcd: 14,
            t_ccd_s: 2,
            t_ccd_l: 4,
            t_wr: 16,
            t_rtp_s: 4,
            t_rtp_l: 6,
            t_refi: 3900,
            t_rfc: 350,
            t_faw: 30,
            t_cl: 20,
            t_cwl: 8,
            burst_cycles: 2,
        }
    }

    /// HBM3 parameters used for the H100 configuration (2.626 GHz bus; latencies in
    /// nanoseconds stay roughly constant, so the cycle counts scale with frequency).
    pub fn hbm3() -> Self {
        let base = Self::hbm2e();
        let scale = 2.626 / 1.512;
        let s = |v: u64| ((v as f64) * scale).round() as u64;
        Self {
            bus_ghz: 2.626,
            t_rp: s(base.t_rp),
            t_ras: s(base.t_ras),
            t_rcd: s(base.t_rcd),
            t_ccd_s: base.t_ccd_s,
            t_ccd_l: base.t_ccd_l,
            t_wr: s(base.t_wr),
            t_rtp_s: s(base.t_rtp_s),
            t_rtp_l: s(base.t_rtp_l),
            t_refi: s(base.t_refi),
            t_rfc: s(base.t_rfc),
            t_faw: s(base.t_faw),
            t_cl: s(base.t_cl),
            t_cwl: s(base.t_cwl),
            burst_cycles: base.burst_cycles,
        }
    }

    /// Duration of one bus cycle in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.bus_ghz
    }

    /// PIM (SPU) clock frequency in MHz: one SPU iteration per `tCCD_L` bus cycles
    /// (378 MHz for HBM2E, 657 MHz for HBM3, matching the paper).
    pub fn pim_frequency_mhz(&self) -> f64 {
        self.bus_ghz * 1000.0 / self.t_ccd_l as f64
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::hbm2e()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm2e_matches_table1() {
        let t = TimingParams::hbm2e();
        assert_eq!(t.t_rp, 14);
        assert_eq!(t.t_ras, 34);
        assert_eq!(t.t_ccd_s, 2);
        assert_eq!(t.t_ccd_l, 4);
        assert_eq!(t.t_wr, 16);
        assert_eq!(t.t_rtp_s, 4);
        assert_eq!(t.t_rtp_l, 6);
        assert_eq!(t.t_refi, 3900);
        assert_eq!(t.t_faw, 30);
        assert!((t.bus_ghz - 1.512).abs() < 1e-9);
    }

    #[test]
    fn pim_frequency_matches_paper() {
        // 1.512 GHz / 4 = 378 MHz (Table 1), 2.626 GHz / 4 ≈ 656.5 MHz (Section 6.2).
        assert!((TimingParams::hbm2e().pim_frequency_mhz() - 378.0).abs() < 1.0);
        assert!((TimingParams::hbm3().pim_frequency_mhz() - 656.5).abs() < 2.0);
    }

    #[test]
    fn hbm3_latencies_scale_with_frequency() {
        let a = TimingParams::hbm2e();
        let b = TimingParams::hbm3();
        assert!(b.t_rp > a.t_rp);
        assert!((a.t_rp as f64 * a.cycle_ns() - b.t_rp as f64 * b.cycle_ns()).abs() < 1.0);
        assert_eq!(b.t_ccd_l, a.t_ccd_l, "column cadence stays 4 cycles");
    }

    #[test]
    fn cycle_conversion() {
        let t = TimingParams::hbm2e();
        assert!((1512.0 * t.cycle_ns() - 1000.0).abs() < 1e-6);
    }
}
