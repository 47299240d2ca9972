//! DRAM organization: channels, pseudo-channels, bank groups, banks, rows, columns.
//!
//! The evaluated systems attach 40 HBM channels to each GPU (matching the A100's
//! ~2 TB/s of memory bandwidth at 1.512 GHz); every channel exposes two pseudo-channels
//! of 16 banks (4 bank groups x 4 banks, Table 1). Pimba places one SPU per two banks,
//! i.e. 8 SPUs per pseudo-channel.

/// Physical organization of the HBM attached to one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramGeometry {
    /// Number of independent channels per device.
    pub(crate) channels: usize,
    /// Pseudo-channels per channel.
    pub(crate) pseudo_channels_per_channel: usize,
    /// Bank groups per pseudo-channel.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Rows per bank.
    pub(crate) rows_per_bank: usize,
    /// Row buffer (page) size in bytes per pseudo-channel.
    pub(crate) row_bytes: usize,
    /// Bytes transferred by one column access (burst) per pseudo-channel.
    pub column_bytes: usize,
    /// Data bus width of one pseudo-channel in bits.
    pub(crate) bus_bits: usize,
}

impl DramGeometry {
    /// HBM2E organization used with the A100-class system (Table 1).
    pub fn hbm2e() -> Self {
        Self {
            channels: 40,
            pseudo_channels_per_channel: 2,
            bank_groups: 4,
            banks_per_group: 4,
            rows_per_bank: 32_768,
            row_bytes: 1024,
            column_bytes: 32,
            bus_bits: 64,
        }
    }

    /// HBM3 organization used with the H100-class system (Figure 16).
    pub fn hbm3() -> Self {
        Self {
            channels: 40,
            ..Self::hbm2e()
        }
    }

    /// Banks per pseudo-channel.
    pub fn banks_per_pseudo_channel(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Total pseudo-channels per device.
    pub fn pseudo_channels(&self) -> usize {
        self.channels * self.pseudo_channels_per_channel
    }

    /// Total banks per device.
    pub(crate) fn total_banks(&self) -> usize {
        self.pseudo_channels() * self.banks_per_pseudo_channel()
    }

    /// Columns per row (row size divided by the per-access burst size).
    pub fn columns_per_row(&self) -> usize {
        self.row_bytes / self.column_bytes
    }

    /// Capacity of one bank in bytes.
    pub(crate) fn bank_bytes(&self) -> usize {
        self.rows_per_bank * self.row_bytes
    }

    /// Total device capacity in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.bank_bytes() as f64 * self.total_banks() as f64
    }

    /// Peak external (channel) bandwidth of the whole device in GB/s at the given bus
    /// frequency (double data rate).
    pub fn peak_bandwidth_gbps(&self, bus_ghz: f64) -> f64 {
        let bytes_per_cycle = (self.bus_bits as f64 / 8.0) * 2.0; // DDR
        bytes_per_cycle * bus_ghz * self.pseudo_channels() as f64
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::hbm2e()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Peak *internal* bandwidth available to in-bank PIM units: every bank can stream
    /// one column per `t_ccd_l` cycles concurrently, whereas the external bus serializes
    /// banks within a pseudo-channel.
    fn peak_internal_bandwidth_gbps(g: &DramGeometry, bus_ghz: f64, t_ccd_l: u64) -> f64 {
        let per_bank = g.column_bytes as f64 * bus_ghz / t_ccd_l as f64;
        per_bank * g.total_banks() as f64
    }

    #[test]
    fn hbm2e_organization_matches_table1() {
        let g = DramGeometry::hbm2e();
        assert_eq!(g.bank_groups, 4);
        assert_eq!(g.banks_per_group, 4);
        assert_eq!(g.banks_per_pseudo_channel(), 16);
        assert_eq!(g.columns_per_row(), 32);
    }

    #[test]
    fn external_bandwidth_matches_a100() {
        // 40 channels x 2 pseudo-channels x 64 bit x 2 (DDR) x 1.512 GHz ≈ 1.94 TB/s,
        // the A100 80GB ballpark.
        let g = DramGeometry::hbm2e();
        let bw = g.peak_bandwidth_gbps(1.512);
        assert!((1800.0..2100.0).contains(&bw), "bandwidth {bw} GB/s");
    }

    #[test]
    fn h100_bandwidth_with_hbm3() {
        let g = DramGeometry::hbm3();
        let bw = g.peak_bandwidth_gbps(2.626);
        assert!((3200.0..3600.0).contains(&bw), "bandwidth {bw} GB/s");
    }

    #[test]
    fn internal_bandwidth_exceeds_external() {
        let g = DramGeometry::hbm2e();
        let ext = g.peak_bandwidth_gbps(1.512);
        let int = peak_internal_bandwidth_gbps(&g, 1.512, 4);
        assert!(int > 3.0 * ext, "internal {int} vs external {ext}");
    }

    #[test]
    fn capacity_is_tens_of_gigabytes() {
        let g = DramGeometry::hbm2e();
        let gb = g.total_bytes() / 1e9;
        assert!((20.0..120.0).contains(&gb), "capacity {gb} GB");
    }
}
