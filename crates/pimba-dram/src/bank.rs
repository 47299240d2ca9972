//! Per-bank row-buffer state tracking.

/// Timing-relevant state of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankState {
    /// Currently open row, if any.
    pub open_row: Option<usize>,
    /// Earliest cycle at which the bank may be activated.
    pub can_activate_at: u64,
    /// Earliest cycle at which a column command may target the bank.
    pub can_column_at: u64,
    /// Earliest cycle at which the bank may be precharged.
    pub can_precharge_at: u64,
    /// Number of activations this bank has seen (statistics).
    pub activations: u64,
}

impl BankState {
    /// A freshly powered-up, precharged bank.
    pub fn new() -> Self {
        Self {
            open_row: None,
            can_activate_at: 0,
            can_column_at: 0,
            can_precharge_at: 0,
            activations: 0,
        }
    }

    /// Returns `true` if a row is currently open.
    pub fn is_open(&self) -> bool {
        self.open_row.is_some()
    }

    /// Records an activation of `row` at `cycle` with the given tRCD/tRAS constraints.
    pub fn activate(&mut self, row: usize, cycle: u64, t_rcd: u64, t_ras: u64) {
        self.open_row = Some(row);
        self.can_column_at = cycle + t_rcd;
        self.can_precharge_at = cycle + t_ras;
        self.activations += 1;
    }

    /// Records a column read at `cycle`; precharge must wait for read-to-precharge.
    pub fn column_read(&mut self, cycle: u64, t_rtp: u64) {
        self.can_precharge_at = self.can_precharge_at.max(cycle + t_rtp);
    }

    /// Records a column write at `cycle`; precharge must wait for write recovery after
    /// the data has been transferred.
    pub fn column_write(&mut self, cycle: u64, t_cwl: u64, burst: u64, t_wr: u64) {
        self.can_precharge_at = self.can_precharge_at.max(cycle + t_cwl + burst + t_wr);
    }

    /// Records a precharge at `cycle`; reactivation must wait tRP.
    pub fn precharge(&mut self, cycle: u64, t_rp: u64) {
        self.open_row = None;
        self.can_activate_at = self.can_activate_at.max(cycle + t_rp);
    }

    /// Blocks the bank until `cycle` (used by refresh).
    pub fn block_until(&mut self, cycle: u64) {
        self.can_activate_at = self.can_activate_at.max(cycle);
        self.can_column_at = self.can_column_at.max(cycle);
        self.can_precharge_at = self.can_precharge_at.max(cycle);
    }
}

impl Default for BankState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_opens_row_and_sets_windows() {
        let mut b = BankState::new();
        assert!(!b.is_open());
        b.activate(42, 100, 14, 34);
        assert_eq!(b.open_row, Some(42));
        assert_eq!(b.can_column_at, 114);
        assert_eq!(b.can_precharge_at, 134);
        assert_eq!(b.activations, 1);
    }

    #[test]
    fn precharge_closes_row() {
        let mut b = BankState::new();
        b.activate(1, 0, 14, 34);
        b.precharge(40, 14);
        assert!(!b.is_open());
        assert_eq!(b.can_activate_at, 54);
    }

    #[test]
    fn reads_and_writes_extend_precharge_window() {
        let mut b = BankState::new();
        b.activate(1, 0, 14, 34);
        b.column_read(30, 6);
        assert_eq!(b.can_precharge_at, 36);
        b.column_write(40, 8, 2, 16);
        assert_eq!(b.can_precharge_at, 40 + 8 + 2 + 16);
    }

    #[test]
    fn block_until_only_moves_forward() {
        let mut b = BankState::new();
        b.block_until(100);
        b.block_until(50);
        assert_eq!(b.can_activate_at, 100);
        assert_eq!(b.can_column_at, 100);
    }
}
