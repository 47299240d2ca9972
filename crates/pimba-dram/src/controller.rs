//! Pseudo-channel command issue engine.
//!
//! The controller tracks the timing state of every bank in a pseudo-channel plus the
//! shared resources (command/address bus occupancy is ignored — one command per cycle
//! is assumed — but the data bus, the column-to-column cadence, the four-activation
//! window and periodic refresh are modelled). [`PseudoChannel::execute`] advances
//! time to the earliest legal cycle and issues the command, which is what the PIM
//! kernel scheduler uses to measure how long a command stream takes;
//! [`PseudoChannel::earliest_issue`] reports that cycle without issuing.

use crate::bank::BankState;
use crate::command::DramCommand;
use crate::geometry::DramGeometry;
use crate::timing::TimingParams;
use std::collections::VecDeque;

/// A command was issued earlier than a timing constraint allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TimingViolation {
    /// The command that violated a constraint.
    pub(crate) command: String,
    /// The cycle at which issue was attempted.
    pub(crate) attempted_at: u64,
    /// The earliest legal cycle.
    pub(crate) earliest_legal: u64,
    /// Human-readable description of the violated constraint.
    pub(crate) constraint: String,
}

impl std::fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} issued at cycle {} but {} allows it only from cycle {}",
            self.command, self.attempted_at, self.constraint, self.earliest_legal
        )
    }
}

impl std::error::Error for TimingViolation {}

/// Per-pseudo-channel statistics (feed the energy model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Row activations (ACT and each bank of ACT4).
    pub activations: u64,
    /// Column reads over the external bus.
    pub reads: u64,
    /// Column writes over the external bus.
    pub writes: u64,
    /// PIM compute column accesses (internal read + write per involved bank pair).
    pub comp_columns: u64,
    /// Operand register writes.
    pub reg_writes: u64,
    /// Result reads.
    pub result_reads: u64,
    /// All-bank refreshes performed.
    pub refreshes: u64,
}

/// Cycle-level model of one pseudo-channel.
///
/// Besides the per-bank state machines, the controller maintains a handful of
/// incrementally updated aggregates (open-bank count, earliest-legal-cycle maxima
/// over the open banks, the group-wise column-command maximum) so that
/// [`PseudoChannel::earliest_issue`] answers in O(1) for the commands on the PIM
/// hot path (`COMP`, `PrechargeAll`) instead of scanning every bank per command.
/// [`PseudoChannel::earliest_issue_reference`] keeps the brute-force scans as a
/// validation oracle; the property tests drive both against random command streams
/// and assert they agree exactly.
#[derive(Debug, Clone)]
pub struct PseudoChannel {
    timing: TimingParams,
    geometry: DramGeometry,
    banks: Vec<BankState>,
    now: u64,
    /// Last column command per bank group (for tCCD_L) and overall (for tCCD_S).
    last_col_same_group: Vec<u64>,
    last_col_any: u64,
    /// Cycle from which the data bus is free again.
    data_bus_free_at: u64,
    /// Issue times of the most recent activations (for tFAW; ACT4 inserts four).
    /// Nondecreasing by construction: issue cycles never run backwards.
    activation_window: VecDeque<u64>,
    /// Next scheduled refresh deadline.
    next_refresh_at: u64,
    /// Whether refresh is automatically inserted when its deadline passes.
    auto_refresh: bool,
    stats: ChannelStats,
    /// Number of banks with an open row.
    open_count: usize,
    /// Max of `can_column_at` over the open banks (0 when none are open).
    agg_open_can_column: u64,
    /// Max of `can_precharge_at` over the open banks (0 when none are open).
    agg_open_can_precharge: u64,
    /// Running max of `last_col_same_group` (column cycles are monotone, so this
    /// needs no removal handling).
    last_col_group_max: u64,
}

impl PseudoChannel {
    /// Creates a pseudo-channel at cycle zero.
    pub fn new(timing: TimingParams, geometry: DramGeometry) -> Self {
        let banks = vec![BankState::new(); geometry.banks_per_pseudo_channel()];
        let groups = geometry.bank_groups;
        Self {
            next_refresh_at: timing.t_refi,
            timing,
            geometry,
            banks,
            now: 0,
            last_col_same_group: vec![0; groups],
            last_col_any: 0,
            data_bus_free_at: 0,
            activation_window: VecDeque::new(),
            auto_refresh: true,
            stats: ChannelStats::default(),
            open_count: 0,
            agg_open_can_column: 0,
            agg_open_can_precharge: 0,
            last_col_group_max: 0,
        }
    }

    /// Disables automatic refresh insertion (useful for isolating timing behaviour in
    /// tests; real deployments keep it enabled).
    pub fn set_auto_refresh(&mut self, enabled: bool) {
        self.auto_refresh = enabled;
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Timing parameters in use.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Geometry in use.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// State of bank `bank` (read-only).
    pub fn bank(&self, bank: usize) -> &BankState {
        &self.banks[bank]
    }

    fn group_of(&self, bank: usize) -> usize {
        bank / self.geometry.banks_per_group
    }

    /// Earliest cycle at which the four-activation window admits another activation
    /// burst of `count` activations.
    fn faw_earliest(&self, count: usize) -> u64 {
        // The window holds the issue cycles of the most recent activations in
        // nondecreasing order, so the k-th most recent one is read off by index;
        // a new activation is legal once fewer than 4 of them fall within the
        // last tFAW. The order is guaranteed through the public API: `issue_at`
        // rejects any cycle below `earliest_issue`, which for activations
        // includes `self.now`, and `issue_at` advances `self.now` to every
        // accepted cycle — so issue cycles can never run backwards (covered by
        // `out_of_order_issue_is_rejected`).
        let needed = 4usize.saturating_sub(count.min(4));
        let len = self.activation_window.len();
        if len <= needed {
            return 0;
        }
        // The (len - needed)-th most recent activation must age out of the window.
        self.activation_window[len - needed - 1] + self.timing.t_faw
    }

    fn record_activations(&mut self, cycle: u64, count: usize) {
        debug_assert!(
            self.activation_window
                .back()
                .is_none_or(|&last| cycle >= last),
            "activation cycles must be nondecreasing"
        );
        for _ in 0..count {
            self.activation_window.push_back(cycle);
        }
        while self.activation_window.len() > 8 {
            self.activation_window.pop_front();
        }
    }

    /// Records that `bank` opened a row at `cycle` (aggregate bookkeeping; the
    /// per-bank state is updated by [`BankState::activate`]).
    fn note_opened(&mut self, cycle: u64) {
        let t = &self.timing;
        self.open_count += 1;
        self.agg_open_can_column = self.agg_open_can_column.max(cycle + t.t_rcd);
        self.agg_open_can_precharge = self.agg_open_can_precharge.max(cycle + t.t_ras);
    }

    /// Records that an open bank's precharge window moved to at least `until`.
    fn note_precharge_window(&mut self, until: u64) {
        self.agg_open_can_precharge = self.agg_open_can_precharge.max(until);
    }

    /// Records that `bank` closed its row; rescans only when the leaving bank may
    /// have carried one of the open-bank maxima.
    fn note_closed(&mut self, bank: usize) {
        self.open_count -= 1;
        if self.open_count == 0 {
            self.agg_open_can_column = 0;
            self.agg_open_can_precharge = 0;
            return;
        }
        let b = &self.banks[bank];
        if b.can_column_at >= self.agg_open_can_column
            || b.can_precharge_at >= self.agg_open_can_precharge
        {
            self.rebuild_open_aggregates();
        }
    }

    /// Recomputes the open-bank maxima by scanning (amortized-rare slow path).
    fn rebuild_open_aggregates(&mut self) {
        let mut col = 0;
        let mut pre = 0;
        for b in self.banks.iter().filter(|b| b.is_open()) {
            col = col.max(b.can_column_at);
            pre = pre.max(b.can_precharge_at);
        }
        self.agg_open_can_column = col;
        self.agg_open_can_precharge = pre;
    }

    /// Records that every open bank closed at once (PrechargeAll / Refresh).
    fn note_all_closed(&mut self) {
        self.open_count = 0;
        self.agg_open_can_column = 0;
        self.agg_open_can_precharge = 0;
    }

    /// Earliest legal issue cycle for `cmd`, given the current state.
    ///
    /// O(1) for every command except `Refresh` (which is rare — once per `tREFI`):
    /// the open-bank maxima and the group-wise column maximum are maintained
    /// incrementally instead of being recomputed by bank scans on every issue.
    pub fn earliest_issue(&self, cmd: DramCommand) -> u64 {
        let t = &self.timing;
        match cmd {
            DramCommand::Activate { bank, .. } => self.banks[bank]
                .can_activate_at
                .max(self.faw_earliest(1))
                .max(self.now),
            DramCommand::Act4 { banks, .. } => {
                let mut earliest = self.faw_earliest(4).max(self.now);
                for b in banks {
                    earliest = earliest.max(self.banks[b].can_activate_at);
                }
                earliest
            }
            DramCommand::Precharge { bank } => self.banks[bank].can_precharge_at.max(self.now),
            DramCommand::PrechargeAll => self.now.max(self.agg_open_can_precharge),
            DramCommand::Read { bank, .. } | DramCommand::Write { bank, .. } => {
                let group = self.group_of(bank);
                self.banks[bank]
                    .can_column_at
                    .max(self.last_col_same_group[group] + t.t_ccd_l)
                    .max(self.last_col_any + t.t_ccd_s)
                    .max(self.data_bus_free_at)
                    .max(self.now)
            }
            DramCommand::Comp => {
                // All-bank compute: every open bank must be column-ready, and the
                // internal column cadence is tCCD_L.
                self.last_col_any
                    .max(self.last_col_group_max + t.t_ccd_l)
                    .max(self.now)
                    .max(self.agg_open_can_column)
            }
            DramCommand::RegWrite | DramCommand::ResultRead => self.data_bus_free_at.max(self.now),
            DramCommand::Refresh => {
                let mut earliest = self.now;
                for b in &self.banks {
                    earliest = earliest.max(b.can_precharge_at.min(b.can_activate_at));
                }
                earliest
            }
        }
    }

    /// Brute-force version of [`PseudoChannel::earliest_issue`] that rederives
    /// every aggregate by scanning the banks — the validation oracle the property
    /// tests compare the incremental trackers against. Not used on any hot path.
    pub fn earliest_issue_reference(&self, cmd: DramCommand) -> u64 {
        let t = &self.timing;
        match cmd {
            DramCommand::PrechargeAll => {
                let mut earliest = self.now;
                for b in &self.banks {
                    if b.is_open() {
                        earliest = earliest.max(b.can_precharge_at);
                    }
                }
                earliest
            }
            DramCommand::Comp => {
                let mut earliest = self
                    .last_col_any
                    .max(self.last_col_same_group.iter().copied().max().unwrap_or(0) + t.t_ccd_l)
                    .max(self.now);
                for b in &self.banks {
                    if b.is_open() {
                        earliest = earliest.max(b.can_column_at);
                    }
                }
                earliest
            }
            DramCommand::Activate { bank, .. } => self.banks[bank]
                .can_activate_at
                .max(self.faw_earliest_reference(1))
                .max(self.now),
            DramCommand::Act4 { banks, .. } => {
                let mut earliest = self.faw_earliest_reference(4).max(self.now);
                for b in banks {
                    earliest = earliest.max(self.banks[b].can_activate_at);
                }
                earliest
            }
            other => self.earliest_issue(other),
        }
    }

    /// Brute-force four-activation-window check: copies and sorts the window
    /// instead of relying on its maintained nondecreasing order, so the oracle
    /// stays independent of the invariant [`PseudoChannel::faw_earliest`] assumes.
    fn faw_earliest_reference(&self, count: usize) -> u64 {
        let mut window: Vec<u64> = self.activation_window.iter().copied().collect();
        window.sort_unstable();
        let needed = 4usize.saturating_sub(count.min(4));
        if window.len() <= needed {
            return 0;
        }
        window[window.len() - needed - 1] + self.timing.t_faw
    }

    /// The number of banks currently holding an open row (maintained
    /// incrementally; equal to counting `bank(i).is_open()` over all banks).
    pub fn open_bank_count(&self) -> usize {
        self.open_count
    }

    /// Issues `cmd` at `cycle`.
    ///
    /// # Errors
    ///
    /// Returns a [`TimingViolation`] if `cycle` is earlier than the command's earliest
    /// legal issue cycle or if the command is structurally invalid (e.g. a column
    /// access to a bank with no open row).
    pub(crate) fn issue_at(&mut self, cmd: DramCommand, cycle: u64) -> Result<(), TimingViolation> {
        let earliest = self.earliest_issue(cmd);
        if cycle < earliest {
            return Err(TimingViolation {
                command: format!("{cmd}"),
                attempted_at: cycle,
                earliest_legal: earliest,
                constraint: "DRAM timing".into(),
            });
        }
        let violation = |cmd: &DramCommand, cycle: u64, what: &str| TimingViolation {
            command: format!("{cmd}"),
            attempted_at: cycle,
            earliest_legal: cycle,
            constraint: what.into(),
        };
        let t = self.timing;
        match cmd {
            DramCommand::Activate { bank, row } => {
                if self.banks[bank].is_open() {
                    return Err(violation(&cmd, cycle, "bank already has an open row"));
                }
                self.banks[bank].activate(row, cycle, t.t_rcd, t.t_ras);
                self.note_opened(cycle);
                self.record_activations(cycle, 1);
                self.stats.activations += 1;
            }
            DramCommand::Act4 { banks, row } => {
                for b in banks {
                    if self.banks[b].is_open() {
                        return Err(violation(&cmd, cycle, "bank already has an open row"));
                    }
                }
                for b in banks {
                    // Guard against duplicate bank indices in one ACT4 (the
                    // per-bank state tolerates re-activation, but the open-bank
                    // count must only grow on a closed->open transition).
                    let was_open = self.banks[b].is_open();
                    self.banks[b].activate(row, cycle, t.t_rcd, t.t_ras);
                    if !was_open {
                        self.note_opened(cycle);
                    }
                    self.stats.activations += 1;
                }
                self.record_activations(cycle, 4);
            }
            DramCommand::Precharge { bank } => {
                let was_open = self.banks[bank].is_open();
                self.banks[bank].precharge(cycle, t.t_rp);
                if was_open {
                    self.note_closed(bank);
                }
            }
            DramCommand::PrechargeAll => {
                for b in &mut self.banks {
                    if b.is_open() {
                        b.precharge(cycle, t.t_rp);
                    }
                }
                self.note_all_closed();
            }
            DramCommand::Read { bank, .. } => {
                if !self.banks[bank].is_open() {
                    return Err(violation(&cmd, cycle, "read requires an open row"));
                }
                let group = self.group_of(bank);
                self.banks[bank].column_read(cycle, t.t_rtp_l);
                self.note_precharge_window(cycle + t.t_rtp_l);
                self.last_col_same_group[group] = cycle;
                self.last_col_group_max = self.last_col_group_max.max(cycle);
                self.last_col_any = cycle;
                self.data_bus_free_at = cycle + t.t_cl + t.burst_cycles;
                self.stats.reads += 1;
            }
            DramCommand::Write { bank, .. } => {
                if !self.banks[bank].is_open() {
                    return Err(violation(&cmd, cycle, "write requires an open row"));
                }
                let group = self.group_of(bank);
                self.banks[bank].column_write(cycle, t.t_cwl, t.burst_cycles, t.t_wr);
                self.note_precharge_window(cycle + t.t_cwl + t.burst_cycles + t.t_wr);
                self.last_col_same_group[group] = cycle;
                self.last_col_group_max = self.last_col_group_max.max(cycle);
                self.last_col_any = cycle;
                self.data_bus_free_at = cycle + t.t_cwl + t.burst_cycles;
                self.stats.writes += 1;
            }
            DramCommand::Comp => {
                if self.open_count == 0 {
                    return Err(violation(&cmd, cycle, "COMP requires open rows"));
                }
                for b in self.banks.iter_mut().filter(|b| b.is_open()) {
                    // A COMP both reads a column from one bank of the pair and writes a
                    // column to the other; conservatively apply both windows.
                    b.column_read(cycle, t.t_rtp_l);
                    b.column_write(cycle, 0, t.burst_cycles, t.t_wr);
                }
                self.note_precharge_window(cycle + t.t_rtp_l.max(t.burst_cycles + t.t_wr));
                for g in &mut self.last_col_same_group {
                    *g = cycle;
                }
                self.last_col_group_max = cycle;
                self.last_col_any = cycle;
                self.stats.comp_columns += self.open_count as u64;
            }
            DramCommand::RegWrite => {
                self.data_bus_free_at = cycle + t.burst_cycles;
                self.stats.reg_writes += 1;
            }
            DramCommand::ResultRead => {
                self.data_bus_free_at = cycle + t.t_cl + t.burst_cycles;
                self.stats.result_reads += 1;
            }
            DramCommand::Refresh => {
                let done = cycle + t.t_rfc;
                for b in &mut self.banks {
                    b.open_row = None;
                    b.block_until(done);
                }
                self.note_all_closed();
                self.stats.refreshes += 1;
            }
        }
        self.now = self.now.max(cycle);
        Ok(())
    }

    /// Advances time to the earliest legal cycle for `cmd`, issues it, and returns the
    /// issue cycle. Automatically inserts all-bank refreshes when their deadline has
    /// passed (unless disabled).
    ///
    /// # Panics
    ///
    /// Panics if the command is structurally invalid (e.g. reading a closed bank);
    /// schedulers are expected to issue structurally valid streams.
    pub fn execute(&mut self, cmd: DramCommand) -> u64 {
        if self.auto_refresh && !matches!(cmd, DramCommand::Refresh) {
            while self.earliest_issue(cmd).max(self.now) >= self.next_refresh_at {
                let at = self.earliest_issue(DramCommand::Refresh);
                self.issue_at(DramCommand::Refresh, at)
                    .expect("refresh issued at its own earliest cycle cannot violate timing");
                self.now = at;
                self.next_refresh_at += self.timing.t_refi;
            }
        }
        let at = self.earliest_issue(cmd);
        self.issue_at(cmd, at)
            .unwrap_or_else(|e| panic!("structurally invalid command: {e}"));
        self.now = at;
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> PseudoChannel {
        let mut pc = PseudoChannel::new(TimingParams::hbm2e(), DramGeometry::hbm2e());
        pc.set_auto_refresh(false);
        pc
    }

    #[test]
    fn activate_then_read_waits_for_trcd() {
        let mut pc = channel();
        let act = pc.execute(DramCommand::Activate { bank: 0, row: 5 });
        let rd = pc.execute(DramCommand::Read { bank: 0, col: 0 });
        assert_eq!(rd - act, pc.timing().t_rcd);
    }

    #[test]
    fn read_without_open_row_is_rejected() {
        let mut pc = channel();
        let err = pc.issue_at(DramCommand::Read { bank: 1, col: 0 }, 100);
        assert!(err.is_err());
        let msg = format!("{}", err.unwrap_err());
        assert!(msg.contains("open row"));
    }

    #[test]
    fn same_bank_group_reads_respect_tccd_l() {
        let mut pc = channel();
        pc.execute(DramCommand::Activate { bank: 0, row: 1 });
        pc.execute(DramCommand::Activate { bank: 1, row: 1 });
        let first = pc.execute(DramCommand::Read { bank: 0, col: 0 });
        let second = pc.execute(DramCommand::Read { bank: 1, col: 0 });
        // Banks 0 and 1 share a bank group (4 banks per group).
        assert!(second - first >= pc.timing().t_ccd_l);
    }

    #[test]
    fn different_bank_group_reads_can_use_tccd_s() {
        let mut pc = channel();
        pc.execute(DramCommand::Activate { bank: 0, row: 1 });
        pc.execute(DramCommand::Activate { bank: 4, row: 1 });
        let first = pc.execute(DramCommand::Read { bank: 0, col: 0 });
        let second = pc.execute(DramCommand::Read { bank: 4, col: 0 });
        let gap = second - first;
        assert!(gap >= pc.timing().t_ccd_s);
        assert!(
            gap < pc.timing().t_ccd_l + pc.timing().t_cl,
            "gap {gap} unexpectedly long"
        );
    }

    #[test]
    fn precharge_respects_tras_and_reactivation_respects_trp() {
        let mut pc = channel();
        let act = pc.execute(DramCommand::Activate { bank: 2, row: 9 });
        let pre = pc.execute(DramCommand::Precharge { bank: 2 });
        assert!(pre - act >= pc.timing().t_ras);
        let act2 = pc.execute(DramCommand::Activate { bank: 2, row: 10 });
        assert!(act2 - pre >= pc.timing().t_rp);
    }

    #[test]
    fn double_activation_of_open_bank_is_rejected() {
        let mut pc = channel();
        pc.execute(DramCommand::Activate { bank: 0, row: 1 });
        let at = pc.earliest_issue(DramCommand::Activate { bank: 0, row: 2 });
        assert!(pc
            .issue_at(DramCommand::Activate { bank: 0, row: 2 }, at)
            .is_err());
    }

    #[test]
    fn out_of_order_issue_is_rejected() {
        // `issue_at` advances `now` to each accepted cycle and every activation's
        // earliest-issue bound includes `now`, so cycles can never run backwards —
        // the invariant the index-based tFAW window relies on.
        let mut pc = channel();
        pc.issue_at(DramCommand::Activate { bank: 0, row: 0 }, 1000)
            .unwrap();
        let err = pc.issue_at(DramCommand::Activate { bank: 1, row: 0 }, 10);
        assert!(err.is_err(), "an issue cycle in the past must be rejected");
        assert_eq!(err.unwrap_err().earliest_legal, 1000);
    }

    #[test]
    fn act4_with_duplicate_banks_keeps_open_count_consistent() {
        let mut pc = channel();
        let at = pc.earliest_issue(DramCommand::Act4 {
            banks: [0, 0, 1, 2],
            row: 0,
        });
        pc.issue_at(
            DramCommand::Act4 {
                banks: [0, 0, 1, 2],
                row: 0,
            },
            at,
        )
        .unwrap();
        assert_eq!(pc.open_bank_count(), 3);
        assert_eq!(pc.stats().activations, 4, "stats still count every ACT");
        pc.execute(DramCommand::PrechargeAll);
        assert_eq!(pc.open_bank_count(), 0);
    }

    #[test]
    fn four_activation_window_throttles_bursts() {
        let mut pc = channel();
        // Two ACT4 bursts back to back must be separated by at least tFAW.
        let first = pc.execute(DramCommand::Act4 {
            banks: [0, 1, 2, 3],
            row: 0,
        });
        let second = pc.execute(DramCommand::Act4 {
            banks: [4, 5, 6, 7],
            row: 0,
        });
        assert!(
            second - first >= pc.timing().t_faw,
            "ACT4 bursts {first}->{second} violate tFAW {}",
            pc.timing().t_faw
        );
    }

    #[test]
    fn single_activations_are_also_window_limited() {
        let mut pc = channel();
        let mut times = Vec::new();
        for bank in 0..5 {
            times.push(pc.execute(DramCommand::Activate { bank, row: 0 }));
        }
        // The 5th activation must be at least tFAW after the 1st.
        assert!(times[4] - times[0] >= pc.timing().t_faw);
    }

    #[test]
    fn comp_stream_runs_at_tccd_l_cadence() {
        let mut pc = channel();
        pc.execute(DramCommand::Act4 {
            banks: [0, 1, 2, 3],
            row: 0,
        });
        let first = pc.execute(DramCommand::Comp);
        let mut prev = first;
        for _ in 0..8 {
            let next = pc.execute(DramCommand::Comp);
            assert_eq!(next - prev, pc.timing().t_ccd_l);
            prev = next;
        }
    }

    #[test]
    fn comp_requires_open_rows() {
        let mut pc = channel();
        let at = pc.earliest_issue(DramCommand::Comp);
        assert!(pc.issue_at(DramCommand::Comp, at).is_err());
    }

    #[test]
    fn reg_write_overlaps_with_activation_window() {
        // Figure 11: REG_WRITE slots into the idle cycles between ACT4 commands.
        let mut pc = channel();
        let act = pc.execute(DramCommand::Act4 {
            banks: [0, 1, 2, 3],
            row: 0,
        });
        let reg = pc.execute(DramCommand::RegWrite);
        // The register write does not need to wait for tFAW or tRCD.
        assert!(
            reg - act < pc.timing().t_rcd,
            "REG_WRITE should overlap with activation"
        );
    }

    #[test]
    fn result_read_and_precharge_all() {
        let mut pc = channel();
        pc.execute(DramCommand::Act4 {
            banks: [0, 1, 2, 3],
            row: 0,
        });
        pc.execute(DramCommand::Comp);
        let pre = pc.execute(DramCommand::PrechargeAll);
        let last_comp_constraint = pc.timing().t_wr;
        assert!(pre >= last_comp_constraint);
        let rr = pc.execute(DramCommand::ResultRead);
        assert!(
            rr >= pre,
            "RESULT_READ is overlapped with (issued no earlier than) PRECHARGES"
        );
        for bank in 0..4 {
            assert!(!pc.bank(bank).is_open());
        }
    }

    #[test]
    fn refresh_blocks_all_banks() {
        let mut pc = channel();
        pc.execute(DramCommand::Refresh);
        let t_rfc = pc.timing().t_rfc;
        let act = pc.execute(DramCommand::Activate { bank: 0, row: 0 });
        assert!(act >= t_rfc);
        assert_eq!(pc.stats().refreshes, 1);
    }

    #[test]
    fn auto_refresh_fires_periodically() {
        let mut pc = PseudoChannel::new(TimingParams::hbm2e(), DramGeometry::hbm2e());
        // Issue a long stream of paired activate/read/precharge and check refreshes
        // appear roughly every tREFI cycles.
        for i in 0..600 {
            let bank = i % 8;
            pc.execute(DramCommand::Activate { bank, row: i });
            pc.execute(DramCommand::Read { bank, col: 0 });
            pc.execute(DramCommand::Precharge { bank });
        }
        let expected = pc.now() / pc.timing().t_refi;
        let got = pc.stats().refreshes;
        assert!(
            got >= expected.saturating_sub(1) && got <= expected + 1,
            "refreshes {got} vs expected ~{expected}"
        );
    }

    #[test]
    fn stats_count_commands() {
        let mut pc = channel();
        pc.execute(DramCommand::Act4 {
            banks: [0, 1, 2, 3],
            row: 0,
        });
        pc.execute(DramCommand::RegWrite);
        pc.execute(DramCommand::Comp);
        pc.execute(DramCommand::ResultRead);
        let s = pc.stats();
        assert_eq!(s.activations, 4);
        assert_eq!(s.reg_writes, 1);
        assert_eq!(s.comp_columns, 4);
        assert_eq!(s.result_reads, 1);
    }
}
