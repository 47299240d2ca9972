//! The DRAM command set: standard JEDEC-style commands plus the five Pimba extensions
//! described in Section 5.5 of the paper.

/// A command issued to one pseudo-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCommand {
    /// Activate `row` in `bank`, bringing it into the row buffer.
    Activate {
        /// Bank index within the pseudo-channel.
        bank: usize,
        /// Row index within the bank.
        row: usize,
    },
    /// Precharge (close) the row buffer of `bank`.
    Precharge {
        /// Bank index within the pseudo-channel.
        bank: usize,
    },
    /// Read one column burst from the open row of `bank` onto the data bus.
    Read {
        /// Bank index within the pseudo-channel.
        bank: usize,
        /// Column index within the open row.
        col: usize,
    },
    /// Write one column burst from the data bus into the open row of `bank`.
    Write {
        /// Bank index within the pseudo-channel.
        bank: usize,
        /// Column index within the open row.
        col: usize,
    },
    /// All-bank refresh.
    Refresh,
    /// Pimba: gang four activations (one per bank in `banks`) into a single command,
    /// respecting the tFAW window (Section 5.5).
    Act4 {
        /// The four banks to activate.
        banks: [usize; 4],
        /// The row activated in every one of those banks.
        row: usize,
    },
    /// Pimba: transfer operands (d, q, k vectors and per-chunk v elements, in MX8) from
    /// the host into the SPU registers. Occupies the data bus but no bank.
    RegWrite,
    /// Pimba: one all-bank PIM compute step — every SPU consumes one column (sub-chunk)
    /// from its currently-reading bank and writes one column back to its partner bank.
    /// Consecutive `Comp` commands observe `tCCD_L`.
    Comp,
    /// Pimba: read accumulated results (partial sums / dot products) from the SPU
    /// registers back to the host over the data bus.
    ResultRead,
    /// Pimba: precharge the row buffers of all banks (stores updated state back into
    /// the cells).
    PrechargeAll,
}

impl DramCommand {
    /// Short mnemonic used in traces.
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            DramCommand::Activate { .. } => "ACT",
            DramCommand::Precharge { .. } => "PRE",
            DramCommand::Read { .. } => "RD",
            DramCommand::Write { .. } => "WR",
            DramCommand::Refresh => "REF",
            DramCommand::Act4 { .. } => "ACT4",
            DramCommand::RegWrite => "REG_WRITE",
            DramCommand::Comp => "COMP",
            DramCommand::ResultRead => "RESULT_READ",
            DramCommand::PrechargeAll => "PRECHARGES",
        }
    }
}

impl std::fmt::Display for DramCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DramCommand::Activate { bank, row } => write!(f, "ACT(bank={bank}, row={row})"),
            DramCommand::Precharge { bank } => write!(f, "PRE(bank={bank})"),
            DramCommand::Read { bank, col } => write!(f, "RD(bank={bank}, col={col})"),
            DramCommand::Write { bank, col } => write!(f, "WR(bank={bank}, col={col})"),
            DramCommand::Act4 { banks, row } => write!(f, "ACT4(banks={banks:?}, row={row})"),
            other => write!(f, "{}", other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_mnemonics() {
        assert_eq!(format!("{}", DramCommand::Comp), "COMP");
        assert_eq!(DramCommand::PrechargeAll.mnemonic(), "PRECHARGES");
        let act = DramCommand::Activate { bank: 3, row: 17 };
        assert!(format!("{act}").contains("row=17"));
    }
}
