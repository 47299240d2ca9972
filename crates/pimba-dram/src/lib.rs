//! # pimba-dram
//!
//! Cycle-level HBM DRAM timing and energy model, extended with the five custom Pimba
//! commands (`ACT4`, `REG_WRITE`, `COMP`, `RESULT_READ`, `PRECHARGES`).
//!
//! The Pimba paper evaluates its PIM design with an in-house cycle-accurate simulator
//! built on Ramulator2 using the HBM2E timing parameters of Table 1 (and HBM3 for the
//! H100 study of Figure 16). This crate provides the equivalent substrate for the
//! reproduction:
//!
//! * [`timing`] — timing parameter sets (HBM2E / HBM3) and clocking,
//! * [`geometry`] — channel / pseudo-channel / bank-group / bank / row / column
//!   organization and bandwidth math,
//! * [`command`] — the standard and Pimba-specific command set,
//! * [`bank`] — per-bank row-buffer state machines,
//! * [`controller`] — a pseudo-channel command issue engine enforcing tRP/tRAS/tRCD/
//!   tCCD/tWR/tRTP/tFAW/tREFI and bus occupancy,
//! * [`energy`] — activation / column access / IO energy accounting.
//!
//! # Example
//!
//! ```rust
//! use pimba_dram::timing::TimingParams;
//! use pimba_dram::geometry::DramGeometry;
//! use pimba_dram::controller::PseudoChannel;
//! use pimba_dram::command::DramCommand;
//!
//! let mut pc = PseudoChannel::new(TimingParams::hbm2e(), DramGeometry::hbm2e());
//! let issue = pc.execute(DramCommand::Activate { bank: 0, row: 12 });
//! let read = pc.execute(DramCommand::Read { bank: 0, col: 0 });
//! assert!(read > issue, "column access must wait for tRCD");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bank;
pub mod command;
pub mod controller;
pub mod energy;
pub mod geometry;
pub mod timing;

pub use command::DramCommand;
pub use controller::PseudoChannel;
pub use energy::{EnergyCounters, EnergyModel};
pub use geometry::DramGeometry;
pub use timing::TimingParams;
