//! # ambit-dram — commodity DRAM substrate for the Ambit reproduction
//!
//! This crate models the parts of a DRAM device that the Ambit accelerator
//! (Seshadri et al., MICRO-50 2017) builds upon:
//!
//! * a **functional array model** ([`Subarray`], [`Bank`], [`DramDevice`])
//!   with the analog activation semantics Ambit exploits — multi-wordline
//!   charge sharing (triple-row activation computes a bitwise majority) and
//!   dual-contact n-wordlines (sensing/storing through bitline-bar negates);
//! * a **timing model** ([`TimingParams`], [`CommandTimer`]) with JEDEC-style
//!   constraints and the two AAP latencies of paper Section 5.3 (naive
//!   80 ns, split-row-decoder 49 ns on DDR3-1600);
//! * an **energy model** ([`EnergyModel`]) calibrated to the paper's Table 3
//!   (+22 % activation energy per extra wordline);
//! * **RowClone** in-DRAM copy ([`rowclone`]) in FPM/PSM/controller modes;
//! * an **FR-FCFS scheduler** ([`FrFcfsScheduler`]) for baseline traffic.
//!
//! The crate deliberately knows nothing about Ambit's reserved-row layout or
//! command programs — those live in `ambit-core`, which drives these
//! primitives.
//!
//! # Example: triple-row activation is a bitwise majority
//!
//! ```
//! use ambit_dram::{BitRow, Subarray, Wordline};
//!
//! let mut sa = Subarray::new(16, 32);
//! sa.poke_row(0, BitRow::ones(32));   // A = 1
//! sa.poke_row(1, BitRow::zeros(32));  // B = 0
//! sa.poke_row(2, BitRow::ones(32));   // C = 1
//! let sensed = sa.activate(&[
//!     Wordline::data(0),
//!     Wordline::data(1),
//!     Wordline::data(2),
//! ])?;
//! assert_eq!(sensed.count_ones(), 32); // majority(1, 0, 1) = 1
//! # Ok::<(), ambit_dram::DramError>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_debug_implementations)]

mod bank;
mod bitrow;
mod campaign;
mod controller;
mod device;
mod energy;
mod error;
mod fault_rng;
mod geometry;
mod refresh;
pub mod rowclone;
mod scheduler;
mod subarray;
mod timing;

pub use bank::Bank;
pub use bitrow::{BitRow, IterOnes};
pub use campaign::{
    CampaignConfig, CampaignTick, FaultCampaign, StuckCell, SubarrayFaultPlan,
};
pub use controller::{
    CommandTimer, TimerStats, TraceCommand, TraceEntry, DEFAULT_TRACE_CAPACITY,
};
pub use device::DramDevice;
pub use energy::{EnergyAccount, EnergyModel};
pub use error::{DramError, Result};
pub use fault_rng::fault_draw_kernel;
pub use geometry::{BankId, DramGeometry, RowLocation};
pub use scheduler::{Completion, FrFcfsScheduler, MemoryRequest, ScheduleStats};
pub use refresh::{refreshed_throughput, RefreshParams, RefreshScheduler};
pub use subarray::{BitlineSide, CellFault, Subarray, SubarrayStats, TieBreak, Wordline};
pub use timing::{AapMode, TimingParams, PS_PER_NS};
