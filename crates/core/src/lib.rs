//! # ambit-core — the Ambit in-memory accelerator
//!
//! This crate implements the contribution of *Ambit: In-Memory Accelerator
//! for Bulk Bitwise Operations Using Commodity DRAM Technology* (Seshadri
//! et al., MICRO-50 2017) on top of the `ambit-dram` substrate:
//!
//! * [`addressing`] — the B/C/D row-address grouping and the B-group
//!   decode table (paper Table 1, Figure 7);
//! * [`ops`] — the AAP/AP command programs for every bulk bitwise
//!   operation (Figure 8), including the derived `or`/`nor`/`xnor` forms;
//! * [`AmbitController`] — executes programs against the functional DRAM
//!   model with cycle-style timing (49 ns split-decoder AAPs) and Table 3
//!   energy accounting;
//! * [`AmbitMemory`] — the driver of Section 5.4.2: subarray-aware
//!   allocation that keeps operand bitvectors chunk-wise co-located so all
//!   copies use RowClone-FPM, striped across banks for parallelism;
//! * [`isa`] — the `bbop` instructions of Section 5.4.1 with the
//!   row-alignment dispatch rule and the CPU fallback path;
//! * [`AmbitConfig`] — analytic steady-state throughput (the Ambit and
//!   Ambit-3D series of Figure 9).
//!
//! # Quick start
//!
//! ```
//! use ambit_core::{AmbitMemory, BitwiseOp};
//! use ambit_dram::{AapMode, DramGeometry, TimingParams};
//!
//! // An Ambit-enabled DDR3 module.
//! let mut mem = AmbitMemory::new(
//!     DramGeometry::tiny(),
//!     TimingParams::ddr3_1600(),
//!     AapMode::Overlapped,
//! );
//! let bits = mem.row_bits();
//! let a = mem.alloc(bits)?;
//! let b = mem.alloc(bits)?;
//! let out = mem.alloc(bits)?;
//! mem.poke_bits(a, &(0..bits).map(|i| i % 2 == 0).collect::<Vec<_>>())?;
//! mem.poke_bits(b, &(0..bits).map(|i| i % 3 == 0).collect::<Vec<_>>())?;
//!
//! // One bulk AND, computed entirely inside DRAM by triple-row activation.
//! let receipt = mem.bitwise(BitwiseOp::And, a, Some(b), out)?;
//! assert_eq!(receipt.aaps, 4); // Figure 8a
//! assert_eq!(mem.popcount(out)?, (0..bits).filter(|i| i % 6 == 0).count());
//! # Ok::<(), ambit_core::AmbitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addressing;
mod batch;
pub mod compiler;
mod controller;
mod driver;
pub mod ecc;
mod error;
mod fanout;
mod idhash;
pub mod isa;
pub mod ops;
mod physmap;
pub mod resilient;
pub mod synth;
mod throughput;

pub use addressing::{RowAddress, SubarrayLayout, Wordlines};
pub use batch::{BatchBuilder, BatchOpView, BatchReceipt, IssuePolicy, OpId};
pub use compiler::{compile_fold, fold_savings, fold_supported};
pub use controller::{AmbitController, OpReceipt};
pub use driver::{AllocGroup, AmbitMemory, BadRowEntry, BitVectorHandle, PlacementProfile};
pub use error::{AmbitError, Result};
pub use fanout::PoolStats;
pub use ecc::{bitwise_tmr, TmrVector, VotedRead};
pub use resilient::{RecoveryReport, ResilientConfig, ResilientExecutor, ResilientHandle};
pub use isa::{BbopInstruction, BbopOutcome, ExecutionPath};
pub use ops::{compile_majority, AmbitCmd, BitwiseOp};
pub use physmap::{DataRowLocation, PhysicalMap};
pub use synth::{
    synthesize, BoolFunc, SlotRef, SynthOptions, SynthProgram, SynthStats, SynthStep,
};
pub use throughput::AmbitConfig;
