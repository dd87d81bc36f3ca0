//! # ambit-repro — reproduction of the Ambit in-DRAM accelerator
//!
//! A full-system reproduction of *Ambit: In-Memory Accelerator for Bulk
//! Bitwise Operations Using Commodity DRAM Technology* (Seshadri et al.,
//! MICRO-50 2017), built from scratch in Rust. This facade crate re-exports
//! the workspace so examples and downstream users need a single dependency:
//!
//! * [`dram`] — the commodity-DRAM substrate (functional arrays with
//!   multi-wordline activation, DDR timing, energy, RowClone, FR-FCFS);
//! * [`circuit`] — analog models (charge sharing, sense-amp transients,
//!   process-variation Monte Carlo);
//! * [`core`] — the Ambit accelerator itself (row address groups, AAP/AP
//!   programs, controller, bbop ISA, subarray-aware driver);
//! * [`sys`] — baseline machines, caches, CPU timing, coherence;
//! * [`apps`] — the paper's application studies (bitmap indices,
//!   BitWeaving, sets, BitFunnel, masked init, XOR cipher, DNA filtering);
//! * [`telemetry`] — counters, simulated-time spans, Prometheus/JSONL
//!   exporters wired through the controller, driver, and resilient
//!   executor.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-reproduced results.
//!
//! # Quick start
//!
//! ```
//! use ambit_repro::core::{AmbitMemory, BitwiseOp};
//! use ambit_repro::dram::{AapMode, DramGeometry, TimingParams};
//!
//! let mut mem = AmbitMemory::new(
//!     DramGeometry::tiny(),
//!     TimingParams::ddr3_1600(),
//!     AapMode::Overlapped,
//! );
//! let bits = mem.row_bits();
//! let a = mem.alloc(bits)?;
//! let b = mem.alloc(bits)?;
//! let out = mem.alloc(bits)?;
//! mem.poke_bits(a, &vec![true; bits])?;
//! mem.poke_bits(b, &vec![false; bits])?;
//! mem.bitwise(BitwiseOp::Nand, a, Some(b), out)?;
//! assert_eq!(mem.popcount(out)?, bits);
//! # Ok::<(), ambit_repro::core::AmbitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The commodity-DRAM substrate (re-export of `ambit-dram`).
pub mod dram {
    pub use ambit_dram::*;
}

/// Analog circuit models (re-export of `ambit-circuit`).
pub mod circuit {
    pub use ambit_circuit::*;
}

/// The Ambit accelerator (re-export of `ambit-core`).
pub mod core {
    pub use ambit_core::*;
}

/// System-level models and baselines (re-export of `ambit-sys`).
pub mod sys {
    pub use ambit_sys::*;
}

/// Application studies (re-export of `ambit-apps`).
pub mod apps {
    pub use ambit_apps::*;
}

/// Counters, spans, and exporters (re-export of `ambit-telemetry`).
pub mod telemetry {
    pub use ambit_telemetry::*;
}
