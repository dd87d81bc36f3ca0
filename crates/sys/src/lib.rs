//! # ambit-sys — system-level models for the Ambit reproduction
//!
//! Everything outside the DRAM chip that the paper's evaluation depends on:
//!
//! * [`SystemConfig`] — the gem5 configuration of Table 4 plus a CPU
//!   timing model (streaming bandwidth tiers, SIMD rate, random-access
//!   latency) used by the Section 8 application studies;
//! * [`Cache`] / [`CacheHierarchy`] — a set-associative LRU cache simulator
//!   for working-set crossovers (Figure 11/12) and dirty-line accounting;
//! * [`machines`] — bandwidth-roofline models of the Figure 9 baselines
//!   (Intel Skylake, NVIDIA GTX 745, HMC 2.0) and the Ambit/Ambit-3D
//!   configurations;
//! * [`CoherenceModel`] — the flush/invalidate costs of Section 5.4.4.
//!
//! # Example: who wins Figure 9, and by how much
//!
//! ```
//! use ambit_sys::machines::{AmbitMachine, BandwidthMachine, BitwiseMachine};
//!
//! let ambit = AmbitMachine::module().mean_throughput_gops();
//! let skylake = BandwidthMachine::skylake().mean_throughput_gops();
//! let speedup = ambit / skylake;
//! assert!(speedup > 35.0, "paper reports 44.9x on average");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod coherence;
mod config;
mod dbi;
pub mod machines;

pub use cache::{AccessResult, Cache, CacheHierarchy, CacheStats};
pub use dbi::DirtyBlockIndex;
pub use coherence::{CoherenceCost, CoherenceModel};
pub use config::SystemConfig;
