//! # ambit-apps — the application studies of the Ambit paper (Section 8)
//!
//! Each application runs *functionally* against the simulated Ambit device
//! from `ambit-core` and is cross-checked against a software reference;
//! execution times come from the controller's command receipts (Ambit side)
//! and the calibrated CPU model in `ambit-sys` (baseline side).
//!
//! * [`bitmap_index`] — database bitmap indices (Figure 10);
//! * [`bitweaving`] — BitWeaving-V predicate scans (Figure 11);
//! * [`setops`] + [`RbTree`] / [`BitSet`] / [`AmbitSetArena`] — set
//!   operations: red-black tree vs SIMD bitset vs Ambit (Figure 12);
//! * [`bitfunnel`] — Bloom-signature document filtering (Section 8.4.1);
//! * [`masked_init`] — in-DRAM masked initialization (Section 8.4.2);
//! * [`xorcipher`] — bulk XOR encryption (Section 8.4.3);
//! * [`dna`] — bit-parallel DNA read filtering (Section 8.4.4).
//!
//! # Example: a Figure 10 point
//!
//! ```
//! use ambit_apps::bitmap_index::{run_bitmap_index, BitmapIndexWorkload};
//! use ambit_core::AmbitMemory;
//! use ambit_dram::{AapMode, DramGeometry, TimingParams};
//! use ambit_sys::SystemConfig;
//!
//! let mem = AmbitMemory::new(
//!     DramGeometry { row_bytes: 512, rows_per_subarray: 64, ..DramGeometry::tiny() },
//!     TimingParams::ddr3_1600(),
//!     AapMode::Overlapped,
//! );
//! let workload = BitmapIndexWorkload::figure10(20_000, 2);
//! let result = run_bitmap_index(&SystemConfig::gem5_calibrated(), mem, &workload);
//! // Both paths computed the same answer; at this toy scale the bitmaps
//! // are cache-resident, so Ambit's win appears at paper-scale sizes.
//! assert!(result.ambit_s > 0.0 && result.baseline_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod amset;
pub mod bitfunnel;
pub mod bitmap_index;
mod bitset;
pub mod bitweaving;
pub mod dna;
pub mod masked_init;
mod rbtree;
pub mod setops;
pub mod synth_arith;
pub mod table;
mod wah;
pub mod xorcipher;

pub use amset::{AmbitSetArena, AmbitSetHandle};
pub use bitset::BitSet;
pub use rbtree::{Iter as RbTreeIter, RbTree};
pub use setops::{run_setop, SetOpResult, SetOperation, SetWorkload};
pub use wah::WahBitmap;
