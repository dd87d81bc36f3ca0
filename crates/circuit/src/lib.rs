//! # ambit-circuit — analog models for triple-row activation
//!
//! The Ambit paper (Section 6) validates triple-row activation (TRA) with
//! SPICE simulations of a 55 nm DDR3 sense amplifier under process
//! variation. This crate is the equivalent analysis built from first
//! principles:
//!
//! * [`charge`] — exact charge-sharing arithmetic (the general form of the
//!   paper's Equation 1) plus RC settling transients;
//! * [`SenseAmp`] — a forward-Euler transient simulation of the
//!   cross-coupled inverter latch with square-law MOSFETs;
//! * [`variation`] — a calibrated per-component process-variation model
//!   (cell/bitline capacitance, stored and precharge voltages, sense-amp
//!   offset);
//! * [`montecarlo`] — the Table 2 experiment: TRA failure rates across
//!   ±0–25 % variation, plus the adversarial worst-case margin (paper:
//!   reliable to ±6 %);
//! * [`characterization`] — per-subarray device maps ([`ChipProfile`]):
//!   Monte Carlo success rates, weak-cell lists, and reliability bins
//!   under voltage/temperature corners, persisted as byte-stable JSON.
//!
//! # Example
//!
//! ```
//! use ambit_circuit::{CircuitParams, SenseAmp};
//!
//! let params = CircuitParams::ddr3_55nm();
//! // TRA with 2 of 3 cells charged: positive deviation → senses 1.
//! let deviation = params.tra_deviation_ideal(2);
//! let outcome = SenseAmp::new(params).sense(deviation);
//! assert!(outcome.sensed_one);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod characterization;
pub mod charge;
mod leakage;
pub mod montecarlo;
mod params;
mod sense_amp;
mod transistor;
pub mod variation;

pub use characterization::{
    CharacterizationConfig, CharacterizationError, ChipProfile, SubarrayBin, SubarrayProfile,
    CHIP_PROFILE_SCHEMA,
};
pub use montecarlo::{
    per_subarray_rates, run_monte_carlo, sweep_levels, table2_sweep, worst_case_margin,
    worst_case_ok, MonteCarloError, MonteCarloResult, TABLE2_LEVELS,
};
pub use leakage::LeakageModel;
pub use params::CircuitParams;
pub use sense_amp::{LatchMismatch, SenseAmp, SenseOutcome};
pub use transistor::Mosfet;
pub use variation::{TraInstance, VariationModel};
