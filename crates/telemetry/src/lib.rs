//! Dependency-free telemetry for the Ambit reproduction.
//!
//! The paper's evaluation (Table 3, Figure 9) is built on *observed*
//! command streams — ACT/PRE counts, wordlines raised, bytes moved, and the
//! energy/latency they imply. This crate provides the instrumentation layer
//! that turns the simulator's execution path into those observations:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free-ish primitives
//!   (relaxed atomics, CAS-accumulated `f64` sums) that components cache as
//!   cheap handles and bump from the DRAM command hot path.
//! * [`Span`] / [`Event`] — trace records denominated in **simulated** DRAM
//!   nanoseconds (from `TimingParams` arithmetic), never wall-clock time,
//!   so traces are deterministic and replayable.
//! * [`Registry`] — named, labelled families with a Prometheus text
//!   exposition ([`Registry::render_prometheus`]) and a JSONL trace export
//!   ([`Registry::export_jsonl`]) for offline analysis.
//! * [`json`] — a minimal escape/parse module so bench snapshots can be
//!   emitted *and validated* without external dependencies.
//!
//! Like the vendored `rand`/`proptest` stubs from PR 1, this crate has no
//! dependencies at all: the repository builds offline.
//!
//! # Examples
//!
//! ```
//! use ambit_telemetry::{Registry, Span};
//!
//! let reg = Registry::new();
//! let acts = reg.counter("ambit_acts_total", "ACT commands", &[("bank", "0")]);
//! acts.add(4);
//! let lat = reg.histogram("ambit_op_latency_ns", "per-op latency", &[], &[50.0, 100.0]);
//! lat.observe(49.0);
//! reg.record_span(Span::new("driver.bitwise", 0, 49).attr("op", "and"));
//!
//! let text = reg.render_prometheus();
//! assert!(text.contains("ambit_acts_total{bank=\"0\"} 4"));
//! assert_eq!(reg.export_jsonl().lines().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
mod metrics;
mod registry;
mod span;

pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{HistogramSnapshot, Labels, Registry};
pub use span::{AttrValue, Event, Span};
