//! Differential conformance harness for the Ambit reproduction.
//!
//! The stack now has many ways to execute the same bulk bitwise workload:
//! eager driver calls, the batch engine under serial and bank-parallel
//! issue, the analog charge-sharing model versus its scalar reference, and
//! the fault-tolerant resilient executor. They must all agree — and all of
//! them must drive the DRAM through legal DDR command sequences. This crate
//! closes the loop:
//!
//! * [`generator`] — a seeded, deterministic fuzzer expanding a `u64` seed
//!   into a random but always-valid [`Program`] (random DAG of all ten bulk
//!   ops over randomized allocation sizes, co-location groups, AAP modes,
//!   timing sets, tie-break policies, and optional fault arming);
//! * [`golden`] — a pure-CPU model giving the ground-truth result;
//! * [`oracle`] — the N-way differential runner comparing every execution
//!   path's final memory image against the golden model, and validating
//!   every command trace;
//! * [`trace_check`] — a standalone DDR trace-invariant checker, reusable
//!   against any [`CommandTimer`](ambit_dram::CommandTimer) trace;
//! * [`repro`] — a greedy minimizer plus a self-contained JSON repro format
//!   for deterministic replay of any divergence;
//! * [`refrng`] — the documented xorshift64\* reference RNG shared by the
//!   fuzzer and the fault-model equivalence tests;
//! * [`json`] — the dependency-free JSON reader/writer behind the repro
//!   format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod golden;
pub mod json;
pub mod oracle;
pub mod program;
pub mod refrng;
pub mod repro;
pub mod trace_check;

pub use generator::{generate, GeneratorConfig};
pub use oracle::{run_oracle, Failure, Mutation, OracleReport};
pub use program::{GeometryKind, ProgOp, Program, TimingKind, VectorSpec};
pub use refrng::{ReferenceRng, DEFAULT_SEED};
pub use repro::{minimize, Repro};
pub use trace_check::{TraceChecker, TraceViolation, ViolationKind};
