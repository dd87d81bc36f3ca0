//! Property-based conformance of the function synthesizer on wide
//! batches: random batches of two or three functions over four to six
//! inputs must compile to schedules that match their truth tables on every
//! minterm, both with native `Maj3` selection and under `bitwise_only`
//! (which must select no `Maj3`), must write no output before an input
//! read, and must produce the tables on the simulated device when every
//! output overwrites one of the inputs the batch reads. Some batches pass
//! inputs straight through to outputs. `PROPTEST_CASES` sets the case
//! count (default 32).

use ambit_repro::core::{
    synthesize, AmbitMemory, BatchBuilder, BitVectorHandle, BitwiseOp, BoolFunc, IssuePolicy,
    SlotRef, SubarrayLayout, SynthOptions, SynthProgram, SynthStep,
};
use ambit_repro::dram::{AapMode, DramGeometry, TimingParams};
use proptest::prelude::*;

/// Cases per property: 32, or `PROPTEST_CASES` for a deep run.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// The tiny device with 64-row subarrays, as in the sampled sweep of
/// `synth_conformance`: six inputs and a wide batch's scratch rows must
/// share one subarray.
fn geometry() -> DramGeometry {
    DramGeometry { rows_per_subarray: 64, ..DramGeometry::tiny() }
}

/// `count` tables of `inputs` inputs drawn from one seed.
fn functions(inputs: usize, count: usize, seed: u64) -> Vec<BoolFunc> {
    let mut x = seed | 1;
    (0..count)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            BoolFunc::from_table(inputs, x >> (64 - (1 << inputs))).expect("table fits")
        })
        .collect()
}

/// The compiled schedule agrees with every function on every minterm.
fn exhaustive_check(plan: &SynthProgram, funcs: &[BoolFunc]) -> Result<(), TestCaseError> {
    for idx in 0..1u64 << plan.inputs() {
        let got = plan.eval(idx);
        for (k, f) in funcs.iter().enumerate() {
            prop_assert_eq!(got[k], f.eval(idx), "output {} at minterm {:#b}", k, idx);
        }
    }
    Ok(())
}

/// No step writes an output before a later step reads an input, save
/// the leading copies of one passed-through input: a copy over its own
/// input rewrites the same value, so the order is still alias-safe.
fn writes_follow_reads(plan: &SynthProgram) -> Result<(), TestCaseError> {
    let reads_input = |s: &SynthStep| match *s {
        SynthStep::Bitwise { src1, src2, .. } => {
            matches!(src1, SlotRef::Input(_)) || matches!(src2, Some(SlotRef::Input(_)))
        }
        SynthStep::Maj3 { a, b, c, .. } => {
            [a, b, c].iter().any(|s| matches!(s, SlotRef::Input(_)))
        }
    };
    let passes = |s: &SynthStep| match *s {
        SynthStep::Bitwise {
            op: BitwiseOp::Copy,
            src1: SlotRef::Input(j),
            dst: SlotRef::Output(_),
            ..
        } => Some(j),
        _ => None,
    };
    let steps = plan.steps();
    for (w, write) in steps.iter().enumerate() {
        let (SynthStep::Bitwise { dst, .. } | SynthStep::Maj3 { dst, .. }) = *write;
        if !matches!(dst, SlotRef::Output(_)) {
            continue;
        }
        for read in steps[w + 1..].iter().filter(|s| reads_input(s)) {
            prop_assert!(
                passes(write).is_some() && passes(write) == passes(read),
                "output write {:?} before input read {:?} in {:?}",
                write,
                read,
                steps
            );
        }
    }
    Ok(())
}

/// Runs `plan` on a fresh device whose inputs carry the cycling pattern
/// (bit `p` of input `j` is `(p >> j) & 1`, so one row covers every
/// assignment), with output `k` written over input `(first + k) % n`.
/// Returns each output row beside the row its truth table predicts.
fn run_aliased(
    plan: &SynthProgram,
    funcs: &[BoolFunc],
    first: usize,
    policy: IssuePolicy,
) -> Vec<(Vec<bool>, Vec<bool>)> {
    let mut mem = AmbitMemory::new(geometry(), TimingParams::ddr3_1600(), AapMode::Overlapped);
    let bits = mem.row_bits();
    let n = plan.inputs();
    let inputs: Vec<BitVectorHandle> = (0..n).map(|_| mem.alloc(bits).expect("input")).collect();
    for (j, &h) in inputs.iter().enumerate() {
        let pattern: Vec<bool> = (0..bits).map(|p| p >> j & 1 == 1).collect();
        mem.write_bits(h, &pattern).expect("write");
    }
    let scratch: Vec<BitVectorHandle> =
        (0..plan.scratch_rows()).map(|_| mem.alloc(bits).expect("scratch")).collect();
    let outputs: Vec<BitVectorHandle> =
        (0..funcs.len()).map(|k| inputs[(first + k) % n]).collect();
    let mut batch = BatchBuilder::new();
    plan.emit_into(&mut batch, &inputs, &scratch, &outputs).expect("emit");
    mem.execute_batch(&batch, policy).expect("execute");
    funcs
        .iter()
        .zip(&outputs)
        .map(|(f, &h)| {
            let want = (0..bits).map(|p| f.eval(p as u64 & ((1 << n) - 1))).collect();
            (mem.read_bits(h).expect("readback"), want)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn wide_batches_match_their_truth_tables(
        inputs in 4usize..7,
        count in 2usize..4,
        seed in any::<u64>(),
        first in 0usize..6,
        serial in any::<bool>(),
        passed in 0usize..3,
        source in 0usize..6,
    ) {
        // The first `passed` functions pass inputs through unchanged.
        let mut funcs = functions(inputs, count, seed);
        for (k, f) in funcs.iter_mut().take(passed).enumerate() {
            let j = (source + k) % inputs;
            *f = BoolFunc::from_fn(inputs, |i| i >> j & 1 == 1).unwrap();
        }
        let plan = synthesize(&funcs, &SynthOptions::default()).unwrap();
        exhaustive_check(&plan, &funcs)?;
        let flat = synthesize(&funcs, &SynthOptions { bitwise_only: true }).unwrap();
        exhaustive_check(&flat, &funcs)?;
        prop_assert!(flat.is_bitwise_only(), "bitwise_only selected a Maj3");
        prop_assert_eq!(flat.stats().maj3_steps, 0);

        let budget = SubarrayLayout::new(geometry().rows_per_subarray).data_rows();
        let policy = if serial { IssuePolicy::Serial } else { IssuePolicy::BankParallel };
        for p in [&plan, &flat] {
            writes_follow_reads(p)?;
            prop_assert!(inputs + p.scratch_rows() <= budget, "{} scratch rows", p.scratch_rows());
            for (k, (got, want)) in run_aliased(p, &funcs, first, policy).into_iter().enumerate() {
                prop_assert_eq!(got, want, "output {} over input {}", k, (first + k) % inputs);
            }
        }
    }
}
