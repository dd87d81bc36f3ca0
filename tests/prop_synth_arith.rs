//! Property-based checks of the compiler-generated bit-serial arithmetic
//! kernels: for random lane counts (one or two row chunks), widths, and
//! data, the synthesized add/sub/compare/popcount/nonzero paths must agree
//! with a scalar CPU reference, and a bitwise-only synthesized full adder
//! must survive fault-armed execution through the resilient executor
//! (golden equality unless the executor declares the run degraded).

use ambit_repro::apps::synth_arith::{self, BitSlicedVector};
use ambit_repro::core::{
    synthesize, AmbitMemory, BoolFunc, IssuePolicy, ResilientConfig, ResilientExecutor,
    SlotRef, SynthOptions, SynthStep,
};
use ambit_repro::dram::{AapMode, DramGeometry, TimingParams};
use proptest::prelude::*;

/// Taller-than-tiny geometry: the driver's bump allocator never reclaims
/// rows, and each case allocates its operands and the kernel's working
/// set.
fn memory() -> AmbitMemory {
    AmbitMemory::new(
        DramGeometry {
            subarrays_per_bank: 4,
            rows_per_subarray: 128,
            ..DramGeometry::tiny()
        },
        TimingParams::ddr3_1600(),
        AapMode::Overlapped,
    )
}

fn values(lanes: usize, width: usize, seed: u64) -> Vec<u32> {
    let mask = if width >= 32 { u32::MAX } else { (1u32 << width) - 1 };
    let mut x = seed | 1;
    (0..lanes)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32 & mask
        })
        .collect()
}

/// A bit-sliced vector holding `vals`.
fn vector(mem: &mut AmbitMemory, width: usize, vals: &[u32]) -> BitSlicedVector {
    let v = BitSlicedVector::alloc(mem, vals.len(), width).unwrap();
    v.write(mem, vals).unwrap();
    v
}

fn policy_strategy() -> impl Strategy<Value = IssuePolicy> {
    prop_oneof![Just(IssuePolicy::Serial), Just(IssuePolicy::BankParallel)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Synthesized ripple add ≡ scalar add mod 2^width, sources untouched.
    #[test]
    fn synth_add_matches_scalar(
        lanes in 1usize..160,
        width in 1usize..14,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let mut mem = memory();
        let va = values(lanes, width, seed_a);
        let vb = values(lanes, width, seed_b);
        let a = vector(&mut mem, width, &va);
        let b = vector(&mut mem, width, &vb);

        let (sum, _) = synth_arith::add_synth(&mut mem, &a, &b, policy).unwrap();
        let sum = sum.read(&mem).unwrap();
        let mask = (1u32 << width) - 1;
        for i in 0..lanes {
            prop_assert_eq!(sum[i], va[i].wrapping_add(vb[i]) & mask, "lane {}", i);
        }
        prop_assert_eq!(a.read(&mem).unwrap(), va);
        prop_assert_eq!(b.read(&mem).unwrap(), vb);
    }

    /// Synthesized subtract ≡ scalar subtract mod 2^width.
    #[test]
    fn synth_sub_matches_scalar(
        lanes in 1usize..160,
        width in 1usize..14,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let mut mem = memory();
        let va = values(lanes, width, seed_a);
        let vb = values(lanes, width, seed_b);
        let a = vector(&mut mem, width, &va);
        let b = vector(&mut mem, width, &vb);

        let (diff, _) = synth_arith::sub_synth(&mut mem, &a, &b, policy).unwrap();
        let diff = diff.read(&mem).unwrap();
        let mask = (1u32 << width) - 1;
        for i in 0..lanes {
            prop_assert_eq!(diff[i], va[i].wrapping_sub(vb[i]) & mask, "lane {}", i);
        }
    }

    /// Synthesized compare ≡ scalar `<` mask.
    #[test]
    fn synth_compare_matches_scalar(
        lanes in 1usize..160,
        width in 1usize..14,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let mut mem = memory();
        let va = values(lanes, width, seed_a);
        // Nudge some lanes into equality so the eq-chain path is exercised.
        let mut vb = values(lanes, width, seed_b);
        for i in (0..lanes).step_by(3) {
            vb[i] = va[i];
        }
        let a = vector(&mut mem, width, &va);
        let b = vector(&mut mem, width, &vb);

        let (lt, _) = synth_arith::compare_lt_synth(&mut mem, &a, &b, policy).unwrap();
        let lt = mem.read_bits(lt).unwrap();
        for i in 0..lanes {
            prop_assert_eq!(lt[i], va[i] < vb[i], "lane {}", i);
        }
    }

    /// Synthesized popcount ≡ scalar count_ones.
    #[test]
    fn synth_popcount_matches_scalar(
        lanes in 1usize..160,
        width in 1usize..14,
        seed in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let mut mem = memory();
        let va = values(lanes, width, seed);
        let a = vector(&mut mem, width, &va);

        let (count, _) = synth_arith::popcount_synth(&mut mem, &a, policy).unwrap();
        let count = count.read(&mem).unwrap();
        for i in 0..lanes {
            prop_assert_eq!(count[i], va[i].count_ones(), "lane {}", i);
        }
    }

    /// The OR-fold nonzero mask ≡ scalar `!= 0`, at width 1 (a copy) and
    /// at a wider width (a fold), with some lanes forced to zero.
    #[test]
    fn synth_nonzero_mask_matches_scalar(
        lanes in 1usize..160,
        width in 2usize..14,
        seed in any::<u64>(),
        zero_every in 1usize..8,
        policy in policy_strategy(),
    ) {
        let mut mem = memory();
        for width in [1, width] {
            let mut va = values(lanes, width, seed);
            for i in (0..lanes).step_by(zero_every) {
                va[i] = 0;
            }
            let v = vector(&mut mem, width, &va);
            let (mask, _) = synth_arith::nonzero_mask(&mut mem, &v, policy).unwrap();
            let mask = mem.read_bits(mask).unwrap();
            for i in 0..lanes {
                prop_assert_eq!(mask[i], va[i] != 0, "width {}, lane {}", width, i);
            }
        }
    }

    /// A bitwise-only synthesized full adder, rippled step-by-step through
    /// the fault-armed resilient executor, still produces the scalar sum
    /// unless the executor declares the run degraded.
    #[test]
    fn fault_armed_resilient_runs_recover_the_synthesized_adder(
        width in 1usize..5,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        fault_per_mille in 0u32..50,
    ) {
        // sum = a ^ b ^ cin, carry-out = maj(a, b, cin); bitwise_only
        // lowers away Maj3, the one step shape the resilient front end
        // rejects.
        let sum = BoolFunc::from_table(3, 0x96).unwrap();
        let carry = BoolFunc::from_table(3, 0xE8).unwrap();
        let opts = SynthOptions { bitwise_only: true };
        let plan = synthesize(&[sum, carry], &opts).unwrap();
        prop_assert!(plan.is_bitwise_only());

        let fault_rate = f64::from(fault_per_mille) / 1000.0;
        let mut mem = memory();
        if fault_rate > 0.0 {
            mem.set_tra_fault_rate(fault_rate).unwrap();
        }
        let mut exec = ResilientExecutor::new(mem, ResilientConfig::default());
        let bits = exec.memory().row_bits();
        let lanes = bits;
        let va = values(lanes, width, seed_a);
        let vb = values(lanes, width, seed_b);
        let slice = |vals: &[u32], j: usize| -> Vec<bool> {
            vals.iter().map(|&v| v >> j & 1 == 1).collect()
        };

        // Vertical layout by hand: one resilient row per bit position.
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut r = Vec::new();
        for j in 0..width {
            let (ha, hb, hr) =
                (exec.alloc(bits).unwrap(), exec.alloc(bits).unwrap(), exec.alloc(bits).unwrap());
            exec.write(ha, &slice(&va, j)).unwrap();
            exec.write(hb, &slice(&vb, j)).unwrap();
            a.push(ha);
            b.push(hb);
            r.push(hr);
        }
        let carry = exec.alloc(bits).unwrap();
        exec.write(carry, &vec![false; bits]).unwrap();
        let scratch: Vec<_> =
            (0..plan.scratch_rows()).map(|_| exec.alloc(bits).unwrap()).collect();

        for j in 0..width {
            let resolve = |slot: SlotRef| match slot {
                SlotRef::Input(0) => a[j],
                SlotRef::Input(1) => b[j],
                SlotRef::Input(2) => carry,
                SlotRef::Input(_) => unreachable!("full adder reads 3 inputs"),
                SlotRef::Scratch(s) => scratch[s],
                SlotRef::Output(0) => r[j],
                SlotRef::Output(1) => carry,
                SlotRef::Output(_) => unreachable!("full adder writes 2 outputs"),
            };
            for step in plan.steps() {
                let SynthStep::Bitwise { op, src1, src2, dst } = *step else {
                    panic!("bitwise-only plan contains a Maj3 step");
                };
                exec.bitwise(op, resolve(src1), src2.map(resolve), resolve(dst)).unwrap();
            }
        }

        if !exec.is_degraded() {
            let mask = (1u32 << width) - 1;
            let mut got = vec![0u32; lanes];
            for (j, &rj) in r.iter().enumerate() {
                let bits = exec.read(rj).unwrap();
                for (i, &bit) in bits.iter().enumerate() {
                    got[i] |= u32::from(bit) << j;
                }
            }
            for i in 0..lanes {
                let scalar = va[i].wrapping_add(vb[i]) & mask;
                prop_assert_eq!(got[i], scalar, "recovered adder, lane {}", i);
            }
        }
        // Internal consistency: any detected fault must be accounted for.
        let report = *exec.report();
        if report.faults_detected > 0 {
            prop_assert!(
                report.retries + report.cpu_fallbacks + u64::from(report.corrected_bits > 0) > 0,
                "faults detected but no recovery recorded"
            );
        }
    }
}
