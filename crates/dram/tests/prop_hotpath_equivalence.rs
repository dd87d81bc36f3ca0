//! Equivalence suite for the word-parallel charge-share fast path.
//!
//! The 3-row TRA fast path must be byte-identical to the retained bit-serial
//! scalar reference (`Subarray::set_scalar_reference`) across arbitrary row
//! contents, bitline/bitline-bar side mixes, and every `TieBreak` policy.
//! Fault-armed subarrays run the same word kernel and then draw one fault
//! value per bitline, in bitline order: the flip stream must replay the
//! documented reference RNG exactly, and a fault-armed fast-path subarray
//! must stay in lockstep with a fault-armed forced-scalar one — same sense,
//! same rows, same RNG state — across consecutive TRAs. The armed tests
//! run at widths from one bitline to 65,536, on both sides of the
//! 8,192-bitline groups whose draws the fast path computes in jump-ahead
//! chains. `PROPTEST_CASES` sets the case count (default 96).

use ambit_conformance::ReferenceRng;
use ambit_dram::{BitRow, BitlineSide, CellFault, Subarray, TieBreak, Wordline};
use proptest::prelude::*;

fn bitrow_strategy(len: usize) -> impl Strategy<Value = BitRow> {
    proptest::collection::vec(any::<bool>(), len)
        .prop_map(move |bits| BitRow::from_fn(len, |i| bits[i]))
}

fn wordline(row: usize, bar: bool) -> Wordline {
    if bar {
        Wordline::negated(row)
    } else {
        Wordline::data(row)
    }
}

/// Runs the same TRA on a fast-path and a forced-scalar subarray and checks
/// that the sensed value and every restored row agree bit for bit.
fn assert_tra_equivalent(
    rows: &(BitRow, BitRow, BitRow),
    sides: (bool, bool, bool),
    policy: TieBreak,
) -> std::result::Result<(), TestCaseError> {
    let bits = rows.0.len();
    let mk = |force_scalar: bool| {
        let mut sa = Subarray::new(8, bits);
        sa.set_scalar_reference(force_scalar);
        sa.set_tie_break(policy);
        sa.poke_row(0, rows.0.clone());
        sa.poke_row(1, rows.1.clone());
        sa.poke_row(2, rows.2.clone());
        sa
    };
    let wls = [
        wordline(0, sides.0),
        wordline(1, sides.1),
        wordline(2, sides.2),
    ];
    let mut fast = mk(false);
    let mut scalar = mk(true);
    let sensed_fast = fast.activate(&wls).unwrap().clone();
    let sensed_scalar = scalar.activate(&wls).unwrap().clone();
    prop_assert_eq!(&sensed_fast, &sensed_scalar);
    fast.precharge().unwrap();
    scalar.precharge().unwrap();
    for row in 0..3 {
        prop_assert_eq!(fast.peek_row(row), scalar.peek_row(row));
    }
    prop_assert_eq!(fast.stats().word_parallel_charge_shares, 1);
    prop_assert_eq!(fast.stats().scalar_charge_shares, 0);
    prop_assert_eq!(scalar.stats().word_parallel_charge_shares, 0);
    prop_assert_eq!(scalar.stats().scalar_charge_shares, 1);
    Ok(())
}

/// Row widths of the fault-armed tests. The fault draws run in chains over
/// whole groups of 8,192 bitlines (16 segments of 512 bitlines under
/// AVX-512, 8 of 1,024 under AVX2, 4 of 2,048 otherwise) and one after
/// another past the last group, so the widths cover rows with no group
/// (one bitline, one word, a masked partial word, one bitline short of a
/// group), exactly one group, a group plus one bitline, a group plus a
/// masked two-word tail, and eight groups (an 8 KB row).
const ARMED_WIDTHS: [usize; 8] = [1, 64, 130, 8191, 8192, 8193, 8192 + 130, 65536];

/// A `len`-bit row of seeded pseudo-random words: cheap at any width.
fn seeded_row(len: usize, seed: u64) -> BitRow {
    let mut rng = ReferenceRng::with_seed(seed);
    let words: Vec<u64> = (0..len.div_ceil(64)).map(|_| rng.next()).collect();
    BitRow::from_words(len, &words)
}

/// Cases per property: 96, or `PROPTEST_CASES` for a deep run.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96)
}

// The model's documented RNG (xorshift64* from the fixed seed, one draw per
// bitline per fault-armed multi-row activation) is `ReferenceRng`, shared
// from `ambit_conformance`: any change to the draw stream's shape or order
// fails the replay tests below.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn tra_fast_path_matches_scalar_reference(
        a in bitrow_strategy(130),
        b in bitrow_strategy(130),
        c in bitrow_strategy(130),
        sa_bar in any::<bool>(),
        sb_bar in any::<bool>(),
        sc_bar in any::<bool>(),
    ) {
        // 130 bits exercises the masked tail of the last word. Ties are
        // impossible at arity 3, so every policy must behave identically.
        for policy in [TieBreak::Error, TieBreak::Zero, TieBreak::One, TieBreak::Random] {
            assert_tra_equivalent(
                &(a.clone(), b.clone(), c.clone()),
                (sa_bar, sb_bar, sc_bar),
                policy,
            )?;
        }
    }

    #[test]
    fn two_row_activations_stay_on_the_scalar_path(
        a in bitrow_strategy(64),
        b in bitrow_strategy(64),
    ) {
        // Non-TRA arities can tie, so they must resolve through the scalar
        // reference — and the forced-scalar switch must be a no-op there.
        for policy in [TieBreak::Zero, TieBreak::One, TieBreak::Random] {
            let mk = |force_scalar: bool| {
                let mut sa = Subarray::new(8, 64);
                sa.set_scalar_reference(force_scalar);
                sa.set_tie_break(policy);
                sa.poke_row(0, a.clone());
                sa.poke_row(1, b.clone());
                sa
            };
            let mut fast = mk(false);
            let mut scalar = mk(true);
            let wls = [Wordline::data(0), Wordline::data(1)];
            let s1 = fast.activate(&wls).unwrap().clone();
            let s2 = scalar.activate(&wls).unwrap().clone();
            prop_assert_eq!(s1, s2);
            prop_assert_eq!(fast.stats().word_parallel_charge_shares, 0);
            prop_assert_eq!(fast.stats().scalar_charge_shares, 1);
        }
    }
    #[test]
    fn armed_fault_injection_replays_the_reference_stream(
        seeds in (any::<u64>(), any::<u64>(), any::<u64>()),
        sa_bar in any::<bool>(),
        sb_bar in any::<bool>(),
        sc_bar in any::<bool>(),
        rate_millis in 1u32..400,
    ) {
        // A fault-armed subarray must flip exactly the bitlines the
        // documented per-bit RNG stream dictates — same seed, same flipped
        // bits, whichever kernel resolves the majority. Bar-side wordlines
        // and masked tails are both in play. A second TRA must flip what
        // the stream dictates next, which pins the RNG state the first
        // one left behind.
        let rate = rate_millis as f64 / 1000.0;
        let threshold = (rate * u64::MAX as f64) as u64;
        let wls = [wordline(0, sa_bar), wordline(1, sb_bar), wordline(2, sc_bar)];
        for bits in ARMED_WIDTHS {
            let mut sa = Subarray::new(8, bits);
            sa.set_tra_fault_rate(rate).unwrap();
            sa.poke_row(0, seeded_row(bits, seeds.0));
            sa.poke_row(1, seeded_row(bits, seeds.1));
            sa.poke_row(2, seeded_row(bits, seeds.2));
            let mut rng = ReferenceRng::new();
            for round in 0..2 {
                let inputs: Vec<BitRow> = wls
                    .iter()
                    .map(|wl| {
                        let row = sa.peek_row(wl.row);
                        if wl.side == BitlineSide::BitlineBar { row.not() } else { row }
                    })
                    .collect();
                let clean = BitRow::majority(&inputs[0], &inputs[1], &inputs[2]);
                let expect = BitRow::from_fn(bits, |i| clean.get(i) ^ (rng.next() < threshold));
                let sensed = sa.activate(&wls).unwrap().clone();
                sa.precharge().unwrap();
                prop_assert_eq!(sensed, expect, "{} bits, TRA {}", bits, round);
            }
            prop_assert_eq!(sa.stats().scalar_charge_shares, 2);
            prop_assert_eq!(sa.stats().word_parallel_charge_shares, 0);
        }
    }

    #[test]
    fn armed_fast_path_stays_in_lockstep_with_armed_scalar_reference(
        seeds in proptest::collection::vec(any::<u64>(), 8),
        bars in proptest::collection::vec(any::<bool>(), 15),
        rate_millis in 1u32..400,
    ) {
        // Five consecutive fault-armed TRAs over rotating rows: the
        // word-kernel subarray and the forced-scalar one must agree on
        // every sense and every row after each TRA, which also pins the
        // RNG state each TRA leaves for the next.
        let rate = rate_millis as f64 / 1000.0;
        for bits in ARMED_WIDTHS {
            let mk = |force_scalar: bool| {
                let mut sa = Subarray::new(8, bits);
                sa.set_scalar_reference(force_scalar);
                sa.set_tra_fault_rate(rate).unwrap();
                for (r, &seed) in seeds.iter().enumerate() {
                    sa.poke_row(r, seeded_row(bits, seed));
                }
                sa
            };
            let mut fast = mk(false);
            let mut scalar = mk(true);
            for round in 0..5 {
                let wls: Vec<Wordline> = (0..3)
                    .map(|k| wordline((round + 2 * k) % 8, bars[3 * round + k]))
                    .collect();
                let inputs: Vec<BitRow> = wls
                    .iter()
                    .map(|wl| {
                        let row = fast.peek_row(wl.row);
                        if wl.side == BitlineSide::BitlineBar { row.not() } else { row }
                    })
                    .collect();
                let clean = BitRow::majority(&inputs[0], &inputs[1], &inputs[2]);
                let s_fast = fast.activate(&wls).unwrap().clone();
                let s_scalar = scalar.activate(&wls).unwrap().clone();
                fast.precharge().unwrap();
                scalar.precharge().unwrap();
                prop_assert_eq!(
                    s_fast.xor(&clean),
                    s_scalar.xor(&clean),
                    "flips of TRA {} at {} bits",
                    round,
                    bits
                );
                prop_assert_eq!(&s_fast, &s_scalar);
                for r in 0..8 {
                    prop_assert_eq!(
                        fast.peek_row(r),
                        scalar.peek_row(r),
                        "row {} after TRA {} at {} bits",
                        r,
                        round,
                        bits
                    );
                }
            }
            prop_assert_eq!(fast.stats().scalar_charge_shares, 5);
            prop_assert_eq!(fast.stats(), scalar.stats());
        }
    }
}

#[test]
fn stuck_at_faults_agree_across_paths() {
    // Stuck-at faults are baked into storage at write time, so the fast
    // path (which reads storage directly) must see exactly what the scalar
    // reference sees, and restore must re-pin the faulty cells.
    let mk = |force_scalar: bool| {
        let mut sa = Subarray::new(8, 96);
        sa.set_scalar_reference(force_scalar);
        sa.inject_fault(0, 5, CellFault::StuckAtOne).unwrap();
        sa.inject_fault(2, 64, CellFault::StuckAtZero).unwrap();
        sa.poke_row(0, BitRow::from_fn(96, |i| i % 3 == 0));
        sa.poke_row(1, BitRow::from_fn(96, |i| i % 5 == 0));
        sa.poke_row(2, BitRow::from_fn(96, |i| i % 7 == 0));
        sa.activate(&[Wordline::data(0), Wordline::data(1), Wordline::negated(2)])
            .unwrap();
        sa.precharge().unwrap();
        sa
    };
    let fast = mk(false);
    let scalar = mk(true);
    assert_eq!(fast.sense(), scalar.sense());
    for row in 0..3 {
        assert_eq!(fast.peek_row(row), scalar.peek_row(row), "row {row}");
    }
    assert!(!fast.peek_row(2).get(64), "stuck-at-zero survives restore");
    assert!(fast.peek_row(0).get(5), "stuck-at-one survives restore");
}

#[test]
fn fault_replay_is_identical_across_instances() {
    // Two identically configured subarrays replay the same flip sequence
    // across several consecutive fault-armed TRAs (the RNG stream advances
    // identically), pinning campaign replays to their pre-fast-path traces.
    let run = || {
        let mut sa = Subarray::new(8, 256);
        sa.set_tra_fault_rate(0.05).unwrap();
        let mut sensed = Vec::new();
        for round in 0..4u64 {
            sa.poke_row(0, BitRow::from_fn(256, |i| (i as u64 + round).is_multiple_of(3)));
            sa.poke_row(1, BitRow::from_fn(256, |i| (i as u64 + round).is_multiple_of(4)));
            sa.poke_row(2, BitRow::from_fn(256, |i| (i as u64 + round).is_multiple_of(5)));
            sensed.push(
                sa.activate(&[Wordline::data(0), Wordline::data(1), Wordline::data(2)])
                    .unwrap()
                    .clone(),
            );
            sa.precharge().unwrap();
        }
        sensed
    };
    assert_eq!(run(), run());
}
