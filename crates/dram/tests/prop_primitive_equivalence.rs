//! Equivalence suite for the one-call AAP and AP primitives and the
//! constant-aware TRA kernel.
//!
//! `Bank::aap` / `Bank::ap` (and the `Subarray` calls under them) must
//! leave exactly what ACTIVATE, ACTIVATE, PRECHARGE (or ACTIVATE,
//! PRECHARGE) through the protocol calls leaves. Random sequences run on
//! two identical banks, one through the primitives and one through the
//! protocol calls, and after every step every row, sense row, open state,
//! counter and error must match. Wordline sets come from the Ambit B/C/D
//! decode table plus invalid sets (empty, out of range, both sides of one
//! row); steps also arm and re-rate transient TRA faults, install stuck-at
//! cells, advance time through a retention window, force the scalar
//! reference, and open rows through the protocol so the primitives meet a
//! bank that is already open. Cases cover every `TieBreak` and SALP on and
//! off; a final armed TRA checks that both fault streams are still in step.
//!
//! The kernel suite runs TRAs that raise a row holding the subarray's
//! shared constant buffer (`Subarray::poke_constant`), on the data side
//! and the bitline-bar side, against the same TRA over equal-valued rows
//! that share no buffer.
//!
//! `PROPTEST_CASES` sets the case count (default 256).

use ambit_dram::{Bank, BitRow, CellFault, DramError, Subarray, TieBreak, Wordline};
use proptest::prelude::*;

/// Rows per subarray: the eight reserved rows of the Ambit layout (T0–T3,
/// DCC0, DCC1, C0, C1) and four data rows.
const ROWS: usize = 12;
/// Two full words and a two-bit tail.
const BITS: usize = 130;
const SUBARRAYS: usize = 2;
const RETENTION_NS: u64 = 100;

const T0: usize = 0;
const T1: usize = 1;
const T2: usize = 2;
const T3: usize = 3;
const DCC0: usize = 4;
const DCC1: usize = 5;
const C0: usize = 6;
const C1: usize = 7;
const D0: usize = 8;

/// The wordline set an address raises: B0–B15, C0, C1 and the data rows,
/// as in the Ambit row decoder; indices past the table are invalid sets.
fn decode(address: usize) -> Vec<Wordline> {
    let (d, n) = (Wordline::data, Wordline::negated);
    match address {
        0 => vec![d(T0)],
        1 => vec![d(T1)],
        2 => vec![d(T2)],
        3 => vec![d(T3)],
        4 => vec![d(DCC0)],
        5 => vec![n(DCC0)],
        6 => vec![d(DCC1)],
        7 => vec![n(DCC1)],
        8 => vec![n(DCC0), d(T0)],
        9 => vec![n(DCC1), d(T1)],
        10 => vec![d(T2), d(T3)],
        11 => vec![d(T0), d(T3)],
        12 => vec![d(T0), d(T1), d(T2)],
        13 => vec![d(T1), d(T2), d(T3)],
        14 => vec![d(DCC0), d(T1), d(T2)],
        15 => vec![d(DCC1), d(T0), d(T3)],
        16 => vec![d(C0)],
        17 => vec![d(C1)],
        18..=21 => vec![d(D0 + address - 18)],
        // Invalid sets: empty, out of range, both sides of one row, and a
        // duplicate (valid, deduped).
        22 => vec![],
        23 => vec![d(ROWS)],
        24 => vec![d(T0), n(T0)],
        25 => vec![d(T1), d(T1), d(T2)],
        _ => vec![n(T2), d(T0), d(T2)],
    }
}

const ADDRESSES: usize = 27;

#[derive(Debug, Clone)]
enum Step {
    Aap(usize, usize, usize),
    Ap(usize, usize),
    /// A protocol ACTIVATE on both banks, which leaves a row open for the
    /// next primitive to meet.
    Activate(usize, usize),
    Precharge,
    Poke(usize, usize, u64),
    PokeConstant(usize, usize, bool),
    StuckAt(usize, usize, usize, bool),
    FaultRate(usize, u8),
    Advance(usize, u64),
    ForceScalar(usize, bool),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let sa = || 0usize..SUBARRAYS + 1;
    let address = || 0usize..ADDRESSES;
    // Weighted by repetition: mostly AAPs and APs.
    prop_oneof![
        (sa(), address(), address()).prop_map(|(s, a, b)| Step::Aap(s, a, b)),
        (sa(), address(), address()).prop_map(|(s, a, b)| Step::Aap(s, a, b)),
        (sa(), address(), address()).prop_map(|(s, a, b)| Step::Aap(s, a, b)),
        (sa(), address()).prop_map(|(s, a)| Step::Ap(s, a)),
        (sa(), address()).prop_map(|(s, a)| Step::Ap(s, a)),
        (sa(), address()).prop_map(|(s, a)| Step::Activate(s, a)),
        Just(Step::Precharge),
        (0usize..SUBARRAYS, 0usize..ROWS, any::<u64>()).prop_map(|(s, r, x)| Step::Poke(s, r, x)),
        (0usize..SUBARRAYS, 0usize..ROWS, any::<bool>())
            .prop_map(|(s, r, one)| Step::PokeConstant(s, r, one)),
        (0usize..SUBARRAYS, 0usize..ROWS, 0usize..BITS, any::<bool>())
            .prop_map(|(s, r, b, one)| Step::StuckAt(s, r, b, one)),
        (0usize..SUBARRAYS, 0u8..4).prop_map(|(s, k)| Step::FaultRate(s, k)),
        (0usize..SUBARRAYS, 0u64..70).prop_map(|(s, ns)| Step::Advance(s, ns)),
        (0usize..SUBARRAYS, any::<bool>()).prop_map(|(s, f)| Step::ForceScalar(s, f)),
    ]
}

fn seeded_row(seed: u64) -> BitRow {
    BitRow::from_fn(BITS, |i| {
        let x = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (x ^ (x >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 63 == 1
    })
}

/// The protocol form of an AAP: what `Bank::aap` must equal.
fn aap_by_protocol(
    bank: &mut Bank,
    s: usize,
    src: &[Wordline],
    dst: &[Wordline],
) -> Result<(), DramError> {
    bank.activate(s, src)?;
    bank.activate(s, dst)?;
    close(bank, s)
}

/// The protocol form of an AP: what `Bank::ap` must equal.
fn ap_by_protocol(bank: &mut Bank, s: usize, wls: &[Wordline]) -> Result<(), DramError> {
    bank.activate(s, wls)?;
    close(bank, s)
}

fn close(bank: &mut Bank, s: usize) -> Result<(), DramError> {
    if bank.salp() {
        bank.precharge_subarray(s)
    } else {
        bank.precharge()
    }
}

fn assert_same(fast: &Bank, protocol: &Bank, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        fast.open_subarrays(),
        protocol.open_subarrays(),
        "{}: open list",
        what
    );
    for s in 0..SUBARRAYS {
        let (a, b) = (fast.subarray(s), protocol.subarray(s));
        for row in 0..ROWS {
            prop_assert_eq!(
                a.row(row),
                b.row(row),
                "{}: subarray {} row {}",
                what,
                s,
                row
            );
            prop_assert_eq!(
                a.refreshed_at_ns(row),
                b.refreshed_at_ns(row),
                "{}: subarray {} stamp of row {}",
                what,
                s,
                row
            );
        }
        prop_assert_eq!(a.sense(), b.sense(), "{}: subarray {} sense", what, s);
        prop_assert_eq!(
            a.is_activated(),
            b.is_activated(),
            "{}: subarray {} open",
            what,
            s
        );
        prop_assert_eq!(a.stats(), b.stats(), "{}: subarray {} stats", what, s);
    }
    Ok(())
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

const RATES: [f64; 4] = [0.0, 0.01, 0.2, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn primitives_match_the_protocol_calls(
        steps in proptest::collection::vec(step_strategy(), 1..80),
        policy in 0usize..4,
        salp in any::<bool>(),
        retention in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let tie_break = [TieBreak::Error, TieBreak::Zero, TieBreak::One, TieBreak::Random][policy];
        // Built twice rather than cloned: a clone shares row buffers
        // between the banks, and whichever bank wrote one first would pay
        // its copy.
        let build = || {
            let mut bank = Bank::new(SUBARRAYS, ROWS, BITS);
            bank.set_salp(salp);
            for s in 0..SUBARRAYS {
                let sa = bank.subarray_mut(s);
                sa.set_tie_break(tie_break);
                sa.reseed_rng(seed ^ s as u64);
                for row in 0..ROWS {
                    sa.poke_row(row, seeded_row(seed.wrapping_add((s * ROWS + row) as u64)));
                }
                sa.poke_constant(C0, false);
                sa.poke_constant(C1, true);
                if retention {
                    sa.set_retention_window(Some(RETENTION_NS));
                }
            }
            bank
        };
        let (mut fast, mut protocol) = (build(), build());
        for (i, step) in steps.iter().enumerate() {
            let what = format!("step {i} {step:?}");
            match *step {
                Step::Aap(s, a, b) => {
                    let (src, dst) = (decode(a), decode(b));
                    let got = fast.aap(s, &src, &dst);
                    prop_assert_eq!(got, aap_by_protocol(&mut protocol, s, &src, &dst), "{}", what);
                }
                Step::Ap(s, a) => {
                    let wls = decode(a);
                    prop_assert_eq!(fast.ap(s, &wls), ap_by_protocol(&mut protocol, s, &wls), "{}", what);
                }
                Step::Activate(s, a) => {
                    let wls = decode(a);
                    let got = fast.activate(s, &wls).map(|_| ());
                    prop_assert_eq!(got, protocol.activate(s, &wls).map(|_| ()), "{}", what);
                }
                Step::Precharge => prop_assert_eq!(fast.precharge(), protocol.precharge(), "{}", what),
                Step::Poke(s, row, x) => {
                    for bank in [&mut fast, &mut protocol] {
                        bank.subarray_mut(s).poke_row(row, seeded_row(x));
                    }
                }
                Step::PokeConstant(s, row, one) => {
                    for bank in [&mut fast, &mut protocol] {
                        bank.subarray_mut(s).poke_constant(row, one);
                    }
                }
                Step::StuckAt(s, row, bit, one) => {
                    let fault = if one { CellFault::StuckAtOne } else { CellFault::StuckAtZero };
                    for bank in [&mut fast, &mut protocol] {
                        bank.subarray_mut(s).inject_fault(row, bit, fault).unwrap();
                    }
                }
                Step::FaultRate(s, k) => {
                    for bank in [&mut fast, &mut protocol] {
                        bank.subarray_mut(s).set_tra_fault_rate(RATES[k as usize]).unwrap();
                    }
                }
                Step::Advance(s, ns) => {
                    for bank in [&mut fast, &mut protocol] {
                        bank.subarray_mut(s).advance_time_ns(ns);
                    }
                }
                Step::ForceScalar(s, force) => {
                    for bank in [&mut fast, &mut protocol] {
                        bank.subarray_mut(s).set_scalar_reference(force);
                    }
                }
            }
            assert_same(&fast, &protocol, &what)?;
        }
        // Both fault streams are still in step: the same armed TRA senses
        // the same row on both banks.
        for bank in [&mut fast, &mut protocol] {
            if bank.is_activated() {
                bank.precharge().unwrap();
            }
            for s in 0..SUBARRAYS {
                let sa = bank.subarray_mut(s);
                sa.set_retention_window(None);
                sa.set_tra_fault_rate(0.3).unwrap();
            }
        }
        let tra = decode(12);
        for s in 0..SUBARRAYS {
            let sensed = fast.activate(s, &tra).unwrap().clone();
            prop_assert_eq!(&sensed, protocol.activate(s, &tra).unwrap(), "final armed TRA");
            fast.precharge().unwrap();
            protocol.precharge().unwrap();
        }
    }

    /// A TRA that raises a row holding a shared constant buffer (once or
    /// twice, anywhere in the wordline order, on either side) senses and
    /// restores what the same TRA over equal-valued rows of their own
    /// does, with the same counters, also fault-armed and with a stuck
    /// cell in the constant row.
    #[test]
    fn constant_rows_resolve_as_the_majority(
        constants in proptest::collection::vec((0usize..3, any::<bool>()), 1..3),
        sides in (any::<bool>(), any::<bool>(), any::<bool>()),
        seeds in (any::<u64>(), any::<u64>(), any::<u64>()),
        armed in any::<bool>(),
        stuck in (any::<bool>(), 0usize..3, 0usize..BITS, any::<bool>()),
    ) {
        let stuck = stuck.0.then_some((stuck.1, stuck.2, stuck.3));
        let build = || {
            let mut sa = Subarray::new(8, BITS);
            sa.poke_row(0, seeded_row(seeds.0));
            sa.poke_row(1, seeded_row(seeds.1));
            sa.poke_row(2, seeded_row(seeds.2));
            sa
        };
        let (mut shared, mut own) = (build(), build());
        for &(row, one) in &constants {
            shared.poke_constant(row, one);
            own.poke_row(row, if one { BitRow::ones(BITS) } else { BitRow::zeros(BITS) });
        }
        for sa in [&mut shared, &mut own] {
            if let Some((row, bit, one)) = stuck {
                let fault = if one { CellFault::StuckAtOne } else { CellFault::StuckAtZero };
                sa.inject_fault(row, bit, fault).unwrap();
            }
            if armed {
                sa.set_tra_fault_rate(0.05).unwrap();
            }
        }
        let wl = |row: usize, bar: bool| if bar { Wordline::negated(row) } else { Wordline::data(row) };
        let tra = [wl(0, sides.0), wl(1, sides.1), wl(2, sides.2)];
        // Twice: the second TRA runs on the restored (no longer constant)
        // rows, and its fault draws must still be in step.
        for round in 0..2 {
            let sensed = shared.activate(&tra).unwrap().clone();
            prop_assert_eq!(&sensed, own.activate(&tra).unwrap(), "round {}", round);
            shared.precharge().unwrap();
            own.precharge().unwrap();
            for row in 0..8 {
                prop_assert_eq!(shared.row(row), own.row(row), "round {} row {}", round, row);
            }
            let counters = |sa: &Subarray| ambit_dram::SubarrayStats { rows_materialized: 0, ..sa.stats() };
            prop_assert_eq!(counters(&shared), counters(&own), "round {}", round);
        }
    }
}

#[test]
fn constant_rows_share_one_buffer_and_are_never_written() {
    let mut sa = Subarray::new(8, BITS);
    sa.poke_constant(C0, false);
    sa.poke_constant(C1, true);
    sa.poke_constant(T3, true);
    assert!(std::sync::Arc::ptr_eq(sa.row_buffer(C1), sa.row_buffer(T3)));
    assert_eq!(
        sa.stats().rows_materialized,
        0,
        "no row is written for a constant"
    );
    // Copy C1 into T2, then TRA T0, T1, T2: an OR, whose restore
    // overwrites T2 but leaves the constant buffer all ones.
    let (a, b) = (seeded_row(1), seeded_row(2));
    sa.poke_row(T0, a.clone());
    sa.poke_row(T1, b.clone());
    sa.aap(&[Wordline::data(C1)], &[Wordline::data(T2)])
        .unwrap();
    sa.ap(&[Wordline::data(T0), Wordline::data(T1), Wordline::data(T2)])
        .unwrap();
    assert_eq!(*sa.row(T2), a.or(&b));
    assert_eq!(*sa.row(C1), BitRow::ones(BITS));
    assert_eq!(*sa.row(T3), BitRow::ones(BITS));
    // A column write through the open constant row splits it off first.
    sa.activate(&[Wordline::data(C0)]).unwrap();
    sa.write_bytes(0, &[0xFF]).unwrap();
    sa.precharge().unwrap();
    assert_eq!(sa.row(C0).count_ones(), 8);
    assert_eq!(
        sa.row(5).count_ones(),
        0,
        "never-written rows still read zero"
    );
}
