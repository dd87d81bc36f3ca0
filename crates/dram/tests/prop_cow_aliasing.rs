//! Aliasing suite for the copy-on-write row storage.
//!
//! `Subarray` shares one row buffer between every row (and the sense
//! amplifiers) holding the same value. Random command sequences run here
//! against a plain deep-copy reference model written in this file: one
//! `BitRow` per physical row, a sense row of its own, and a full restore on
//! every activation. Sequences mix single- and multi-row activations on
//! both sides of the sense amplifier, back-to-back copies, column reads
//! and writes, stuck-at faults, spare-row remaps and `Subarray::clone()`
//! snapshots (which later swap places with the live subarray). Commands
//! land on one of two subarrays standing for rows in different banks, and
//! a backdoor write can store one shared buffer in a row of each (as a TMR
//! write does for its replicas). After every command, every row, the sense
//! row and the command counters must match the model, so a write to one
//! row can never show up in another row, in the other bank or in an
//! earlier clone, and a shared buffer never changes while it is held.
//!
//! `PROPTEST_CASES` sets the case count (default 256).

use std::collections::BTreeMap;
use std::sync::Arc;

use ambit_dram::{
    BitRow, BitlineSide, CellFault, DramError, Subarray, SubarrayStats, TieBreak, Wordline,
};
use proptest::prelude::*;

const ROWS: usize = 8;
/// Two full words and a two-bit tail: exercises tail masking on every
/// word-wise path.
const BITS: usize = 130;
const ROW_BYTES: usize = BITS / 8;
/// Independent subarrays, one per bank.
const BANKS: usize = 2;

#[derive(Debug, Clone)]
enum Cmd {
    /// Wordlines as (row, bar side); rows may be out of range.
    Activate(Vec<(usize, bool)>),
    Precharge,
    Read(usize, usize),
    Write(usize, Vec<u8>),
    Poke(usize, u64),
    /// One buffer stored in a row of each bank: (row in bank 0, row in
    /// bank 1, seed).
    PokeShared(usize, usize, u64),
    InjectFault(usize, usize, bool),
    ClearFaults,
    Remap(usize, usize),
    Snapshot,
    Swap(usize),
    ForceScalar(bool),
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    let wordline = || (0usize..ROWS + 1, any::<bool>());
    prop_oneof![
        proptest::collection::vec(wordline(), 1..2).prop_map(Cmd::Activate),
        proptest::collection::vec(wordline(), 1..2).prop_map(Cmd::Activate),
        proptest::collection::vec((0usize..ROWS, 0u8..4), 3..4).prop_map(|wls| {
            // Mostly data-side TRAs, like the Ambit B-group addresses.
            Cmd::Activate(wls.into_iter().map(|(r, s)| (r, s == 0)).collect())
        }),
        proptest::collection::vec(wordline(), 1..5).prop_map(Cmd::Activate),
        Just(Cmd::Precharge),
        Just(Cmd::Precharge),
        (0usize..ROW_BYTES + 1, 1usize..4).prop_map(|(o, n)| Cmd::Read(o, n)),
        (
            0usize..ROW_BYTES + 1,
            proptest::collection::vec(any::<u8>(), 1..4)
        )
            .prop_map(|(o, d)| Cmd::Write(o, d)),
        (0usize..ROWS, any::<u64>()).prop_map(|(r, seed)| Cmd::Poke(r, seed)),
        (0usize..ROWS, 0usize..ROWS, any::<u64>())
            .prop_map(|(r0, r1, seed)| Cmd::PokeShared(r0, r1, seed)),
        (0usize..ROWS + 1, 0usize..BITS + 1, any::<bool>())
            .prop_map(|(r, b, one)| Cmd::InjectFault(r, b, one)),
        Just(Cmd::ClearFaults),
        (0usize..ROWS + 1, 0usize..ROWS).prop_map(|(f, t)| Cmd::Remap(f, t)),
        Just(Cmd::Snapshot),
        (0usize..4).prop_map(Cmd::Swap),
        any::<bool>().prop_map(Cmd::ForceScalar),
    ]
}

fn seeded_row(seed: u64) -> BitRow {
    BitRow::from_fn(BITS, |i| {
        let x = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (x ^ (x >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 63 == 1
    })
}

fn wordline(row: usize, bar: bool) -> Wordline {
    if bar {
        Wordline::negated(row)
    } else {
        Wordline::data(row)
    }
}

/// Deep-copy reference: every row owns its bits, every activation restores
/// every raised row in full.
#[derive(Debug, Clone)]
struct Model {
    rows: Vec<BitRow>,
    row_map: Vec<usize>,
    faults: BTreeMap<(usize, usize), bool>,
    open: Option<(BitRow, Vec<Wordline>)>,
    tie_break: TieBreak,
    force_scalar: bool,
    stats: SubarrayStats,
}

impl Model {
    fn new(tie_break: TieBreak) -> Self {
        Model {
            rows: vec![BitRow::zeros(BITS); ROWS],
            row_map: (0..ROWS).collect(),
            faults: BTreeMap::new(),
            open: None,
            tie_break,
            force_scalar: false,
            stats: SubarrayStats::default(),
        }
    }

    fn logical(&self, row: usize) -> &BitRow {
        &self.rows[self.row_map[row]]
    }

    fn store(&mut self, physical: usize, mut value: BitRow) {
        for (&(r, bit), &one) in &self.faults {
            if r == physical {
                value.set(bit, one);
            }
        }
        self.rows[physical] = value;
    }

    fn restore(&mut self, wordlines: &[Wordline], sense: &BitRow) {
        for wl in wordlines {
            let value = match wl.side {
                BitlineSide::Bitline => sense.clone(),
                BitlineSide::BitlineBar => sense.not(),
            };
            self.store(self.row_map[wl.row], value);
        }
    }

    fn charge_share(&self, wordlines: &[Wordline]) -> Result<BitRow, DramError> {
        let mut sense = BitRow::zeros(BITS);
        for bit in 0..BITS {
            let score: i32 = wordlines
                .iter()
                .map(|wl| {
                    let v = self.logical(wl.row).get(bit);
                    if v == (wl.side == BitlineSide::Bitline) {
                        1
                    } else {
                        -1
                    }
                })
                .sum();
            let value = match score.cmp(&0) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => match self.tie_break {
                    TieBreak::Zero => false,
                    TieBreak::One => true,
                    _ => {
                        return Err(DramError::AmbiguousChargeSharing {
                            bitline: bit,
                            wordlines: wordlines.to_vec(),
                        })
                    }
                },
            };
            sense.set(bit, value);
        }
        Ok(sense)
    }

    fn activate(&mut self, wordlines: &[Wordline]) -> Result<BitRow, DramError> {
        if wordlines.is_empty() {
            return Err(DramError::EmptyActivation);
        }
        let mut deduped: Vec<Wordline> = Vec::new();
        for &wl in wordlines {
            if wl.row >= ROWS {
                return Err(DramError::RowOutOfRange {
                    row: wl.row,
                    rows: ROWS,
                });
            }
            if deduped.iter().any(|d| d.row == wl.row && d.side != wl.side) {
                return Err(DramError::ConflictingWordlines { row: wl.row });
            }
            if !deduped.contains(&wl) {
                deduped.push(wl);
            }
        }
        match self.open.take() {
            None => {
                let sense = self.charge_share(&deduped)?;
                self.stats.activations += 1;
                match deduped.len() {
                    1 => {}
                    3 if !self.force_scalar => self.stats.word_parallel_charge_shares += 1,
                    _ => self.stats.scalar_charge_shares += 1,
                }
                if deduped.len() >= 2 {
                    self.stats.multi_row_activations += 1;
                }
                if deduped.len() == 3 {
                    self.stats.triple_row_activations += 1;
                }
                self.restore(&deduped, &sense);
                self.open = Some((sense.clone(), deduped));
                Ok(sense)
            }
            Some((sense, mut raised)) => {
                if let Some(wl) = deduped
                    .iter()
                    .find(|wl| raised.iter().any(|r| r.row == wl.row && r.side != wl.side))
                {
                    let row = wl.row;
                    self.open = Some((sense, raised));
                    return Err(DramError::ConflictingWordlines { row });
                }
                for &wl in &deduped {
                    if !raised.contains(&wl) {
                        raised.push(wl);
                    }
                }
                self.stats.copy_activations += 1;
                self.restore(&deduped, &sense);
                self.open = Some((sense.clone(), raised));
                Ok(sense)
            }
        }
    }

    fn precharge(&mut self) -> Result<(), DramError> {
        self.open.take().ok_or(DramError::BankNotActivated)?;
        self.stats.precharges += 1;
        Ok(())
    }

    fn read_bytes(&mut self, offset: usize, len: usize) -> Result<Vec<u8>, DramError> {
        let (sense, _) = self.open.as_ref().ok_or(DramError::BankNotActivated)?;
        if offset + len > ROW_BYTES {
            return Err(DramError::ColumnOutOfRange {
                byte_offset: offset + len,
                row_bytes: ROW_BYTES,
            });
        }
        let mut out = vec![0u8; len];
        sense.read_bytes(offset * 8, &mut out);
        self.stats.column_reads += 1;
        Ok(out)
    }

    fn write_bytes(&mut self, offset: usize, data: &[u8]) -> Result<(), DramError> {
        let (mut sense, raised) = self.open.take().ok_or(DramError::BankNotActivated)?;
        if offset + data.len() > ROW_BYTES {
            self.open = Some((sense, raised));
            return Err(DramError::ColumnOutOfRange {
                byte_offset: offset + data.len(),
                row_bytes: ROW_BYTES,
            });
        }
        sense.write_bytes(offset * 8, data);
        self.stats.column_writes += 1;
        self.restore(&raised, &sense);
        self.open = Some((sense, raised));
        Ok(())
    }

    fn inject_fault(&mut self, row: usize, bit: usize, one: bool) -> Result<(), DramError> {
        if row >= ROWS || bit >= BITS {
            return Err(DramError::CellOutOfRange {
                row,
                bit,
                rows: ROWS,
                bits: BITS,
            });
        }
        self.faults.insert((row, bit), one);
        let value = self.rows[row].clone();
        self.store(row, value);
        Ok(())
    }

    fn remap(&mut self, from: usize, to: usize) -> Result<(), DramError> {
        for row in [from, to] {
            if row >= ROWS {
                return Err(DramError::RowOutOfRange { row, rows: ROWS });
            }
        }
        self.row_map[from] = to;
        Ok(())
    }
}

/// Every logical row, the sense row and every counter but
/// `rows_materialized` (which the model does not track) must match.
fn assert_matches(sa: &Subarray, model: &Model, what: &str) -> Result<(), TestCaseError> {
    for row in 0..ROWS {
        prop_assert_eq!(
            sa.resolved_row(row),
            model.row_map[row],
            "{}: remap of row {}",
            what,
            row
        );
        prop_assert_eq!(sa.row(row), model.logical(row), "{}: row {}", what, row);
        prop_assert_eq!(
            &sa.peek_row(row),
            model.logical(row),
            "{}: peeked row {}",
            what,
            row
        );
    }
    prop_assert_eq!(
        sa.sense(),
        model.open.as_ref().map(|(s, _)| s),
        "{}: sense row",
        what
    );
    prop_assert_eq!(sa.is_activated(), model.open.is_some(), "{}: open", what);
    let stats = SubarrayStats {
        rows_materialized: 0,
        ..sa.stats()
    };
    prop_assert_eq!(stats, model.stats, "{}: stats", what);
    Ok(())
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn shared_rows_never_alias(
        cmds in proptest::collection::vec((0usize..BANKS, cmd_strategy()), 1..120),
        policy in 0u8..3,
    ) {
        let tie_break = [TieBreak::Error, TieBreak::Zero, TieBreak::One][policy as usize];
        let mut banks: Vec<Subarray> = (0..BANKS)
            .map(|_| {
                let mut sa = Subarray::new(ROWS, BITS);
                sa.set_tie_break(tie_break);
                sa
            })
            .collect();
        let mut models = vec![Model::new(tie_break); BANKS];
        let mut snapshots: Vec<(Vec<Subarray>, Vec<Model>)> = Vec::new();
        // Shared buffers still held here, with the value each was stored
        // with: stuck cells and later writes must never reach them.
        let mut held: Vec<(Arc<BitRow>, BitRow)> = Vec::new();
        for (step, (bank, cmd)) in cmds.iter().enumerate() {
            let what = format!("step {step} bank {bank} {cmd:?}");
            let (sa, model) = (&mut banks[*bank], &mut models[*bank]);
            match cmd {
                Cmd::Activate(wls) => {
                    let wls: Vec<Wordline> = wls.iter().map(|&(r, bar)| wordline(r, bar)).collect();
                    let before = sa.stats().rows_materialized;
                    // Data-side copies (and single data-side activations)
                    // onto rows without stuck-at faults.
                    let shares = (sa.is_activated() || wls.len() == 1)
                        && wls.iter().all(|wl| {
                            wl.side == BitlineSide::Bitline
                                && wl.row < ROWS
                                && !model.faults.keys().any(|&(r, _)| r == model.row_map[wl.row])
                        });
                    let got = sa.activate(&wls).cloned();
                    prop_assert_eq!(got, model.activate(&wls), "{}", what);
                    if shares {
                        prop_assert_eq!(sa.stats().rows_materialized, before, "{}: a shared row was copied", what);
                    }
                }
                Cmd::Precharge => prop_assert_eq!(sa.precharge(), model.precharge(), "{}", what),
                Cmd::Read(offset, len) => {
                    let mut out = vec![0u8; *len];
                    let got = sa.read_bytes(*offset, &mut out).map(|()| out);
                    prop_assert_eq!(got, model.read_bytes(*offset, *len), "{}", what);
                }
                Cmd::Write(offset, data) => {
                    prop_assert_eq!(sa.write_bytes(*offset, data), model.write_bytes(*offset, data), "{}", what);
                }
                Cmd::Poke(row, seed) => {
                    let data = seeded_row(*seed);
                    sa.poke_row(*row, data.clone());
                    model.store(model.row_map[*row], data);
                }
                Cmd::PokeShared(row0, row1, seed) => {
                    let data = seeded_row(*seed);
                    let buffer = Arc::new(data.clone());
                    for (k, &row) in [*row0, *row1].iter().enumerate() {
                        let (sa, model) = (&mut banks[k], &mut models[k]);
                        let before = sa.stats().rows_materialized;
                        // Only a differing stuck cell makes a row's own copy.
                        let physical = model.row_map[row];
                        let differs = model
                            .faults
                            .iter()
                            .any(|(&(r, bit), &one)| r == physical && data.get(bit) != one);
                        sa.poke_row_buffer(row, Arc::clone(&buffer));
                        model.store(physical, data.clone());
                        prop_assert_eq!(
                            sa.stats().rows_materialized - before,
                            u64::from(differs),
                            "{}: bank {} copies only at a differing stuck cell",
                            what,
                            k
                        );
                    }
                    held.push((buffer, data));
                }
                Cmd::InjectFault(row, bit, one) => {
                    let fault = if *one { CellFault::StuckAtOne } else { CellFault::StuckAtZero };
                    prop_assert_eq!(sa.inject_fault(*row, *bit, fault), model.inject_fault(*row, *bit, *one), "{}", what);
                }
                Cmd::ClearFaults => {
                    sa.clear_faults();
                    model.faults.clear();
                }
                Cmd::Remap(from, to) => {
                    prop_assert_eq!(sa.remap_row(*from, *to), model.remap(*from, *to), "{}", what);
                }
                Cmd::Snapshot => snapshots.push((banks.clone(), models.clone())),
                Cmd::Swap(i) => {
                    if let Some((snap_banks, snap_models)) = snapshots.get_mut(*i) {
                        std::mem::swap(&mut banks, snap_banks);
                        std::mem::swap(&mut models, snap_models);
                    }
                }
                Cmd::ForceScalar(force) => {
                    sa.set_scalar_reference(*force);
                    model.force_scalar = *force;
                }
            }
            for (k, (sa, model)) in banks.iter().zip(&models).enumerate() {
                assert_matches(sa, model, &format!("{what}, bank {k}"))?;
            }
            for (i, (snap_banks, snap_models)) in snapshots.iter().enumerate() {
                for (k, (sa, model)) in snap_banks.iter().zip(snap_models).enumerate() {
                    assert_matches(sa, model, &format!("{what}, snapshot {i} bank {k}"))?;
                }
            }
            for (buffer, value) in &held {
                prop_assert_eq!(&**buffer, value, "{}: a held shared buffer changed", what);
            }
        }
    }
}
