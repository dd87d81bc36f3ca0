//! Functional model of a DRAM subarray with multi-wordline activation.
//!
//! A subarray is a grid of cells: one row per wordline, one column per
//! bitline, with a single row of sense amplifiers shared by all rows
//! (paper Section 2). This module models the *analog outcome* of DRAM
//! commands at bit granularity:
//!
//! * **Single-row ACTIVATE** latches the row into the sense amplifiers and
//!   restores the cells (Figure 3).
//! * **Multi-row ACTIVATE from the precharged state** charge-shares all
//!   raised cells on each bitline; the sense amplifier resolves the sign of
//!   the deviation, which for three rows is the bitwise majority function —
//!   triple-row activation, the first Ambit mechanism (Figure 4).
//! * **ACTIVATE while the subarray is already activated** (back-to-back
//!   ACTIVATE) overwrites the newly raised rows with the value the sense
//!   amplifiers currently drive — the copy mechanism behind RowClone-FPM and
//!   the second ACTIVATE of Ambit's AAP primitive (Section 5.2).
//! * **n-wordlines** connect a dual-contact cell's capacitor to the *negated*
//!   side of the sense amplifier (bitline-bar), implementing Ambit-NOT
//!   (Section 4, Figures 5 and 6).
//!
//! Charge retention is modelled optionally: rows stale beyond a configurable
//! retention window make charge-sharing activations fail in strict mode
//! (paper Section 3.2, issue 4 — Ambit avoids this by copying, and thereby
//! refreshing, operands immediately before each TRA).

use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::sync::Arc;

use ambit_telemetry::Counter;

use crate::bitrow::BitRow;
use crate::error::{DramError, Result};
use crate::fault_rng::{self, FaultGaps};

/// Which side of the sense amplifier a wordline connects its cells to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitlineSide {
    /// The data side: the sensed value equals the cell value.
    Bitline,
    /// The negated side (bitline-bar): a dual-contact cell's n-wordline.
    /// Sensing through this side yields the complement of the cell, and
    /// copying through it stores the complement of the sensed value.
    BitlineBar,
}

/// One wordline of a subarray: a row index plus the sense-amplifier side it
/// connects to. Regular rows only have a [`BitlineSide::Bitline`] wordline;
/// dual-contact rows have both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wordline {
    /// Row index within the subarray.
    pub row: usize,
    /// Side of the sense amplifier the cells connect to.
    pub side: BitlineSide,
}

impl Wordline {
    /// A regular (data-side) wordline for `row`.
    pub fn data(row: usize) -> Self {
        Wordline {
            row,
            side: BitlineSide::Bitline,
        }
    }

    /// The negation-side wordline of dual-contact row `row`.
    pub fn negated(row: usize) -> Self {
        Wordline {
            row,
            side: BitlineSide::BitlineBar,
        }
    }
}

/// Policy for resolving a bitline whose charge-sharing deviation is exactly
/// zero (equal pull toward 0 and 1).
///
/// The Ambit protocol never issues such an activation; the default policy
/// treats it as an error so that protocol bugs surface in tests. `Random`
/// models the physical nondeterminism of a metastable sense amplifier and is
/// useful for failure-injection testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// Return [`DramError::AmbiguousChargeSharing`].
    #[default]
    Error,
    /// Resolve every tied bitline to 0.
    Zero,
    /// Resolve every tied bitline to 1.
    One,
    /// Resolve each tied bitline pseudo-randomly (deterministic per seed).
    Random,
}

/// A manufacturing fault pinning one cell to a fixed value
/// (paper Section 5.5.3: faulty rows are found during testing and mapped
/// to spare rows within the same subarray).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellFault {
    /// The cell always reads 0 regardless of what was written.
    StuckAtZero,
    /// The cell always reads 1.
    StuckAtOne,
}

/// Counters describing the commands a subarray has served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubarrayStats {
    /// ACTIVATEs issued from the precharged state.
    pub activations: u64,
    /// Of those, activations that raised ≥ 2 wordlines (charge sharing
    /// between multiple cells; includes TRAs).
    pub multi_row_activations: u64,
    /// Of those, exactly-three-wordline activations (TRAs).
    pub triple_row_activations: u64,
    /// Back-to-back ACTIVATEs onto an already-activated subarray (copies).
    pub copy_activations: u64,
    /// PRECHARGE commands.
    pub precharges: u64,
    /// Column reads served from the row buffer.
    pub column_reads: u64,
    /// Column writes into the row buffer.
    pub column_writes: u64,
    /// Fault-free multi-row charge shares resolved on the word-parallel
    /// fast path (64 bitlines per u64 operation).
    pub word_parallel_charge_shares: u64,
    /// Multi-row charge shares on the path that consumes the fault RNG:
    /// every fault-armed TRA (resolved by the word kernel plus the fault
    /// gap draws), and every charge share the bit-serial scalar reference
    /// resolves (non-TRA arities, forced-scalar mode).
    pub scalar_charge_shares: u64,
    /// Row buffers the command path filled with a new value: charge-share
    /// results, bitline-bar complements, copy-on-write splits for column
    /// writes, and stuck-at fault fixes. Data-side copies and restores
    /// share the sense row instead and are not counted; each count is one
    /// full row written by the host.
    pub rows_materialized: u64,
}

impl AddAssign for SubarrayStats {
    fn add_assign(&mut self, s: SubarrayStats) {
        self.activations += s.activations;
        self.multi_row_activations += s.multi_row_activations;
        self.triple_row_activations += s.triple_row_activations;
        self.copy_activations += s.copy_activations;
        self.precharges += s.precharges;
        self.column_reads += s.column_reads;
        self.column_writes += s.column_writes;
        self.word_parallel_charge_shares += s.word_parallel_charge_shares;
        self.scalar_charge_shares += s.scalar_charge_shares;
        self.rows_materialized += s.rows_materialized;
    }
}

/// Upper bound on simultaneously raised wordlines before the dedup list
/// spills to the heap. Ambit never raises more than three (a TRA), so the
/// inline capacity covers every protocol-issued activation without
/// allocating.
const INLINE_WORDLINES: usize = 4;

/// Dead row buffers a subarray keeps for reuse. A bank-parallel batch can
/// leave several results per subarray dead before the next charge share
/// needs a buffer; 8 covers the bitmap workloads with no steady-state
/// allocation. That matters on the threaded fan-out, whose short-lived
/// worker threads would otherwise allocate rows from per-thread malloc
/// arenas and grow the heap batch after batch.
const SPARE_ROWS: usize = 8;

/// A small list of wordlines that stays inline (no heap allocation) for all
/// activations the Ambit command set can issue, spilling to a `Vec` only for
/// hypothetical wider activations driven directly through the model API.
#[derive(Debug, Clone)]
enum WordlineList {
    Inline {
        buf: [Wordline; INLINE_WORDLINES],
        len: usize,
    },
    Heap(Vec<Wordline>),
}

impl WordlineList {
    fn new() -> Self {
        WordlineList::Inline {
            buf: [Wordline {
                row: 0,
                side: BitlineSide::Bitline,
            }; INLINE_WORDLINES],
            len: 0,
        }
    }

    fn push(&mut self, wl: Wordline) {
        match self {
            WordlineList::Inline { buf, len } => {
                if *len < INLINE_WORDLINES {
                    buf[*len] = wl;
                    *len += 1;
                } else {
                    let mut spilled = buf[..*len].to_vec();
                    spilled.push(wl);
                    *self = WordlineList::Heap(spilled);
                }
            }
            WordlineList::Heap(v) => v.push(wl),
        }
    }

    fn as_slice(&self) -> &[Wordline] {
        match self {
            WordlineList::Inline { buf, len } => &buf[..*len],
            WordlineList::Heap(v) => v,
        }
    }
}

#[derive(Debug, Clone)]
enum State {
    Precharged,
    Activated {
        sense: Arc<BitRow>,
        raised: WordlineList,
    },
}

/// Functional model of one DRAM subarray.
///
/// Row storage is sparse: rows never written hold all-zero cells. The model
/// is purely functional (no timing); timing and energy are accounted by
/// [`CommandTimer`](crate::controller::CommandTimer) and
/// [`EnergyModel`](crate::energy::EnergyModel) at the controller level.
///
/// Rows are shared, copy-on-write buffers: a data-side copy or restore
/// (RowClone-FPM, the AAP copy, the restore of a TRA) makes the written rows
/// share the sense amplifiers' row instead of copying its bits, and a new
/// buffer is written only where a new value arises (see
/// [`SubarrayStats::rows_materialized`]). Cloning a `Subarray` is therefore
/// cheap, and later writes to either copy never show up in the other.
///
/// # Examples
///
/// Triple-row activation computes a majority and overwrites all three rows
/// (paper Figure 4):
///
/// ```
/// use ambit_dram::{BitRow, Subarray, Wordline};
///
/// let mut sa = Subarray::new(16, 8);
/// sa.poke_row(0, BitRow::from_fn(8, |i| i < 4)); // A = 11110000
/// sa.poke_row(1, BitRow::from_fn(8, |i| i % 2 == 0)); // B = 10101010
/// sa.poke_row(2, BitRow::zeros(8)); // C = 0  =>  majority = A AND B
/// let sensed = sa
///     .activate(&[Wordline::data(0), Wordline::data(1), Wordline::data(2)])?
///     .clone();
/// assert_eq!(sensed, BitRow::from_fn(8, |i| i < 4 && i % 2 == 0));
/// assert_eq!(sa.peek_row(0), sensed); // sources are overwritten
/// assert_eq!(sa.peek_row(2), sensed);
/// # sa.precharge()?;
/// # Ok::<(), ambit_dram::DramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Subarray {
    rows: usize,
    bits: usize,
    /// Dense physical-row-indexed storage; `None` means the row was never
    /// written and holds all-zero cells. Row payloads are allocated lazily,
    /// so huge geometries stay cheap to instantiate, and shared between
    /// every row (and the sense amplifiers) holding the same value.
    storage: Vec<Option<Arc<BitRow>>>,
    state: State,
    tie_break: TieBreak,
    tie_rng: u64,
    retention_ns: Option<u64>,
    /// Last refresh timestamp per physical row. Only maintained while a
    /// retention window is armed; arming stamps every row (see
    /// [`set_retention_window`](Subarray::set_retention_window)).
    last_refresh_ns: Vec<u64>,
    now_ns: u64,
    stats: SubarrayStats,
    /// Stuck-at cell faults, keyed by (physical row, bit); ordered so one
    /// row's faults are a contiguous range.
    faults: BTreeMap<(usize, usize), CellFault>,
    /// Row remapping (logical → physical) installed by post-test repair;
    /// identity unless a spare-row remap was installed.
    row_map: Vec<usize>,
    /// Transient TRA faults: the per-bitline failure probability (from the
    /// circuit model's Monte Carlo) and the pending gap to the next flip
    /// (see `fault_rng`).
    tra_faults: FaultGaps,
    /// When set, every multi-row charge share takes the bit-serial scalar
    /// reference path even if the word-parallel fast path would apply.
    force_scalar: bool,
    /// Shared all-zero row standing in for never-written storage slots.
    zeros: Arc<BitRow>,
    /// Shared all-one row, allocated by the first
    /// [`poke_constant`](Subarray::poke_constant) of ones. The subarray
    /// keeps a reference to both constant buffers, so neither is ever
    /// parked or written in place, and a TRA that raises one of them
    /// resolves as an AND or OR of the other two rows.
    ones: Option<Arc<BitRow>>,
    /// Row buffers whose values are dead, owned by nothing else (until the
    /// subarray is cloned): parked by [`precharge`](Subarray::precharge)
    /// or released when their last row was overwritten, and reused by the
    /// next new row values instead of allocating. At most [`SPARE_ROWS`].
    /// Their contents are stale and always fully overwritten.
    spares: Vec<Arc<BitRow>>,
    /// Optional telemetry counters for the fast/slow charge-share split.
    word_parallel_counter: Option<Counter>,
    scalar_counter: Option<Counter>,
}

/// Whether raising `wl` conflicts with `raised`: both wordlines of one row
/// (its data side and its bitline-bar side) at once.
fn conflicts(raised: &[Wordline], wl: &Wordline) -> bool {
    raised.iter().any(|r| r.row == wl.row && r.side != wl.side)
}

impl Subarray {
    /// Creates a subarray of `rows` rows, each `bits` bits wide, with all
    /// cells initially empty (zero).
    pub fn new(rows: usize, bits: usize) -> Self {
        Subarray {
            rows,
            bits,
            storage: vec![None; rows],
            state: State::Precharged,
            tie_break: TieBreak::default(),
            tie_rng: 0x9e37_79b9_7f4a_7c15,
            retention_ns: None,
            last_refresh_ns: vec![0; rows],
            now_ns: 0,
            stats: SubarrayStats::default(),
            faults: BTreeMap::new(),
            row_map: (0..rows).collect(),
            tra_faults: FaultGaps::default(),
            force_scalar: false,
            zeros: Arc::new(BitRow::zeros(bits)),
            ones: None,
            spares: Vec::new(),
            word_parallel_counter: None,
            scalar_counter: None,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Returns `true` if the subarray is activated (has an open row buffer).
    pub fn is_activated(&self) -> bool {
        matches!(self.state, State::Activated { .. })
    }

    /// Command counters.
    pub fn stats(&self) -> SubarrayStats {
        self.stats
    }

    /// Sets the tie-break policy for zero-deviation charge sharing.
    pub fn set_tie_break(&mut self, policy: TieBreak) {
        self.tie_break = policy;
    }

    /// Enables strict retention checking: charge-sharing activations on rows
    /// older than `window_ns` fail with [`DramError::RetentionViolation`].
    ///
    /// Refresh timestamps are only maintained while a window is armed (the
    /// disarmed hot path skips the bookkeeping entirely), so arming acts as
    /// a refresh boundary: every row is stamped as freshly refreshed at the
    /// moment the window is installed.
    pub fn set_retention_window(&mut self, window_ns: Option<u64>) {
        let arming = window_ns.is_some() && self.retention_ns.is_none();
        self.retention_ns = window_ns;
        if arming {
            self.last_refresh_ns.fill(self.now_ns);
        }
    }

    /// Forces every multi-row charge share through the bit-serial scalar
    /// reference path, even where the word-parallel fast path applies.
    ///
    /// The two paths are byte-identical, fault-armed or not: an armed TRA
    /// takes the same fault gaps on both (pinned by the equivalence
    /// proptests). This switch exists so benchmarks and tests can measure
    /// and compare the retained reference implementation.
    pub fn set_scalar_reference(&mut self, force: bool) {
        self.force_scalar = force;
    }

    /// Whether multi-row charge shares are forced through the scalar
    /// reference path.
    pub fn scalar_reference(&self) -> bool {
        self.force_scalar
    }

    /// Installs telemetry counters incremented on each multi-row charge
    /// share, split by resolution path: the fault-free word-parallel fast
    /// path, or the path that consumes the fault RNG (see
    /// [`SubarrayStats::scalar_charge_shares`]).
    pub fn set_charge_share_counters(&mut self, word_parallel: Counter, scalar: Counter) {
        self.word_parallel_counter = Some(word_parallel);
        self.scalar_counter = Some(scalar);
    }

    /// Injects a stuck-at fault at `(row, bit)` (physical coordinates).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::CellOutOfRange`] if the coordinates are out of
    /// range.
    pub fn inject_fault(&mut self, row: usize, bit: usize, fault: CellFault) -> Result<()> {
        if row >= self.rows || bit >= self.bits {
            return Err(DramError::CellOutOfRange {
                row,
                bit,
                rows: self.rows,
                bits: self.bits,
            });
        }
        self.faults.insert((row, bit), fault);
        // The fault takes effect immediately on the stored value, so every
        // stored row always carries every fault installed on it.
        let mut value = self.storage[row]
            .take()
            .unwrap_or_else(|| Arc::clone(&self.zeros));
        self.apply_faults(row, &mut value);
        self.storage[row] = Some(value);
        Ok(())
    }

    /// Removes all injected faults.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Remaps logical row `from` onto physical row `to` — the spare-row
    /// repair of paper Section 5.5.3. All subsequent accesses to `from`
    /// reach `to` instead.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] if either row is out of range.
    pub fn remap_row(&mut self, from: usize, to: usize) -> Result<()> {
        for row in [from, to] {
            if row >= self.rows {
                return Err(DramError::RowOutOfRange {
                    row,
                    rows: self.rows,
                });
            }
        }
        self.row_map[from] = to;
        Ok(())
    }

    /// The physical row that logical row `row` currently resolves to
    /// (identity unless a spare-row remap was installed).
    pub fn resolved_row(&self, row: usize) -> usize {
        self.resolve(row)
    }

    /// Sets the per-bitline probability that a multi-row activation senses
    /// the wrong value (transient TRA faults; feed this from
    /// `ambit_circuit`'s Monte Carlo failure rate). 0.0 disables. A new
    /// rate drops the pending fault gap; the same rate again keeps it.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidFaultRate`] unless `0.0 <= rate <= 1.0`
    /// (NaN is rejected).
    pub fn set_tra_fault_rate(&mut self, rate: f64) -> Result<()> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(DramError::invalid_fault_rate(rate));
        }
        self.tra_faults.set_threshold((rate * u64::MAX as f64) as u64);
        Ok(())
    }

    /// The configured transient TRA fault probability.
    pub fn tra_fault_rate(&self) -> f64 {
        self.tra_faults.threshold() as f64 / u64::MAX as f64
    }

    /// Mixes `salt` into the tie/fault RNG seed, decorrelating this
    /// subarray's draw stream from its siblings'. Physically independent
    /// subarrays must not share a fault stream: with identical streams, a
    /// transient TRA fault hits every TMR replica at the same bit in the
    /// same cycle, so majority voting silently agrees on the corrupted
    /// value. A reseed also drops the pending fault gap (exact: gaps are
    /// memoryless). Salt 0 changes nothing: it keeps the documented default
    /// stream (the one the reference-RNG equivalence tests replay).
    pub fn reseed_rng(&mut self, salt: u64) {
        if salt == 0 {
            return;
        }
        self.tra_faults.drop_pending();
        // splitmix64 finalizer: full-avalanche mixing so consecutive salts
        // yield unrelated xorshift64* start states.
        let mut z = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // Never land on xorshift's absorbing zero state.
        self.tie_rng = if z == 0 { 0x9e37_79b9_7f4a_7c15 } else { z };
    }

    fn resolve(&self, row: usize) -> usize {
        self.row_map[row]
    }

    /// Pins the stuck-at cells of `physical_row` in `value`, copying a
    /// shared value into a buffer of its own only if a stuck cell actually
    /// differs (rows without faults, and rows already carrying theirs, are
    /// left untouched).
    fn apply_faults(&mut self, physical_row: usize, value: &mut Arc<BitRow>) {
        let mut copied = false;
        for (&(_, bit), &fault) in self.faults.range((physical_row, 0)..(physical_row + 1, 0)) {
            let stuck = fault == CellFault::StuckAtOne;
            if value.get(bit) != stuck {
                copied |= Arc::get_mut(value).is_none();
                Arc::make_mut(value).set(bit, stuck);
            }
        }
        if copied {
            self.stats.rows_materialized += 1;
        }
    }

    /// The shared value of a physical row, with never-written rows
    /// resolving to the shared all-zero row.
    fn row_arc(&self, physical_row: usize) -> &Arc<BitRow> {
        self.storage[physical_row].as_ref().unwrap_or(&self.zeros)
    }

    /// A row buffer to fill with a new value: a parked spare if there is
    /// one, else a fresh allocation. Counted in
    /// [`SubarrayStats::rows_materialized`]; the caller overwrites every
    /// bit.
    fn fresh_row(&mut self) -> Arc<BitRow> {
        self.stats.rows_materialized += 1;
        self.spares
            .pop()
            .unwrap_or_else(|| Arc::new(BitRow::zeros(self.bits)))
    }

    /// Keeps `row` as a spare buffer if nothing else holds it and fewer
    /// than [`SPARE_ROWS`] are parked; otherwise just drops this reference.
    /// The plain strong-count load screens out rows still shared with
    /// storage before `Arc::get_mut` pays for its compare-exchange.
    fn park(&mut self, mut row: Arc<BitRow>) {
        if self.spares.len() < SPARE_ROWS
            && Arc::strong_count(&row) == 1
            && Arc::get_mut(&mut row).is_some()
        {
            self.spares.push(row);
        }
    }

    /// Writes `value` into a physical row, pinning its stuck-at cells, and
    /// recycles the overwritten buffer when it was the last holder.
    fn store(&mut self, physical_row: usize, mut value: Arc<BitRow>) {
        self.apply_faults(physical_row, &mut value);
        if let Some(old) = self.storage[physical_row].replace(value) {
            self.park(old);
        }
    }

    /// Advances the subarray's notion of time (used for retention checks).
    pub fn advance_time_ns(&mut self, delta_ns: u64) {
        self.now_ns += delta_ns;
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Refreshes every row (marks all cells fully charged/empty as stored).
    pub fn refresh_all(&mut self) {
        self.last_refresh_ns.fill(self.now_ns);
    }

    /// Borrows a row's cell contents, bypassing the command protocol: the
    /// allocation-free form of [`peek_row`](Subarray::peek_row).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &BitRow {
        self.row_buffer(row)
    }

    /// Borrows the shared buffer holding a row's cell contents, bypassing
    /// the command protocol. Cloning it takes a reference, not a copy;
    /// [`poke_row_buffer`](Subarray::poke_row_buffer) stores such a
    /// reference back, into this or any other row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_buffer(&self, row: usize) -> &Arc<BitRow> {
        assert!(row < self.rows, "row {} out of range {}", row, self.rows);
        self.row_arc(self.resolve(row))
    }

    /// Directly reads a row's cell contents, bypassing the command protocol.
    ///
    /// Intended for test setup and for the driver's bulk initialization
    /// path; regular accesses should go through activate/read/precharge.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn peek_row(&self, row: usize) -> BitRow {
        self.row(row).clone()
    }

    /// Directly overwrites a row's cell contents, bypassing the protocol.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `data` has the wrong width.
    pub fn poke_row(&mut self, row: usize, data: BitRow) {
        self.poke_row_buffer(row, Arc::new(data));
    }

    /// Directly overwrites a row's cell contents with a shared buffer,
    /// bypassing the protocol: the row takes a reference to `data`, not a
    /// copy, so one buffer can back rows in any number of subarrays. A
    /// stuck-at cell of the row that differs from `data` is pinned in a
    /// copy made for this row alone; the buffer itself never changes while
    /// anything else holds it.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `data` has the wrong width.
    pub fn poke_row_buffer(&mut self, row: usize, data: Arc<BitRow>) {
        assert!(row < self.rows, "row {} out of range {}", row, self.rows);
        assert_eq!(data.len(), self.bits, "row width mismatch");
        self.stamp_refresh(row);
        self.store(self.resolve(row), data);
    }

    /// Directly fills a row with all-zero (`one == false`) or all-one
    /// cells, bypassing the protocol: the row shares the subarray's
    /// constant buffer for that value instead of a buffer of its own. A
    /// triple-row activation that raises a row holding a constant buffer
    /// computes the AND or OR of the other two rows (MAJ(a, b, 0) = a ∧ b,
    /// MAJ(a, b, 1) = a ∨ b) and reads two rows instead of three; the
    /// sensed row is the same. A stuck-at cell of the row that differs is
    /// pinned in a copy, which is then an ordinary row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn poke_constant(&mut self, row: usize, one: bool) {
        let value = if one {
            let bits = self.bits;
            Arc::clone(self.ones.get_or_insert_with(|| Arc::new(BitRow::ones(bits))))
        } else {
            Arc::clone(&self.zeros)
        };
        self.poke_row_buffer(row, value);
    }

    /// Refreshes one row without writing it: the retention stamp a
    /// [`poke_row`](Subarray::poke_row) of the row's own value would leave,
    /// and nothing else. A no-op unless a retention window is armed.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn refresh_row(&mut self, row: usize) {
        assert!(row < self.rows, "row {} out of range {}", row, self.rows);
        self.stamp_refresh(row);
    }

    /// When logical row `row` was last refreshed, in the subarray's
    /// nanoseconds, or `None` while no retention window is armed (stamps
    /// are only kept while one is).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn refreshed_at_ns(&self, row: usize) -> Option<u64> {
        assert!(row < self.rows, "row {} out of range {}", row, self.rows);
        self.retention_ns
            .map(|_| self.last_refresh_ns[self.resolve(row)])
    }

    /// Issues an ACTIVATE raising the given wordlines simultaneously.
    ///
    /// From the precharged state this performs charge sharing and sense
    /// amplification, returning the sensed row-buffer value; all raised
    /// cells are overwritten with the amplified result (restored). On an
    /// already-activated subarray this is a back-to-back ACTIVATE: the new
    /// rows are overwritten from the current sense amplifiers (the RowClone /
    /// AAP copy mechanism) and the sensed value is unchanged.
    ///
    /// No row is copied on this path. A single data-side wordline senses
    /// by sharing the stored row, and a data-side restore (every row raised
    /// by a multi-row or back-to-back ACTIVATE) stores a reference to the
    /// sensed row. A new row value is written only for a multi-row charge
    /// share, for a complement through bitline-bar, and for a stuck-at
    /// fault that differs from the value written; its buffer is a dead row
    /// that a [`precharge`](Subarray::precharge) or an overwrite released,
    /// when there is one. A single-wordline activation from the precharged
    /// state restores exactly the stored value (the row is sensed
    /// unchanged, or complemented through bitline-bar and complemented back
    /// on restore, and the stored value already carries every installed
    /// fault), so only the retention stamp of its restore remains.
    ///
    /// # Errors
    ///
    /// * [`DramError::EmptyActivation`] if `wordlines` is empty.
    /// * [`DramError::RowOutOfRange`] for a bad row index.
    /// * [`DramError::ConflictingWordlines`] if both wordlines of the same
    ///   row are raised at once.
    /// * [`DramError::AmbiguousChargeSharing`] under the default tie-break
    ///   policy when a bitline's deviation is exactly zero.
    /// * [`DramError::RetentionViolation`] in strict retention mode when a
    ///   raised row is stale.
    pub fn activate(&mut self, wordlines: &[Wordline]) -> Result<&BitRow> {
        if wordlines.is_empty() {
            return Err(DramError::EmptyActivation);
        }
        let deduped = self.raise_list(wordlines)?;

        match &self.state {
            State::Precharged => {
                let sense = self.open(deduped.as_slice())?;
                self.state = State::Activated {
                    sense,
                    raised: deduped,
                };
            }
            State::Activated { .. } => {
                // Take the state apart so restore can borrow the sense row
                // while it mutates storage.
                let State::Activated { sense, mut raised } =
                    std::mem::replace(&mut self.state, State::Precharged)
                else {
                    unreachable!("matched Activated above");
                };
                // Check every new wordline before raising any, so a
                // rejected ACTIVATE leaves the open wordlines as they were.
                if let Some(wl) = deduped
                    .as_slice()
                    .iter()
                    .find(|wl| conflicts(raised.as_slice(), wl))
                {
                    let row = wl.row;
                    self.state = State::Activated { sense, raised };
                    return Err(DramError::ConflictingWordlines { row });
                }
                for &wl in deduped.as_slice() {
                    if !raised.as_slice().contains(&wl) {
                        raised.push(wl);
                    }
                }
                self.stats.copy_activations += 1;
                self.restore(deduped.as_slice(), &sense);
                self.state = State::Activated { sense, raised };
            }
        }

        match &self.state {
            State::Activated { sense, .. } => Ok(sense),
            State::Precharged => unreachable!("state set above"),
        }
    }

    /// Issues a PRECHARGE, closing the row buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankNotActivated`] if the subarray is already
    /// precharged.
    pub fn precharge(&mut self) -> Result<()> {
        match std::mem::replace(&mut self.state, State::Precharged) {
            State::Precharged => Err(DramError::BankNotActivated),
            State::Activated { sense, .. } => {
                self.close(sense);
                Ok(())
            }
        }
    }

    /// Runs one AAP — ACTIVATE `src`, ACTIVATE `dst`, PRECHARGE (paper
    /// Section 5.2) — as one call. It is built from the helpers the three
    /// protocol calls use, so rows, stats, retention stamps, fault draws
    /// and errors are theirs; only the open state never leaves the call.
    ///
    /// An input the protocol rejects before sensing (an empty,
    /// out-of-range or conflicting wordline set) and an already-activated
    /// subarray take the three calls themselves, so the error and the
    /// state it leaves (the subarray still open after a rejected second
    /// ACTIVATE) are the protocol's own.
    ///
    /// # Errors
    ///
    /// Any error of [`activate`](Subarray::activate) or
    /// [`precharge`](Subarray::precharge).
    pub fn aap(&mut self, src: &[Wordline], dst: &[Wordline]) -> Result<()> {
        let lists = match (self.raise_list(src), self.raise_list(dst)) {
            (Ok(s), Ok(d))
                if !self.is_activated()
                    && !src.is_empty()
                    && !dst.is_empty()
                    && !d.as_slice().iter().any(|wl| conflicts(s.as_slice(), wl)) =>
            {
                Some((s, d))
            }
            _ => None,
        };
        let Some((src, dst)) = lists else {
            self.activate(src)?;
            self.activate(dst)?;
            return self.precharge();
        };
        let sense = self.open(src.as_slice())?;
        self.stats.copy_activations += 1;
        self.restore(dst.as_slice(), &sense);
        self.close(sense);
        Ok(())
    }

    /// Runs one AP — ACTIVATE `wordlines`, PRECHARGE — as one call, with
    /// the rows, stats, retention stamps, fault draws and errors of the
    /// two protocol calls (see [`aap`](Subarray::aap)).
    ///
    /// # Errors
    ///
    /// Any error of [`activate`](Subarray::activate) or
    /// [`precharge`](Subarray::precharge).
    pub fn ap(&mut self, wordlines: &[Wordline]) -> Result<()> {
        match self.raise_list(wordlines) {
            Ok(list) if !self.is_activated() && !wordlines.is_empty() => {
                let sense = self.open(list.as_slice())?;
                self.close(sense);
                Ok(())
            }
            _ => {
                self.activate(wordlines)?;
                self.precharge()
            }
        }
    }

    /// Dedups `wordlines` into a fixed-capacity inline list (Ambit raises
    /// at most three, so this never allocates on the command path).
    ///
    /// # Errors
    ///
    /// [`DramError::RowOutOfRange`] or [`DramError::ConflictingWordlines`]
    /// for the first wordline, in order, that is out of range or raises
    /// the other side of a row already in the list.
    fn raise_list(&self, wordlines: &[Wordline]) -> Result<WordlineList> {
        let mut deduped = WordlineList::new();
        for &wl in wordlines {
            if wl.row >= self.rows {
                return Err(DramError::RowOutOfRange {
                    row: wl.row,
                    rows: self.rows,
                });
            }
            if conflicts(deduped.as_slice(), &wl) {
                return Err(DramError::ConflictingWordlines { row: wl.row });
            }
            if !deduped.as_slice().contains(&wl) {
                deduped.push(wl);
            }
        }
        Ok(deduped)
    }

    /// The ACTIVATE of deduped `wordlines` from the precharged state:
    /// retention check, charge share, counters and restore (a single
    /// wordline only renews its retention stamp). Returns the sensed row;
    /// the caller keeps the open state.
    fn open(&mut self, wordlines: &[Wordline]) -> Result<Arc<BitRow>> {
        self.check_retention(wordlines)?;
        let sense = self.charge_share(wordlines)?;
        self.stats.activations += 1;
        if wordlines.len() >= 2 {
            self.stats.multi_row_activations += 1;
        }
        if wordlines.len() == 3 {
            self.stats.triple_row_activations += 1;
        }
        match wordlines {
            [wl] => self.stamp_refresh(wl.row),
            raised => self.restore(raised, &sense),
        }
        Ok(sense)
    }

    /// The PRECHARGE of an open row buffer: parks its sense row.
    fn close(&mut self, sense: Arc<BitRow>) {
        self.park(sense);
        self.stats.precharges += 1;
    }

    /// The current sense-amplifier (row buffer) contents, if activated.
    pub fn sense(&self) -> Option<&BitRow> {
        match &self.state {
            State::Activated { sense, .. } => Some(sense),
            State::Precharged => None,
        }
    }

    /// Reads bytes from the open row buffer (a column READ).
    ///
    /// # Errors
    ///
    /// * [`DramError::BankNotActivated`] if precharged.
    /// * [`DramError::ColumnOutOfRange`] if the range exceeds the row.
    pub fn read_bytes(&mut self, byte_offset: usize, out: &mut [u8]) -> Result<()> {
        let row_bytes = self.bits / 8;
        match &self.state {
            State::Precharged => Err(DramError::BankNotActivated),
            State::Activated { sense, .. } => {
                if byte_offset + out.len() > row_bytes {
                    return Err(DramError::ColumnOutOfRange {
                        byte_offset: byte_offset + out.len(),
                        row_bytes,
                    });
                }
                sense.read_bytes(byte_offset * 8, out);
                self.stats.column_reads += 1;
                Ok(())
            }
        }
    }

    /// Writes bytes into the open row buffer (a column WRITE). The sense
    /// amplifiers drive all raised cells, so the write propagates to every
    /// open row immediately (negated through n-wordlines). A sense row
    /// still shared with stored rows is copied into a buffer of its own
    /// first, so the write never reaches a row that is not raised.
    ///
    /// # Errors
    ///
    /// * [`DramError::BankNotActivated`] if precharged.
    /// * [`DramError::ColumnOutOfRange`] if the range exceeds the row.
    pub fn write_bytes(&mut self, byte_offset: usize, data: &[u8]) -> Result<()> {
        let row_bytes = self.bits / 8;
        if !matches!(self.state, State::Activated { .. }) {
            return Err(DramError::BankNotActivated);
        }
        if byte_offset + data.len() > row_bytes {
            return Err(DramError::ColumnOutOfRange {
                byte_offset: byte_offset + data.len(),
                row_bytes,
            });
        }
        // Take the state apart so restore can borrow sense and raised while
        // it mutates storage.
        let State::Activated { mut sense, raised } =
            std::mem::replace(&mut self.state, State::Precharged)
        else {
            unreachable!("checked Activated above");
        };
        if Arc::get_mut(&mut sense).is_none() {
            self.stats.rows_materialized += 1;
        }
        Arc::make_mut(&mut sense).write_bytes(byte_offset * 8, data);
        self.stats.column_writes += 1;
        self.restore(raised.as_slice(), &sense);
        self.state = State::Activated { sense, raised };
        Ok(())
    }

    /// Computes the per-bitline charge-sharing outcome for an activation
    /// from the precharged state.
    ///
    /// A single data-side wordline senses the stored row itself (shared,
    /// not copied); through bitline-bar it senses a new complemented row.
    /// The 3-row case — the only multi-row shape the Ambit protocol issues —
    /// takes the word-parallel kernel (64 bitlines per u64 operation) unless
    /// the scalar reference is forced. A tie is impossible at arity 3, so
    /// the majority itself draws nothing from the RNG. When transient fault
    /// injection is armed, the kernel's result then flips the bitlines the
    /// subarray's fault gaps land on (see `inject_tra_faults`): the
    /// bitlines, the draws and the pending gap the bit-serial loop's
    /// per-bitline fault check gives, so both paths sense the same row and
    /// leave the same RNG state. The bit-serial loop stays as the reference
    /// for forced-scalar mode, every other arity, and ties.
    ///
    /// Armed TRAs count under [`SubarrayStats::scalar_charge_shares`]
    /// (telemetry `path="scalar"`), the path that consumes the fault RNG,
    /// so the counters read the same whichever kernel resolved them.
    fn charge_share(&mut self, wordlines: &[Wordline]) -> Result<Arc<BitRow>> {
        if let [wl] = wordlines {
            let stored = Arc::clone(self.row_arc(self.resolve(wl.row)));
            if wl.side == BitlineSide::Bitline {
                return Ok(stored);
            }
            let mut sense = self.fresh_row();
            Arc::make_mut(&mut sense).zip_with_into(&stored, |_, w| !w);
            return Ok(sense);
        }
        if wordlines.len() == 3 && !self.force_scalar {
            let mut sense = self.fresh_row();
            self.charge_share_tra_word_parallel(wordlines, Arc::make_mut(&mut sense));
            if self.tra_faults.threshold() == 0 {
                self.stats.word_parallel_charge_shares += 1;
                if let Some(c) = &self.word_parallel_counter {
                    c.inc();
                }
                return Ok(sense);
            }
            self.inject_tra_faults(Arc::make_mut(&mut sense));
            self.count_scalar_charge_share();
            return Ok(sense);
        }
        let sense = self.charge_share_scalar(wordlines)?;
        self.stats.rows_materialized += 1;
        self.count_scalar_charge_share();
        Ok(Arc::new(sense))
    }

    fn count_scalar_charge_share(&mut self) {
        self.stats.scalar_charge_shares += 1;
        if let Some(c) = &self.scalar_counter {
            c.inc();
        }
    }

    /// Transient TRA fault injection on a word-parallel sense row: skips
    /// the pending gap, flips the bitline it lands on, draws the next gap,
    /// and so on; the rest of the last gap carries over to the next armed
    /// TRA (see `fault_rng`). At 0.01 % that is about 20 draws per 8,192
    /// bitlines. Kept out of line so the fault-free path compiles without it.
    #[inline(never)]
    fn inject_tra_faults(&mut self, sense: &mut BitRow) {
        self.tra_faults.inject(&mut self.tie_rng, sense);
    }

    /// Word-parallel TRA charge share: the sensed row is the majority of
    /// the three raised rows, with bar-side inputs complemented word-wise.
    ///
    /// Three wordlines contribute an odd signed score per bitline (±1 each,
    /// so the total is ±1 or ±3) — a tie is arithmetically impossible, which
    /// is why this path needs no tie-break policy and draws nothing from the
    /// RNG: it is bit-exact with the scalar reference by construction.
    ///
    /// A raised row that holds one of the subarray's constant buffers (see
    /// [`poke_constant`](Subarray::poke_constant); never-written rows hold
    /// the zero buffer too) pulls every bitline the same way, so the
    /// majority is the AND (constant 0) or OR (constant 1) of the other
    /// two rows, with the constant's own side deciding which. That reads
    /// two rows instead of three and senses the same row.
    fn charge_share_tra_word_parallel(&self, wordlines: &[Wordline], sense: &mut BitRow) {
        let bar = |wl: &Wordline| wl.side == BitlineSide::BitlineBar;
        let row = |wl: &Wordline| &**self.row_arc(self.resolve(wl.row));
        let constant = |wl: &Wordline| {
            let stored = self.row_arc(self.resolve(wl.row));
            let one = if Arc::ptr_eq(stored, &self.zeros) {
                false
            } else if self.ones.as_ref().is_some_and(|o| Arc::ptr_eq(stored, o)) {
                true
            } else {
                return None;
            };
            // Through bitline-bar a cell pulls toward its complement.
            Some(one != bar(wl))
        };
        if let Some((k, one)) = (0..3).find_map(|k| constant(&wordlines[k]).map(|one| (k, one))) {
            let (x, y) = match k {
                0 => (&wordlines[1], &wordlines[2]),
                1 => (&wordlines[0], &wordlines[2]),
                _ => (&wordlines[0], &wordlines[1]),
            };
            sense.majority_with_constant_into(row(x), bar(x), row(y), bar(y), one);
            return;
        }
        sense.majority_signed_into(
            row(&wordlines[0]),
            bar(&wordlines[0]),
            row(&wordlines[1]),
            bar(&wordlines[1]),
            row(&wordlines[2]),
            bar(&wordlines[2]),
        );
    }

    /// Bit-serial scalar reference for multi-row charge sharing: per-bitline
    /// signed deviation. A cell with value v on the bitline side pulls the
    /// bitline toward v; on the bitline-bar side it pulls the *sensed value*
    /// toward !v.
    fn charge_share_scalar(&mut self, wordlines: &[Wordline]) -> Result<BitRow> {
        let mut result = BitRow::zeros(self.bits);
        let rows: Vec<(Arc<BitRow>, BitlineSide)> = wordlines
            .iter()
            .map(|wl| (Arc::clone(self.row_arc(self.resolve(wl.row))), wl.side))
            .collect();
        for bit in 0..self.bits {
            let mut score: i32 = 0;
            for (data, side) in &rows {
                let v = data.get(bit);
                let toward_one = match side {
                    BitlineSide::Bitline => v,
                    BitlineSide::BitlineBar => !v,
                };
                score += if toward_one { 1 } else { -1 };
            }
            let mut sensed = match score.cmp(&0) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => match self.tie_break {
                    TieBreak::Error => {
                        return Err(DramError::AmbiguousChargeSharing {
                            bitline: bit,
                            wordlines: wordlines.to_vec(),
                        })
                    }
                    TieBreak::Zero => false,
                    TieBreak::One => true,
                    TieBreak::Random => self.next_tie_bit(),
                },
            };
            // Transient TRA fault injection: with the configured
            // probability, process variation flips this bitline's outcome.
            // The check counts down the pending fault gap (no draw unless
            // a gap runs out), after this bitline's tie draw.
            if self.tra_faults.flips_next(&mut self.tie_rng) {
                sensed = !sensed;
            }
            result.set(bit, sensed);
        }
        Ok(result)
    }

    /// Drives the sense value back into all raised cells (restore phase).
    ///
    /// A data-side row stores a reference to the sense row; a bar-side row
    /// stores a new complemented row. Stuck-at faults are then pinned on
    /// the rows that have them.
    fn restore(&mut self, wordlines: &[Wordline], sense: &Arc<BitRow>) {
        for wl in wordlines {
            self.stamp_refresh(wl.row);
            let value = match wl.side {
                BitlineSide::Bitline => Arc::clone(sense),
                BitlineSide::BitlineBar => {
                    let mut value = self.fresh_row();
                    Arc::make_mut(&mut value).zip_with_into(sense, |_, w| !w);
                    value
                }
            };
            self.store(self.resolve(wl.row), value);
        }
    }

    /// Marks logical row `row` as refreshed now, if a retention window is
    /// armed (restoring a cell recharges it).
    fn stamp_refresh(&mut self, row: usize) {
        if self.retention_ns.is_some() {
            let row = self.resolve(row);
            self.last_refresh_ns[row] = self.now_ns;
        }
    }

    fn check_retention(&self, wordlines: &[Wordline]) -> Result<()> {
        // Retention matters for charge sharing between multiple cells; a
        // single-cell activation is ordinary DRAM sensing which tolerates
        // partial decay by design.
        let Some(window) = self.retention_ns else {
            return Ok(());
        };
        if wordlines.len() < 2 {
            return Ok(());
        }
        for wl in wordlines {
            let last = self.last_refresh_ns[self.resolve(wl.row)];
            let elapsed = self.now_ns.saturating_sub(last);
            if elapsed > window {
                return Err(DramError::RetentionViolation {
                    row: wl.row,
                    elapsed_ns: elapsed,
                    retention_ns: window,
                });
            }
        }
        Ok(())
    }

    fn next_tie_bit(&mut self) -> bool {
        // xorshift64*: deterministic, clonable randomness stream shared by
        // tie-breaking and fault injection.
        fault_rng::next_u64(&mut self.tie_rng) >> 63 & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn filled(bits: usize, seed: u64) -> BitRow {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        BitRow::random(bits, &mut rng)
    }

    #[test]
    fn single_activation_senses_and_preserves_row() {
        let mut sa = Subarray::new(8, 64);
        let data = filled(64, 7);
        sa.poke_row(3, data.clone());
        let sensed = sa.activate(&[Wordline::data(3)]).unwrap().clone();
        assert_eq!(sensed, data);
        sa.precharge().unwrap();
        assert_eq!(sa.peek_row(3), data, "restore keeps the cell value");
    }

    #[test]
    fn activation_of_empty_row_senses_zeros() {
        let mut sa = Subarray::new(8, 64);
        let sensed = sa.activate(&[Wordline::data(0)]).unwrap();
        assert_eq!(sensed.count_ones(), 0);
    }

    #[test]
    fn n_wordline_senses_negated_value_and_restores_original() {
        // Paper Figure 6: activating through the n-wordline exposes !cell.
        let mut sa = Subarray::new(8, 64);
        let data = filled(64, 9);
        sa.poke_row(2, data.clone());
        let sensed = sa.activate(&[Wordline::negated(2)]).unwrap().clone();
        assert_eq!(sensed, data.not());
        sa.precharge().unwrap();
        // The cell was restored through bitline-bar: !sense = original.
        assert_eq!(sa.peek_row(2), data);
    }

    #[test]
    fn tra_computes_majority_and_overwrites_sources() {
        let mut sa = Subarray::new(8, 128);
        let a = filled(128, 1);
        let b = filled(128, 2);
        let c = filled(128, 3);
        sa.poke_row(0, a.clone());
        sa.poke_row(1, b.clone());
        sa.poke_row(2, c.clone());
        let m = BitRow::majority(&a, &b, &c);
        let sensed = sa
            .activate(&[Wordline::data(0), Wordline::data(1), Wordline::data(2)])
            .unwrap()
            .clone();
        assert_eq!(sensed, m);
        sa.precharge().unwrap();
        for row in 0..3 {
            assert_eq!(sa.peek_row(row), m, "TRA destroys source row {row}");
        }
        assert_eq!(sa.stats().triple_row_activations, 1);
    }

    #[test]
    fn tra_with_zero_row_is_and() {
        let mut sa = Subarray::new(8, 64);
        let a = filled(64, 4);
        let b = filled(64, 5);
        sa.poke_row(0, a.clone());
        sa.poke_row(1, b.clone());
        // Row 2 left empty (all zeros).
        let sensed = sa
            .activate(&[Wordline::data(0), Wordline::data(1), Wordline::data(2)])
            .unwrap();
        assert_eq!(*sensed, a.and(&b));
    }

    #[test]
    fn back_to_back_activate_copies_sense_into_new_row() {
        // RowClone-FPM: ACTIVATE src; ACTIVATE dst copies src into dst.
        let mut sa = Subarray::new(8, 64);
        let data = filled(64, 6);
        sa.poke_row(1, data.clone());
        sa.activate(&[Wordline::data(1)]).unwrap();
        sa.activate(&[Wordline::data(5)]).unwrap();
        sa.precharge().unwrap();
        assert_eq!(sa.peek_row(5), data);
        assert_eq!(sa.peek_row(1), data, "source untouched");
        assert_eq!(sa.stats().copy_activations, 1);
    }

    #[test]
    fn back_to_back_activate_through_n_wordline_stores_complement() {
        // Ambit-NOT, steps 1-2 of Section 4: ACTIVATE src; ACTIVATE n-wordline.
        let mut sa = Subarray::new(8, 64);
        let data = filled(64, 8);
        sa.poke_row(0, data.clone());
        sa.activate(&[Wordline::data(0)]).unwrap();
        sa.activate(&[Wordline::negated(4)]).unwrap();
        sa.precharge().unwrap();
        assert_eq!(sa.peek_row(4), data.not(), "DCC holds negated source");
        // Reading the DCC through its d-wordline then yields !src.
        let sensed = sa.activate(&[Wordline::data(4)]).unwrap().clone();
        assert_eq!(sensed, data.not());
    }

    #[test]
    fn dual_copy_activation_b8_style() {
        // Address B8 raises {DCC0.n, T0} as the second ACTIVATE of an AAP:
        // DCC0 gets !src while T0 gets src (used by xor, Figure 8c).
        let mut sa = Subarray::new(8, 64);
        let data = filled(64, 11);
        sa.poke_row(0, data.clone());
        sa.activate(&[Wordline::data(0)]).unwrap();
        sa.activate(&[Wordline::negated(6), Wordline::data(7)]).unwrap();
        sa.precharge().unwrap();
        assert_eq!(sa.peek_row(6), data.not());
        assert_eq!(sa.peek_row(7), data);
    }

    #[test]
    fn ambiguous_charge_sharing_is_an_error_by_default() {
        let mut sa = Subarray::new(8, 8);
        sa.poke_row(0, BitRow::ones(8));
        sa.poke_row(1, BitRow::zeros(8));
        let err = sa
            .activate(&[Wordline::data(0), Wordline::data(1)])
            .unwrap_err();
        assert!(matches!(err, DramError::AmbiguousChargeSharing { bitline: 0, .. }));
    }

    #[test]
    fn tie_break_policies_resolve_ambiguity() {
        for (policy, expect) in [(TieBreak::Zero, 0usize), (TieBreak::One, 8)] {
            let mut sa = Subarray::new(8, 8);
            sa.set_tie_break(policy);
            sa.poke_row(0, BitRow::ones(8));
            sa.poke_row(1, BitRow::zeros(8));
            let sensed = sa
                .activate(&[Wordline::data(0), Wordline::data(1)])
                .unwrap();
            assert_eq!(sensed.count_ones(), expect);
        }
    }

    #[test]
    fn random_tie_break_is_deterministic_per_instance() {
        let mk = || {
            let mut sa = Subarray::new(8, 64);
            sa.set_tie_break(TieBreak::Random);
            sa.poke_row(0, BitRow::ones(64));
            sa.poke_row(1, BitRow::zeros(64));
            sa.activate(&[Wordline::data(0), Wordline::data(1)])
                .unwrap()
                .clone()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn a_rate_change_or_reseed_drops_the_pending_fault_gap() {
        fn tra(sa: &mut Subarray, rate: f64) -> Option<u64> {
            sa.set_tra_fault_rate(rate).unwrap();
            sa.activate(&[Wordline::data(0), Wordline::data(1), Wordline::data(2)]).unwrap();
            sa.precharge().unwrap();
            sa.tra_faults.pending()
        }
        let mut sa = Subarray::new(8, 64);
        let pending = tra(&mut sa, 0.001);
        assert!(pending.is_some(), "an armed TRA leaves a gap pending");
        sa.set_tra_fault_rate(0.001).unwrap();
        sa.reseed_rng(0);
        assert_eq!(sa.tra_faults.pending(), pending, "the same rate and salt 0 keep it");
        sa.set_tra_fault_rate(0.002).unwrap();
        assert_eq!(sa.tra_faults.pending(), None, "a new rate drops it");
        tra(&mut sa, 0.002);
        sa.reseed_rng(5);
        assert_eq!(sa.tra_faults.pending(), None, "a reseed drops it");
    }

    #[test]
    fn conflicting_wordlines_rejected() {
        let mut sa = Subarray::new(8, 8);
        let err = sa
            .activate(&[Wordline::data(3), Wordline::negated(3)])
            .unwrap_err();
        assert_eq!(err, DramError::ConflictingWordlines { row: 3 });
    }

    #[test]
    fn conflicting_wordline_against_already_raised_rejected() {
        let mut sa = Subarray::new(8, 8);
        sa.activate(&[Wordline::data(3)]).unwrap();
        let err = sa.activate(&[Wordline::negated(3)]).unwrap_err();
        assert_eq!(err, DramError::ConflictingWordlines { row: 3 });
    }

    #[test]
    fn protocol_violations() {
        let mut sa = Subarray::new(4, 8);
        assert_eq!(sa.activate(&[]).unwrap_err(), DramError::EmptyActivation);
        assert_eq!(sa.precharge().unwrap_err(), DramError::BankNotActivated);
        assert!(matches!(
            sa.activate(&[Wordline::data(9)]).unwrap_err(),
            DramError::RowOutOfRange { row: 9, rows: 4 }
        ));
        let mut buf = [0u8; 1];
        assert_eq!(
            sa.read_bytes(0, &mut buf).unwrap_err(),
            DramError::BankNotActivated
        );
    }

    #[test]
    fn column_read_write_roundtrip_and_writethrough() {
        let mut sa = Subarray::new(4, 64);
        sa.activate(&[Wordline::data(1)]).unwrap();
        sa.write_bytes(2, &[0xAB, 0xCD]).unwrap();
        let mut buf = [0u8; 2];
        sa.read_bytes(2, &mut buf).unwrap();
        assert_eq!(buf, [0xAB, 0xCD]);
        sa.precharge().unwrap();
        // The write reached the open cells.
        let mut from_cells = [0u8; 2];
        sa.peek_row(1).read_bytes(16, &mut from_cells);
        assert_eq!(from_cells, [0xAB, 0xCD]);
    }

    #[test]
    fn column_bounds_checked() {
        let mut sa = Subarray::new(4, 64);
        sa.activate(&[Wordline::data(0)]).unwrap();
        let mut buf = [0u8; 9];
        assert!(matches!(
            sa.read_bytes(0, &mut buf).unwrap_err(),
            DramError::ColumnOutOfRange { .. }
        ));
        assert!(matches!(
            sa.write_bytes(8, &[0]).unwrap_err(),
            DramError::ColumnOutOfRange { .. }
        ));
    }

    #[test]
    fn retention_violation_in_strict_mode() {
        let mut sa = Subarray::new(8, 8);
        sa.set_retention_window(Some(64_000_000)); // 64 ms
        sa.poke_row(0, BitRow::ones(8));
        sa.poke_row(1, BitRow::ones(8));
        sa.poke_row(2, BitRow::ones(8));
        sa.advance_time_ns(65_000_000);
        let err = sa
            .activate(&[Wordline::data(0), Wordline::data(1), Wordline::data(2)])
            .unwrap_err();
        assert!(matches!(err, DramError::RetentionViolation { .. }));
        // Single-row activation still works (ordinary sensing).
        assert!(sa.activate(&[Wordline::data(0)]).is_ok());
        sa.precharge().unwrap();
        // Re-poking (copying) refreshes, so the TRA now succeeds — this is
        // exactly why Ambit copies operands right before each TRA (§3.3).
        sa.poke_row(0, BitRow::ones(8));
        sa.poke_row(1, BitRow::ones(8));
        sa.poke_row(2, BitRow::ones(8));
        assert!(sa
            .activate(&[Wordline::data(0), Wordline::data(1), Wordline::data(2)])
            .is_ok());
    }

    #[test]
    fn write_through_negated_wordline_stores_complement() {
        let mut sa = Subarray::new(8, 64);
        sa.activate(&[Wordline::negated(2)]).unwrap();
        sa.write_bytes(0, &[0xFF]).unwrap();
        sa.precharge().unwrap();
        let mut cell = [0u8; 1];
        sa.peek_row(2).read_bytes(0, &mut cell);
        assert_eq!(cell[0], 0x00, "n-wordline write stores the complement");
    }

    #[test]
    fn stats_count_commands() {
        let mut sa = Subarray::new(8, 8);
        sa.activate(&[Wordline::data(0)]).unwrap();
        sa.activate(&[Wordline::data(1)]).unwrap();
        sa.precharge().unwrap();
        sa.poke_row(2, BitRow::ones(8));
        sa.poke_row(3, BitRow::ones(8));
        sa.poke_row(4, BitRow::ones(8));
        sa.activate(&[Wordline::data(2), Wordline::data(3), Wordline::data(4)])
            .unwrap();
        sa.precharge().unwrap();
        let s = sa.stats();
        assert_eq!(s.activations, 2);
        assert_eq!(s.copy_activations, 1);
        assert_eq!(s.triple_row_activations, 1);
        assert_eq!(s.multi_row_activations, 1);
        assert_eq!(s.precharges, 2);
    }

    #[test]
    fn fault_installed_after_write_survives_single_row_activation() {
        let mut sa = Subarray::new(8, 64);
        sa.poke_row(3, BitRow::zeros(64));
        sa.inject_fault(3, 5, CellFault::StuckAtOne).unwrap();
        let sensed = sa.activate(&[Wordline::data(3)]).unwrap().clone();
        assert!(sensed.get(5), "the stuck cell is sensed");
        // A back-to-back copy drives zeros from another row into row 3; the
        // stuck cell must still win after the next single-row activation.
        sa.precharge().unwrap();
        sa.activate(&[Wordline::data(0)]).unwrap();
        sa.activate(&[Wordline::data(3)]).unwrap();
        sa.precharge().unwrap();
        let sensed = sa.activate(&[Wordline::data(3)]).unwrap().clone();
        sa.precharge().unwrap();
        assert_eq!(sensed.count_ones(), 1);
        assert!(sensed.get(5));
        assert_eq!(sa.peek_row(3), sensed);
    }

    #[test]
    fn bar_side_single_row_activation_leaves_row_byte_identical() {
        let mut sa = Subarray::new(8, 136);
        let data = filled(136, 21);
        sa.poke_row(2, data.clone());
        for _ in 0..3 {
            let sensed = sa.activate(&[Wordline::negated(2)]).unwrap().clone();
            sa.precharge().unwrap();
            assert_eq!(sensed, data.not());
            assert_eq!(sa.peek_row(2).to_bytes(), data.to_bytes());
        }
        // A never-written row still reads as zeros through either side.
        let sensed = sa.activate(&[Wordline::negated(6)]).unwrap().clone();
        sa.precharge().unwrap();
        assert_eq!(sensed, BitRow::ones(136));
        assert_eq!(sa.peek_row(6), BitRow::zeros(136));
    }

    #[test]
    fn single_row_activation_still_stamps_armed_retention() {
        let mut sa = Subarray::new(8, 64);
        sa.set_retention_window(Some(100));
        for row in 0..3 {
            sa.poke_row(row, BitRow::ones(64));
        }
        sa.advance_time_ns(80);
        for row in 0..3 {
            sa.activate(&[Wordline::data(row)]).unwrap();
            sa.precharge().unwrap();
        }
        // 160 ns since the pokes, but only 80 since the activations
        // refreshed the rows.
        sa.advance_time_ns(80);
        let tra = [Wordline::data(0), Wordline::data(1), Wordline::data(2)];
        assert!(sa.activate(&tra).is_ok());
        sa.precharge().unwrap();
        // Without a refreshing activation the window does expire.
        sa.advance_time_ns(101);
        assert!(matches!(
            sa.activate(&tra).unwrap_err(),
            DramError::RetentionViolation { .. }
        ));
    }

    #[test]
    fn only_new_values_materialize_rows() {
        let mut sa = Subarray::new(8, 64);
        let (a, b) = (filled(64, 41), filled(64, 42));
        sa.poke_row(0, a.clone());
        sa.poke_row(1, b.clone());
        let materialized = |sa: &Subarray| sa.stats().rows_materialized;
        // AAP copies into T0..T2 share the sensed rows.
        for (src, dst) in [(0, 4), (1, 5), (2, 6)] {
            sa.activate(&[Wordline::data(src)]).unwrap();
            sa.activate(&[Wordline::data(dst)]).unwrap();
            sa.precharge().unwrap();
        }
        assert_eq!(materialized(&sa), 0);
        // The TRA result is the one new row; its restore and the copy into
        // the destination share it.
        sa.activate(&[Wordline::data(4), Wordline::data(5), Wordline::data(6)])
            .unwrap();
        sa.activate(&[Wordline::data(7)]).unwrap();
        sa.precharge().unwrap();
        assert_eq!(materialized(&sa), 1);
        assert_eq!(sa.peek_row(7), a.and(&b));
        // A complement is a new value.
        sa.activate(&[Wordline::data(7)]).unwrap();
        sa.activate(&[Wordline::negated(3)]).unwrap();
        sa.precharge().unwrap();
        assert_eq!(materialized(&sa), 2);
        assert_eq!(sa.peek_row(3), a.and(&b).not());
        // A column write splits the open row from the rows sharing it.
        sa.activate(&[Wordline::data(0)]).unwrap();
        sa.activate(&[Wordline::data(2)]).unwrap();
        sa.precharge().unwrap();
        sa.activate(&[Wordline::data(0)]).unwrap();
        sa.write_bytes(0, &[0xFF]).unwrap();
        sa.precharge().unwrap();
        assert_eq!(materialized(&sa), 3);
        assert_eq!(sa.peek_row(0).to_bytes()[0], 0xFF);
        assert_eq!(sa.peek_row(2), a, "the copy of row 0 keeps the old bits");
    }

    #[test]
    fn parked_sense_row_never_leaks_into_the_next_result() {
        // 130 bits: the last word holds two live bits and 62 masked ones.
        let bits = 130;
        let mut sa = Subarray::new(8, bits);
        let (a, b) = (filled(bits, 31), filled(bits, 32));
        sa.poke_row(0, a.clone());
        sa.poke_row(1, b.clone());
        // Park an all-ones sense row: row 7 was never written, read through
        // bitline-bar.
        let ones = BitRow::ones(bits);
        assert_eq!(*sa.activate(&[Wordline::negated(7)]).unwrap(), ones);
        sa.precharge().unwrap();
        // TRA with the zero row 2: AND.
        let tra = [Wordline::data(0), Wordline::data(1), Wordline::data(2)];
        let sensed = sa.activate(&tra).unwrap().clone();
        sa.precharge().unwrap();
        assert_eq!(sensed, a.and(&b));
        assert_eq!(sensed.words()[2] >> 2, 0, "tail stays masked");
        // A bar-side TRA complements whole words, tail included.
        for row in 0..3 {
            sa.poke_row(row, BitRow::zeros(bits));
        }
        let bar = Wordline::negated;
        let tra = [bar(0), bar(1), Wordline::data(2)];
        let sensed = sa.activate(&tra).unwrap().clone();
        sa.precharge().unwrap();
        assert_eq!(sensed, ones);
        assert_eq!(sensed.words()[2], 0b11, "tail stays masked");
        // Then a single-row activation senses exactly the stored row.
        sa.poke_row(4, b.clone());
        assert_eq!(*sa.activate(&[Wordline::data(4)]).unwrap(), b);
    }
}
