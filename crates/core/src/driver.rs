//! The Ambit driver: subarray-aware placement of bitvectors and the
//! user-facing bulk-operation API (paper Section 5.4.2).
//!
//! For RowClone-FPM to move operands into the designated rows, the operand
//! rows must live in the *same subarray*. The paper therefore expects the
//! manufacturer to ship a driver that (1) lets applications allocate
//! bitvectors that will be operated on together and (2) maps corresponding
//! portions of those bitvectors to the same subarray, interleaving large
//! vectors across subarrays and banks.
//!
//! [`AmbitMemory`] implements exactly that: bitvectors are split into
//! row-sized chunks; chunk *i* of every vector in the same *allocation
//! group* is placed in the same `(bank, subarray)`, with consecutive chunks
//! striped across banks first (for bank-level parallelism) and then across
//! subarrays.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use ambit_dram::{
    AapMode, BankId, BitRow, CampaignTick, CellFault, DramGeometry, FaultCampaign,
    FrFcfsScheduler, RefreshScheduler, TimingParams, PS_PER_NS,
};
use ambit_telemetry::{Counter, Histogram, Registry, Span};

use crate::addressing::RowAddress;
use crate::batch::{BatchBuilder, BatchOp, BatchReceipt, IssuePolicy};
use crate::compiler::{compile_fold, fold_supported};
use crate::controller::{AmbitController, ChunkProgram, OpReceipt};
use crate::error::{AmbitError, Result};
use crate::fanout::{Fanout, Plans, PoolStats};
use crate::idhash::IdHashMap;
use crate::ops::{compile, compile_majority, BitwiseOp};

/// Opaque handle to an allocated Ambit bitvector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitVectorHandle(pub(crate) u64);

/// Affinity group: bitvectors allocated in the same group are co-located
/// chunk-by-chunk so in-DRAM operations between them use RowClone-FPM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AllocGroup(pub u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkLoc {
    bank: BankId,
    subarray: usize,
    d_index: usize,
}

#[derive(Debug, Clone)]
struct VectorMeta {
    bits: usize,
    group: AllocGroup,
    chunks: Vec<ChunkLoc>,
}

/// The metadata of `handle`, borrowed from the vector table alone so the
/// caller can drive the controller while holding it.
fn meta_of(vectors: &HashMap<u64, VectorMeta>, handle: BitVectorHandle) -> Result<&VectorMeta> {
    vectors
        .get(&handle.0)
        .ok_or(AmbitError::UnknownHandle { id: handle.0 })
}

/// One entry of the driver's bad-row map: a data row found permanently
/// faulty and remapped onto a spare row of the same subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadRowEntry {
    /// Flat bank index.
    pub bank: usize,
    /// Subarray index within the bank.
    pub subarray: usize,
    /// D-group index of the faulty row.
    pub d_index: usize,
    /// D-group index of the spare row it now resolves to.
    pub spare_d_index: usize,
}

/// A plain-data device reliability map consumed by the allocator
/// (variation-aware placement, paper Section 5.5.3 + ROADMAP item 4).
///
/// This is the `ambit-core` projection of a characterized chip: build one
/// from `ambit_circuit::ChipProfile` via its `strength_order()` /
/// `weak_cells()` / `bin_codes()` accessors (this crate deliberately does
/// not depend on the circuit crate, so the profile arrives as plain
/// vectors). Install it with
/// [`AmbitMemory::install_profile`] *before the first allocation*:
///
/// * new chunks are placed following [`order`](Self::order) instead of the
///   default bank-first stripe, so the hottest allocations (the first ones
///   made in each group) land in the strongest subarrays;
/// * any chunk whose physical row hosts a known weak cell is pre-remapped
///   onto a spare row at allocation time via the existing
///   [`AmbitMemory::remap_bit`] path — paying the repair *before* first
///   use instead of after a detected corruption;
/// * [`bins`](Self::bins) feed the resilient executor's per-bin retry
///   de-rating.
///
/// Subarray-indexed vectors are row-major:
/// `flat_bank * subarrays_per_bank + subarray`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlacementProfile {
    /// Every `(flat_bank, subarray)` pair exactly once, strongest
    /// (lowest failure rate) first.
    pub order: Vec<(usize, usize)>,
    /// Per subarray: known weak cells as `(physical_row, column)` pairs.
    pub weak_cells: Vec<Vec<(usize, usize)>>,
    /// Per subarray: reliability bin code (0 strong, 1 nominal, 2 weak).
    pub bins: Vec<u8>,
}

/// Ambit device memory with a subarray-aware allocator on top of the
/// [`AmbitController`].
///
/// # Examples
///
/// ```
/// use ambit_core::{AmbitMemory, BitwiseOp};
/// use ambit_dram::{AapMode, DramGeometry, TimingParams};
///
/// let mut mem = AmbitMemory::new(
///     DramGeometry::tiny(),
///     TimingParams::ddr3_1600(),
///     AapMode::Overlapped,
/// );
/// let bits = 2 * mem.row_bits(); // two chunks, striped across banks
/// let a = mem.alloc(bits)?;
/// let b = mem.alloc(bits)?;
/// let out = mem.alloc(bits)?;
/// mem.poke_bits(a, &vec![true; bits])?;
/// mem.poke_bits(b, &vec![false; bits])?;
/// mem.bitwise(BitwiseOp::Xor, a, Some(b), out)?;
/// assert_eq!(mem.popcount(out)?, bits);
/// # Ok::<(), ambit_core::AmbitError>(())
/// ```
#[derive(Debug)]
pub struct AmbitMemory {
    ctrl: AmbitController,
    vectors: HashMap<u64, VectorMeta>,
    next_id: u64,
    /// Next free D index per `[flat_bank][subarray]`.
    next_free: Vec<Vec<usize>>,
    /// For each group, the placement of chunk index `i`.
    group_sequences: HashMap<u32, Vec<(usize, usize)>>,
    /// Spare rows reserved at the top of each subarray's D space for
    /// permanent-fault remapping (paper Section 5.5.3).
    spares_per_subarray: usize,
    /// Spares consumed so far, per `[flat_bank][subarray]`.
    spares_used: Vec<Vec<usize>>,
    /// Rows found permanently faulty and remapped (the bad-row map).
    bad_rows: Vec<BadRowEntry>,
    /// Installed device characterization map, if any (variation-aware
    /// placement + pre-remap).
    profile: Option<PlacementProfile>,
    /// Registered per-op instruments, when a telemetry registry is
    /// attached.
    telemetry: Option<DriverTelemetry>,
    /// Compiled-program cache keyed by the op (which pins both the handle
    /// set and the shape, hence the chunk layout): repeated same-shape ops —
    /// bitmap-index query loops, BitWeaving scans — skip validation and
    /// compilation. Handles are never reused, and a chunk layout is
    /// immutable after allocation, so entries only go stale when a handle is
    /// freed ([`free`](AmbitMemory::free) evicts exactly the entries that
    /// reference the freed handle). Lock-guarded rather than `RefCell` so
    /// shared-reference planning stays safe across OS threads and
    /// `AmbitMemory` is `Sync`. Plans are shared slices, so a hit costs a
    /// reference-count increment rather than a deep copy of every program.
    plan_cache: Mutex<IdHashMap<BatchOp, Arc<[ChunkProgram]>>>,
    /// Cache hit/miss counts, mirrored into
    /// `ambit_driver_plan_cache_{hits,misses}` when telemetry is attached.
    /// Atomics (matching the telemetry crate's counters) so concurrent
    /// readers of a shared `&AmbitMemory` never race.
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    /// The last batch's plan, reused by the next batch when that batch is
    /// op-for-op identical (see [`BatchPlan`]). One entry, dropped by
    /// [`free`](AmbitMemory::free) of a handle it references.
    batch_plan: Option<Arc<BatchPlan>>,
    /// The functional pass of every eager op and batch: per-bank queues and
    /// the parked worker threads that run them, sized from
    /// `available_parallelism` (override: `AMBIT_POOL_THREADS` or
    /// `set_pool_threads`). Workers are spawned on the first dispatch and
    /// joined when the memory drops.
    pool: Fanout,
}

/// One planned batch: its dependency waves and each op's chunk programs,
/// beside a copy of the ops and explicit edges they were planned from.
/// A batch with the same ops and edges has the same waves and the same
/// plans (the plan cache's argument: handles are never reused and chunk
/// layouts never change while a handle lives), so
/// [`execute_batch`](AmbitMemory::execute_batch) replays it without
/// hazard analysis or plan lookups.
#[derive(Debug)]
struct BatchPlan {
    ops: Vec<BatchOp>,
    explicit: Vec<(usize, usize)>,
    waves: Vec<Vec<usize>>,
    plans: Arc<[Arc<[ChunkProgram]>]>,
}

impl BatchPlan {
    /// Whether `batch` has exactly the ops and explicit edges this plan
    /// was made from.
    fn serves(&self, batch: &BatchBuilder) -> bool {
        self.ops == batch.ops && self.explicit == batch.explicit
    }
}

/// Cached telemetry handles for the driver's per-operation view.
#[derive(Debug)]
struct DriverTelemetry {
    registry: Registry,
    /// Per-op latency in simulated nanoseconds.
    latency_ns: Histogram,
    /// Per-op energy in nanojoules.
    energy_nj: Histogram,
    /// Per-mnemonic op counters (small linear cache keyed by the op's
    /// `&'static str` mnemonic).
    ops: Vec<(&'static str, Counter)>,
    /// Compiled-program cache hits and misses.
    plan_cache_hits: Counter,
    plan_cache_misses: Counter,
    /// Weak cells repaired proactively at allocation time.
    preremaps: Counter,
    /// Host time of each batch phase, microseconds, indexed by
    /// [`BatchPhase`].
    batch_phase_us: [Histogram; BatchPhase::LABELS.len()],
    /// Batches per issue path, indexed by [`BATCH_PATHS`].
    batch_paths: [Counter; BATCH_PATHS.len()],
    /// Batches per plan source, indexed by [`PLAN_SOURCES`].
    batch_plans: [Counter; PLAN_SOURCES.len()],
}

/// The `path` label of `ambit_batch_path_total`: the clock policy a batch
/// ran under ([`IssuePolicy::Serial`] first, then bank-parallel).
const BATCH_PATHS: [&str; 2] = ["serial", "bank_parallel"];

/// The `source` label of `ambit_batch_plan_total`: planned from scratch
/// (waves and plan-cache lookups) first, then the last batch's plan reused.
const PLAN_SOURCES: [&str; 2] = ["compiled", "reused"];

/// The host-side phases of one `execute_batch` call, timed into
/// `ambit_batch_phase_host_us{phase}` while telemetry is attached.
#[derive(Debug, Clone, Copy)]
enum BatchPhase {
    /// Dependency planning (`BatchBuilder::waves`).
    Waves,
    /// Plan-cache lookups, plus validation and compilation on misses; or
    /// the check that the last batch's plan serves this one.
    Plan,
    /// The timing pass: every chunk program issued on the command timer.
    Issue,
    /// The functional pass: the per-bank queues run through the fan-out.
    Fanout,
}

impl BatchPhase {
    /// The `phase` label of each variant, indexed by discriminant.
    const LABELS: [&'static str; 4] = ["waves", "plan", "issue", "fanout"];
}

/// Host stopwatch splitting one call's wall time over `N` phases, in
/// microseconds. Inert — it never reads the clock — unless switched on,
/// which callers do only while telemetry is attached.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseClock<const N: usize> {
    last: Option<Instant>,
    /// Accumulated time per phase, microseconds.
    pub(crate) us: [f64; N],
}

impl<const N: usize> PhaseClock<N> {
    pub(crate) fn new(on: bool) -> Self {
        PhaseClock {
            last: on.then(Instant::now),
            us: [0.0; N],
        }
    }

    /// Charges the time since the previous lap to phase index `phase`.
    pub(crate) fn lap(&mut self, phase: usize) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            self.us[phase] += now.duration_since(*last).as_secs_f64() * 1e6;
            *last = now;
        }
    }
}

impl DriverTelemetry {
    fn new(registry: Registry) -> Self {
        let latency_ns = registry.histogram(
            "ambit_op_latency_ns",
            "Bulk bitwise operation latency in simulated nanoseconds",
            &[],
            // 49 ns (one AAP) up through multi-chunk, refresh-delayed ops.
            &[50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0, 25600.0],
        );
        let energy_nj = registry.histogram(
            "ambit_op_energy_nj",
            "Bulk bitwise operation energy in nanojoules",
            &[],
            &[5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0, 2560.0],
        );
        let plan_cache_hits = registry.counter(
            "ambit_driver_plan_cache_hits",
            "Bulk ops whose compiled chunk programs were served from the plan cache",
            &[],
        );
        let plan_cache_misses = registry.counter(
            "ambit_driver_plan_cache_misses",
            "Bulk ops that were validated and compiled from scratch",
            &[],
        );
        let preremaps = registry.counter(
            "ambit_characterization_preremaps_total",
            "Weak rows remapped onto spares at allocation time from the installed chip profile",
            &[],
        );
        let batch_phase_us = BatchPhase::LABELS.map(|phase| {
            registry.histogram(
                "ambit_batch_phase_host_us",
                "Host wall time of each execute_batch phase, microseconds \
                 (issue is the timing pass, fanout the functional pass)",
                &[("phase", phase)],
                &[
                    1.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0, 100000.0,
                ],
            )
        });
        let batch_paths = BATCH_PATHS.map(|path| {
            registry.counter(
                "ambit_batch_path_total",
                "Batches by the issue path (clock policy) they ran on",
                &[("path", path)],
            )
        });
        let batch_plans = PLAN_SOURCES.map(|source| {
            registry.counter(
                "ambit_batch_plan_total",
                "Batches by where their plan came from: compiled, or the \
                 previous identical batch's plan reused",
                &[("source", source)],
            )
        });
        DriverTelemetry {
            registry,
            latency_ns,
            energy_nj,
            ops: Vec::new(),
            plan_cache_hits,
            plan_cache_misses,
            preremaps,
            batch_phase_us,
            batch_paths,
            batch_plans,
        }
    }

    /// Publishes the profile-armed gauges (idempotent; called when a
    /// profile is installed or telemetry is attached after one).
    fn arm_profile_gauges(&self, profile: &PlacementProfile) {
        self.registry
            .gauge(
                "ambit_characterization_profile_armed",
                "1 when a device characterization profile drives placement",
                &[],
            )
            .set(1.0);
        let weak = profile.bins.iter().filter(|&&b| b >= 2).count();
        self.registry
            .gauge(
                "ambit_characterization_weak_subarrays",
                "Subarrays binned weak by the installed chip profile",
                &[],
            )
            .set(weak as f64);
    }

    fn op_counter(&mut self, mnemonic: &'static str) -> &Counter {
        if let Some(i) = self.ops.iter().position(|(m, _)| *m == mnemonic) {
            return &self.ops[i].1;
        }
        let counter = self.registry.counter(
            "ambit_ops_total",
            "Bulk bitwise operations executed by the driver",
            &[("op", mnemonic)],
        );
        self.ops.push((mnemonic, counter));
        &self.ops[self.ops.len() - 1].1
    }

    /// Records one completed driver operation: counters, histograms, and a
    /// `driver.bitwise` span denominated in simulated nanoseconds.
    fn record_op(&mut self, mnemonic: &'static str, receipt: &OpReceipt, chunks: usize) {
        self.op_counter(mnemonic).inc();
        self.latency_ns
            .observe(receipt.latency_ps() as f64 / PS_PER_NS as f64);
        self.energy_nj.observe(receipt.energy_nj);
        self.registry.record_span(
            Span::new(
                "driver.bitwise",
                receipt.start_ps / PS_PER_NS,
                receipt.end_ps / PS_PER_NS,
            )
            .attr("op", mnemonic)
            .attr("chunks", chunks)
            .attr("aaps", receipt.aaps)
            .attr("aps", receipt.aps)
            .attr("energy_nj", receipt.energy_nj),
        );
    }

    /// Records one completed batch: per-op counters/histograms, a
    /// `driver.batch` span, and per-bank occupancy gauges from the timer's
    /// busy-time attribution.
    fn record_batch(
        &mut self,
        receipt: &BatchReceipt,
        mnemonics: &[&'static str],
        phases: &PhaseClock<{ BatchPhase::LABELS.len() }>,
    ) {
        for (histogram, &us) in self.batch_phase_us.iter().zip(&phases.us) {
            histogram.observe(us);
        }
        for (op_receipt, &mnemonic) in receipt.per_op.iter().zip(mnemonics) {
            self.op_counter(mnemonic).inc();
            self.latency_ns
                .observe(op_receipt.latency_ps() as f64 / PS_PER_NS as f64);
            self.energy_nj.observe(op_receipt.energy_nj);
        }
        self.registry.record_span(
            Span::new(
                "driver.batch",
                receipt.total.start_ps / PS_PER_NS,
                receipt.total.end_ps / PS_PER_NS,
            )
            .attr("ops", receipt.per_op.len())
            .attr("waves", receipt.waves)
            .attr("banks_used", receipt.banks_used())
            .attr("aaps", receipt.total.aaps)
            .attr("aps", receipt.total.aps)
            .attr("energy_nj", receipt.total.energy_nj),
        );
        for (bank, &busy) in receipt.bank_busy_ps.iter().enumerate() {
            let label = bank.to_string();
            self.registry
                .gauge(
                    "ambit_batch_bank_busy_ns",
                    "Open-row busy time each timing pipeline accumulated during \
                     the most recent batch, simulated nanoseconds",
                    &[("bank", &label)],
                )
                .set(busy as f64 / PS_PER_NS as f64);
        }
    }
}

impl AmbitMemory {
    /// Creates Ambit memory of the given geometry and timing.
    pub fn new(geometry: DramGeometry, timing: TimingParams, mode: AapMode) -> Self {
        let ctrl = AmbitController::new(geometry, timing, mode);
        let banks = geometry.total_banks();
        AmbitMemory {
            ctrl,
            vectors: HashMap::new(),
            next_id: 0,
            next_free: vec![vec![0; geometry.subarrays_per_bank]; banks],
            group_sequences: HashMap::new(),
            spares_per_subarray: 0,
            spares_used: vec![vec![0; geometry.subarrays_per_bank]; banks],
            bad_rows: Vec::new(),
            profile: None,
            telemetry: None,
            plan_cache: Mutex::new(IdHashMap::default()),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            batch_plan: None,
            pool: Fanout::with_default_size(),
        }
    }

    /// Convenience constructor for the paper's 8-bank DDR3-1600 module.
    pub fn ddr3_module() -> Self {
        AmbitMemory::new(
            DramGeometry::ddr3_module(),
            TimingParams::ddr3_1600(),
            AapMode::Overlapped,
        )
    }

    /// Row width in bits (the chunk size of allocations).
    pub fn row_bits(&self) -> usize {
        self.ctrl.row_bits()
    }

    /// The underlying controller (timing, energy, stats).
    pub fn controller(&self) -> &AmbitController {
        &self.ctrl
    }

    /// Mutable access to the controller, for custom command programs.
    pub fn controller_mut(&mut self) -> &mut AmbitController {
        &mut self.ctrl
    }

    /// Attaches a telemetry registry: the driver records per-operation
    /// counters (`ambit_ops_total{op=...}`), latency and energy histograms,
    /// and a `driver.bitwise` span per bulk operation, and forwards the
    /// registry to the controller for per-command instrumentation.
    pub fn set_telemetry(&mut self, registry: Registry) {
        self.ctrl.set_telemetry(registry.clone());
        self.pool.set_telemetry(&registry);
        let tel = DriverTelemetry::new(registry);
        if let Some(profile) = &self.profile {
            tel.arm_profile_gauges(profile);
        }
        self.telemetry = Some(tel);
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// Enables subarray-level parallelism: chunks placed in different
    /// subarrays of one bank overlap in time like chunks in different
    /// banks.
    pub fn set_salp(&mut self, salp: bool) {
        self.ctrl.set_salp(salp);
    }

    /// Total energy consumed so far, nanojoules.
    pub fn energy_nj(&self) -> f64 {
        self.ctrl.timer().energy().total_nj()
    }

    /// Activity counters of the fan-out that runs the functional pass of
    /// every eager op and batch: per-bank jobs run dispatched or inline,
    /// worker threads spawned, parked workers notified, and caught
    /// panics.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Sets the thread budget of the fan-out to `threads` (at least 1,
    /// caller included) and resets the [`pool_stats`](Self::pool_stats)
    /// counters. The previous fan-out's parked workers are joined, and the
    /// new one spawns its own on its first dispatch. With `threads == 1`
    /// every pass runs inline on the calling thread, as on a one-core host;
    /// results do not depend on the budget.
    pub fn set_pool_threads(&mut self, threads: usize) {
        self.pool = Fanout::new(threads);
        if let Some(tel) = &self.telemetry {
            self.pool.set_telemetry(&tel.registry);
        }
    }

    /// Current simulated time on the command bus, picoseconds: the cycle
    /// at which the next command may be requested.
    ///
    /// It lags the receipts of eager calls, by design. Each command moves
    /// the bus one clock (tCK) past the time it was requested, but the
    /// command itself issues only once its bank is ready (tRAS, tRP, the
    /// activation window), and the bank stays busy after it. A receipt's
    /// `end_ps` is when the bank's last precharge completes: that
    /// precharge's issue time plus tRP. So 36 eager ORs over 8 Mb vectors
    /// on [`DramGeometry::ddr3_module`] end at 113.0 µs by their receipts
    /// while `now_ps` reads 69.1 µs. For completion time use the receipts,
    /// or `controller().timer().horizon_ps()`, which covers every issued
    /// command including the tRP of the last precharge.
    pub fn now_ps(&self) -> u64 {
        self.ctrl.timer().now_ps()
    }

    /// Allocates a bitvector of `bits` bits in the default group.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::OutOfMemory`] when no co-located rows remain.
    pub fn alloc(&mut self, bits: usize) -> Result<BitVectorHandle> {
        self.alloc_in_group(bits, AllocGroup::default())
    }

    /// Allocates a bitvector of `bits` bits in `group`. Vectors in the same
    /// group are chunk-wise co-located (paper Section 5.4.2's API hint).
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::OutOfMemory`] when no co-located rows remain.
    pub fn alloc_in_group(&mut self, bits: usize, group: AllocGroup) -> Result<BitVectorHandle> {
        if bits == 0 {
            return Err(AmbitError::EmptyAllocation);
        }
        let row_bits = self.row_bits();
        let chunk_count = bits.div_ceil(row_bits);
        let placements = self.group_placements(group, chunk_count);

        // First pass: check capacity without mutating. Reserved spare rows
        // are not allocatable.
        let layout_rows = self.ctrl.layout().data_rows() - self.spares_per_subarray;
        let mut needed: HashMap<(usize, usize), usize> = HashMap::new();
        for &(b, s) in &placements {
            *needed.entry((b, s)).or_insert(0) += 1;
        }
        for (&(b, s), &n) in &needed {
            let free = layout_rows - self.next_free[b][s];
            if free < n {
                return Err(AmbitError::OutOfMemory {
                    requested_rows: n,
                    available_rows: free,
                });
            }
        }

        let geometry = *self.ctrl.geometry();
        let chunks: Vec<ChunkLoc> = placements
            .iter()
            .map(|&(b, s)| {
                let d_index = self.next_free[b][s];
                self.next_free[b][s] += 1;
                ChunkLoc {
                    bank: BankId::from_flat_index(b, &geometry),
                    subarray: s,
                    d_index,
                }
            })
            .collect();

        let id = self.next_id;
        self.next_id += 1;
        self.vectors.insert(
            id,
            VectorMeta {
                bits,
                group,
                chunks,
            },
        );
        let handle = BitVectorHandle(id);
        // Variation-aware pre-remap: if a chunk's physical row hosts a
        // known weak cell, pay the spare-row repair now, before first use.
        // A failure (spares exhausted) surfaces at allocation time and the
        // handle is rolled back; the rows stay consumed, like any freed
        // arena rows.
        if self.profile.is_some() {
            if let Err(e) = self.preremap_weak_rows(handle) {
                self.vectors.remove(&id);
                return Err(e);
            }
        }
        Ok(handle)
    }

    /// Remaps every chunk of `handle` whose physical row appears in the
    /// profile's weak-cell map onto a spare row (one remap repairs the
    /// whole row, however many weak cells it hosts).
    fn preremap_weak_rows(&mut self, handle: BitVectorHandle) -> Result<()> {
        let geometry = *self.ctrl.geometry();
        let subarrays = geometry.subarrays_per_bank;
        let row_bits = self.row_bits();
        let meta = self.meta(handle)?.clone();
        let mut targets = Vec::new();
        {
            let Some(profile) = &self.profile else {
                return Ok(());
            };
            for (i, chunk) in meta.chunks.iter().enumerate() {
                let flat = chunk.bank.flat_index(&geometry) * subarrays + chunk.subarray;
                let physical = self.ctrl.layout().data_row(chunk.d_index)?;
                if profile.weak_cells[flat].iter().any(|&(row, _)| row == physical) {
                    targets.push(i);
                }
            }
        }
        for i in targets {
            // Any bit of the chunk selects the same row; clamp to the
            // logical length for a partial final chunk.
            self.remap_bit(handle, (i * row_bits).min(meta.bits - 1))?;
            if let Some(tel) = &self.telemetry {
                tel.preremaps.inc();
            }
        }
        Ok(())
    }

    /// Length of the bitvector in bits.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::UnknownHandle`] for stale handles.
    pub fn len_bits(&self, handle: BitVectorHandle) -> Result<usize> {
        Ok(self.meta(handle)?.bits)
    }

    /// Number of row-sized chunks backing the bitvector.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::UnknownHandle`] for stale handles.
    pub fn chunk_count(&self, handle: BitVectorHandle) -> Result<usize> {
        Ok(self.meta(handle)?.chunks.len())
    }

    /// The allocation group the bitvector was placed in.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::UnknownHandle`] for stale handles.
    pub fn group(&self, handle: BitVectorHandle) -> Result<AllocGroup> {
        Ok(self.meta(handle)?.group)
    }

    /// Injects a stuck-at cell fault at logical bit `bit` of the vector —
    /// for reliability campaigns (e.g. validating the TMR ECC of paper
    /// Section 5.4.5).
    ///
    /// # Errors
    ///
    /// Returns an unknown-handle error or a range error.
    pub fn inject_fault(
        &mut self,
        handle: BitVectorHandle,
        bit: usize,
        fault: CellFault,
    ) -> Result<()> {
        let meta = self.meta(handle)?.clone();
        let row_bits = self.row_bits();
        if bit >= meta.bits {
            return Err(AmbitError::SizeMismatch {
                left_bits: bit,
                right_bits: meta.bits,
            });
        }
        let chunk = meta.chunks[bit / row_bits];
        let physical_row = self.ctrl.layout().data_row(chunk.d_index)?;
        self.ctrl
            .device_mut()
            .bank_mut(chunk.bank)
            .subarray_mut(chunk.subarray)
            .inject_fault(physical_row, bit % row_bits, fault)?;
        Ok(())
    }

    /// Sets the same transient TRA fault rate on every subarray of the
    /// device (feed this from `ambit_circuit`'s Monte Carlo failure
    /// rates). For per-subarray rates, plan a
    /// [`FaultCampaign`](ambit_dram::FaultCampaign) and install it with
    /// [`apply_campaign`](Self::apply_campaign) instead.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidFaultRate`](ambit_dram::DramError)
    /// unless `rate` is a probability in `[0, 1]`.
    pub fn set_tra_fault_rate(&mut self, rate: f64) -> Result<()> {
        let geometry = *self.ctrl.geometry();
        let device = self.ctrl.device_mut();
        for flat in 0..geometry.total_banks() {
            let id = BankId::from_flat_index(flat, &geometry);
            let bank = device.bank_mut(id);
            for s in 0..bank.subarray_count() {
                bank.subarray_mut(s).set_tra_fault_rate(rate)?;
            }
        }
        Ok(())
    }

    /// Installs a planned [`FaultCampaign`] into the device: plants its
    /// stuck-at cells and sets every subarray's individual TRA fault rate.
    ///
    /// # Errors
    ///
    /// Propagates DRAM-level errors if the campaign was planned for a
    /// different geometry.
    pub fn apply_campaign(&mut self, campaign: &FaultCampaign) -> Result<()> {
        campaign.apply(self.ctrl.device_mut())?;
        Ok(())
    }

    /// Advances a fault campaign to the driver's current time: issues due
    /// refreshes and arms retention-decay faults for the elapsed windows.
    pub fn campaign_tick(
        &mut self,
        campaign: &mut FaultCampaign,
        scheduler: &mut RefreshScheduler,
    ) -> CampaignTick {
        self.ctrl.campaign_tick(campaign, scheduler)
    }

    /// Reserves `per_subarray` rows at the top of every subarray's data
    /// space as spare rows for permanent-fault remapping
    /// ([`remap_bit`](Self::remap_bit)). Must be called before any
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::OutOfMemory`] if allocations already exist or
    /// if the reservation would leave no allocatable rows.
    pub fn reserve_spare_rows(&mut self, per_subarray: usize) -> Result<()> {
        let data_rows = self.ctrl.layout().data_rows();
        let allocated = self.next_free.iter().flatten().any(|&n| n > 0);
        if allocated || per_subarray >= data_rows {
            return Err(AmbitError::OutOfMemory {
                requested_rows: per_subarray,
                available_rows: data_rows.saturating_sub(1),
            });
        }
        self.spares_per_subarray = per_subarray;
        Ok(())
    }

    /// Installs a device characterization map ([`PlacementProfile`]) into
    /// the allocator. From here on, new allocations are placed strongest
    /// subarray first and chunks landing on known-weak rows are repaired
    /// onto spare rows *at allocation time* (reserve spares with
    /// [`reserve_spare_rows`](Self::reserve_spare_rows) first, or the
    /// pre-remap will surface [`AmbitError::SpareRowsExhausted`] on
    /// alloc). Must be called before any allocation, so the whole working
    /// set follows the profile.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::ProfileRejected`] if allocations already
    /// exist or the profile's shape does not match the device geometry
    /// (the order must visit every subarray exactly once; weak cells and
    /// bins must be row-major over all subarrays and in range).
    pub fn install_profile(&mut self, profile: PlacementProfile) -> Result<()> {
        let geometry = *self.ctrl.geometry();
        let banks = geometry.total_banks();
        let subarrays = geometry.subarrays_per_bank;
        let total = banks * subarrays;
        let reject = |reason: &'static str| Err(AmbitError::ProfileRejected { reason });
        if self.next_free.iter().flatten().any(|&n| n > 0) {
            return reject("profile must be installed before any allocation");
        }
        if profile.order.len() != total {
            return reject("placement order must visit every subarray exactly once");
        }
        let mut seen = vec![false; total];
        for &(b, s) in &profile.order {
            if b >= banks || s >= subarrays {
                return reject("placement order references a subarray outside the geometry");
            }
            let flat = b * subarrays + s;
            if seen[flat] {
                return reject("placement order visits a subarray twice");
            }
            seen[flat] = true;
        }
        if profile.weak_cells.len() != total {
            return reject("weak-cell map must cover every subarray");
        }
        let rows = geometry.rows_per_subarray;
        let bits = self.row_bits();
        for cells in &profile.weak_cells {
            for &(row, col) in cells {
                if row >= rows || col >= bits {
                    return reject("weak cell outside the subarray");
                }
            }
        }
        if profile.bins.len() != total || profile.bins.iter().any(|&b| b > 2) {
            return reject("bins must give every subarray a code in 0..=2");
        }
        if let Some(tel) = &self.telemetry {
            tel.arm_profile_gauges(&profile);
        }
        self.profile = Some(profile);
        Ok(())
    }

    /// The installed characterization profile, if any.
    pub fn profile(&self) -> Option<&PlacementProfile> {
        self.profile.as_ref()
    }

    /// Worst reliability-bin code (0 strong, 1 nominal, 2 weak) across the
    /// subarrays backing `handle`'s chunks; 1 (nominal) when no profile is
    /// installed. The resilient executor uses this to de-rate its retry
    /// budget per operand.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::UnknownHandle`] for stale handles.
    pub fn handle_bin(&self, handle: BitVectorHandle) -> Result<u8> {
        let meta = self.meta(handle)?;
        let Some(profile) = &self.profile else {
            return Ok(1);
        };
        let geometry = *self.ctrl.geometry();
        let subarrays = geometry.subarrays_per_bank;
        let mut worst = 0u8;
        for chunk in &meta.chunks {
            let flat = chunk.bank.flat_index(&geometry) * subarrays + chunk.subarray;
            worst = worst.max(profile.bins[flat]);
        }
        Ok(worst)
    }

    /// Spare rows still unused across the whole device.
    pub fn spare_rows_free(&self) -> usize {
        let total =
            self.spares_per_subarray * self.next_free.len() * self.next_free[0].len();
        let used: usize = self.spares_used.iter().flatten().sum();
        total - used
    }

    /// The bad-row map: every permanently faulty row remapped so far.
    pub fn bad_rows(&self) -> &[BadRowEntry] {
        &self.bad_rows
    }

    /// Remaps the physical row backing the chunk that holds logical bit
    /// `bit` of `handle` onto a fresh spare row in the same subarray — the
    /// paper's Section 5.5.3 repair, driven at runtime by the resilient
    /// executor once a stuck-at cell is diagnosed. The row's current
    /// (faulty) contents are copied onto the spare so unaffected bits
    /// survive the repair.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::SpareRowsExhausted`] if the subarray has no spare
    ///   left.
    /// * [`AmbitError::SizeMismatch`] if `bit` is out of range, or an
    ///   unknown-handle error.
    pub fn remap_bit(&mut self, handle: BitVectorHandle, bit: usize) -> Result<()> {
        let meta = self.meta(handle)?.clone();
        if bit >= meta.bits {
            return Err(AmbitError::SizeMismatch {
                left_bits: bit,
                right_bits: meta.bits,
            });
        }
        let chunk = meta.chunks[bit / self.row_bits()];
        let geometry = *self.ctrl.geometry();
        let flat = chunk.bank.flat_index(&geometry);
        let used = self.spares_used[flat][chunk.subarray];
        if used >= self.spares_per_subarray {
            return Err(AmbitError::SpareRowsExhausted {
                bank: flat,
                subarray: chunk.subarray,
            });
        }
        let data_rows = self.ctrl.layout().data_rows();
        let spare_d = data_rows - 1 - used;
        let from_row = self.ctrl.layout().data_row(chunk.d_index)?;
        let to_row = self.ctrl.layout().data_row(spare_d)?;
        // Preserve the row's contents across the remap (reads resolve
        // through the old mapping until remap_row lands).
        let current = self.ctrl.peek_data(chunk.bank, chunk.subarray, chunk.d_index)?;
        self.ctrl
            .device_mut()
            .bank_mut(chunk.bank)
            .subarray_mut(chunk.subarray)
            .remap_row(from_row, to_row)?;
        self.ctrl
            .poke_data(chunk.bank, chunk.subarray, chunk.d_index, &current)?;
        self.spares_used[flat][chunk.subarray] = used + 1;
        self.bad_rows.push(BadRowEntry {
            bank: flat,
            subarray: chunk.subarray,
            d_index: chunk.d_index,
            spare_d_index: spare_d,
        });
        Ok(())
    }

    /// Executes `dst = op(src1, src2)` across all chunks of the operands,
    /// entirely in DRAM. Chunks in different banks overlap in time
    /// (bank-level parallelism); the receipt covers the whole operation.
    ///
    /// Like a batch, the op runs in two passes: every chunk program is
    /// timed on the command timer in chunk order, and then each bank runs
    /// its chunks in that order, on the caller or on a parked worker
    /// ([`set_pool_threads`](Self::set_pool_threads)). Receipts, traces
    /// and the memory image do not depend on the thread budget.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::SizeMismatch`] if operand lengths differ.
    /// * [`AmbitError::NotColocated`] if some chunk pair is not in the same
    ///   subarray (operands from different allocation groups).
    /// * [`AmbitError::WrongOperandCount`] on arity mismatch.
    /// * Timing errors from the timing pass, which then runs no functional
    ///   command.
    /// * Device errors ([`AmbitError::Dram`]) and
    ///   [`AmbitError::ExecutorPanicked`] from the functional pass, under
    ///   the batch contract ([`execute_batch`](Self::execute_batch)): the
    ///   timing pass has completed, each bank has run its chunks up to its
    ///   first failing command, and the first failing bank in flat-bank
    ///   order is reported.
    pub fn bitwise(
        &mut self,
        op: BitwiseOp,
        src1: BitVectorHandle,
        src2: Option<BitVectorHandle>,
        dst: BitVectorHandle,
    ) -> Result<OpReceipt> {
        let entry = BatchOp::Bitwise { op, src1, src2, dst };
        let chunks = self.plan_op(&entry)?;
        let receipt = self.issue_chunks(&chunks)?;
        if let Some(tel) = &mut self.telemetry {
            tel.record_op(op.mnemonic(), &receipt, chunks.len());
        }
        Ok(receipt)
    }

    /// Executes `dst = majority(a, b, c)` bitwise across all chunks — the
    /// raw triple-row activation as an operation (one 4-AAP program per
    /// chunk, the same cost as an AND). The carry step of a bit-serial
    /// adder is exactly this.
    ///
    /// # Errors
    ///
    /// Same conditions as [`bitwise`](Self::bitwise).
    pub fn bitwise_maj3(
        &mut self,
        a: BitVectorHandle,
        b: BitVectorHandle,
        c: BitVectorHandle,
        dst: BitVectorHandle,
    ) -> Result<OpReceipt> {
        let entry = BatchOp::Maj3 { a, b, c, dst };
        let chunks = self.plan_op(&entry)?;
        let receipt = self.issue_chunks(&chunks)?;
        if let Some(tel) = &mut self.telemetry {
            tel.record_op("maj3", &receipt, chunks.len());
        }
        Ok(receipt)
    }

    /// Executes an optimized k-way accumulation `dst = srcs[0] op … op
    /// srcs[k−1]` (associative `op`: AND or OR), keeping the running
    /// accumulator in the designated rows chunk by chunk — the Section 5.2
    /// copy-elimination applied at the driver level.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::WrongOperandCount`] for unsupported ops or < 2
    ///   sources.
    /// * [`AmbitError::SizeMismatch`] / [`AmbitError::NotColocated`] as for
    ///   [`bitwise`](Self::bitwise).
    pub fn bitwise_fold(
        &mut self,
        op: BitwiseOp,
        srcs: &[BitVectorHandle],
        dst: BitVectorHandle,
    ) -> Result<OpReceipt> {
        let entry = BatchOp::Fold {
            op,
            srcs: srcs.to_vec(),
            dst,
        };
        let mnemonic = entry.mnemonic();
        let chunks = self.plan_op(&entry)?;
        let receipt = self.issue_chunks(&chunks)?;
        if let Some(tel) = &mut self.telemetry {
            tel.record_op(mnemonic, &receipt, chunks.len());
        }
        Ok(receipt)
    }

    /// Executes a [`BatchBuilder`]'s operations as one planned batch.
    ///
    /// The batch is first split into dependency waves
    /// (`BatchBuilder::waves`-style hazard analysis), and every op is
    /// validated and compiled *before* any command issues — a malformed
    /// batch fails without touching the device. Then, whatever the policy:
    ///
    /// 1. A *timing pass* on the calling thread issues every chunk program
    ///    on the command timer in wave, op, chunk order. The policy only
    ///    sets the clock: [`IssuePolicy::BankParallel`] issues a wave's
    ///    programs back-to-back, so ops in different banks overlap in
    ///    simulated time, and closes each wave with a barrier;
    ///    [`IssuePolicy::Serial`] advances the clock past each op.
    /// 2. A *functional pass* runs each bank's programs, in that order, on
    ///    the caller or on a parked worker that takes the bank by move
    ///    ([`set_pool_threads`](Self::set_pool_threads)). Banks share no
    ///    functional state and each subarray owns its fault RNG stream, so
    ///    memory image, device stats and fault draws are the same for every
    ///    policy and thread budget.
    ///
    /// A batch op-for-op identical to the previous one, with the same
    /// explicit edges, skips planning: it reuses that batch's waves and
    /// plans (each op it serves counts as a plan-cache hit). Every batch
    /// increments `ambit_batch_path_total{path}` with its policy (`serial`
    /// or `bank_parallel`) and `ambit_batch_plan_total{source}` with where
    /// its plan came from (`compiled` or `reused`).
    ///
    /// # Errors
    ///
    /// * [`AmbitError::EmptyBatch`] / [`AmbitError::DependencyCycle`] from
    ///   planning.
    /// * Any validation error the eager entry points raise
    ///   ([`AmbitError::SizeMismatch`], [`AmbitError::NotColocated`],
    ///   [`AmbitError::WrongOperandCount`], unknown handles).
    /// * Timing and scheduler errors from the timing pass, which then runs
    ///   no functional command.
    /// * Device errors ([`AmbitError::Dram`]) and
    ///   [`AmbitError::ExecutorPanicked`] from the functional pass. These
    ///   surface only after the whole timing pass has issued, for every
    ///   policy: the timer has then advanced past the batch, and each bank
    ///   has run its queue up to its first failing command. The first
    ///   failing bank in flat-bank order is reported.
    pub fn execute_batch(
        &mut self,
        batch: &BatchBuilder,
        policy: IssuePolicy,
    ) -> Result<BatchReceipt> {
        self.execute_batch_inner(batch, policy, None)
    }

    /// Like [`execute_batch`](Self::execute_batch), but interleaves regular
    /// read/write traffic from a [`FrFcfsScheduler`] on the same command
    /// timer (paper Section 5.5.2): between chunk programs, every traffic
    /// request that has already arrived is serviced, and any row the
    /// traffic left open is precharged before the next AAP program targets
    /// that bank. Traffic arriving after the batch finishes stays queued in
    /// the scheduler.
    ///
    /// # Errors
    ///
    /// As [`execute_batch`](Self::execute_batch), plus scheduler errors.
    pub fn execute_batch_with_traffic(
        &mut self,
        batch: &BatchBuilder,
        policy: IssuePolicy,
        traffic: &mut FrFcfsScheduler,
    ) -> Result<BatchReceipt> {
        self.execute_batch_inner(batch, policy, Some(traffic))
    }

    fn execute_batch_inner(
        &mut self,
        batch: &BatchBuilder,
        policy: IssuePolicy,
        mut traffic: Option<&mut FrFcfsScheduler>,
    ) -> Result<BatchReceipt> {
        let mut clock = PhaseClock::new(self.telemetry.is_some());
        let reused = self
            .batch_plan
            .as_ref()
            .filter(|plan| plan.serves(batch))
            .map(Arc::clone);
        let source = usize::from(reused.is_some());
        let plan = match reused {
            // Each op the reused plan serves counts as the plan-cache hit
            // its lookup would have been.
            Some(plan) => {
                self.count_plan_hits(batch.len() as u64);
                plan
            }
            None => {
                let waves = batch.waves()?;
                clock.lap(BatchPhase::Waves as usize);
                // Upfront validation and compilation: no command issues
                // unless the whole batch is well-formed.
                let plans = batch
                    .ops
                    .iter()
                    .map(|entry| self.plan_op(entry))
                    .collect::<Result<_>>()?;
                let plan = Arc::new(BatchPlan {
                    ops: batch.ops.clone(),
                    explicit: batch.explicit.clone(),
                    waves,
                    plans,
                });
                self.batch_plan = Some(Arc::clone(&plan));
                plan
            }
        };
        clock.lap(BatchPhase::Plan as usize);

        let busy_before: Vec<u64> = (0..self.ctrl.timer().tracked_banks())
            .map(|b| self.ctrl.timer().bank_busy_ps(b))
            .collect();

        let serial = policy == IssuePolicy::Serial;
        if let Some(tel) = &self.telemetry {
            tel.batch_paths[usize::from(!serial)].inc();
            tel.batch_plans[source].inc();
        }

        // Timing pass: issue every chunk program on the command timer in
        // wave, op, chunk order, and queue it on its bank for the
        // functional pass in that same order.
        let geometry = *self.ctrl.geometry();
        self.pool.begin();
        let mut per_op: Vec<Option<OpReceipt>> = vec![None; batch.len()];
        for wave in &plan.waves {
            let mut wave_end = 0u64;
            for &i in wave {
                let mut op_total: Option<OpReceipt> = None;
                for (c, chunk) in plan.plans[i].iter().enumerate() {
                    if let Some(tr) = traffic.as_deref_mut() {
                        tr.service_arrived(self.ctrl.timer_mut())?;
                    }
                    // Traffic (or prior external use) may have left a row
                    // open; AAP programs must start precharged.
                    self.ctrl.close_open_row(chunk.bank, chunk.subarray)?;
                    let receipt =
                        self.ctrl.time_program(chunk.bank, chunk.subarray, &chunk.program)?;
                    let flat = chunk.bank.flat_index(&geometry);
                    self.pool.queue(flat, (i, c), chunk.program.len());
                    match &mut op_total {
                        Some(t) => t.absorb(&receipt),
                        None => op_total = Some(receipt),
                    }
                }
                // A fully-elided plan (self-copy) issues nothing.
                let receipt = op_total.unwrap_or_else(|| self.noop_receipt());
                if serial {
                    self.ctrl.timer_mut().advance_to(receipt.end_ps);
                }
                wave_end = wave_end.max(receipt.end_ps);
                per_op[i] = Some(receipt);
            }
            // Wave barrier: dependent ops start only after every producer's
            // final precharge has completed.
            if !serial {
                self.ctrl.timer_mut().advance_to(wave_end);
            }
        }
        if let Some(tr) = traffic {
            tr.service_arrived(self.ctrl.timer_mut())?;
        }
        clock.lap(BatchPhase::Issue as usize);

        // Functional pass: one queue per bank. Co-location keeps every
        // program inside its own (bank, subarray), so per-bank FIFO order is
        // the only order the device can observe, fault draws included.
        self.ctrl
            .run_bank_queues(&Plans::Batch(Arc::clone(&plan.plans)), &mut self.pool)?;
        clock.lap(BatchPhase::Fanout as usize);

        let per_op: Vec<OpReceipt> = per_op
            .into_iter()
            .map(|r| r.ok_or(AmbitError::EmptyAllocation))
            .collect::<Result<_>>()?;
        let mut total = per_op[0];
        for receipt in &per_op[1..] {
            total.absorb(receipt);
        }
        let bank_busy_ps: Vec<u64> = (0..self.ctrl.timer().tracked_banks())
            .map(|b| {
                self.ctrl.timer().bank_busy_ps(b) - busy_before.get(b).copied().unwrap_or(0)
            })
            .collect();

        let receipt = BatchReceipt {
            total,
            per_op,
            waves: plan.waves.len(),
            bank_busy_ps,
        };
        if let Some(tel) = &mut self.telemetry {
            let mnemonics: Vec<&'static str> =
                batch.ops.iter().map(|op| op.mnemonic()).collect();
            tel.record_batch(&receipt, &mnemonics, &clock);
        }
        Ok(receipt)
    }

    /// Validates one batch operation against the allocator state and
    /// compiles its per-chunk command programs, consulting the plan cache
    /// first. Shared by the eager entry points and the batch engine, so
    /// batched execution is semantically identical to serial execution by
    /// construction.
    ///
    /// Failed plans are not cached: an op that validated badly once is
    /// recompiled (and re-fails) on retry, so error reporting stays exact.
    fn plan_op(&self, entry: &BatchOp) -> Result<Arc<[ChunkProgram]>> {
        let cached = self.plan_cache().get(entry).cloned();
        if let Some(hit) = cached {
            self.count_plan_hits(1);
            return Ok(hit);
        }
        // Compile outside the lock: validation walks allocator metadata and
        // can be slow, and a concurrent planner hitting a different shape
        // should not wait on it. A racing miss on the same shape just
        // compiles twice and last-insert wins — both compiles are
        // deterministic functions of immutable chunk layouts.
        let chunks: Arc<[ChunkProgram]> = self.plan_op_uncached(entry)?.into();
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(tel) = &self.telemetry {
            tel.plan_cache_misses.inc();
        }
        self.plan_cache().insert(entry.clone(), Arc::clone(&chunks));
        Ok(chunks)
    }

    /// Counts `n` plan-cache hits, in the stats and in telemetry.
    fn count_plan_hits(&self, n: u64) {
        self.plan_cache_hits.fetch_add(n, Ordering::Relaxed);
        if let Some(tel) = &self.telemetry {
            tel.plan_cache_hits.add(n);
        }
    }

    /// The locked plan cache. A thread that panicked while holding the
    /// lock may have left the map half-updated; the cache is only a memo,
    /// so recovery clears it and the next lookups recompile.
    fn plan_cache(&self) -> MutexGuard<'_, IdHashMap<BatchOp, Arc<[ChunkProgram]>>> {
        self.plan_cache.lock().unwrap_or_else(|poisoned| {
            self.plan_cache.clear_poison();
            let mut cache = poisoned.into_inner();
            cache.clear();
            cache
        })
    }

    /// Plan-cache hit and miss counts since construction (hits, misses).
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (
            self.plan_cache_hits.load(Ordering::Relaxed),
            self.plan_cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Validates an op and compiles its per-chunk programs. The checks run
    /// in a fixed order for every kind: arity, handle lookups (sources in
    /// operand order, then the destination), each source's size against
    /// the destination's, then per-chunk co-location.
    fn plan_op_uncached(&self, entry: &BatchOp) -> Result<Vec<ChunkProgram>> {
        let bad_arity = match entry {
            BatchOp::Bitwise { op, src2: None, .. } if op.source_count() == 2 => Some((*op, 1)),
            BatchOp::Fold { op, srcs, .. } if !fold_supported(*op) || srcs.len() < 2 => {
                Some((*op, srcs.len()))
            }
            _ => None,
        };
        if let Some((op, provided)) = bad_arity {
            return Err(AmbitError::WrongOperandCount {
                op: op.mnemonic(),
                expected: 2,
                provided,
            });
        }
        let srcs: Vec<&VectorMeta> = entry.reads().map(|h| self.meta(h)).collect::<Result<_>>()?;
        let md = self.meta(entry.writes())?;
        if let Some(m) = srcs.iter().find(|m| m.bits != md.bits) {
            return Err(AmbitError::SizeMismatch {
                left_bits: m.bits,
                right_bits: md.bits,
            });
        }
        let mut chunks = Vec::with_capacity(md.chunks.len());
        let mut src_rows = Vec::with_capacity(srcs.len());
        for (chunk, cd) in md.chunks.iter().enumerate() {
            src_rows.clear();
            for m in &srcs {
                let c = m.chunks[chunk];
                if c.bank != cd.bank || c.subarray != cd.subarray {
                    return Err(AmbitError::NotColocated { chunk });
                }
                src_rows.push(RowAddress::D(c.d_index));
            }
            let dst = RowAddress::D(cd.d_index);
            let program = match entry {
                // A self-copy is a no-op: eliding it avoids the degenerate
                // AAP(x, x), which re-activates the row already open
                // (wasted restore cycles, and a redundant copy activation
                // on the command trace).
                BatchOp::Bitwise { op: BitwiseOp::Copy, .. } if src_rows[0] == dst => continue,
                BatchOp::Bitwise { op, .. } => {
                    compile(*op, src_rows[0], src_rows.get(1).copied(), dst)?
                }
                BatchOp::Maj3 { .. } => {
                    compile_majority(src_rows[0], src_rows[1], src_rows[2], dst)
                }
                BatchOp::Fold { op, .. } => compile_fold(*op, &src_rows, dst)?,
            };
            chunks.push(ChunkProgram {
                bank: cd.bank,
                subarray: cd.subarray,
                program,
            });
        }
        Ok(chunks)
    }

    /// Issues an op's chunk programs: the timing pass in chunk order, then
    /// the functional pass per bank. Chunks live in different banks (the
    /// allocator stripes them), so their pipelines overlap on the shared
    /// timeline.
    fn issue_chunks(&mut self, chunks: &Arc<[ChunkProgram]>) -> Result<OpReceipt> {
        let geometry = *self.ctrl.geometry();
        self.pool.begin();
        let mut total: Option<OpReceipt> = None;
        for (c, chunk) in chunks.iter().enumerate() {
            let receipt = self.ctrl.time_program(chunk.bank, chunk.subarray, &chunk.program)?;
            let flat = chunk.bank.flat_index(&geometry);
            self.pool.queue(flat, (0, c), chunk.program.len());
            match &mut total {
                Some(t) => t.absorb(&receipt),
                None => total = Some(receipt),
            }
        }
        self.ctrl
            .run_bank_queues(&Plans::Op(Arc::clone(chunks)), &mut self.pool)?;
        // A fully-elided plan (e.g. a self-copy, which is a no-op) issues
        // no commands and costs nothing.
        Ok(total.unwrap_or_else(|| self.noop_receipt()))
    }

    /// A zero-cost receipt at the current simulated time, for operations
    /// whose plan elides every command (e.g. a self-copy).
    fn noop_receipt(&self) -> OpReceipt {
        let now = self.ctrl.timer().now_ps();
        OpReceipt {
            start_ps: now,
            end_ps: now,
            energy_nj: 0.0,
            aaps: 0,
            aps: 0,
        }
    }

    /// Writes host bits into the vector through the DRAM protocol (timed).
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::SizeMismatch`] if `bits.len()` differs from the
    /// allocation, or an unknown-handle error.
    pub fn write_bits(&mut self, handle: BitVectorHandle, bits: &[bool]) -> Result<()> {
        self.store_bits(handle, bits, false)
    }

    /// Backdoor write (no protocol, no timing) for workload setup.
    ///
    /// # Errors
    ///
    /// Same conditions as [`write_bits`](Self::write_bits).
    pub fn poke_bits(&mut self, handle: BitVectorHandle, bits: &[bool]) -> Result<()> {
        self.store_bits(handle, bits, true)
    }

    /// Backdoor write from a packed row-sized [`BitRow`] per chunk.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::SizeMismatch`] if the chunk count differs.
    pub fn poke_rows(&mut self, handle: BitVectorHandle, rows: &[BitRow]) -> Result<()> {
        self.poke_buffers(handle, rows.len(), rows.iter().map(|row| Arc::new(row.clone())))
    }

    /// [`poke_rows`](Self::poke_rows) from shared row buffers: each chunk's
    /// row takes a reference to its buffer, not a copy, so one buffer can
    /// back the same chunk of several vectors.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::SizeMismatch`] if the chunk count differs.
    pub(crate) fn poke_row_buffers(
        &mut self,
        handle: BitVectorHandle,
        rows: &[Arc<BitRow>],
    ) -> Result<()> {
        self.poke_buffers(handle, rows.len(), rows.iter().cloned())
    }

    /// Stores `count` row buffers, one per chunk in order.
    fn poke_buffers(
        &mut self,
        handle: BitVectorHandle,
        count: usize,
        rows: impl Iterator<Item = Arc<BitRow>>,
    ) -> Result<()> {
        let row_bits = self.row_bits();
        let meta = meta_of(&self.vectors, handle)?;
        if count != meta.chunks.len() {
            return Err(AmbitError::SizeMismatch {
                left_bits: count * row_bits,
                right_bits: meta.bits,
            });
        }
        for (row, chunk) in rows.zip(&meta.chunks) {
            self.ctrl
                .poke_data_buffer(chunk.bank, chunk.subarray, chunk.d_index, row)?;
        }
        Ok(())
    }

    /// Refreshes every row of the vector without writing it (no protocol,
    /// no timing): the retention stamps that
    /// [`poke_rows`](Self::poke_rows) of the rows' own values would leave.
    ///
    /// # Errors
    ///
    /// Returns an unknown-handle error for stale handles.
    pub(crate) fn refresh_rows(&mut self, handle: BitVectorHandle) -> Result<()> {
        let meta = meta_of(&self.vectors, handle)?;
        for chunk in &meta.chunks {
            self.ctrl
                .refresh_data(chunk.bank, chunk.subarray, chunk.d_index)?;
        }
        Ok(())
    }

    /// Backdoor read as one packed row-sized [`BitRow`] per chunk (no
    /// protocol, no timing): the mirror of [`poke_rows`](Self::poke_rows).
    /// Bits of the final row past the vector's length come back as stored.
    ///
    /// # Errors
    ///
    /// Returns an unknown-handle error for stale handles.
    pub fn peek_rows(&self, handle: BitVectorHandle) -> Result<Vec<BitRow>> {
        self.peek_row_refs(handle)?
            .map(|row| row.map(|row| BitRow::clone(row)))
            .collect()
    }

    /// Borrowing backdoor read: [`peek_rows`](Self::peek_rows) without the
    /// row copies, one row per chunk in order. Each item is the row's
    /// shared buffer, so a caller can keep it by reference.
    ///
    /// # Errors
    ///
    /// Returns an unknown-handle error for stale handles.
    pub(crate) fn peek_row_refs(
        &self,
        handle: BitVectorHandle,
    ) -> Result<impl Iterator<Item = Result<&Arc<BitRow>>> + '_> {
        let meta = self.meta(handle)?;
        Ok(meta.chunks.iter().map(|chunk| {
            self.ctrl
                .peek_data_row(chunk.bank, chunk.subarray, chunk.d_index)
        }))
    }

    /// Reads the vector's bits back to the host through the DRAM protocol
    /// (timed).
    ///
    /// # Errors
    ///
    /// Returns an unknown-handle error for stale handles.
    pub fn read_bits(&mut self, handle: BitVectorHandle) -> Result<Vec<bool>> {
        let meta = self.meta(handle)?.clone();
        let mut out = Vec::with_capacity(meta.bits);
        for chunk in &meta.chunks {
            let row = self.ctrl.read_data(chunk.bank, chunk.subarray, chunk.d_index)?;
            for i in 0..row.len() {
                if out.len() == meta.bits {
                    break;
                }
                out.push(row.get(i));
            }
        }
        Ok(out)
    }

    /// Backdoor read (no protocol, no timing).
    ///
    /// # Errors
    ///
    /// Returns an unknown-handle error for stale handles.
    pub fn peek_bits(&self, handle: BitVectorHandle) -> Result<Vec<bool>> {
        let meta = self.meta(handle)?;
        let mut out = Vec::with_capacity(meta.bits);
        for chunk in &meta.chunks {
            let row = self.ctrl.peek_data_row(chunk.bank, chunk.subarray, chunk.d_index)?;
            for i in 0..row.len() {
                if out.len() == meta.bits {
                    break;
                }
                out.push(row.get(i));
            }
        }
        Ok(out)
    }

    /// Population count of the vector, masking any padding in the final
    /// chunk. This models the CPU-side `bitcount` the paper's applications
    /// perform (the count itself is not an in-DRAM operation).
    ///
    /// # Errors
    ///
    /// Returns an unknown-handle error for stale handles.
    pub fn popcount(&self, handle: BitVectorHandle) -> Result<usize> {
        let meta = self.meta(handle)?;
        let row_bits = self.row_bits();
        let mut count = 0;
        for (i, chunk) in meta.chunks.iter().enumerate() {
            let row = self.ctrl.peek_data_row(chunk.bank, chunk.subarray, chunk.d_index)?;
            let valid = (meta.bits - i * row_bits).min(row_bits);
            if valid == row_bits {
                count += row.count_ones();
            } else {
                count += (0..valid).filter(|&b| row.get(b)).count();
            }
        }
        Ok(count)
    }

    /// Frees the allocation. Freed rows are not currently recycled (the
    /// allocator is an arena, sufficient for experiment workloads).
    ///
    /// Evicts from the plan cache exactly the entries whose op references
    /// the freed handle: those cached programs must not short-circuit the
    /// unknown-handle validation on later calls. Unrelated cached plans
    /// survive — handles are never reused after `free`, so a plan that
    /// does not mention the freed handle can never go stale through it,
    /// and long-lived query loops keep their warm cache across unrelated
    /// frees.
    ///
    /// # Errors
    ///
    /// Returns an unknown-handle error if already freed.
    pub fn free(&mut self, handle: BitVectorHandle) -> Result<()> {
        self.plan_cache().retain(|op, _| !op.involves(handle));
        if self
            .batch_plan
            .as_ref()
            .is_some_and(|plan| plan.ops.iter().any(|op| op.involves(handle)))
        {
            self.batch_plan = None;
        }
        self.vectors
            .remove(&handle.0)
            .map(|_| ())
            .ok_or(AmbitError::UnknownHandle { id: handle.0 })
    }

    fn meta(&self, handle: BitVectorHandle) -> Result<&VectorMeta> {
        meta_of(&self.vectors, handle)
    }

    fn store_bits(
        &mut self,
        handle: BitVectorHandle,
        bits: &[bool],
        backdoor: bool,
    ) -> Result<()> {
        let meta = self.meta(handle)?.clone();
        if bits.len() != meta.bits {
            return Err(AmbitError::SizeMismatch {
                left_bits: bits.len(),
                right_bits: meta.bits,
            });
        }
        let row_bits = self.row_bits();
        for (i, chunk) in meta.chunks.iter().enumerate() {
            let lo = i * row_bits;
            let hi = (lo + row_bits).min(bits.len());
            let row = BitRow::from_fn(row_bits, |b| lo + b < hi && bits[lo + b]);
            if backdoor {
                self.ctrl.poke_data(chunk.bank, chunk.subarray, chunk.d_index, &row)?;
            } else {
                self.ctrl.write_data(chunk.bank, chunk.subarray, chunk.d_index, &row)?;
            }
        }
        Ok(())
    }

    /// Placement sequence for the first `chunks` chunk indices of `group`:
    /// stripe across banks first, then subarrays — or, when a
    /// characterization profile is installed, walk its strongest-first
    /// order so the earliest (hottest) allocations get the most reliable
    /// subarrays. Groups keep their distinct starting offsets in both
    /// modes, so cross-group non-co-location is preserved.
    fn group_placements(&mut self, group: AllocGroup, chunks: usize) -> Vec<(usize, usize)> {
        let geometry = *self.ctrl.geometry();
        let banks = geometry.total_banks();
        let subarrays = geometry.subarrays_per_bank;
        let order = self.profile.as_ref().map(|p| p.order.clone());
        let seq = self.group_sequences.entry(group.0).or_default();
        while seq.len() < chunks {
            // Different groups start at different banks so that vectors from
            // unrelated groups do not collide in the same subarrays — and so
            // that cross-group operations genuinely fail co-location.
            let i = seq.len() + group.0 as usize;
            match &order {
                Some(order) => seq.push(order[i % order.len()]),
                None => {
                    let bank = i % banks;
                    let subarray = (i / banks) % subarrays;
                    seq.push((bank, subarray));
                }
            }
        }
        seq[..chunks].to_vec()
    }
}

// The driver is the top of the data plane: everything below it is plain
// owned data or already-atomic telemetry, and its own shared state is a
// lock-guarded plan cache plus atomic counters. `Send + Sync` here is what
// lets callers share one memory across OS threads (e.g. a `Mutex` of
// submitters plus lock-free readers); assert it at compile time so a
// `Cell`/`RefCell` regression fails here, not at a distant spawn site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AmbitMemory>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn memory() -> AmbitMemory {
        AmbitMemory::new(
            DramGeometry::tiny(),
            TimingParams::ddr3_1600(),
            AapMode::Overlapped,
        )
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut mem = memory();
        let bits = mem.row_bits() * 2 + 17; // unaligned tail
        let h = mem.alloc(bits).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let data: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
        mem.write_bits(h, &data).unwrap();
        assert_eq!(mem.read_bits(h).unwrap(), data);
        assert_eq!(mem.len_bits(h).unwrap(), bits);
        assert_eq!(mem.chunk_count(h).unwrap(), 3);
    }

    #[test]
    fn same_group_vectors_are_colocated_and_operable() {
        let mut mem = memory();
        let bits = mem.row_bits() * 4;
        let a = mem.alloc(bits).unwrap();
        let b = mem.alloc(bits).unwrap();
        let c = mem.alloc(bits).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let da: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
        let db: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
        mem.poke_bits(a, &da).unwrap();
        mem.poke_bits(b, &db).unwrap();
        mem.bitwise(BitwiseOp::And, a, Some(b), c).unwrap();
        let got = mem.peek_bits(c).unwrap();
        for i in 0..bits {
            assert_eq!(got[i], da[i] && db[i], "bit {i}");
        }
    }

    #[test]
    fn different_groups_are_not_colocated() {
        let mut mem = memory();
        let bits = mem.row_bits();
        let a = mem.alloc_in_group(bits, AllocGroup(0)).unwrap();
        let b = mem.alloc_in_group(bits, AllocGroup(1)).unwrap();
        let dst = mem.alloc_in_group(bits, AllocGroup(0)).unwrap();
        // Group 1 starts in a different bank: the driver cannot use
        // RowClone-FPM between these operands.
        assert_eq!(
            mem.bitwise(BitwiseOp::Or, a, Some(b), dst).unwrap_err(),
            AmbitError::NotColocated { chunk: 0 }
        );
        // Operands within group 0 still work.
        let c = mem.alloc_in_group(bits, AllocGroup(0)).unwrap();
        assert!(mem.bitwise(BitwiseOp::Or, a, Some(c), dst).is_ok());
    }

    #[test]
    fn chunks_stripe_across_banks() {
        let mut mem = memory();
        let bits = mem.row_bits() * 2; // tiny geometry has 2 banks
        let h = mem.alloc(bits).unwrap();
        let meta = mem.meta(h).unwrap();
        assert_ne!(meta.chunks[0].bank, meta.chunks[1].bank);
    }

    #[test]
    fn multi_chunk_ops_overlap_across_banks() {
        let mut mem = memory();
        let row = mem.row_bits();
        let a = mem.alloc(row * 2).unwrap();
        let b = mem.alloc(row * 2).unwrap();
        let c = mem.alloc(row * 2).unwrap();
        let receipt = mem.bitwise(BitwiseOp::And, a, Some(b), c).unwrap();
        // Two AND chunk-programs of 4 AAPs each: serial would be 2×196 ns;
        // bank overlap should keep the makespan well under that.
        assert!(
            receipt.latency_ps() < 2 * 196_000,
            "latency {} should reflect bank parallelism",
            receipt.latency_ps()
        );
        assert_eq!(receipt.aaps, 8);
    }

    #[test]
    fn popcount_masks_padding() {
        let mut mem = memory();
        let bits = mem.row_bits() + 3;
        let h = mem.alloc(bits).unwrap();
        mem.poke_bits(h, &vec![true; bits]).unwrap();
        // NOT the vector: padding bits in DRAM become 1, but popcount of the
        // complement must still be 0 over the logical length.
        let out = mem.alloc(bits).unwrap();
        mem.bitwise(BitwiseOp::Not, h, None, out).unwrap();
        assert_eq!(mem.popcount(out).unwrap(), 0);
        assert_eq!(mem.popcount(h).unwrap(), bits);
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut mem = memory();
        let a = mem.alloc(64).unwrap();
        let b = mem.alloc(128).unwrap();
        let c = mem.alloc(64).unwrap();
        assert!(matches!(
            mem.bitwise(BitwiseOp::And, a, Some(b), c).unwrap_err(),
            AmbitError::SizeMismatch { .. }
        ));
    }

    #[test]
    fn missing_operand_rejected() {
        let mut mem = memory();
        let a = mem.alloc(64).unwrap();
        let c = mem.alloc(64).unwrap();
        assert!(matches!(
            mem.bitwise(BitwiseOp::And, a, None, c).unwrap_err(),
            AmbitError::WrongOperandCount { .. }
        ));
    }

    #[test]
    fn out_of_memory_detected() {
        let mut mem = memory();
        // tiny: 32 rows/subarray → 14 data rows per subarray, 2 banks × 2
        // subarrays. One giant vector per subarray slot exhausts them.
        let row = mem.row_bits();
        let capacity_rows = 14 * 4;
        let h = mem.alloc(row * capacity_rows);
        assert!(h.is_ok());
        assert!(matches!(
            mem.alloc(row).unwrap_err(),
            AmbitError::OutOfMemory { .. }
        ));
    }

    #[test]
    fn stale_handle_rejected() {
        let mut mem = memory();
        let h = mem.alloc(10).unwrap();
        mem.free(h).unwrap();
        assert!(matches!(
            mem.popcount(h).unwrap_err(),
            AmbitError::UnknownHandle { .. }
        ));
        assert!(mem.free(h).is_err());
    }

    #[test]
    fn bitwise_fold_matches_chained_ops() {
        let mut mem = memory();
        let bits = mem.row_bits() * 2;
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let srcs: Vec<BitVectorHandle> = (0..5).map(|_| mem.alloc(bits).unwrap()).collect();
        let data: Vec<Vec<bool>> = (0..5)
            .map(|_| (0..bits).map(|_| rng.gen()).collect())
            .collect();
        for (&h, d) in srcs.iter().zip(&data) {
            mem.poke_bits(h, d).unwrap();
        }
        let folded = mem.alloc(bits).unwrap();
        let fold_receipt = mem.bitwise_fold(BitwiseOp::Or, &srcs, folded).unwrap();

        let chained = mem.alloc(bits).unwrap();
        let mut chain_receipt = mem
            .bitwise(BitwiseOp::Copy, srcs[0], None, chained)
            .unwrap();
        for &h in &srcs[1..] {
            chain_receipt.absorb(&mem.bitwise(BitwiseOp::Or, chained, Some(h), chained).unwrap());
        }
        assert_eq!(mem.peek_bits(folded).unwrap(), mem.peek_bits(chained).unwrap());
        assert!(fold_receipt.energy_nj < chain_receipt.energy_nj, "fold saves energy");
    }

    #[test]
    fn maj3_computes_bitwise_majority() {
        let mut mem = memory();
        let bits = mem.row_bits();
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let handles: Vec<BitVectorHandle> = (0..4).map(|_| mem.alloc(bits).unwrap()).collect();
        let data: Vec<Vec<bool>> = (0..3)
            .map(|_| (0..bits).map(|_| rng.gen()).collect())
            .collect();
        for (h, d) in handles.iter().zip(&data) {
            mem.poke_bits(*h, d).unwrap();
        }
        let receipt = mem
            .bitwise_maj3(handles[0], handles[1], handles[2], handles[3])
            .unwrap();
        assert_eq!(receipt.aaps, 4, "same cost as an AND");
        let got = mem.peek_bits(handles[3]).unwrap();
        for i in 0..bits {
            let votes = data[0][i] as u8 + data[1][i] as u8 + data[2][i] as u8;
            assert_eq!(got[i], votes >= 2, "bit {i}");
        }
    }

    #[test]
    fn bitwise_fold_rejects_bad_shapes() {
        let mut mem = memory();
        let a = mem.alloc(64).unwrap();
        let b = mem.alloc(64).unwrap();
        let d = mem.alloc(64).unwrap();
        assert!(matches!(
            mem.bitwise_fold(BitwiseOp::Xor, &[a, b], d).unwrap_err(),
            AmbitError::WrongOperandCount { .. }
        ));
        assert!(matches!(
            mem.bitwise_fold(BitwiseOp::Or, &[a], d).unwrap_err(),
            AmbitError::WrongOperandCount { .. }
        ));
        let long = mem.alloc(128).unwrap();
        assert!(matches!(
            mem.bitwise_fold(BitwiseOp::Or, &[a, long], d).unwrap_err(),
            AmbitError::SizeMismatch { .. }
        ));
    }

    #[test]
    fn salp_overlaps_chunks_within_one_bank() {
        let geometry = DramGeometry {
            banks: 1,
            subarrays_per_bank: 4,
            rows_per_subarray: 32,
            row_bytes: 16,
            ..DramGeometry::tiny()
        };
        let run = |salp: bool| {
            let mut mem =
                AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
            mem.set_salp(salp);
            let bits = 4 * mem.row_bits();
            let a = mem.alloc(bits).unwrap();
            let b = mem.alloc(bits).unwrap();
            let d = mem.alloc(bits).unwrap();
            mem.poke_bits(a, &vec![true; bits]).unwrap();
            mem.poke_bits(b, &vec![true; bits]).unwrap();
            let r = mem.bitwise(BitwiseOp::And, a, Some(b), d).unwrap();
            assert_eq!(mem.popcount(d).unwrap(), bits, "correctness unchanged");
            r.latency_ps()
        };
        let base = run(false);
        let salp = run(true);
        assert!(
            (salp as f64) < 0.4 * base as f64,
            "4 subarrays should overlap: {salp} vs {base}"
        );
    }

    #[test]
    fn telemetry_records_ops_and_spans() {
        let mut mem = memory();
        mem.set_telemetry(Registry::default());
        let bits = mem.row_bits() * 2;
        let a = mem.alloc(bits).unwrap();
        let b = mem.alloc(bits).unwrap();
        let d = mem.alloc(bits).unwrap();
        mem.poke_bits(a, &vec![true; bits]).unwrap();
        mem.poke_bits(b, &vec![false; bits]).unwrap();
        let r1 = mem.bitwise(BitwiseOp::And, a, Some(b), d).unwrap();
        let r2 = mem.bitwise(BitwiseOp::Xor, a, Some(b), d).unwrap();
        mem.bitwise(BitwiseOp::Xor, a, Some(b), d).unwrap();

        let reg = mem.telemetry().unwrap().clone();
        assert_eq!(
            reg.counter_value("ambit_ops_total", &[("op", "bbop_and")]),
            Some(1)
        );
        assert_eq!(
            reg.counter_value("ambit_ops_total", &[("op", "bbop_xor")]),
            Some(2)
        );
        // Per-op energy histogram sums to the receipts' energies; the
        // controller-level per-command histogram agrees with the timer's
        // energy account.
        let snap = reg.histogram_snapshot("ambit_op_energy_nj", &[]).unwrap();
        assert_eq!(snap.count, 3);
        assert!((snap.sum - (r1.energy_nj + 2.0 * r2.energy_nj)).abs() < 1e-6);
        // One span per operation, denominated in simulated nanoseconds.
        let spans = reg.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "driver.bitwise");
        assert_eq!(spans[0].duration_ns(), r1.latency_ps() / PS_PER_NS);
        // Per-bank ACT counters flowed through to the controller level.
        assert!(reg.counter_family_total("ambit_acts_total").unwrap() > 0);
    }

    #[test]
    fn batch_phases_are_timed_only_with_telemetry() {
        let mut mem = memory();
        let bits = mem.row_bits();
        let a = mem.alloc(bits).unwrap();
        let d = mem.alloc(bits).unwrap();
        let mut batch = BatchBuilder::new();
        batch.bitwise(BitwiseOp::Not, a, None, d);
        let parallel = IssuePolicy::BankParallel;
        mem.execute_batch(&batch, parallel).unwrap();
        let reg = Registry::default();
        mem.set_telemetry(reg.clone());
        mem.execute_batch(&batch, parallel).unwrap();
        mem.execute_batch(&batch, IssuePolicy::Serial).unwrap();
        for phase in ["waves", "plan", "issue", "fanout"] {
            let h = reg
                .histogram_snapshot("ambit_batch_phase_host_us", &[("phase", phase)])
                .unwrap();
            assert_eq!(h.count, 2, "one per batch since attach ({phase})");
            assert!(h.sum >= 0.0);
        }
        // Both policies run their functional pass through the fan-out.
        let fanout = reg
            .histogram_snapshot("ambit_batch_phase_host_us", &[("phase", "fanout")])
            .unwrap();
        assert!(fanout.sum > 0.0, "the functional pass is timed for every batch");
    }

    #[test]
    fn plan_cache_hits_repeated_ops_and_evicts_on_free() {
        let mut mem = memory();
        mem.set_telemetry(Registry::default());
        let bits = mem.row_bits() * 2;
        let a = mem.alloc(bits).unwrap();
        let b = mem.alloc(bits).unwrap();
        let d = mem.alloc(bits).unwrap();
        mem.poke_bits(a, &vec![true; bits]).unwrap();
        mem.poke_bits(b, &vec![false; bits]).unwrap();

        // Same-shape query loop: first iteration compiles, the rest hit.
        for _ in 0..4 {
            mem.bitwise(BitwiseOp::And, a, Some(b), d).unwrap();
        }
        assert_eq!(mem.plan_cache_stats(), (3, 1));
        // A different shape misses separately.
        mem.bitwise(BitwiseOp::Or, a, Some(b), d).unwrap();
        assert_eq!(mem.plan_cache_stats(), (3, 2));

        // Cached plans are bit-identical to freshly compiled ones.
        assert_eq!(mem.popcount(d).unwrap(), bits);

        let reg = mem.telemetry().unwrap().clone();
        assert_eq!(reg.counter_value("ambit_driver_plan_cache_hits", &[]), Some(3));
        assert_eq!(reg.counter_value("ambit_driver_plan_cache_misses", &[]), Some(2));

        // Freeing a handle evicts every entry referencing it: the stale
        // programs must not bypass unknown-handle validation.
        mem.free(b).unwrap();
        assert!(mem.bitwise(BitwiseOp::And, a, Some(b), d).is_err());
        mem.poke_bits(a, &vec![true; bits]).unwrap();
        mem.bitwise(BitwiseOp::Not, a, None, d).unwrap();
        assert_eq!(mem.plan_cache_stats().0, 3, "no hits after the eviction");
    }

    #[test]
    fn free_drops_a_reused_batch_plan_that_references_the_handle() {
        let mut mem = memory();
        let bits = mem.row_bits();
        let [a, b, d, other] = [0; 4].map(|_| mem.alloc(bits).unwrap());
        let mut batch = BatchBuilder::new();
        batch.bitwise(BitwiseOp::Or, a, Some(b), d);
        mem.execute_batch(&batch, IssuePolicy::Serial).unwrap();
        let kept = mem.batch_plan.clone().expect("the batch's plan is kept");
        mem.execute_batch(&batch, IssuePolicy::Serial).unwrap();
        assert!(
            Arc::ptr_eq(&kept, mem.batch_plan.as_ref().unwrap()),
            "an identical batch reuses the plan"
        );
        mem.free(other).unwrap();
        assert!(mem.batch_plan.is_some(), "an unrelated free keeps it");
        mem.free(b).unwrap();
        assert!(mem.batch_plan.is_none(), "freeing an operand drops it");
        // The stale batch fails validation instead of replaying the plan.
        assert_eq!(
            mem.execute_batch(&batch, IssuePolicy::Serial).unwrap_err(),
            AmbitError::UnknownHandle { id: b.0 }
        );
    }

    #[test]
    fn ops_sharing_handles_keep_separate_plan_cache_entries() {
        let mut mem = memory();
        let bits = mem.row_bits() * 2;
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let [a, b, c, d] = [(); 4].map(|_| mem.alloc(bits).unwrap());
        let data: Vec<Vec<bool>> = (0..3)
            .map(|_| (0..bits).map(|_| rng.gen()).collect())
            .collect();
        for (&h, v) in [a, b, c].iter().zip(&data) {
            mem.poke_bits(h, v).unwrap();
        }
        let expect = |f: fn(bool, bool, bool) -> bool| -> Vec<bool> {
            (0..bits)
                .map(|i| f(data[0][i], data[1][i], data[2][i]))
                .collect()
        };
        let or3 = expect(|x, y, z| x | y | z);
        let maj = expect(|x, y, z| (x & y) | (y & z) | (z & x));

        // Fold: operand order and the op are part of the key.
        for srcs in [[a, b, c], [c, b, a], [b, a, c]] {
            mem.bitwise_fold(BitwiseOp::Or, &srcs, d).unwrap();
            assert_eq!(mem.peek_bits(d).unwrap(), or3);
        }
        assert_eq!(mem.plan_cache_stats(), (0, 3));
        mem.bitwise_fold(BitwiseOp::And, &[a, b, c], d).unwrap();
        assert_eq!(mem.peek_bits(d).unwrap(), expect(|x, y, z| x & y & z));
        mem.bitwise_fold(BitwiseOp::Or, &[c, b, a], d).unwrap();
        assert_eq!(mem.peek_bits(d).unwrap(), or3);
        assert_eq!(mem.plan_cache_stats(), (1, 4));

        // Bitwise with and without `src2`, over the same first source.
        mem.bitwise(BitwiseOp::And, a, Some(b), d).unwrap();
        assert_eq!(mem.peek_bits(d).unwrap(), expect(|x, y, _| x & y));
        mem.bitwise(BitwiseOp::Xor, b, Some(a), d).unwrap();
        assert_eq!(mem.peek_bits(d).unwrap(), expect(|x, y, _| x ^ y));
        mem.bitwise(BitwiseOp::Not, a, None, d).unwrap();
        assert_eq!(mem.peek_bits(d).unwrap(), expect(|x, _, _| !x));
        mem.bitwise(BitwiseOp::Copy, a, None, d).unwrap();
        assert_eq!(mem.peek_bits(d).unwrap(), data[0]);
        assert!(
            mem.bitwise(BitwiseOp::Not, a, Some(b), d).is_err(),
            "a one-source op given two sources fails and is not cached"
        );
        assert_eq!(mem.plan_cache_stats(), (1, 8));
        mem.bitwise(BitwiseOp::Not, a, None, d).unwrap();
        assert_eq!(mem.peek_bits(d).unwrap(), expect(|x, _, _| !x));
        mem.bitwise(BitwiseOp::And, b, Some(a), d).unwrap();
        assert_eq!(mem.peek_bits(d).unwrap(), expect(|x, y, _| x & y));
        assert_eq!(mem.plan_cache_stats(), (2, 9));

        // Maj3: each operand order is its own entry.
        for (x, y, z) in [(a, b, c), (b, c, a), (c, a, b), (a, c, b)] {
            mem.bitwise_maj3(x, y, z, d).unwrap();
            assert_eq!(mem.peek_bits(d).unwrap(), maj);
        }
        assert_eq!(mem.plan_cache_stats(), (2, 13));
        mem.bitwise_maj3(c, a, b, d).unwrap();
        assert_eq!(mem.peek_bits(d).unwrap(), maj);
        assert_eq!(mem.plan_cache_stats(), (3, 13));
    }

    #[test]
    fn poisoned_plan_cache_recovers_and_recompiles() {
        let mut mem = memory();
        let bits = mem.row_bits();
        let a = mem.alloc(bits).unwrap();
        let d = mem.alloc(bits).unwrap();
        mem.poke_bits(a, &vec![true; bits]).unwrap();
        mem.bitwise(BitwiseOp::Not, a, None, d).unwrap();
        assert_eq!(mem.plan_cache_stats(), (0, 1));

        let shared = &mem;
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = shared.plan_cache.lock().unwrap();
                panic!("planner died holding the plan cache lock");
            })
            .join()
        });
        assert!(outcome.is_err());
        assert!(mem.plan_cache.is_poisoned());

        // The poisoned memo is dropped, not trusted: the repeat op compiles
        // afresh (a miss, not a hit) and the lock is healthy afterwards.
        mem.bitwise(BitwiseOp::Not, a, None, d).unwrap();
        assert_eq!(mem.plan_cache_stats(), (0, 2));
        assert!(!mem.plan_cache.is_poisoned());
        assert_eq!(mem.popcount(d).unwrap(), 0);
        mem.bitwise(BitwiseOp::Not, a, None, d).unwrap();
        assert_eq!(mem.plan_cache_stats(), (1, 2));
    }

    #[test]
    fn panicking_fanout_job_leaves_memory_usable() {
        // 128 KB rows: the three-op batch below offloads enough work to
        // dispatch to a parked worker.
        let wide = || {
            AmbitMemory::new(
                DramGeometry {
                    row_bytes: 128 * 1024,
                    ..DramGeometry::tiny()
                },
                TimingParams::ddr3_1600(),
                AapMode::Overlapped,
            )
        };
        let mut threaded = wide();
        let mut serial = wide();
        threaded.set_pool_threads(4);
        serial.set_pool_threads(1);
        let bits = 2 * threaded.row_bits();
        let mut rng = ChaCha8Rng::seed_from_u64(0x9a41c);
        let handles: Vec<BitVectorHandle> = (0..4)
            .map(|_| {
                let h = threaded.alloc(bits).unwrap();
                assert_eq!(serial.alloc(bits).unwrap(), h);
                let data: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
                threaded.poke_bits(h, &data).unwrap();
                serial.poke_bits(h, &data).unwrap();
                h
            })
            .collect();

        // A queue entry that names no plan panics on the thread that runs
        // it, before any command reaches the bank.
        threaded.pool.begin();
        threaded.pool.queue(0, (0, 0), 0);
        threaded.pool.queue(1, (0, 0), 0);
        let empty = Plans::Op(Vec::new().into());
        let layout = *threaded.ctrl.layout();
        let banks = threaded.ctrl.device_mut().banks_mut();
        let err = threaded.pool.run(banks, &empty, layout, 1).unwrap_err();
        assert!(
            matches!(&err, AmbitError::ExecutorPanicked { message } if message.contains("out of")),
            "{err}"
        );

        let mut batch = BatchBuilder::new();
        batch.bitwise(BitwiseOp::Xor, handles[0], Some(handles[1]), handles[2]);
        batch.bitwise(BitwiseOp::And, handles[2], Some(handles[0]), handles[3]);
        batch.bitwise(BitwiseOp::Not, handles[3], None, handles[1]);
        threaded.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
        serial.execute_batch(&batch, IssuePolicy::Serial).unwrap();
        for &h in &handles {
            assert_eq!(threaded.peek_bits(h).unwrap(), serial.peek_bits(h).unwrap());
        }
        assert_eq!(
            threaded.controller().device().stats(),
            serial.controller().device().stats()
        );
        let stats = threaded.pool_stats();
        assert_eq!(stats.worker_panics, 2, "both banks' queues panicked");
        assert_eq!(
            (stats.warm_dispatches, stats.cold_spawns),
            (1, 1),
            "the batch dispatched to a parked worker after the panic: {stats:?}"
        );
    }

    #[test]
    fn accumulating_ops_in_place() {
        // dst == src1 works: or-accumulate a sequence of vectors.
        let mut mem = memory();
        let bits = mem.row_bits();
        let acc = mem.alloc(bits).unwrap();
        let parts: Vec<_> = (0..3).map(|_| mem.alloc(bits).unwrap()).collect();
        for (i, &p) in parts.iter().enumerate() {
            let data: Vec<bool> = (0..bits).map(|b| b % 3 == i).collect();
            mem.poke_bits(p, &data).unwrap();
            mem.bitwise(BitwiseOp::Or, acc, Some(p), acc).unwrap();
        }
        assert_eq!(mem.popcount(acc).unwrap(), bits);
    }

    /// A full-permutation profile for the tiny geometry whose strongest
    /// subarray is `(1, 1)` (flat 3).
    fn tiny_profile(weak_cells: Vec<Vec<(usize, usize)>>) -> PlacementProfile {
        PlacementProfile {
            order: vec![(1, 1), (0, 0), (0, 1), (1, 0)],
            weak_cells,
            bins: vec![1, 2, 1, 0],
        }
    }

    #[test]
    fn profile_steers_placement_to_strongest_subarray() {
        let mut mem = memory();
        mem.install_profile(tiny_profile(vec![vec![]; 4])).unwrap();
        let bits = mem.row_bits();
        let a = mem.alloc(bits).unwrap();
        let b = mem.alloc(bits).unwrap();
        let geometry = *mem.ctrl.geometry();
        for h in [a, b] {
            let chunk = mem.meta(h).unwrap().chunks[0];
            assert_eq!(
                (chunk.bank.flat_index(&geometry), chunk.subarray),
                (1, 1),
                "single-chunk allocations in the default group follow order[0]"
            );
        }
        // Multi-chunk allocations walk the order, not the default stripe.
        let wide = mem.alloc(bits * 3).unwrap();
        let placements: Vec<(usize, usize)> = mem.meta(wide).unwrap().chunks
            [..3]
            .iter()
            .map(|c| (c.bank.flat_index(&geometry), c.subarray))
            .collect();
        assert_eq!(placements, vec![(1, 1), (0, 0), (0, 1)]);
        // Ops still work under profiled placement.
        let d = mem.alloc(bits).unwrap();
        mem.poke_bits(a, &vec![true; bits]).unwrap();
        mem.poke_bits(b, &vec![true; bits]).unwrap();
        mem.bitwise(BitwiseOp::And, a, Some(b), d).unwrap();
        assert_eq!(mem.popcount(d).unwrap(), bits);
        // Bin codes: (1,1) is flat 3 → bin 0; the wide vector also touches
        // flat 0 (bin 1) and flat 1 (bin 2).
        assert_eq!(mem.handle_bin(a).unwrap(), 0);
        assert_eq!(mem.handle_bin(wide).unwrap(), 2);
    }

    #[test]
    fn handle_bin_defaults_to_nominal_without_profile() {
        let mut mem = memory();
        let h = mem.alloc(32).unwrap();
        assert_eq!(mem.handle_bin(h).unwrap(), 1);
        assert!(mem.handle_bin(BitVectorHandle(999)).is_err());
    }

    #[test]
    fn profile_preremaps_weak_rows_at_alloc_time() {
        let mut mem = memory();
        mem.set_telemetry(Registry::default());
        mem.reserve_spare_rows(2).unwrap();
        // Poison the first two data rows of the strongest subarray (1, 1).
        let weak_row_0 = mem.ctrl.layout().data_row(0).unwrap();
        let weak_row_1 = mem.ctrl.layout().data_row(1).unwrap();
        let mut weak = vec![vec![]; 4];
        weak[3] = vec![(weak_row_0, 5), (weak_row_1, 17)];
        mem.install_profile(tiny_profile(weak)).unwrap();

        let bits = mem.row_bits();
        let a = mem.alloc(bits).unwrap(); // lands on d0 → pre-remapped
        let b = mem.alloc(bits).unwrap(); // lands on d1 → pre-remapped
        assert_eq!(mem.bad_rows().len(), 2);
        assert_eq!(mem.spare_rows_free(), 2 * 4 - 2);
        let reg = mem.telemetry().unwrap().clone();
        assert_eq!(
            reg.counter_value("ambit_characterization_preremaps_total", &[]),
            Some(2)
        );
        assert_eq!(
            reg.gauge_value("ambit_characterization_profile_armed", &[]),
            Some(1.0)
        );
        // The remapped rows behave like clean memory.
        let d = mem.alloc(bits).unwrap();
        mem.poke_bits(a, &vec![true; bits]).unwrap();
        mem.poke_bits(b, &vec![true; bits]).unwrap();
        mem.bitwise(BitwiseOp::Xor, a, Some(b), d).unwrap();
        assert_eq!(mem.popcount(d).unwrap(), 0);
    }

    #[test]
    fn preremap_surfaces_spare_exhaustion_at_alloc_not_mid_op() {
        let mut mem = memory();
        mem.reserve_spare_rows(1).unwrap();
        // More weak rows in the strongest subarray than spares.
        let weak_row_0 = mem.ctrl.layout().data_row(0).unwrap();
        let weak_row_1 = mem.ctrl.layout().data_row(1).unwrap();
        let mut weak = vec![vec![]; 4];
        weak[3] = vec![(weak_row_0, 0), (weak_row_1, 0)];
        mem.install_profile(tiny_profile(weak)).unwrap();

        let bits = mem.row_bits();
        let a = mem.alloc(bits).unwrap(); // consumes the only spare
        assert_eq!(
            mem.alloc(bits).unwrap_err(),
            AmbitError::SpareRowsExhausted { bank: 1, subarray: 1 },
            "exhaustion must surface at placement time"
        );
        // The failed allocation was rolled back; the earlier handle and
        // later allocations still work.
        assert_eq!(mem.bad_rows().len(), 1);
        mem.poke_bits(a, &vec![true; bits]).unwrap();
        assert_eq!(mem.popcount(a).unwrap(), bits);
    }

    #[test]
    fn install_profile_validates_shape_and_timing() {
        let reason = |err: AmbitError| match err {
            AmbitError::ProfileRejected { reason } => reason,
            other => panic!("expected ProfileRejected, got {other:?}"),
        };
        // Too-short order.
        let mut mem = memory();
        let mut p = tiny_profile(vec![vec![]; 4]);
        p.order.pop();
        assert!(reason(mem.install_profile(p).unwrap_err()).contains("exactly once"));
        // Duplicate entry.
        let mut p = tiny_profile(vec![vec![]; 4]);
        p.order[1] = (1, 1);
        assert!(reason(mem.install_profile(p).unwrap_err()).contains("twice"));
        // Out-of-geometry entry.
        let mut p = tiny_profile(vec![vec![]; 4]);
        p.order[2] = (5, 0);
        assert!(reason(mem.install_profile(p).unwrap_err()).contains("outside"));
        // Weak cell out of range.
        let mut weak = vec![vec![]; 4];
        weak[0] = vec![(1000, 0)];
        let p = tiny_profile(weak);
        assert!(reason(mem.install_profile(p).unwrap_err()).contains("weak cell"));
        // Bad bin code.
        let mut p = tiny_profile(vec![vec![]; 4]);
        p.bins[0] = 7;
        assert!(reason(mem.install_profile(p).unwrap_err()).contains("bins"));
        // After an allocation it is too late.
        mem.alloc(8).unwrap();
        let p = tiny_profile(vec![vec![]; 4]);
        assert!(reason(mem.install_profile(p).unwrap_err()).contains("before any allocation"));
    }

    mod preremap_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Satellite invariant: pre-remapping a row and then operating
            /// is byte-for-byte identical to the same ops on a clean,
            /// never-remapped device.
            #[test]
            fn preremap_then_op_matches_clean_device(
                seed in 0u64..500,
                bit in 0usize..256,
                op_idx in 0usize..3,
            ) {
                let op = [BitwiseOp::And, BitwiseOp::Or, BitwiseOp::Xor][op_idx];
                let bits = 256; // two chunks on the tiny geometry
                let run = |remap: bool| {
                    let mut mem = memory();
                    mem.reserve_spare_rows(2).unwrap();
                    let a = mem.alloc(bits).unwrap();
                    let b = mem.alloc(bits).unwrap();
                    let d = mem.alloc(bits).unwrap();
                    if remap {
                        mem.remap_bit(a, bit).unwrap();
                    }
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let da: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
                    let db: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
                    mem.poke_bits(a, &da).unwrap();
                    mem.poke_bits(b, &db).unwrap();
                    mem.bitwise(op, a, Some(b), d).unwrap();
                    (mem.peek_bits(a).unwrap(), mem.peek_bits(d).unwrap())
                };
                prop_assert_eq!(run(true), run(false));
            }
        }
    }
}
