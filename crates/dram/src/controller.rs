//! Command-level timing model: a DDR command bus with per-bank state and
//! timing-constraint enforcement.
//!
//! [`CommandTimer`] plays the role of the memory controller's timing engine:
//! commands are issued in program order on a shared command bus (one command
//! per clock), and each command is scheduled at the earliest cycle that
//! satisfies the JEDEC-style constraints (tRCD, tRAS, tRP, tCCD, tRRD,
//! tFAW). Ambit's AAP and AP primitives are built on top as helpers.
//!
//! Two aspects are configurable because they are the subject of paper
//! sections:
//!
//! * [`AapMode`]: naive serial AAP (2·tRAS + tRP) versus the split-row-
//!   decoder overlapped AAP (tRAS + 4 ns + tRP) of Section 5.3.
//! * Inter-bank constraint enforcement (tRRD/tFAW): the paper's throughput
//!   projections assume bank-level parallelism is unconstrained for in-DRAM
//!   operations (no data bursts leave the chip); enabling enforcement
//!   quantifies how much command-bus/power constraints would cost, which we
//!   report as an ablation.

use std::collections::VecDeque;

use ambit_telemetry::{Counter, Histogram, Registry};

use crate::energy::{EnergyAccount, EnergyModel};
use crate::error::{DramError, Result};
use crate::timing::{AapMode, TimingParams};

/// One command on the trace a [`CommandTimer`] can record — the same
/// information a Ramulator-style trace file carries, useful for verifying
/// command sequences and for feeding external analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Issue time in picoseconds.
    pub at_ps: u64,
    /// Target bank (flat index).
    pub bank: usize,
    /// The command.
    pub command: TraceCommand,
}

/// Command kinds recorded on the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCommand {
    /// ACTIVATE raising `wordlines` wordlines.
    Activate {
        /// Wordlines raised (1 = ordinary, 2/3 = Ambit multi-row).
        wordlines: usize,
        /// Row address of the first raised wordline, when the issuer knows
        /// it (the timer itself is address-free, so untagged issues record
        /// `None`). Trace validators use this to tell a legal AAP copy
        /// activation apart from an illegal re-ACTIVATE of a new row.
        row: Option<usize>,
    },
    /// PRECHARGE.
    Precharge,
    /// Column READ burst.
    Read,
    /// Column WRITE burst.
    Write,
}

/// Per-channel command-bus state: one DDR channel is one command bus, one
/// data bus, and one tRRD/tFAW activation window. Everything order-dependent
/// on a channel lives here, so channels overlap freely in simulated time.
#[derive(Debug, Clone, Default)]
struct ChannelLane {
    /// Current time on this channel's command bus (the cycle after the last
    /// issued command).
    now_ps: u64,
    /// Earliest time this channel's data bus can carry the next column
    /// burst: per-bank timelines overlap freely on row commands, but
    /// READ/WRITE bursts from any bank of the channel stay tCCD apart.
    bus_col_ready_ps: u64,
    /// Issue times of recent ACTIVATEs on this channel, for tFAW.
    recent_acts: VecDeque<u64>,
    /// Issue time of the most recent ACTIVATE on this channel, for tRRD.
    last_act_ps: Option<u64>,
    /// Energy accumulated by commands issued on this channel. Kept
    /// per-lane (and summed on read) so a receipt's energy delta is a pure
    /// function of that channel's own command sequence — independent of how
    /// other channels' f64 additions interleave with it.
    energy: EnergyAccount,
}

/// Per-bank timing state.
#[derive(Debug, Clone, Copy, Default)]
struct BankTiming {
    /// Earliest time a PRECHARGE may issue (ACT + tRAS, extended by
    /// overlapped copy-ACTs).
    pre_ready_ps: u64,
    /// Earliest time an ACTIVATE may issue (PRE + tRP).
    act_ready_ps: u64,
    /// Earliest time a column command may issue (ACT + tRCD).
    col_ready_ps: u64,
    /// Whether the bank currently has an open row.
    active: bool,
    /// Issue time of the first ACTIVATE of the current open interval.
    first_act_ps: u64,
    /// ACTIVATE commands ever issued to this bank — a generation counter
    /// external row-state caches (the FR-FCFS scheduler) reconcile against.
    acts: u64,
    /// Accumulated open-row occupancy over closed ACT→PRE+tRP intervals.
    busy_ps: u64,
}

/// Issue/occupancy statistics for a [`CommandTimer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerStats {
    /// ACTIVATE commands issued.
    pub activates: u64,
    /// PRECHARGE commands issued.
    pub precharges: u64,
    /// Column READ bursts issued.
    pub reads: u64,
    /// Column WRITE bursts issued.
    pub writes: u64,
    /// AAP primitives completed.
    pub aaps: u64,
    /// AP primitives completed.
    pub aps: u64,
}

/// DDR command-bus timing engine with per-bank constraint tracking.
///
/// # Examples
///
/// An AAP on DDR3-1600 takes 49 ns with the split decoder and 80 ns without
/// (paper Section 5.3):
///
/// ```
/// use ambit_dram::{AapMode, CommandTimer, TimingParams};
///
/// let mut fast = CommandTimer::new(TimingParams::ddr3_1600(), AapMode::Overlapped);
/// let (start, end) = fast.aap(0, 1, 1)?;
/// assert_eq!(end - start, 49_000);
///
/// let mut slow = CommandTimer::new(TimingParams::ddr3_1600(), AapMode::Naive);
/// let (start, end) = slow.aap(0, 1, 1)?;
/// assert_eq!(end - start, 80_000);
/// # Ok::<(), ambit_dram::DramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CommandTimer {
    timing: TimingParams,
    mode: AapMode,
    energy_model: EnergyModel,
    /// Per-channel command-bus state. The DDR command/data buses are
    /// per-channel resources (`DramGeometry::channels`), so each lane keeps
    /// its own clock, column-bus slot, tRRD/tFAW window, and energy
    /// accumulator. With the default single-channel stride every bank maps
    /// to lane 0 and the timer behaves exactly like the historical
    /// one-global-bus model.
    lanes: Vec<ChannelLane>,
    /// Timing-pipeline indices per channel lane: lane = bank / stride.
    /// `usize::MAX` (the default) puts every bank on one lane.
    lane_stride: usize,
    /// Global clock floor established by [`advance_to`]
    /// (CommandTimer::advance_to); lanes created after an advance start
    /// here instead of at 0.
    floor_ps: u64,
    banks: Vec<BankTiming>,
    /// Whether tRRD/tFAW are enforced across banks (within a channel).
    enforce_inter_bank: bool,
    /// Latest command issue time seen on any bank (wall-clock horizon).
    horizon_ps: u64,
    stats: TimerStats,
    /// Unbounded full trace, when opted in via [`set_tracing`]
    /// (CommandTimer::set_tracing).
    trace: Option<Vec<TraceEntry>>,
    /// Registered instruments, when a telemetry registry is attached.
    telemetry: Option<TimerTelemetry>,
}

/// Cached telemetry handles for the command hot path. Instruments are
/// resolved once per bank (taking the registry lock); afterwards every
/// command issue is a couple of relaxed atomic operations.
#[derive(Debug, Clone)]
struct TimerTelemetry {
    registry: Registry,
    /// Per-bank instruments, indexed by flat bank id (grown lazily).
    banks: Vec<BankInstruments>,
    /// Distribution of wordlines raised per ACTIVATE (1 = ordinary,
    /// 2 = RowClone dual, 3 = triple-row activation).
    wordlines: Histogram,
    /// Per-command energy in nanojoules.
    command_energy_nj: Histogram,
    aaps: Counter,
    aps: Counter,
}

#[derive(Debug, Clone)]
struct BankInstruments {
    acts: Counter,
    precharges: Counter,
    reads: Counter,
    writes: Counter,
}

impl TimerTelemetry {
    fn new(registry: Registry) -> Self {
        let wordlines = registry.histogram(
            "ambit_wordlines_raised",
            "Wordlines raised per ACTIVATE (1 ordinary, 2 RowClone, 3 TRA)",
            &[],
            &[1.0, 2.0, 3.0],
        );
        let command_energy_nj = registry.histogram(
            "ambit_command_energy_nj",
            "Energy per DRAM command in nanojoules (EnergyModel coefficients)",
            &[],
            &[0.5, 1.0, 2.0, 3.0, 4.0, 5.0],
        );
        let aaps = registry.counter(
            "ambit_aaps_total",
            "AAP (ACTIVATE-ACTIVATE-PRECHARGE) primitives completed",
            &[],
        );
        let aps = registry.counter(
            "ambit_aps_total",
            "AP (ACTIVATE-PRECHARGE) primitives completed",
            &[],
        );
        TimerTelemetry {
            registry,
            banks: Vec::new(),
            wordlines,
            command_energy_nj,
            aaps,
            aps,
        }
    }

    fn bank(&mut self, bank: usize) -> &BankInstruments {
        while self.banks.len() <= bank {
            let id = self.banks.len().to_string();
            let labels: &[(&str, &str)] = &[("bank", &id)];
            self.banks.push(BankInstruments {
                acts: self.registry.counter(
                    "ambit_acts_total",
                    "ACTIVATE commands issued per bank",
                    labels,
                ),
                precharges: self.registry.counter(
                    "ambit_precharges_total",
                    "PRECHARGE commands issued per bank",
                    labels,
                ),
                reads: self.registry.counter(
                    "ambit_reads_total",
                    "Column READ bursts issued per bank",
                    labels,
                ),
                writes: self.registry.counter(
                    "ambit_writes_total",
                    "Column WRITE bursts issued per bank",
                    labels,
                ),
            });
        }
        &self.banks[bank]
    }
}

impl CommandTimer {
    /// Creates a timer with 16 bank slots (banks are created lazily beyond
    /// that) and the DDR3-1333 energy model.
    pub fn new(timing: TimingParams, mode: AapMode) -> Self {
        CommandTimer {
            timing,
            mode,
            energy_model: EnergyModel::ddr3_1333(),
            lanes: vec![ChannelLane::default()],
            lane_stride: usize::MAX,
            floor_ps: 0,
            banks: vec![BankTiming::default(); 16],
            enforce_inter_bank: false,
            horizon_ps: 0,
            stats: TimerStats::default(),
            trace: None,
            telemetry: None,
        }
    }

    /// Enables or disables full (unbounded) command tracing. Enabling
    /// starts a fresh trace.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace = enabled.then(Vec::new);
    }

    /// The full recorded trace, if full tracing is enabled.
    pub fn trace(&self) -> Option<&[TraceEntry]> {
        self.trace.as_deref()
    }

    /// Attaches a telemetry registry: subsequent commands bump per-bank
    /// ACT/PRE/RD/WR counters, the wordlines-raised histogram, and the
    /// per-command energy histogram registered on it.
    pub fn set_telemetry(&mut self, registry: Registry) {
        self.telemetry = Some(TimerTelemetry::new(registry));
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    fn record(&mut self, at_ps: u64, bank: usize, command: TraceCommand) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry { at_ps, bank, command });
        }
    }

    /// The timing parameter set in use.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The AAP mode in use.
    pub fn mode(&self) -> AapMode {
        self.mode
    }

    /// Replaces the energy model.
    pub fn set_energy_model(&mut self, model: EnergyModel) {
        self.energy_model = model;
    }

    /// Enables or disables cross-bank tRRD/tFAW enforcement (default: off,
    /// matching the paper's bank-parallel throughput projection).
    pub fn set_enforce_inter_bank(&mut self, enforce: bool) {
        self.enforce_inter_bank = enforce;
    }

    /// Partitions timing pipelines into channel lanes: pipeline `p` issues
    /// on the command bus of lane `p / stride`. The default (`usize::MAX`)
    /// keeps every pipeline on one lane — the historical single-bus model,
    /// correct for single-channel geometries. Multi-channel controllers set
    /// the stride to `ranks * banks` pipelines per channel (scaled by
    /// subarrays under SALP) so each channel gets its own independent
    /// command/data bus, which is what the hardware has.
    ///
    /// Call before issuing commands (or while all lanes are idle and
    /// equally advanced): re-striding does not migrate accumulated lane
    /// state between lanes.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn set_channel_stride(&mut self, stride: usize) {
        assert!(stride > 0, "channel stride must be nonzero");
        self.lane_stride = stride;
    }

    /// The channel lane a timing pipeline issues on under the current
    /// stride (see [`set_channel_stride`](Self::set_channel_stride)).
    pub fn lane_of(&self, bank: usize) -> usize {
        if self.lane_stride == usize::MAX {
            0
        } else {
            bank / self.lane_stride
        }
    }

    fn lane_mut(&mut self, lane: usize) -> &mut ChannelLane {
        while self.lanes.len() <= lane {
            self.lanes.push(ChannelLane {
                now_ps: self.floor_ps,
                ..ChannelLane::default()
            });
        }
        &mut self.lanes[lane]
    }

    fn lane_now(&self, bank: usize) -> u64 {
        self.lanes
            .get(self.lane_of(bank))
            .map_or(self.floor_ps, |l| l.now_ps)
    }

    /// Current time (the cycle after the last issued command), picoseconds.
    /// With multiple channel lanes this is the most advanced lane's clock;
    /// for the per-lane view use [`bank_now_ps`](Self::bank_now_ps).
    pub fn now_ps(&self) -> u64 {
        self.lanes.iter().map(|l| l.now_ps).max().unwrap_or(self.floor_ps)
    }

    /// Current time on the command bus that serves `bank`'s channel lane.
    /// Equal to [`now_ps`](Self::now_ps) on single-channel timers.
    pub fn bank_now_ps(&self, bank: usize) -> u64 {
        self.lane_now(bank)
    }

    /// Advances every channel lane's clock to at least `t_ps` (models idle
    /// gaps and wave barriers; lanes created later also start here).
    pub fn advance_to(&mut self, t_ps: u64) {
        self.floor_ps = self.floor_ps.max(t_ps);
        for lane in &mut self.lanes {
            lane.now_ps = lane.now_ps.max(t_ps);
        }
        self.horizon_ps = self.horizon_ps.max(t_ps);
    }

    /// Latest command issue time on any bank — the wall-clock horizon of
    /// the simulation (`now_ps` is only the command-bus floor).
    pub fn horizon_ps(&self) -> u64 {
        self.horizon_ps
    }

    /// Whether `bank` currently has an open row. This is the authoritative
    /// bank state: schedulers layered on top must derive their open-row
    /// bookkeeping from it rather than shadowing it (a shadow diverges as
    /// soon as anything else drives the same timer).
    pub fn bank_active(&self, bank: usize) -> bool {
        self.banks.get(bank).is_some_and(|b| b.active)
    }

    /// ACTIVATE commands issued to `bank` since the timer was created — a
    /// generation counter. A cached row identity recorded at generation `g`
    /// is only trustworthy while `bank_acts(bank) == g` (and the bank is
    /// still active): any ACTIVATE from another driver bumps the counter
    /// and invalidates the cache.
    pub fn bank_acts(&self, bank: usize) -> u64 {
        self.banks.get(bank).map_or(0, |b| b.acts)
    }

    /// Earliest time `bank` could start a fresh ACTIVATE, assuming any open
    /// row is precharged as early as legal. This is the per-bank ready-time
    /// batch planners use to reason about overlapping bank timelines.
    pub fn bank_ready_ps(&self, bank: usize) -> u64 {
        let now = self.lane_now(bank);
        let Some(b) = self.banks.get(bank) else {
            return now;
        };
        if b.active {
            now.max(b.pre_ready_ps) + self.timing.t_rp_ps
        } else {
            now.max(b.act_ready_ps)
        }
    }

    /// Accumulated row-occupancy time of `bank`: the sum of all closed
    /// ACTIVATE → PRECHARGE+tRP intervals. Divided by a measurement window
    /// this is the bank's utilization (the per-bank occupancy gauges the
    /// driver's batch engine exports).
    pub fn bank_busy_ps(&self, bank: usize) -> u64 {
        self.banks.get(bank).map_or(0, |b| b.busy_ps)
    }

    /// Number of bank timing slots currently tracked (banks are grown
    /// lazily as commands address them).
    pub fn tracked_banks(&self) -> usize {
        self.banks.len()
    }

    /// Accumulated energy account, aggregated across channel lanes in lane
    /// order (deterministic: each lane's f64 sums depend only on its own
    /// command sequence).
    pub fn energy(&self) -> EnergyAccount {
        let mut total = EnergyAccount::new();
        for lane in &self.lanes {
            total.merge(&lane.energy);
        }
        total
    }

    /// Total energy (nanojoules) accumulated on the channel lane that
    /// serves `bank`. Receipts compute per-program energy as a delta of
    /// this value: a program issues on exactly one pipeline, so the delta
    /// is a pure function of that lane's own command sequence, whatever
    /// the other channels issued in between.
    pub fn bank_energy_nj(&self, bank: usize) -> f64 {
        self.lanes
            .get(self.lane_of(bank))
            .map_or(0.0, |l| l.energy.total_nj())
    }

    /// Issue statistics.
    pub fn stats(&self) -> TimerStats {
        self.stats
    }

    fn bank_mut(&mut self, bank: usize) -> &mut BankTiming {
        if bank >= self.banks.len() {
            self.banks.resize(bank + 1, BankTiming::default());
        }
        &mut self.banks[bank]
    }

    fn inter_bank_ready(&self, lane: usize) -> u64 {
        if !self.enforce_inter_bank {
            return 0;
        }
        let Some(lane) = self.lanes.get(lane) else {
            return 0;
        };
        let mut ready = 0;
        if let Some(last) = lane.last_act_ps {
            ready = ready.max(last + self.timing.t_rrd_ps);
        }
        if lane.recent_acts.len() >= 4 {
            let oldest = lane.recent_acts[lane.recent_acts.len() - 4];
            ready = ready.max(oldest + self.timing.t_faw_ps);
        }
        ready
    }

    fn note_act(&mut self, lane: usize, t: u64) {
        let lane = self.lane_mut(lane);
        lane.last_act_ps = Some(t);
        lane.recent_acts.push_back(t);
        while lane.recent_acts.len() > 4 {
            lane.recent_acts.pop_front();
        }
    }

    /// Issues an ACTIVATE to `bank` raising `wordlines` wordlines, at the
    /// earliest legal time ≥ now. Returns the issue time.
    ///
    /// A second ACTIVATE to an already-active bank is the AAP/RowClone copy
    /// activation; in [`AapMode::Overlapped`] it extends the row-restore
    /// window by only `t_overlap_extra` beyond the first ACTIVATE's tRAS,
    /// while in [`AapMode::Naive`] it behaves as a full activation.
    ///
    /// # Errors
    ///
    /// This auto-scheduling path never fails; the `Result` is reserved for
    /// future strict-mode use and for API symmetry with the device model.
    pub fn issue_activate(&mut self, bank: usize, wordlines: usize) -> Result<u64> {
        self.issue_activate_tagged(bank, wordlines, None)
    }

    /// [`issue_activate`](Self::issue_activate) with the target row address
    /// recorded on the trace, so validators can check row-level sequencing
    /// (e.g. PRECHARGE before re-ACTIVATE of a different row). Timing is
    /// identical to the untagged form — the tag is trace metadata only.
    ///
    /// # Errors
    ///
    /// Same contract as [`issue_activate`](Self::issue_activate).
    pub fn issue_activate_tagged(
        &mut self,
        bank: usize,
        wordlines: usize,
        row: Option<usize>,
    ) -> Result<u64> {
        let timing = self.timing;
        let mode = self.mode;
        let lane = self.lane_of(bank);
        let floor = self.lane_mut(lane).now_ps;
        let inter = self.inter_bank_ready(lane);
        let b = self.bank_mut(bank);
        let t = if b.active {
            // Back-to-back ACTIVATE (copy).
            let earliest = match mode {
                // Full sense amplification must complete first.
                AapMode::Naive => b.first_act_ps + timing.t_ras_ps,
                // Split decoder: issue once the first activation has
                // sufficiently progressed (we use tRCD as the "data is in
                // the sense amps" point).
                AapMode::Overlapped => b.first_act_ps + timing.t_rcd_ps,
            };
            let t = floor.max(earliest).max(inter);
            match mode {
                AapMode::Naive => {
                    b.pre_ready_ps = t + timing.t_ras_ps;
                }
                AapMode::Overlapped => {
                    b.pre_ready_ps = b
                        .pre_ready_ps
                        .max(b.first_act_ps + timing.t_ras_ps + timing.t_overlap_extra_ps);
                }
            }
            b.col_ready_ps = b.col_ready_ps.max(t + timing.t_rcd_ps);
            t
        } else {
            let t = floor.max(b.act_ready_ps).max(inter);
            b.active = true;
            b.first_act_ps = t;
            b.pre_ready_ps = t + timing.t_ras_ps;
            b.col_ready_ps = t + timing.t_rcd_ps;
            t
        };
        self.bank_mut(bank).acts += 1;
        self.note_act(lane, t);
        self.record(t, bank, TraceCommand::Activate { wordlines, row });
        self.horizon_ps = self.horizon_ps.max(t);
        let model = self.energy_model;
        let l = self.lane_mut(lane);
        l.now_ps = floor + timing.t_ck_ps;
        l.energy.record_activate(&model, wordlines);
        self.stats.activates += 1;
        if let Some(tel) = &mut self.telemetry {
            tel.bank(bank).acts.inc();
            tel.wordlines.observe(wordlines as f64);
            let nj = self.energy_model.activate_nj(wordlines);
            tel.command_energy_nj.observe(nj);
        }
        Ok(t)
    }

    /// Issues a PRECHARGE to `bank` at the earliest legal time ≥ now.
    /// Returns the time at which the bank becomes ready for the next
    /// ACTIVATE (issue time + tRP).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankNotActivated`] if the bank has no open row.
    pub fn issue_precharge(&mut self, bank: usize) -> Result<u64> {
        let timing = self.timing;
        let lane = self.lane_of(bank);
        let floor = self.lane_mut(lane).now_ps;
        let b = self.bank_mut(bank);
        if !b.active {
            return Err(DramError::BankNotActivated);
        }
        let t = floor.max(b.pre_ready_ps);
        b.active = false;
        b.act_ready_ps = t + timing.t_rp_ps;
        b.busy_ps += t + timing.t_rp_ps - b.first_act_ps;
        self.record(t, bank, TraceCommand::Precharge);
        self.horizon_ps = self.horizon_ps.max(t + timing.t_rp_ps);
        let model = self.energy_model;
        let l = self.lane_mut(lane);
        l.now_ps = floor + timing.t_ck_ps;
        l.energy.record_precharge(&model);
        self.stats.precharges += 1;
        if let Some(tel) = &mut self.telemetry {
            tel.bank(bank).precharges.inc();
            let nj = self.energy_model.precharge_nj();
            tel.command_energy_nj.observe(nj);
        }
        Ok(t + timing.t_rp_ps)
    }

    /// Issues one column READ burst (64 B) to `bank`. Returns the time the
    /// data burst completes on the bus.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankNotActivated`] if the bank has no open row.
    pub fn issue_read(&mut self, bank: usize) -> Result<u64> {
        self.issue_column(bank, false)
    }

    /// Issues one column WRITE burst (64 B) to `bank`. Returns the time the
    /// data burst completes on the bus.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankNotActivated`] if the bank has no open row.
    pub fn issue_write(&mut self, bank: usize) -> Result<u64> {
        self.issue_column(bank, true)
    }

    fn issue_column(&mut self, bank: usize, is_write: bool) -> Result<u64> {
        let timing = self.timing;
        let lane = self.lane_of(bank);
        let (floor, bus_ready) = {
            let l = self.lane_mut(lane);
            (l.now_ps, l.bus_col_ready_ps)
        };
        let b = self.bank_mut(bank);
        if !b.active {
            return Err(DramError::BankNotActivated);
        }
        // tCCD is a shared-bus constraint, not just a per-bank one: bursts
        // from different banks of a channel still serialize on its data bus.
        let t = floor.max(b.col_ready_ps).max(bus_ready);
        b.col_ready_ps = t + timing.t_ccd_ps;
        if is_write {
            // Write recovery gates the next precharge.
            b.pre_ready_ps = b.pre_ready_ps.max(t + timing.t_cl_ps + timing.t_wr_ps);
        }
        self.record(
            t,
            bank,
            if is_write { TraceCommand::Write } else { TraceCommand::Read },
        );
        self.horizon_ps = self.horizon_ps.max(t);
        let burst_bytes = 64;
        let done = t + timing.t_cl_ps + timing.transfer_ps(burst_bytes);
        let model = self.energy_model;
        let l = self.lane_mut(lane);
        l.bus_col_ready_ps = t + timing.t_ccd_ps;
        l.now_ps = floor + timing.t_ck_ps;
        l.energy.record_transfer(&model, burst_bytes);
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if let Some(tel) = &mut self.telemetry {
            let bank_instruments = tel.bank(bank);
            if is_write {
                bank_instruments.writes.inc();
            } else {
                bank_instruments.reads.inc();
            }
            let nj = self.energy_model.transfer_nj(burst_bytes);
            tel.command_energy_nj.observe(nj);
        }
        Ok(done)
    }

    /// Issues a linked READ (from `src_bank`) + WRITE (to `dst_bank`) burst
    /// pair modelling a RowClone-PSM pipelined transfer (Seshadri et al.,
    /// MICRO'13): the write consumes the data as the read drives it, so the
    /// pair occupies a *single* tCCD bus slot instead of two. Independent
    /// reads/writes issued via [`issue_read`](Self::issue_read)/
    /// [`issue_write`](Self::issue_write) still serialize on the shared bus.
    /// Returns the time the burst completes.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankNotActivated`] if either bank has no open
    /// row.
    pub fn issue_transfer(&mut self, src_bank: usize, dst_bank: usize) -> Result<u64> {
        let timing = self.timing;
        let src_lane = self.lane_of(src_bank);
        let dst_lane = self.lane_of(dst_bank);
        // A cross-channel transfer occupies both channels' buses for the
        // burst; same-channel transfers (the common case, and the only case
        // on single-channel geometries) see exactly the historical timing.
        let floor = self.lane_mut(src_lane).now_ps.max(self.lane_mut(dst_lane).now_ps);
        let bus_ready = self
            .lane_mut(src_lane)
            .bus_col_ready_ps
            .max(self.lane_mut(dst_lane).bus_col_ready_ps);
        if !self.bank_mut(src_bank).active || !self.bank_mut(dst_bank).active {
            return Err(DramError::BankNotActivated);
        }
        let src_ready = self.bank_mut(src_bank).col_ready_ps;
        let dst_ready = self.bank_mut(dst_bank).col_ready_ps;
        let t = floor.max(src_ready).max(dst_ready).max(bus_ready);
        self.bank_mut(src_bank).col_ready_ps = t + timing.t_ccd_ps;
        {
            let d = self.bank_mut(dst_bank);
            d.col_ready_ps = t + timing.t_ccd_ps;
            // Write recovery gates the destination bank's next precharge.
            d.pre_ready_ps = d.pre_ready_ps.max(t + timing.t_cl_ps + timing.t_wr_ps);
        }
        self.record(t, src_bank, TraceCommand::Read);
        self.record(t, dst_bank, TraceCommand::Write);
        self.horizon_ps = self.horizon_ps.max(t);
        let burst_bytes = 64;
        let model = self.energy_model;
        {
            let l = self.lane_mut(src_lane);
            l.bus_col_ready_ps = t + timing.t_ccd_ps;
            l.now_ps = floor + timing.t_ck_ps;
        }
        if dst_lane != src_lane {
            let l = self.lane_mut(dst_lane);
            l.bus_col_ready_ps = t + timing.t_ccd_ps;
            l.now_ps = floor + timing.t_ck_ps;
        }
        // Energy is attributed to the source channel's account.
        self.lane_mut(src_lane).energy.record_transfer(&model, burst_bytes);
        self.stats.reads += 1;
        self.stats.writes += 1;
        if let Some(tel) = &mut self.telemetry {
            tel.bank(src_bank).reads.inc();
            tel.bank(dst_bank).writes.inc();
            let nj = self.energy_model.transfer_nj(burst_bytes);
            tel.command_energy_nj.observe(nj);
        }
        Ok(t + timing.t_cl_ps + timing.transfer_ps(burst_bytes))
    }

    /// Executes the AAP primitive (ACTIVATE `addr1`; ACTIVATE `addr2`;
    /// PRECHARGE) on `bank`, with `w1`/`w2` wordlines raised by the two
    /// activations. Returns `(start_ps, end_ps)` where `end` is when the
    /// bank is ready for the next command.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankAlreadyActivated`] if the bank has an open
    /// row (AAP must start from the precharged state).
    pub fn aap(&mut self, bank: usize, w1: usize, w2: usize) -> Result<(u64, u64)> {
        self.aap_tagged(bank, (w1, None), (w2, None))
    }

    /// [`aap`](Self::aap) with the row address of each activation recorded
    /// on the trace (trace metadata only; timing is identical).
    ///
    /// # Errors
    ///
    /// Same contract as [`aap`](Self::aap).
    pub fn aap_tagged(
        &mut self,
        bank: usize,
        (w1, r1): (usize, Option<usize>),
        (w2, r2): (usize, Option<usize>),
    ) -> Result<(u64, u64)> {
        if self.bank_mut(bank).active {
            return Err(DramError::BankAlreadyActivated);
        }
        let start = self.issue_activate_tagged(bank, w1, r1)?;
        self.issue_activate_tagged(bank, w2, r2)?;
        let end = self.issue_precharge(bank)?;
        self.stats.aaps += 1;
        if let Some(tel) = &self.telemetry {
            tel.aaps.inc();
        }
        Ok((start, end))
    }

    /// Executes the AP primitive (ACTIVATE; PRECHARGE) on `bank` with `w`
    /// wordlines raised. Returns `(start_ps, end_ps)`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BankAlreadyActivated`] if the bank has an open
    /// row.
    pub fn ap(&mut self, bank: usize, w: usize) -> Result<(u64, u64)> {
        self.ap_tagged(bank, (w, None))
    }

    /// [`ap`](Self::ap) with the activation's row address recorded on the
    /// trace (trace metadata only; timing is identical).
    ///
    /// # Errors
    ///
    /// Same contract as [`ap`](Self::ap).
    pub fn ap_tagged(&mut self, bank: usize, (w, r): (usize, Option<usize>)) -> Result<(u64, u64)> {
        if self.bank_mut(bank).active {
            return Err(DramError::BankAlreadyActivated);
        }
        let start = self.issue_activate_tagged(bank, w, r)?;
        let end = self.issue_precharge(bank)?;
        self.stats.aps += 1;
        if let Some(tel) = &self.telemetry {
            tel.aps.inc();
        }
        Ok((start, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::PS_PER_NS;

    fn timer(mode: AapMode) -> CommandTimer {
        CommandTimer::new(TimingParams::ddr3_1600(), mode)
    }

    #[test]
    fn aap_overlapped_is_49ns() {
        let mut t = timer(AapMode::Overlapped);
        let (s, e) = t.aap(0, 1, 1).unwrap();
        assert_eq!(e - s, 49 * PS_PER_NS);
    }

    #[test]
    fn aap_naive_is_80ns() {
        let mut t = timer(AapMode::Naive);
        let (s, e) = t.aap(0, 1, 1).unwrap();
        assert_eq!(e - s, 80 * PS_PER_NS);
    }

    #[test]
    fn ap_is_45ns() {
        let mut t = timer(AapMode::Overlapped);
        let (s, e) = t.ap(0, 3).unwrap();
        assert_eq!(e - s, 45 * PS_PER_NS);
    }

    #[test]
    fn back_to_back_aaps_pipeline_on_one_bank() {
        let mut t = timer(AapMode::Overlapped);
        let (s1, e1) = t.aap(0, 1, 1).unwrap();
        let (s2, e2) = t.aap(0, 1, 1).unwrap();
        assert_eq!(e1 - s1, e2 - s2);
        // Second AAP's first ACT waits for tRP after the first AAP's PRE.
        assert!(s2 >= e1, "s2={s2} e1={e1}");
    }

    #[test]
    fn banks_overlap_without_inter_bank_enforcement() {
        let mut t = timer(AapMode::Overlapped);
        let (s0, _) = t.aap(0, 1, 1).unwrap();
        // Bank 1's AAP can start almost immediately (command bus slots only).
        let (s1, _) = t.aap(1, 1, 1).unwrap();
        assert!(s1 - s0 < 10 * PS_PER_NS, "banks should overlap: {}", s1 - s0);
    }

    #[test]
    fn trrd_and_tfaw_enforced_when_enabled() {
        let mut t = timer(AapMode::Overlapped);
        t.set_enforce_inter_bank(true);
        let mut acts = Vec::new();
        for bank in 0..5 {
            acts.push(t.issue_activate(bank, 1).unwrap());
        }
        for w in acts.windows(2) {
            assert!(w[1] - w[0] >= 6 * PS_PER_NS, "tRRD violated: {:?}", w);
        }
        // Fifth ACT must clear the tFAW window of the first.
        assert!(acts[4] - acts[0] >= 30 * PS_PER_NS, "tFAW violated");
    }

    #[test]
    fn precharge_requires_open_row() {
        let mut t = timer(AapMode::Overlapped);
        assert_eq!(t.issue_precharge(0).unwrap_err(), DramError::BankNotActivated);
    }

    #[test]
    fn aap_requires_precharged_bank() {
        let mut t = timer(AapMode::Overlapped);
        t.issue_activate(0, 1).unwrap();
        assert_eq!(t.aap(0, 1, 1).unwrap_err(), DramError::BankAlreadyActivated);
    }

    #[test]
    fn column_read_respects_trcd() {
        let mut t = timer(AapMode::Overlapped);
        let act = t.issue_activate(0, 1).unwrap();
        let done = t.issue_read(0).unwrap();
        // Data can't be back before ACT + tRCD + CL + burst.
        assert!(done >= act + (10 + 10 + 5) * PS_PER_NS);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut t = timer(AapMode::Overlapped);
        let act = t.issue_activate(0, 1).unwrap();
        t.issue_write(0).unwrap();
        t.issue_write(0).unwrap(); // second burst lands tCCD later
        let ready = t.issue_precharge(0).unwrap();
        // PRE must wait for CL + tWR after the *last* write command, which
        // pushes it past the plain tRAS + tRP row cycle.
        assert!(ready > act + (35 + 10) * PS_PER_NS, "ready={ready} act={act}");
    }

    #[test]
    fn energy_accumulates_with_wordline_counts() {
        let mut t = timer(AapMode::Overlapped);
        t.aap(0, 3, 1).unwrap();
        let e = t.energy();
        assert_eq!(e.activations, 2);
        assert_eq!(e.precharges, 1);
        let m = EnergyModel::ddr3_1333();
        let expect = m.activate_nj(3) + m.activate_nj(1) + m.precharge_nj();
        assert!((e.total_nj() - expect).abs() < 1e-9);
    }

    #[test]
    fn stats_track_primitives() {
        let mut t = timer(AapMode::Overlapped);
        t.aap(0, 1, 1).unwrap();
        t.ap(0, 3).unwrap();
        let s = t.stats();
        assert_eq!(s.aaps, 1);
        assert_eq!(s.aps, 1);
        assert_eq!(s.activates, 3);
        assert_eq!(s.precharges, 2);
    }

    #[test]
    fn trace_records_aap_as_act_act_pre() {
        let mut t = timer(AapMode::Overlapped);
        t.set_tracing(true);
        t.aap(2, 1, 3).unwrap();
        let trace = t.trace().unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].command, TraceCommand::Activate { wordlines: 1, row: None });
        assert_eq!(trace[1].command, TraceCommand::Activate { wordlines: 3, row: None });
        assert_eq!(trace[2].command, TraceCommand::Precharge);
        assert!(trace.iter().all(|e| e.bank == 2));
        // Per-bank trace times are monotone.
        assert!(trace.windows(2).all(|w| w[0].at_ps <= w[1].at_ps));
    }

    #[test]
    fn tagged_issues_record_row_addresses() {
        let mut t = timer(AapMode::Overlapped);
        t.set_tracing(true);
        t.aap_tagged(0, (1, Some(8)), (1, Some(9))).unwrap();
        t.ap_tagged(0, (3, Some(0))).unwrap();
        let trace = t.trace().unwrap();
        assert_eq!(trace[0].command, TraceCommand::Activate { wordlines: 1, row: Some(8) });
        assert_eq!(trace[1].command, TraceCommand::Activate { wordlines: 1, row: Some(9) });
        assert_eq!(trace[3].command, TraceCommand::Activate { wordlines: 3, row: Some(0) });
        // Tagging is metadata only: stats and timing match the plain forms.
        assert_eq!(t.stats().aaps, 1);
        assert_eq!(t.stats().aps, 1);
    }

    #[test]
    fn tracing_off_by_default_and_resettable() {
        let mut t = timer(AapMode::Overlapped);
        t.aap(0, 1, 1).unwrap();
        assert!(t.trace().is_none());
        t.set_tracing(true);
        t.aap(0, 1, 1).unwrap();
        assert_eq!(t.trace().unwrap().len(), 3);
        t.set_tracing(true); // re-enabling clears
        assert!(t.trace().unwrap().is_empty());
        t.set_tracing(false);
        assert!(t.trace().is_none());
    }

    #[test]
    fn telemetry_counts_commands_per_bank() {
        use ambit_telemetry::Registry;
        let reg = Registry::new();
        let mut t = timer(AapMode::Overlapped);
        t.set_telemetry(reg.clone());
        t.aap(0, 1, 3).unwrap();
        t.ap(2, 3).unwrap();
        t.issue_activate(1, 1).unwrap();
        t.issue_read(1).unwrap();
        t.issue_write(1).unwrap();

        assert_eq!(reg.counter_value("ambit_acts_total", &[("bank", "0")]), Some(2));
        assert_eq!(reg.counter_value("ambit_acts_total", &[("bank", "2")]), Some(1));
        assert_eq!(reg.counter_value("ambit_reads_total", &[("bank", "1")]), Some(1));
        assert_eq!(reg.counter_value("ambit_writes_total", &[("bank", "1")]), Some(1));
        assert_eq!(reg.counter_family_total("ambit_acts_total"), Some(4));
        assert_eq!(reg.counter_value("ambit_aaps_total", &[]), Some(1));
        assert_eq!(reg.counter_value("ambit_aps_total", &[]), Some(1));

        // Wordlines histogram saw 1, 3, 3, 1 (le-buckets 1/2/3).
        let wl = reg.histogram_snapshot("ambit_wordlines_raised", &[]).unwrap();
        assert_eq!(wl.counts, vec![2, 0, 2, 0]);

        // The energy histogram's sum equals the EnergyAccount total.
        let e = reg.histogram_snapshot("ambit_command_energy_nj", &[]).unwrap();
        assert!((e.sum - t.energy().total_nj()).abs() < 1e-9);
    }

    #[test]
    fn bank_state_accessors_track_activity() {
        let mut t = timer(AapMode::Overlapped);
        assert!(!t.bank_active(0));
        assert_eq!(t.bank_acts(0), 0);
        assert_eq!(t.bank_busy_ps(0), 0);
        let act = t.issue_activate(0, 1).unwrap();
        assert!(t.bank_active(0));
        assert_eq!(t.bank_acts(0), 1);
        // While open, the bank's next fresh ACT must clear PRE + tRP.
        assert!(t.bank_ready_ps(0) >= act + (35 + 10) * PS_PER_NS);
        let ready = t.issue_precharge(0).unwrap();
        assert!(!t.bank_active(0));
        // The closed interval counts toward occupancy: ACT → PRE + tRP.
        assert_eq!(t.bank_busy_ps(0), ready - act);
        assert_eq!(t.bank_ready_ps(0), ready);
        // Out-of-range banks read as idle rather than panicking.
        assert!(!t.bank_active(99));
        assert_eq!(t.bank_acts(99), 0);
        assert!(t.tracked_banks() >= 1);
    }

    #[test]
    fn column_bursts_share_one_bus_across_banks() {
        let mut t = timer(AapMode::Overlapped);
        t.issue_activate(0, 1).unwrap();
        t.issue_activate(1, 1).unwrap();
        let d0 = t.issue_read(0).unwrap();
        let d1 = t.issue_read(1).unwrap();
        // Bank 1's burst is tCCD behind bank 0's despite independent
        // per-bank column readiness: the data bus is shared.
        assert!(d1 >= d0 + t.timing().t_ccd_ps, "d0={d0} d1={d1}");
    }

    #[test]
    fn and_operation_latency_matches_paper_arithmetic() {
        // 4 AAPs at 49 ns = 196 ns for a bulk AND of one row pair (§5.2-5.3).
        let mut t = timer(AapMode::Overlapped);
        let start = t.now_ps();
        for _ in 0..3 {
            t.aap(0, 1, 1).unwrap();
        }
        let (_, end) = t.aap(0, 3, 1).unwrap();
        assert_eq!(end - start, 4 * 49 * PS_PER_NS);
    }
}
