//! Resilient execution layer: detect → retry → remap → degrade.
//!
//! Triple-row activation is an analog operation; under process variation
//! it fails at the rates of the paper's Table 2 (0.29 % per TRA at ±10 %
//! variation, 26.19 % at ±25 %). The paper's answer is a layered defence:
//! TMR as the only bitwise-homomorphic ECC (Section 5.4.5), spare rows for
//! permanent faults (Section 5.5.3), and a CPU fallback path for
//! operations the accelerator cannot run (Section 5.4.3). This module
//! composes those mechanisms into a policy engine:
//!
//! 1. **Detect.** Every operation runs on a [`TmrVector`] triple; a voted
//!    read of the destination flags *suspect* bits (bits where at least
//!    one replica disagrees — for independent per-replica flip rate `p`,
//!    a fraction `≈ 3p` of bits).
//! 2. **Retry.** Suspect results are retried after scrubbing the sources,
//!    under a *command budget*: backoff is paid in AAP primitives, not
//!    wall-clock sleeps, so recovery cost shows up in the timing model.
//! 3. **Repair.** When the estimated flip rate is low, remaining suspect
//!    bits are repaired from CPU-computed ground truth; voting leaves only
//!    silent triple flips (probability `p³` per bit, < 2 × 10⁻⁷ at the
//!    default degrade threshold) uncorrected, and those are exactly what
//!    the repair-from-truth pass removes for flagged bits.
//! 4. **Remap.** Suspect bits that survive a scrub are permanent (scrubs
//!    use the backdoor store path, which transient TRA noise cannot
//!    touch): the faulty replica's row is remapped to a spare row.
//! 5. **Degrade.** If the estimated flip rate exceeds
//!    [`ResilientConfig::degrade_threshold`], or spare rows run out, the
//!    executor falls back to CPU-side software execution (sticky for the
//!    device or the affected vector respectively) instead of erroring.
//!
//! Every operation returns a [`RecoveryReport`] accounting faults seen,
//! retries, remaps, scrubs, CPU fallbacks, and the added latency/energy.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use ambit_dram::{BitRow, FaultCampaign, RefreshParams, RefreshScheduler, PS_PER_NS};
use ambit_telemetry::{Counter, Event, Gauge, Histogram, Registry, Span};

use crate::driver::{AmbitMemory, BitVectorHandle, PhaseClock};
use crate::ecc::{bitwise_tmr, unpack, TmrVector};
use crate::error::{AmbitError, Result};
use crate::ops::BitwiseOp;

/// Policy knobs for the resilient executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientConfig {
    /// Maximum in-DRAM retries per operation before repairing or
    /// degrading.
    pub max_retries: u32,
    /// Retry backoff budget in AAP primitives per operation: a retry is
    /// only attempted while the AAPs already spent stay within budget.
    pub retry_aap_budget: u64,
    /// Scrub every vector after this many operations (0 disables periodic
    /// scrubbing; faults are then only healed on detection).
    pub scrub_interval_ops: u32,
    /// Per-replica per-bit TRA flip rate above which in-DRAM execution is
    /// abandoned for the device (sticky CPU degradation). The decision is
    /// a Poisson-style significance test on the suspect count, so small
    /// vectors do not degrade on sampling noise. Below the threshold,
    /// voting plus repair-from-truth bounds the silent-error probability
    /// per bit by roughly the cube of the rate.
    pub degrade_threshold: f64,
    /// Remap attempts per permanent faulty bit (spare rows can themselves
    /// contain stuck cells).
    pub max_remap_attempts: u32,
    /// Permit graceful degradation to CPU-side execution (paper Section
    /// 5.4.3). When `false`, exhausted retries raise
    /// [`AmbitError::RetriesExhausted`] instead.
    pub allow_cpu_fallback: bool,
    /// Per-reliability-bin multipliers applied to `max_retries` and
    /// `retry_aap_budget`, indexed by the characterization bin of the
    /// operation's vectors (0 strong, 1 nominal, 2 weak; an operation uses
    /// the worst bin among its operands). A strong-bin multiplier below 1
    /// makes healthy subarrays fail fast into the remap path; a weak-bin
    /// multiplier above 1 buys known-marginal subarrays extra retries
    /// before degrading. Without an installed
    /// [`PlacementProfile`](crate::PlacementProfile) every vector is
    /// nominal, so the default `[1.0, 1.0, 1.0]` leaves behavior unchanged.
    pub bin_retry_multipliers: [f64; 3],
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            max_retries: 3,
            retry_aap_budget: 256,
            scrub_interval_ops: 8,
            degrade_threshold: 0.005,
            max_remap_attempts: 4,
            allow_cpu_fallback: true,
            bin_retry_multipliers: [1.0, 1.0, 1.0],
        }
    }
}

/// Handle to a bitvector managed by the [`ResilientExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResilientHandle(u64);

/// Recovery accounting for one operation (or cumulatively, from
/// [`ResilientExecutor::report`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryReport {
    /// Operations executed.
    pub ops: u64,
    /// Suspect bits observed across all voted reads.
    pub faults_detected: u64,
    /// In-DRAM retries performed.
    pub retries: u64,
    /// Permanent-fault row remaps to spare rows.
    pub remaps: u64,
    /// Scrub passes (source, destination, and periodic).
    pub scrubs: u64,
    /// Operations completed by CPU-side software fallback.
    pub cpu_fallbacks: u64,
    /// Bits corrected by voting/scrubbing/repair.
    pub corrected_bits: u64,
    /// Refresh commands issued while catching the campaign clock up.
    pub refreshes: u64,
    /// Retention-decay flips armed by the campaign.
    pub decay_flips: u64,
    /// Latency of recovery work (retry attempts) in picoseconds. Scrubs
    /// and CPU fallback use untimed backdoor accesses and contribute zero.
    pub added_latency_ps: u64,
    /// Energy of recovery work (retry attempts) in nanojoules.
    pub added_energy_nj: f64,
    /// Whether the device is in sticky CPU-degraded mode.
    pub degraded: bool,
}

impl RecoveryReport {
    fn delta(&self, later: &RecoveryReport) -> RecoveryReport {
        RecoveryReport {
            ops: later.ops - self.ops,
            faults_detected: later.faults_detected - self.faults_detected,
            retries: later.retries - self.retries,
            remaps: later.remaps - self.remaps,
            scrubs: later.scrubs - self.scrubs,
            cpu_fallbacks: later.cpu_fallbacks - self.cpu_fallbacks,
            corrected_bits: later.corrected_bits - self.corrected_bits,
            refreshes: later.refreshes - self.refreshes,
            decay_flips: later.decay_flips - self.decay_flips,
            added_latency_ps: later.added_latency_ps - self.added_latency_ps,
            added_energy_nj: later.added_energy_nj - self.added_energy_nj,
            degraded: later.degraded,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tmr: TmrVector,
    /// Vector-level degradation: spares ran out while repairing it, so
    /// operations writing it run on the CPU (voting still masks its bad
    /// replica on reads).
    degraded: bool,
    /// Characterization bin of the vector (worst bin over its three
    /// replicas' subarrays), cached at allocation time; 1 (nominal) when no
    /// placement profile is installed.
    bin: u8,
}

enum AttemptOutcome {
    /// The destination holds correct data (possibly after repair).
    Done,
    /// In-DRAM execution cannot or should not complete; fall back to CPU.
    Fallback { retries: u32, suspects: usize },
}

/// Fault-tolerant front end over [`AmbitMemory`].
///
/// # Examples
///
/// ```
/// use ambit_core::{BitwiseOp, ResilientConfig, ResilientExecutor};
/// use ambit_dram::{AapMode, DramGeometry, TimingParams};
///
/// let mut exec = ResilientExecutor::new(
///     ambit_core::AmbitMemory::new(
///         DramGeometry::tiny(),
///         TimingParams::ddr3_1600(),
///         AapMode::Overlapped,
///     ),
///     ResilientConfig::default(),
/// );
/// let bits = exec.memory().row_bits();
/// let a = exec.alloc(bits)?;
/// let b = exec.alloc(bits)?;
/// let out = exec.alloc(bits)?;
/// exec.write(a, &vec![true; bits])?;
/// exec.write(b, &vec![false; bits])?;
/// let report = exec.bitwise(BitwiseOp::Or, a, Some(b), out)?;
/// assert_eq!(report.ops, 1);
/// assert!(exec.read(out)?.iter().all(|&v| v));
/// # Ok::<(), ambit_core::AmbitError>(())
/// ```
#[derive(Debug)]
pub struct ResilientExecutor {
    mem: AmbitMemory,
    cfg: ResilientConfig,
    campaign: Option<FaultCampaign>,
    refresh: RefreshScheduler,
    vectors: BTreeMap<u64, Entry>,
    next_id: u64,
    ops_since_scrub: u32,
    /// Device-level sticky degradation: the observed TRA flip rate was too
    /// high for voting to bound the silent-error probability.
    degraded: bool,
    report: RecoveryReport,
    telemetry: Option<ResilientTelemetry>,
    /// Host-time split of the current [`ResilientExecutor::bitwise`] call:
    /// restarted at its entry, running only while telemetry is attached,
    /// and stopped when the call returns its report.
    clock: PhaseClock<{ ResilientPhase::LABELS.len() }>,
}

/// The host-side phases of one [`ResilientExecutor::bitwise`] call, timed
/// into `ambit_resilient_phase_host_us{phase}` while telemetry is
/// attached.
#[derive(Debug, Clone, Copy)]
enum ResilientPhase {
    /// The in-DRAM TMR op on the three replicas, first attempt and
    /// retries, plus the refreshes the campaign clock issues before it.
    Replicas,
    /// Voted reads of operands and destination, the destination's scrub,
    /// and the periodic scrub of every vector.
    Vote,
    /// Recovery: source scrubs before a retry, repair from CPU-computed
    /// truth, spare-row remaps and the CPU fallback.
    Recovery,
}

impl ResilientPhase {
    /// The `phase` label of each variant, indexed by discriminant.
    const LABELS: [&'static str; 3] = ["replicas", "vote", "recovery"];
}

/// Cached telemetry handles mirroring [`RecoveryReport`] as counters, plus
/// recovery-path histograms and a per-operation span.
#[derive(Debug)]
struct ResilientTelemetry {
    registry: Registry,
    ops: Counter,
    faults_detected: Counter,
    retries: Counter,
    remaps: Counter,
    scrubs: Counter,
    /// Scrubs that found the replicas agreeing and only refreshed them
    /// (a subset of `scrubs`; not part of [`RecoveryReport`]).
    clean_scrubs: Counter,
    cpu_fallbacks: Counter,
    corrected_bits: Counter,
    refreshes: Counter,
    decay_flips: Counter,
    degraded: Gauge,
    /// Operations whose retry budget was de-rated (multiplier ≠ 1) by the
    /// characterization bin of their vectors.
    derated_ops: Counter,
    /// Wall interval of operations that detected at least one suspect bit,
    /// simulated nanoseconds.
    detection_latency_ns: Histogram,
    /// Added latency of retry attempts per operation, simulated
    /// nanoseconds.
    recovery_latency_ns: Histogram,
    /// Host time of each bitwise phase, microseconds, indexed by
    /// [`ResilientPhase`].
    phase_us: [Histogram; ResilientPhase::LABELS.len()],
}

impl ResilientTelemetry {
    fn new(registry: Registry) -> Self {
        let c = |name: &str, help: &str| registry.counter(name, help, &[]);
        ResilientTelemetry {
            ops: c(
                "ambit_resilient_ops_total",
                "Operations executed by the resilient executor",
            ),
            faults_detected: c(
                "ambit_resilient_faults_detected_total",
                "Suspect bits observed across voted reads",
            ),
            retries: c(
                "ambit_resilient_retries_total",
                "In-DRAM retries performed",
            ),
            remaps: c(
                "ambit_resilient_remaps_total",
                "Permanent-fault row remaps to spare rows",
            ),
            scrubs: c(
                "ambit_resilient_scrubs_total",
                "Scrub passes (source, destination, and periodic)",
            ),
            clean_scrubs: c(
                "ambit_resilient_clean_scrubs_total",
                "Scrubs that found the replicas agreeing and only refreshed them",
            ),
            cpu_fallbacks: c(
                "ambit_resilient_cpu_fallbacks_total",
                "Operations completed by CPU-side software fallback",
            ),
            corrected_bits: c(
                "ambit_resilient_corrected_bits_total",
                "Bits corrected by voting, scrubbing, or repair",
            ),
            refreshes: c(
                "ambit_resilient_refreshes_total",
                "Refresh commands issued while catching the campaign clock up",
            ),
            decay_flips: c(
                "ambit_resilient_decay_flips_total",
                "Retention-decay flips armed by the fault campaign",
            ),
            degraded: registry.gauge(
                "ambit_resilient_degraded",
                "1 when the device has degraded to sticky CPU-only execution",
                &[],
            ),
            derated_ops: c(
                "ambit_characterization_derated_ops_total",
                "Operations whose retry budget was de-rated by their characterization bin",
            ),
            detection_latency_ns: registry.histogram(
                "ambit_fault_detection_latency_ns",
                "Wall interval of operations that detected suspect bits, simulated ns",
                &[],
                &[200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0, 25600.0, 51200.0],
            ),
            recovery_latency_ns: registry.histogram(
                "ambit_recovery_latency_ns",
                "Added latency of retry attempts per operation, simulated ns",
                &[],
                &[100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0, 25600.0],
            ),
            phase_us: ResilientPhase::LABELS.map(|phase| {
                registry.histogram(
                    "ambit_resilient_phase_host_us",
                    "Host wall time of each resilient bitwise phase, microseconds \
                     (replicas: in-DRAM TMR ops; vote: voting and scrubbing; \
                     recovery: retry, repair, remap and CPU fallback)",
                    &[("phase", phase)],
                    &[1.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0],
                )
            }),
            registry,
        }
    }

    /// Brings every counter up to the cumulative report (counters are
    /// monotonic, so the sync adds the difference) and mirrors the sticky
    /// degradation flag into the gauge.
    fn sync(&self, report: &RecoveryReport) {
        let catch_up = |c: &Counter, v: u64| {
            let cur = c.get();
            if v > cur {
                c.add(v - cur);
            }
        };
        catch_up(&self.ops, report.ops);
        catch_up(&self.faults_detected, report.faults_detected);
        catch_up(&self.retries, report.retries);
        catch_up(&self.remaps, report.remaps);
        catch_up(&self.scrubs, report.scrubs);
        catch_up(&self.cpu_fallbacks, report.cpu_fallbacks);
        catch_up(&self.corrected_bits, report.corrected_bits);
        catch_up(&self.refreshes, report.refreshes);
        catch_up(&self.decay_flips, report.decay_flips);
        self.degraded
            .set(if report.degraded { 1.0 } else { 0.0 });
    }

    /// Records the span, latency and host-phase histograms for one
    /// completed operation, given its report delta, wall interval and
    /// host-time split.
    fn record_op(
        &self,
        mnemonic: &'static str,
        delta: &RecoveryReport,
        start_ns: u64,
        end_ns: u64,
        phases: &PhaseClock<{ ResilientPhase::LABELS.len() }>,
    ) {
        for (histogram, &us) in self.phase_us.iter().zip(&phases.us) {
            histogram.observe(us);
        }
        if delta.faults_detected > 0 {
            self.detection_latency_ns
                .observe(end_ns.saturating_sub(start_ns) as f64);
        }
        if delta.added_latency_ps > 0 {
            self.recovery_latency_ns
                .observe(delta.added_latency_ps as f64 / PS_PER_NS as f64);
        }
        self.registry.record_span(
            Span::new("resilient.op", start_ns, end_ns)
                .attr("op", mnemonic)
                .attr("faults_detected", delta.faults_detected)
                .attr("retries", delta.retries)
                .attr("remaps", delta.remaps)
                .attr("cpu_fallbacks", delta.cpu_fallbacks)
                .attr("degraded", delta.degraded),
        );
    }
}

impl ResilientExecutor {
    /// Wraps an Ambit memory with the default refresh schedule and no
    /// fault campaign.
    pub fn new(mem: AmbitMemory, cfg: ResilientConfig) -> Self {
        ResilientExecutor {
            mem,
            cfg,
            campaign: None,
            refresh: RefreshScheduler::new(RefreshParams::ddr3_4gb()),
            vectors: BTreeMap::new(),
            next_id: 0,
            ops_since_scrub: 0,
            degraded: false,
            report: RecoveryReport::default(),
            telemetry: None,
            clock: PhaseClock::new(false),
        }
    }

    /// Attaches a telemetry registry: every [`RecoveryReport`] field is
    /// mirrored into an `ambit_resilient_*` counter, the sticky degradation
    /// flag into a gauge, detection/recovery latencies into histograms, and
    /// each operation records a `resilient.op` span. The registry is also
    /// forwarded to the driver and controller, so one registry observes the
    /// whole stack.
    pub fn set_telemetry(&mut self, registry: Registry) {
        self.mem.set_telemetry(registry.clone());
        self.telemetry = Some(ResilientTelemetry::new(registry));
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// Current simulated time in nanoseconds (for event timestamps).
    fn now_ns(&self) -> u64 {
        self.mem.now_ps() / PS_PER_NS
    }

    /// Emits a recovery-path event if telemetry is attached. The event is
    /// only built then: its name and attributes are heap strings.
    fn emit_event(&self, event: impl FnOnce() -> Event) {
        if let Some(tel) = &self.telemetry {
            tel.registry.record_event(event());
        }
    }

    /// Wraps an Ambit memory and applies a fault campaign to it: stuck
    /// cells are injected, per-subarray TRA rates set, and retention decay
    /// armed on every operation as refresh windows elapse.
    ///
    /// # Errors
    ///
    /// Propagates campaign application errors (geometry mismatch).
    pub fn with_campaign(
        mem: AmbitMemory,
        cfg: ResilientConfig,
        campaign: FaultCampaign,
    ) -> Result<Self> {
        let mut exec = ResilientExecutor::new(mem, cfg);
        exec.mem.apply_campaign(&campaign)?;
        exec.campaign = Some(campaign);
        Ok(exec)
    }

    /// The wrapped memory (read-only).
    pub fn memory(&self) -> &AmbitMemory {
        &self.mem
    }

    /// Mutable access to the wrapped memory, for configuration and tests.
    pub fn memory_mut(&mut self) -> &mut AmbitMemory {
        &mut self.mem
    }

    /// Cumulative recovery accounting since construction.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Whether the executor has degraded to CPU-only execution.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The raw driver handles of the vector's three replicas — for
    /// fault-injection campaigns that target specific replicas.
    ///
    /// # Errors
    ///
    /// [`AmbitError::UnknownHandle`] for stale handles.
    pub fn replicas(&mut self, handle: ResilientHandle) -> Result<[BitVectorHandle; 3]> {
        Ok(self.entry(handle)?.tmr.replicas())
    }

    /// Allocates a TMR-protected bitvector.
    ///
    /// # Errors
    ///
    /// [`AmbitError::EmptyAllocation`] for zero bits; out-of-memory if the
    /// device cannot hold three replicas.
    pub fn alloc(&mut self, bits: usize) -> Result<ResilientHandle> {
        let tmr = TmrVector::alloc(&mut self.mem, bits)?;
        let mut bin = 0u8;
        for &replica in tmr.replicas().iter() {
            bin = bin.max(self.mem.handle_bin(replica)?);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.vectors.insert(
            id,
            Entry {
                tmr,
                degraded: false,
                bin,
            },
        );
        Ok(ResilientHandle(id))
    }

    /// Writes `data` to all replicas of the vector.
    ///
    /// # Errors
    ///
    /// [`AmbitError::UnknownHandle`] or a size mismatch from the driver.
    pub fn write(&mut self, handle: ResilientHandle, data: &[bool]) -> Result<()> {
        let tmr = self.entry(handle)?.tmr;
        tmr.write(&mut self.mem, data)
    }

    /// Voted read. Detected corruption is healed in place: the vector is
    /// scrubbed, and bits that survive the scrub are treated as permanent
    /// faults and remapped to spare rows.
    ///
    /// # Errors
    ///
    /// [`AmbitError::UnknownHandle`] or driver errors.
    pub fn read(&mut self, handle: ResilientHandle) -> Result<Vec<bool>> {
        let tmr = self.entry(handle)?.tmr;
        let suspects = tmr.suspects(&self.mem)?;
        let voted = tmr.snapshot(&self.mem)?;
        if suspects > 0 {
            self.report.faults_detected += suspects as u64;
            self.heal(handle)?;
        }
        if let Some(tel) = &self.telemetry {
            tel.sync(&self.report);
        }
        Ok(unpack(voted.iter().map(|row| &**row), tmr.len_bits()))
    }

    /// Executes `dst = op(a, b)` with the full detect → retry → remap →
    /// degrade pipeline, returning the recovery accounting for this
    /// operation alone. Structurally impossible in-DRAM operations
    /// (operands not co-located, not row-aligned) fall back to the CPU
    /// path silently, as the paper's driver does.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::RetriesExhausted`] if retries run out and
    ///   [`ResilientConfig::allow_cpu_fallback`] is `false`.
    /// * [`AmbitError::UnknownHandle`], size mismatches, and other driver
    ///   errors that no amount of retrying can fix.
    pub fn bitwise(
        &mut self,
        op: BitwiseOp,
        a: ResilientHandle,
        b: Option<ResilientHandle>,
        dst: ResilientHandle,
    ) -> Result<RecoveryReport> {
        let before = self.report;
        self.clock = PhaseClock::new(self.telemetry.is_some());
        self.tick();
        self.lap(ResilientPhase::Replicas);
        let start_ns = self.now_ns();

        let ea = *self.entry(a)?;
        let eb = match b {
            Some(h) => Some(*self.entry(h)?),
            None => None,
        };
        let ed = *self.entry(dst)?;
        let operand_degraded =
            ea.degraded || ed.degraded || eb.as_ref().is_some_and(|e| e.degraded);

        // When `dst` aliases a source, a failed in-DRAM attempt overwrites
        // that source, so every recovery path (retry, repair-from-truth,
        // CPU fallback) must start from the pre-op operand value, not the
        // clobbered one. Snapshot the voted operand up front in that case:
        // agreeing replicas lend their row buffers, so this copies nothing.
        let a_snap = if ea.tmr.replicas() == ed.tmr.replicas() {
            Some(ea.tmr.snapshot(&self.mem)?)
        } else {
            None
        };
        let b_snap = match &eb {
            Some(e) if e.tmr.replicas() == ed.tmr.replicas() => Some(e.tmr.snapshot(&self.mem)?),
            _ => None,
        };
        self.lap(ResilientPhase::Vote);

        // De-rate the retry budget by the operation's characterization bin
        // (the worst bin among its vectors): strong subarrays fail fast to
        // the remap path, known-weak subarrays get extra retries.
        let op_bin = ea
            .bin
            .max(ed.bin)
            .max(eb.as_ref().map_or(0, |e| e.bin))
            .min(2) as usize;
        let multiplier = self.cfg.bin_retry_multipliers[op_bin].max(0.0);
        let max_retries = (self.cfg.max_retries as f64 * multiplier).round() as u32;
        let aap_budget = (self.cfg.retry_aap_budget as f64 * multiplier).round() as u64;
        if multiplier != 1.0 {
            if let Some(tel) = &self.telemetry {
                tel.derated_ops.inc();
            }
        }

        let mut completed = false;
        if !self.degraded && !operand_degraded {
            match self.try_in_dram(
                op,
                &ea.tmr,
                eb.as_ref().map(|e| &e.tmr),
                &ed.tmr,
                a_snap.as_deref(),
                b_snap.as_deref(),
                max_retries,
                aap_budget,
            )? {
                AttemptOutcome::Done => completed = true,
                AttemptOutcome::Fallback { retries, suspects } => {
                    if !self.cfg.allow_cpu_fallback {
                        return Err(AmbitError::RetriesExhausted {
                            retries,
                            suspect_bits: suspects,
                        });
                    }
                }
            }
        }
        if !completed {
            let truth = self.cpu_compute(
                op,
                &ea.tmr,
                eb.as_ref().map(|e| &e.tmr),
                a_snap.as_deref(),
                b_snap.as_deref(),
            )?;
            ed.tmr.write_rows(&mut self.mem, truth)?;
            self.report.cpu_fallbacks += 1;
            self.lap(ResilientPhase::Recovery);
        }

        // Classify any residual destination disagreement: what survives a
        // scrub is permanent and gets remapped.
        self.heal(dst)?;
        self.report.ops += 1;
        self.ops_since_scrub += 1;
        if self.cfg.scrub_interval_ops > 0 && self.ops_since_scrub >= self.cfg.scrub_interval_ops
        {
            self.ops_since_scrub = 0;
            self.scrub_all()?;
            self.lap(ResilientPhase::Vote);
        }
        let delta = before.delta(&self.report);
        let clock = std::mem::replace(&mut self.clock, PhaseClock::new(false));
        if let Some(tel) = &self.telemetry {
            tel.sync(&self.report);
            let end_ns = self.mem.now_ps() / PS_PER_NS;
            tel.record_op(op.mnemonic(), &delta, start_ns, end_ns, &clock);
        }
        Ok(delta)
    }

    /// Scrubs every vector now (also runs periodically per
    /// [`ResilientConfig::scrub_interval_ops`]). Returns bits repaired.
    ///
    /// # Errors
    ///
    /// Propagates driver errors.
    pub fn scrub_all(&mut self) -> Result<u64> {
        let tmrs: Vec<TmrVector> = self.vectors.values().map(|e| e.tmr).collect();
        let mut repaired = 0u64;
        for tmr in &tmrs {
            repaired += self.scrub(tmr)? as u64;
        }
        if let Some(tel) = &self.telemetry {
            tel.sync(&self.report);
        }
        Ok(repaired)
    }

    fn entry(&mut self, handle: ResilientHandle) -> Result<&mut Entry> {
        self.vectors
            .get_mut(&handle.0)
            .ok_or(AmbitError::UnknownHandle { id: handle.0 })
    }

    /// Charges the host time since the previous lap of the current
    /// bitwise call to `phase`.
    fn lap(&mut self, phase: ResilientPhase) {
        self.clock.lap(phase as usize);
    }

    /// Advances the fault-campaign clock (refresh + retention decay).
    fn tick(&mut self) {
        if let Some(campaign) = self.campaign.as_mut() {
            let tick = self.mem.campaign_tick(campaign, &mut self.refresh);
            self.report.refreshes += tick.refreshes;
            self.report.decay_flips += tick.decay_flips;
        } else {
            self.report.refreshes += self
                .refresh
                .catch_up(self.mem.controller_mut().timer_mut());
        }
    }

    /// One in-DRAM execution attempt loop: TMR op, voted verification,
    /// budgeted retries with source scrubs, then repair-from-truth or
    /// degradation.
    ///
    /// `a_snap` / `b_snap` carry the pre-op voted value of a source that
    /// aliases `dst` (see [`ResilientExecutor::bitwise`]); retries restore
    /// such a source from its snapshot instead of scrubbing it in place.
    /// `max_retries` and `aap_budget` are the configured limits already
    /// de-rated by the operation's characterization bin.
    #[allow(clippy::too_many_arguments)]
    fn try_in_dram(
        &mut self,
        op: BitwiseOp,
        a: &TmrVector,
        b: Option<&TmrVector>,
        dst: &TmrVector,
        a_snap: Option<&[Arc<BitRow>]>,
        b_snap: Option<&[Arc<BitRow>]>,
        max_retries: u32,
        aap_budget: u64,
    ) -> Result<AttemptOutcome> {
        let bits = dst.len_bits();
        let mut retries = 0u32;
        let mut aaps_spent = 0u64;
        loop {
            let first_attempt = retries == 0;
            let attempt = bitwise_tmr(&mut self.mem, op, a, b, dst);
            self.lap(ResilientPhase::Replicas);
            let receipt = match attempt {
                Ok(r) => r,
                // Structural impossibility: the paper's driver executes
                // these on the CPU (Section 5.4.3).
                Err(AmbitError::NotColocated { .. }) | Err(AmbitError::NotRowAligned { .. }) => {
                    return Ok(AttemptOutcome::Fallback {
                        retries,
                        suspects: 0,
                    });
                }
                Err(e) => return Err(e),
            };
            let last_attempt_aaps = receipt.aaps as u64;
            if !first_attempt {
                // Only recovery work counts as "added" cost; the first
                // attempt is the operation's baseline.
                self.report.added_latency_ps += receipt.latency_ps();
                self.report.added_energy_nj += receipt.energy_nj;
            }
            aaps_spent += last_attempt_aaps;

            let suspects = dst.suspects(&self.mem)?;
            self.lap(ResilientPhase::Vote);
            if suspects == 0 {
                return Ok(AttemptOutcome::Done);
            }
            self.report.faults_detected += suspects as u64;

            // Each independently-flipped bit disagrees in one replica, and
            // each of the op's TRAs may flip a result bit, so at the
            // threshold rate the expected suspect count is at most
            // 3 · threshold · TRAs · bits. Degrade only on a statistically
            // clear excess (mean + 3σ + slack), so small vectors don't
            // trip on Poisson noise.
            let tras = op.tras().max(1) as f64;
            let expected_at_threshold = 3.0 * self.cfg.degrade_threshold * tras * bits as f64;
            let degrade_bound = expected_at_threshold + 3.0 * expected_at_threshold.sqrt() + 3.0;
            let budget_ok = aaps_spent + last_attempt_aaps <= aap_budget;
            if retries < max_retries && budget_ok {
                retries += 1;
                self.report.retries += 1;
                self.emit_event(|| {
                    Event::new("resilient.retry", self.now_ns())
                        .attr("cause", "suspects")
                        .attr("suspects", suspects)
                        .attr("attempt", retries as u64)
                });
                // Backoff in commands: scrub the sources so the retry
                // starts from consistent replicas.
                self.scrub_sources(a, b, a_snap, b_snap)?;
                self.lap(ResilientPhase::Recovery);
                continue;
            }

            if suspects as f64 > degrade_bound {
                // Too unreliable for voting to bound silent errors:
                // degrade the whole device to CPU execution (sticky).
                self.degraded = true;
                self.report.degraded = true;
                self.emit_event(|| {
                    Event::new("resilient.degrade", self.now_ns())
                        .attr("suspects", suspects)
                        .attr("bound", degrade_bound)
                });
                return Ok(AttemptOutcome::Fallback { retries, suspects });
            }

            // Low rate: repair the flagged bits from ground truth and
            // accept. Unflagged bits are wrong only if all three replicas
            // flipped identically — probability `rate³` per bit. Per word
            // the repair is (voted & !mask) | (truth & mask), computed in
            // place in the truth rows as voted ^ ((voted ^ truth) & mask).
            let vote = dst.vote(&self.mem)?;
            self.lap(ResilientPhase::Vote);
            let mut repaired = self.cpu_compute(op, a, b, a_snap, b_snap)?;
            for ((fix, voted), mask) in repaired.iter_mut().zip(&vote.voted).zip(&vote.disagree) {
                fix.zip_with_into(voted, |t, v| t ^ v);
                fix.zip_with_into(mask, |d, m| d & m);
                fix.zip_with_into(voted, |d, v| d ^ v);
            }
            dst.write_rows(&mut self.mem, repaired)?;
            self.report.scrubs += 1;
            self.report.corrected_bits += suspects as u64;
            self.lap(ResilientPhase::Recovery);
            return Ok(AttemptOutcome::Done);
        }
    }

    /// Scrubs both sources before a retry. A source that aliases the
    /// destination (snapshot present) holds the previous attempt's result,
    /// so it is restored from its pre-op snapshot instead of scrubbed.
    fn scrub_sources(
        &mut self,
        a: &TmrVector,
        b: Option<&TmrVector>,
        a_snap: Option<&[Arc<BitRow>]>,
        b_snap: Option<&[Arc<BitRow>]>,
    ) -> Result<()> {
        for (source, snap) in std::iter::once((a, a_snap)).chain(b.map(|b| (b, b_snap))) {
            match snap {
                Some(rows) => {
                    source.write_buffers(&mut self.mem, rows)?;
                    self.report.scrubs += 1;
                }
                None => {
                    self.scrub(source)?;
                }
            }
        }
        Ok(())
    }

    /// Scrubs one vector, counting the scrub and the bits it repaired (and,
    /// with telemetry attached, whether it only refreshed agreeing
    /// replicas). Returns the bits repaired.
    fn scrub(&mut self, tmr: &TmrVector) -> Result<usize> {
        let scrub = tmr.scrub_report(&mut self.mem)?;
        self.report.scrubs += 1;
        self.report.corrected_bits += scrub.repaired as u64;
        if scrub.clean {
            if let Some(tel) = &self.telemetry {
                tel.clean_scrubs.inc();
            }
        }
        Ok(scrub.repaired)
    }

    /// Computes the operation CPU-side from the voted source values, using
    /// the pre-op snapshot for any source that aliases the destination.
    /// Returns one packed row per chunk; padding bits are unspecified
    /// ([`TmrVector::write_rows`] zeroes them).
    fn cpu_compute(
        &self,
        op: BitwiseOp,
        a: &TmrVector,
        b: Option<&TmrVector>,
        a_snap: Option<&[Arc<BitRow>]>,
        b_snap: Option<&[Arc<BitRow>]>,
    ) -> Result<Vec<BitRow>> {
        // A source without a snapshot is read through a fresh one, which
        // shares agreeing replicas' rows and votes only otherwise.
        let source = |tmr: &TmrVector, snap| match snap {
            Some(rows) => Ok(Cow::Borrowed(rows)),
            None => tmr.snapshot(&self.mem).map(Cow::Owned),
        };
        let mut out: Vec<BitRow> = source(a, a_snap)?
            .iter()
            .map(|row| BitRow::clone(row))
            .collect();
        match b {
            Some(b) => {
                for (row, b) in out.iter_mut().zip(source(b, b_snap)?.iter()) {
                    row.zip_with_into(b, |x, y| op.apply_words(x, y));
                }
            }
            None => {
                for row in &mut out {
                    row.map_words(|_, x| op.apply_words(x, 0));
                }
            }
        }
        Ok(out)
    }

    /// Scrub-then-classify: disagreement that survives a scrub is a
    /// permanent fault (the scrub path bypasses TRA entirely), and the
    /// faulty replica's row is remapped to a spare. When spares run out
    /// the vector is marked degraded instead of erroring.
    fn heal(&mut self, handle: ResilientHandle) -> Result<()> {
        let tmr = self.entry(handle)?.tmr;
        let clean = tmr.suspects(&self.mem)? == 0;
        self.lap(ResilientPhase::Vote);
        if clean {
            return Ok(());
        }
        self.scrub(&tmr)?;
        let persistent = tmr.vote(&self.mem)?.suspect_bits();
        self.lap(ResilientPhase::Vote);
        for bit in persistent {
            if !self.remap_faulty_bit(tmr, bit)? {
                self.entry(handle)?.degraded = true;
            }
        }
        self.lap(ResilientPhase::Recovery);
        Ok(())
    }

    /// Remaps whichever replica disagrees at `bit` until the bit votes
    /// cleanly or attempts run out. Returns `false` if spare rows are
    /// exhausted (the caller degrades the vector).
    fn remap_faulty_bit(&mut self, tmr: TmrVector, bit: usize) -> Result<bool> {
        let replicas = tmr.replicas();
        for _ in 0..self.cfg.max_remap_attempts {
            let values = tmr.replica_bits(&self.mem, bit)?;
            let voted = values.iter().filter(|&&v| v).count() >= 2;
            let Some(faulty) = (0..3).find(|&i| values[i] != voted) else {
                return Ok(true); // a spare took the write; bit is clean
            };
            match self.mem.remap_bit(replicas[faulty], bit) {
                Ok(()) => {
                    self.report.remaps += 1;
                    self.emit_event(|| {
                        Event::new("resilient.remap", self.now_ns())
                            .attr("bit", bit)
                            .attr("replica", faulty as u64)
                    });
                    // The spare row inherited the old (faulty) contents;
                    // rewrite the voted value through the new mapping.
                    self.scrub(&tmr)?;
                }
                Err(AmbitError::SpareRowsExhausted { .. }) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        // Attempts exhausted (e.g. stuck spares): give up on remapping.
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambit_dram::{AapMode, CampaignConfig, CellFault, DramGeometry, TimingParams};

    fn memory() -> AmbitMemory {
        AmbitMemory::new(
            DramGeometry::tiny(),
            TimingParams::ddr3_1600(),
            AapMode::Overlapped,
        )
    }

    fn pattern(bits: usize, stride: usize) -> Vec<bool> {
        (0..bits).map(|i| i % stride == 0).collect()
    }

    fn expected(op: BitwiseOp, a: &[bool], b: &[bool]) -> Vec<bool> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| op.apply_words(x as u64, y as u64) & 1 == 1)
            .collect()
    }

    #[test]
    fn clean_device_runs_without_recovery() {
        let mut exec = ResilientExecutor::new(memory(), ResilientConfig::default());
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        let da = pattern(bits, 2);
        let db = pattern(bits, 3);
        exec.write(a, &da).unwrap();
        exec.write(b, &db).unwrap();
        let report = exec.bitwise(BitwiseOp::Xor, a, Some(b), out).unwrap();
        assert_eq!(exec.read(out).unwrap(), expected(BitwiseOp::Xor, &da, &db));
        assert_eq!(report.retries, 0);
        assert_eq!(report.cpu_fallbacks, 0);
        assert_eq!(report.remaps, 0);
        assert_eq!(report.added_latency_ps, 0);
        assert!(!report.degraded);
    }

    #[test]
    fn transient_faults_are_retried_and_result_is_correct() {
        let mut mem = memory();
        mem.set_tra_fault_rate(0.003).unwrap(); // Table 2 ±10 %ish
        let mut exec = ResilientExecutor::new(mem, ResilientConfig::default());
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        let da = pattern(bits, 2);
        let db = pattern(bits, 5);
        exec.write(a, &da).unwrap();
        exec.write(b, &db).unwrap();
        let mut total = RecoveryReport::default();
        for _ in 0..16 {
            let r = exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
            total.retries += r.retries;
            total.faults_detected += r.faults_detected;
            assert_eq!(
                exec.read(out).unwrap(),
                expected(BitwiseOp::And, &da, &db),
                "resilient AND must be exact despite transient TRA faults"
            );
        }
        assert!(
            total.faults_detected > 0,
            "at 0.3 % per TRA over 16 ops some faults should fire"
        );
        assert!(!exec.is_degraded());
    }

    #[test]
    fn catastrophic_rate_degrades_to_cpu_and_stays_correct() {
        let mut mem = memory();
        mem.set_tra_fault_rate(0.26).unwrap(); // Table 2 ±25 %
        let mut exec = ResilientExecutor::new(mem, ResilientConfig::default());
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        let da = pattern(bits, 3);
        let db = pattern(bits, 4);
        exec.write(a, &da).unwrap();
        exec.write(b, &db).unwrap();
        let report = exec.bitwise(BitwiseOp::Or, a, Some(b), out).unwrap();
        assert!(report.degraded, "26 % flip rate must trigger degradation");
        assert_eq!(report.cpu_fallbacks, 1);
        assert_eq!(exec.read(out).unwrap(), expected(BitwiseOp::Or, &da, &db));
        // Subsequent ops short-circuit to the CPU path.
        let r2 = exec.bitwise(BitwiseOp::Xor, a, Some(b), out).unwrap();
        assert_eq!(r2.retries, 0);
        assert_eq!(r2.cpu_fallbacks, 1);
        assert_eq!(exec.read(out).unwrap(), expected(BitwiseOp::Xor, &da, &db));
    }

    #[test]
    fn fallback_disabled_surfaces_retries_exhausted() {
        let mut mem = memory();
        mem.set_tra_fault_rate(0.26).unwrap();
        let cfg = ResilientConfig {
            allow_cpu_fallback: false,
            ..ResilientConfig::default()
        };
        let mut exec = ResilientExecutor::new(mem, cfg);
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        exec.write(a, &pattern(bits, 2)).unwrap();
        exec.write(b, &pattern(bits, 3)).unwrap();
        let err = exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap_err();
        assert!(matches!(err, AmbitError::RetriesExhausted { .. }), "{err}");
    }

    #[test]
    fn stuck_cell_is_classified_permanent_and_remapped() {
        let mut mem = memory();
        mem.reserve_spare_rows(2).unwrap();
        let mut exec = ResilientExecutor::new(mem, ResilientConfig::default());
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        let da = vec![true; bits];
        let db = pattern(bits, 2);
        exec.write(a, &da).unwrap();
        exec.write(b, &db).unwrap();
        // Stick a bit of the destination's replica 0 at the wrong value.
        let victim = {
            let tmr = exec.vectors.get(&out.0).unwrap().tmr;
            tmr.replicas()[0]
        };
        exec.memory_mut()
            .inject_fault(victim, 1, CellFault::StuckAtOne)
            .unwrap();
        let report = exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
        // bit 1 of AND(1..., 101010...) is 0; stuck-at-1 disagrees, the
        // scrub can't fix it, so it must have been remapped.
        assert!(report.remaps >= 1, "stuck cell should be remapped: {report:?}");
        assert_eq!(exec.read(out).unwrap(), expected(BitwiseOp::And, &da, &db));
        assert_eq!(exec.memory().bad_rows().len(), report.remaps as usize);
        // After the remap the fault is gone for good.
        let r2 = exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
        assert_eq!(r2.remaps, 0);
        assert_eq!(exec.read(out).unwrap(), expected(BitwiseOp::And, &da, &db));
    }

    #[test]
    fn spare_exhaustion_degrades_vector_not_errors() {
        let mut exec = ResilientExecutor::new(memory(), ResilientConfig::default());
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        let da = vec![true; bits];
        let db = pattern(bits, 2);
        exec.write(a, &da).unwrap();
        exec.write(b, &db).unwrap();
        let victim = exec.vectors.get(&out.0).unwrap().tmr.replicas()[0];
        exec.memory_mut()
            .inject_fault(victim, 1, CellFault::StuckAtOne)
            .unwrap();
        // No spare rows were reserved, so remapping must fail — gracefully.
        let report = exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
        assert_eq!(report.remaps, 0);
        assert_eq!(exec.read(out).unwrap(), expected(BitwiseOp::And, &da, &db));
        assert!(exec.vectors.get(&out.0).unwrap().degraded);
        // Later ops on the degraded vector run on the CPU but stay exact.
        let r2 = exec.bitwise(BitwiseOp::Or, a, Some(b), out).unwrap();
        assert_eq!(r2.cpu_fallbacks, 1);
        assert_eq!(exec.read(out).unwrap(), expected(BitwiseOp::Or, &da, &db));
    }

    #[test]
    fn campaign_decay_is_ticked_through_ops() {
        let geometry = DramGeometry::tiny();
        let campaign = FaultCampaign::plan(
            CampaignConfig {
                seed: 42,
                base_tra_rate: 0.0,
                weak_cells_per_subarray: 4,
                decay_probability: 1.0,
                first_eligible_row: 8,
                ..CampaignConfig::default()
            },
            &geometry,
        )
        .unwrap();
        let mem = AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
        let mut exec =
            ResilientExecutor::with_campaign(mem, ResilientConfig::default(), campaign).unwrap();
        let bits = exec.memory().row_bits();
        let (a, out) = (exec.alloc(bits).unwrap(), exec.alloc(bits).unwrap());
        exec.write(a, &pattern(bits, 2)).unwrap();
        // Run enough timed ops to cross refresh intervals (tREFI 7.8 µs,
        // each TMR NOT ≈ 0.3 µs) and observe decay flips being armed.
        let mut saw_refresh = false;
        for _ in 0..200 {
            exec.bitwise(BitwiseOp::Not, a, None, out).unwrap();
            if exec.report().refreshes > 0 {
                saw_refresh = true;
                break;
            }
        }
        assert!(saw_refresh, "ops should advance time past a refresh window");
        assert_eq!(exec.read(a).unwrap(), pattern(bits, 2), "reads self-heal");
    }

    #[test]
    fn stale_operands_complete_without_a_retention_retry() {
        // Strict retention with every row stale. Each Figure 8 program
        // copies its operands into the compute rows right before charge
        // sharing them, and the copy refreshes them, so no TRA meets a stale
        // row: the ops complete exactly, with no retention retry.
        let mut exec = ResilientExecutor::new(memory(), ResilientConfig::default());
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        let da = pattern(bits, 2);
        let db = pattern(bits, 3);
        exec.write(a, &da).unwrap();
        exec.write(b, &db).unwrap();
        let device = exec.memory_mut().controller_mut().device_mut();
        device.set_retention_window(Some(1_000));
        device.advance_time_ns(5_000);
        for op in BitwiseOp::FIGURE9_OPS {
            let src2 = (op.source_count() == 2).then_some(b);
            let report = exec.bitwise(op, a, src2, out).unwrap();
            assert_eq!(report.retries, 0, "{op}: {report:?}");
            assert_eq!(exec.read(out).unwrap(), expected(op, &da, &db), "{op}");
        }
    }

    #[test]
    fn per_op_report_is_a_delta_not_cumulative() {
        let mut exec = ResilientExecutor::new(memory(), ResilientConfig::default());
        let bits = exec.memory().row_bits();
        let (a, out) = (exec.alloc(bits).unwrap(), exec.alloc(bits).unwrap());
        exec.write(a, &pattern(bits, 2)).unwrap();
        let r1 = exec.bitwise(BitwiseOp::Not, a, None, out).unwrap();
        let r2 = exec.bitwise(BitwiseOp::Not, a, None, out).unwrap();
        assert_eq!(r1.ops, 1);
        assert_eq!(r2.ops, 1);
        assert_eq!(exec.report().ops, 2);
    }

    #[test]
    fn telemetry_counters_mirror_the_report() {
        let mut mem = memory();
        mem.set_tra_fault_rate(0.26).unwrap();
        let mut exec = ResilientExecutor::new(mem, ResilientConfig::default());
        exec.set_telemetry(Registry::default());
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        exec.write(a, &pattern(bits, 2)).unwrap();
        exec.write(b, &pattern(bits, 3)).unwrap();
        exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
        exec.bitwise(BitwiseOp::Or, a, Some(b), out).unwrap();

        let reg = exec.telemetry().unwrap().clone();
        let report = *exec.report();
        let value = |name: &str| reg.counter_value(name, &[]).unwrap();
        assert_eq!(value("ambit_resilient_ops_total"), report.ops);
        assert_eq!(
            value("ambit_resilient_faults_detected_total"),
            report.faults_detected
        );
        assert_eq!(value("ambit_resilient_retries_total"), report.retries);
        assert_eq!(value("ambit_resilient_scrubs_total"), report.scrubs);
        assert_eq!(
            value("ambit_resilient_cpu_fallbacks_total"),
            report.cpu_fallbacks
        );
        assert_eq!(reg.gauge_value("ambit_resilient_degraded", &[]), Some(1.0));
        // At a 26 % flip rate the first op must have detected faults,
        // retried, and degraded — all visible as events and spans.
        assert!(report.retries > 0);
        let events = reg.events();
        assert!(events.iter().any(|e| e.name == "resilient.retry"));
        assert!(events.iter().any(|e| e.name == "resilient.degrade"));
        assert_eq!(reg.spans().iter().filter(|s| s.name == "resilient.op").count(), 2);
    }

    #[test]
    fn bitwise_phases_are_timed_only_with_telemetry() {
        let mut mem = memory();
        mem.set_tra_fault_rate(0.01).unwrap();
        let mut exec = ResilientExecutor::new(mem, ResilientConfig::default());
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        exec.write(a, &pattern(bits, 2)).unwrap();
        exec.write(b, &pattern(bits, 3)).unwrap();
        exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
        let reg = Registry::default();
        exec.set_telemetry(reg.clone());
        let retries_before = exec.report().retries;
        exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
        exec.bitwise(BitwiseOp::Or, a, Some(b), out).unwrap();
        let phase = |phase: &str| {
            reg.histogram_snapshot("ambit_resilient_phase_host_us", &[("phase", phase)])
                .unwrap()
        };
        for label in ResilientPhase::LABELS {
            assert_eq!(phase(label).count, 2, "one per op since attach ({label})");
        }
        assert!(phase("replicas").sum > 0.0, "every op runs its replicas in DRAM");
        assert!(phase("vote").sum > 0.0, "every op votes its destination");
        // At a 1 % flip rate on 128-bit rows the ops see suspect bits and
        // retry, so recovery is timed too.
        assert!(exec.report().retries > retries_before);
        assert!(phase("recovery").sum > 0.0);
    }

    #[test]
    fn resilient_config_defaults_pin_current_behavior() {
        // The default multipliers must leave the pre-characterization
        // policy untouched.
        let cfg = ResilientConfig::default();
        assert_eq!(cfg.bin_retry_multipliers, [1.0, 1.0, 1.0]);
        assert_eq!(cfg.max_retries, 3);
        assert_eq!(cfg.retry_aap_budget, 256);
    }

    /// A memory with a placement profile whose four subarrays carry `bins`
    /// and no weak cells; the order keeps the default stripe irrelevant by
    /// steering every allocation to subarray (0, 0) first.
    fn profiled_memory(bins: Vec<u8>) -> AmbitMemory {
        use crate::driver::PlacementProfile;
        let mut mem = memory();
        mem.install_profile(PlacementProfile {
            order: vec![(0, 0), (0, 1), (1, 0), (1, 1)],
            weak_cells: vec![Vec::new(); 4],
            bins,
        })
        .unwrap();
        mem
    }

    #[test]
    fn weak_bin_buys_more_retries_before_degrading() {
        let mut mem = profiled_memory(vec![2, 2, 2, 2]);
        mem.set_tra_fault_rate(0.26).unwrap();
        let cfg = ResilientConfig {
            bin_retry_multipliers: [1.0, 1.0, 3.0],
            ..ResilientConfig::default()
        };
        let mut exec = ResilientExecutor::new(mem, cfg);
        exec.set_telemetry(Registry::default());
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        let da = pattern(bits, 2);
        let db = pattern(bits, 3);
        exec.write(a, &da).unwrap();
        exec.write(b, &db).unwrap();
        let report = exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
        // Effective retry ceiling is 3 × 3 = 9: at a 26 % flip rate every
        // attempt stays suspect, so the full de-rated budget is spent
        // before the degrade decision.
        assert_eq!(report.retries, 9, "{report:?}");
        assert_eq!(exec.read(out).unwrap(), expected(BitwiseOp::And, &da, &db));
        let reg = exec.telemetry().unwrap().clone();
        assert_eq!(
            reg.counter_value("ambit_characterization_derated_ops_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn strong_bin_fails_fast_into_fallback() {
        let mut mem = profiled_memory(vec![0, 0, 0, 0]);
        mem.set_tra_fault_rate(0.26).unwrap();
        let cfg = ResilientConfig {
            bin_retry_multipliers: [0.0, 1.0, 1.0],
            ..ResilientConfig::default()
        };
        let mut exec = ResilientExecutor::new(mem, cfg);
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        let da = pattern(bits, 2);
        let db = pattern(bits, 5);
        exec.write(a, &da).unwrap();
        exec.write(b, &db).unwrap();
        let report = exec.bitwise(BitwiseOp::Or, a, Some(b), out).unwrap();
        // Strong subarrays should not burn retries on a clearly broken
        // device: zero retries, straight to the catastrophic-rate degrade.
        assert_eq!(report.retries, 0, "{report:?}");
        assert!(report.degraded);
        assert_eq!(exec.read(out).unwrap(), expected(BitwiseOp::Or, &da, &db));
    }

    #[test]
    fn unprofiled_vectors_are_nominal_so_defaults_are_unchanged() {
        // Without a profile every vector lands in bin 1, whose default
        // multiplier is 1.0 — the pre-characterization retry count.
        let mut mem = memory();
        mem.set_tra_fault_rate(0.26).unwrap();
        let mut exec = ResilientExecutor::new(mem, ResilientConfig::default());
        let bits = exec.memory().row_bits();
        let (a, b, out) = (
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
            exec.alloc(bits).unwrap(),
        );
        exec.write(a, &pattern(bits, 2)).unwrap();
        exec.write(b, &pattern(bits, 3)).unwrap();
        let report = exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
        assert_eq!(report.retries, 3, "{report:?}");
        assert_eq!(exec.vectors.get(&a.0).unwrap().bin, 1);
    }

    #[test]
    fn unknown_handle_is_rejected() {
        let mut exec = ResilientExecutor::new(memory(), ResilientConfig::default());
        let err = exec.read(ResilientHandle(99)).unwrap_err();
        assert!(matches!(err, AmbitError::UnknownHandle { id: 99 }));
    }
}
