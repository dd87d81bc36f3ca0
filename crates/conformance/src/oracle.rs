//! The N-way differential execution oracle.
//!
//! Runs one [`Program`] through every execution path the stack offers —
//! eager driver calls on a four-thread and on a one-thread fan-out budget,
//! the batch engine under both clock policies (serial and bank-parallel,
//! with a four-thread fan-out) and on a one-thread budget (bank-parallel,
//! every pass inline), the device with its
//! analog model replaced by the scalar reference, and (for all-bitwise
//! programs) the resilient executor — and checks every path's final
//! memory image byte-for-byte against the pure-CPU golden model.
//! Every path's command trace is additionally validated by the
//! [`TraceChecker`], so a run that happens to produce the right bits
//! through an illegal command sequence still fails.
//!
//! Fault-armed programs (nonzero TRA fault rate) are checked against golden
//! through the resilient executor only: the other paths have no recovery
//! story. For those, the oracle checks recovered-result correctness
//! (golden equality unless the executor declared itself degraded) and
//! internal consistency of the recovery report. The three batch paths
//! issue one command sequence and run each bank's programs in one order,
//! so they consume every subarray's fault draws identically: on a
//! fault-armed device they must agree with each other byte for byte on
//! readback, device stats and command trace (the serial path's trace
//! differs only in issue times). The forced-scalar and word-parallel
//! charge shares also share one draw stream — a fault-armed TRA draws once
//! per bitline, in bitline order, on either kernel — so every fault-armed
//! program also reruns the resilient path on a forced-scalar device
//! ([`RESILIENT_SCALAR_PATH`]), which must match the default run's
//! readback, full recovery report and command trace exactly.
//!
//! Profile-armed programs (a `profile_seed`) work the same way, but the
//! fault model is a regenerated device characterization map
//! ([`ChipProfile`]): the resilient path installs variation-aware
//! placement with spare-row pre-remap, arms the per-subarray fault
//! campaign derived from the map, and the oracle additionally checks that
//! the recovery report stays consistent with the driver's bad-row map.

use std::collections::BTreeMap;

use ambit_circuit::{CharacterizationConfig, ChipProfile, CircuitParams};
use ambit_core::{
    synthesize, AllocGroup, AmbitError, AmbitMemory, BatchBuilder, BitVectorHandle, BoolFunc,
    IssuePolicy, PlacementProfile, RecoveryReport, ResilientConfig, ResilientExecutor, SlotRef,
    SubarrayLayout, SynthOptions, SynthProgram, SynthStep,
};
use ambit_dram::{BankId, CampaignConfig, FaultCampaign, TraceEntry};

use crate::golden;
use crate::program::{ProgOp, Program};
use crate::trace_check::TraceChecker;

/// Names of the fault-free execution paths, in oracle order.
pub const FAULT_FREE_PATHS: [&str; 7] = [
    "eager",
    "eager_one_worker",
    "batch_serial",
    "batch_bank_parallel",
    "batch_one_worker",
    "forced_scalar",
    "resilient",
];

/// The batch paths, each a clock policy on a fan-out thread budget: four
/// threads (parked workers even on a one-core host) or one (every pass
/// inline).
const BATCH_PATHS: [(&str, IssuePolicy, usize); 3] = [
    ("batch_serial", IssuePolicy::Serial, 4),
    ("batch_bank_parallel", IssuePolicy::BankParallel, 4),
    ("batch_one_worker", IssuePolicy::BankParallel, 1),
];

/// The fault-armed path name.
pub const RESILIENT_PATH: &str = "resilient";

/// The resilient path on a device forced onto the bit-serial scalar
/// charge share; run for fault-armed programs only.
pub const RESILIENT_SCALAR_PATH: &str = "resilient_forced_scalar";

/// A test-only divergence seed: after `path` finishes, flip bit `bit` of
/// vector `vector`'s readback. Used to prove the oracle detects, minimizes,
/// and deterministically replays real divergences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutation {
    /// Which path's readback to corrupt.
    pub path: String,
    /// Vector index to corrupt.
    pub vector: usize,
    /// Bit index to flip.
    pub bit: usize,
}

/// One oracle failure: a divergence, a driver error, a trace violation, or
/// an introspection mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The execution path that failed.
    pub path: String,
    /// Human-readable description.
    pub detail: String,
}

/// The outcome of one oracle run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Everything that went wrong (empty on a conforming run).
    pub failures: Vec<Failure>,
}

impl OracleReport {
    /// Whether the run was fully conforming.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    fn fail(&mut self, path: &str, detail: String) {
        self.failures.push(Failure { path: path.to_string(), detail });
    }
}

/// Runs the full oracle on `program`, optionally seeding a divergence.
///
/// Fault-free programs run through every applicable path; fault-armed and
/// profile-armed programs are checked against golden through the resilient
/// executor only, and fault-armed ones also run the batch paths against
/// each other (see module docs).
pub fn run_oracle(program: &Program, mutation: Option<&Mutation>) -> OracleReport {
    if program.fault_tra_rate.is_some() || program.profile_seed.is_some() {
        run_fault_armed(program, mutation)
    } else {
        run_differential(program, mutation)
    }
}

fn first_mismatch<T: PartialEq>(got: &[T], want: &[T]) -> Option<usize> {
    (0..want.len().max(got.len())).find(|&i| got.get(i) != want.get(i))
}

fn compare(
    report: &mut OracleReport,
    path: &str,
    golden: &[Vec<bool>],
    readback: &[Vec<bool>],
) {
    for (v, want) in golden.iter().enumerate() {
        if let Some(bit) = first_mismatch(&readback[v], want) {
            report.fail(
                path,
                format!(
                    "vector {v} diverges from golden at bit {bit}: got {:?}, want {:?}",
                    readback[v].get(bit),
                    want.get(bit)
                ),
            );
        }
    }
}

fn apply_mutation(
    readback: &mut [Vec<bool>],
    path: &str,
    mutation: Option<&Mutation>,
) {
    if let Some(m) = mutation {
        if m.path == path {
            if let Some(v) = readback.get_mut(m.vector) {
                let len = v.len().max(1);
                if let Some(bit) = v.get_mut(m.bit % len) {
                    *bit = !*bit;
                }
            }
        }
    }
}

/// Builds the memory for one path: geometry, timing, AAP mode, tie-break
/// policy, tracing on.
fn build_memory(program: &Program, forced_scalar: bool) -> AmbitMemory {
    let mut mem = AmbitMemory::new(
        program.geometry.geometry(),
        program.timing.params(),
        program.aap_mode,
    );
    mem.controller_mut().device_mut().set_tie_break(program.tie_break);
    if forced_scalar {
        let geometry = *mem.controller().geometry();
        let device = mem.controller_mut().device_mut();
        for flat in 0..geometry.total_banks() {
            let bank = device.bank_mut(BankId::from_flat_index(flat, &geometry));
            for s in 0..bank.subarray_count() {
                bank.subarray_mut(s).set_scalar_reference(true);
            }
        }
    }
    mem.controller_mut().timer_mut().set_tracing(true);
    mem
}

fn check_trace(report: &mut OracleReport, path: &str, program: &Program, mem: &AmbitMemory) {
    let geometry = program.geometry.geometry();
    // Column bursts serialize per channel, not globally.
    let checker = TraceChecker::new(program.timing.params(), program.aap_mode)
        .with_banks_per_channel(geometry.ranks * geometry.banks);
    let trace = mem.controller().timer().trace().unwrap_or(&[]);
    for violation in checker.check(trace) {
        report.fail(path, format!("trace invariant violated: {violation}"));
    }
}

/// How a path issues the program's ops.
enum Issue {
    /// Eager driver calls on a fan-out thread budget.
    Eager(usize),
    /// One batch under a clock policy on a fan-out thread budget.
    Batch(IssuePolicy, usize),
}

/// Scratch pools for synthesized ops, one per vector family
/// `(bits, group)`: plans in the same family share rows, which the
/// engine's sequential hazards keep correct.
type ScratchPools = BTreeMap<(usize, u32), Vec<BitVectorHandle>>;

/// Per-family scratch-row requirement: the max over the family's plans.
type ScratchNeeds = BTreeMap<(usize, u32), usize>;

/// Pre-compiles every [`ProgOp::Synth`] in `program` through the boolean
/// synthesis pipeline. Returns plans index-aligned with `program.ops`
/// (`None` for non-synth ops) and the scratch rows each vector family
/// needs — the max over that family's plans.
fn compile_synth_plans(
    program: &Program,
) -> Result<(Vec<Option<SynthProgram>>, ScratchNeeds), String> {
    let mut plans = Vec::with_capacity(program.ops.len());
    let mut needs: BTreeMap<(usize, u32), usize> = BTreeMap::new();
    for (i, op) in program.ops.iter().enumerate() {
        let ProgOp::Synth { table, inputs, dst } = op else {
            plans.push(None);
            continue;
        };
        let func = BoolFunc::from_table(inputs.len(), *table)
            .map_err(|e| format!("op {i}: truth table rejected: {e}"))?;
        let plan = synthesize(&[func], &SynthOptions::default())
            .map_err(|e| format!("op {i}: synthesis failed: {e}"))?;
        let spec = &program.vectors[*dst];
        let need = needs.entry((spec.bits, spec.group)).or_insert(0);
        *need = (*need).max(plan.scratch_rows());
        plans.push(Some(plan));
    }
    Ok((plans, needs))
}

/// The handle set one synthesized plan executes over: its program inputs,
/// the family scratch pool (truncated to what the plan needs), and the
/// destination vector.
fn synth_bindings<'a>(
    plan: &SynthProgram,
    inputs: &[usize],
    dst: usize,
    handles: &[BitVectorHandle],
    program: &Program,
    pools: &'a ScratchPools,
) -> (Vec<BitVectorHandle>, &'a [BitVectorHandle], [BitVectorHandle; 1]) {
    let ins: Vec<BitVectorHandle> = inputs.iter().map(|&v| handles[v]).collect();
    let spec = &program.vectors[dst];
    let pool = &pools[&(spec.bits, spec.group)][..plan.scratch_rows()];
    (ins, pool, [handles[dst]])
}

/// Runs `program` on one driver path, armed with its TRA fault rate if it
/// has one. Returns the readback and the memory it ran on.
fn run_driver_path(
    program: &Program,
    path: &str,
    issue: &Issue,
    forced_scalar: bool,
    report: &mut OracleReport,
) -> Option<(Vec<Vec<bool>>, AmbitMemory)> {
    let mut mem = build_memory(program, forced_scalar);
    let (Issue::Eager(threads) | Issue::Batch(_, threads)) = issue;
    mem.set_pool_threads(*threads);
    if let Some(rate) = program.fault_tra_rate {
        if let Err(e) = mem.set_tra_fault_rate(rate) {
            report.fail(path, format!("fault arming failed: {e}"));
            return None;
        }
    }
    let mut handles: Vec<BitVectorHandle> = Vec::with_capacity(program.vectors.len());
    for spec in &program.vectors {
        match mem.alloc_in_group(spec.bits, AllocGroup(spec.group)) {
            Ok(h) => handles.push(h),
            Err(e) => {
                report.fail(path, format!("alloc failed: {e}"));
                return None;
            }
        }
    }
    for (spec, &h) in program.vectors.iter().zip(&handles) {
        if let Err(e) = mem.write_bits(h, &spec.initial_data()) {
            report.fail(path, format!("write failed: {e}"));
            return None;
        }
    }
    let (plans, pool_needs) = match compile_synth_plans(program) {
        Ok(compiled) => compiled,
        Err(e) => {
            report.fail(path, e);
            return None;
        }
    };
    let mut pools: ScratchPools = BTreeMap::new();
    for (&(bits, group), &need) in &pool_needs {
        let mut pool = Vec::with_capacity(need);
        for _ in 0..need {
            match mem.alloc_in_group(bits, AllocGroup(group)) {
                Ok(h) => pool.push(h),
                Err(e) => {
                    report.fail(path, format!("scratch alloc failed: {e}"));
                    return None;
                }
            }
        }
        pools.insert((bits, group), pool);
    }

    let run = |mem: &mut AmbitMemory| -> Result<(), String> {
        match issue {
            Issue::Eager(_) => {
                for (i, op) in program.ops.iter().enumerate() {
                    match op {
                        ProgOp::Bitwise { op, src1, src2, dst } => {
                            mem.bitwise(*op, handles[*src1], src2.map(|s| handles[s]), handles[*dst])
                                .map_err(|e| e.to_string())?;
                        }
                        ProgOp::Maj3 { a, b, c, dst } => {
                            mem.bitwise_maj3(handles[*a], handles[*b], handles[*c], handles[*dst])
                                .map_err(|e| e.to_string())?;
                        }
                        ProgOp::Fold { op, srcs, dst } => {
                            let srcs: Vec<_> = srcs.iter().map(|&s| handles[s]).collect();
                            mem.bitwise_fold(*op, &srcs, handles[*dst])
                                .map_err(|e| e.to_string())?;
                        }
                        ProgOp::Synth { inputs, dst, .. } => {
                            let plan = plans[i].as_ref().expect("plan precompiled");
                            let (ins, pool, outs) =
                                synth_bindings(plan, inputs, *dst, &handles, program, &pools);
                            plan.run_eager(mem, &ins, pool, &outs)
                                .map_err(|e| e.to_string())?;
                        }
                    }
                }
            }
            Issue::Batch(policy, _) => {
                // Built alongside the batch: the handles every emitted
                // step must report reading and writing. Synth ops expand
                // to one entry per compiled step.
                let mut expected: Vec<(Vec<BitVectorHandle>, BitVectorHandle)> = Vec::new();
                let mut batch = BatchBuilder::new();
                for (i, op) in program.ops.iter().enumerate() {
                    match op {
                        ProgOp::Bitwise { op, src1, src2, dst } => {
                            batch.bitwise(
                                *op,
                                handles[*src1],
                                src2.map(|s| handles[s]),
                                handles[*dst],
                            );
                            let mut r = vec![handles[*src1]];
                            r.extend(src2.map(|s| handles[s]));
                            expected.push((r, handles[*dst]));
                        }
                        ProgOp::Maj3 { a, b, c, dst } => {
                            batch.maj3(handles[*a], handles[*b], handles[*c], handles[*dst]);
                            expected.push((
                                vec![handles[*a], handles[*b], handles[*c]],
                                handles[*dst],
                            ));
                        }
                        ProgOp::Fold { op, srcs, dst } => {
                            let srcs: Vec<_> = srcs.iter().map(|&s| handles[s]).collect();
                            batch.fold(*op, &srcs, handles[*dst]);
                            expected.push((srcs, handles[*dst]));
                        }
                        ProgOp::Synth { inputs, dst, .. } => {
                            let plan = plans[i].as_ref().expect("plan precompiled");
                            let (ins, pool, outs) =
                                synth_bindings(plan, inputs, *dst, &handles, program, &pools);
                            plan.emit_into(&mut batch, &ins, pool, &outs)
                                .map_err(|e| e.to_string())?;
                            let resolve = |slot: SlotRef| match slot {
                                SlotRef::Input(j) => ins[j],
                                SlotRef::Scratch(r) => pool[r],
                                SlotRef::Output(k) => outs[k],
                            };
                            for step in plan.steps() {
                                expected.push(match *step {
                                    SynthStep::Bitwise { src1, src2, dst, .. } => {
                                        let mut r = vec![resolve(src1)];
                                        r.extend(src2.map(resolve));
                                        (r, resolve(dst))
                                    }
                                    SynthStep::Maj3 { a, b, c, dst } => (
                                        vec![resolve(a), resolve(b), resolve(c)],
                                        resolve(dst),
                                    ),
                                });
                            }
                        }
                    }
                }
                // The batch's introspection view must agree with the
                // program: same step count, same handles read and written.
                let views = batch.op_views();
                if views.len() != expected.len() {
                    return Err(format!(
                        "batch introspection lists {} steps, program expands to {}",
                        views.len(),
                        expected.len()
                    ));
                }
                for (i, (view, (want_reads, want_writes))) in
                    views.iter().zip(&expected).enumerate()
                {
                    if view.reads != *want_reads || view.writes != *want_writes {
                        return Err(format!("batch introspection mismatch at step {i}"));
                    }
                }
                mem.execute_batch(&batch, *policy).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    };
    if let Err(e) = run(&mut mem) {
        report.fail(path, format!("execution failed: {e}"));
        return None;
    }

    let mut readback = Vec::with_capacity(handles.len());
    for &h in &handles {
        match mem.read_bits(h) {
            Ok(bits) => readback.push(bits),
            Err(e) => {
                report.fail(path, format!("readback failed: {e}"));
                return None;
            }
        }
    }
    check_trace(report, path, program, &mem);
    Some((readback, mem))
}

/// Spare rows reserved per subarray on profile-armed runs, and the cap on
/// weak cells the regenerated map may record per subarray — kept equal so
/// alloc-time pre-remap cannot exhaust spares through the map alone.
const PROFILE_SPARE_ROWS: usize = 3;

/// Monte Carlo trials per subarray when regenerating a profile-armed
/// program's characterization map. Small, because the fuzzer pays this
/// cost once per armed program.
const PROFILE_TRIALS: u64 = 300;

/// Rebuilds the characterization map named by a profile-armed program's
/// seed and arms `mem` with it: variation-aware placement, spare rows for
/// the pre-remap path, and the per-subarray fault campaign derived from
/// the same map. Deterministic per seed.
fn arm_profile(program: &Program, seed: u64, mem: &mut AmbitMemory) -> Result<FaultCampaign, String> {
    let geometry = program.geometry.geometry();
    // Weak cells must stay out of the B/C control group; the first Ambit
    // data row is the first eligible host.
    let first_data_row = SubarrayLayout::new(geometry.rows_per_subarray)
        .data_row(0)
        .map_err(|e| format!("no data rows in geometry: {e}"))?;
    let config = CharacterizationConfig {
        seed,
        first_eligible_row: first_data_row,
        trials_per_subarray: PROFILE_TRIALS,
        max_weak_cells: PROFILE_SPARE_ROWS,
        ..CharacterizationConfig::for_geometry(
            geometry.total_banks(),
            geometry.subarrays_per_bank,
            geometry.rows_per_subarray,
            geometry.row_bits(),
        )
    };
    let chip = ChipProfile::characterize(&CircuitParams::ddr3_55nm(), &config)
        .map_err(|e| format!("characterization failed: {e}"))?;
    mem.install_profile(PlacementProfile {
        order: chip.strength_order(),
        weak_cells: chip.weak_cells(),
        bins: chip.bin_codes(),
    })
    .map_err(|e| format!("profile install failed: {e}"))?;
    mem.reserve_spare_rows(PROFILE_SPARE_ROWS)
        .map_err(|e| format!("spare reservation failed: {e}"))?;
    FaultCampaign::from_profile(
        CampaignConfig {
            seed: seed ^ 0x9E37_79B9_7F4A_7C15,
            base_tra_rate: 0.0,
            stuck_cells_per_subarray: 0,
            weak_cells_per_subarray: 0,
            decay_probability: 0.0,
            first_eligible_row: first_data_row,
            ..CampaignConfig::default()
        },
        &geometry,
        &chip.rates(),
        &chip.weak_cells(),
    )
    .map_err(|e| format!("campaign derivation failed: {e}"))
}

/// What one resilient run leaves behind for the oracle to compare.
struct ResilientRun {
    readback: Vec<Vec<bool>>,
    degraded: bool,
    recovery: RecoveryReport,
    trace: Vec<TraceEntry>,
}

fn run_resilient_path(
    program: &Program,
    path: &str,
    forced_scalar: bool,
    report: &mut OracleReport,
) -> Option<ResilientRun> {
    let mut mem = build_memory(program, forced_scalar);
    if let Some(rate) = program.fault_tra_rate {
        if let Err(e) = mem.set_tra_fault_rate(rate) {
            report.fail(path, format!("fault arming failed: {e}"));
            return None;
        }
    }
    let mut exec = match program.profile_seed {
        Some(seed) => {
            let campaign = match arm_profile(program, seed, &mut mem) {
                Ok(c) => c,
                Err(e) => {
                    report.fail(path, e);
                    return None;
                }
            };
            match ResilientExecutor::with_campaign(mem, ResilientConfig::default(), campaign) {
                Ok(exec) => exec,
                Err(e) => {
                    report.fail(path, format!("campaign arming failed: {e}"));
                    return None;
                }
            }
        }
        None => ResilientExecutor::new(mem, ResilientConfig::default()),
    };
    let mut handles = Vec::with_capacity(program.vectors.len());
    for spec in &program.vectors {
        match exec.alloc(spec.bits) {
            Ok(h) => handles.push(h),
            // TMR needs 3x the rows of the plain paths; a program sized to
            // plain capacity can legitimately overflow here. Skipping the
            // path is a capacity limit, not a conformance divergence. The
            // same goes for alloc-time pre-remap running the spare rows
            // dry on an unlucky profile.
            Err(AmbitError::OutOfMemory { .. })
            | Err(AmbitError::SpareRowsExhausted { .. }) => return None,
            Err(e) => {
                report.fail(path, format!("alloc failed: {e}"));
                return None;
            }
        }
    }
    for (spec, &h) in program.vectors.iter().zip(&handles) {
        if let Err(e) = exec.write(h, &spec.initial_data()) {
            report.fail(path, format!("write failed: {e}"));
            return None;
        }
    }
    for (i, op) in program.ops.iter().enumerate() {
        let ProgOp::Bitwise { op, src1, src2, dst } = op else {
            report.fail(path, format!("op {i} is not resilient-compatible"));
            return None;
        };
        if let Err(e) = exec.bitwise(*op, handles[*src1], src2.map(|s| handles[s]), handles[*dst])
        {
            report.fail(path, format!("execution failed at op {i}: {e}"));
            return None;
        }
    }
    let mut readback = Vec::with_capacity(handles.len());
    for &h in &handles {
        match exec.read(h) {
            Ok(bits) => readback.push(bits),
            Err(e) => {
                report.fail(path, format!("readback failed: {e}"));
                return None;
            }
        }
    }

    // Recovery-report consistency: counters are monotone sums, so any
    // detected fault must be accounted for by at least one recovery action.
    let r = *exec.report();
    if r.faults_detected > 0 && r.retries == 0 && r.cpu_fallbacks == 0 && r.corrected_bits == 0 {
        report.fail(
            path,
            format!(
                "report inconsistency: {} faults detected but no recovery recorded",
                r.faults_detected
            ),
        );
    }
    if program.fault_tra_rate.is_none() && program.profile_seed.is_none() && r.faults_detected > 0
    {
        report.fail(
            path,
            format!("{} faults detected on a fault-free run", r.faults_detected),
        );
    }
    if program.profile_seed.is_some() {
        // Every runtime remap goes through the driver's spare-row path, so
        // the bad-row map must account for at least that many rows (plus
        // any alloc-time pre-remaps).
        let bad_rows = exec.memory().bad_rows().len() as u64;
        if bad_rows < r.remaps {
            report.fail(
                path,
                format!(
                    "report inconsistency: {} remaps recorded but only {bad_rows} bad row(s) mapped",
                    r.remaps
                ),
            );
        }
        if exec.memory().profile().is_none() {
            report.fail(path, "placement profile vanished after arming".into());
        }
    }
    check_trace(report, path, program, exec.memory());
    Some(ResilientRun {
        readback,
        degraded: exec.is_degraded(),
        recovery: r,
        trace: exec.memory().controller().timer().trace().unwrap_or(&[]).to_vec(),
    })
}

fn run_differential(program: &Program, mutation: Option<&Mutation>) -> OracleReport {
    let mut report = OracleReport::default();
    let golden = golden::run(program);

    let batch_paths = BATCH_PATHS
        .map(|(path, policy, threads)| (path, Issue::Batch(policy, threads), false));
    let driver_paths = [
        ("eager", Issue::Eager(4), false),
        ("eager_one_worker", Issue::Eager(1), false),
    ]
    .into_iter()
    .chain(batch_paths)
    .chain([("forced_scalar", Issue::Eager(4), true)]);
    for (path, issue, forced_scalar) in driver_paths {
        if let Some((mut readback, _)) =
            run_driver_path(program, path, &issue, forced_scalar, &mut report)
        {
            apply_mutation(&mut readback, path, mutation);
            compare(&mut report, path, &golden, &readback);
        }
    }
    if program.resilient_compatible() {
        if let Some(mut run) = run_resilient_path(program, RESILIENT_PATH, false, &mut report) {
            apply_mutation(&mut run.readback, RESILIENT_PATH, mutation);
            compare(&mut report, RESILIENT_PATH, &golden, &run.readback);
        }
    }
    report
}

fn run_fault_armed(program: &Program, mutation: Option<&Mutation>) -> OracleReport {
    let mut report = OracleReport::default();
    if program.fault_tra_rate.is_some() {
        check_fault_armed_batches(program, mutation, &mut report);
    }
    let golden = golden::run(program);
    let Some(mut run) = run_resilient_path(program, RESILIENT_PATH, false, &mut report) else {
        return report;
    };
    // Both charge-share kernels consume one fault draw stream, so the
    // forced-scalar device must reproduce the run exactly.
    let scalar_path = RESILIENT_SCALAR_PATH;
    if let Some(mut scalar) = run_resilient_path(program, scalar_path, true, &mut report) {
        apply_mutation(&mut scalar.readback, scalar_path, mutation);
        if let Some(v) = first_mismatch(&scalar.readback, &run.readback) {
            report.fail(scalar_path, format!("vector {v} readback differs from {RESILIENT_PATH}"));
        }
        if scalar.recovery != run.recovery {
            report.fail(
                scalar_path,
                format!(
                    "recovery report {:?} differs from {RESILIENT_PATH}'s {:?}",
                    scalar.recovery, run.recovery
                ),
            );
        }
        if let Some(i) = first_mismatch(&scalar.trace, &run.trace) {
            report.fail(
                scalar_path,
                format!("command trace differs from {RESILIENT_PATH} at entry {i}"),
            );
        }
    }
    apply_mutation(&mut run.readback, RESILIENT_PATH, mutation);
    // TMR voting plus retry/scrub must recover the golden result unless
    // the executor explicitly declared the run degraded.
    if !run.degraded {
        compare(&mut report, RESILIENT_PATH, &golden, &run.readback);
    }
    report
}

/// Runs the batch paths on the fault-armed device. Each must match
/// `batch_bank_parallel` on readback, device stats and command order, and
/// on command timing too when it runs the same policy.
fn check_fault_armed_batches(
    program: &Program,
    mutation: Option<&Mutation>,
    report: &mut OracleReport,
) {
    let mut runs = Vec::with_capacity(BATCH_PATHS.len());
    for (path, policy, threads) in BATCH_PATHS {
        let issue = Issue::Batch(policy, threads);
        let Some((mut readback, mem)) = run_driver_path(program, path, &issue, false, report)
        else {
            return;
        };
        apply_mutation(&mut readback, path, mutation);
        let trace = mem.controller().timer().trace().unwrap_or(&[]).to_vec();
        runs.push((path, policy, readback, mem.controller().device().stats(), trace));
    }
    let order = |t: &[TraceEntry]| t.iter().map(|e| (e.bank, e.command)).collect::<Vec<_>>();
    let (_, _, want_readback, want_stats, want_trace) = &runs[1]; // batch_bank_parallel
    for (path, policy, readback, stats, trace) in &runs {
        if (readback, stats, order(trace)) != (want_readback, want_stats, order(want_trace)) {
            let detail = "readback, device stats or command order differ from batch_bank_parallel";
            report.fail(path, detail.into());
        }
        if *policy == IssuePolicy::BankParallel && trace != want_trace {
            report.fail(path, "command trace differs from batch_bank_parallel".into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};

    #[test]
    fn small_fault_free_programs_conform() {
        let cfg = GeneratorConfig::default();
        for seed in 1..12 {
            let program = generate(seed, &cfg);
            let report = run_oracle(&program, None);
            assert!(
                report.ok(),
                "seed {seed} diverged:\n{:#?}",
                report.failures
            );
        }
    }

    #[test]
    fn multi_channel_programs_conform() {
        use crate::program::GeometryKind;
        let cfg = GeneratorConfig { multi_channel_chance: 1.0, ..GeneratorConfig::default() };
        let mut dual = 0;
        for seed in 1..10 {
            let program = generate(seed, &cfg);
            assert_eq!(program.geometry, GeometryKind::TinyDual);
            dual += 1;
            let report = run_oracle(&program, None);
            assert!(report.ok(), "seed {seed} diverged:\n{:#?}", report.failures);
        }
        assert!(dual > 0);
    }

    #[test]
    fn synth_armed_programs_conform() {
        let cfg = GeneratorConfig { synth_chance: 1.0, ..GeneratorConfig::default() };
        let mut with_synth = 0;
        for seed in 1..14 {
            let program = generate(seed, &cfg);
            if program.ops.iter().any(|op| matches!(op, ProgOp::Synth { .. })) {
                with_synth += 1;
            }
            let report = run_oracle(&program, None);
            assert!(report.ok(), "seed {seed} diverged:\n{:#?}", report.failures);
        }
        assert!(with_synth > 0, "no synth-armed program in the sweep");
    }

    #[test]
    fn mutation_hook_seeds_a_detectable_divergence() {
        let program = generate(3, &GeneratorConfig::default());
        let mutation = Mutation { path: "eager".into(), vector: 0, bit: 0 };
        let report = run_oracle(&program, Some(&mutation));
        assert!(!report.ok());
        assert!(report.failures.iter().all(|f| f.path == "eager"));
        // The same program without the mutation conforms.
        assert!(run_oracle(&program, None).ok());
    }

    #[test]
    fn profile_armed_programs_recover_or_degrade() {
        let cfg = GeneratorConfig { profile_chance: 1.0, ..GeneratorConfig::default() };
        let mut armed = 0;
        for seed in 1..8 {
            let program = generate(seed, &cfg);
            assert!(program.profile_seed.is_some());
            assert!(program.fault_tra_rate.is_none());
            armed += 1;
            let report = run_oracle(&program, None);
            assert!(report.ok(), "seed {seed} failed:\n{:#?}", report.failures);
            // Same seed, same map, same outcome: the profile replay is
            // deterministic end to end.
            let again = run_oracle(&program, None);
            assert_eq!(again.ok(), report.ok());
        }
        assert!(armed > 0);
    }

    #[test]
    fn forced_scalar_resilient_pin_detects_a_divergence() {
        let cfg = GeneratorConfig { fault_chance: 1.0, ..GeneratorConfig::default() };
        let program = generate(2, &cfg);
        assert!(run_oracle(&program, None).ok());
        let mutation = Mutation { path: RESILIENT_SCALAR_PATH.into(), vector: 0, bit: 0 };
        let report = run_oracle(&program, Some(&mutation));
        assert!(!report.ok());
        assert!(report.failures.iter().all(|f| f.path == RESILIENT_SCALAR_PATH));
    }

    #[test]
    fn fault_armed_batch_paths_pin_detects_a_divergence() {
        let cfg = GeneratorConfig { fault_chance: 1.0, ..GeneratorConfig::default() };
        let program = generate(2, &cfg);
        for path in ["batch_serial", "batch_one_worker"] {
            let mutation = Mutation { path: path.into(), vector: 0, bit: 0 };
            let report = run_oracle(&program, Some(&mutation));
            assert!(!report.ok(), "{path}");
            assert!(report.failures.iter().all(|f| f.path == path), "{:?}", report.failures);
        }
    }

    #[test]
    fn fault_armed_programs_recover_or_degrade() {
        let cfg = GeneratorConfig { fault_chance: 1.0, ..GeneratorConfig::default() };
        let mut armed = 0;
        for seed in 1..10 {
            let program = generate(seed, &cfg);
            assert!(program.fault_tra_rate.is_some());
            armed += 1;
            let report = run_oracle(&program, None);
            assert!(report.ok(), "seed {seed} failed:\n{:#?}", report.failures);
        }
        assert!(armed > 0);
    }
}
