//! One registry observing the whole Ambit stack: a seeded, deterministic
//! run that exercises every telemetry layer and dumps the results.
//!
//! The workload walks the resilient executor through its three regimes —
//! clean execution, a stuck-at cell that gets remapped to a spare row, and
//! a catastrophic TRA fault rate that degrades the device to CPU
//! execution — while a single [`Registry`] collects:
//!
//! * per-bank ACT/PRE/RD/WR counters and the wordlines-raised histogram
//!   from the command timer,
//! * per-command and per-operation energy/latency histograms,
//! * `ambit_resilient_*` recovery counters mirroring the
//!   [`RecoveryReport`], plus retry/remap/degrade trace events,
//! * `ambit_driver_plan_cache_{hits,misses}` from the compiled-program
//!   cache, and `ambit_charge_share_path_total{path=...}` showing which
//!   activations resolved on the fault-free word-parallel path versus the
//!   path that consumes the fault RNG (fault-armed TRAs, like this
//!   campaign's, count as `scalar` although the word kernel resolves
//!   them),
//! * `ambit_batch_path_total{path, reason}`: which issue path each batch
//!   ran on and why — the threaded path as requested, or plain
//!   bank-parallel issue because the device is fault-armed or the thread
//!   budget is one — next to the `ambit_pool_*` counters of the threaded
//!   path's scoped-thread fan-out (jobs, threads spawned, queue wait),
//! * the analytic Figure 9 envelope as gauges, for comparison on the same
//!   scrape.
//!
//! Everything downstream of the device model is denominated in *simulated*
//! DRAM time, so those metrics are bit-for-bit reproducible. The
//! `ambit_pool_queue_wait_us` histogram is the one exception: it times
//! real OS threads and shifts between runs. Run with:
//! `cargo run --release --example telemetry_dashboard`

use ambit_repro::core::{
    AllocGroup, AmbitConfig, AmbitError, AmbitMemory, BatchBuilder, BitwiseOp, IssuePolicy,
    ResilientConfig, ResilientExecutor,
};
use ambit_repro::dram::{
    AapMode, CampaignConfig, CellFault, DramGeometry, FaultCampaign, TimingParams,
};
use ambit_repro::telemetry::Registry;

fn main() -> Result<(), AmbitError> {
    let registry = Registry::default();
    let geometry = DramGeometry::tiny();

    // A seeded campaign: weak cells armed for retention decay, planted
    // deterministically. Same seed, same run, same metrics — always.
    let campaign = FaultCampaign::plan(
        CampaignConfig {
            seed: 2017,
            base_tra_rate: 0.0005,
            weak_cells_per_subarray: 2,
            decay_probability: 1.0,
            first_eligible_row: 8,
            ..CampaignConfig::default()
        },
        &geometry,
    )?;

    let mut mem = AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
    mem.reserve_spare_rows(2)?;
    let mut exec =
        ResilientExecutor::with_campaign(mem, ResilientConfig::default(), campaign)?;
    exec.set_telemetry(registry.clone());

    // Two row-sized chunks per vector, so the allocator stripes them
    // across both banks and the per-bank counters show real fan-out.
    let bits = 2 * exec.memory().row_bits();
    let a = exec.alloc(bits)?;
    let b = exec.alloc(bits)?;
    let out = exec.alloc(bits)?;
    exec.write(a, &(0..bits).map(|i| i % 2 == 0).collect::<Vec<_>>())?;
    exec.write(b, &(0..bits).map(|i| i % 3 == 0).collect::<Vec<_>>())?;

    // Phase 1: a healthy mixed workload (transient TRA faults possible at
    // the campaign's base rate, retention decay ticking underneath).
    for op in [BitwiseOp::And, BitwiseOp::Or, BitwiseOp::Xor, BitwiseOp::Nand] {
        for _ in 0..4 {
            exec.bitwise(op, a, Some(b), out)?;
        }
    }

    // Phase 2: a stuck-at cell on one replica of the destination — the
    // executor classifies it permanent and remaps the row to a spare.
    let victim = exec.replicas(out)?[0];
    exec.memory_mut().inject_fault(victim, 1, CellFault::StuckAtOne)?;
    exec.bitwise(BitwiseOp::And, a, Some(b), out)?;

    // Phase 3: Table 2's ±25 % process variation (26 % failures per TRA):
    // the executor must degrade to CPU execution to stay correct.
    exec.memory_mut().set_tra_fault_rate(0.26)?;
    exec.bitwise(BitwiseOp::Or, a, Some(b), out)?;
    exec.bitwise(BitwiseOp::Xor, a, Some(b), out)?;

    // Phase 4: batch path selection. The same batch runs four times, and
    // each run lands on a different `ambit_batch_path_total{path, reason}`
    // series: threaded as requested (a four-thread budget, so the phase
    // behaves the same on a one-core host), bank-parallel as requested,
    // bank-parallel because the thread budget is one, and bank-parallel
    // because transient TRA faults are armed.
    let mut batch_mem =
        AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
    batch_mem.set_pool_threads(4);
    batch_mem.set_telemetry(registry.clone());
    let row = batch_mem.row_bits();
    // One operand triple per bank (groups stripe across banks), so each
    // wave carries two independent chunks and genuinely fans out.
    let mut batch = BatchBuilder::new();
    for g in 0..2 {
        let x = batch_mem.alloc_in_group(row, AllocGroup(g))?;
        let y = batch_mem.alloc_in_group(row, AllocGroup(g))?;
        let z = batch_mem.alloc_in_group(row, AllocGroup(g))?;
        batch_mem.write_bits(x, &(0..row).map(|i| i % 2 == 0).collect::<Vec<_>>())?;
        batch_mem.write_bits(y, &(0..row).map(|i| i % 5 == 0).collect::<Vec<_>>())?;
        batch.bitwise(BitwiseOp::And, x, Some(y), z);
        batch.bitwise(BitwiseOp::Xor, x, Some(y), z);
    }
    batch_mem.execute_batch(&batch, IssuePolicy::BankParallelThreaded)?;
    batch_mem.execute_batch(&batch, IssuePolicy::BankParallel)?;
    batch_mem.set_pool_threads(1);
    batch_mem.execute_batch(&batch, IssuePolicy::BankParallelThreaded)?;
    batch_mem.set_pool_threads(4);
    batch_mem.set_tra_fault_rate(0.0005)?;
    batch_mem.execute_batch(&batch, IssuePolicy::BankParallelThreaded)?;

    // Overlay the analytic Figure 9 envelope on the same registry.
    AmbitConfig::ddr3_module().export_telemetry(&registry)?;

    let report = *exec.report();
    println!("# run summary (deterministic, simulated time)");
    println!(
        "#   ops={} faults_detected={} retries={} remaps={} cpu_fallbacks={} degraded={}",
        report.ops,
        report.faults_detected,
        report.retries,
        report.remaps,
        report.cpu_fallbacks,
        report.degraded
    );
    println!("# batch paths (ambit_batch_path_total):");
    for (path, reason) in [
        ("threaded", "requested"),
        ("bank_parallel", "requested"),
        ("bank_parallel", "single_worker"),
        ("bank_parallel", "fault_armed"),
    ] {
        let n = registry
            .counter_value("ambit_batch_path_total", &[("path", path), ("reason", reason)])
            .unwrap_or(0);
        println!("#   path={path} reason={reason}: {n}");
    }
    println!();
    print!("{}", registry.render_prometheus());

    let jsonl = registry.export_jsonl();
    println!();
    println!("# trace export: {} JSONL records (spans + events), first 8:", jsonl.lines().count());
    for line in jsonl.lines().take(8) {
        println!("{line}");
    }
    Ok(())
}
