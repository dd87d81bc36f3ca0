//! Cross-crate telemetry integration: the unified registry must agree
//! with the analytic energy model, replay deterministically under a
//! seeded fault campaign, and export well-formed Prometheus/JSONL.

use ambit_repro::core::{
    AmbitController, AmbitMemory, BitwiseOp, RecoveryReport, ResilientConfig,
    ResilientExecutor, RowAddress,
};
use ambit_repro::dram::{
    AapMode, BankId, CampaignConfig, CellFault, DramGeometry, EnergyModel, FaultCampaign,
    TimingParams,
};
use ambit_repro::telemetry::{json::Json, Registry, TRACE_CAPACITY};

/// Runs one op on a telemetry-instrumented controller at the paper's
/// Table 3 configuration and returns the metrics-side energy in nJ/KB.
fn metered_nj_per_kb(op: BitwiseOp) -> f64 {
    let geometry = DramGeometry::ddr3_module();
    let mut ctrl =
        AmbitController::new(geometry, TimingParams::ddr3_1333(), AapMode::Overlapped);
    let registry = Registry::default();
    ctrl.set_telemetry(registry.clone());
    let src2 = (op.source_count() == 2).then_some(RowAddress::D(1));
    ctrl.execute(op, BankId::zero(), 0, RowAddress::D(0), src2, RowAddress::D(2))
        .expect("standard program executes");
    let snap = registry
        .histogram_snapshot("ambit_command_energy_nj", &[])
        .expect("energy histogram registered");
    snap.sum / (geometry.row_bytes as f64 / 1024.0)
}

#[test]
fn metered_energy_matches_analytic_table3_within_one_percent() {
    let m = EnergyModel::ddr3_1333();
    let aap = |w1: usize, w2: usize| m.activate_nj(w1) + m.activate_nj(w2) + m.precharge_nj();
    let ap = |w: usize| m.activate_nj(w) + m.precharge_nj();
    let row_kb = 8.0; // ddr3_module has 8 KB rows
    // Analytic Table 3 values from the Figure 8 program structures.
    let cases = [
        (BitwiseOp::Copy, aap(1, 1) / row_kb),
        (BitwiseOp::And, (3.0 * aap(1, 1) + aap(3, 1)) / row_kb),
        (
            BitwiseOp::Xor,
            (3.0 * aap(1, 2) + 2.0 * ap(3) + aap(1, 1) + aap(3, 1)) / row_kb,
        ),
    ];
    for (op, analytic) in cases {
        let metered = metered_nj_per_kb(op);
        let err = (metered - analytic).abs() / analytic;
        assert!(
            err < 0.01,
            "{op:?}: metered {metered:.4} nJ/KB vs analytic {analytic:.4} ({:.2}% off)",
            err * 100.0
        );
    }
}

/// The seeded workload used by the determinism tests: clean ops, then a
/// stuck cell forcing a remap, then a catastrophic rate forcing
/// degradation.
fn seeded_campaign_run() -> (Registry, RecoveryReport) {
    let geometry = DramGeometry::tiny();
    let campaign = FaultCampaign::plan(
        CampaignConfig {
            seed: 7,
            base_tra_rate: 0.001,
            weak_cells_per_subarray: 2,
            decay_probability: 1.0,
            first_eligible_row: 8,
            ..CampaignConfig::default()
        },
        &geometry,
    )
    .expect("campaign plans");
    let mut mem = AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
    mem.reserve_spare_rows(2).expect("spares reserved");
    let mut exec = ResilientExecutor::with_campaign(mem, ResilientConfig::default(), campaign)
        .expect("campaign applies");
    let registry = Registry::default();
    exec.set_telemetry(registry.clone());

    let bits = exec.memory().row_bits();
    let a = exec.alloc(bits).unwrap();
    let b = exec.alloc(bits).unwrap();
    let out = exec.alloc(bits).unwrap();
    exec.write(a, &(0..bits).map(|i| i % 2 == 0).collect::<Vec<_>>())
        .unwrap();
    exec.write(b, &(0..bits).map(|i| i % 3 == 0).collect::<Vec<_>>())
        .unwrap();
    for _ in 0..6 {
        exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
    }
    let victim = exec.replicas(out).unwrap()[0];
    exec.memory_mut()
        .inject_fault(victim, 1, CellFault::StuckAtOne)
        .unwrap();
    exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
    exec.memory_mut().set_tra_fault_rate(0.26).unwrap();
    exec.bitwise(BitwiseOp::Or, a, Some(b), out).unwrap();
    (registry, *exec.report())
}

/// The Prometheus render without the lines of the resilient executor's
/// host wall-clock histogram, whose sums and buckets differ from run to run.
fn simulated_prometheus(reg: &Registry) -> String {
    reg.render_prometheus()
        .lines()
        .filter(|line| !line.contains("ambit_resilient_phase_host_us"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn seeded_campaign_counters_equal_the_report_and_replay_exactly() {
    let (reg1, report1) = seeded_campaign_run();
    let (reg2, report2) = seeded_campaign_run();

    // Deterministic replay: two runs from the same seed agree bit for bit,
    // apart from the sums and buckets of `ambit_resilient_phase_host_us`,
    // which time the host; its counts must agree. The batch-phase
    // histograms stay in the comparison: a resilient run issues no batch,
    // so they record nothing.
    assert_eq!(report1, report2);
    assert_eq!(simulated_prometheus(&reg1), simulated_prometheus(&reg2));
    assert_eq!(reg1.export_jsonl(), reg2.export_jsonl());
    for phase in ["replicas", "vote", "recovery"] {
        let count = |reg: &Registry| {
            reg.histogram_snapshot("ambit_resilient_phase_host_us", &[("phase", phase)])
                .expect("phase histogram registered")
                .count
        };
        assert_eq!(count(&reg1), report1.ops, "one {phase} sample per op");
        assert_eq!(count(&reg2), report1.ops, "one {phase} sample per op");
    }
    for phase in ["waves", "plan", "issue", "fanout"] {
        let batch = reg1
            .histogram_snapshot("ambit_batch_phase_host_us", &[("phase", phase)])
            .expect("batch phase histogram registered");
        assert_eq!(batch.count, 0, "no batch timed in {phase}");
    }

    // The counters are exactly the cumulative report.
    let value = |name: &str| reg1.counter_value(name, &[]).unwrap();
    assert_eq!(value("ambit_resilient_ops_total"), report1.ops);
    assert_eq!(
        value("ambit_resilient_faults_detected_total"),
        report1.faults_detected
    );
    assert_eq!(value("ambit_resilient_retries_total"), report1.retries);
    assert_eq!(value("ambit_resilient_remaps_total"), report1.remaps);
    assert_eq!(value("ambit_resilient_scrubs_total"), report1.scrubs);
    assert_eq!(
        value("ambit_resilient_cpu_fallbacks_total"),
        report1.cpu_fallbacks
    );
    assert_eq!(
        value("ambit_resilient_corrected_bits_total"),
        report1.corrected_bits
    );
    assert_eq!(value("ambit_resilient_refreshes_total"), report1.refreshes);
    assert_eq!(
        value("ambit_resilient_decay_flips_total"),
        report1.decay_flips
    );
    assert_eq!(
        reg1.gauge_value("ambit_resilient_degraded", &[]),
        Some(1.0)
    );
    // Clean scrubs are the scrubs that found agreeing replicas and only
    // refreshed them: the sources' periodic scrubs here, but not the
    // scrubs that healed the stuck cell.
    let clean = value("ambit_resilient_clean_scrubs_total");
    assert!(
        clean >= 1 && clean < report1.scrubs,
        "{clean} clean of {} scrubs",
        report1.scrubs
    );

    // The workload is constructed to hit every recovery path.
    assert_eq!(report1.ops, 8);
    assert!(report1.remaps >= 1, "stuck cell must be remapped: {report1:?}");
    assert!(report1.retries >= 1, "26% rate must force retries: {report1:?}");
    assert!(report1.degraded, "26% rate must degrade the device");

    // Each recovery action left a trace event.
    let events = reg1.events();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count() as u64;
    assert_eq!(count("resilient.retry"), report1.retries);
    assert_eq!(count("resilient.remap"), report1.remaps);
    assert_eq!(count("resilient.degrade"), 1);
}

#[test]
fn clean_scrubs_count_the_scrubs_that_only_refreshed() {
    let mem = AmbitMemory::new(
        DramGeometry::tiny(),
        TimingParams::ddr3_1600(),
        AapMode::Overlapped,
    );
    let mut exec = ResilientExecutor::new(mem, ResilientConfig::default());
    let registry = Registry::default();
    exec.set_telemetry(registry.clone());
    let bits = exec.memory().row_bits();
    let a = exec.alloc(bits).unwrap();
    let b = exec.alloc(bits).unwrap();
    exec.write(a, &vec![true; bits]).unwrap();
    let clean = || {
        registry
            .counter_value("ambit_resilient_clean_scrubs_total", &[])
            .unwrap()
    };

    // Agreeing replicas: every scrub only refreshes.
    assert_eq!(exec.scrub_all().unwrap(), 0);
    assert_eq!(clean(), 2);
    assert_eq!(exec.report().scrubs, 2);

    // One replica of `b` disagrees in one bit: that scrub rewrites.
    let victim = exec.replicas(b).unwrap()[1];
    let mut bad = vec![false; bits];
    bad[5] = true;
    exec.memory_mut().poke_bits(victim, &bad).unwrap();
    assert_eq!(exec.scrub_all().unwrap(), 1);
    assert_eq!(clean(), 3, "a stays clean, b is rewritten");
    assert_eq!(exec.report().scrubs, 4);
    assert_eq!(
        registry.counter_value("ambit_resilient_scrubs_total", &[]),
        Some(4)
    );
}

#[test]
fn prometheus_and_jsonl_exports_are_well_formed() {
    let (reg, _) = seeded_campaign_run();

    let prom = reg.render_prometheus();
    // Every exposed family carries HELP and TYPE headers.
    for name in [
        "ambit_acts_total",
        "ambit_wordlines_raised",
        "ambit_command_energy_nj",
        "ambit_ops_total",
        "ambit_op_latency_ns",
        "ambit_resilient_retries_total",
    ] {
        assert!(prom.contains(&format!("# HELP {name} ")), "missing HELP for {name}");
        assert!(prom.contains(&format!("# TYPE {name} ")), "missing TYPE for {name}");
    }
    assert!(prom.contains("ambit_wordlines_raised_bucket{le=\"+Inf\"}"));

    // Every JSONL line parses and carries the span/event envelope.
    let jsonl = reg.export_jsonl();
    assert!(!jsonl.is_empty());
    let mut spans = 0;
    let mut events = 0;
    for line in jsonl.lines() {
        let doc = Json::parse(line).expect("each trace line is valid JSON");
        let name = doc.get("name").and_then(Json::as_str).expect("has a name");
        assert!(!name.is_empty());
        match doc.get("type").and_then(Json::as_str) {
            Some("span") => {
                spans += 1;
                let start = doc.get("start_ns").and_then(Json::as_u64).unwrap();
                let end = doc.get("end_ns").and_then(Json::as_u64).unwrap();
                assert!(end >= start, "span {name} runs backwards");
            }
            Some("event") => {
                events += 1;
                doc.get("at_ns").and_then(Json::as_u64).expect("event timestamp");
            }
            other => panic!("unexpected trace record type {other:?}"),
        }
    }
    assert!(spans > 0, "driver and resilient spans recorded");
    assert!(events > 0, "recovery events recorded");
}

#[test]
fn a_long_resilient_run_keeps_a_bounded_trace() {
    // A fault-free resilient executor records the same spans per op, so
    // a short run measures them; a run past the ring's capacity must then
    // keep exactly the most recent TRACE_CAPACITY spans and count every
    // span pushed out.
    let run = |ops: usize| {
        let geometry = DramGeometry::tiny();
        let mem = AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
        let mut exec = ResilientExecutor::new(mem, ResilientConfig::default());
        let registry = Registry::new();
        exec.set_telemetry(registry.clone());
        let bits = exec.memory().row_bits();
        let [a, b, out] = [(); 3].map(|_| exec.alloc(bits).unwrap());
        for _ in 0..ops {
            exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
        }
        registry
    };
    let short = run(10).spans().len();
    assert!(short > 0 && short.is_multiple_of(10), "{short} spans for 10 ops");
    let per_op = short / 10;
    let ops = TRACE_CAPACITY / per_op + 100;
    let registry = run(ops);
    let dropped = |kind| registry.counter_value("ambit_telemetry_dropped_total", &[("kind", kind)]);
    assert_eq!(registry.spans().len(), TRACE_CAPACITY);
    assert_eq!(dropped("span"), Some((ops * per_op - TRACE_CAPACITY) as u64));
    assert_eq!(dropped("event"), Some(0), "a fault-free run drops no events");
}

/// Every functional pass counts its fan-out decision once in
/// `ambit_fanout_total{mode}`: an eager op over 128 chunks striped across
/// the 8 banks hands half of them to a parked worker, while a one-chunk op
/// stays on the calling thread.
#[test]
fn fanout_decisions_are_counted_per_pass() {
    let mut mem = AmbitMemory::ddr3_module();
    mem.set_pool_threads(2);
    let registry = Registry::new();
    mem.set_telemetry(registry.clone());
    let wide = 128 * mem.row_bits();
    let (a, b, d) = (
        mem.alloc(wide).unwrap(),
        mem.alloc(wide).unwrap(),
        mem.alloc(wide).unwrap(),
    );
    mem.bitwise(BitwiseOp::Or, a, Some(b), d).unwrap();
    mem.bitwise(BitwiseOp::Xor, a, Some(b), d).unwrap();
    let narrow = mem.row_bits();
    let (x, y) = (mem.alloc(narrow).unwrap(), mem.alloc(narrow).unwrap());
    mem.bitwise(BitwiseOp::And, x, Some(y), y).unwrap();

    let mode = |m| registry.counter_value("ambit_fanout_total", &[("mode", m)]);
    assert_eq!(mode("dispatched"), Some(2));
    assert_eq!(mode("inline"), Some(1));
    assert_eq!(registry.counter_family_total("ambit_fanout_total"), Some(3));
    let stats = mem.pool_stats();
    assert_eq!((stats.warm_dispatches, stats.cold_spawns), (2, 1));
    assert_eq!(
        registry.counter_value("ambit_pool_warm_dispatches_total", &[]),
        Some(stats.warm_dispatches)
    );
    assert_eq!(
        registry.counter_value("ambit_pool_jobs_total", &[]),
        Some(16),
        "two dispatched passes of 8 busy banks"
    );
    let prom = registry.render_prometheus();
    assert!(prom.contains("ambit_fanout_total{mode=\"dispatched\"} 2"), "{prom}");
}
