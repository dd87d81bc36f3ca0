//! Golden replay of one fault-armed resilient run.
//!
//! A fixed-seed fault campaign (transient TRA flips, stuck-at cells and
//! retention-weak cells) drives about forty TMR operations on the tiny
//! geometry, including destination-aliased `Or` and in-place `Not`. Every
//! number the run produces — the cumulative [`RecoveryReport`], the
//! simulated horizon and energy, and the raw bytes of every replica row,
//! padding included — is pinned to values recorded from the bit-serial
//! implementation of the fault-armed data plane and the `Vec<bool>` TMR
//! voting it replaced. Any change to the fault RNG stream, the retry and
//! repair decisions, or the padding the recovery writes shows up here.

use ambit_repro::core::{
    AmbitMemory, BitwiseOp, RecoveryReport, ResilientConfig, ResilientExecutor, ResilientHandle,
    SubarrayLayout,
};
use ambit_repro::dram::{AapMode, CampaignConfig, DramGeometry, FaultCampaign, TimingParams};

/// Logical vector length: two 128-bit rows with 56 padding bits.
const BITS: usize = 200;
const VECTORS: usize = 4;
/// Two ops past the last periodic scrub (every 8 ops), so the final
/// in-place `Not` leaves ones in its vector's padding.
const OPS: usize = 42;

/// The op mix the recorded run issued, drawn from a fixed xorshift seed.
/// Every fourth op is a destination-aliased `Or` and every fourth (offset
/// one) an in-place `Not`, so the pre-op snapshot paths run throughout.
fn program() -> Vec<(BitwiseOp, usize, Option<usize>, usize)> {
    const MIX: [BitwiseOp; 8] = [
        BitwiseOp::Xor,
        BitwiseOp::Xnor,
        BitwiseOp::And,
        BitwiseOp::Xor,
        BitwiseOp::Nand,
        BitwiseOp::Copy,
        BitwiseOp::Nor,
        BitwiseOp::Xnor,
    ];
    let mut x = 0x005e_ed0f_ab1e_u64;
    (0..OPS)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x % VECTORS as u64) as usize;
            // A distinct second source keeps the data from collapsing.
            let b = (a + 1 + ((x >> 8) % (VECTORS as u64 - 1)) as usize) % VECTORS;
            let d = ((x >> 16) % VECTORS as u64) as usize;
            match i % 4 {
                0 => (BitwiseOp::Or, a, Some(b), a),
                1 => (BitwiseOp::Not, a, None, a),
                _ => {
                    let op = MIX[((x >> 24) % MIX.len() as u64) as usize];
                    let b = (op.source_count() == 2).then_some(b);
                    (op, a, b, d)
                }
            }
        })
        .collect()
}

fn initial(v: usize) -> Vec<bool> {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ v as u64;
    (0..BITS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> 32 & 1 == 1
        })
        .collect()
}

struct Outcome {
    report: RecoveryReport,
    horizon_ps: u64,
    energy_nj: f64,
    /// Hex of every replica's rows, `[vector][replica]`.
    replicas: Vec<[String; 3]>,
}

/// Runs the program on a campaign whose device-average TRA flip rate is
/// `rate`.
fn run(rate: f64) -> Outcome {
    let geometry = DramGeometry::tiny();
    let first_data_row = SubarrayLayout::new(geometry.rows_per_subarray)
        .data_row(0)
        .unwrap();
    let campaign = FaultCampaign::plan(
        CampaignConfig {
            seed: 0x0060_1de7,
            base_tra_rate: rate,
            stuck_cells_per_subarray: 1,
            weak_cells_per_subarray: 2,
            decay_probability: 0.5,
            first_eligible_row: first_data_row,
            ..CampaignConfig::default()
        },
        &geometry,
    )
    .unwrap();
    let mut mem = AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
    mem.reserve_spare_rows(2).unwrap();
    let mut exec =
        ResilientExecutor::with_campaign(mem, ResilientConfig::default(), campaign).unwrap();
    let handles: Vec<ResilientHandle> = (0..VECTORS).map(|_| exec.alloc(BITS).unwrap()).collect();
    let mut model: Vec<Vec<bool>> = (0..VECTORS).map(initial).collect();
    for (h, data) in handles.iter().zip(&model) {
        exec.write(*h, data).unwrap();
    }
    for (op, a, b, d) in program() {
        exec.bitwise(op, handles[a], b.map(|b| handles[b]), handles[d])
            .unwrap();
        let result: Vec<bool> = (0..BITS)
            .map(|i| {
                let x = model[a][i] as u64;
                let y = b.map_or(0, |b| model[b][i] as u64);
                op.apply_words(x, y) & 1 == 1
            })
            .collect();
        model[d] = result;
    }
    for (v, h) in handles.iter().enumerate() {
        let got = exec.read(*h).unwrap();
        if !exec.is_degraded() {
            assert_eq!(got, model[v], "vector {v} diverges from the CPU model");
        }
    }
    let replicas = handles
        .iter()
        .map(|&h| {
            exec.replicas(h).unwrap().map(|r| {
                exec.memory()
                    .peek_rows(r)
                    .unwrap()
                    .iter()
                    .flat_map(|row| row.to_bytes())
                    .map(|byte| format!("{byte:02x}"))
                    .collect::<String>()
            })
        })
        .collect();
    Outcome {
        report: *exec.report(),
        horizon_ps: exec.memory().controller().timer().horizon_ps(),
        energy_nj: exec.memory().energy_nj(),
        replicas,
    }
}

/// Asserts one recorded outcome; `replicas[v]` is vector `v`'s row hex,
/// identical across its three replicas in both recorded runs.
fn assert_outcome(
    out: &Outcome,
    report: RecoveryReport,
    horizon_ps: u64,
    energy_nj: f64,
    replicas: [&str; VECTORS],
) {
    assert_eq!(out.report, report);
    assert_eq!(out.horizon_ps, horizon_ps);
    assert_eq!(
        out.energy_nj.to_bits(),
        energy_nj.to_bits(),
        "{}",
        out.energy_nj
    );
    for (v, want) in replicas.iter().enumerate() {
        for (r, got) in out.replicas[v].iter().enumerate() {
            assert_eq!(got, want, "vector {v} replica {r}");
        }
    }
}

const ONES: &str = "ffffffffffffffffffffffffffffffffffffffffffffffffff00000000000000";
const MIXED: &str = "fb59ed6f2fdfefcb3fb7ff97fddeaebffdebef7dba9dfbff1b00000000000000";
const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";

#[test]
fn fault_armed_resilient_run_replays_recorded_outcome() {
    // 0.3 %: every op completes in DRAM. The closing in-place `Not` after
    // the last scrub leaves ones in vector 2's padding, which no recovery
    // path may clear or vote on.
    assert_outcome(
        &run(0.003),
        RecoveryReport {
            ops: 42,
            faults_detected: 393,
            retries: 78,
            remaps: 2,
            scrubs: 200,
            cpu_fallbacks: 0,
            corrected_bits: 104,
            refreshes: 11,
            decay_flips: 47,
            added_latency_ps: 60026250,
            added_energy_nj: 15641.052000000722,
            degraded: false,
        },
        86749750,
        22128.096000001144,
        [
            ONES,
            MIXED,
            "fb59ed6f2fdfefcb3fb7ff97fddeaebffdebef7dba9dfbff1bffffffffffffff",
            ZEROS,
        ],
    );
    // 0.4 %: the device degrades during op 23, which completes on the CPU
    // fallback like the 19 after it; those writes zero the padding.
    assert_outcome(
        &run(0.004),
        RecoveryReport {
            ops: 42,
            faults_detected: 308,
            retries: 51,
            remaps: 2,
            scrubs: 139,
            cpu_fallbacks: 20,
            corrected_bits: 88,
            refreshes: 6,
            decay_flips: 29,
            added_latency_ps: 38572500,
            added_energy_nj: 10093.068000000245,
            degraded: true,
        },
        53941250,
        13835.424000000312,
        [ONES, MIXED, MIXED, ZEROS],
    );
}
