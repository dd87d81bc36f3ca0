//! Golden replays of fault-armed resilient runs.
//!
//! A fixed-seed fault campaign (transient TRA flips, stuck-at cells and
//! retention-weak cells) drives about forty TMR operations on the tiny
//! geometry, including destination-aliased `Or` and in-place `Not`. Every
//! number the run produces — the cumulative [`RecoveryReport`], the
//! simulated horizon and energy, and the raw bytes of every replica row,
//! padding included — is pinned to values recorded with the geometric
//! fault-gap stream. The replica rows are the ones the CPU model computes,
//! as they were when every bitline took its own fault draw. Any change to
//! the fault RNG stream, the retry and repair decisions, or the padding
//! the recovery writes shows up here.
//!
//! A second replay runs a dozen operations on 1 KB rows of the DDR3 module
//! under the campaign the `resilient_query` benchmark arms, so every TRA
//! walks a full row of armed bitlines; it pins the same numbers, with the
//! replica rows folded into one digest.

use ambit_repro::core::{
    AmbitMemory, BitwiseOp, RecoveryReport, ResilientConfig, ResilientExecutor, ResilientHandle,
    SubarrayLayout,
};
use ambit_repro::dram::{AapMode, CampaignConfig, DramGeometry, FaultCampaign, TimingParams};

/// Logical vector length on the tiny geometry: two 128-bit rows with 56
/// padding bits.
const BITS: usize = 200;
const VECTORS: usize = 4;
/// Two ops past the last periodic scrub (every 8 ops), so the final
/// in-place `Not` leaves ones in its vector's padding.
const OPS: usize = 42;

/// The op mix the recorded run issued, drawn from a fixed xorshift seed.
/// Every fourth op is a destination-aliased `Or` and every fourth (offset
/// one) an in-place `Not`, so the pre-op snapshot paths run throughout.
fn program(ops: usize) -> Vec<(BitwiseOp, usize, Option<usize>, usize)> {
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
    (0..ops)
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

fn initial(v: usize, bits: usize) -> Vec<bool> {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ v as u64;
    (0..bits)
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
    /// The raw bytes of every replica's rows, `[vector][replica]`.
    replicas: Vec<[Vec<u8>; 3]>,
}

/// Runs the first `ops` ops of the program on [`VECTORS`] vectors of
/// `bits` bits on `geometry`, armed with `campaign`.
fn run(geometry: DramGeometry, campaign: CampaignConfig, bits: usize, ops: usize) -> Outcome {
    let campaign = FaultCampaign::plan(campaign, &geometry).unwrap();
    let mut mem = AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
    mem.reserve_spare_rows(2).unwrap();
    let mut exec =
        ResilientExecutor::with_campaign(mem, ResilientConfig::default(), campaign).unwrap();
    let handles: Vec<ResilientHandle> = (0..VECTORS).map(|_| exec.alloc(bits).unwrap()).collect();
    let mut model: Vec<Vec<bool>> = (0..VECTORS).map(|v| initial(v, bits)).collect();
    for (h, data) in handles.iter().zip(&model) {
        exec.write(*h, data).unwrap();
    }
    for (op, a, b, d) in program(ops) {
        exec.bitwise(op, handles[a], b.map(|b| handles[b]), handles[d])
            .unwrap();
        let result: Vec<bool> = (0..bits)
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
                    .collect::<Vec<u8>>()
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

/// Runs the tiny-geometry program on a campaign whose device-average TRA
/// flip rate is `rate`.
fn run_tiny(rate: f64) -> Outcome {
    let geometry = DramGeometry::tiny();
    let first_data_row = SubarrayLayout::new(geometry.rows_per_subarray)
        .data_row(0)
        .unwrap();
    let campaign = CampaignConfig {
        seed: 0x0060_1de7,
        base_tra_rate: rate,
        stuck_cells_per_subarray: 1,
        weak_cells_per_subarray: 2,
        decay_probability: 0.5,
        first_eligible_row: first_data_row,
        ..CampaignConfig::default()
    };
    run(geometry, campaign, BITS, OPS)
}

/// Asserts the recorded report, horizon and energy of one outcome.
fn assert_totals(out: &Outcome, report: RecoveryReport, horizon_ps: u64, energy_nj: f64) {
    assert_eq!(out.report, report);
    assert_eq!(out.horizon_ps, horizon_ps);
    assert_eq!(
        out.energy_nj.to_bits(),
        energy_nj.to_bits(),
        "{}",
        out.energy_nj
    );
}

/// Asserts one recorded tiny-geometry outcome; `replicas[v]` is vector
/// `v`'s row hex, identical across its three replicas in both recorded
/// runs.
fn assert_outcome(
    out: &Outcome,
    report: RecoveryReport,
    horizon_ps: u64,
    energy_nj: f64,
    replicas: [&str; VECTORS],
) {
    assert_totals(out, report, horizon_ps, energy_nj);
    for (v, want) in replicas.iter().enumerate() {
        for (r, got) in out.replicas[v].iter().enumerate() {
            let hex: String = got.iter().map(|byte| format!("{byte:02x}")).collect();
            assert_eq!(hex, *want, "vector {v} replica {r}");
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
        &run_tiny(0.003),
        RecoveryReport {
            ops: 42,
            faults_detected: 368,
            retries: 75,
            remaps: 2,
            scrubs: 194,
            cpu_fallbacks: 0,
            corrected_bits: 117,
            refreshes: 10,
            decay_flips: 44,
            added_latency_ps: 57652500,
            added_energy_nj: 15058.476000000812,
            degraded: false,
        },
        84221000,
        21545.520000001183,
        [
            ONES,
            MIXED,
            "fb59ed6f2fdfefcb3fb7ff97fddeaebffdebef7dba9dfbff1bffffffffffffff",
            ZEROS,
        ],
    );
    // 1.2 %, above the 0.5 % per-TRA degrade threshold: the device
    // degrades during op 16, which completes on the CPU fallback like the
    // 26 after it; those writes zero the padding.
    assert_outcome(
        &run_tiny(0.012),
        RecoveryReport {
            ops: 42,
            faults_detected: 553,
            retries: 33,
            remaps: 2,
            scrubs: 100,
            cpu_fallbacks: 27,
            corrected_bits: 120,
            refreshes: 4,
            decay_flips: 21,
            added_latency_ps: 26139750,
            added_energy_nj: 6849.899999999822,
            degraded: true,
        },
        36752750,
        9435.59999999973,
        [ONES, MIXED, MIXED, ZEROS],
    );
}

/// FNV-1a over every replica row, in vector then replica order.
fn digest(replicas: &[[Vec<u8>; 3]]) -> u64 {
    replicas
        .iter()
        .flatten()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325, |h, &byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
        })
}

#[test]
fn benchmark_width_resilient_run_replays_recorded_outcome() {
    // The `resilient_query` chip: 1 KB rows on the DDR3 module, a 0.01 %
    // device-average TRA flip rate spread ±25 % across subarrays, and the
    // campaign's default seed. Each vector spans two rows, so every TRA
    // walks 8,192 armed bitlines.
    let geometry = DramGeometry {
        row_bytes: 1024,
        ..DramGeometry::ddr3_module()
    };
    let campaign = CampaignConfig {
        base_tra_rate: 1e-4,
        tra_rate_spread: 0.25,
        ..CampaignConfig::default()
    };
    let out = run(geometry, campaign, 2 * 8192, 12);
    let rows = out.replicas.iter().flatten().map(Vec::len).sum::<usize>();
    assert_eq!(rows, VECTORS * 3 * 2 * 1024);
    assert_totals(
        &out,
        RecoveryReport {
            ops: 12,
            faults_detected: 243,
            retries: 24,
            remaps: 0,
            scrubs: 60,
            cpu_fallbacks: 0,
            corrected_bits: 59,
            refreshes: 2,
            decay_flips: 0,
            added_latency_ps: 18994500,
            added_energy_nj: 4989.8339999998425,
            degraded: false,
        },
        26508000,
        6879.911999999789,
    );
    assert_eq!(digest(&out.replicas), 0x1a04_a032_9505_79e0);
}
