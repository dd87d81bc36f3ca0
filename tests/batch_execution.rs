//! Integration tests for the batched, bank-parallel execution engine:
//! batched results must be byte-identical to serial execution for random op
//! DAGs, a batch of bank-independent ops must actually run bank-parallel
//! (paper Section 7.1's all-banks assumption), and regular memory traffic
//! must interleave with AAP streams on one timer (Section 5.5.2).

use ambit_repro::core::{
    AllocGroup, AmbitError, AmbitMemory, BatchBuilder, BitVectorHandle, BitwiseOp, IssuePolicy,
};
use ambit_repro::dram::{
    AapMode, BankId, DramError, DramGeometry, FrFcfsScheduler, MemoryRequest, TimingParams,
    Wordline,
};
use ambit_repro::telemetry::Registry;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn tiny() -> AmbitMemory {
    AmbitMemory::new(
        DramGeometry::tiny(),
        TimingParams::ddr3_1600(),
        AapMode::Overlapped,
    )
}

const OPS: [BitwiseOp; 7] = [
    BitwiseOp::Not,
    BitwiseOp::And,
    BitwiseOp::Or,
    BitwiseOp::Nand,
    BitwiseOp::Nor,
    BitwiseOp::Xor,
    BitwiseOp::Xnor,
];

/// One randomly drawn batch entry over a handle pool.
#[derive(Debug, Clone)]
enum DagOp {
    Bitwise(BitwiseOp, usize, Option<usize>, usize),
    Maj3(usize, usize, usize, usize),
    Fold(BitwiseOp, Vec<usize>, usize),
}

fn random_dag(rng: &mut ChaCha8Rng, pool: usize, len: usize) -> Vec<DagOp> {
    (0..len)
        .map(|_| match rng.gen_range(0u32..8) {
            6 => DagOp::Maj3(
                rng.gen_range(0..pool),
                rng.gen_range(0..pool),
                rng.gen_range(0..pool),
                rng.gen_range(0..pool),
            ),
            7 => {
                let k = rng.gen_range(2..4usize);
                DagOp::Fold(
                    if rng.gen() { BitwiseOp::And } else { BitwiseOp::Or },
                    (0..k).map(|_| rng.gen_range(0..pool)).collect(),
                    rng.gen_range(0..pool),
                )
            }
            _ => {
                let op = OPS[rng.gen_range(0..OPS.len())];
                let src2 = (op.source_count() == 2).then(|| rng.gen_range(0..pool));
                DagOp::Bitwise(op, rng.gen_range(0..pool), src2, rng.gen_range(0..pool))
            }
        })
        .collect()
}

/// Builds two identical memories with a shared handle pool and random
/// contents; handles are identical because allocation order is.
fn mirrored_pools(seed: u64, pool: usize) -> (AmbitMemory, AmbitMemory, Vec<BitVectorHandle>) {
    let mut a = tiny();
    let mut b = tiny();
    let bits = 2 * a.row_bits();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let handles: Vec<BitVectorHandle> = (0..pool)
        .map(|_| {
            let ha = a.alloc(bits).unwrap();
            let hb = b.alloc(bits).unwrap();
            assert_eq!(ha, hb, "mirrored allocation order");
            let data: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
            a.poke_bits(ha, &data).unwrap();
            b.poke_bits(hb, &data).unwrap();
            ha
        })
        .collect();
    (a, b, handles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole correctness property: for a random DAG of bulk ops
    /// (including in-place writes, shared sources, maj3, and folds), a
    /// bank-parallel batch produces bit-for-bit the state that executing
    /// the same ops serially through the eager entry points produces.
    #[test]
    fn batch_is_byte_identical_to_serial(seed in any::<u64>(), len in 1usize..10) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pool = 6;
        let dag = random_dag(&mut rng, pool, len);
        let (mut batched, mut serial, h) = mirrored_pools(seed, pool);

        let mut batch = BatchBuilder::new();
        for op in &dag {
            match op {
                DagOp::Bitwise(op, s1, s2, d) => {
                    batch.bitwise(*op, h[*s1], s2.map(|i| h[i]), h[*d]);
                }
                DagOp::Maj3(a, b, c, d) => {
                    batch.maj3(h[*a], h[*b], h[*c], h[*d]);
                }
                DagOp::Fold(op, srcs, d) => {
                    let srcs: Vec<_> = srcs.iter().map(|&i| h[i]).collect();
                    batch.fold(*op, &srcs, h[*d]);
                }
            }
        }
        let receipt = batched.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
        prop_assert_eq!(receipt.per_op.len(), dag.len());

        for op in &dag {
            match op {
                DagOp::Bitwise(op, s1, s2, d) => {
                    serial.bitwise(*op, h[*s1], s2.map(|i| h[i]), h[*d]).unwrap();
                }
                DagOp::Maj3(a, b, c, d) => {
                    serial.bitwise_maj3(h[*a], h[*b], h[*c], h[*d]).unwrap();
                }
                DagOp::Fold(op, srcs, d) => {
                    let srcs: Vec<_> = srcs.iter().map(|&i| h[i]).collect();
                    serial.bitwise_fold(*op, &srcs, h[*d]).unwrap();
                }
            }
        }
        for (i, &handle) in h.iter().enumerate() {
            prop_assert_eq!(
                batched.peek_bits(handle).unwrap(),
                serial.peek_bits(handle).unwrap(),
                "vector {} diverged", i
            );
        }
    }
}

/// Pins `chains` single-chunk vector groups to distinct banks and queues
/// `per_bank` independent AND ops per bank, submitted round-robin across
/// banks so every bank's pipeline fills early.
fn bank_chains(
    mem: &mut AmbitMemory,
    chains: usize,
    per_bank: usize,
) -> (BatchBuilder, Vec<BitVectorHandle>) {
    let bits = mem.row_bits();
    let mut srcs = Vec::new();
    let mut dsts = Vec::new();
    for g in 0..chains {
        // Group g's chunk 0 lands in bank g (the allocator offsets group
        // sequences by the group id).
        let group = AllocGroup(g as u32);
        let a = mem.alloc_in_group(bits, group).unwrap();
        let b = mem.alloc_in_group(bits, group).unwrap();
        mem.poke_bits(a, &(0..bits).map(|i| i % 2 == 0).collect::<Vec<_>>()).unwrap();
        mem.poke_bits(b, &(0..bits).map(|i| i % 3 == 0).collect::<Vec<_>>()).unwrap();
        srcs.push((a, b));
        dsts.push(
            (0..per_bank)
                .map(|_| mem.alloc_in_group(bits, group).unwrap())
                .collect::<Vec<_>>(),
        );
    }
    let mut batch = BatchBuilder::new();
    let mut outs = Vec::new();
    // Transposed on purpose: submit round-robin across banks, not
    // chain-by-chain, so every bank has work queued from the start.
    #[allow(clippy::needless_range_loop)]
    for j in 0..per_bank {
        for g in 0..chains {
            let (a, b) = srcs[g];
            batch.bitwise(BitwiseOp::And, a, Some(b), dsts[g][j]);
            outs.push(dsts[g][j]);
        }
    }
    (batch, outs)
}

#[test]
fn bank_parallel_batch_meets_speedup_envelope() {
    // 8 chains × 8 ops on the paper's 8-bank module. Acceptance criteria:
    // makespan ≤ 1.25× the slowest single-bank chain, speedup ≥ 0.8·B over
    // serial issue, results identical.
    let chains = 8;
    let per_bank = 8;

    let mut mem = AmbitMemory::ddr3_module();
    let (batch, outs) = bank_chains(&mut mem, chains, per_bank);
    let parallel = mem.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
    let parallel_results: Vec<_> = outs.iter().map(|&h| mem.peek_bits(h).unwrap()).collect();
    assert_eq!(parallel.waves, 1, "independent ops form one wave");
    assert_eq!(parallel.banks_used(), chains);

    let mut mem = AmbitMemory::ddr3_module();
    let (batch, outs) = bank_chains(&mut mem, chains, per_bank);
    let serial = mem.execute_batch(&batch, IssuePolicy::Serial).unwrap();
    let serial_results: Vec<_> = outs.iter().map(|&h| mem.peek_bits(h).unwrap()).collect();
    assert_eq!(parallel_results, serial_results, "policies agree bit-for-bit");

    // A single bank's chain, on a fresh timeline (all chains are
    // symmetric, so one stands in for the slowest).
    let mut mem = AmbitMemory::ddr3_module();
    let (batch, _) = bank_chains(&mut mem, 1, per_bank);
    let chain = mem.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();

    let makespan = parallel.makespan_ps() as f64;
    let chain_ps = chain.makespan_ps() as f64;
    assert!(
        makespan <= 1.25 * chain_ps,
        "batch makespan {makespan} vs 1.25× chain {chain_ps}"
    );
    let speedup = serial.makespan_ps() as f64 / makespan;
    assert!(
        speedup >= 0.8 * chains as f64,
        "speedup {speedup:.2} < 0.8×{chains}"
    );
}

#[test]
fn traffic_interleaves_with_batch_on_one_timer() {
    // Paper Section 5.5.2: the controller interleaves AAPs with ordinary
    // requests. Regular reads arrive while a batch runs; both make
    // progress on the same timeline and neither corrupts the other.
    let mut mem = AmbitMemory::ddr3_module();
    let (batch, outs) = bank_chains(&mut mem, 4, 8);

    let mut traffic = FrFcfsScheduler::new();
    for i in 0..32u64 {
        traffic.enqueue(MemoryRequest {
            arrival_ps: i * 30_000, // one per 30 ns, inside the batch window
            bank: (i % 4) as usize, // the same banks the AAP streams use
            row: (i % 8) as usize,
            is_write: i % 7 == 0,
        });
    }
    // One request far in the future: must stay queued, not be serviced.
    traffic.enqueue(MemoryRequest {
        arrival_ps: 1 << 40,
        bank: 0,
        row: 0,
        is_write: false,
    });

    let receipt = mem
        .execute_batch_with_traffic(&batch, IssuePolicy::BankParallel, &mut traffic)
        .unwrap();

    let stats = traffic.stats();
    assert_eq!(stats.serviced, 32, "all arrived traffic serviced");
    assert_eq!(traffic.pending(), 1, "future arrival left queued");
    // Interleaved, not appended: the last completions land within a hair of
    // the batch's own end (the final drain may run a few requests past the
    // last precharge), nowhere near the extra ~32 serial row cycles that
    // running the traffic after the batch would cost.
    assert!(
        stats.makespan_ps <= receipt.total.end_ps + receipt.total.end_ps / 10,
        "traffic makespan {} vs batch end {}",
        stats.makespan_ps,
        receipt.total.end_ps
    );

    // AAP results are still correct with rows being opened and closed
    // around them by the traffic.
    let bits = mem.row_bits();
    let expect = (0..bits).filter(|i| i % 2 == 0 && i % 3 == 0).count();
    for out in outs {
        assert_eq!(mem.popcount(out).unwrap(), expect);
    }
}

#[test]
fn dependent_waves_execute_in_order() {
    // acc = (a & b) | c | acc — a three-wave chain through one accumulator,
    // mixed with an unrelated op that shares wave 0.
    let mut mem = tiny();
    let bits = mem.row_bits();
    let a = mem.alloc(bits).unwrap();
    let b = mem.alloc(bits).unwrap();
    let c = mem.alloc(bits).unwrap();
    let t = mem.alloc(bits).unwrap();
    let acc = mem.alloc(bits).unwrap();
    let other = mem.alloc(bits).unwrap();
    mem.poke_bits(a, &(0..bits).map(|i| i % 2 == 0).collect::<Vec<_>>()).unwrap();
    mem.poke_bits(b, &(0..bits).map(|i| i % 2 == 0).collect::<Vec<_>>()).unwrap();
    mem.poke_bits(c, &(0..bits).map(|i| i % 2 == 1).collect::<Vec<_>>()).unwrap();
    mem.poke_bits(acc, &vec![false; bits]).unwrap();

    let mut batch = BatchBuilder::new();
    batch.bitwise(BitwiseOp::And, a, Some(b), t);
    batch.bitwise(BitwiseOp::Not, a, None, other); // independent: wave 0
    batch.bitwise(BitwiseOp::Or, t, Some(c), t);
    batch.bitwise(BitwiseOp::Or, acc, Some(t), acc);
    let receipt = mem.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
    assert_eq!(receipt.waves, 3);
    assert_eq!(mem.popcount(acc).unwrap(), bits, "(even & even) | odd = all");

    // Wave barriers show up in the timing: each wave starts at or after
    // the previous wave's last precharge.
    assert!(receipt.per_op[2].start_ps >= receipt.per_op[0].end_ps);
    assert!(receipt.per_op[3].start_ps >= receipt.per_op[2].end_ps);
}

#[test]
fn consecutive_batches_report_disjoint_per_batch_busy_deltas() {
    // `BatchReceipt::bank_busy_ps` is documented as the per-batch delta of
    // the timer's cumulative busy attribution. Pin that down: two
    // consecutive batches on disjoint banks must report disjoint non-zero
    // busy entries — a batch that never touched a pipeline reads zero for
    // it even though an earlier batch kept it busy.
    let mut mem = AmbitMemory::ddr3_module();
    let bits = mem.row_bits();
    let build = |mem: &mut AmbitMemory, groups: &[u32]| {
        let mut batch = BatchBuilder::new();
        for &g in groups {
            let group = AllocGroup(g);
            let a = mem.alloc_in_group(bits, group).unwrap();
            let b = mem.alloc_in_group(bits, group).unwrap();
            let d = mem.alloc_in_group(bits, group).unwrap();
            mem.poke_bits(a, &vec![true; bits]).unwrap();
            mem.poke_bits(b, &vec![true; bits]).unwrap();
            batch.bitwise(BitwiseOp::And, a, Some(b), d);
        }
        batch
    };

    // Group g's single chunk lands in bank g, so the two batches occupy
    // banks {0, 1} and {2, 3} respectively.
    let batch = build(&mut mem, &[0, 1]);
    let first = mem.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
    let batch = build(&mut mem, &[2, 3]);
    let second = mem.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();

    let busy = |receipt: &ambit_repro::core::BatchReceipt, bank: usize| {
        receipt.bank_busy_ps.get(bank).copied().unwrap_or(0)
    };
    for bank in 0..2 {
        assert!(busy(&first, bank) > 0, "first batch busy on bank {bank}");
        assert_eq!(
            busy(&second, bank),
            0,
            "second batch never touched bank {bank}; its delta must be zero"
        );
    }
    for bank in 2..4 {
        assert_eq!(
            busy(&first, bank),
            0,
            "first batch never touched bank {bank}; its delta must be zero"
        );
        assert!(busy(&second, bank) > 0, "second batch busy on bank {bank}");
    }
}

#[test]
fn batch_emits_span_and_occupancy_gauges() {
    let mut mem = AmbitMemory::ddr3_module();
    mem.set_telemetry(Registry::new());
    let (batch, _) = bank_chains(&mut mem, 4, 2);
    let receipt = mem.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();

    let reg = mem.telemetry().unwrap().clone();
    let spans = reg.spans();
    let batch_span = spans
        .iter()
        .find(|s| s.name == "driver.batch")
        .expect("driver.batch span recorded");
    assert_eq!(
        batch_span.duration_ns(),
        receipt.total.end_ps / 1000 - receipt.total.start_ps / 1000,
        "span covers the batch window in simulated ns"
    );
    assert_eq!(
        reg.counter_value("ambit_ops_total", &[("op", "bbop_and")]),
        Some(8)
    );
    // Per-bank occupancy gauges: the four used banks carry busy time, an
    // untouched bank reads zero.
    for bank in 0..4 {
        let v = reg
            .gauge_value("ambit_batch_bank_busy_ns", &[("bank", &bank.to_string())])
            .expect("gauge registered");
        assert!(v > 0.0, "bank {bank} occupancy {v}");
        assert!(
            (v - receipt.bank_busy_ps[bank] as f64 / 1000.0).abs() < 1e-9,
            "gauge matches receipt attribution"
        );
    }
    assert_eq!(
        reg.gauge_value("ambit_batch_bank_busy_ns", &[("bank", "5")]),
        Some(0.0)
    );
}

/// Strict retention inside a batch, and the functional pass's error path,
/// under both clock policies.
///
/// Every row a TRA raises is refreshed by its own program's copies just
/// before the TRA (the paper's copy-first discipline), so a batch over
/// operands left stale past the retention window still completes. A device
/// error can only come from state the timing pass does not model: here a
/// row the caller opened directly on the device, in the other subarray of
/// bank 0. The timing pass issues the whole batch, the functional pass then
/// returns the typed error, and once the caller precharges the bank the
/// memory runs the batch again with correct results.
#[test]
fn functional_errors_surface_typed_after_the_timing_pass() {
    for policy in [IssuePolicy::Serial, IssuePolicy::BankParallel] {
        let mut mem = tiny();
        let bits = 2 * mem.row_bits();
        let a = mem.alloc(bits).unwrap();
        let b = mem.alloc(bits).unwrap();
        let d = mem.alloc(bits).unwrap();
        let pa: Vec<bool> = (0..bits).map(|i| i % 3 == 0).collect();
        let pb: Vec<bool> = (0..bits).map(|i| i % 2 == 0).collect();
        mem.poke_bits(a, &pa).unwrap();
        mem.poke_bits(b, &pb).unwrap();
        let mut batch = BatchBuilder::new();
        batch.bitwise(BitwiseOp::And, a, Some(b), d);
        batch.bitwise(BitwiseOp::Xor, a, Some(b), a);
        let want_d: Vec<bool> = pa.iter().zip(&pb).map(|(x, y)| x & y).collect();
        let want_a: Vec<bool> = pa.iter().zip(&pb).map(|(x, y)| x ^ y).collect();

        // Strict retention, every row stale: the batch still completes.
        let device = mem.controller_mut().device_mut();
        device.set_retention_window(Some(64_000_000));
        device.advance_time_ns(65_000_000);
        let receipt = mem.execute_batch(&batch, policy).unwrap();
        assert_eq!(mem.peek_bits(d).unwrap(), want_d, "{policy:?}");
        assert_eq!(mem.peek_bits(a).unwrap(), want_a, "{policy:?}");

        // A row left open in subarray 1 of bank 0; the batch's chunk 0
        // lives in subarray 0 of that bank.
        mem.controller_mut()
            .device_mut()
            .activate(BankId::zero(), 1, &[Wordline::data(0)])
            .unwrap();
        let aaps_before = mem.controller().timer().stats().aaps;
        let err = mem.execute_batch(&batch, policy).unwrap_err();
        assert!(
            matches!(
                err,
                AmbitError::Dram(DramError::SubarrayConflict { open: 1, requested: 0 })
            ),
            "{policy:?}: {err}"
        );
        let issued = mem.controller().timer().stats().aaps - aaps_before;
        assert_eq!(issued, receipt.total.aaps as u64, "the timing pass issued the whole batch");

        // Bank 1 ran its half of the failed batch; restore `a` and rerun.
        mem.controller_mut().device_mut().precharge(BankId::zero()).unwrap();
        mem.poke_bits(a, &pa).unwrap();
        mem.execute_batch(&batch, policy).unwrap();
        assert_eq!(mem.peek_bits(d).unwrap(), want_d, "{policy:?} after recovery");
        assert_eq!(mem.peek_bits(a).unwrap(), want_a, "{policy:?} after recovery");
    }
}
