//! Integration tests for the OS-threaded batch execution path
//! (`IssuePolicy::BankParallelThreaded`) and the `Send + Sync` data plane
//! behind it: the threaded path must be observably identical to
//! single-threaded bank-parallel issue (receipts, command traces, memory
//! image, device stats), concurrent submitters over disjoint handle sets
//! must leave the memory in the same state as a serial run, shared
//! references must be readable from many threads at once, and fault-armed
//! devices must fall back to serial issue so the pinned per-bit RNG draw
//! stream is preserved.

use std::sync::Mutex;

use ambit_repro::core::{
    AllocGroup, AmbitMemory, BatchBuilder, BitVectorHandle, BitwiseOp, IssuePolicy,
};
use ambit_repro::dram::{AapMode, DramGeometry, TimingParams};
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

fn tiny_dual_channel() -> AmbitMemory {
    AmbitMemory::new(
        DramGeometry::tiny_dual_channel(),
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

/// Builds two identical memories with a shared handle pool and random
/// contents; handles are identical because allocation order is.
fn mirrored_pools(seed: u64, pool: usize) -> (AmbitMemory, AmbitMemory, Vec<BitVectorHandle>) {
    mirrored_pools_on(seed, pool, tiny, 2)
}

fn mirrored_pools_on(
    seed: u64,
    pool: usize,
    make: fn() -> AmbitMemory,
    chunks: usize,
) -> (AmbitMemory, AmbitMemory, Vec<BitVectorHandle>) {
    let mut a = make();
    let mut b = make();
    // `a` is the threaded-policy memory in every test: force a multi-thread
    // budget so the threaded path executes (and is exercised) even on a
    // one-core host, where the default budget would degrade it to
    // BankParallel.
    a.set_pool_threads(4);
    let bits = chunks * a.row_bits();
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

/// Draws a random batch over the pool: two-source ops, maj3, and folds,
/// with shared sources and in-place destinations all allowed.
fn random_batch(rng: &mut ChaCha8Rng, h: &[BitVectorHandle], len: usize) -> BatchBuilder {
    let mut batch = BatchBuilder::new();
    for _ in 0..len {
        match rng.gen_range(0u32..8) {
            6 => batch.maj3(
                h[rng.gen_range(0..h.len())],
                h[rng.gen_range(0..h.len())],
                h[rng.gen_range(0..h.len())],
                h[rng.gen_range(0..h.len())],
            ),
            7 => {
                let k = rng.gen_range(2..4usize);
                let srcs: Vec<_> = (0..k).map(|_| h[rng.gen_range(0..h.len())]).collect();
                batch.fold(
                    if rng.gen() { BitwiseOp::And } else { BitwiseOp::Or },
                    &srcs,
                    h[rng.gen_range(0..h.len())],
                )
            }
            _ => {
                let op = OPS[rng.gen_range(0..OPS.len())];
                let src2 = (op.source_count() == 2).then(|| h[rng.gen_range(0..h.len())]);
                batch.bitwise(op, h[rng.gen_range(0..h.len())], src2, h[rng.gen_range(0..h.len())])
            }
        };
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole property: the threaded path is indistinguishable from
    /// single-threaded bank-parallel issue in everything but wall clock —
    /// same receipt (timing, energy, busy attribution), same command
    /// trace on the shared bus, same final memory image, same device
    /// activation stats.
    #[test]
    fn threaded_batch_is_byte_identical_to_bank_parallel(seed in any::<u64>(), len in 1usize..10) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut threaded, mut reference, h) = mirrored_pools(seed, 6);
        threaded.controller_mut().timer_mut().set_tracing(true);
        reference.controller_mut().timer_mut().set_tracing(true);
        let batch = random_batch(&mut rng, &h, len);

        let rt = threaded.execute_batch(&batch, IssuePolicy::BankParallelThreaded).unwrap();
        let rr = reference.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();

        prop_assert_eq!(&rt, &rr, "receipts diverge");
        prop_assert_eq!(
            threaded.controller().timer().trace().unwrap(),
            reference.controller().timer().trace().unwrap(),
            "command traces diverge"
        );
        prop_assert_eq!(
            threaded.controller().timer().stats(),
            reference.controller().timer().stats()
        );
        prop_assert_eq!(
            threaded.controller().device().stats(),
            reference.controller().device().stats()
        );
        for (i, &handle) in h.iter().enumerate() {
            prop_assert_eq!(
                threaded.peek_bits(handle).unwrap(),
                reference.peek_bits(handle).unwrap(),
                "vector {} diverged", i
            );
        }
    }

    /// The same identity on a two-channel geometry, where allocations span
    /// both channels (4 row-chunks across 4 flat banks), so the timing pass
    /// interleaves two channel lanes and the functional pass fans out over
    /// banks of both channels: receipts, the serially-interleaved command
    /// trace, timer stats, and memory image must match exactly.
    #[test]
    fn threaded_batch_is_byte_identical_across_channels(seed in any::<u64>(), len in 1usize..10) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut threaded, mut reference, h) =
            mirrored_pools_on(seed, 4, tiny_dual_channel, 4);
        threaded.controller_mut().timer_mut().set_tracing(true);
        reference.controller_mut().timer_mut().set_tracing(true);
        let batch = random_batch(&mut rng, &h, len);

        let rt = threaded.execute_batch(&batch, IssuePolicy::BankParallelThreaded).unwrap();
        let rr = reference.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();

        prop_assert_eq!(&rt, &rr, "receipts diverge");
        prop_assert_eq!(
            threaded.controller().timer().trace().unwrap(),
            reference.controller().timer().trace().unwrap(),
            "command traces diverge"
        );
        prop_assert_eq!(
            threaded.controller().timer().stats(),
            reference.controller().timer().stats()
        );
        prop_assert_eq!(
            threaded.controller().device().stats(),
            reference.controller().device().stats()
        );
        for (i, &handle) in h.iter().enumerate() {
            prop_assert_eq!(
                threaded.peek_bits(handle).unwrap(),
                reference.peek_bits(handle).unwrap(),
                "vector {} diverged", i
            );
        }
    }
}

/// Allocates `a AND b -> d` chains in each of `groups`, mirrored across
/// both memories so handles line up, and returns one batch per group plus
/// every destination handle.
#[allow(clippy::type_complexity)]
fn mirrored_group_batches(
    threaded: &mut AmbitMemory,
    serial: &mut AmbitMemory,
    groups: usize,
    per_group: usize,
) -> (Vec<BatchBuilder>, Vec<BitVectorHandle>) {
    let bits = threaded.row_bits();
    let mut batches = Vec::new();
    let mut dsts = Vec::new();
    for g in 0..groups {
        let group = AllocGroup(g as u32);
        let mut alloc = |bits| {
            let ha = threaded.alloc_in_group(bits, group).unwrap();
            let hb = serial.alloc_in_group(bits, group).unwrap();
            assert_eq!(ha, hb, "mirrored allocation order");
            ha
        };
        let a = alloc(bits);
        let b = alloc(bits);
        let group_dsts: Vec<_> = (0..per_group).map(|_| alloc(bits)).collect();
        let pa: Vec<bool> = (0..bits).map(|i| (i + g) % 2 == 0).collect();
        let pb: Vec<bool> = (0..bits).map(|i| (i + g) % 3 == 0).collect();
        threaded.poke_bits(a, &pa).unwrap();
        serial.poke_bits(a, &pa).unwrap();
        threaded.poke_bits(b, &pb).unwrap();
        serial.poke_bits(b, &pb).unwrap();
        let mut batch = BatchBuilder::new();
        for &d in &group_dsts {
            batch.bitwise(BitwiseOp::And, a, Some(b), d);
        }
        batches.push(batch);
        dsts.extend(group_dsts);
    }
    (batches, dsts)
}

/// The satellite stress test: N OS threads concurrently submit batches
/// over disjoint handle sets (one bank group each) against one shared
/// memory. Whatever order the scheduler picks, the final memory bytes and
/// the telemetry op counters must be identical to the same programs run
/// serially on a mirrored module.
#[test]
fn concurrent_submitters_over_disjoint_handles_match_serial() {
    let groups = 4;
    let per_group = 8;
    let mut threaded = AmbitMemory::ddr3_module();
    let mut serial = AmbitMemory::ddr3_module();
    threaded.set_pool_threads(4);
    threaded.set_telemetry(Registry::new());
    serial.set_telemetry(Registry::new());
    let (batches, dsts) = mirrored_group_batches(&mut threaded, &mut serial, groups, per_group);

    // Concurrent submission: each thread owns one batch and races to
    // lock-and-execute it on the threaded issue path.
    let shared = Mutex::new(threaded);
    std::thread::scope(|scope| {
        for batch in &batches {
            scope.spawn(|| {
                let mut mem = shared.lock().unwrap();
                mem.execute_batch(batch, IssuePolicy::BankParallelThreaded)
                    .unwrap();
            });
        }
    });
    let threaded = shared.into_inner().unwrap();

    // Serial reference: same batches, fixed order, serial issue.
    for batch in &batches {
        serial.execute_batch(batch, IssuePolicy::Serial).unwrap();
    }

    for (i, &d) in dsts.iter().enumerate() {
        assert_eq!(
            threaded.peek_bits(d).unwrap(),
            serial.peek_bits(d).unwrap(),
            "destination {i} diverged from the serial reference"
        );
    }
    let ops = |mem: &AmbitMemory| {
        mem.telemetry()
            .unwrap()
            .counter_value("ambit_ops_total", &[("op", "bbop_and")])
    };
    assert_eq!(ops(&threaded), Some((groups * per_group) as u64));
    assert_eq!(ops(&threaded), ops(&serial), "telemetry counters diverged");
    assert_eq!(
        threaded.controller().device().stats(),
        serial.controller().device().stats(),
        "device activation stats diverged"
    );
}

/// `AmbitMemory` is `Sync`: many threads may hold `&AmbitMemory` and read
/// concurrently (the paper's multi-tenant serving story needs shared
/// read-side access between submissions).
#[test]
fn shared_references_read_from_many_threads() {
    let mut mem = tiny();
    let bits = mem.row_bits();
    let h = mem.alloc(bits).unwrap();
    let data: Vec<bool> = (0..bits).map(|i| i % 5 == 0).collect();
    mem.poke_bits(h, &data).unwrap();

    let mem = &mem;
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| scope.spawn(move || mem.peek_bits(h).unwrap()))
            .collect();
        for reader in readers {
            assert_eq!(reader.join().unwrap(), data);
        }
    });
}

/// 1000 consecutive small threaded batches through one memory stay
/// byte-for-byte identical to bank-parallel execution on a mirrored
/// module, and the fan-out counters show the threaded path actually ran.
#[test]
fn thousand_consecutive_batches_match_serial() {
    let (mut threaded, mut serial, h) = mirrored_pools(0xbeef, 4);
    for round in 0..1000u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(round);
        let batch = random_batch(&mut rng, &h, 2);
        let rt = threaded
            .execute_batch(&batch, IssuePolicy::BankParallelThreaded)
            .unwrap();
        let rr = serial.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
        assert_eq!(rt, rr, "receipts diverged at round {round}");
    }
    for (i, &handle) in h.iter().enumerate() {
        assert_eq!(
            threaded.peek_bits(handle).unwrap(),
            serial.peek_bits(handle).unwrap(),
            "vector {i} diverged after 1000 batches"
        );
    }
    assert_eq!(
        threaded.controller().timer().stats(),
        serial.controller().timer().stats(),
        "timer stats diverged after 1000 batches"
    );
    let stats = threaded.pool_stats();
    assert!(
        stats.jobs_executed + stats.inline_jobs > 0,
        "threaded batches never reached the fan-out: {stats:?}"
    );
}

/// Auto-degrade satellite: a one-thread budget (what a one-core host
/// gets from `available_parallelism`) degrades `BankParallelThreaded` to
/// plain `BankParallel` — identical results, and the fan-out is never
/// touched, so there is no spawn overhead to pay.
#[test]
fn single_worker_pool_degrades_threaded_to_bank_parallel() {
    let (mut degraded, mut reference, h) = mirrored_pools(0x1c0de, 4);
    degraded.set_pool_threads(1);
    degraded.controller_mut().timer_mut().set_tracing(true);
    reference.controller_mut().timer_mut().set_tracing(true);
    let mut rng = ChaCha8Rng::seed_from_u64(0x1c0de);
    let batch = random_batch(&mut rng, &h, 6);

    let rt = degraded
        .execute_batch(&batch, IssuePolicy::BankParallelThreaded)
        .unwrap();
    let rr = reference
        .execute_batch(&batch, IssuePolicy::BankParallel)
        .unwrap();
    assert_eq!(rt, rr, "degraded receipts diverge");
    assert_eq!(
        degraded.controller().timer().trace().unwrap(),
        reference.controller().timer().trace().unwrap(),
        "degraded command traces diverge"
    );
    for &handle in &h {
        assert_eq!(
            degraded.peek_bits(handle).unwrap(),
            reference.peek_bits(handle).unwrap()
        );
    }
    let stats = degraded.pool_stats();
    assert_eq!(stats.jobs_executed, 0, "degraded path must bypass the fan-out");
    assert_eq!(stats.inline_jobs, 0, "degraded path must bypass the fan-out");
    assert_eq!(stats.cold_spawns, 0, "no threads spawned on a one-core host");
}

/// When the device is fault-armed the threaded policy must fall back to
/// serial issue: the per-bit fault RNG draw stream is pinned to the serial
/// command order, so both policies must produce identical (faulty) results
/// draw for draw.
#[test]
fn fault_armed_threaded_policy_falls_back_to_serial_issue() {
    let seed = 0x7a51;
    let (mut threaded, mut reference, h) = mirrored_pools(seed, 4);
    threaded.set_tra_fault_rate(0.26).unwrap();
    reference.set_tra_fault_rate(0.26).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let batch = random_batch(&mut rng, &h, 8);

    let rt = threaded
        .execute_batch(&batch, IssuePolicy::BankParallelThreaded)
        .unwrap();
    let rr = reference
        .execute_batch(&batch, IssuePolicy::BankParallel)
        .unwrap();
    assert_eq!(rt, rr, "fallback receipts diverge");
    for (i, &handle) in h.iter().enumerate() {
        assert_eq!(
            threaded.peek_bits(handle).unwrap(),
            reference.peek_bits(handle).unwrap(),
            "vector {i} diverged: the fault RNG draw streams must line up"
        );
    }
}

/// Every batch counts the path it ran on, and why, in
/// `ambit_batch_path_total{path, reason}` — exactly once per batch.
#[test]
fn batch_path_decisions_are_counted_with_reasons() {
    let (mut mem, _, h) = mirrored_pools(0x9a7e, 4);
    let registry = Registry::new();
    mem.set_telemetry(registry.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(0x9a7e);
    let batch = random_batch(&mut rng, &h, 3);

    mem.execute_batch(&batch, IssuePolicy::BankParallelThreaded).unwrap();
    mem.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
    mem.set_pool_threads(1);
    mem.execute_batch(&batch, IssuePolicy::BankParallelThreaded).unwrap();
    mem.set_pool_threads(4);
    mem.set_tra_fault_rate(0.01).unwrap();
    mem.execute_batch(&batch, IssuePolicy::BankParallelThreaded).unwrap();

    let count = |path, reason| {
        registry.counter_value("ambit_batch_path_total", &[("path", path), ("reason", reason)])
    };
    assert_eq!(count("threaded", "requested"), Some(1));
    assert_eq!(count("bank_parallel", "requested"), Some(1));
    assert_eq!(count("bank_parallel", "single_worker"), Some(1));
    assert_eq!(count("bank_parallel", "fault_armed"), Some(1));
    assert_eq!(registry.counter_family_total("ambit_batch_path_total"), Some(4));
}
