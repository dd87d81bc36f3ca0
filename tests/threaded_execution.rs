//! Integration tests for the batch engine's per-bank fan-out and the
//! `Send + Sync` data plane behind it. A batch whose functional pass spawns
//! threads must be observably identical to one whose fan-out drains inline
//! on a one-thread budget (receipts, command traces, memory image, device
//! stats); concurrent submitters over disjoint handle sets must leave the
//! memory in the same state as a serial run; shared references must be
//! readable from many threads at once; and fault-armed batches must replay
//! the per-bit RNG draw streams recorded from the single-threaded issue
//! loop the fan-out replaced, under every policy and thread budget.

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
    // `a` spawns threads for its functional pass (a four-thread budget, so
    // it does so even on a one-core host); `b` drains its fan-out inline.
    a.set_pool_threads(4);
    b.set_pool_threads(1);
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

    /// A fan-out that spawns threads is indistinguishable from one that
    /// drains inline in everything but wall clock — same receipt (timing,
    /// energy, busy attribution), same command trace on the shared bus,
    /// same final memory image, same device activation stats.
    #[test]
    fn threaded_batch_is_byte_identical_to_bank_parallel(seed in any::<u64>(), len in 1usize..10) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut threaded, mut reference, h) = mirrored_pools(seed, 6);
        threaded.controller_mut().timer_mut().set_tracing(true);
        reference.controller_mut().timer_mut().set_tracing(true);
        let batch = random_batch(&mut rng, &h, len);

        let rt = threaded.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
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

        let rt = threaded.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
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
    // lock-and-execute it, fanning its functional pass out to threads.
    let shared = Mutex::new(threaded);
    std::thread::scope(|scope| {
        for batch in &batches {
            scope.spawn(|| {
                let mut mem = shared.lock().unwrap();
                mem.execute_batch(batch, IssuePolicy::BankParallel).unwrap();
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
/// byte-for-byte identical to inline-drained batches on a mirrored
/// module, and the fan-out counters show the threads actually ran.
#[test]
fn thousand_consecutive_batches_match_serial() {
    let (mut threaded, mut serial, h) = mirrored_pools(0xbeef, 4);
    for round in 0..1000u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(round);
        let batch = random_batch(&mut rng, &h, 2);
        let rt = threaded.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
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
        stats.jobs_executed > 0 && stats.cold_spawns > 0,
        "threaded batches never spawned: {stats:?}"
    );
}

/// A one-thread budget (what a one-core host gets from
/// `available_parallelism`) runs the same fan-out with every job inline on
/// the caller: no thread is spawned, and receipts, traces and bytes match a
/// four-thread budget exactly.
#[test]
fn single_worker_budget_drains_the_fanout_inline() {
    let (mut threaded, mut inline, h) = mirrored_pools(0x1c0de, 4);
    threaded.controller_mut().timer_mut().set_tracing(true);
    inline.controller_mut().timer_mut().set_tracing(true);
    let mut rng = ChaCha8Rng::seed_from_u64(0x1c0de);
    let batch = random_batch(&mut rng, &h, 6);

    let rt = threaded.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
    let ri = inline.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
    assert_eq!(ri, rt, "inline receipts diverge");
    assert_eq!(
        inline.controller().timer().trace().unwrap(),
        threaded.controller().timer().trace().unwrap(),
        "inline command traces diverge"
    );
    for &handle in &h {
        assert_eq!(inline.peek_bits(handle).unwrap(), threaded.peek_bits(handle).unwrap());
    }
    let stats = inline.pool_stats();
    assert_eq!(stats.target_workers, 1);
    assert!(stats.inline_jobs > 0, "the batch ran through the fan-out: {stats:?}");
    assert_eq!(stats.jobs_executed, 0, "no job ran on a spawned thread: {stats:?}");
    assert_eq!(stats.cold_spawns, 0, "no threads spawned on a one-thread budget");
}

/// FNV-1a, for compact golden digests.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs three seeded random batches on a memory armed with a 26 % TRA
/// fault rate (Table 2's ±25 % variation) and digests the outcome:
/// `(receipts, functional)`, where `functional` covers every vector's
/// readback and the device's activation stats.
fn fault_armed_digests(
    make: fn() -> AmbitMemory,
    chunks: usize,
    seed: u64,
    policy: IssuePolicy,
    threads: usize,
) -> (u64, u64) {
    let mut mem = make();
    mem.set_pool_threads(threads);
    let bits = chunks * mem.row_bits();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let h: Vec<BitVectorHandle> = (0..4)
        .map(|_| {
            let handle = mem.alloc(bits).unwrap();
            let data: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
            mem.poke_bits(handle, &data).unwrap();
            handle
        })
        .collect();
    mem.set_tra_fault_rate(0.26).unwrap();
    let mut receipts = FNV_OFFSET;
    for round in 0..3u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(round));
        let batch = random_batch(&mut rng, &h, 8);
        let receipt = mem.execute_batch(&batch, policy).unwrap();
        receipts = fnv1a(receipts, format!("{receipt:?}").as_bytes());
    }
    let mut functional = FNV_OFFSET;
    for &handle in &h {
        let bits: Vec<u8> = mem.peek_bits(handle).unwrap().iter().map(|&b| u8::from(b)).collect();
        functional = fnv1a(functional, &bits);
    }
    let stats = format!("{:?}", mem.controller().device().stats());
    (receipts, fnv1a(functional, stats.as_bytes()))
}

/// Fault-armed batches replay recorded digests. The receipts were
/// recorded from the single-threaded issue loop that ran every fault-armed
/// batch before the fan-out did; the functional digests from the geometric
/// fault-gap stream. Each subarray owns its fault RNG stream and pending
/// gap, and each bank is one fan-out job, so per-bank FIFO order fixes
/// every draw: `Serial`, `BankParallel` on one thread and `BankParallel`
/// on four give the recorded readback and device stats, and each policy
/// its recorded receipts.
#[test]
fn fault_armed_batches_replay_recorded_digests() {
    struct Recorded {
        make: fn() -> AmbitMemory,
        chunks: usize,
        seed: u64,
        serial: u64,
        parallel: u64,
        functional: u64,
    }
    let recorded = [
        Recorded {
            make: tiny,
            chunks: 2,
            seed: 0x7a51,
            serial: 0x33df_edd4_584b_38af,
            parallel: 0xe7a7_6cb8_d8a5_27ca,
            functional: 0x77cc_3bb8_ca64_81c6,
        },
        Recorded {
            make: tiny,
            chunks: 2,
            seed: 0xfa17,
            serial: 0xcede_8370_05f9_0b9b,
            parallel: 0x98f9_0e48_26fb_7e7e,
            functional: 0x429a_8f81_8cc3_cc05,
        },
        Recorded {
            make: tiny_dual_channel,
            chunks: 4,
            seed: 0x7a51,
            serial: 0x6019_0ea7_1501_89b5,
            parallel: 0x6c4b_374a_9d24_f270,
            functional: 0xb3db_f06c_ea72_83a2,
        },
        Recorded {
            make: tiny_dual_channel,
            chunks: 4,
            seed: 0xfa17,
            serial: 0xe2ad_495f_4adb_161d,
            parallel: 0xa777_338c_f022_2e5c,
            functional: 0x5b0a_a569_7e06_90ab,
        },
    ];
    for r in recorded {
        let runs = [
            (IssuePolicy::Serial, 4, r.serial),
            (IssuePolicy::BankParallel, 1, r.parallel),
            (IssuePolicy::BankParallel, 4, r.parallel),
        ];
        for (policy, threads, receipts) in runs {
            let got = fault_armed_digests(r.make, r.chunks, r.seed, policy, threads);
            assert_eq!(
                got,
                (receipts, r.functional),
                "seed {:#x}, {policy:?} on {threads} thread(s): {got:#018x?}",
                r.seed
            );
        }
    }
}

/// Every batch counts the path it ran on in `ambit_batch_path_total{path}`
/// exactly once: the clock policy, whatever the thread budget or fault
/// arming.
#[test]
fn batch_paths_are_counted_once_per_batch() {
    let (mut mem, _, h) = mirrored_pools(0x9a7e, 4);
    let registry = Registry::new();
    mem.set_telemetry(registry.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(0x9a7e);
    let batch = random_batch(&mut rng, &h, 3);

    mem.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
    mem.execute_batch(&batch, IssuePolicy::Serial).unwrap();
    mem.set_pool_threads(1);
    mem.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();
    mem.set_pool_threads(4);
    mem.set_tra_fault_rate(0.01).unwrap();
    mem.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();

    let count = |path| registry.counter_value("ambit_batch_path_total", &[("path", path)]);
    assert_eq!(count("serial"), Some(1));
    assert_eq!(count("bank_parallel"), Some(3));
    assert_eq!(registry.counter_family_total("ambit_batch_path_total"), Some(4));
}
