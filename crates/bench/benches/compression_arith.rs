//! Criterion bench: WAH compressed-domain algebra and the in-DRAM
//! bit-serial adder (host-side simulator performance).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ambit_apps::synth_arith::{add_synth, BitSlicedVector};
use ambit_apps::WahBitmap;
use ambit_core::{AmbitMemory, IssuePolicy};
use ambit_dram::{AapMode, DramGeometry, TimingParams};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench_wah(c: &mut Criterion) {
    let bits = 1 << 20;
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut group = c.benchmark_group("wah");
    group.sample_size(20);
    for density in [0.001f64, 0.1] {
        let da: Vec<bool> = (0..bits).map(|_| rng.gen_bool(density)).collect();
        let db: Vec<bool> = (0..bits).map(|_| rng.gen_bool(density)).collect();
        let a = WahBitmap::from_bools(&da);
        let b = WahBitmap::from_bools(&db);
        group.throughput(Throughput::Bytes((bits / 8) as u64));
        group.bench_with_input(
            BenchmarkId::new("and_compressed", format!("{:.1}pct", density * 100.0)),
            &(a, b),
            |bench, (a, b)| {
                bench.iter(|| black_box(a.and(b)));
            },
        );
    }
    group.finish();
}

fn bench_adder(c: &mut Criterion) {
    let mut group = c.benchmark_group("bit_serial_adder");
    group.sample_size(10);
    let lanes = 64 * 1024;
    for width in [8usize, 16] {
        group.throughput(Throughput::Elements(lanes as u64));
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |bench, &width| {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let max = (1u32 << width) - 1;
            let av: Vec<u32> = (0..lanes).map(|_| rng.gen_range(0..=max)).collect();
            let bv: Vec<u32> = (0..lanes).map(|_| rng.gen_range(0..=max)).collect();
            bench.iter(|| {
                let mut mem = AmbitMemory::new(
                    DramGeometry::ddr3_module(),
                    TimingParams::ddr3_1600(),
                    AapMode::Overlapped,
                );
                let a = BitSlicedVector::alloc(&mut mem, lanes, width).unwrap();
                let b = BitSlicedVector::alloc(&mut mem, lanes, width).unwrap();
                a.write(&mut mem, &av).unwrap();
                b.write(&mut mem, &bv).unwrap();
                let (sum, _) = add_synth(&mut mem, &a, &b, IssuePolicy::BankParallel).unwrap();
                black_box(sum.read(&mem).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wah, bench_adder);
criterion_main!(benches);
