//! Study: bulk bit-serial arithmetic from bitwise primitives — what the
//! paper's conclusion enables and SIMDRAM later built. Measures in-DRAM
//! lane-parallel addition (carry = one native TRA-majority per bit) against
//! a bandwidth-bound SIMD CPU adder.

use ambit_bench::{cell, fmt_time, Report};
use ambit_apps::synth_arith::{add_synth, BitSlicedVector};
use ambit_core::{AmbitConfig, AmbitMemory, BitwiseOp, IssuePolicy};
use ambit_sys::SystemConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    let config = SystemConfig::gem5_calibrated();
    let ambit = AmbitConfig::ddr3_module();
    let mut rng = ChaCha8Rng::seed_from_u64(0xadd);

    // Functional demonstration on the simulated device (modest size so the
    // functional simulation stays snappy).
    let lanes = 64 * 1024;
    let width = 8;
    let mut mem = AmbitMemory::ddr3_module();
    let a = BitSlicedVector::alloc(&mut mem, lanes, width).expect("alloc");
    let b = BitSlicedVector::alloc(&mut mem, lanes, width).expect("alloc");
    let av: Vec<u32> = (0..lanes).map(|_| rng.gen_range(0..256)).collect();
    let bv: Vec<u32> = (0..lanes).map(|_| rng.gen_range(0..256)).collect();
    a.write(&mut mem, &av).expect("write");
    b.write(&mut mem, &bv).expect("write");
    let (sum, receipt) = add_synth(&mut mem, &a, &b, IssuePolicy::BankParallel).expect("add");
    let got = sum.read(&mem).expect("read");
    for l in 0..lanes {
        assert_eq!(got[l], (av[l] + bv[l]) & 255, "lane {l}");
    }
    println!(
        "functional check: {lanes} lane-parallel {width}-bit additions computed in DRAM, \
         all correct\n  ({} AAPs + {} APs, {:.2} us simulated)",
        receipt.total.aaps,
        receipt.total.aps,
        receipt.makespan_ps() as f64 / 1e6
    );

    // Analytic throughput: additions per second at paper scale.
    let mut report = Report::new(
        "Bulk lane-parallel addition throughput (8-bank module, analytic steady state)",
        &["width", "DRAM ops/bit", "Ambit Gadds/s", "CPU Gadds/s", "Ambit/CPU"],
    );
    for width in [4usize, 8, 16, 32] {
        // Per bit position: xor + xor + maj + copy programs.
        let per_bit_ps = 2 * ambit.op_latency_ps(BitwiseOp::Xor).expect("op")
            + ambit.op_latency_ps(BitwiseOp::And).expect("op") // maj = AND-shaped program
            + ambit.op_latency_ps(BitwiseOp::Copy).expect("op");
        let lanes_per_round = ambit.banks * ambit.row_bytes * 8;
        let adds_per_s =
            lanes_per_round as f64 / (width as f64 * per_bit_ps as f64 * 1e-12);
        // CPU: stream 2 inputs + 1 output of `width`-bit integers, SIMD adds.
        let bytes_per_add = 3.0 * (width as f64 / 8.0);
        let cpu_adds_per_s = config.stream_bandwidth(usize::MAX / 2) / bytes_per_add;
        report.row(&[
            cell(width),
            cell(4 * width),
            format!("{:.1}", adds_per_s / 1e9),
            format!("{:.1}", cpu_adds_per_s / 1e9),
            format!("{:.1}x", adds_per_s / cpu_adds_per_s),
        ]);
    }
    report.print();

    println!(
        "\nthe carry chain is where TRA shines: maj(a, b, carry) is one 4-AAP program\n\
         because majority is what triple-row activation physically computes. Narrow\n\
         integers amortize best — exactly SIMDRAM's later finding.\n\
         (time to produce the functional numbers above: {})",
        fmt_time(receipt.makespan_ps() as f64 * 1e-12)
    );
}
