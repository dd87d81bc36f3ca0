//! Lane-parallel integer arithmetic from bitwise primitives — the
//! capability the paper's conclusion anticipates ("can enable better
//! design of other applications"): thousands of additions computed at
//! once, with each carry step a single native triple-row activation.
//!
//! Run with: `cargo run --release --example vector_arithmetic`

use ambit_repro::apps::synth_arith::{add_synth, sub_synth, BitSlicedVector};
use ambit_repro::core::{AmbitMemory, IssuePolicy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut mem = AmbitMemory::ddr3_module();
    let policy = IssuePolicy::BankParallel;

    let lanes = 100_000;
    let width = 12;
    println!("{lanes} lanes of {width}-bit integers, bit-sliced across DRAM rows\n");

    let a = BitSlicedVector::alloc(&mut mem, lanes, width)?;
    let b = BitSlicedVector::alloc(&mut mem, lanes, width)?;
    let av: Vec<u32> = (0..lanes).map(|_| rng.gen_range(0..2048)).collect();
    let bv: Vec<u32> = (0..lanes).map(|_| rng.gen_range(0..2048)).collect();
    a.write(&mut mem, &av)?;
    b.write(&mut mem, &bv)?;

    let (sum, receipt) = add_synth(&mut mem, &a, &b, policy)?;
    let got = sum.read(&mem)?;
    let correct = (0..lanes)
        .filter(|&l| got[l] == (av[l] + bv[l]) & 0xFFF)
        .count();
    println!(
        "a + b   : {correct}/{lanes} lanes correct  ({} AAPs + {} APs, {:.1} us in DRAM)",
        receipt.total.aaps,
        receipt.total.aps,
        receipt.makespan_ps() as f64 / 1e6
    );
    assert_eq!(correct, lanes);

    let (diff, _) = sub_synth(&mut mem, &a, &b, policy)?;
    let got = diff.read(&mem)?;
    let correct = (0..lanes)
        .filter(|&l| got[l] == av[l].wrapping_sub(bv[l]) & 0xFFF)
        .count();
    println!("a - b   : {correct}/{lanes} lanes correct (two's complement in DRAM)");
    assert_eq!(correct, lanes);

    // A constant operand is one more written vector.
    let k = BitSlicedVector::alloc(&mut mem, lanes, width)?;
    k.write(&mut mem, &vec![1000; lanes])?;
    let (inc, _) = add_synth(&mut mem, &a, &k, policy)?;
    let got = inc.read(&mem)?;
    println!(
        "a + 1000: first lanes {:?} -> {:?}",
        &av[..4],
        &got[..4]
    );

    println!(
        "\nper bit of width: 2 bulk XORs + 1 majority (one TRA program — the DRAM\n\
         physically computes maj) + 1 RowClone copy. Every lane is one bitline;\n\
         the 8-bank module adds {} lanes per pipeline round.",
        8 * 8192 * 8
    );
    Ok(())
}
