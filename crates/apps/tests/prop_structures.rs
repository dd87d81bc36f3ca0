//! Property-based tests for the application data structures: the red-black
//! tree against a model (BTreeSet), the bitset against the tree, and the
//! BitWeaving scan against a naive filter.

use ambit_apps::bitweaving::BitSlicedColumn;
use ambit_apps::{BitSet, RbTree, WahBitmap};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum SetCmd {
    Insert(u16),
    Remove(u16),
    Contains(u16),
}

fn cmd_strategy() -> impl Strategy<Value = SetCmd> {
    prop_oneof![
        (0u16..400).prop_map(SetCmd::Insert),
        (0u16..400).prop_map(SetCmd::Remove),
        (0u16..400).prop_map(SetCmd::Contains),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rbtree_behaves_like_btreeset(cmds in proptest::collection::vec(cmd_strategy(), 1..300)) {
        let mut tree = RbTree::new();
        let mut model = BTreeSet::new();
        for cmd in cmds {
            match cmd {
                SetCmd::Insert(k) => {
                    prop_assert_eq!(tree.insert(k), model.insert(k));
                }
                SetCmd::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k));
                }
                SetCmd::Contains(k) => {
                    prop_assert_eq!(tree.contains(&k), model.contains(&k));
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        tree.check_invariants();
        let got: Vec<u16> = tree.iter().copied().collect();
        let expect: Vec<u16> = model.into_iter().collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn rbtree_black_height_is_logarithmic(keys in proptest::collection::btree_set(any::<u32>(), 1..600)) {
        let n = keys.len();
        let tree: RbTree<u32> = keys.into_iter().collect();
        let bh = tree.check_invariants();
        // Black height ≤ log2(n+1) + 1 for any red-black tree.
        let bound = ((n + 1) as f64).log2() as usize + 1;
        prop_assert!(bh <= bound, "black height {bh} vs bound {bound} at n={n}");
    }

    #[test]
    fn bitset_algebra_matches_rbtree(
        xs in proptest::collection::btree_set(0usize..256, 0..80),
        ys in proptest::collection::btree_set(0usize..256, 0..80),
    ) {
        let tx: RbTree<usize> = xs.iter().copied().collect();
        let ty: RbTree<usize> = ys.iter().copied().collect();
        let mut bx = BitSet::new(256);
        let mut by = BitSet::new(256);
        for &v in &xs { bx.insert(v); }
        for &v in &ys { by.insert(v); }

        let t_union: Vec<usize> = tx.union(&ty).iter().copied().collect();
        let b_union: Vec<usize> = bx.union(&by).iter().collect();
        prop_assert_eq!(t_union, b_union);

        let t_inter: Vec<usize> = tx.intersection(&ty).iter().copied().collect();
        let b_inter: Vec<usize> = bx.intersection(&by).iter().collect();
        prop_assert_eq!(t_inter, b_inter);

        let t_diff: Vec<usize> = tx.difference(&ty).iter().copied().collect();
        let b_diff: Vec<usize> = bx.difference(&by).iter().collect();
        prop_assert_eq!(t_diff, b_diff);
    }

    #[test]
    fn bitweaving_scan_equals_naive_filter(
        values in proptest::collection::vec(0u32..4096, 1..500),
        c1 in 0u32..4096,
        c2 in 0u32..4096,
    ) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let col = BitSlicedColumn::from_values(&values, 12);
        let result = col.scan_between(lo, hi);
        for (row, &v) in values.iter().enumerate() {
            let got = result[row / 64] >> (row % 64) & 1 == 1;
            prop_assert_eq!(got, v >= lo && v <= hi, "row {} value {}", row, v);
        }
        // No bits set beyond the row count.
        let total: usize = result.iter().map(|w| w.count_ones() as usize).sum();
        let expect = values.iter().filter(|&&v| v >= lo && v <= hi).count();
        prop_assert_eq!(total, expect);
    }

    #[test]
    fn bit_sliced_layout_is_lossless(values in proptest::collection::vec(0u32..65536, 1..200)) {
        let col = BitSlicedColumn::from_values(&values, 16);
        // Reconstruct each value from the slices.
        for (row, &v) in values.iter().enumerate() {
            let mut rebuilt = 0u32;
            for j in 0..16 {
                let bit = col.slice(j)[row / 64] >> (row % 64) & 1;
                rebuilt |= (bit as u32) << (15 - j);
            }
            prop_assert_eq!(rebuilt, v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wah_roundtrips_arbitrary_bitmaps(
        data in proptest::collection::vec(any::<bool>(), 1..800),
    ) {
        let w = WahBitmap::from_bools(&data);
        prop_assert_eq!(w.len_bits(), data.len());
        prop_assert_eq!(w.count_ones(), data.iter().filter(|&&b| b).count());
        for (i, &bit) in data.iter().enumerate() {
            prop_assert_eq!(w.get(i), bit, "bit {}", i);
        }
    }

    #[test]
    fn wah_algebra_matches_bitset(
        xs in proptest::collection::btree_set(0usize..600, 0..120),
        ys in proptest::collection::btree_set(0usize..600, 0..120),
    ) {
        let domain = 600;
        let wa = WahBitmap::from_indices(domain, &xs.iter().copied().collect::<Vec<_>>());
        let wb = WahBitmap::from_indices(domain, &ys.iter().copied().collect::<Vec<_>>());
        let mut ba = BitSet::new(domain);
        let mut bb = BitSet::new(domain);
        for &v in &xs { ba.insert(v); }
        for &v in &ys { bb.insert(v); }

        let w_and: Vec<usize> = wa.and(&wb).iter_ones().collect();
        let b_and: Vec<usize> = ba.intersection(&bb).iter().collect();
        prop_assert_eq!(w_and, b_and);

        let w_or: Vec<usize> = wa.or(&wb).iter_ones().collect();
        let b_or: Vec<usize> = ba.union(&bb).iter().collect();
        prop_assert_eq!(w_or, b_or);
    }

    #[test]
    fn wah_compression_never_loses_against_runs(
        runs in proptest::collection::vec((any::<bool>(), 1usize..200), 1..12),
    ) {
        // Build a bitmap from explicit runs; WAH must encode it compactly
        // (at most one literal per run boundary region) and losslessly.
        let mut data = Vec::new();
        for &(value, len) in &runs {
            data.extend(std::iter::repeat_n(value, len));
        }
        let w = WahBitmap::from_bools(&data);
        for (i, &bit) in data.iter().enumerate() {
            prop_assert_eq!(w.get(i), bit);
        }
        // Canonical form: never more words than groups.
        prop_assert!(w.compressed_words() <= data.len().div_ceil(31).max(1));
    }
}

mod arith_props {
    use ambit_apps::synth_arith::{add_synth, sub_synth, BitSlicedVector};
    use ambit_core::{AmbitMemory, IssuePolicy};
    use ambit_dram::{AapMode, DramGeometry, TimingParams};
    use proptest::prelude::*;

    fn memory() -> AmbitMemory {
        AmbitMemory::new(
            DramGeometry {
                subarrays_per_bank: 4,
                rows_per_subarray: 128,
                ..DramGeometry::tiny()
            },
            TimingParams::ddr3_1600(),
            AapMode::Overlapped,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn in_dram_add_matches_wrapping_scalar(
            width in 1usize..12,
            values in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..40),
        ) {
            let mask = if width == 32 { u32::MAX } else { (1 << width) - 1 };
            let av: Vec<u32> = values.iter().map(|&(a, _)| a & mask).collect();
            let bv: Vec<u32> = values.iter().map(|&(_, b)| b & mask).collect();
            let mut mem = memory();
            let a = BitSlicedVector::alloc(&mut mem, av.len(), width).unwrap();
            let b = BitSlicedVector::alloc(&mut mem, bv.len(), width).unwrap();
            a.write(&mut mem, &av).unwrap();
            b.write(&mut mem, &bv).unwrap();
            let (sum, _) = add_synth(&mut mem, &a, &b, IssuePolicy::BankParallel).unwrap();
            let got = sum.read(&mem).unwrap();
            for l in 0..av.len() {
                prop_assert_eq!(got[l], av[l].wrapping_add(bv[l]) & mask, "lane {}", l);
            }
        }

        #[test]
        fn add_then_sub_is_identity(
            width in 2usize..10,
            values in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..30),
        ) {
            let mask = (1u32 << width) - 1;
            let av: Vec<u32> = values.iter().map(|&(a, _)| a & mask).collect();
            let bv: Vec<u32> = values.iter().map(|&(_, b)| b & mask).collect();
            let mut mem = memory();
            let a = BitSlicedVector::alloc(&mut mem, av.len(), width).unwrap();
            let b = BitSlicedVector::alloc(&mut mem, bv.len(), width).unwrap();
            a.write(&mut mem, &av).unwrap();
            b.write(&mut mem, &bv).unwrap();
            let (sum, _) = add_synth(&mut mem, &a, &b, IssuePolicy::BankParallel).unwrap();
            let (back, _) = sub_synth(&mut mem, &sum, &b, IssuePolicy::Serial).unwrap();
            prop_assert_eq!(back.read(&mem).unwrap(), av);
        }
    }
}
