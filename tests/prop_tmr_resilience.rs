//! Property-based tests of the TMR voting layer (paper Section 5.4.5)
//! against randomized stuck-at fault campaigns: a voted read corrects any
//! single-replica fault pattern, and the `corrected` list reports exactly
//! the faulted bit positions that actually flipped the stored value. For
//! lengths that leave padding in the final row, corrupted padding never
//! votes, never counts as corrected, and scrubbing writes it back as zero.

use std::collections::BTreeSet;

use ambit_repro::core::{AmbitMemory, TmrVector};
use ambit_repro::dram::{AapMode, CellFault, DramGeometry, TimingParams};
use proptest::prelude::*;

/// Row width of the tiny geometry.
const ROW_BITS: usize = 128;

fn memory() -> AmbitMemory {
    AmbitMemory::new(
        DramGeometry::tiny(),
        TimingParams::ddr3_1600(),
        AapMode::Overlapped,
    )
}

fn bits_from_seed(bits: usize, seed: u64) -> Vec<bool> {
    let mut x = seed | 1;
    (0..bits)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any campaign of stuck-at faults confined to ONE replica is fully
    /// masked by voting, and `corrected` is exactly the set of positions
    /// where the stuck value differs from the stored data.
    #[test]
    fn voted_read_corrects_any_single_replica_campaign(
        data_seed in any::<u64>(),
        replica in 0usize..3,
        fault_bits in prop::collection::btree_set(0usize..128, 1..16),
        stuck_one in any::<bool>(),
    ) {
        let mut mem = memory();
        let bits = mem.row_bits();
        let data = bits_from_seed(bits, data_seed);
        let tmr = TmrVector::alloc(&mut mem, bits).unwrap();
        tmr.write(&mut mem, &data).unwrap();

        let fault = if stuck_one {
            CellFault::StuckAtOne
        } else {
            CellFault::StuckAtZero
        };
        let victim = tmr.replicas()[replica];
        for &bit in &fault_bits {
            mem.inject_fault(victim, bit, fault).unwrap();
        }
        // Re-store so the stuck cells take effect on the stored values.
        tmr.write(&mut mem, &data).unwrap();

        let read = tmr.read_voted(&mem).unwrap();
        prop_assert_eq!(&read.data, &data, "a single faulty replica never wins the vote");

        // Exactness: corrected must list precisely the faulted positions
        // whose stored value actually flipped — no more, no less.
        let expect: BTreeSet<usize> = fault_bits
            .iter()
            .copied()
            .filter(|&b| data[b] != stuck_one)
            .collect();
        let got: BTreeSet<usize> = read.corrected.iter().copied().collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(read.corrected.len(), expect.len(), "no duplicate reports");
    }

    /// Scrubbing a single-replica fault campaign repairs every reported
    /// bit; persistent disagreement after the scrub identifies exactly the
    /// stuck (permanent) cells.
    #[test]
    fn scrub_heals_transients_and_exposes_permanents(
        data_seed in any::<u64>(),
        fault_bits in prop::collection::btree_set(0usize..128, 1..8),
    ) {
        let mut mem = memory();
        let bits = mem.row_bits();
        let data = bits_from_seed(bits, data_seed);
        let tmr = TmrVector::alloc(&mut mem, bits).unwrap();
        tmr.write(&mut mem, &data).unwrap();
        let victim = tmr.replicas()[0];
        for &bit in &fault_bits {
            mem.inject_fault(victim, bit, CellFault::StuckAtOne).unwrap();
        }
        tmr.write(&mut mem, &data).unwrap();

        let repaired = tmr.scrub(&mut mem).unwrap();
        let flipped: BTreeSet<usize> =
            fault_bits.iter().copied().filter(|&b| !data[b]).collect();
        prop_assert_eq!(repaired, flipped.len());

        // Stuck cells re-corrupt immediately: the post-scrub read reports
        // them again (they are permanent), and the voted data stays right.
        let read = tmr.read_voted(&mem).unwrap();
        let got: BTreeSet<usize> = read.corrected.iter().copied().collect();
        prop_assert_eq!(got, flipped);
        prop_assert_eq!(read.data, data);
    }

    /// Corrupting the padding of a vector whose length is not a multiple
    /// of the row width — in one replica, and at one position in a second
    /// replica too, so that padding bit holds a two-replica majority —
    /// never shows up in `corrected` or the voted data, and a scrub writes
    /// every replica's padding back as zero.
    #[test]
    fn padding_never_votes_and_scrubs_to_zero(
        data_seed in any::<u64>(),
        full_rows in 0usize..3,
        tail in 1usize..ROW_BITS,
        replica in 0usize..3,
        pad_offsets in prop::collection::btree_set(0usize..ROW_BITS, 1..8),
    ) {
        let mut mem = memory();
        prop_assert_eq!(mem.row_bits(), ROW_BITS);
        let bits = full_rows * ROW_BITS + tail;
        let data = bits_from_seed(bits, data_seed);
        let tmr = TmrVector::alloc(&mut mem, bits).unwrap();
        tmr.write(&mut mem, &data).unwrap();

        let pad = ROW_BITS - tail;
        let corrupt = |mem: &mut AmbitMemory, victim, offsets: &[usize]| {
            let mut rows = mem.peek_rows(victim).unwrap();
            for &off in offsets {
                rows[full_rows].set(tail + off % pad, true);
            }
            mem.poke_rows(victim, &rows).unwrap();
        };
        let offsets: Vec<usize> = pad_offsets.iter().copied().collect();
        corrupt(&mut mem, tmr.replicas()[replica], &offsets);
        corrupt(&mut mem, tmr.replicas()[(replica + 1) % 3], &offsets[..1]);

        let read = tmr.read_voted(&mem).unwrap();
        prop_assert!(read.corrected.is_empty(), "padding reported: {:?}", read.corrected);
        prop_assert_eq!(&read.data, &data);

        prop_assert_eq!(tmr.scrub(&mut mem).unwrap(), 0);
        for r in tmr.replicas() {
            let last = &mem.peek_rows(r).unwrap()[full_rows];
            prop_assert!(
                (tail..ROW_BITS).all(|b| !last.get(b)),
                "padding of replica {:?} not zero after scrub",
                r
            );
        }
        prop_assert_eq!(tmr.read_voted(&mem).unwrap().data, data);
    }
}
