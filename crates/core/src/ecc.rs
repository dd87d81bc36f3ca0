//! Triple modular redundancy ECC for Ambit memory (paper Section 5.4.5).
//!
//! Conventional SECDED ECC breaks when data is modified in place by the
//! memory: the controller never sees the new value, so it cannot recompute
//! the code. The paper observes that an ECC scheme must be *homomorphic*
//! over the bitwise operations — `ECC(A op B) = ECC(A) op ECC(B)` — and
//! that the only known such scheme is triple modular redundancy (TMR),
//! where `ECC(A) = AA` (replication).
//!
//! [`TmrVector`] stores three co-located replicas. Bulk operations run on
//! all three (replication commutes with every bitwise op, so the replicas
//! stay consistent by construction); reads majority-vote the replicas,
//! correcting any single-replica fault and reporting which bits needed
//! correction. A scrub pass rewrites all replicas with the voted value;
//! replicas that already agree are only refreshed.
//!
//! Voting runs 64 bits per word over the replicas' packed rows:
//! majority `(a&b)|(b&c)|(c&a)`, disagreement `(a^b)|(b^c)`. `Vec<bool>`
//! appears only at the public boundary ([`TmrVector::write`],
//! [`TmrVector::read_voted`]).
//!
//! Maintenance copies no row. Checks read the replica rows in place, and
//! a write stores one shared row buffer per chunk in all three replicas
//! (the device's copy-on-write storage pins each replica's stuck-at cells
//! in a copy of its own).

use std::sync::Arc;

use ambit_dram::BitRow;

use crate::driver::{AmbitMemory, BitVectorHandle};
use crate::error::{AmbitError, Result};
use crate::ops::BitwiseOp;
use crate::OpReceipt;

/// A triple-modular-redundant bitvector: three replicas in Ambit memory.
///
/// Replicas are voted word-wise over their packed rows. When the length is
/// not a multiple of the row width, the final row's trailing bits are
/// padding: they never vote, never count as corrected, and every write and
/// scrub stores them as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmrVector {
    replicas: [BitVectorHandle; 3],
    bits: usize,
}

/// Result of a voted read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VotedRead {
    /// The majority-voted data.
    pub data: Vec<bool>,
    /// Bit positions where at least one replica disagreed (corrected).
    pub corrected: Vec<usize>,
}

/// A word-wise vote over a TMR vector's replicas, one packed row per
/// chunk. Bits past the vector's length are zero in both row sets, so
/// padding never votes and never counts as a suspect.
#[derive(Debug)]
pub(crate) struct PackedVote {
    /// Majority of the three replicas.
    pub(crate) voted: Vec<BitRow>,
    /// Set where at least one replica disagrees.
    pub(crate) disagree: Vec<BitRow>,
    /// Set bits in `disagree`.
    pub(crate) suspects: usize,
}

impl PackedVote {
    /// Positions of the suspect bits, ascending.
    pub(crate) fn suspect_bits(&self) -> Vec<usize> {
        self.disagree
            .iter()
            .enumerate()
            .flat_map(|(k, row)| row.iter_ones().map(move |bit| k * row.len() + bit))
            .collect()
    }
}

/// Expands packed rows into the first `len` logical bits, a word at a
/// time.
pub(crate) fn unpack<'a>(rows: impl IntoIterator<Item = &'a BitRow>, len: usize) -> Vec<bool> {
    let mut out = Vec::with_capacity(len);
    for row in rows {
        // Bits of this row still wanted; a row's tail word may be partial.
        let mut left = row.len().min(len - out.len());
        for &word in row.words() {
            if left == 0 {
                break;
            }
            let take = left.min(64);
            out.extend((0..take).map(|bit| word >> bit & 1 == 1));
            left -= take;
        }
    }
    out
}

impl TmrVector {
    /// Allocates a TMR vector of `bits` logical bits (3× physical storage,
    /// the paper's noted overhead for TMR).
    ///
    /// # Errors
    ///
    /// Returns out-of-memory if the device cannot hold three replicas.
    pub fn alloc(mem: &mut AmbitMemory, bits: usize) -> Result<TmrVector> {
        Ok(TmrVector {
            replicas: [mem.alloc(bits)?, mem.alloc(bits)?, mem.alloc(bits)?],
            bits,
        })
    }

    /// Logical length in bits.
    pub fn len_bits(&self) -> usize {
        self.bits
    }

    /// The raw replica handles (for fault-injection campaigns).
    pub fn replicas(&self) -> [BitVectorHandle; 3] {
        self.replicas
    }

    /// Writes data to all three replicas.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::SizeMismatch`] unless `data` holds exactly
    /// [`len_bits`](Self::len_bits) bits, and propagates driver errors
    /// (stale handle).
    pub fn write(&self, mem: &mut AmbitMemory, data: &[bool]) -> Result<()> {
        if data.len() != self.bits {
            return Err(AmbitError::SizeMismatch {
                left_bits: data.len(),
                right_bits: self.bits,
            });
        }
        let row_bits = mem.row_bits();
        let rows: Vec<BitRow> = data
            .chunks(row_bits)
            .map(|chunk| BitRow::from_fn(row_bits, |bit| chunk.get(bit) == Some(&true)))
            .collect();
        self.write_rows(mem, rows)
    }

    /// Writes one packed row per chunk to all three replicas, first
    /// zeroing the bits past [`len_bits`](Self::len_bits), as
    /// [`write`](Self::write) does.
    pub(crate) fn write_rows(&self, mem: &mut AmbitMemory, mut rows: Vec<BitRow>) -> Result<()> {
        self.clear_padding(&mut rows);
        let rows: Vec<Arc<BitRow>> = rows.into_iter().map(Arc::new).collect();
        self.write_buffers(mem, &rows)
    }

    /// Stores one row buffer per chunk in all three replicas, shared by
    /// reference. The buffers' bits past [`len_bits`](Self::len_bits) must
    /// already be zero.
    pub(crate) fn write_buffers(&self, mem: &mut AmbitMemory, rows: &[Arc<BitRow>]) -> Result<()> {
        for r in self.replicas {
            mem.poke_row_buffers(r, rows)?;
        }
        Ok(())
    }

    /// Zeroes the bits of the final row past the vector's length.
    fn clear_padding(&self, rows: &mut [BitRow]) {
        if let Some((last, full)) = rows.split_last_mut() {
            let valid = self.bits.saturating_sub(full.len() * last.len());
            last.clear_from(valid);
        }
    }

    /// Visits the three replicas' rows chunk by chunk, borrowed from the
    /// device, with the number of the chunk's bits inside the vector's
    /// length. Stops at the first `false` and returns whether every visit
    /// returned `true`.
    fn all_rows(
        &self,
        mem: &AmbitMemory,
        mut visit: impl FnMut(usize, [&Arc<BitRow>; 3]) -> bool,
    ) -> Result<bool> {
        let [a, b, c] = self.replicas.map(|r| mem.peek_row_refs(r));
        let mut remaining = self.bits;
        for ((a, b), c) in a?.zip(b?).zip(c?) {
            let rows = [a?, b?, c?];
            let valid = remaining.min(rows[0].len());
            remaining -= valid;
            if !visit(valid, rows) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Counts the bits where the replicas disagree, the length of
    /// [`read_voted`](Self::read_voted)'s `corrected` list (padding never
    /// counts), without building the voted rows. It reads the replica rows
    /// in place and allocates nothing: the resilient executor's check
    /// after every operation and before every heal.
    ///
    /// # Errors
    ///
    /// Propagates driver errors (stale handle).
    pub fn suspects(&self, mem: &AmbitMemory) -> Result<usize> {
        let mut suspects = 0;
        self.all_rows(mem, |valid, [a, b, c]| {
            if Arc::ptr_eq(a, b) && Arc::ptr_eq(b, c) {
                return true;
            }
            let disagree = |((a, b), c): ((&u64, &u64), &u64)| (a ^ b) | (b ^ c);
            let mut words = a.words().iter().zip(b.words()).zip(c.words()).map(disagree);
            suspects += words
                .by_ref()
                .take(valid / 64)
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
            if valid % 64 != 0 {
                let tail = words.next().unwrap_or(0) & ((1u64 << (valid % 64)) - 1);
                suspects += tail.count_ones() as usize;
            }
            true
        })?;
        Ok(suspects)
    }

    /// Whether the replicas hold word-identical rows with zero padding, so
    /// a scrub would store exactly the words already stored (stuck-at
    /// cells included: every stored row already carries its faults).
    fn settled(&self, mem: &AmbitMemory) -> Result<bool> {
        self.all_rows(mem, |valid, [a, b, c]| {
            let same =
                |x: &Arc<BitRow>, y: &Arc<BitRow>| Arc::ptr_eq(x, y) || x.words() == y.words();
            // The padding starts inside word `valid / 64` (or with it).
            let padding = match a.words().split_at_checked(valid / 64) {
                Some((_, [w, rest @ ..])) => w >> (valid % 64) != 0 || rest.iter().any(|&w| w != 0),
                _ => false,
            };
            same(a, b) && same(b, c) && !padding
        })
    }

    /// The voted value as one row buffer per chunk, padding zero, for
    /// [`write_buffers`](Self::write_buffers). When the replicas already
    /// agree these are replica 0's own buffers, shared rather than copied;
    /// otherwise they hold the vote.
    ///
    /// # Errors
    ///
    /// Propagates driver errors (stale handle).
    pub(crate) fn snapshot(&self, mem: &AmbitMemory) -> Result<Vec<Arc<BitRow>>> {
        if self.settled(mem)? {
            return mem
                .peek_row_refs(self.replicas[0])?
                .map(|row| row.cloned())
                .collect();
        }
        Ok(self.vote(mem)?.voted.into_iter().map(Arc::new).collect())
    }

    /// Word-wise vote over the three replicas' packed rows, read in place
    /// (borrowed from the device, not copied).
    ///
    /// # Errors
    ///
    /// Propagates driver errors (stale handle).
    pub(crate) fn vote(&self, mem: &AmbitMemory) -> Result<PackedVote> {
        let [a, b, c] = self.replicas.map(|r| mem.peek_row_refs(r));
        let (a, b, c) = (a?, b?, c?);
        let mut voted = Vec::with_capacity(a.size_hint().0);
        let mut disagree = Vec::with_capacity(a.size_hint().0);
        for ((a, b), c) in a.zip(b).zip(c) {
            let (a, b, c) = (a?, b?, c?);
            voted.push(BitRow::majority(a, b, c));
            // (a^b) | (b^c) in one pass over a copy of a; `map_words`
            // visits the words in order.
            let mut bc = b.words().iter().zip(c.words());
            let mut mask = BitRow::clone(a);
            mask.map_words(|_, a| bc.next().map_or(0, |(b, c)| (a ^ b) | (b ^ c)));
            disagree.push(mask);
        }
        self.clear_padding(&mut voted);
        self.clear_padding(&mut disagree);
        let suspects = disagree.iter().map(BitRow::count_ones).sum();
        Ok(PackedVote {
            voted,
            disagree,
            suspects,
        })
    }

    /// The three replicas' values of logical bit `bit`, read in place.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::SizeMismatch`] if `bit` is past the vector's
    /// length, and propagates driver errors (stale handle).
    pub(crate) fn replica_bits(&self, mem: &AmbitMemory, bit: usize) -> Result<[bool; 3]> {
        let out_of_range = AmbitError::SizeMismatch {
            left_bits: bit,
            right_bits: self.bits,
        };
        if bit >= self.bits {
            return Err(out_of_range);
        }
        let row_bits = mem.row_bits();
        let mut values = [false; 3];
        for (value, &r) in values.iter_mut().zip(&self.replicas) {
            let mut rows = mem.peek_row_refs(r)?;
            let row = rows.nth(bit / row_bits).ok_or(out_of_range.clone())??;
            *value = row.get(bit % row_bits);
        }
        Ok(values)
    }

    /// Majority-voted read with per-bit correction reporting.
    ///
    /// # Errors
    ///
    /// Propagates driver errors.
    pub fn read_voted(&self, mem: &AmbitMemory) -> Result<VotedRead> {
        let vote = self.vote(mem)?;
        Ok(VotedRead {
            data: unpack(&vote.voted, self.bits),
            corrected: vote.suspect_bits(),
        })
    }

    /// Rewrites all replicas with the voted value (scrubbing), healing any
    /// single-replica transient corruption. Returns how many bits were
    /// repaired. Stuck-at hardware faults will of course re-corrupt.
    ///
    /// Replicas that already agree, with zero padding, would be rewritten
    /// with the words they hold, so they are only refreshed: the scrub
    /// renews their retention stamps and writes nothing.
    ///
    /// # Errors
    ///
    /// Propagates driver errors.
    pub fn scrub(&self, mem: &mut AmbitMemory) -> Result<usize> {
        Ok(self.scrub_report(mem)?.repaired)
    }

    /// [`scrub`](Self::scrub), also saying whether the replicas agreed.
    pub(crate) fn scrub_report(&self, mem: &mut AmbitMemory) -> Result<Scrub> {
        if self.settled(mem)? {
            for r in self.replicas {
                mem.refresh_rows(r)?;
            }
            return Ok(Scrub {
                repaired: 0,
                clean: true,
            });
        }
        let vote = self.vote(mem)?;
        self.write_rows(mem, vote.voted)?;
        Ok(Scrub {
            repaired: vote.suspects,
            clean: false,
        })
    }
}

/// What one [`TmrVector::scrub`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scrub {
    /// Bits where the replicas disagreed, now rewritten with the vote.
    pub(crate) repaired: usize,
    /// The replicas already agreed with zero padding and were only
    /// refreshed.
    pub(crate) clean: bool,
}

/// Executes `dst = op(a, b)` on TMR vectors: the operation runs on each
/// replica independently (homomorphism: replication commutes with every
/// bitwise op), costing exactly 3× the plain operation.
///
/// # Errors
///
/// Returns [`AmbitError::SizeMismatch`] on length mismatch and propagates
/// driver/controller errors.
pub fn bitwise_tmr(
    mem: &mut AmbitMemory,
    op: BitwiseOp,
    a: &TmrVector,
    b: Option<&TmrVector>,
    dst: &TmrVector,
) -> Result<OpReceipt> {
    if a.bits != dst.bits || b.is_some_and(|b| b.bits != a.bits) {
        return Err(AmbitError::SizeMismatch {
            left_bits: a.bits,
            right_bits: dst.bits,
        });
    }
    let mut total: Option<OpReceipt> = None;
    for i in 0..3 {
        let receipt = mem.bitwise(
            op,
            a.replicas[i],
            b.map(|b| b.replicas[i]),
            dst.replicas[i],
        )?;
        match &mut total {
            Some(t) => t.absorb(&receipt),
            None => total = Some(receipt),
        }
    }
    Ok(total.expect("three replicas"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambit_dram::{AapMode, BankId, CellFault, DramGeometry, SubarrayStats, TimingParams};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn unpack_matches_the_bit_by_bit_expansion() {
        let bit_by_bit = |rows: &[BitRow], len: usize| -> Vec<bool> {
            rows.iter()
                .flat_map(|row| (0..row.len()).map(move |bit| row.get(bit)))
                .take(len)
                .collect()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0x0ecc);
        // Row widths off and on the word size, one to three chunks, and
        // lengths that end inside a word, a row and the last row.
        for row_bits in [1, 63, 64, 65, 130, 256] {
            for chunks in 1..=3 {
                let rows: Vec<BitRow> =
                    (0..chunks).map(|_| BitRow::random(row_bits, &mut rng)).collect();
                let total = row_bits * chunks;
                for len in [0, 1, row_bits - 1, row_bits, total / 2 + 1, total - 1, total] {
                    assert_eq!(
                        unpack(&rows, len),
                        bit_by_bit(&rows, len),
                        "{row_bits}-bit rows × {chunks}, len {len}"
                    );
                }
            }
        }
    }

    fn memory() -> AmbitMemory {
        AmbitMemory::new(
            DramGeometry::tiny(),
            TimingParams::ddr3_1600(),
            AapMode::Overlapped,
        )
    }

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn write_read_roundtrip_without_faults() {
        let mut mem = memory();
        let bits = mem.row_bits();
        let v = TmrVector::alloc(&mut mem, bits).unwrap();
        let data = random_bits(bits, 1);
        v.write(&mut mem, &data).unwrap();
        let read = v.read_voted(&mem).unwrap();
        assert_eq!(read.data, data);
        assert!(read.corrected.is_empty());
    }

    #[test]
    fn single_replica_fault_is_corrected() {
        let mut mem = memory();
        let bits = mem.row_bits();
        let v = TmrVector::alloc(&mut mem, bits).unwrap();
        let data = vec![true; bits];
        v.write(&mut mem, &data).unwrap();
        // Stuck-at-zero in one replica.
        mem.inject_fault(v.replicas()[1], 7, CellFault::StuckAtZero).unwrap();
        mem.poke_bits(v.replicas()[1], &data).unwrap(); // re-store: bit 7 sticks low
        let read = v.read_voted(&mem).unwrap();
        assert_eq!(read.data, data, "vote masks the fault");
        assert_eq!(read.corrected, vec![7]);
    }

    #[test]
    fn double_replica_fault_is_uncorrectable_and_visible() {
        let mut mem = memory();
        let bits = mem.row_bits();
        let v = TmrVector::alloc(&mut mem, bits).unwrap();
        let data = vec![true; bits];
        v.write(&mut mem, &data).unwrap();
        for r in [0, 1] {
            mem.inject_fault(v.replicas()[r], 3, CellFault::StuckAtZero).unwrap();
            mem.poke_bits(v.replicas()[r], &data).unwrap();
        }
        let read = v.read_voted(&mem).unwrap();
        assert!(!read.data[3], "two bad replicas outvote the good one");
        assert!(read.corrected.contains(&3), "but the disagreement is flagged");
    }

    #[test]
    fn operations_are_homomorphic_over_replication() {
        // ECC(A op B) == ECC(A) op ECC(B): operating replica-wise equals
        // replicating the plain result.
        for op in BitwiseOp::FIGURE9_OPS {
            let mut mem = memory();
            let bits = mem.row_bits();
            let da = random_bits(bits, 2);
            let db = random_bits(bits, 3);
            let a = TmrVector::alloc(&mut mem, bits).unwrap();
            let b = TmrVector::alloc(&mut mem, bits).unwrap();
            let d = TmrVector::alloc(&mut mem, bits).unwrap();
            a.write(&mut mem, &da).unwrap();
            b.write(&mut mem, &db).unwrap();
            let src2 = (op.source_count() == 2).then_some(&b);
            bitwise_tmr(&mut mem, op, &a, src2, &d).unwrap();
            let read = d.read_voted(&mem).unwrap();
            for i in 0..bits {
                let expect = op.apply_words(da[i] as u64, db[i] as u64) & 1 == 1;
                assert_eq!(read.data[i], expect, "{op} bit {i}");
            }
            assert!(read.corrected.is_empty(), "{op}: replicas stayed consistent");
        }
    }

    #[test]
    fn tmr_op_costs_exactly_three_times_plain() {
        let mut mem = memory();
        let bits = mem.row_bits();
        let a = TmrVector::alloc(&mut mem, bits).unwrap();
        let b = TmrVector::alloc(&mut mem, bits).unwrap();
        let d = TmrVector::alloc(&mut mem, bits).unwrap();
        let receipt = bitwise_tmr(&mut mem, BitwiseOp::And, &a, Some(&b), &d).unwrap();
        assert_eq!(receipt.aaps, 3 * 4, "3 replicas x 4 AAPs");
    }

    #[test]
    fn transient_corruption_survives_an_op_then_scrubs_away() {
        let mut mem = memory();
        let bits = mem.row_bits();
        let a = TmrVector::alloc(&mut mem, bits).unwrap();
        let data = random_bits(bits, 4);
        a.write(&mut mem, &data).unwrap();
        // Transiently corrupt one replica (no hardware fault): flip bit 11.
        let mut bad = data.clone();
        bad[11] = !bad[11];
        mem.poke_bits(a.replicas()[2], &bad).unwrap();

        let read = a.read_voted(&mem).unwrap();
        assert_eq!(read.data, data);
        assert_eq!(read.corrected, vec![11]);

        let repaired = a.scrub(&mut mem).unwrap();
        assert_eq!(repaired, 1);
        let after = a.read_voted(&mem).unwrap();
        assert!(after.corrected.is_empty(), "scrub healed the replica");
    }

    /// Every row of the device, bank by bank: its words, its refresh stamp
    /// and its buffer's address, plus the device counters but
    /// `rows_materialized` (a shared buffer meeting a differing stuck-at
    /// cell is copied, where a private one is patched in place).
    #[allow(clippy::type_complexity)]
    fn device_image(mem: &AmbitMemory) -> (Vec<(Vec<u64>, Option<u64>, usize)>, SubarrayStats) {
        let device = mem.controller().device();
        let geometry = *device.geometry();
        let mut rows = Vec::new();
        for flat in 0..geometry.total_banks() {
            let bank = device.bank(BankId::from_flat_index(flat, &geometry));
            for s in 0..geometry.subarrays_per_bank {
                let sa = bank.subarray(s);
                for row in 0..sa.rows() {
                    let buffer = sa.row_buffer(row);
                    rows.push((
                        buffer.words().to_vec(),
                        sa.refreshed_at_ns(row),
                        Arc::as_ptr(buffer) as usize,
                    ));
                }
            }
        }
        let stats = SubarrayStats {
            rows_materialized: 0,
            ..device.stats()
        };
        (rows, stats)
    }

    /// [`device_image`] without the buffer addresses.
    #[allow(clippy::type_complexity)]
    fn device_values(mem: &AmbitMemory) -> (Vec<(Vec<u64>, Option<u64>)>, SubarrayStats) {
        let (rows, stats) = device_image(mem);
        (rows.into_iter().map(|(w, t, _)| (w, t)).collect(), stats)
    }

    #[test]
    fn clean_scrub_only_refreshes_stale_replicas() {
        let mut mem = memory();
        let bits = 2 * mem.row_bits() + 5;
        let v = TmrVector::alloc(&mut mem, bits).unwrap();
        mem.controller_mut()
            .device_mut()
            .set_retention_window(Some(1_000));
        v.write(&mut mem, &random_bits(bits, 9)).unwrap();
        mem.controller_mut().device_mut().advance_time_ns(5_000);
        let (before, _) = device_image(&mem);

        let scrub = v.scrub_report(&mut mem).unwrap();
        assert_eq!(
            scrub,
            Scrub {
                repaired: 0,
                clean: true
            }
        );
        let (after, _) = device_image(&mem);
        let mut refreshed = 0;
        for ((words, stamp, buffer), (words_after, stamp_after, buffer_after)) in
            before.iter().zip(&after)
        {
            assert_eq!(words, words_after, "a clean scrub writes no word");
            assert_eq!(buffer, buffer_after, "a clean scrub stores no buffer");
            if stamp != stamp_after {
                assert_eq!(*stamp_after, Some(5_000));
                refreshed += 1;
            }
        }
        assert_eq!(refreshed, 3 * 3, "three replicas of three rows refreshed");
    }

    #[test]
    fn padding_ones_make_the_scrub_rewrite() {
        // An in-place NOT sets the padding past the vector's length; the
        // replicas agree on every bit, but only a rewrite clears it.
        let mut mem = memory();
        let bits = mem.row_bits() - 3;
        let v = TmrVector::alloc(&mut mem, bits).unwrap();
        v.write(&mut mem, &random_bits(bits, 10)).unwrap();
        bitwise_tmr(&mut mem, BitwiseOp::Not, &v, None, &v).unwrap();
        assert_eq!(v.suspects(&mem).unwrap(), 0);
        let padded = |mem: &AmbitMemory| {
            v.replicas()
                .iter()
                .all(|&r| mem.peek_rows(r).unwrap()[0].words()[1] >> (bits - 64) != 0)
        };
        assert!(padded(&mem));
        let scrub = v.scrub_report(&mut mem).unwrap();
        assert!(!scrub.clean);
        assert_eq!(scrub.repaired, 0);
        assert!(!padded(&mem), "the rewrite cleared the padding");
        assert!(v.scrub_report(&mut mem).unwrap().clean);
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut mem = memory();
        let a = TmrVector::alloc(&mut mem, 64).unwrap();
        let d = TmrVector::alloc(&mut mem, 128).unwrap();
        assert!(matches!(
            bitwise_tmr(&mut mem, BitwiseOp::Not, &a, None, &d),
            Err(AmbitError::SizeMismatch { .. })
        ));
    }

    /// A TMR state for the scrub-equivalence proptest.
    #[derive(Debug, Clone)]
    struct TmrState {
        /// Logical length: up to three rows, mostly not a row multiple.
        bits: usize,
        seed: u64,
        /// Close with an in-place NOT, which leaves ones in the padding.
        not_in_place: bool,
        /// Stuck-at cells as (replica, bit, stuck at one).
        stuck: Vec<(usize, usize, bool)>,
        /// Transient disagreements as (replica, bit) flips.
        flips: Vec<(usize, usize)>,
        /// An armed retention window and the time idled past it.
        retention: Option<(u64, u64)>,
    }

    fn tmr_state() -> impl Strategy<Value = TmrState> {
        (
            (1usize..3 * 128 + 1, any::<u64>(), any::<bool>()),
            proptest::collection::vec((0usize..3, any::<usize>(), any::<bool>()), 0..3),
            proptest::collection::vec((0usize..3, any::<usize>()), 0..4),
            (any::<bool>(), 1u64..2_000, 0u64..4_000),
        )
            .prop_map(|(head, stuck, flips, (armed, window, idle))| {
                let (bits, seed, not_in_place) = head;
                TmrState {
                    bits,
                    seed,
                    not_in_place,
                    stuck: stuck.into_iter().map(|(r, b, one)| (r, b % bits, one)).collect(),
                    flips: flips.into_iter().map(|(r, b)| (r, b % bits)).collect(),
                    retention: armed.then_some((window, idle)),
                }
            })
    }

    /// Builds the state on a fresh memory; equal states build equal
    /// memories.
    fn build(state: &TmrState) -> (AmbitMemory, TmrVector) {
        let mut mem = memory();
        let v = TmrVector::alloc(&mut mem, state.bits).unwrap();
        if let Some((window, _)) = state.retention {
            mem.controller_mut()
                .device_mut()
                .set_retention_window(Some(window));
        }
        v.write(&mut mem, &random_bits(state.bits, state.seed)).unwrap();
        if state.not_in_place {
            bitwise_tmr(&mut mem, BitwiseOp::Not, &v, None, &v).unwrap();
        }
        for &(r, bit, one) in &state.stuck {
            let fault = if one {
                CellFault::StuckAtOne
            } else {
                CellFault::StuckAtZero
            };
            mem.inject_fault(v.replicas()[r], bit, fault).unwrap();
        }
        let row_bits = mem.row_bits();
        for &(r, bit) in &state.flips {
            let replica = v.replicas()[r];
            let mut rows = mem.peek_rows(replica).unwrap();
            let row = &mut rows[bit / row_bits];
            row.set(bit % row_bits, !row.get(bit % row_bits));
            mem.poke_rows(replica, &rows).unwrap();
        }
        if let Some((window, idle)) = state.retention {
            mem.controller_mut()
                .device_mut()
                .advance_time_ns(window + idle);
        }
        (mem, v)
    }

    /// The scrub before shared buffers: vote, then poke three copies.
    fn reference_scrub(v: &TmrVector, mem: &mut AmbitMemory) -> usize {
        let vote = v.vote(mem).unwrap();
        for r in v.replicas() {
            mem.poke_rows(r, &vote.voted).unwrap();
        }
        vote.suspects
    }

    /// The write before shared buffers: clear the padding, then poke three
    /// copies.
    fn reference_write(v: &TmrVector, mem: &mut AmbitMemory, mut rows: Vec<BitRow>) {
        v.clear_padding(&mut rows);
        for r in v.replicas() {
            mem.poke_rows(r, &rows).unwrap();
        }
    }

    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// `suspects`, `scrub`, `snapshot` and the shared `write_rows`
        /// leave every row's words and refresh stamp, and every counter but
        /// `rows_materialized`, as the vote-and-copy reference does, and
        /// return the same values.
        #[test]
        fn scrub_equivalence(state in tmr_state(), write_seed in any::<u64>()) {
            let (mut mem, v) = build(&state);
            let (mut reference, v_ref) = build(&state);
            prop_assert_eq!(v, v_ref);
            prop_assert_eq!(device_values(&mem), device_values(&reference));

            let vote = v.vote(&reference).unwrap();
            prop_assert_eq!(v.suspects(&mem).unwrap(), vote.suspects);
            let snapshot: Vec<BitRow> =
                v.snapshot(&mem).unwrap().iter().map(|row| BitRow::clone(row)).collect();
            prop_assert_eq!(snapshot, vote.voted);

            prop_assert_eq!(v.scrub(&mut mem).unwrap(), reference_scrub(&v, &mut reference));
            prop_assert_eq!(device_values(&mem), device_values(&reference));
            prop_assert_eq!(v.suspects(&mem).unwrap(), v.vote(&reference).unwrap().suspects);
            prop_assert_eq!(v.scrub(&mut mem).unwrap(), reference_scrub(&v, &mut reference));
            prop_assert_eq!(device_values(&mem), device_values(&reference));

            let row_bits = mem.row_bits();
            let mut rng = ChaCha8Rng::seed_from_u64(write_seed);
            let rows: Vec<BitRow> = (0..state.bits.div_ceil(row_bits))
                .map(|_| BitRow::random(row_bits, &mut rng))
                .collect();
            v.write_rows(&mut mem, rows.clone()).unwrap();
            reference_write(&v, &mut reference, rows);
            prop_assert_eq!(device_values(&mem), device_values(&reference));

            // The replicas now share buffers: an op on one replica alone
            // must not reach the others, and the next scrub repairs it.
            let r0 = v.replicas()[0];
            mem.bitwise(BitwiseOp::Not, r0, None, r0).unwrap();
            reference.bitwise(BitwiseOp::Not, r0, None, r0).unwrap();
            prop_assert_eq!(device_values(&mem), device_values(&reference));
            prop_assert_eq!(v.suspects(&mem).unwrap(), v.vote(&reference).unwrap().suspects);
            prop_assert_eq!(v.scrub(&mut mem).unwrap(), reference_scrub(&v, &mut reference));
            prop_assert_eq!(device_values(&mem), device_values(&reference));
        }
    }
}
