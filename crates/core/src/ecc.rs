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
//! correction. A scrub pass rewrites all replicas with the voted value.
//!
//! Voting runs 64 bits per word over the replicas' packed rows:
//! majority `(a&b)|(b&c)|(c&a)`, disagreement `(a^b)|(b^c)`. `Vec<bool>`
//! appears only at the public boundary ([`TmrVector::write`],
//! [`TmrVector::read_voted`]).

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

/// Expands packed rows into the first `len` logical bits.
pub(crate) fn unpack(rows: &[BitRow], len: usize) -> Vec<bool> {
    rows.iter()
        .flat_map(|row| (0..row.len()).map(move |bit| row.get(bit)))
        .take(len)
        .collect()
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
        for r in self.replicas {
            mem.poke_rows(r, &rows)?;
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
            let mut mask = a.clone();
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
    /// # Errors
    ///
    /// Propagates driver errors.
    pub fn scrub(&self, mem: &mut AmbitMemory) -> Result<usize> {
        let vote = self.vote(mem)?;
        self.write_rows(mem, vote.voted)?;
        Ok(vote.suspects)
    }
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
    use ambit_dram::{AapMode, CellFault, DramGeometry, TimingParams};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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
}
