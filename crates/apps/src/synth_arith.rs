//! Bulk bit-serial arithmetic built from Ambit's bitwise primitives by
//! the boolean synthesizer — the direction the paper's conclusion gestures
//! at ("enable better design of other applications to take advantage of
//! such operations") and that follow-on work (SIMDRAM, MICRO'21) built
//! through one synthesis flow.
//!
//! Integers live *vertically*: lane `l`'s bit `i` sits at position `l` of
//! bit-slice `i` (LSB first). Each kernel states its per-bit *truth tables*
//! and lets [`ambit_core::synth`] select native bbops for them, share
//! subterms, allocate scratch rows, and emit one [`BatchBuilder`] program
//! for the whole vector op; every lane computes at once. The full adder's
//! carry is one native triple-row activation, because majority is what the
//! DRAM physically computes. `tests/prop_synth_arith.rs` checks every
//! kernel against a scalar CPU reference.
//!
//! The synthesized programs lean on the compiler's alias-safe output
//! semantics: a loop-carried flag (the adder's carry, the comparator's
//! `lt`/`eq` ladder) is passed as *both* an input and an output of the same
//! emitted step group, and since outputs are written only after the
//! group's last input read, the next group reads the updated value while
//! this group read the previous one.

use ambit_core::synth::{synthesize, SynthOptions};
use ambit_core::{
    AmbitError, AmbitMemory, BatchBuilder, BatchReceipt, BitVectorHandle, BitwiseOp, BoolFunc,
    IssuePolicy, SynthProgram,
};

/// Widest lane the vectors hold: lanes are read and written as `u32`.
const MAX_WIDTH: usize = 32;

/// A vector of `lanes` unsigned integers of `width` bits each, stored
/// bit-sliced (slice 0 = LSB) in Ambit memory.
#[derive(Debug, Clone)]
pub struct BitSlicedVector {
    slices: Vec<BitVectorHandle>,
    lanes: usize,
    width: usize,
    padded: usize,
}

impl BitSlicedVector {
    /// Allocates a zeroed vector of `lanes` integers of `width` bits.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::Synthesis`] for a width outside `1..=32`;
    /// * [`AmbitError::EmptyAllocation`] for zero lanes;
    /// * [`AmbitError::OutOfMemory`] when the device cannot hold the
    ///   slices.
    pub fn alloc(mem: &mut AmbitMemory, lanes: usize, width: usize) -> Result<Self, AmbitError> {
        if !(1..=MAX_WIDTH).contains(&width) {
            return Err(AmbitError::Synthesis {
                detail: format!("bit-sliced width {width} outside 1..={MAX_WIDTH}"),
            });
        }
        if lanes == 0 {
            return Err(AmbitError::EmptyAllocation);
        }
        let row = mem.row_bits();
        let padded = lanes.div_ceil(row) * row;
        let slices = (0..width)
            .map(|_| mem.alloc(padded))
            .collect::<Result<_, _>>()?;
        Ok(BitSlicedVector {
            slices,
            lanes,
            width,
            padded,
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Integer width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Loads lane values (host write). Nothing is written unless every
    /// value fits.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::SizeMismatch`] when `values` does not hold one value
    ///   per lane (left: values, right: lanes), or when a value needs more
    ///   bits than the vector's width (left: the value's bits, right: the
    ///   width);
    /// * driver errors from the writes.
    pub fn write(&self, mem: &mut AmbitMemory, values: &[u32]) -> Result<(), AmbitError> {
        if values.len() != self.lanes {
            return Err(AmbitError::SizeMismatch {
                left_bits: values.len(),
                right_bits: self.lanes,
            });
        }
        let widest = values.iter().fold(0, |acc, &v| acc | v);
        let needed = (u32::BITS - widest.leading_zeros()) as usize;
        if needed > self.width {
            return Err(AmbitError::SizeMismatch {
                left_bits: needed,
                right_bits: self.width,
            });
        }
        for (i, &h) in self.slices.iter().enumerate() {
            let bits: Vec<bool> = (0..self.padded)
                .map(|l| l < self.lanes && values[l] >> i & 1 == 1)
                .collect();
            mem.poke_bits(h, &bits)?;
        }
        Ok(())
    }

    /// Reads all lane values back (host read).
    ///
    /// # Errors
    ///
    /// Propagates driver errors.
    pub fn read(&self, mem: &AmbitMemory) -> Result<Vec<u32>, AmbitError> {
        let mut out = vec![0u32; self.lanes];
        for (i, &h) in self.slices.iter().enumerate() {
            let bits = mem.peek_bits(h)?;
            for (l, v) in out.iter_mut().enumerate() {
                if bits[l] {
                    *v |= 1 << i;
                }
            }
        }
        Ok(out)
    }
}

/// Counter width needed to hold a popcount over `width` bits (the counts
/// `0..=width`).
fn popcount_width(width: usize) -> usize {
    (usize::BITS - width.leading_zeros()) as usize
}

fn bit(i: u64, j: usize) -> bool {
    i >> j & 1 == 1
}

/// The full-adder microprogram: outputs `[sum, carry']` over inputs
/// `[a, b, carry]`.
///
/// # Errors
///
/// Propagates synthesizer errors (none for this fixed program).
pub fn full_adder_plan() -> Result<SynthProgram, AmbitError> {
    let sum = BoolFunc::from_fn(3, |i| bit(i, 0) ^ bit(i, 1) ^ bit(i, 2))?;
    let carry = BoolFunc::from_fn(3, |i| {
        u8::from(bit(i, 0)) + u8::from(bit(i, 1)) + u8::from(bit(i, 2)) >= 2
    })?;
    synthesize(&[sum, carry], &SynthOptions::default())
}

/// The full-subtractor microprogram for `a - b` as `a + !b + 1`: outputs
/// `[diff, carry']` over `[a, b, carry]`, with `!b` folded into the tables
/// so no explicit Not step is spent on the operand.
///
/// # Errors
///
/// Propagates synthesizer errors (none for this fixed program).
pub fn full_subtractor_plan() -> Result<SynthProgram, AmbitError> {
    let diff = BoolFunc::from_fn(3, |i| bit(i, 0) ^ !bit(i, 1) ^ bit(i, 2))?;
    let carry = BoolFunc::from_fn(3, |i| {
        u8::from(bit(i, 0)) + u8::from(!bit(i, 1)) + u8::from(bit(i, 2)) >= 2
    })?;
    synthesize(&[diff, carry], &SynthOptions::default())
}

/// One rung of the MSB-down comparison ladder: outputs `[lt', eq']` over
/// `[a, b, lt, eq]`.
///
/// # Errors
///
/// Propagates synthesizer errors (none for this fixed program).
pub fn compare_rung_plan() -> Result<SynthProgram, AmbitError> {
    let lt = BoolFunc::from_fn(4, |i| {
        bit(i, 2) || (bit(i, 3) && !bit(i, 0) && bit(i, 1))
    })?;
    let eq = BoolFunc::from_fn(4, |i| bit(i, 3) && bit(i, 0) == bit(i, 1))?;
    synthesize(&[lt, eq], &SynthOptions::default())
}

/// The half-adder microprogram used by the popcount ripple: outputs
/// `[sum, carry']` over `[counter_bit, carry]`.
///
/// # Errors
///
/// Propagates synthesizer errors (none for this fixed program).
pub fn half_adder_plan() -> Result<SynthProgram, AmbitError> {
    let sum = BoolFunc::from_table(2, 0b0110)?; // xor
    let carry = BoolFunc::from_table(2, 0b1000)?; // and
    synthesize(&[sum, carry], &SynthOptions::default())
}

fn shape_check(a: &BitSlicedVector, b: &BitSlicedVector) -> Result<(), AmbitError> {
    if a.width != b.width || a.lanes != b.lanes {
        return Err(AmbitError::SizeMismatch {
            left_bits: a.width * a.lanes,
            right_bits: b.width * b.lanes,
        });
    }
    Ok(())
}

fn alloc_scratch(
    mem: &mut AmbitMemory,
    bits: usize,
    rows: usize,
) -> Result<Vec<BitVectorHandle>, AmbitError> {
    (0..rows).map(|_| mem.alloc(bits)).collect()
}

fn free_all(mem: &mut AmbitMemory, handles: impl IntoIterator<Item = BitVectorHandle>) {
    for h in handles {
        let _ = mem.free(h);
    }
}

/// Lane-wise addition `a + b` (overflow wraps) with a compiler-generated
/// ripple-carry adder: the synthesized full adder emitted once per bit
/// position into a single batch.
///
/// # Errors
///
/// Returns [`AmbitError::SizeMismatch`] on shape mismatch and propagates
/// driver errors.
pub fn add_synth(
    mem: &mut AmbitMemory,
    a: &BitSlicedVector,
    b: &BitSlicedVector,
    policy: IssuePolicy,
) -> Result<(BitSlicedVector, BatchReceipt), AmbitError> {
    shape_check(a, b)?;
    ripple(mem, a, b, policy, &full_adder_plan()?, BitwiseOp::InitZero)
}

/// Lane-wise subtraction `a − b` (overflow wraps) with a
/// compiler-generated full subtractor (two's complement; the carry seeds
/// at one).
///
/// # Errors
///
/// Returns [`AmbitError::SizeMismatch`] on shape mismatch and propagates
/// driver errors.
pub fn sub_synth(
    mem: &mut AmbitMemory,
    a: &BitSlicedVector,
    b: &BitSlicedVector,
    policy: IssuePolicy,
) -> Result<(BitSlicedVector, BatchReceipt), AmbitError> {
    shape_check(a, b)?;
    ripple(mem, a, b, policy, &full_subtractor_plan()?, BitwiseOp::InitOne)
}

/// Shared ripple skeleton for add/sub: `plan` maps `[a_i, b_i, carry]` to
/// `[result_i, carry]`, with the carry handle threaded through every bit
/// position of one batch.
fn ripple(
    mem: &mut AmbitMemory,
    a: &BitSlicedVector,
    b: &BitSlicedVector,
    policy: IssuePolicy,
    plan: &SynthProgram,
    carry_seed: BitwiseOp,
) -> Result<(BitSlicedVector, BatchReceipt), AmbitError> {
    let result = BitSlicedVector::alloc(mem, a.lanes, a.width)?;
    let carry = mem.alloc(a.padded)?;
    let scratch = match alloc_scratch(mem, a.padded, plan.scratch_rows()) {
        Ok(s) => s,
        Err(e) => {
            free_all(mem, [carry]);
            return Err(e);
        }
    };

    let mut batch = BatchBuilder::new();
    batch.bitwise(carry_seed, carry, None, carry);
    let emitted = (0..a.width).try_for_each(|i| {
        plan.emit_into(
            &mut batch,
            &[a.slices[i], b.slices[i], carry],
            &scratch,
            &[result.slices[i], carry],
        )
    });
    let receipt = emitted.and_then(|()| mem.execute_batch(&batch, policy));
    free_all(mem, scratch);
    free_all(mem, [carry]);
    Ok((result, receipt?))
}

/// Lane-wise unsigned `a < b` mask with a compiler-generated comparison
/// rung, run MSB first: the first differing bit decides.
///
/// # Errors
///
/// Returns [`AmbitError::SizeMismatch`] on shape mismatch and propagates
/// driver errors.
pub fn compare_lt_synth(
    mem: &mut AmbitMemory,
    a: &BitSlicedVector,
    b: &BitSlicedVector,
    policy: IssuePolicy,
) -> Result<(BitVectorHandle, BatchReceipt), AmbitError> {
    shape_check(a, b)?;
    let plan = compare_rung_plan()?;
    let lt = mem.alloc(a.padded)?;
    let eq = match mem.alloc(a.padded) {
        Ok(h) => h,
        Err(e) => {
            free_all(mem, [lt]);
            return Err(e);
        }
    };
    let scratch = match alloc_scratch(mem, a.padded, plan.scratch_rows()) {
        Ok(s) => s,
        Err(e) => {
            free_all(mem, [lt, eq]);
            return Err(e);
        }
    };

    let mut batch = BatchBuilder::new();
    batch.bitwise(BitwiseOp::InitZero, lt, None, lt);
    batch.bitwise(BitwiseOp::InitOne, eq, None, eq);
    let emitted = (0..a.width).rev().try_for_each(|i| {
        plan.emit_into(
            &mut batch,
            &[a.slices[i], b.slices[i], lt, eq],
            &scratch,
            &[lt, eq],
        )
    });
    let receipt = emitted.and_then(|()| mem.execute_batch(&batch, policy));
    free_all(mem, scratch);
    free_all(mem, [eq]);
    match receipt {
        Ok(r) => Ok((lt, r)),
        Err(e) => {
            free_all(mem, [lt]);
            Err(e)
        }
    }
}

/// Lane-wise popcount into a vector of `ceil(log2(width + 1))`-bit
/// counters, with a compiler-generated half-adder ripple that folds each
/// slice into the counter.
///
/// # Errors
///
/// Propagates driver errors.
pub fn popcount_synth(
    mem: &mut AmbitMemory,
    v: &BitSlicedVector,
    policy: IssuePolicy,
) -> Result<(BitSlicedVector, BatchReceipt), AmbitError> {
    let plan = half_adder_plan()?;
    let cw = popcount_width(v.width);
    let counter = BitSlicedVector::alloc(mem, v.lanes, cw)?;
    let carry = mem.alloc(v.padded)?;
    let scratch = match alloc_scratch(mem, v.padded, plan.scratch_rows()) {
        Ok(s) => s,
        Err(e) => {
            free_all(mem, [carry]);
            return Err(e);
        }
    };

    let mut batch = BatchBuilder::new();
    for &c in &counter.slices {
        batch.bitwise(BitwiseOp::InitZero, c, None, c);
    }
    let emitted = (0..v.width).try_for_each(|i| {
        batch.bitwise(BitwiseOp::Copy, v.slices[i], None, carry);
        (0..cw).try_for_each(|j| {
            plan.emit_into(
                &mut batch,
                &[counter.slices[j], carry],
                &scratch,
                &[counter.slices[j], carry],
            )
        })
    });
    let receipt = emitted.and_then(|()| mem.execute_batch(&batch, policy));
    free_all(mem, scratch);
    free_all(mem, [carry]);
    Ok((counter, receipt?))
}

/// Lane-wise `!= 0` mask: one OR fold over the slices (a copy at width
/// 1), which keeps the running OR in the designated rows (the paper's
/// Section 5.2 accumulation).
///
/// # Errors
///
/// Propagates driver errors.
pub fn nonzero_mask(
    mem: &mut AmbitMemory,
    v: &BitSlicedVector,
    policy: IssuePolicy,
) -> Result<(BitVectorHandle, BatchReceipt), AmbitError> {
    let acc = mem.alloc(v.padded)?;
    let mut batch = BatchBuilder::new();
    if let [only] = v.slices[..] {
        batch.bitwise(BitwiseOp::Copy, only, None, acc);
    } else {
        batch.fold(BitwiseOp::Or, &v.slices, acc);
    }
    match mem.execute_batch(&batch, policy) {
        Ok(r) => Ok((acc, r)),
        Err(e) => {
            free_all(mem, [acc]);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambit_dram::{AapMode, DramGeometry, TimingParams};

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

    #[test]
    fn write_read_roundtrip() {
        let mut mem = memory();
        let v = BitSlicedVector::alloc(&mut mem, 50, 12).unwrap();
        let values: Vec<u32> = (0..50).map(|i| (i * 37 + 5) % 4096).collect();
        v.write(&mut mem, &values).unwrap();
        assert_eq!(v.read(&mem).unwrap(), values);
    }

    #[test]
    fn alloc_rejects_a_width_outside_1_to_32() {
        let mut mem = memory();
        for width in [0, 33] {
            assert!(matches!(
                BitSlicedVector::alloc(&mut mem, 8, width),
                Err(AmbitError::Synthesis { .. })
            ));
        }
        BitSlicedVector::alloc(&mut mem, 8, 32).unwrap();
    }

    #[test]
    fn alloc_rejects_zero_lanes() {
        let mut mem = memory();
        assert!(matches!(
            BitSlicedVector::alloc(&mut mem, 0, 8),
            Err(AmbitError::EmptyAllocation)
        ));
    }

    #[test]
    fn write_rejects_a_lane_count_mismatch() {
        let mut mem = memory();
        let v = BitSlicedVector::alloc(&mut mem, 4, 8).unwrap();
        v.write(&mut mem, &[1, 2, 3, 4]).unwrap();
        assert!(matches!(
            v.write(&mut mem, &[5, 6, 7]),
            Err(AmbitError::SizeMismatch { left_bits: 3, right_bits: 4 })
        ));
        assert_eq!(v.read(&mem).unwrap(), [1, 2, 3, 4], "nothing written");
    }

    #[test]
    fn write_rejects_a_value_wider_than_the_width() {
        let mut mem = memory();
        let v = BitSlicedVector::alloc(&mut mem, 4, 8).unwrap();
        v.write(&mut mem, &[1, 2, 3, 255]).unwrap();
        assert!(matches!(
            v.write(&mut mem, &[9, 9, 9, 256]),
            Err(AmbitError::SizeMismatch { left_bits: 9, right_bits: 8 })
        ));
        assert_eq!(v.read(&mem).unwrap(), [1, 2, 3, 255], "nothing written");
    }

    #[test]
    fn kernels_reject_mismatched_shapes() {
        let mut mem = memory();
        let a = BitSlicedVector::alloc(&mut mem, 10, 8).unwrap();
        let b = BitSlicedVector::alloc(&mut mem, 10, 9).unwrap();
        let policy = IssuePolicy::BankParallel;
        let mismatch =
            |r: Result<(), AmbitError>| matches!(r, Err(AmbitError::SizeMismatch { .. }));
        assert!(mismatch(add_synth(&mut mem, &a, &b, policy).map(|_| ())));
        assert!(mismatch(sub_synth(&mut mem, &a, &b, policy).map(|_| ())));
        let lt = compare_lt_synth(&mut mem, &a, &b, policy);
        assert!(mismatch(lt.map(|_| ())));
    }

    #[test]
    fn plan_shapes_are_stable() {
        // The synthesized cells cost what the Figure 8 op sequences of the
        // textbook cells spend per bit: these pins catch selection
        // regressions.
        let fa = full_adder_plan().unwrap();
        assert_eq!(fa.inputs(), 3);
        assert_eq!(fa.outputs(), 2);
        // Xor, Xor, Maj3 (the carry, written in place) and one copy.
        assert_eq!(fa.aap_cost(), (15, 4));
        assert_eq!(fa.stats().maj3_steps, 1);
        let ha = half_adder_plan().unwrap();
        assert_eq!(ha.aap_cost(), (10, 2));
        let rung = compare_rung_plan().unwrap();
        assert_eq!(rung.inputs(), 4);
        assert_eq!(rung.outputs(), 2);
        assert_eq!(rung.aap_cost(), (23, 2));
    }

    #[test]
    fn nonzero_mask_is_one_fold() {
        let mut mem = memory();
        let lanes = mem.row_bits();
        let v = BitSlicedVector::alloc(&mut mem, lanes, 8).unwrap();
        let (_, receipt) = nonzero_mask(&mut mem, &v, IssuePolicy::Serial).unwrap();
        // 2k AAPs + (k − 1) APs for k = 8 slices, against seven 4-AAP ORs.
        assert_eq!((receipt.total.aaps, receipt.total.aps), (16, 7));
        let bit = BitSlicedVector::alloc(&mut mem, lanes, 1).unwrap();
        let (_, receipt) = nonzero_mask(&mut mem, &bit, IssuePolicy::Serial).unwrap();
        assert_eq!((receipt.total.aaps, receipt.total.aps), (1, 0), "one copy");
    }
}
