//! Fixed-width bit vectors representing the contents of one DRAM row.
//!
//! A DRAM row is a horizontal slice of a subarray: one bit per bitline. All
//! in-DRAM computation in this workspace (triple-row activation, RowClone,
//! Ambit command programs) manipulates whole rows at a time, so [`BitRow`] is
//! the fundamental data type of the functional simulator.
//!
//! The representation is a dense `Vec<u64>` with the row length tracked in
//! bits; any trailing bits of the last word beyond `len` are kept zero so
//! that equality, hashing and popcounts are well defined.

use std::fmt;

use rand::Rng;

/// Contents of a single DRAM row: `len` bits, one per bitline.
///
/// `BitRow` supports the word-parallel operations needed to model in-DRAM
/// computation, most importantly the bitwise three-way [`majority`] used by
/// triple-row activation.
///
/// # Examples
///
/// ```
/// use ambit_dram::BitRow;
///
/// let a = BitRow::from_fn(8, |i| i % 2 == 0); // 0b01010101 (LSB first)
/// let b = BitRow::zeros(8);
/// let c = BitRow::ones(8);
/// // majority(a, 0, 1) == a: the control row turns majority into a pass-through
/// assert_eq!(BitRow::majority(&a, &b, &c), a);
/// ```
///
/// [`majority`]: BitRow::majority
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitRow {
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = 64;

fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

impl BitRow {
    /// Creates a row of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitRow {
            words: vec![0; words_for(len)],
            len,
        }
    }

    /// Creates a row of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut row = BitRow {
            words: vec![u64::MAX; words_for(len)],
            len,
        };
        row.mask_tail();
        row
    }

    /// Creates a row whose bit `i` equals `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut row = BitRow::zeros(len);
        for i in 0..len {
            if f(i) {
                row.set(i, true);
            }
        }
        row
    }

    /// Creates a row from the low bits of the given words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than `len` requires.
    pub fn from_words(len: usize, words: &[u64]) -> Self {
        assert!(
            words.len() >= words_for(len),
            "from_words: {} words cannot hold {} bits",
            words.len(),
            len
        );
        let mut row = BitRow {
            words: words[..words_for(len)].to_vec(),
            len,
        };
        row.mask_tail();
        row
    }

    /// Creates a row of `len` uniformly random bits.
    pub fn random(len: usize, rng: &mut impl Rng) -> Self {
        let mut row = BitRow {
            words: (0..words_for(len)).map(|_| rng.gen()).collect(),
            len,
        };
        row.mask_tail();
        row
    }

    /// Number of bits in the row (the subarray's bitline count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the row holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {} out of range {}", i, self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {} out of range {}", i, self.len);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Backing words (LSB-first bit order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise NOT of the row (within `len` bits).
    pub fn not(&self) -> BitRow {
        let mut row = BitRow {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        row.mask_tail();
        row
    }

    /// Bitwise AND with another row of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and(&self, other: &BitRow) -> BitRow {
        self.zip_with(other, |a, b| a & b)
    }

    /// Bitwise OR with another row of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or(&self, other: &BitRow) -> BitRow {
        self.zip_with(other, |a, b| a | b)
    }

    /// Bitwise XOR with another row of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor(&self, other: &BitRow) -> BitRow {
        self.zip_with(other, |a, b| a ^ b)
    }

    /// Bitwise majority of three rows: bit `i` of the result is 1 iff at
    /// least two of the three input bits are 1.
    ///
    /// This is exactly the function computed on the bitlines by a triple-row
    /// activation (paper Section 3.1): `AB + BC + CA`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn majority(a: &BitRow, b: &BitRow, c: &BitRow) -> BitRow {
        assert_eq!(a.len, b.len, "majority: length mismatch");
        assert_eq!(a.len, c.len, "majority: length mismatch");
        let words = a
            .words
            .iter()
            .zip(&b.words)
            .zip(&c.words)
            .map(|((&x, &y), &z)| (x & y) | (y & z) | (z & x))
            .collect();
        BitRow { words, len: a.len }
    }

    /// In-place bitwise NOT of the row (within `len` bits).
    ///
    /// The allocation-free counterpart of [`not`](BitRow::not), used on the
    /// simulator's restore path where a fresh row per wordline would
    /// dominate the cost of an activation.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Overwrites this row with the contents of `src`, reusing the existing
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, src: &BitRow) {
        assert_eq!(self.len, src.len, "copy_from: length mismatch");
        self.words.copy_from_slice(&src.words);
    }

    /// Writes the bitwise majority of `a`, `b`, `c` into this row, reusing
    /// the existing allocation ([`majority`](BitRow::majority) without the
    /// output allocation).
    ///
    /// # Panics
    ///
    /// Panics if any length differs from this row's.
    pub fn majority_into(&mut self, a: &BitRow, b: &BitRow, c: &BitRow) {
        self.majority_signed_into(a, false, b, false, c, false);
    }

    /// Writes the bitwise majority of the three inputs — each optionally
    /// complemented first — into this row, 64 bitlines per word operation.
    ///
    /// This is the charge-sharing outcome of a triple-row activation with
    /// `invert_*` marking inputs connected through bitline-bar (n-wordlines
    /// of dual-contact cells, paper Section 4): a cell on the negated side
    /// pulls the *sensed* value toward the complement of its contents.
    ///
    /// # Panics
    ///
    /// Panics if any length differs from this row's.
    pub fn majority_signed_into(
        &mut self,
        a: &BitRow,
        invert_a: bool,
        b: &BitRow,
        invert_b: bool,
        c: &BitRow,
        invert_c: bool,
    ) {
        assert_eq!(self.len, a.len, "majority: length mismatch");
        assert_eq!(self.len, b.len, "majority: length mismatch");
        assert_eq!(self.len, c.len, "majority: length mismatch");
        let flip = |w: u64, invert: bool| if invert { !w } else { w };
        for (i, out) in self.words.iter_mut().enumerate() {
            let x = flip(a.words[i], invert_a);
            let y = flip(b.words[i], invert_b);
            let z = flip(c.words[i], invert_c);
            *out = (x & y) | (y & z) | (z & x);
        }
        self.mask_tail();
    }

    /// Combines this row with `other` word-by-word in place:
    /// `self[i] = f(self[i], other[i])` for each backing word. Tail bits
    /// beyond `len` are re-masked afterwards, so `f` may produce them
    /// freely.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn zip_with_into(&mut self, other: &BitRow, f: impl Fn(u64, u64) -> u64) {
        assert_eq!(self.len, other.len, "bitwise op: length mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a = f(*a, b);
        }
        self.mask_tail();
    }

    /// Rewrites each backing word in order, in place:
    /// `self[i] = f(lanes, self[i])`, where `lanes` is the number of bits of
    /// word `i` inside the row (64, or the width of a partial last word).
    /// Tail bits beyond `len` are re-masked afterwards, so `f` may produce
    /// them freely.
    pub fn map_words(&mut self, mut f: impl FnMut(usize, u64) -> u64) {
        let len = self.len;
        for (i, word) in self.words.iter_mut().enumerate() {
            *word = f((len - i * WORD_BITS).min(WORD_BITS), *word);
        }
        self.mask_tail();
    }

    /// Clears every bit at index `from` or above; a no-op when
    /// `from >= len`.
    pub fn clear_from(&mut self, from: usize) {
        if from >= self.len {
            return;
        }
        let word = from / WORD_BITS;
        self.words[word] &= (1u64 << (from % WORD_BITS)) - 1;
        self.words[word + 1..].fill(0);
    }

    /// Copies `bytes.len()` bytes into the row starting at bit offset
    /// `bit_offset` (which must be byte aligned).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `bit_offset` is not a
    /// multiple of 8.
    pub fn write_bytes(&mut self, bit_offset: usize, bytes: &[u8]) {
        assert_eq!(bit_offset % 8, 0, "bit_offset must be byte aligned");
        assert!(
            bit_offset + bytes.len() * 8 <= self.len,
            "write_bytes: range [{}, {}) exceeds row of {} bits",
            bit_offset,
            bit_offset + bytes.len() * 8,
            self.len
        );
        for (k, &byte) in bytes.iter().enumerate() {
            let bit = bit_offset + k * 8;
            let word = bit / WORD_BITS;
            let shift = bit % WORD_BITS;
            self.words[word] &= !(0xffu64 << shift);
            self.words[word] |= (byte as u64) << shift;
        }
        self.mask_tail();
    }

    /// Reads `out.len()` bytes from the row starting at bit offset
    /// `bit_offset` (which must be byte aligned).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `bit_offset` is not a
    /// multiple of 8.
    pub fn read_bytes(&self, bit_offset: usize, out: &mut [u8]) {
        assert_eq!(bit_offset % 8, 0, "bit_offset must be byte aligned");
        assert!(
            bit_offset + out.len() * 8 <= self.len,
            "read_bytes: range [{}, {}) exceeds row of {} bits",
            bit_offset,
            bit_offset + out.len() * 8,
            self.len
        );
        for (k, byte) in out.iter_mut().enumerate() {
            let bit = bit_offset + k * 8;
            *byte = (self.words[bit / WORD_BITS] >> (bit % WORD_BITS)) as u8;
        }
    }

    /// Returns the whole row as bytes (LSB-first within each byte).
    pub fn to_bytes(&self) -> Vec<u8> {
        assert_eq!(self.len % 8, 0, "to_bytes requires byte-aligned length");
        let mut out = vec![0u8; self.len / 8];
        self.read_bytes(0, &mut out);
        out
    }

    /// Iterates over the indices of the set bits in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            row: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    fn zip_with(&self, other: &BitRow, f: impl Fn(u64, u64) -> u64) -> BitRow {
        assert_eq!(self.len, other.len, "bitwise op: length mismatch");
        BitRow {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            len: self.len,
        }
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitRow[{} bits; ", self.len)?;
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

/// Iterator over set-bit indices, returned by [`BitRow::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    row: &'a BitRow,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.row.words.len() {
                return None;
            }
            self.current = self.row.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zeros_and_ones() {
        let z = BitRow::zeros(100);
        let o = BitRow::ones(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
        assert!(BitRow::zeros(0).is_empty());
    }

    #[test]
    fn ones_masks_tail_bits() {
        let o = BitRow::ones(65);
        assert_eq!(o.words()[1], 1);
        assert_eq!(o.not().count_ones(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut r = BitRow::zeros(130);
        r.set(0, true);
        r.set(64, true);
        r.set(129, true);
        assert!(r.get(0) && r.get(64) && r.get(129));
        assert!(!r.get(1) && !r.get(128));
        assert_eq!(r.count_ones(), 3);
        r.set(64, false);
        assert_eq!(r.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitRow::zeros(8).get(8);
    }

    #[test]
    fn not_respects_length() {
        let r = BitRow::from_fn(10, |i| i < 5);
        let n = r.not();
        assert_eq!(n.count_ones(), 5);
        for i in 0..10 {
            assert_eq!(n.get(i), !r.get(i));
        }
    }

    #[test]
    fn majority_matches_bitwise_definition() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = BitRow::random(200, &mut rng);
        let b = BitRow::random(200, &mut rng);
        let c = BitRow::random(200, &mut rng);
        let m = BitRow::majority(&a, &b, &c);
        for i in 0..200 {
            let expect =
                (a.get(i) as u8 + b.get(i) as u8 + c.get(i) as u8) >= 2;
            assert_eq!(m.get(i), expect, "bit {}", i);
        }
    }

    #[test]
    fn majority_with_control_rows_is_and_or() {
        // Paper Section 3.1: majority(A, B, 0) = A AND B; majority(A, B, 1) = A OR B.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = BitRow::random(128, &mut rng);
        let b = BitRow::random(128, &mut rng);
        assert_eq!(
            BitRow::majority(&a, &b, &BitRow::zeros(128)),
            a.and(&b)
        );
        assert_eq!(BitRow::majority(&a, &b, &BitRow::ones(128)), a.or(&b));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = BitRow::zeros(256);
        let data: Vec<u8> = (0..16).map(|i| i as u8 * 7 + 3).collect();
        r.write_bytes(64, &data);
        let mut out = vec![0u8; 16];
        r.read_bytes(64, &mut out);
        assert_eq!(out, data);
        // Bits outside the written range stay zero.
        assert_eq!(r.count_ones(), data.iter().map(|b| b.count_ones() as usize).sum());
    }

    #[test]
    fn to_bytes_lsb_first() {
        let mut r = BitRow::zeros(16);
        r.set(0, true);
        r.set(9, true);
        assert_eq!(r.to_bytes(), vec![0x01, 0x02]);
    }

    #[test]
    fn iter_ones_ascending() {
        let r = BitRow::from_fn(300, |i| i % 37 == 0);
        let got: Vec<usize> = r.iter_ones().collect();
        let expect: Vec<usize> = (0..300).filter(|i| i % 37 == 0).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn not_assign_matches_not_and_masks_tail() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for len in [1usize, 63, 64, 65, 130, 512] {
            let r = BitRow::random(len, &mut rng);
            let mut m = r.clone();
            m.not_assign();
            assert_eq!(m, r.not(), "len {len}");
            m.not_assign();
            assert_eq!(m, r, "double negation, len {len}");
        }
    }

    #[test]
    fn copy_from_reuses_allocation() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let src = BitRow::random(200, &mut rng);
        let mut dst = BitRow::ones(200);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_length_mismatch_panics() {
        BitRow::zeros(8).copy_from(&BitRow::zeros(16));
    }

    #[test]
    fn majority_into_matches_majority() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let a = BitRow::random(321, &mut rng);
        let b = BitRow::random(321, &mut rng);
        let c = BitRow::random(321, &mut rng);
        let mut out = BitRow::zeros(321);
        out.majority_into(&a, &b, &c);
        assert_eq!(out, BitRow::majority(&a, &b, &c));
    }

    #[test]
    fn majority_signed_matches_scalar_definition() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // 65 bits: exercises the masked tail, where complemented inputs
        // would otherwise leak ones past `len`.
        let a = BitRow::random(65, &mut rng);
        let b = BitRow::random(65, &mut rng);
        let c = BitRow::random(65, &mut rng);
        for mask in 0u8..8 {
            let (ia, ib, ic) = (mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
            let mut out = BitRow::zeros(65);
            out.majority_signed_into(&a, ia, &b, ib, &c, ic);
            for i in 0..65 {
                let votes = (a.get(i) ^ ia) as u8 + (b.get(i) ^ ib) as u8 + (c.get(i) ^ ic) as u8;
                assert_eq!(out.get(i), votes >= 2, "mask {mask:03b} bit {i}");
            }
            assert_eq!(out, {
                let sel = |r: &BitRow, inv: bool| if inv { r.not() } else { r.clone() };
                BitRow::majority(&sel(&a, ia), &sel(&b, ib), &sel(&c, ic))
            });
        }
    }

    #[test]
    fn zip_with_into_matches_allocating_ops() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let a = BitRow::random(190, &mut rng);
        let b = BitRow::random(190, &mut rng);
        let mut x = a.clone();
        x.zip_with_into(&b, |p, q| p ^ q);
        assert_eq!(x, a.xor(&b));
        // NAND produces tail bits; zip_with_into must re-mask them.
        let mut n = a.clone();
        n.zip_with_into(&b, |p, q| !(p & q));
        assert_eq!(n, a.and(&b).not());
    }

    #[test]
    fn xor_and_or_consistency() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = BitRow::random(512, &mut rng);
        let b = BitRow::random(512, &mut rng);
        // a ^ b == (a | b) & !(a & b)
        assert_eq!(a.xor(&b), a.or(&b).and(&a.and(&b).not()));
    }
}
