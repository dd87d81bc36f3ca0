//! A small multiplicative hasher for maps keyed by library-issued ids.
//!
//! The batch planner and the plan cache hash handle ids and op shapes the
//! library itself hands out, so they need no defence against chosen keys,
//! and SipHash's per-lookup cost showed up on every op of a batch. This is
//! the rotate-xor-multiply step of the Fx hash, one word at a time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (from the Fx hash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiplicative [`Hasher`] over 64-bit words.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` hashed with [`IdHasher`].
pub(crate) type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn distinct_small_ids_hash_apart() {
        let hashes: std::collections::HashSet<u64> = (0..10_000u64).map(hash_of).collect();
        assert_eq!(hashes.len(), 10_000);
        // The table takes bucket indices from the low bits, and an odd
        // multiplier maps ids that differ there to distinct low bits.
        let buckets: std::collections::HashSet<u64> =
            (0..1024u64).map(|id| hash_of(id) & 1023).collect();
        assert_eq!(buckets.len(), 1024);
    }

    #[test]
    fn operand_order_changes_the_hash() {
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
        assert_ne!(hash_of([1u8, 2, 3]), hash_of([3u8, 2, 1]));
        assert_eq!(hash_of((7u64, 9u64)), hash_of((7u64, 9u64)));
    }
}
