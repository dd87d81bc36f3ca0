//! Transient TRA fault draws on a sensed row, computed in four jump-ahead
//! chains of the subarray's xorshift64\* stream.
//!
//! A fault-armed TRA takes one draw per bitline, in bitline order, and
//! flips the bitlines whose draw falls below the threshold. Drawn one after
//! another, every draw waits on the state update before it, so a 1 KB row
//! is 8,192 dependent steps. The state update is linear over GF(2): it is a
//! 64×64 bit matrix `T`, and [`JUMP`] = `T^2048` moves a state exactly
//! [`SEGMENT_BITS`] draws ahead. Each group of [`CHAINS`] × 2,048 bitlines
//! is split into one segment per chain; chain `c` starts at `JUMP^c`
//! applied to the group's start state, and the chains draw interleaved, so
//! the CPU overlaps their dependency chains. Each bitline still gets the
//! draw the sequential stream gives it, and the state after the group is
//! the last chain's end state, so the flips and the RNG end state are
//! exactly those of the sequential loop. Bitlines past the last whole group
//! draw sequentially.

use crate::bitrow::BitRow;

/// The xorshift64\* output multiplier (Vigna).
const MULTIPLIER: u64 = 0x2545_f491_4f6c_dd1d;

/// Chains drawing in parallel per group.
const CHAINS: usize = 4;

/// Bitlines per chain segment: the jump distance of [`JUMP`]. A power of
/// two, so the jump is that many squarings of the one-step matrix.
const SEGMENT_BITS: usize = 2048;

const SEGMENT_WORDS: usize = SEGMENT_BITS / 64;

/// Bitlines per group: one segment per chain.
const GROUP_BITS: usize = CHAINS * SEGMENT_BITS;

const GROUP_WORDS: usize = GROUP_BITS / 64;

/// One xorshift64 state update (the linear part of xorshift64\*).
const fn step(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// `m · x` over GF(2), with `m` given by its 64 columns.
const fn apply(m: &[u64; 64], x: u64) -> u64 {
    let mut acc = 0;
    let mut i = 0;
    while i < 64 {
        acc ^= m[i] & (x >> i & 1).wrapping_neg();
        i += 1;
    }
    acc
}

/// The columns of `T^SEGMENT_BITS`: the one-step matrix squared
/// `log2(SEGMENT_BITS)` times.
const fn jump_matrix() -> [u64; 64] {
    assert!(SEGMENT_BITS.is_power_of_two());
    let mut m = [0u64; 64];
    let mut i = 0;
    while i < 64 {
        m[i] = step(1 << i);
        i += 1;
    }
    let mut steps = 1;
    while steps < SEGMENT_BITS {
        let prev = m;
        let mut i = 0;
        while i < 64 {
            m[i] = apply(&prev, prev[i]);
            i += 1;
        }
        steps *= 2;
    }
    m
}

/// Moves an xorshift64 state [`SEGMENT_BITS`] draws ahead.
const JUMP: [u64; 64] = jump_matrix();

fn jump(x: u64) -> u64 {
    apply(&JUMP, x)
}

/// Takes one draw from `state` and returns its flip flag in bit 63, so
/// `acc >> 1 | flag` packs successive flags with constant shifts.
fn draw_flag(state: &mut u64, threshold: u64) -> u64 {
    *state = step(*state);
    u64::from(state.wrapping_mul(MULTIPLIER) < threshold) << 63
}

/// Draws `lanes` flags from `state` one after another and packs them
/// into a flip mask, the first draw at bit 0.
fn draw_word(state: &mut u64, threshold: u64, lanes: usize) -> u64 {
    let mut acc = 0u64;
    for _ in 0..lanes {
        acc = acc >> 1 | draw_flag(state, threshold);
    }
    acc >> (64 - lanes)
}

/// XORs the flip masks of one whole group into `words` from the start
/// state `state`, and returns the state after the group.
fn draw_group(state: u64, threshold: u64, words: &mut [u64]) -> u64 {
    let mut chains = [state; CHAINS];
    for c in 1..CHAINS {
        chains[c] = jump(chains[c - 1]);
    }
    for w in 0..SEGMENT_WORDS {
        let mut masks = [0u64; CHAINS];
        for _ in 0..64 {
            for (x, acc) in chains.iter_mut().zip(&mut masks) {
                *acc = *acc >> 1 | draw_flag(x, threshold);
            }
        }
        for (c, mask) in masks.into_iter().enumerate() {
            words[c * SEGMENT_WORDS + w] ^= mask;
        }
    }
    chains[CHAINS - 1]
}

/// Flips each bitline of `row` whose draw from `state` falls below
/// `threshold`: one draw per bitline, in bitline order, leaving `state`
/// where the sequential stream would.
pub(crate) fn inject_flips(state: &mut u64, threshold: u64, row: &mut BitRow) {
    let len = row.len();
    let group_words = len / GROUP_BITS * GROUP_WORDS;
    let (groups, tail) = row.words_mut().split_at_mut(group_words);
    for group in groups.chunks_exact_mut(GROUP_WORDS) {
        *state = draw_group(*state, threshold, group);
    }
    let mut left = len - group_words * 64;
    for word in tail {
        let lanes = left.min(64);
        *word ^= draw_word(state, threshold, lanes);
        left -= lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_equals_segment_of_single_steps() {
        let mut seed = 0x0123_4567_89ab_cdef_u64;
        for _ in 0..8 {
            seed = step(seed);
            let mut x = seed;
            for _ in 0..SEGMENT_BITS {
                x = step(x);
            }
            assert_eq!(jump(seed), x, "from {seed:#x}");
        }
        assert_eq!(jump(0), 0, "zero stays absorbing");
    }
}
