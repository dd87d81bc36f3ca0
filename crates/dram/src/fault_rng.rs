//! Transient TRA fault draws on a sensed row, computed in interleaved
//! jump-ahead chains of the subarray's xorshift64\* stream.
//!
//! A fault-armed TRA takes one draw per bitline, in bitline order, and
//! flips the bitlines whose draw falls below the threshold. Drawn one after
//! another, every draw waits on the state update before it, so a 1 KB row
//! is 8,192 dependent steps. The state update is linear over GF(2): it is a
//! 64×64 bit matrix `T`, and `T^k` moves a state exactly `k` draws ahead.
//! Each group of [`GROUP_BITS`] = 8,192 bitlines is split into `C` equal
//! segments, one per chain; chain `c` starts at `T^(8192/C)` applied `c`
//! times to the group's start state, and the chains draw interleaved, so
//! the CPU overlaps their dependency chains (and, with SIMD, runs them in
//! vector lanes). Each bitline still gets the draw the sequential stream
//! gives it, and the state after the group is the last chain's end state,
//! so the flips and the RNG end state are exactly those of the sequential
//! loop. Bitlines past the last whole group draw sequentially.
//!
//! One generic group body is compiled three times: with 16 chains under
//! AVX-512F/DQ/VL (`vpmullq` multiplies 8 lanes at a time), with 8 chains
//! under AVX2, and with 4 chains for any CPU. The widest version the CPU
//! runs is picked once per process ([`fault_draw_kernel`] names it); the
//! flips do not depend on the pick.

use std::sync::OnceLock;

use crate::bitrow::BitRow;

/// The xorshift64\* output multiplier (Vigna).
const MULTIPLIER: u64 = 0x2545_f491_4f6c_dd1d;

/// Bitlines per group, whatever the chain count: 8,192, a 1 KB row.
const GROUP_BITS: usize = 8192;

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

/// The columns of `T^steps`: the one-step matrix squared `log2(steps)`
/// times.
const fn jump_matrix(steps: usize) -> [u64; 64] {
    assert!(steps.is_power_of_two());
    let mut m = [0u64; 64];
    let mut i = 0;
    while i < 64 {
        m[i] = step(1 << i);
        i += 1;
    }
    let mut done = 1;
    while done < steps {
        let prev = m;
        let mut i = 0;
        while i < 64 {
            m[i] = apply(&prev, prev[i]);
            i += 1;
        }
        done *= 2;
    }
    m
}

/// The segment layout of a group drawn in `C` chains.
struct Chains<const C: usize>;

impl<const C: usize> Chains<C> {
    /// Bitlines per chain segment: whole words, and a power of two so
    /// [`jump_matrix`] builds its jump by repeated squaring.
    const SEGMENT_BITS: usize = {
        assert!(C > 0 && GROUP_BITS.is_multiple_of(C * 64));
        GROUP_BITS / C
    };

    const SEGMENT_WORDS: usize = Self::SEGMENT_BITS / 64;

    /// Moves an xorshift64 state [`Self::SEGMENT_BITS`] draws ahead.
    const JUMP: [u64; 64] = jump_matrix(Self::SEGMENT_BITS);
}

/// Takes one draw from `state` and returns its flip flag in bit 63, so
/// `acc >> 1 | flag` packs successive flags with constant shifts.
#[inline(always)]
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
/// state `state` in `C` chains, and returns the state after the group.
/// Inlined into each target-feature version, which compiles it for that
/// feature set.
#[inline(always)]
fn draw_group<const C: usize>(state: u64, threshold: u64, words: &mut [u64]) -> u64 {
    let segment_words = Chains::<C>::SEGMENT_WORDS;
    let mut chains = [state; C];
    for c in 1..C {
        chains[c] = apply(&Chains::<C>::JUMP, chains[c - 1]);
    }
    for w in 0..segment_words {
        let mut masks = [0u64; C];
        for _ in 0..64 {
            for (x, acc) in chains.iter_mut().zip(&mut masks) {
                *acc = *acc >> 1 | draw_flag(x, threshold);
            }
        }
        for (c, mask) in masks.into_iter().enumerate() {
            words[c * segment_words + w] ^= mask;
        }
    }
    chains[C - 1]
}

/// 16 chains, two 512-bit vectors of 8 states each.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn draw_group_avx512(state: u64, threshold: u64, words: &mut [u64]) -> u64 {
    draw_group::<16>(state, threshold, words)
}

/// 8 chains, two 256-bit vectors of 4 states each.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn draw_group_avx2(state: u64, threshold: u64, words: &mut [u64]) -> u64 {
    draw_group::<8>(state, threshold, words)
}

/// 4 scalar chains, for any CPU.
fn draw_group_portable(state: u64, threshold: u64, words: &mut [u64]) -> u64 {
    draw_group::<4>(state, threshold, words)
}

/// One compiled version of the group draw and the name it reports.
#[derive(Clone, Copy)]
struct DrawKernel {
    name: &'static str,
    /// An `unsafe fn` because a target-feature version may only run on a
    /// CPU with that feature; [`DrawKernel::available`] builds one only
    /// after detecting it.
    group: unsafe fn(u64, u64, &mut [u64]) -> u64,
}

impl DrawKernel {
    /// The versions this CPU runs, widest first; the portable one is
    /// always there, last.
    fn available() -> Vec<DrawKernel> {
        let mut kernels = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512vl")
            {
                kernels.push(DrawKernel { name: "avx512", group: draw_group_avx512 });
            }
            if is_x86_feature_detected!("avx2") {
                kernels.push(DrawKernel { name: "avx2", group: draw_group_avx2 });
            }
        }
        kernels.push(DrawKernel { name: "portable", group: draw_group_portable });
        kernels
    }

    /// The widest version this CPU runs, detected once per process.
    fn detected() -> DrawKernel {
        static KERNEL: OnceLock<DrawKernel> = OnceLock::new();
        *KERNEL.get_or_init(|| DrawKernel::available()[0])
    }

    #[allow(unsafe_code)]
    fn draw_group(self, state: u64, threshold: u64, words: &mut [u64]) -> u64 {
        // SAFETY: `group` is a target-feature function only in a kernel
        // built by `available`, which builds one only after
        // `is_x86_feature_detected!` found that feature on this CPU; the
        // portable version has no requirement.
        unsafe { (self.group)(state, threshold, words) }
    }
}

/// The fault-draw version this process runs: `"avx512"` (16 chains),
/// `"avx2"` (8 chains) or `"portable"` (4 chains). Every version draws
/// the same flips; only the speed differs.
pub fn fault_draw_kernel() -> &'static str {
    DrawKernel::detected().name
}

/// Flips each bitline of `row` whose draw from `state` falls below
/// `threshold`: one draw per bitline, in bitline order, leaving `state`
/// where the sequential stream would.
pub(crate) fn inject_flips(state: &mut u64, threshold: u64, row: &mut BitRow) {
    inject_flips_with(DrawKernel::detected(), state, threshold, row);
}

fn inject_flips_with(kernel: DrawKernel, state: &mut u64, threshold: u64, row: &mut BitRow) {
    let len = row.len();
    let group_words = len / GROUP_BITS * GROUP_WORDS;
    let (groups, tail) = row.words_mut().split_at_mut(group_words);
    for group in groups.chunks_exact_mut(GROUP_WORDS) {
        *state = kernel.draw_group(*state, threshold, group);
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

    /// The row widths of `tests/prop_hotpath_equivalence.rs`: no group,
    /// one word, a masked partial word, one bitline short of a group, one
    /// group, a group plus one bitline, a group plus a masked two-word
    /// tail, and eight groups.
    const WIDTHS: [usize; 8] = [1, 64, 130, 8191, 8192, 8193, 8192 + 130, 65536];

    const STATES: [u64; 4] = [1, 0x0123_4567_89ab_cdef, 0x8000_0000_0000_0000, u64::MAX];

    /// From one flip in 2^64 up to one in four; `u64::MAX / 3448` is about
    /// the 0.029 % rate of the fault-campaign tests.
    const THRESHOLDS: [u64; 5] = [1, 1 << 20, u64::MAX / 3448, 1 << 58, u64::MAX / 4];

    /// The one-draw-at-a-time loop: the flip mask of a zeroed `len`-bit
    /// row and the end state.
    fn sequential(mut state: u64, threshold: u64, len: usize) -> (BitRow, u64) {
        let mut row = BitRow::zeros(len);
        for i in 0..len {
            state = step(state);
            if state.wrapping_mul(MULTIPLIER) < threshold {
                row.set(i, true);
            }
        }
        (row, state)
    }

    /// Checks `inject_flips_with` against [`sequential`] at every width,
    /// start state and threshold, with `kernel` drawing each whole group.
    fn check_against_sequential(kernel: DrawKernel) {
        let name = kernel.name;
        for len in WIDTHS {
            for start in STATES {
                for threshold in THRESHOLDS {
                    let (want, want_state) = sequential(start, threshold, len);
                    let mut row = BitRow::zeros(len);
                    let mut state = start;
                    inject_flips_with(kernel, &mut state, threshold, &mut row);
                    let at = format!("{name}: {len} bits from {start:#x} at {threshold:#x}");
                    assert!(row == want, "flips differ, {at}");
                    assert_eq!(state, want_state, "end state differs, {at}");
                }
            }
        }
    }

    #[test]
    fn every_version_this_cpu_runs_draws_the_sequential_stream() {
        let kernels = DrawKernel::available();
        assert_eq!(kernels.last().map(|k| k.name), Some("portable"));
        for kernel in kernels {
            check_against_sequential(kernel);
        }
    }

    #[test]
    fn every_chain_count_draws_the_sequential_stream_without_target_features() {
        check_against_sequential(DrawKernel { name: "4 chains", group: draw_group::<4> });
        check_against_sequential(DrawKernel { name: "8 chains", group: draw_group::<8> });
        check_against_sequential(DrawKernel { name: "16 chains", group: draw_group::<16> });
    }

    #[test]
    fn the_widest_available_version_is_the_detected_one() {
        let name = fault_draw_kernel();
        assert!(["avx512", "avx2", "portable"].contains(&name), "{name}");
        assert_eq!(name, DrawKernel::available()[0].name);
    }

    fn check_jump<const C: usize>() {
        let mut seed = 0x0123_4567_89ab_cdef_u64;
        for _ in 0..8 {
            seed = step(seed);
            let mut x = seed;
            for _ in 0..Chains::<C>::SEGMENT_BITS {
                x = step(x);
            }
            assert_eq!(apply(&Chains::<C>::JUMP, seed), x, "{C} chains, from {seed:#x}");
        }
        assert_eq!(apply(&Chains::<C>::JUMP, 0), 0, "zero stays absorbing");
    }

    #[test]
    fn each_jump_equals_a_segment_of_single_steps() {
        check_jump::<4>();
        check_jump::<8>();
        check_jump::<16>();
    }
}
