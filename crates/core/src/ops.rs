//! Bulk bitwise operations and their AAP/AP command programs
//! (paper Section 5.2, Figure 8).
//!
//! Every Ambit operation compiles to a short, fixed sequence of
//! [`AmbitCmd`]s. The `and`/`nand`/`xor` programs are given verbatim in the
//! paper's Figure 8; `or`/`nor`/`xnor` follow from "appropriately modifying
//! the control rows" (the figure's footnote), which this module spells out
//! and the tests verify bit-exactly against a software reference.

use crate::addressing::RowAddress;
use crate::error::{AmbitError, Result};

/// A bulk bitwise operation supported by the bbop ISA (Section 5.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitwiseOp {
    /// `dst = !src1`
    Not,
    /// `dst = src1 & src2`
    And,
    /// `dst = src1 | src2`
    Or,
    /// `dst = !(src1 & src2)`
    Nand,
    /// `dst = !(src1 | src2)`
    Nor,
    /// `dst = src1 ^ src2`
    Xor,
    /// `dst = !(src1 ^ src2)`
    Xnor,
    /// `dst = src1` (RowClone copy expressed in Ambit addressing)
    Copy,
    /// `dst = 0` (initialization from control row C0)
    InitZero,
    /// `dst = 1` (initialization from control row C1)
    InitOne,
}

impl BitwiseOp {
    /// All seven bitwise operations evaluated in the paper's Figure 9.
    pub const FIGURE9_OPS: [BitwiseOp; 7] = [
        BitwiseOp::Not,
        BitwiseOp::And,
        BitwiseOp::Or,
        BitwiseOp::Nand,
        BitwiseOp::Nor,
        BitwiseOp::Xor,
        BitwiseOp::Xnor,
    ];

    /// Number of source operands the operation takes.
    pub fn source_count(&self) -> usize {
        match self {
            BitwiseOp::Not | BitwiseOp::Copy => 1,
            BitwiseOp::InitZero | BitwiseOp::InitOne => 0,
            _ => 2,
        }
    }

    /// Triple-row activations in the operation's Figure 8 program: each
    /// one senses through the majority and may flip a result bit under
    /// transient TRA faults.
    pub(crate) fn tras(&self) -> usize {
        match self {
            BitwiseOp::And | BitwiseOp::Or | BitwiseOp::Nand | BitwiseOp::Nor => 1,
            BitwiseOp::Xor | BitwiseOp::Xnor => 3,
            BitwiseOp::Not | BitwiseOp::Copy | BitwiseOp::InitZero | BitwiseOp::InitOne => 0,
        }
    }

    /// Mnemonic, as used in the bbop ISA.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BitwiseOp::Not => "bbop_not",
            BitwiseOp::And => "bbop_and",
            BitwiseOp::Or => "bbop_or",
            BitwiseOp::Nand => "bbop_nand",
            BitwiseOp::Nor => "bbop_nor",
            BitwiseOp::Xor => "bbop_xor",
            BitwiseOp::Xnor => "bbop_xnor",
            BitwiseOp::Copy => "bbop_copy",
            BitwiseOp::InitZero => "bbop_zero",
            BitwiseOp::InitOne => "bbop_one",
        }
    }

    /// Software reference semantics on one pair of words (the ground truth
    /// the in-DRAM programs are tested against).
    pub fn apply_words(&self, a: u64, b: u64) -> u64 {
        match self {
            BitwiseOp::Not => !a,
            BitwiseOp::And => a & b,
            BitwiseOp::Or => a | b,
            BitwiseOp::Nand => !(a & b),
            BitwiseOp::Nor => !(a | b),
            BitwiseOp::Xor => a ^ b,
            BitwiseOp::Xnor => !(a ^ b),
            BitwiseOp::Copy => a,
            BitwiseOp::InitZero => 0,
            BitwiseOp::InitOne => u64::MAX,
        }
    }
}

impl std::fmt::Display for BitwiseOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One step of an Ambit command program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmbitCmd {
    /// `AAP(addr1, addr2)`: ACTIVATE `addr1`; ACTIVATE `addr2`; PRECHARGE —
    /// copies the result of activating `addr1` into the row(s) of `addr2`.
    Aap(RowAddress, RowAddress),
    /// `AP(addr)`: ACTIVATE `addr`; PRECHARGE.
    Ap(RowAddress),
}

/// Compiles `op` into its AAP/AP program (paper Figure 8).
///
/// `src1`/`src2` and `dst` are D-group (or C-group) addresses within one
/// subarray. Operations with fewer than two sources ignore `src2`.
///
/// # Errors
///
/// Returns [`AmbitError::WrongOperandCount`] when `src2` presence does not
/// match the operation's arity.
pub fn compile(
    op: BitwiseOp,
    src1: RowAddress,
    src2: Option<RowAddress>,
    dst: RowAddress,
) -> Result<Vec<AmbitCmd>> {
    use AmbitCmd::{Aap, Ap};
    use RowAddress::{B, C};

    let need = op.source_count();
    let got = 1 + src2.is_some() as usize;
    // Zero-source ops tolerate the mandatory src1 slot being anything.
    if need == 2 && src2.is_none() || need < 2 && src2.is_some() {
        return Err(AmbitError::WrongOperandCount {
            op: op.mnemonic(),
            expected: need,
            provided: got,
        });
    }

    Ok(match op {
        // Figure 8 footnote text + Section 5.2:
        //   Dk = !Di: copy !Di into DCC0 via its n-wordline, then copy
        //   DCC0 (d-wordline) into Dk.
        BitwiseOp::Not => vec![Aap(src1, B(5)), Aap(B(4), dst)],

        // Figure 8a: Dk = Di & Dj (T2 = 0 makes the majority an AND).
        BitwiseOp::And => vec![
            Aap(src1, B(0)),
            Aap(src2.expect("arity checked"), B(1)),
            Aap(C(0), B(2)),
            Aap(B(12), dst),
        ],

        // or = and with T2 = 1.
        BitwiseOp::Or => vec![
            Aap(src1, B(0)),
            Aap(src2.expect("arity checked"), B(1)),
            Aap(C(1), B(2)),
            Aap(B(12), dst),
        ],

        // Figure 8b: route the TRA result through DCC0's n-wordline.
        BitwiseOp::Nand => vec![
            Aap(src1, B(0)),
            Aap(src2.expect("arity checked"), B(1)),
            Aap(C(0), B(2)),
            Aap(B(12), B(5)),
            Aap(B(4), dst),
        ],

        // nor = nand with T2 = 1.
        BitwiseOp::Nor => vec![
            Aap(src1, B(0)),
            Aap(src2.expect("arity checked"), B(1)),
            Aap(C(1), B(2)),
            Aap(B(12), B(5)),
            Aap(B(4), dst),
        ],

        // Figure 8c: Dk = (Di & !Dj) | (!Di & Dj).
        //   B8 loads DCC0 = !Di and T0 = Di in one AAP; B9 likewise for Dj.
        //   B10 zeroes T2 and T3; the two APs compute the half-terms in
        //   T1 and T0 via TRAs with the DCC d-wordlines; C1→T2 then turns
        //   the final TRA into an OR.
        BitwiseOp::Xor => vec![
            Aap(src1, B(8)),
            Aap(src2.expect("arity checked"), B(9)),
            Aap(C(0), B(10)),
            Ap(B(14)),
            Ap(B(15)),
            Aap(C(1), B(2)),
            Aap(B(12), dst),
        ],

        // xnor mirrors xor with the control rows swapped:
        //   T2 = T3 = 1 makes the APs compute (!Di | Dj) and (Di | !Dj);
        //   C0→T2 turns the final TRA into an AND of those terms.
        BitwiseOp::Xnor => vec![
            Aap(src1, B(8)),
            Aap(src2.expect("arity checked"), B(9)),
            Aap(C(1), B(10)),
            Ap(B(14)),
            Ap(B(15)),
            Aap(C(0), B(2)),
            Aap(B(12), dst),
        ],

        // RowClone expressed as a single AAP.
        BitwiseOp::Copy => vec![Aap(src1, dst)],
        BitwiseOp::InitZero => vec![Aap(C(0), dst)],
        BitwiseOp::InitOne => vec![Aap(C(1), dst)],
    })
}

/// Compiles the native three-input bitwise majority `dst = maj(a, b, c)`
/// — the raw triple-row activation exposed as an operation. This is what
/// TRA physically computes (Section 3.1); the standard AND/OR programs are
/// the special cases with a control row as the third input. Follow-on work
/// (SIMDRAM) builds full arithmetic on exactly this primitive: a ripple-
/// carry adder's carry is `maj(a_i, b_i, carry)`.
pub fn compile_majority(
    a: RowAddress,
    b: RowAddress,
    c: RowAddress,
    dst: RowAddress,
) -> Vec<AmbitCmd> {
    use AmbitCmd::Aap;
    use RowAddress::B;
    vec![Aap(a, B(0)), Aap(b, B(1)), Aap(c, B(2)), Aap(B(12), dst)]
}

/// Counts the `(AAPs, APs)` of a program — the quantities the paper's
/// latency and energy arithmetic is expressed in.
pub fn command_counts(program: &[AmbitCmd]) -> (usize, usize) {
    let aaps = program
        .iter()
        .filter(|c| matches!(c, AmbitCmd::Aap(_, _)))
        .count();
    (aaps, program.len() - aaps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_command_counts() {
        // Paper: and/or = 4 AAP; nand/nor = 5 AAP; xor/xnor = 5 AAP + 2 AP;
        // not = 2 AAP.
        let d = RowAddress::D(0);
        let e = RowAddress::D(1);
        let k = RowAddress::D(2);
        let counts = |op| {
            let srcs = if BitwiseOp::source_count(&op) == 2 { Some(e) } else { None };
            command_counts(&compile(op, d, srcs, k).unwrap())
        };
        assert_eq!(counts(BitwiseOp::Not), (2, 0));
        assert_eq!(counts(BitwiseOp::And), (4, 0));
        assert_eq!(counts(BitwiseOp::Or), (4, 0));
        assert_eq!(counts(BitwiseOp::Nand), (5, 0));
        assert_eq!(counts(BitwiseOp::Nor), (5, 0));
        assert_eq!(counts(BitwiseOp::Xor), (5, 2));
        assert_eq!(counts(BitwiseOp::Xnor), (5, 2));
        assert_eq!(counts(BitwiseOp::Copy), (1, 0));
    }

    #[test]
    fn tras_count_the_triple_activations_of_each_program() {
        let layout = crate::addressing::SubarrayLayout::new(1024);
        let triple = |a| layout.wordline_count(a).unwrap() == 3;
        let (d, e, k) = (RowAddress::D(0), RowAddress::D(1), RowAddress::D(2));
        for op in BitwiseOp::FIGURE9_OPS.into_iter().chain([BitwiseOp::Copy, BitwiseOp::InitZero]) {
            let srcs = if op.source_count() == 2 { Some(e) } else { None };
            let program = compile(op, d, srcs, k).unwrap();
            let tras = program
                .iter()
                .filter(|c| match **c {
                    AmbitCmd::Aap(src, _) => triple(src),
                    AmbitCmd::Ap(addr) => triple(addr),
                })
                .count();
            assert_eq!(op.tras(), tras, "{op}");
        }
    }

    #[test]
    fn and_program_matches_figure8a_verbatim() {
        use AmbitCmd::Aap;
        use RowAddress::{B, C, D};
        let program = compile(BitwiseOp::And, D(3), Some(D(7)), D(9)).unwrap();
        assert_eq!(
            program,
            vec![
                Aap(D(3), B(0)),
                Aap(D(7), B(1)),
                Aap(C(0), B(2)),
                Aap(B(12), D(9)),
            ]
        );
    }

    #[test]
    fn nand_program_matches_figure8b_verbatim() {
        use AmbitCmd::Aap;
        use RowAddress::{B, C, D};
        let program = compile(BitwiseOp::Nand, D(0), Some(D(1)), D(2)).unwrap();
        assert_eq!(
            program,
            vec![
                Aap(D(0), B(0)),
                Aap(D(1), B(1)),
                Aap(C(0), B(2)),
                Aap(B(12), B(5)),
                Aap(B(4), D(2)),
            ]
        );
    }

    #[test]
    fn xor_program_matches_figure8c_verbatim() {
        use AmbitCmd::{Aap, Ap};
        use RowAddress::{B, C, D};
        let program = compile(BitwiseOp::Xor, D(0), Some(D(1)), D(2)).unwrap();
        assert_eq!(
            program,
            vec![
                Aap(D(0), B(8)),
                Aap(D(1), B(9)),
                Aap(C(0), B(10)),
                Ap(B(14)),
                Ap(B(15)),
                Aap(C(1), B(2)),
                Aap(B(12), D(2)),
            ]
        );
    }

    #[test]
    fn majority_program_is_four_aaps() {
        use RowAddress::D;
        let program = compile_majority(D(0), D(1), D(2), D(3));
        assert_eq!(command_counts(&program), (4, 0));
    }

    #[test]
    fn arity_is_enforced() {
        let d = RowAddress::D(0);
        assert!(matches!(
            compile(BitwiseOp::And, d, None, d).unwrap_err(),
            AmbitError::WrongOperandCount { expected: 2, provided: 1, .. }
        ));
        assert!(matches!(
            compile(BitwiseOp::Not, d, Some(d), d).unwrap_err(),
            AmbitError::WrongOperandCount { expected: 1, provided: 2, .. }
        ));
    }

    #[test]
    fn word_reference_semantics() {
        let a = 0b1100u64;
        let b = 0b1010u64;
        assert_eq!(BitwiseOp::And.apply_words(a, b), 0b1000);
        assert_eq!(BitwiseOp::Or.apply_words(a, b), 0b1110);
        assert_eq!(BitwiseOp::Xor.apply_words(a, b), 0b0110);
        assert_eq!(BitwiseOp::Nand.apply_words(a, b) & 0xF, 0b0111);
        assert_eq!(BitwiseOp::Nor.apply_words(a, b) & 0xF, 0b0001);
        assert_eq!(BitwiseOp::Xnor.apply_words(a, b) & 0xF, 0b1001);
        assert_eq!(BitwiseOp::Not.apply_words(a, 0) & 0xF, 0b0011);
        assert_eq!(BitwiseOp::Copy.apply_words(a, b), a);
    }

    #[test]
    fn source_counts() {
        assert_eq!(BitwiseOp::Not.source_count(), 1);
        assert_eq!(BitwiseOp::Xor.source_count(), 2);
        assert_eq!(BitwiseOp::InitOne.source_count(), 0);
    }

    #[test]
    fn mnemonics_are_unique() {
        let all = [
            BitwiseOp::Not,
            BitwiseOp::And,
            BitwiseOp::Or,
            BitwiseOp::Nand,
            BitwiseOp::Nor,
            BitwiseOp::Xor,
            BitwiseOp::Xnor,
            BitwiseOp::Copy,
            BitwiseOp::InitZero,
            BitwiseOp::InitOne,
        ];
        let mut names: Vec<&str> = all.iter().map(|o| o.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
