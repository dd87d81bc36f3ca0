//! SIMDRAM-style boolean microprogram compiler.
//!
//! Ambit's bbop ISA covers the paper's fixed operation set; the follow-on
//! SIMDRAM line (arXiv:2012.11890, arXiv:2105.12839) shows the general
//! form: *any* n-input boolean function can be built from what the DRAM
//! computes natively. A triple-row activation is a three-input majority,
//! and the paper's Figure 8 programs wrap it into the whole bbop set:
//!
//! ```text
//! op           program                          AAPs + APs
//! NOT          dual-contact cell                2
//! AND / OR     MAJ(a, b, C0 / C1)               4
//! NAND / NOR   AND / OR through the DCC row     5
//! XOR / XNOR   Figure 8c                        5 + 2
//! MAJ3         TRA of three data rows           4
//! ```
//!
//! This module is the compiler that targets that set:
//!
//! * **Front end** — [`BoolFunc`], a truth table over ≤ 6 inputs;
//! * **Selection** — cost-driven over the whole set, each op costing the
//!   AAPs + APs of its Figure 8 program (ties go to fewer steps).
//!   Functions of up to three inputs come from an exact library: the
//!   cheapest formula for each of the 256 three-input tables, found once
//!   per process by a Dijkstra-style search over the tables. Wider
//!   functions split by Shannon decomposition on their cheapest variable
//!   `x`, memoized per table, down to library cofactors `f0`/`f1`, which
//!   combine by the cheapest applicable rule: a constant cofactor gives
//!   And/Or with `x` or `!x`; `f0 ≤ f1` gives `Maj3(x, f1, f0)` and
//!   `f1 ≤ f0` gives `Maj3(!x, f0, f1)`; `f0 = !f1` gives `Xor(x, f0)`;
//!   anything else a mux. The full adder's carry is one `Maj3`, its sum
//!   two `Xor`s;
//! * **Optimizer** — common-subexpression elimination across the whole
//!   batch of output functions (value numbering with canonicalized operand
//!   order), dead-step elimination (backward liveness from the outputs),
//!   and scratch-row register allocation (last-use reuse, so the
//!   designated-row footprint is the live-range high-water mark, not the
//!   step count);
//! * **Back end** — emission as ordinary [`BatchBuilder`] operations, so
//!   synthesized programs flow through the plan cache, the batch engine's
//!   hazard analysis, and the per-bank fan-out unchanged.
//!
//! Output semantics match the driver's: every step stages its sources
//! before writing, and the compiled program writes its destination handles
//! only after its last input read — so a destination may alias an input
//! and still observe pre-operation values, exactly like the eager driver
//! ops and the conformance golden model. An output computed at or after
//! the last step that reads an input, and read by no later step, is
//! written by that step straight into its handle (a lone AND is the
//! 4-AAP Figure 8 program, with no copy); every other output gets a
//! trailing Copy/Init. An output that passes an input through reads that
//! input in its trailing copy, so such a batch writes no output directly:
//! the copies of the first passed-through input lead the trailing writes,
//! and any other passed-through input is first staged in a scratch row.
//! Output handles must be distinct.
//!
//! ```
//! use ambit_core::synth::{synthesize, BoolFunc, SynthOptions};
//! use ambit_core::{AmbitMemory, IssuePolicy};
//! use ambit_dram::{AapMode, DramGeometry, TimingParams};
//!
//! // sum and carry of a full adder: Xor, Xor, Maj3 and one output copy.
//! let sum = BoolFunc::from_fn(3, |i| (i.count_ones() & 1) == 1)?;
//! let carry = BoolFunc::from_fn(3, |i| i.count_ones() >= 2)?;
//! let plan = synthesize(&[sum, carry], &SynthOptions::default())?;
//! assert_eq!(plan.aap_cost(), (15, 4));
//!
//! let mut mem = AmbitMemory::new(
//!     DramGeometry::tiny(),
//!     TimingParams::ddr3_1600(),
//!     AapMode::Overlapped,
//! );
//! let bits = mem.row_bits();
//! let a = mem.alloc(bits)?;
//! let b = mem.alloc(bits)?;
//! let c = mem.alloc(bits)?;
//! let s = mem.alloc(bits)?;
//! let cout = mem.alloc(bits)?;
//! plan.run(&mut mem, IssuePolicy::BankParallel, &[a, b, c], &[s, cout])?;
//! # Ok::<(), ambit_core::AmbitError>(())
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::OnceLock;

use crate::addressing::RowAddress;
use crate::batch::{BatchBuilder, BatchReceipt, IssuePolicy};
use crate::driver::{AmbitMemory, BitVectorHandle};
use crate::error::{AmbitError, Result};
use crate::ops::{self, command_counts, AmbitCmd, BitwiseOp};

/// Maximum number of function inputs: a 6-input truth table fills a `u64`
/// exactly.
pub const MAX_INPUTS: usize = 6;

fn synth_err(detail: impl Into<String>) -> AmbitError {
    AmbitError::Synthesis { detail: detail.into() }
}

/// An n-input boolean function as a truth table.
///
/// Input `j` of an assignment contributes bit `j` of the minterm index;
/// the function's value on that assignment is bit `index` of `table`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoolFunc {
    inputs: usize,
    table: u64,
}

impl BoolFunc {
    /// Builds a function from its truth table.
    ///
    /// # Errors
    ///
    /// Rejects input counts outside `1..=6` and tables with bits beyond
    /// `2^(2^inputs)`.
    pub fn from_table(inputs: usize, table: u64) -> Result<Self> {
        if inputs == 0 || inputs > MAX_INPUTS {
            return Err(synth_err(format!(
                "function arity {inputs} outside 1..={MAX_INPUTS}"
            )));
        }
        let minterms = 1u64 << inputs;
        if minterms < 64 && table >> minterms != 0 {
            return Err(synth_err(format!(
                "table {table:#x} has bits beyond its {minterms} minterms"
            )));
        }
        Ok(BoolFunc { inputs, table })
    }

    /// Builds a function by evaluating `f` on every minterm index.
    ///
    /// # Errors
    ///
    /// Rejects input counts outside `1..=6`.
    pub fn from_fn(inputs: usize, f: impl Fn(u64) -> bool) -> Result<Self> {
        if inputs == 0 || inputs > MAX_INPUTS {
            return Err(synth_err(format!(
                "function arity {inputs} outside 1..={MAX_INPUTS}"
            )));
        }
        let mut table = 0u64;
        for idx in 0..1u64 << inputs {
            if f(idx) {
                table |= 1 << idx;
            }
        }
        Ok(BoolFunc { inputs, table })
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// The raw truth table.
    pub fn table(&self) -> u64 {
        self.table
    }

    /// Evaluates the function on a minterm index (input `j` = bit `j`).
    pub fn eval(&self, assignment: u64) -> bool {
        debug_assert!(assignment < 1 << self.inputs);
        self.table >> (assignment & ((1 << self.inputs) - 1)) & 1 == 1
    }
}

/// Compiler options. Common-subexpression elimination and dead-step
/// elimination always run.
#[derive(Debug, Clone, Default)]
pub struct SynthOptions {
    /// Lower three-live-input majorities into And/Or so the compiled
    /// program uses only two-operand bitwise steps — the shape the
    /// [`ResilientExecutor`](crate::ResilientExecutor) front end accepts.
    pub bitwise_only: bool,
}

/// A virtual value during lowering: a constant, an input, or the result of
/// an earlier step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Val {
    Zero,
    One,
    Input(usize),
    Step(usize),
}

impl Val {
    fn is_const(self) -> bool {
        matches!(self, Val::Zero | Val::One)
    }

    fn constant(value: bool) -> Val {
        if value {
            Val::One
        } else {
            Val::Zero
        }
    }
}

/// The two-operand ops the selector draws from.
const BINARY_OPS: [BitwiseOp; 6] = [
    BitwiseOp::And,
    BitwiseOp::Or,
    BitwiseOp::Nand,
    BitwiseOp::Nor,
    BitwiseOp::Xor,
    BitwiseOp::Xnor,
];

/// A lowered step over virtual values: one op of the bbop set. Operands
/// are never constants; lowering folds them away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LowStep {
    Not(Val),
    /// One of [`BINARY_OPS`], operands in canonical order.
    Bin(BitwiseOp, Val, Val),
    /// A native majority of three live values, operands in canonical order.
    Maj(Val, Val, Val),
}

impl LowStep {
    fn operands(self) -> [Option<Val>; 3] {
        match self {
            LowStep::Not(v) => [Some(v), None, None],
            LowStep::Bin(_, a, b) => [Some(a), Some(b), None],
            LowStep::Maj(a, b, c) => [Some(a), Some(b), Some(c)],
        }
    }

    fn map(self, f: impl Fn(Val) -> Val) -> LowStep {
        match self {
            LowStep::Not(v) => LowStep::Not(f(v)),
            LowStep::Bin(op, a, b) => LowStep::Bin(op, f(a), f(b)),
            LowStep::Maj(a, b, c) => LowStep::Maj(f(a), f(b), f(c)),
        }
    }
}

/// The lowering context: emits steps with local simplification,
/// optionally memoizing (the CSE replay runs with the memo on).
struct Lowerer {
    steps: Vec<LowStep>,
    memo: Option<HashMap<LowStep, Val>>,
    bitwise_only: bool,
}

impl Lowerer {
    fn new(memoize: bool, bitwise_only: bool) -> Self {
        Lowerer {
            steps: Vec::new(),
            memo: memoize.then(HashMap::new),
            bitwise_only,
        }
    }

    fn push(&mut self, step: LowStep) -> Val {
        if let Some(memo) = &self.memo {
            if let Some(&v) = memo.get(&step) {
                return v;
            }
        }
        self.steps.push(step);
        let v = Val::Step(self.steps.len() - 1);
        if let Some(memo) = &mut self.memo {
            memo.insert(step, v);
        }
        v
    }

    /// Whether `a` is the Not step of `b`, or `b` that of `a`.
    fn negates(&self, a: Val, b: Val) -> bool {
        let not_of = |x: Val, y: Val| match x {
            Val::Step(s) => self.steps[s] == LowStep::Not(y),
            _ => false,
        };
        not_of(a, b) || not_of(b, a)
    }

    fn not(&mut self, v: Val) -> Val {
        match v {
            Val::Zero => Val::One,
            Val::One => Val::Zero,
            // Double negation: the operand of a Not step is the answer.
            Val::Step(s) => {
                if let LowStep::Not(inner) = self.steps[s] {
                    inner
                } else {
                    self.push(LowStep::Not(v))
                }
            }
            Val::Input(_) => self.push(LowStep::Not(v)),
        }
    }

    fn bin(&mut self, op: BitwiseOp, a: Val, b: Val) -> Val {
        let f = |x: bool, y: bool| op.apply_words(u64::from(x), u64::from(y)) & 1 == 1;
        // A constant operand, a repeated one, or a complementary pair
        // leaves a function of one value `v`: its outputs at v = 0 and 1.
        // (Every op here is commutative, so the pair's order is moot.)
        let unary = match (a, b) {
            _ if a.is_const() && b.is_const() => {
                return Val::constant(f(a == Val::One, b == Val::One));
            }
            (c, v) | (v, c) if c.is_const() => {
                let c = c == Val::One;
                Some((v, f(c, false), f(c, true)))
            }
            _ if a == b => Some((a, f(false, false), f(true, true))),
            _ if self.negates(a, b) => Some((b, f(true, false), f(false, true))),
            _ => None,
        };
        if let Some((v, at0, at1)) = unary {
            return match (at0, at1) {
                (false, true) => v,
                (true, false) => self.not(v),
                (same, _) => Val::constant(same),
            };
        }
        // Every binary op is commutative: canonical order maximizes CSE.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(LowStep::Bin(op, a, b))
    }

    fn maj(&mut self, a: Val, b: Val, c: Val) -> Val {
        // A repeated operand owns the majority regardless of the third; a
        // complementary pair cancels and leaves it to the third.
        if a == b || a == c {
            return a;
        }
        if b == c || self.negates(a, c) {
            return b;
        }
        if self.negates(a, b) {
            return c;
        }
        if self.negates(b, c) {
            return a;
        }
        // A constant operand makes the majority an And (0) or an Or (1);
        // two (necessarily distinct) constants cancel: maj(x, 0, 1) = x.
        let mut operands = [a, b, c];
        operands.sort_unstable();
        match operands {
            [Val::Zero, Val::One, x] => return x,
            [k, x, y] if k.is_const() => {
                let op = if k == Val::Zero { BitwiseOp::And } else { BitwiseOp::Or };
                return self.bin(op, x, y);
            }
            _ => {}
        }
        if self.bitwise_only {
            // maj(a, b, c) = (a & b) | (c & (a | b)): four two-operand
            // steps, so the program stays within the resilient front end.
            let ab = self.bin(BitwiseOp::And, a, b);
            let a_or_b = self.bin(BitwiseOp::Or, a, b);
            let c_ab = self.bin(BitwiseOp::And, c, a_or_b);
            return self.bin(BitwiseOp::Or, ab, c_ab);
        }
        self.push(LowStep::Maj(operands[0], operands[1], operands[2]))
    }
}

/// A selection cost: AAPs + APs of the Figure 8 programs, then steps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Cost {
    units: u32,
    steps: u32,
}

impl std::ops::Add for Cost {
    type Output = Cost;

    fn add(self, rhs: Cost) -> Cost {
        Cost { units: self.units + rhs.units, steps: self.steps + rhs.steps }
    }
}

/// The Figure 8 program of a bitwise op, over placeholder rows.
fn bitwise_program(op: BitwiseOp) -> Vec<AmbitCmd> {
    let d = RowAddress::D(0);
    let src2 = (op.source_count() == 2).then_some(d);
    ops::compile(op, d, src2, d).expect("the operand count follows the op")
}

/// The native majority program, over placeholder rows.
fn majority_program() -> Vec<AmbitCmd> {
    let d = RowAddress::D(0);
    ops::compile_majority(d, d, d, d)
}

/// The command program one compiled step runs.
fn step_program(step: &SynthStep) -> Vec<AmbitCmd> {
    match step {
        SynthStep::Bitwise { op, .. } => bitwise_program(*op),
        SynthStep::Maj3 { .. } => majority_program(),
    }
}

/// The selection cost of one step running `program`.
fn program_cost(program: &[AmbitCmd]) -> Cost {
    let (aaps, aps) = command_counts(program);
    Cost { units: (aaps + aps) as u32, steps: 1 }
}

/// Per-op selection costs, read off the command programs.
#[derive(Debug, Clone, Copy)]
struct OpCosts {
    not: Cost,
    /// Indexed like [`BINARY_OPS`].
    bin: [Cost; 6],
    maj: Cost,
}

impl OpCosts {
    fn new() -> OpCosts {
        OpCosts {
            not: program_cost(&bitwise_program(BitwiseOp::Not)),
            bin: BINARY_OPS.map(|op| program_cost(&bitwise_program(op))),
            maj: program_cost(&majority_program()),
        }
    }

    fn bin(&self, op: BitwiseOp) -> Cost {
        let i = BINARY_OPS.iter().position(|&o| o == op).expect("a two-operand op");
        self.bin[i]
    }
}

/// Truth tables of the six inputs over the 64 minterms of a function.
/// Narrower functions are widened to six inputs by repetition, so every
/// table in the selector is a `u64` and its support is explicit.
const VAR: [u64; MAX_INPUTS] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Repeats an `inputs`-input table over the 64 minterms of six inputs.
fn widen(table: u64, inputs: usize) -> u64 {
    (inputs..MAX_INPUTS).fold(table, |t, k| t | t << (1 << k))
}

/// The cofactors `(f|x_j=0, f|x_j=1)` of a widened table, themselves
/// widened (independent of `x_j`).
fn cofactors(t: u64, j: usize) -> (u64, u64) {
    let shift = 1 << j;
    let lo = t & !VAR[j];
    let hi = t & VAR[j];
    (lo | lo << shift, hi | hi >> shift)
}

/// The inputs a widened table depends on, as a bit mask.
fn support(t: u64) -> u32 {
    (0..MAX_INPUTS)
        .filter(|&j| {
            let (f0, f1) = cofactors(t, j);
            f0 != f1
        })
        .fold(0, |mask, j| mask | 1 << j)
}

fn majority(a: u64, b: u64, c: u64) -> u64 {
    a & b | a & c | b & c
}

/// How the library builds one three-input table; operands are tables.
#[derive(Debug, Clone, Copy)]
enum LibForm {
    Const(bool),
    Var(usize),
    Not(u8),
    Bin(BitwiseOp, u8, u8),
    Maj(u8, u8, u8),
}

/// The cheapest formula for every three-input truth table.
struct Library {
    ops: OpCosts,
    cost: [Cost; 256],
    form: [LibForm; 256],
}

impl Library {
    /// The library for the given selection mode, built on first use.
    fn get(bitwise_only: bool) -> &'static Library {
        static FULL: OnceLock<Library> = OnceLock::new();
        static FLAT: OnceLock<Library> = OnceLock::new();
        if bitwise_only {
            FLAT.get_or_init(|| Library::build(false))
        } else {
            FULL.get_or_init(|| Library::build(true))
        }
    }

    /// Knuth's generalization of Dijkstra's algorithm to formula cost:
    /// tables leave the queue cheapest first, and each finalized table is
    /// combined with every table finalized before it (itself included).
    /// Constants are never operands, and a formula may only use inputs its
    /// table depends on: substituting a constant for any other input folds
    /// to a formula no costlier, so nothing optimal is lost, and a table
    /// of a narrower function never references an input it lacks.
    fn build(with_maj: bool) -> Library {
        let ops = OpCosts::new();
        let cheapest_bin = *ops.bin.iter().min().expect("six binary ops");
        let supports: [u32; 256] = std::array::from_fn(|t| support(widen(t as u64, 3)));
        let mut search = Search { best: [None; 256], heap: BinaryHeap::new(), support: supports };
        search.relax(0x00, Cost::default(), LibForm::Const(false), 0);
        search.relax(0xFF, Cost::default(), LibForm::Const(true), 0);
        for (j, &var) in VAR.iter().take(3).enumerate() {
            search.relax(var as u8, Cost::default(), LibForm::Var(j), 1 << j);
        }
        let mut done = [false; 256];
        let mut operands: Vec<(u8, Cost)> = Vec::with_capacity(256);
        while let Some(Reverse((cost, t))) = search.heap.pop() {
            if std::mem::replace(&mut done[usize::from(t)], true) || t == 0x00 || t == 0xFF {
                continue;
            }
            operands.push((t, cost));
            // Operands arrive cheapest first, so once a combination costs
            // at least the dearest table's best, later ones cannot help.
            let ceiling = search.ceiling();
            let sup = |t: u8| supports[usize::from(t)];
            let (wt, st) = (u64::from(t), sup(t));
            search.relax(!t, cost + ops.not, LibForm::Not(t), st);
            for &(u, cu) in &operands {
                if cost + cu + cheapest_bin >= ceiling {
                    break;
                }
                let (wu, su) = (u64::from(u), sup(u));
                for (op, &c_op) in BINARY_OPS.iter().zip(&ops.bin) {
                    let r = op.apply_words(wt, wu) as u8;
                    search.relax(r, cost + cu + c_op, LibForm::Bin(*op, t, u), st | su);
                }
            }
            if !with_maj {
                continue;
            }
            for (i, &(u, cu)) in operands.iter().enumerate() {
                if cost + cu + cu + ops.maj >= ceiling {
                    break;
                }
                for &(v, cv) in &operands[i..] {
                    let c = cost + cu + cv + ops.maj;
                    if c >= ceiling {
                        break;
                    }
                    let r = majority(wt, u64::from(u), u64::from(v)) as u8;
                    search.relax(r, c, LibForm::Maj(t, u, v), st | sup(u) | sup(v));
                }
            }
        }
        let entry = |t: usize| search.best[t].expect("And/Or/Not reach every table");
        Library {
            ops,
            cost: std::array::from_fn(|t| entry(t).0),
            form: std::array::from_fn(|t| entry(t).1),
        }
    }

    fn emit_operands<const N: usize>(
        &self,
        lw: &mut Lowerer,
        operands: [u8; N],
        inputs: &[usize; 3],
    ) -> [Val; N] {
        let mut vals = [Val::Zero; N];
        for i in emission_order(operands.map(|t| self.cost[usize::from(t)])) {
            vals[i] = self.emit(lw, operands[i], inputs);
        }
        vals
    }

    /// Emits table `t` with library input `j` bound to function input
    /// `inputs[j]`.
    fn emit(&self, lw: &mut Lowerer, t: u8, inputs: &[usize; 3]) -> Val {
        match self.form[usize::from(t)] {
            LibForm::Const(c) => Val::constant(c),
            LibForm::Var(j) => Val::Input(inputs[j]),
            LibForm::Not(u) => {
                let v = self.emit(lw, u, inputs);
                lw.not(v)
            }
            LibForm::Bin(op, a, b) => {
                let [a, b] = self.emit_operands(lw, [a, b], inputs);
                lw.bin(op, a, b)
            }
            LibForm::Maj(a, b, c) => {
                let [a, b, c] = self.emit_operands(lw, [a, b, c], inputs);
                lw.maj(a, b, c)
            }
        }
    }
}

/// The order to emit operands of the given costs in: costliest first, so
/// the larger subtree's intermediates die before the smaller one's are
/// made and fewer scratch rows are live at once.
fn emission_order<const N: usize>(costs: [Cost; N]) -> [usize; N] {
    let mut order: [usize; N] = std::array::from_fn(|i| i);
    order.sort_by_key(|&i| Reverse(costs[i]));
    order
}

/// The library search's priority queue and best-known formulas.
struct Search {
    best: [Option<(Cost, LibForm)>; 256],
    heap: BinaryHeap<Reverse<(Cost, u8)>>,
    support: [u32; 256],
}

impl Search {
    /// The dearest best-known cost, once every table has one.
    fn ceiling(&self) -> Cost {
        self.best.iter().try_fold(Cost::default(), |max, b| b.map(|(c, _)| max.max(c))).unwrap_or(
            Cost { units: u32::MAX, steps: u32::MAX },
        )
    }

    /// Offers `form` at `cost` for table `t`, whose operands depend on
    /// the inputs in `operand_support`.
    fn relax(&mut self, t: u8, cost: Cost, form: LibForm, operand_support: u32) {
        let slot = &mut self.best[usize::from(t)];
        if self.support[usize::from(t)] == operand_support && slot.is_none_or(|(c, _)| cost < c) {
            *slot = Some((cost, form));
            self.heap.push(Reverse((cost, t)));
        }
    }
}

/// A table of at most three inputs as a library table, with the function
/// inputs the library's inputs stand for.
fn narrow(t: u64, support: u32) -> (u8, [usize; 3]) {
    let mut inputs = [0; 3];
    for (slot, j) in inputs.iter_mut().zip((0..MAX_INPUTS).filter(|j| support >> j & 1 == 1)) {
        *slot = j;
    }
    let live = support.count_ones() as usize;
    let table = (0..8).fold(0u8, |acc, i| {
        let minterm: usize = (0..live).map(|b| (i >> b & 1) << inputs[b]).sum();
        acc | ((t >> minterm & 1) as u8) << i
    });
    (table, inputs)
}

/// An operand of a Shannon rule: a selected table, or a two-operand op
/// over two selected tables.
#[derive(Debug, Clone, Copy)]
enum Term {
    Table(u64),
    Bin(BitwiseOp, u64, u64),
}

/// How a Shannon split rebuilds a function from its cofactors.
#[derive(Debug, Clone, Copy)]
enum Rule {
    Bin(BitwiseOp, Term, Term),
    Maj(u64, u64, u64),
}

/// The selector's decision for a table of four or more inputs.
#[derive(Debug, Clone, Copy)]
struct Choice {
    cost: Cost,
    rule: Rule,
    /// The rule builds the complement, and a Not step follows.
    complemented: bool,
}

/// Cost-driven selection for one compilation: exact library lookups for
/// up to three inputs, Shannon splits memoized per table above that.
struct Selector {
    lib: &'static Library,
    with_maj: bool,
    memo: HashMap<u64, Choice>,
}

impl Selector {
    fn new(bitwise_only: bool) -> Selector {
        Selector {
            lib: Library::get(bitwise_only),
            with_maj: !bitwise_only,
            memo: HashMap::new(),
        }
    }

    /// The cheapest cost of a widened table.
    fn cost(&mut self, t: u64) -> Cost {
        let sup = support(t);
        if sup.count_ones() <= 3 {
            return self.lib.cost[usize::from(narrow(t, sup).0)];
        }
        if let Some(choice) = self.memo.get(&t) {
            return choice.cost;
        }
        // A function and its complement are decided together: either may
        // be the other's rule plus one Not.
        let own = self.split(t);
        let neg = self.split(!t);
        let not = self.lib.ops.not;
        let pick = |own: (Cost, Rule), other: (Cost, Rule)| {
            if other.0 + not < own.0 {
                Choice { cost: other.0 + not, rule: other.1, complemented: true }
            } else {
                Choice { cost: own.0, rule: own.1, complemented: false }
            }
        };
        self.memo.insert(t, pick(own, neg));
        self.memo.insert(!t, pick(neg, own));
        self.memo[&t].cost
    }

    fn term_cost(&mut self, term: Term) -> Cost {
        match term {
            Term::Table(t) => self.cost(t),
            Term::Bin(op, a, b) => self.lib.ops.bin(op) + self.cost(a) + self.cost(b),
        }
    }

    fn rule_cost(&mut self, rule: Rule) -> Cost {
        match rule {
            Rule::Bin(op, a, b) => self.lib.ops.bin(op) + self.term_cost(a) + self.term_cost(b),
            Rule::Maj(a, b, c) => self.lib.ops.maj + self.cost(a) + self.cost(b) + self.cost(c),
        }
    }

    /// The cheapest Shannon split of `t` (four or more inputs) over every
    /// input it depends on. Each rule's operands depend on fewer inputs
    /// than `t`, or are a single input, so the recursion terminates.
    fn split(&mut self, t: u64) -> (Cost, Rule) {
        use BitwiseOp::{And, Nand, Nor, Or, Xnor, Xor};
        use Term::Table;
        let sup = support(t);
        let mut best: Option<(Cost, Rule)> = None;
        for j in (0..MAX_INPUTS).filter(|j| sup >> j & 1 == 1) {
            let (f0, f1) = cofactors(t, j);
            let (x, nx) = (VAR[j], !VAR[j]);
            let mut rules: Vec<Rule> = Vec::with_capacity(4);
            if f1 == u64::MAX {
                rules.push(Rule::Bin(Or, Table(x), Table(f0)));
            } else if f1 == 0 {
                rules.push(Rule::Bin(And, Table(nx), Table(f0)));
                rules.push(Rule::Bin(Nor, Table(x), Table(!f0)));
            } else if f0 == 0 {
                rules.push(Rule::Bin(And, Table(x), Table(f1)));
            } else if f0 == u64::MAX {
                rules.push(Rule::Bin(Or, Table(nx), Table(f1)));
                rules.push(Rule::Bin(Nand, Table(x), Table(!f1)));
            } else if f0 == !f1 {
                rules.push(Rule::Bin(Xor, Table(x), Table(f0)));
                rules.push(Rule::Bin(Xnor, Table(x), Table(f1)));
            } else if f0 & !f1 == 0 {
                // f0 ≤ f1: f = maj(x, f1, f0) = f0 | (x & f1) = f1 & (x | f0).
                if self.with_maj {
                    rules.push(Rule::Maj(x, f1, f0));
                }
                rules.push(Rule::Bin(Or, Table(f0), Term::Bin(And, x, f1)));
                rules.push(Rule::Bin(And, Table(f1), Term::Bin(Or, x, f0)));
            } else if f1 & !f0 == 0 {
                // f1 ≤ f0: f = maj(!x, f0, f1) = f1 | (!x & f0) = f0 & (!x | f1).
                if self.with_maj {
                    rules.push(Rule::Maj(nx, f0, f1));
                }
                rules.push(Rule::Bin(Or, Table(f1), Term::Bin(And, nx, f0)));
                rules.push(Rule::Bin(Or, Table(f1), Term::Bin(Nor, x, !f0)));
                rules.push(Rule::Bin(And, Table(f0), Term::Bin(Or, nx, f1)));
                rules.push(Rule::Bin(And, Table(f0), Term::Bin(Nand, x, !f1)));
            } else {
                // The mux (x & f1) | (!x & f0), or (x | f0) & (!x | f1).
                for lo in [Term::Bin(And, nx, f0), Term::Bin(Nor, x, !f0)] {
                    rules.push(Rule::Bin(Or, Term::Bin(And, x, f1), lo));
                }
                for hi in [Term::Bin(Or, nx, f1), Term::Bin(Nand, x, !f1)] {
                    rules.push(Rule::Bin(And, Term::Bin(Or, x, f0), hi));
                }
            }
            for rule in rules {
                let cost = self.rule_cost(rule);
                if best.is_none_or(|(b, _)| cost < b) {
                    best = Some((cost, rule));
                }
            }
        }
        best.expect("a table of four or more inputs has a split")
    }

    /// Emits the selected formula for a widened table.
    fn emit(&mut self, lw: &mut Lowerer, t: u64) -> Val {
        let sup = support(t);
        if sup.count_ones() <= 3 {
            let (table, inputs) = narrow(t, sup);
            return self.lib.emit(lw, table, &inputs);
        }
        self.cost(t);
        let choice = self.memo[&t];
        let v = match choice.rule {
            Rule::Bin(op, a, b) => {
                let operands = [a, b];
                let costs = operands.map(|term| self.term_cost(term));
                let mut vals = [Val::Zero; 2];
                for i in emission_order(costs) {
                    vals[i] = self.emit_term(lw, operands[i]);
                }
                lw.bin(op, vals[0], vals[1])
            }
            Rule::Maj(a, b, c) => {
                let vals = self.emit_tables(lw, [a, b, c]);
                lw.maj(vals[0], vals[1], vals[2])
            }
        };
        if choice.complemented {
            lw.not(v)
        } else {
            v
        }
    }

    fn emit_term(&mut self, lw: &mut Lowerer, term: Term) -> Val {
        match term {
            Term::Table(t) => self.emit(lw, t),
            Term::Bin(op, a, b) => {
                let [a, b] = self.emit_tables(lw, [a, b]);
                lw.bin(op, a, b)
            }
        }
    }

    fn emit_tables<const N: usize>(&mut self, lw: &mut Lowerer, tables: [u64; N]) -> [Val; N] {
        let costs = tables.map(|t| self.cost(t));
        let mut vals = [Val::Zero; N];
        for i in emission_order(costs) {
            vals[i] = self.emit(lw, tables[i]);
        }
        vals
    }
}

/// Common-subexpression elimination: replays `steps` through a fresh
/// memoizing lowerer, remapping operands, so structurally identical steps
/// collapse to one and the re-simplification rules fire again on operands
/// that became equal under canonicalization.
fn eliminate_common(steps: &[LowStep], outputs: &[Val]) -> (Vec<LowStep>, Vec<Val>) {
    let mut lw = Lowerer::new(true, false);
    let mut map: Vec<Val> = Vec::with_capacity(steps.len());
    let tr = |v: Val, map: &[Val]| match v {
        Val::Step(s) => map[s],
        other => other,
    };
    for step in steps {
        let val = match step.map(|v| tr(v, &map)) {
            LowStep::Not(v) => lw.not(v),
            LowStep::Bin(op, a, b) => lw.bin(op, a, b),
            LowStep::Maj(a, b, c) => lw.maj(a, b, c),
        };
        map.push(val);
    }
    let outputs = outputs.iter().map(|&v| tr(v, &map)).collect();
    (lw.steps, outputs)
}

/// Dead-step elimination: keeps only steps reachable from the outputs.
fn eliminate_dead(steps: &[LowStep], outputs: &[Val]) -> (Vec<LowStep>, Vec<Val>, usize) {
    let mut live = vec![false; steps.len()];
    let mut stack: Vec<usize> = outputs
        .iter()
        .filter_map(|v| match v {
            Val::Step(s) => Some(*s),
            _ => None,
        })
        .collect();
    while let Some(s) = stack.pop() {
        if live[s] {
            continue;
        }
        live[s] = true;
        for v in steps[s].operands().into_iter().flatten() {
            if let Val::Step(dep) = v {
                stack.push(dep);
            }
        }
    }
    let mut remap = vec![usize::MAX; steps.len()];
    let tr = |v: Val, remap: &[usize]| match v {
        Val::Step(old) => Val::Step(remap[old]),
        other => other,
    };
    let mut kept = Vec::new();
    for (s, step) in steps.iter().enumerate() {
        if live[s] {
            kept.push(step.map(|v| tr(v, &remap)));
            remap[s] = kept.len() - 1;
        }
    }
    let outputs = outputs.iter().map(|&v| tr(v, &remap)).collect();
    let removed = steps.len() - kept.len();
    (kept, outputs, removed)
}

/// Where a compiled step's operand or result lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotRef {
    /// The caller's `j`-th input vector.
    Input(usize),
    /// Scratch row `r` (a designated data row allocated for intermediates).
    Scratch(usize),
    /// The caller's `k`-th output vector.
    Output(usize),
}

/// One compiled step, in terms of [`SlotRef`] operands. Maps one-to-one
/// onto the driver's eager calls and the batch builder's op constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthStep {
    /// A standard bbop: `Not`, a two-operand op (`And`, `Or`, `Nand`,
    /// `Nor`, `Xor`, `Xnor`), or an output write (`Copy`, `InitZero`,
    /// `InitOne`).
    Bitwise {
        /// The operation.
        op: BitwiseOp,
        /// First source slot.
        src1: SlotRef,
        /// Second source slot, for two-operand ops.
        src2: Option<SlotRef>,
        /// Destination slot.
        dst: SlotRef,
    },
    /// A native three-input majority (one TRA program).
    Maj3 {
        /// First input slot.
        a: SlotRef,
        /// Second input slot.
        b: SlotRef,
        /// Third input slot.
        c: SlotRef,
        /// Destination slot.
        dst: SlotRef,
    },
}

/// Optimizer and selection statistics for one compiled program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// Steps emitted by naive lowering, before any optimization.
    pub lowered_steps: usize,
    /// Steps removed by common-subexpression elimination.
    pub cse_removed: usize,
    /// Steps removed by dead-step elimination.
    pub dead_removed: usize,
    /// Selected native `Maj3` steps.
    pub maj3_steps: usize,
    /// Selected `And`/`Or` steps (majorities with a control-row input).
    pub and_or_steps: usize,
    /// Selected `Nand`/`Nor` steps.
    pub nand_nor_steps: usize,
    /// Selected `Xor`/`Xnor` steps.
    pub xor_steps: usize,
    /// Selected `Not` steps.
    pub not_steps: usize,
    /// Trailing output-write steps (`Copy`/`InitZero`/`InitOne`, and the
    /// copies that stage a second passed-through input in scratch); an
    /// output its computing step writes directly needs none.
    pub output_steps: usize,
}

/// A compiled boolean microprogram: a schedule of [`SynthStep`]s over
/// input, scratch, and output slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthProgram {
    inputs: usize,
    outputs: usize,
    scratch: usize,
    steps: Vec<SynthStep>,
    funcs: Vec<BoolFunc>,
    stats: SynthStats,
}

/// Compiles a batch of truth-table functions over a shared input set into
/// one microprogram. Compiling related functions together (e.g. a full
/// adder's sum and carry) lets the optimizer share their common subterms.
///
/// # Errors
///
/// Rejects an empty batch and mismatched arities.
pub fn synthesize(funcs: &[BoolFunc], opts: &SynthOptions) -> Result<SynthProgram> {
    if funcs.is_empty() {
        return Err(synth_err("no functions to synthesize"));
    }
    let inputs = funcs[0].inputs;
    if funcs.iter().any(|f| f.inputs != inputs) {
        return Err(synth_err("all functions in a batch must share an arity"));
    }
    let mut selector = Selector::new(opts.bitwise_only);
    let mut lw = Lowerer::new(false, opts.bitwise_only);
    let outputs: Vec<Val> = funcs
        .iter()
        .map(|f| selector.emit(&mut lw, widen(f.table, f.inputs)))
        .collect();
    Ok(finish(lw.steps, outputs, funcs.to_vec()))
}

/// The backend: optimize, place outputs, allocate scratch registers,
/// select steps.
fn finish(steps: Vec<LowStep>, outputs: Vec<Val>, funcs: Vec<BoolFunc>) -> SynthProgram {
    let inputs = funcs[0].inputs;
    let mut stats = SynthStats { lowered_steps: steps.len(), ..SynthStats::default() };
    let (steps, outputs) = eliminate_common(&steps, &outputs);
    stats.cse_removed = stats.lowered_steps - steps.len();
    let (steps, outputs, removed) = eliminate_dead(&steps, &outputs);
    stats.dead_removed = removed;

    // Each step value's last reader among the steps.
    let mut last_use: Vec<Option<usize>> = vec![None; steps.len()];
    for (i, step) in steps.iter().enumerate() {
        for v in step.operands().into_iter().flatten() {
            if let Val::Step(s) = v {
                last_use[s] = Some(i);
            }
        }
    }

    // Inputs passed straight through to an output, in output order. Their
    // trailing copies read inputs too, so they come before every other
    // output write.
    let mut passed: Vec<usize> = Vec::new();
    for v in &outputs {
        if let Val::Input(j) = *v {
            if !passed.contains(&j) {
                passed.push(j);
            }
        }
    }

    // Direct output writes: a step at or after the last input read whose
    // value only one output takes, and no later step reads, writes that
    // output's slot itself. Outputs are still written only after every
    // input read, so a destination may alias an input. A pass-through
    // output reads its input after the steps, so it rules them out.
    let mut direct: Vec<Option<usize>> = vec![None; steps.len()];
    let last_input_read = steps.iter().rposition(|step| {
        step.operands().into_iter().flatten().any(|v| matches!(v, Val::Input(_)))
    });
    if let Some(first) = last_input_read.filter(|_| passed.is_empty()) {
        for (k, &v) in outputs.iter().enumerate() {
            if let Val::Step(s) = v {
                let sole = outputs.iter().filter(|&&o| o == v).count() == 1;
                if s >= first && last_use[s].is_none() && sole {
                    direct[s] = Some(k);
                }
            }
        }
    }

    // Scratch-row register allocation: each step value occupies one
    // designated row from its definition to its last use; rows are reused
    // as soon as their value dies. Values feeding a trailing output write
    // stay live until the end.
    let mut live_until: Vec<usize> = last_use.iter().map(|u| u.unwrap_or(0)).collect();
    for (k, v) in outputs.iter().enumerate() {
        if let Val::Step(s) = *v {
            if direct[s] != Some(k) {
                live_until[s] = steps.len();
            }
        }
    }

    let mut reg_of = vec![usize::MAX; steps.len()];
    let mut free: Vec<usize> = Vec::new();
    let mut high_water = 0usize;
    let mut compiled: Vec<SynthStep> = Vec::with_capacity(steps.len() + outputs.len());
    let slot = |v: Val, reg_of: &[usize]| match v {
        Val::Input(j) => SlotRef::Input(j),
        Val::Step(s) => SlotRef::Scratch(reg_of[s]),
        Val::Zero | Val::One => unreachable!("lowering folds constant operands"),
    };
    for (i, step) in steps.iter().enumerate() {
        // Resolve operand slots before retiring their registers.
        let operands = step.operands();
        let src = operands.map(|v| v.map(|v| slot(v, &reg_of)));
        // Free dying operand registers before acquiring the destination:
        // a step may legally overwrite one of its own sources, because the
        // device stages sources into the B-group before the destination
        // row is touched.
        for v in operands.into_iter().flatten() {
            if let Val::Step(s) = v {
                if live_until[s] == i && reg_of[s] != usize::MAX {
                    free.push(reg_of[s]);
                    // Several operands may share a value; free it once.
                    reg_of[s] = usize::MAX;
                }
            }
        }
        let dst = match direct[i] {
            Some(k) => SlotRef::Output(k),
            None => {
                let reg = free.pop().unwrap_or_else(|| {
                    high_water += 1;
                    high_water - 1
                });
                reg_of[i] = reg;
                SlotRef::Scratch(reg)
            }
        };
        let operand = |n: usize| src[n].expect("the step has this operand");
        compiled.push(match *step {
            LowStep::Not(_) => {
                stats.not_steps += 1;
                SynthStep::Bitwise { op: BitwiseOp::Not, src1: operand(0), src2: None, dst }
            }
            LowStep::Bin(op, ..) => {
                match op {
                    BitwiseOp::And | BitwiseOp::Or => stats.and_or_steps += 1,
                    BitwiseOp::Nand | BitwiseOp::Nor => stats.nand_nor_steps += 1,
                    _ => stats.xor_steps += 1,
                }
                SynthStep::Bitwise { op, src1: operand(0), src2: Some(operand(1)), dst }
            }
            LowStep::Maj(..) => {
                stats.maj3_steps += 1;
                SynthStep::Maj3 { a: operand(0), b: operand(1), c: operand(2), dst }
            }
        });
    }

    // Trailing output writes, after every input read. Every passed-through
    // input but the first is staged in scratch before any output write;
    // the first is copied to its outputs ahead of the other writes (a copy
    // over its own input rewrites the same value).
    let mut staged = vec![usize::MAX; inputs];
    for &j in passed.iter().skip(1) {
        let reg = free.pop().unwrap_or_else(|| {
            high_water += 1;
            high_water - 1
        });
        staged[j] = reg;
        stats.output_steps += 1;
        compiled.push(SynthStep::Bitwise {
            op: BitwiseOp::Copy,
            src1: SlotRef::Input(j),
            src2: None,
            dst: SlotRef::Scratch(reg),
        });
    }
    let first_passed = passed.first().map(|&j| Val::Input(j));
    let (leading, rest): (Vec<usize>, Vec<usize>) =
        (0..outputs.len()).partition(|&k| Some(outputs[k]) == first_passed);
    for k in leading.into_iter().chain(rest) {
        let dst = SlotRef::Output(k);
        let (op, src1) = match outputs[k] {
            Val::Step(s) if direct[s] == Some(k) => continue,
            Val::Zero => (BitwiseOp::InitZero, dst),
            Val::One => (BitwiseOp::InitOne, dst),
            Val::Input(j) if staged[j] == usize::MAX => (BitwiseOp::Copy, SlotRef::Input(j)),
            Val::Input(j) => (BitwiseOp::Copy, SlotRef::Scratch(staged[j])),
            Val::Step(s) => (BitwiseOp::Copy, SlotRef::Scratch(reg_of[s])),
        };
        stats.output_steps += 1;
        compiled.push(SynthStep::Bitwise { op, src1, src2: None, dst });
    }

    SynthProgram {
        inputs,
        outputs: outputs.len(),
        scratch: high_water,
        steps: compiled,
        funcs,
        stats,
    }
}

impl SynthProgram {
    /// Number of input vectors the program reads.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of output vectors the program writes.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Scratch rows required per chunk — the register allocator's
    /// live-range high-water mark.
    pub fn scratch_rows(&self) -> usize {
        self.scratch
    }

    /// The compiled step schedule.
    pub fn steps(&self) -> &[SynthStep] {
        &self.steps
    }

    /// The truth tables this program computes, in output order.
    pub fn functions(&self) -> &[BoolFunc] {
        &self.funcs
    }

    /// Optimizer and selection statistics.
    pub fn stats(&self) -> &SynthStats {
        &self.stats
    }

    /// Whether every step is a two-operand bitwise op (no native `Maj3`),
    /// the shape the resilient executor's front end accepts.
    pub fn is_bitwise_only(&self) -> bool {
        self.steps.iter().all(|s| matches!(s, SynthStep::Bitwise { .. }))
    }

    /// Per-chunk `(AAPs, APs)` cost of the compiled schedule, from the
    /// Figure 8 command programs each step selects.
    pub fn aap_cost(&self) -> (usize, usize) {
        self.steps.iter().fold((0, 0), |(aaps, aps), step| {
            let (a, p) = command_counts(&step_program(step));
            (aaps + a, aps + p)
        })
    }

    /// Evaluates the *compiled schedule* (not the source truth tables) on
    /// one minterm index, returning each output's bit. Used by tests to
    /// prove the optimizer preserved semantics.
    pub fn eval(&self, assignment: u64) -> Vec<bool> {
        let mut scratch = vec![false; self.scratch];
        let mut outs = vec![false; self.outputs];
        let read = |slot: SlotRef, scratch: &[bool], outs: &[bool]| match slot {
            SlotRef::Input(j) => assignment >> j & 1 == 1,
            SlotRef::Scratch(r) => scratch[r],
            SlotRef::Output(k) => outs[k],
        };
        for step in &self.steps {
            let (dst, value) = match *step {
                SynthStep::Bitwise { op, src1, src2, dst } => {
                    let a = u64::from(read(src1, &scratch, &outs));
                    let b = u64::from(src2.is_some_and(|s| read(s, &scratch, &outs)));
                    (dst, op.apply_words(a, b) & 1 == 1)
                }
                SynthStep::Maj3 { a, b, c, dst } => {
                    let votes = u8::from(read(a, &scratch, &outs))
                        + u8::from(read(b, &scratch, &outs))
                        + u8::from(read(c, &scratch, &outs));
                    (dst, votes >= 2)
                }
            };
            match dst {
                SlotRef::Scratch(r) => scratch[r] = value,
                SlotRef::Output(k) => outs[k] = value,
                SlotRef::Input(_) => unreachable!("steps never write input slots"),
            }
        }
        outs
    }

    fn resolve(
        &self,
        slot: SlotRef,
        inputs: &[BitVectorHandle],
        scratch: &[BitVectorHandle],
        outputs: &[BitVectorHandle],
    ) -> BitVectorHandle {
        match slot {
            SlotRef::Input(j) => inputs[j],
            SlotRef::Scratch(r) => scratch[r],
            SlotRef::Output(k) => outputs[k],
        }
    }

    fn check_handles(
        &self,
        inputs: &[BitVectorHandle],
        scratch: &[BitVectorHandle],
        outputs: &[BitVectorHandle],
    ) -> Result<()> {
        self.check_io(inputs, outputs)?;
        if scratch.len() < self.scratch {
            return Err(synth_err(format!(
                "program needs {} scratch row(s), {} given",
                self.scratch,
                scratch.len()
            )));
        }
        Ok(())
    }

    fn check_io(&self, inputs: &[BitVectorHandle], outputs: &[BitVectorHandle]) -> Result<()> {
        if inputs.len() != self.inputs {
            return Err(synth_err(format!(
                "program reads {} input(s), {} given",
                self.inputs,
                inputs.len()
            )));
        }
        if outputs.len() != self.outputs {
            return Err(synth_err(format!(
                "program writes {} output(s), {} given",
                self.outputs,
                outputs.len()
            )));
        }
        // Outputs are not written in index order (a step may write its
        // output directly), so a repeated handle would make the winner
        // depend on the schedule.
        for (k, h) in outputs.iter().enumerate() {
            if let Some(j) = outputs[..k].iter().position(|o| o == h) {
                return Err(synth_err(format!(
                    "outputs {j} and {k} are the same vector; each output needs its own"
                )));
            }
        }
        Ok(())
    }

    /// Appends the compiled schedule to `batch` over concrete handles.
    /// Scratch handles must be co-located with the operands (same length,
    /// same allocation group). Output handles may alias input handles; the
    /// schedule reads all inputs before it writes any output.
    ///
    /// # Errors
    ///
    /// Rejects mismatched input/output counts, short scratch sets, and
    /// repeated output handles.
    pub fn emit_into(
        &self,
        batch: &mut BatchBuilder,
        inputs: &[BitVectorHandle],
        scratch: &[BitVectorHandle],
        outputs: &[BitVectorHandle],
    ) -> Result<()> {
        self.check_handles(inputs, scratch, outputs)?;
        for step in &self.steps {
            match *step {
                SynthStep::Bitwise { op, src1, src2, dst } => {
                    batch.bitwise(
                        op,
                        self.resolve(src1, inputs, scratch, outputs),
                        src2.map(|s| self.resolve(s, inputs, scratch, outputs)),
                        self.resolve(dst, inputs, scratch, outputs),
                    );
                }
                SynthStep::Maj3 { a, b, c, dst } => {
                    batch.maj3(
                        self.resolve(a, inputs, scratch, outputs),
                        self.resolve(b, inputs, scratch, outputs),
                        self.resolve(c, inputs, scratch, outputs),
                        self.resolve(dst, inputs, scratch, outputs),
                    );
                }
            }
        }
        Ok(())
    }

    /// Runs the compiled schedule through the eager driver interface, one
    /// step at a time.
    ///
    /// # Errors
    ///
    /// Rejects mismatched handle counts and repeated output handles, and
    /// propagates driver errors.
    pub fn run_eager(
        &self,
        mem: &mut AmbitMemory,
        inputs: &[BitVectorHandle],
        scratch: &[BitVectorHandle],
        outputs: &[BitVectorHandle],
    ) -> Result<()> {
        self.check_handles(inputs, scratch, outputs)?;
        for step in &self.steps {
            match *step {
                SynthStep::Bitwise { op, src1, src2, dst } => {
                    mem.bitwise(
                        op,
                        self.resolve(src1, inputs, scratch, outputs),
                        src2.map(|s| self.resolve(s, inputs, scratch, outputs)),
                        self.resolve(dst, inputs, scratch, outputs),
                    )?;
                }
                SynthStep::Maj3 { a, b, c, dst } => {
                    mem.bitwise_maj3(
                        self.resolve(a, inputs, scratch, outputs),
                        self.resolve(b, inputs, scratch, outputs),
                        self.resolve(c, inputs, scratch, outputs),
                        self.resolve(dst, inputs, scratch, outputs),
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Convenience driver: allocates scratch rows in the first input's
    /// allocation group, emits the schedule as one batch, executes it
    /// under `policy`, and frees the scratch. The resulting `BatchOp`s go
    /// through the plan cache and the batch engine like any others, so a
    /// second run of the same program over the same handles is all cache
    /// hits.
    ///
    /// # Errors
    ///
    /// Rejects mismatched handle counts and repeated output handles;
    /// propagates allocation and execution errors.
    pub fn run(
        &self,
        mem: &mut AmbitMemory,
        policy: IssuePolicy,
        inputs: &[BitVectorHandle],
        outputs: &[BitVectorHandle],
    ) -> Result<BatchReceipt> {
        // Reject bad handle sets (an empty input set included: every
        // program reads at least one input) before allocating scratch.
        self.check_io(inputs, outputs)?;
        let bits = mem.len_bits(inputs[0])?;
        let group = mem.group(inputs[0])?;
        let mut scratch = Vec::with_capacity(self.scratch);
        for _ in 0..self.scratch {
            match mem.alloc_in_group(bits, group) {
                Ok(h) => scratch.push(h),
                Err(e) => {
                    for h in scratch {
                        let _ = mem.free(h);
                    }
                    return Err(e);
                }
            }
        }
        let mut batch = BatchBuilder::new();
        let emitted = self.emit_into(&mut batch, inputs, &scratch, outputs);
        let result = emitted.and_then(|()| mem.execute_batch(&batch, policy));
        for h in scratch {
            let _ = mem.free(h);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambit_dram::{AapMode, DramGeometry, TimingParams};

    fn exhaustive_check(plan: &SynthProgram, funcs: &[BoolFunc]) {
        for idx in 0..1u64 << plan.inputs() {
            let got = plan.eval(idx);
            for (k, f) in funcs.iter().enumerate() {
                assert_eq!(
                    got[k],
                    f.eval(idx),
                    "output {k} wrong at minterm {idx:#b} (table {:#x})",
                    f.table()
                );
            }
        }
    }

    #[test]
    fn all_two_input_tables_compile_and_evaluate() {
        for table in 0..16u64 {
            let f = BoolFunc::from_table(2, table).unwrap();
            let plan = synthesize(&[f], &SynthOptions::default()).unwrap();
            exhaustive_check(&plan, &[f]);
        }
    }

    #[test]
    fn all_three_input_tables_compile_and_evaluate() {
        for table in 0..256u64 {
            let f = BoolFunc::from_table(3, table).unwrap();
            let plan = synthesize(&[f], &SynthOptions::default()).unwrap();
            exhaustive_check(&plan, &[f]);
            // Bitwise-only lowering preserves semantics and its shape.
            let flat = synthesize(&[f], &SynthOptions { bitwise_only: true }).unwrap();
            assert!(flat.is_bitwise_only(), "table {table:#x} kept a Maj3");
            exhaustive_check(&flat, &[f]);
        }
    }

    #[test]
    fn cse_shares_subterms_across_multi_output_batches() {
        // (a & b) ^ c and (a & b) | c both select a & b; CSE keeps one.
        let funcs = [
            BoolFunc::from_table(3, 0x78).unwrap(),
            BoolFunc::from_table(3, 0xF8).unwrap(),
        ];
        let plan = synthesize(&funcs, &SynthOptions::default()).unwrap();
        exhaustive_check(&plan, &funcs);
        let stats = *plan.stats();
        assert_eq!((stats.lowered_steps, stats.cse_removed), (4, 1), "{stats:?}");
        assert_eq!(stats.and_or_steps + stats.xor_steps, 3, "one And shared by Xor and Or");

        // Random batches of two or three outputs over two to four inputs:
        // every compiled schedule computes its tables, and CSE fires.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut removed = 0;
        for _ in 0..200 {
            let inputs = 2 + (next() % 3) as usize;
            let mask = (1u64 << (1 << inputs)) - 1;
            let funcs: Vec<BoolFunc> = (0..2 + next() % 2)
                .map(|_| BoolFunc::from_table(inputs, next() & mask).unwrap())
                .collect();
            let plan = synthesize(&funcs, &SynthOptions::default()).unwrap();
            exhaustive_check(&plan, &funcs);
            let stats = plan.stats();
            assert_eq!(
                plan.steps().len(),
                stats.lowered_steps - stats.cse_removed - stats.dead_removed + stats.output_steps,
                "every kept step is compiled once"
            );
            removed += stats.cse_removed;
        }
        assert!(removed > 0, "no batch shared a subterm");
    }

    #[test]
    fn constant_and_projection_functions_need_no_scratch() {
        let zero = BoolFunc::from_table(2, 0).unwrap();
        let one = BoolFunc::from_table(2, 0xF).unwrap();
        let proj = BoolFunc::from_fn(2, |i| i & 1 == 1).unwrap();
        for f in [zero, one, proj] {
            let plan = synthesize(&[f], &SynthOptions::default()).unwrap();
            assert_eq!(plan.scratch_rows(), 0);
            assert_eq!(plan.steps().len(), 1, "one trailing output step");
            exhaustive_check(&plan, &[f]);
        }
    }

    #[test]
    fn invalid_functions_are_rejected() {
        assert!(BoolFunc::from_table(0, 0).is_err());
        assert!(BoolFunc::from_table(7, 0).is_err());
        assert!(BoolFunc::from_table(2, 0x10).is_err());
        assert!(BoolFunc::from_table(6, u64::MAX).is_ok());
        assert!(synthesize(&[], &SynthOptions::default()).is_err());
        let f2 = BoolFunc::from_table(2, 0b0110).unwrap();
        let f3 = BoolFunc::from_table(3, 0x96).unwrap();
        assert!(synthesize(&[f2, f3], &SynthOptions::default()).is_err());
    }

    #[test]
    fn compiled_xor_runs_on_the_device() {
        let mut mem = AmbitMemory::new(
            DramGeometry::tiny(),
            TimingParams::ddr3_1600(),
            AapMode::Overlapped,
        );
        let bits = mem.row_bits();
        let xor = BoolFunc::from_table(2, 0b0110).unwrap();
        let plan = synthesize(&[xor], &SynthOptions::default()).unwrap();
        let a = mem.alloc(bits).unwrap();
        let b = mem.alloc(bits).unwrap();
        let out = mem.alloc(bits).unwrap();
        let av: Vec<bool> = (0..bits).map(|i| i % 2 == 0).collect();
        let bv: Vec<bool> = (0..bits).map(|i| i % 3 == 0).collect();
        mem.write_bits(a, &av).unwrap();
        mem.write_bits(b, &bv).unwrap();
        plan.run(&mut mem, IssuePolicy::Serial, &[a, b], &[out]).unwrap();
        let got = mem.read_bits(out).unwrap();
        for i in 0..bits {
            assert_eq!(got[i], av[i] ^ bv[i], "bit {i}");
        }
    }

    #[test]
    fn destination_may_alias_an_input() {
        let mut mem = AmbitMemory::new(
            DramGeometry::tiny(),
            TimingParams::ddr3_1600(),
            AapMode::Overlapped,
        );
        let bits = mem.row_bits();
        // f(a, b) = !a — writing into a must read the pre-op value.
        let f = BoolFunc::from_fn(2, |i| i & 1 == 0).unwrap();
        let plan = synthesize(&[f], &SynthOptions::default()).unwrap();
        let a = mem.alloc(bits).unwrap();
        let b = mem.alloc(bits).unwrap();
        let av: Vec<bool> = (0..bits).map(|i| i % 5 == 0).collect();
        mem.write_bits(a, &av).unwrap();
        mem.write_bits(b, &vec![false; bits]).unwrap();
        plan.run(&mut mem, IssuePolicy::BankParallel, &[a, b], &[a]).unwrap();
        let got = mem.read_bits(a).unwrap();
        for i in 0..bits {
            assert_eq!(got[i], !av[i], "bit {i}");
        }
    }

    #[test]
    fn aap_cost_counts_the_selected_programs() {
        // f = a & b compiles to one And (4 AAPs) that writes the output
        // directly: no trailing copy.
        let f = BoolFunc::from_table(2, 0b1000).unwrap();
        let plan = synthesize(&[f], &SynthOptions::default()).unwrap();
        assert_eq!(plan.aap_cost(), (4, 0));
    }

    #[test]
    fn figure8_functions_compile_to_their_own_program() {
        // Every Figure 9 op, as a truth table, compiles to exactly its
        // Figure 8 program: one step, no scratch, writing the output.
        let expected = [
            (BitwiseOp::Not, (2, 0)),
            (BitwiseOp::And, (4, 0)),
            (BitwiseOp::Or, (4, 0)),
            (BitwiseOp::Nand, (5, 0)),
            (BitwiseOp::Nor, (5, 0)),
            (BitwiseOp::Xor, (5, 2)),
            (BitwiseOp::Xnor, (5, 2)),
        ];
        for (op, cost) in expected {
            let inputs = op.source_count();
            let f = BoolFunc::from_fn(inputs, |i| op.apply_words(i & 1, i >> 1 & 1) & 1 == 1)
                .unwrap();
            let plan = synthesize(&[f], &SynthOptions::default()).unwrap();
            exhaustive_check(&plan, &[f]);
            assert_eq!(plan.steps().len(), 1, "{op}: {:?}", plan.steps());
            assert_eq!(plan.scratch_rows(), 0, "{op}");
            assert_eq!(plan.aap_cost(), cost, "{op}");
            let SynthStep::Bitwise { op: selected, dst, .. } = plan.steps()[0] else {
                panic!("{op} selected a Maj3");
            };
            assert_eq!((selected, dst), (op, SlotRef::Output(0)));
        }
        // The 3-input majority is one raw TRA: 4 AAPs, like And.
        let carry = BoolFunc::from_fn(3, |i| i.count_ones() >= 2).unwrap();
        let plan = synthesize(&[carry], &SynthOptions::default()).unwrap();
        assert_eq!(plan.aap_cost(), (4, 0));
        assert_eq!(plan.stats().maj3_steps, 1);
    }

    #[test]
    fn library_picks_native_majority_and_xor_cells() {
        let opts = SynthOptions::default();
        let cost = |f: BoolFunc| synthesize(&[f], &opts).unwrap().aap_cost();
        // Parity of three inputs: two Xors.
        assert_eq!(cost(BoolFunc::from_table(3, 0x96).unwrap()), (10, 4));
        // lt | (b & !a) over (a, b, lt) = maj(lt, b, nand(a, b)).
        let rung = BoolFunc::from_fn(3, |i| i >> 2 & 1 == 1 || i & 0b11 == 0b10).unwrap();
        let plan = synthesize(&[rung], &opts).unwrap();
        assert_eq!(plan.aap_cost(), (9, 0));
        assert_eq!((plan.stats().maj3_steps, plan.stats().nand_nor_steps), (1, 1));
        // Under bitwise_only the library never selects a Maj3.
        let flat = SynthOptions { bitwise_only: true };
        for table in 0..256u64 {
            let f = BoolFunc::from_table(3, table).unwrap();
            assert_eq!(synthesize(&[f], &flat).unwrap().stats().maj3_steps, 0);
        }
    }

    #[test]
    fn passed_through_inputs_are_read_before_outputs_overwrite_them() {
        let mut mem = AmbitMemory::new(
            DramGeometry::tiny(),
            TimingParams::ddr3_1600(),
            AapMode::Overlapped,
        );
        let bits = mem.row_bits();
        let ins: Vec<_> = (0..3).map(|_| mem.alloc(bits).unwrap()).collect();
        let spare = mem.alloc(bits).unwrap();
        let rows: Vec<Vec<bool>> =
            (0..3).map(|j| (0..bits).map(|p| p >> j & 1 == 1).collect()).collect();
        let mut check = |funcs: &[BoolFunc], outputs: &[BitVectorHandle], eager: bool| {
            let plan = synthesize(funcs, &SynthOptions::default()).unwrap();
            exhaustive_check(&plan, funcs);
            for (&h, row) in ins.iter().zip(&rows) {
                mem.write_bits(h, row).unwrap();
            }
            if eager {
                let scratch: Vec<_> =
                    (0..plan.scratch_rows()).map(|_| mem.alloc(bits).unwrap()).collect();
                plan.run_eager(&mut mem, &ins[..plan.inputs()], &scratch, outputs).unwrap();
                for h in scratch {
                    mem.free(h).unwrap();
                }
            } else {
                plan.run(&mut mem, IssuePolicy::BankParallel, &ins[..plan.inputs()], outputs)
                    .unwrap();
            }
            for (k, (f, &h)) in funcs.iter().zip(outputs).enumerate() {
                let got = mem.read_bits(h).unwrap();
                for (p, &bit) in got.iter().enumerate() {
                    let want = f.eval(p as u64 & ((1 << f.inputs) - 1));
                    assert_eq!(bit, want, "output {k} bit {p}");
                }
            }
        };
        let a = BoolFunc::from_table(2, 0b1010).unwrap();
        let and = BoolFunc::from_table(2, 0b1000).unwrap();
        // Output 0 passes `a` through; output 1 overwrites `a` with a & b,
        // which must not land before the copy reads `a`.
        for eager in [false, true] {
            check(&[a, and], &[spare, ins[0]], eager);
        }
        // Two passed-through inputs swapped over each other, and a third
        // output over the remaining input.
        let b = BoolFunc::from_fn(3, |i| i >> 1 & 1 == 1).unwrap();
        let a = BoolFunc::from_fn(3, |i| i & 1 == 1).unwrap();
        let a_xor_c = BoolFunc::from_fn(3, |i| (i ^ i >> 2) & 1 == 1).unwrap();
        for eager in [false, true] {
            check(&[b, a, a_xor_c], &[ins[0], ins[1], ins[2]], eager);
        }
    }

    #[test]
    fn a_value_shared_by_two_outputs_is_copied_to_each() {
        // Both outputs take the same step value, so neither is written
        // directly: the And lands in scratch and two copies follow.
        let and = BoolFunc::from_table(2, 0b1000).unwrap();
        let plan = synthesize(&[and, and], &SynthOptions::default()).unwrap();
        exhaustive_check(&plan, &[and, and]);
        assert_eq!(plan.stats().output_steps, 2);
        assert_eq!(plan.aap_cost(), (6, 0));
    }

    #[test]
    fn repeated_output_handles_are_rejected_on_every_entry_point() {
        let mut mem = AmbitMemory::new(
            DramGeometry::tiny(),
            TimingParams::ddr3_1600(),
            AapMode::Overlapped,
        );
        let bits = mem.row_bits();
        let full_adder = [
            BoolFunc::from_fn(3, |i| i.count_ones() & 1 == 1).unwrap(),
            BoolFunc::from_fn(3, |i| i.count_ones() >= 2).unwrap(),
        ];
        let plan = synthesize(&full_adder, &SynthOptions::default()).unwrap();
        let ins: Vec<_> = (0..3).map(|_| mem.alloc(bits).unwrap()).collect();
        let out = mem.alloc(bits).unwrap();
        let scratch: Vec<_> = (0..plan.scratch_rows()).map(|_| mem.alloc(bits).unwrap()).collect();
        let is_synthesis = |r: Result<()>| matches!(r, Err(AmbitError::Synthesis { .. }));

        let mut batch = BatchBuilder::new();
        assert!(is_synthesis(plan.emit_into(&mut batch, &ins, &scratch, &[out, out])));
        assert!(batch.is_empty(), "a rejected plan emits nothing");
        assert!(is_synthesis(plan.run_eager(&mut mem, &ins, &scratch, &[out, out])));
        let run = plan.run(&mut mem, IssuePolicy::Serial, &ins, &[out, out]);
        assert!(is_synthesis(run.map(|_| ())));
        // An output aliasing an input is still fine.
        plan.run(&mut mem, IssuePolicy::Serial, &ins, &[out, ins[2]]).unwrap();
    }
}
