//! SIMDRAM-style boolean microprogram compiler.
//!
//! Ambit's bbop ISA covers the paper's fixed operation set; the follow-on
//! SIMDRAM line (arXiv:2012.11890, arXiv:2105.12839) shows the general
//! form: *any* n-input boolean function can be lowered to the MAJ/NOT
//! basis the DRAM physically computes, because
//!
//! ```text
//! AND(a, b) = MAJ(a, b, 0)      — TRA with control row C0 as the third input
//! OR(a, b)  = MAJ(a, b, 1)      — TRA with control row C1
//! NOT(a)                         — the dual-contact cell's negated wordline
//! ```
//!
//! and `{AND, NOT}` (a fortiori `{MAJ, NOT}`) is functionally complete:
//! every truth table has a sum-of-products form built from AND/OR/NOT.
//! This module is that compiler:
//!
//! * **Front ends** — [`BoolFunc`] (a truth table over ≤ 6 inputs) and
//!   [`Expr`] (an expression DAG with And/Or/Xor/Maj/Not nodes);
//! * **Lowering** — Shannon decomposition of truth tables and a recursive
//!   walk of expressions, both emitting only MAJ/NOT steps over virtual
//!   values (with local simplification: constant folding, repeated-operand
//!   majority collapse, double-negation elimination);
//! * **Optimizer** — common-subexpression elimination across the whole
//!   batch of output functions (value numbering with canonicalized MAJ
//!   operand order), dead-step elimination (backward liveness from the
//!   outputs), and scratch-row register allocation (last-use reuse, so the
//!   designated-row footprint is the live-range high-water mark, not the
//!   step count);
//! * **Back end** — instruction selection onto the existing bbop set
//!   (`MAJ(x, y, const)` becomes the native And/Or program, which *is* the
//!   majority with a control row) and emission as ordinary
//!   [`BatchBuilder`] operations, so synthesized programs flow through the
//!   plan cache, the batch engine's hazard analysis, and the per-bank
//!   fan-out unchanged.
//!
//! Output semantics match the driver's: every step stages its sources
//! before writing, and the compiled program writes its destination handles
//! only in trailing steps, after all input reads — so a destination may
//! alias an input and still observe pre-operation values, exactly like the
//! eager driver ops and the conformance golden model.
//!
//! ```
//! use ambit_core::synth::{synthesize, BoolFunc, SynthOptions};
//! use ambit_core::{AmbitMemory, IssuePolicy};
//! use ambit_dram::{AapMode, DramGeometry, TimingParams};
//!
//! // sum and carry of a full adder, compiled together so the optimizer
//! // shares the common subterms.
//! let sum = BoolFunc::from_fn(3, |i| (i.count_ones() & 1) == 1)?;
//! let carry = BoolFunc::from_fn(3, |i| i.count_ones() >= 2)?;
//! let plan = synthesize(&[sum, carry], &SynthOptions::default())?;
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

use std::collections::HashMap;

use crate::batch::{BatchBuilder, BatchReceipt, IssuePolicy};
use crate::driver::{AmbitMemory, BitVectorHandle};
use crate::error::{AmbitError, Result};
use crate::ops::{self, command_counts, BitwiseOp};
use crate::addressing::RowAddress;

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

    /// Builds the truth table of an expression over `inputs` variables.
    ///
    /// # Errors
    ///
    /// Rejects arities outside `1..=6` and expressions referencing inputs
    /// beyond `inputs`.
    pub fn from_expr(inputs: usize, expr: &Expr) -> Result<Self> {
        if inputs == 0 || inputs > MAX_INPUTS {
            return Err(synth_err(format!(
                "function arity {inputs} outside 1..={MAX_INPUTS}"
            )));
        }
        expr.check_inputs(inputs)?;
        BoolFunc::from_fn(inputs, |idx| expr.eval(idx))
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

/// An expression-DAG front end for the synthesizer.
///
/// Inputs are numbered; constants, negation, and the usual connectives are
/// provided, plus a native three-input majority node (the TRA primitive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Input variable `j`.
    Input(usize),
    /// A constant.
    Const(bool),
    /// Logical negation.
    Not(Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Exclusive or.
    Xor(Box<Expr>, Box<Expr>),
    /// Three-input majority.
    Maj(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Input variable `j`.
    pub fn input(j: usize) -> Expr {
        Expr::Input(j)
    }

    /// `!self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self & rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self | rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// `self ^ rhs`.
    pub fn xor(self, rhs: Expr) -> Expr {
        Expr::Xor(Box::new(self), Box::new(rhs))
    }

    /// `maj(a, b, c)`.
    pub fn maj(a: Expr, b: Expr, c: Expr) -> Expr {
        Expr::Maj(Box::new(a), Box::new(b), Box::new(c))
    }

    fn eval(&self, idx: u64) -> bool {
        match self {
            Expr::Input(j) => idx >> j & 1 == 1,
            Expr::Const(v) => *v,
            Expr::Not(e) => !e.eval(idx),
            Expr::And(a, b) => a.eval(idx) && b.eval(idx),
            Expr::Or(a, b) => a.eval(idx) || b.eval(idx),
            Expr::Xor(a, b) => a.eval(idx) != b.eval(idx),
            Expr::Maj(a, b, c) => {
                u8::from(a.eval(idx)) + u8::from(b.eval(idx)) + u8::from(c.eval(idx)) >= 2
            }
        }
    }

    fn check_inputs(&self, inputs: usize) -> Result<()> {
        match self {
            Expr::Input(j) if *j >= inputs => Err(synth_err(format!(
                "expression references input {j}, function has {inputs}"
            ))),
            Expr::Input(_) | Expr::Const(_) => Ok(()),
            Expr::Not(e) => e.check_inputs(inputs),
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
                a.check_inputs(inputs)?;
                b.check_inputs(inputs)
            }
            Expr::Maj(a, b, c) => {
                a.check_inputs(inputs)?;
                b.check_inputs(inputs)?;
                c.check_inputs(inputs)
            }
        }
    }
}

/// Compiler knobs.
#[derive(Debug, Clone)]
pub struct SynthOptions {
    /// Common-subexpression elimination across the whole output batch.
    pub cse: bool,
    /// Dead-step elimination (backward liveness from the outputs).
    pub dead_step_elim: bool,
    /// Lower three-live-input majorities into And/Or so the compiled
    /// program uses only two-operand bitwise steps — the shape the
    /// [`ResilientExecutor`](crate::ResilientExecutor) front end accepts.
    pub bitwise_only: bool,
    /// Reject programs whose scratch-row high-water mark exceeds this
    /// budget (e.g. a subarray's designated-row count minus the operands).
    pub max_scratch: Option<usize>,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            cse: true,
            dead_step_elim: true,
            bitwise_only: false,
            max_scratch: None,
        }
    }
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
}

/// A lowered step over virtual values: the MAJ/NOT basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LowStep {
    Maj(Val, Val, Val),
    Not(Val),
}

/// The lowering context: emits MAJ/NOT steps with local simplification,
/// optionally memoizing (the CSE replay runs with the memo on).
struct Lowerer {
    steps: Vec<LowStep>,
    memo: Option<HashMap<LowStep, Val>>,
    bitwise_only: bool,
    cse_hits: usize,
}

impl Lowerer {
    fn new(memoize: bool, bitwise_only: bool) -> Self {
        Lowerer {
            steps: Vec::new(),
            memo: memoize.then(HashMap::new),
            bitwise_only,
            cse_hits: 0,
        }
    }

    fn push(&mut self, step: LowStep) -> Val {
        if let Some(memo) = &self.memo {
            if let Some(&v) = memo.get(&step) {
                self.cse_hits += 1;
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

    fn maj(&mut self, a: Val, b: Val, c: Val) -> Val {
        // A repeated operand owns the majority regardless of the third.
        if a == b || a == c {
            return a;
        }
        if b == c {
            return b;
        }
        // Two (necessarily distinct) constants cancel: maj(x, 0, 1) = x.
        let consts = [a, b, c].iter().filter(|v| v.is_const()).count();
        if consts >= 2 {
            return *[a, b, c]
                .iter()
                .find(|v| !v.is_const())
                .expect("three distinct values cannot all be boolean constants");
        }
        if self.bitwise_only && consts == 0 {
            // maj(a, b, c) = (a & b) | (c & (a | b)): four two-operand
            // steps, so the program stays within the resilient front end.
            let ab = self.maj(a, b, Val::Zero);
            let a_or_b = self.maj(a, b, Val::One);
            let c_ab = self.maj(c, a_or_b, Val::Zero);
            return self.maj(ab, c_ab, Val::One);
        }
        // Majority is symmetric: canonical operand order maximizes CSE.
        let mut operands = [a, b, c];
        operands.sort_unstable();
        self.push(LowStep::Maj(operands[0], operands[1], operands[2]))
    }

    fn and(&mut self, a: Val, b: Val) -> Val {
        self.maj(a, b, Val::Zero)
    }

    fn or(&mut self, a: Val, b: Val) -> Val {
        self.maj(a, b, Val::One)
    }

    fn xor(&mut self, a: Val, b: Val) -> Val {
        match (a, b) {
            (Val::Zero, v) | (v, Val::Zero) => v,
            (Val::One, v) | (v, Val::One) => self.not(v),
            _ if a == b => Val::Zero,
            _ => {
                // a ⊕ b = (a | b) & !(a & b), all in the majority basis.
                let either = self.or(a, b);
                let both = self.and(a, b);
                let not_both = self.not(both);
                self.and(either, not_both)
            }
        }
    }

    /// Shannon decomposition of a `k`-variable cofactor table.
    fn table(&mut self, k: usize, table: u64) -> Val {
        let minterms = 1u64 << k;
        let mask = if minterms == 64 { u64::MAX } else { (1 << minterms) - 1 };
        let t = table & mask;
        if t == 0 {
            return Val::Zero;
        }
        if t == mask {
            return Val::One;
        }
        // Non-constant tables have at least one variable to split on.
        let half = minterms / 2;
        let half_mask = (1u64 << half) - 1;
        let f0 = t & half_mask;
        let f1 = t >> half & half_mask;
        if f0 == f1 {
            return self.table(k - 1, f0);
        }
        let x = Val::Input(k - 1);
        let v0 = self.table(k - 1, f0);
        let v1 = self.table(k - 1, f1);
        // mux(x, v1, v0); the maj/not simplifications absorb the constant
        // cofactors (v1 = 1 → x | v0, v0 = 0 → x & v1, ...).
        let hi = self.and(x, v1);
        let nx = self.not(x);
        let lo = self.and(nx, v0);
        self.or(hi, lo)
    }

    fn expr(&mut self, e: &Expr) -> Val {
        match e {
            Expr::Input(j) => Val::Input(*j),
            Expr::Const(false) => Val::Zero,
            Expr::Const(true) => Val::One,
            Expr::Not(e) => {
                let v = self.expr(e);
                self.not(v)
            }
            Expr::And(a, b) => {
                let (a, b) = (self.expr(a), self.expr(b));
                self.and(a, b)
            }
            Expr::Or(a, b) => {
                let (a, b) = (self.expr(a), self.expr(b));
                self.or(a, b)
            }
            Expr::Xor(a, b) => {
                let (a, b) = (self.expr(a), self.expr(b));
                self.xor(a, b)
            }
            Expr::Maj(a, b, c) => {
                let (a, b, c) = (self.expr(a), self.expr(b), self.expr(c));
                self.maj(a, b, c)
            }
        }
    }
}

/// Replays `steps` through a fresh lowerer, remapping operands. With
/// `memoize` this is the CSE pass: structurally identical steps collapse
/// to one, and the re-simplification rules fire again on operands that
/// became equal under canonicalization.
fn replay(
    steps: &[LowStep],
    outputs: &[Val],
    memoize: bool,
) -> (Vec<LowStep>, Vec<Val>, usize) {
    let mut lw = Lowerer::new(memoize, false);
    let mut map: Vec<Val> = Vec::with_capacity(steps.len());
    let tr = |v: Val, map: &[Val]| match v {
        Val::Step(s) => map[s],
        other => other,
    };
    for step in steps {
        let val = match *step {
            LowStep::Not(v) => {
                let v = tr(v, &map);
                lw.not(v)
            }
            LowStep::Maj(a, b, c) => {
                let (a, b, c) = (tr(a, &map), tr(b, &map), tr(c, &map));
                lw.maj(a, b, c)
            }
        };
        map.push(val);
    }
    let outputs = outputs.iter().map(|&v| tr(v, &map)).collect();
    (lw.steps, outputs, lw.cse_hits)
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
        let operands = match steps[s] {
            LowStep::Not(v) => [Some(v), None, None],
            LowStep::Maj(a, b, c) => [Some(a), Some(b), Some(c)],
        };
        for v in operands.into_iter().flatten() {
            if let Val::Step(dep) = v {
                stack.push(dep);
            }
        }
    }
    let mut remap = vec![usize::MAX; steps.len()];
    let mut kept = Vec::new();
    for (s, step) in steps.iter().enumerate() {
        if !live[s] {
            continue;
        }
        let tr = |v: Val, remap: &[usize]| match v {
            Val::Step(old) => Val::Step(remap[old]),
            other => other,
        };
        let mapped = match *step {
            LowStep::Not(v) => LowStep::Not(tr(v, &remap)),
            LowStep::Maj(a, b, c) => {
                LowStep::Maj(tr(a, &remap), tr(b, &remap), tr(c, &remap))
            }
        };
        remap[s] = kept.len();
        kept.push(mapped);
    }
    let outputs = outputs
        .iter()
        .map(|&v| match v {
            Val::Step(s) => Val::Step(remap[s]),
            other => other,
        })
        .collect();
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
    /// A standard bbop (`Not`, `And`, `Or`, `Copy`, `InitZero`, `InitOne`).
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
    /// Selected `Not` steps.
    pub not_steps: usize,
    /// Trailing output-write steps (`Copy`/`InitZero`/`InitOne`).
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
/// Rejects an empty batch, mismatched arities, and programs exceeding
/// [`SynthOptions::max_scratch`].
pub fn synthesize(funcs: &[BoolFunc], opts: &SynthOptions) -> Result<SynthProgram> {
    if funcs.is_empty() {
        return Err(synth_err("no functions to synthesize"));
    }
    let inputs = funcs[0].inputs;
    if funcs.iter().any(|f| f.inputs != inputs) {
        return Err(synth_err("all functions in a batch must share an arity"));
    }
    let mut lw = Lowerer::new(false, opts.bitwise_only);
    let outputs: Vec<Val> = funcs.iter().map(|f| lw.table(f.inputs, f.table)).collect();
    finish(lw, outputs, funcs.to_vec(), opts)
}

/// Compiles a batch of expressions over `inputs` shared variables.
///
/// # Errors
///
/// Rejects empty batches, out-of-range input references, arities outside
/// `1..=6`, and programs exceeding [`SynthOptions::max_scratch`].
pub fn synthesize_exprs(
    inputs: usize,
    exprs: &[Expr],
    opts: &SynthOptions,
) -> Result<SynthProgram> {
    if exprs.is_empty() {
        return Err(synth_err("no expressions to synthesize"));
    }
    let funcs = exprs
        .iter()
        .map(|e| BoolFunc::from_expr(inputs, e))
        .collect::<Result<Vec<_>>>()?;
    let mut lw = Lowerer::new(false, opts.bitwise_only);
    let outputs: Vec<Val> = exprs.iter().map(|e| lw.expr(e)).collect();
    finish(lw, outputs, funcs, opts)
}

/// Shared backend: optimize, allocate scratch registers, select steps.
fn finish(
    lw: Lowerer,
    mut outputs: Vec<Val>,
    funcs: Vec<BoolFunc>,
    opts: &SynthOptions,
) -> Result<SynthProgram> {
    let inputs = funcs[0].inputs;
    let mut steps = lw.steps;
    let mut stats = SynthStats { lowered_steps: steps.len(), ..SynthStats::default() };

    if opts.cse {
        let before = steps.len();
        let (s, o, _) = replay(&steps, &outputs, true);
        stats.cse_removed = before - s.len();
        steps = s;
        outputs = o;
    }
    if opts.dead_step_elim {
        let (s, o, removed) = eliminate_dead(&steps, &outputs);
        stats.dead_removed = removed;
        steps = s;
        outputs = o;
    }

    // Scratch-row register allocation: each step value occupies one
    // designated row from its definition to its last use; rows are reused
    // as soon as their value dies. Values feeding an output stay live
    // until the trailing copies at the end.
    let mut last_use = vec![0usize; steps.len()];
    for (i, step) in steps.iter().enumerate() {
        let operands = match *step {
            LowStep::Not(v) => [Some(v), None, None],
            LowStep::Maj(a, b, c) => [Some(a), Some(b), Some(c)],
        };
        for v in operands.into_iter().flatten() {
            if let Val::Step(s) = v {
                last_use[s] = i;
            }
        }
    }
    for v in &outputs {
        if let Val::Step(s) = v {
            last_use[*s] = steps.len();
        }
    }

    let mut reg_of = vec![usize::MAX; steps.len()];
    let mut free: Vec<usize> = Vec::new();
    let mut high_water = 0usize;
    let mut compiled: Vec<SynthStep> = Vec::with_capacity(steps.len() + outputs.len());
    // Constants resolve to None: a Maj keeps at most one constant operand
    // (two would have folded), and selection turns it into And/Or, whose
    // control row the op program supplies.
    let slot = |v: Val, reg_of: &[usize]| -> Option<SlotRef> {
        match v {
            Val::Input(j) => Some(SlotRef::Input(j)),
            Val::Step(s) => Some(SlotRef::Scratch(reg_of[s])),
            Val::Zero | Val::One => None,
        }
    };
    for (i, step) in steps.iter().enumerate() {
        // Resolve operand slots before retiring their registers.
        let resolved = match *step {
            LowStep::Not(v) => [slot(v, &reg_of), None, None],
            LowStep::Maj(a, b, c) => {
                [slot(a, &reg_of), slot(b, &reg_of), slot(c, &reg_of)]
            }
        };
        // Free dying operand registers before acquiring the destination:
        // a step may legally overwrite one of its own sources, because the
        // device stages sources into the B-group before the destination
        // row is touched.
        let operands = match *step {
            LowStep::Not(v) => [Some(v), None, None],
            LowStep::Maj(a, b, c) => [Some(a), Some(b), Some(c)],
        };
        for v in operands.into_iter().flatten() {
            if let Val::Step(s) = v {
                if last_use[s] == i && reg_of[s] != usize::MAX {
                    free.push(reg_of[s]);
                    // Several operands may share a value; free it once.
                    reg_of[s] = usize::MAX;
                }
            }
        }
        let reg = free.pop().unwrap_or_else(|| {
            high_water += 1;
            high_water - 1
        });
        reg_of[i] = reg;
        let dst = SlotRef::Scratch(reg);
        compiled.push(match *step {
            LowStep::Not(_) => {
                stats.not_steps += 1;
                SynthStep::Bitwise {
                    op: BitwiseOp::Not,
                    src1: resolved[0].expect("not has one operand"),
                    src2: None,
                    dst,
                }
            }
            LowStep::Maj(a, b, c) => {
                let vals = [a, b, c];
                let live: Vec<SlotRef> = vals
                    .iter()
                    .zip(resolved.iter())
                    .filter(|(v, _)| !v.is_const())
                    .map(|(_, s)| s.expect("maj has three operands"))
                    .collect();
                match vals.iter().find(|v| v.is_const()) {
                    Some(Val::Zero) => {
                        stats.and_or_steps += 1;
                        SynthStep::Bitwise {
                            op: BitwiseOp::And,
                            src1: live[0],
                            src2: Some(live[1]),
                            dst,
                        }
                    }
                    Some(Val::One) => {
                        stats.and_or_steps += 1;
                        SynthStep::Bitwise {
                            op: BitwiseOp::Or,
                            src1: live[0],
                            src2: Some(live[1]),
                            dst,
                        }
                    }
                    _ => {
                        stats.maj3_steps += 1;
                        SynthStep::Maj3 {
                            a: resolved[0].expect("maj has three operands"),
                            b: resolved[1].expect("maj has three operands"),
                            c: resolved[2].expect("maj has three operands"),
                            dst,
                        }
                    }
                }
            }
        });
        // Dead-store guard: with DSE off a step may have no users at all;
        // its register frees immediately after the step.
        if last_use[i] <= i {
            free.push(reg);
            reg_of[i] = usize::MAX;
        }
    }

    // Trailing output writes: destinations are only written after every
    // input read, so a destination handle may alias an input (pre-op read
    // semantics, as in the eager driver and the golden model).
    for (k, v) in outputs.iter().enumerate() {
        stats.output_steps += 1;
        let dst = SlotRef::Output(k);
        compiled.push(match *v {
            Val::Zero => SynthStep::Bitwise {
                op: BitwiseOp::InitZero,
                src1: dst,
                src2: None,
                dst,
            },
            Val::One => SynthStep::Bitwise {
                op: BitwiseOp::InitOne,
                src1: dst,
                src2: None,
                dst,
            },
            Val::Input(j) => SynthStep::Bitwise {
                op: BitwiseOp::Copy,
                src1: SlotRef::Input(j),
                src2: None,
                dst,
            },
            Val::Step(s) => SynthStep::Bitwise {
                op: BitwiseOp::Copy,
                src1: SlotRef::Scratch(reg_of[s]),
                src2: None,
                dst,
            },
        });
    }

    if let Some(budget) = opts.max_scratch {
        if high_water > budget {
            return Err(synth_err(format!(
                "program needs {high_water} scratch rows, budget is {budget}"
            )));
        }
    }

    Ok(SynthProgram {
        inputs,
        outputs: outputs.len(),
        scratch: high_water,
        steps: compiled,
        funcs,
        stats,
    })
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
        let d = RowAddress::D(0);
        let (mut aaps, mut aps) = (0, 0);
        for step in &self.steps {
            let program = match step {
                SynthStep::Bitwise { op, .. } => {
                    let src2 = (op.source_count() == 2).then_some(d);
                    ops::compile(*op, d, src2, d).expect("arity is fixed by selection")
                }
                SynthStep::Maj3 { .. } => ops::compile_majority(d, d, d, d),
            };
            let (a, p) = command_counts(&program);
            aaps += a;
            aps += p;
        }
        (aaps, aps)
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
        if scratch.len() < self.scratch {
            return Err(synth_err(format!(
                "program needs {} scratch row(s), {} given",
                self.scratch,
                scratch.len()
            )));
        }
        Ok(())
    }

    /// Appends the compiled schedule to `batch` over concrete handles.
    /// Scratch handles must be co-located with the operands (same length,
    /// same allocation group). Output handles may alias input handles; the
    /// schedule reads all inputs before its trailing output writes.
    ///
    /// # Errors
    ///
    /// Rejects mismatched input/output counts and short scratch sets.
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
    /// Rejects mismatched handle counts and propagates driver errors.
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
    /// Rejects mismatched handle counts; propagates allocation and
    /// execution errors.
    pub fn run(
        &self,
        mem: &mut AmbitMemory,
        policy: IssuePolicy,
        inputs: &[BitVectorHandle],
        outputs: &[BitVectorHandle],
    ) -> Result<BatchReceipt> {
        if inputs.is_empty() {
            return Err(synth_err("run requires at least one input handle"));
        }
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
            let flat = synthesize(
                &[f],
                &SynthOptions { bitwise_only: true, ..SynthOptions::default() },
            )
            .unwrap();
            assert!(flat.is_bitwise_only(), "table {table:#x} kept a Maj3");
            exhaustive_check(&flat, &[f]);
        }
    }

    #[test]
    fn expression_front_end_matches_truth_tables() {
        // maj(a, b, c) ^ !(a & c)
        let e = Expr::maj(Expr::input(0), Expr::input(1), Expr::input(2))
            .xor(Expr::input(0).and(Expr::input(2)).not());
        let f = BoolFunc::from_expr(3, &e).unwrap();
        let plan = synthesize_exprs(3, &[e], &SynthOptions::default()).unwrap();
        exhaustive_check(&plan, &[f]);
    }

    #[test]
    fn cse_and_dse_preserve_semantics_and_shrink_programs() {
        let full_adder = [
            BoolFunc::from_fn(3, |i| i.count_ones() & 1 == 1).unwrap(),
            BoolFunc::from_fn(3, |i| i.count_ones() >= 2).unwrap(),
        ];
        let opt = synthesize(&full_adder, &SynthOptions::default()).unwrap();
        let naive = synthesize(
            &full_adder,
            &SynthOptions {
                cse: false,
                dead_step_elim: false,
                ..SynthOptions::default()
            },
        )
        .unwrap();
        exhaustive_check(&opt, &full_adder);
        exhaustive_check(&naive, &full_adder);
        assert!(opt.steps().len() <= naive.steps().len());
        assert!(opt.stats().cse_removed > 0, "full adder has shared subterms");
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
    fn scratch_budget_is_enforced() {
        let f = BoolFunc::from_fn(3, |i| i.count_ones() & 1 == 1).unwrap();
        let plan = synthesize(&[f], &SynthOptions::default()).unwrap();
        assert!(plan.scratch_rows() > 0);
        let starved = synthesize(
            &[f],
            &SynthOptions {
                max_scratch: Some(plan.scratch_rows() - 1),
                ..SynthOptions::default()
            },
        );
        assert!(matches!(starved, Err(AmbitError::Synthesis { .. })));
        // A budget exactly at the high-water mark passes.
        synthesize(
            &[f],
            &SynthOptions {
                max_scratch: Some(plan.scratch_rows()),
                ..SynthOptions::default()
            },
        )
        .unwrap();
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
        assert!(BoolFunc::from_expr(2, &Expr::input(5)).is_err());
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
        // f = a & b compiles to one And (4 AAPs) plus one output copy
        // (1 AAP).
        let f = BoolFunc::from_table(2, 0b1000).unwrap();
        let plan = synthesize(&[f], &SynthOptions::default()).unwrap();
        assert_eq!(plan.aap_cost(), (5, 0));
    }
}
