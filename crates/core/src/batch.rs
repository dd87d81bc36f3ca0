//! Batched, bank-parallel execution of bulk bitwise operations.
//!
//! The paper's headline throughput (Section 7.1, Figure 9) assumes all
//! banks operate in parallel: each bank sustains an independent pipeline of
//! AAP programs, and the analytic envelope in
//! [`AmbitConfig`](crate::AmbitConfig) scales linearly with the bank count.
//! [`AmbitMemory::bitwise`](crate::AmbitMemory::bitwise) realizes that
//! parallelism only *within* one multi-chunk vector; a workload made of many
//! single-chunk operations still issues them serially.
//!
//! A [`BatchBuilder`] collects a set of bulk operations — with dependencies
//! between them inferred from handle reuse (read-after-write,
//! write-after-write, write-after-read) or declared explicitly — and
//! [`AmbitMemory::execute_batch`](crate::AmbitMemory::execute_batch) plans
//! them into dependency *waves*: every op in a wave is mutually independent,
//! so their chunk programs issue back-to-back and overlap across banks on
//! the shared [`CommandTimer`](ambit_dram::CommandTimer) timeline, SIMDRAM
//! style (Hajinazar et al., ASPLOS'21). A wave barrier separates dependent
//! ops.

use crate::controller::OpReceipt;
use crate::driver::BitVectorHandle;
use crate::error::{AmbitError, Result};
use crate::idhash::IdHashMap;
use crate::ops::BitwiseOp;

/// Identifier of one operation inside a [`BatchBuilder`], returned by the
/// builder methods and usable as a dependency anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(pub(crate) usize);

impl OpId {
    /// The op's position in the batch (its submission order).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// How `execute_batch` clocks the planned chunk programs. The policy sets
/// only simulated time: the memory image and device stats do not depend on
/// it, and host threads come from
/// [`set_pool_threads`](crate::AmbitMemory::set_pool_threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IssuePolicy {
    /// Issue ops strictly one after another: each op's programs start only
    /// after the previous op's last precharge completes. This is the
    /// baseline the bank-parallel speedup is measured against.
    Serial,
    /// Issue every op of a dependency wave back-to-back so chunk programs
    /// on different banks overlap in simulated time; a timing barrier
    /// separates consecutive waves.
    #[default]
    BankParallel,
    /// A synonym of [`BankParallel`](Self::BankParallel), kept only for
    /// source compatibility; spell `BankParallel`.
    BankParallelThreaded,
}

/// Receipt for one executed batch: the merged timing/energy window, per-op
/// receipts, and per-bank occupancy attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReceipt {
    /// Merged window across every op: earliest start, latest end, summed
    /// energy and command counts.
    pub total: OpReceipt,
    /// Per-op receipts, indexed by [`OpId::index`].
    pub per_op: Vec<OpReceipt>,
    /// Dependency waves the batch was planned into.
    pub waves: usize,
    /// Open-row busy time each timing pipeline (bank, or `(bank, subarray)`
    /// under SALP) accumulated *during this batch only*, picoseconds — the
    /// per-batch delta of the timer's cumulative busy attribution, so a
    /// pipeline this batch never touched reads zero even if earlier batches
    /// used it. Indexed by pipeline id; the vector's length covers every
    /// pipeline the timer has ever tracked, not just the ones this batch
    /// used.
    pub bank_busy_ps: Vec<u64>,
}

impl BatchReceipt {
    /// Wall-clock simulated time from the batch's first command to its last
    /// precharge.
    pub fn makespan_ps(&self) -> u64 {
        self.total.latency_ps()
    }

    /// Timing pipelines that did work during this batch.
    pub fn banks_used(&self) -> usize {
        self.bank_busy_ps.iter().filter(|&&b| b > 0).count()
    }
}

/// One queued operation: the same shapes the eager
/// [`AmbitMemory`](crate::AmbitMemory) entry points accept.
///
/// `PartialEq`/`Eq`/`Hash` make the op usable as the driver's
/// compiled-program cache key: handles are never reused after `free`, so an
/// op value identifies a (handle set, shape) pair for the life of the cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum BatchOp {
    /// `dst = op(src1, src2)`.
    Bitwise {
        op: BitwiseOp,
        src1: BitVectorHandle,
        src2: Option<BitVectorHandle>,
        dst: BitVectorHandle,
    },
    /// `dst = majority(a, b, c)`.
    Maj3 {
        a: BitVectorHandle,
        b: BitVectorHandle,
        c: BitVectorHandle,
        dst: BitVectorHandle,
    },
    /// `dst = srcs[0] op … op srcs[k−1]` (associative fold).
    Fold {
        op: BitwiseOp,
        srcs: Vec<BitVectorHandle>,
        dst: BitVectorHandle,
    },
}

impl BatchOp {
    /// Handles the op reads, in operand order (the destination is excluded
    /// even when it is also a source — that in-place hazard is covered by
    /// the write). Walks the op in place, without allocating.
    pub(crate) fn reads(&self) -> impl Iterator<Item = BitVectorHandle> + '_ {
        let (fixed, srcs): ([Option<BitVectorHandle>; 3], &[BitVectorHandle]) = match self {
            BatchOp::Bitwise { src1, src2, .. } => ([Some(*src1), *src2, None], &[]),
            BatchOp::Maj3 { a, b, c, .. } => ([Some(*a), Some(*b), Some(*c)], &[]),
            BatchOp::Fold { srcs, .. } => ([None; 3], srcs),
        };
        fixed.into_iter().flatten().chain(srcs.iter().copied())
    }

    /// The handle the op writes.
    pub(crate) fn writes(&self) -> BitVectorHandle {
        match self {
            BatchOp::Bitwise { dst, .. }
            | BatchOp::Maj3 { dst, .. }
            | BatchOp::Fold { dst, .. } => *dst,
        }
    }

    /// Whether the op references `handle` as a source or destination —
    /// the plan-cache eviction predicate
    /// [`AmbitMemory::free`](crate::AmbitMemory::free) uses to drop exactly
    /// the cached plans a freed handle invalidates.
    pub(crate) fn involves(&self, handle: BitVectorHandle) -> bool {
        self.writes() == handle || self.reads().any(|r| r == handle)
    }

    /// Telemetry mnemonic, matching what the eager entry points record.
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            BatchOp::Bitwise { op, .. } => op.mnemonic(),
            BatchOp::Maj3 { .. } => "maj3",
            BatchOp::Fold { op: BitwiseOp::And, .. } => "fold_and",
            BatchOp::Fold { op: BitwiseOp::Or, .. } => "fold_or",
            BatchOp::Fold { op, .. } => op.mnemonic(),
        }
    }
}

/// A read-only view of one queued batch operation: the operation kind, the
/// handles it reads, and the handle it writes.
///
/// This is the introspection surface golden models and conformance oracles
/// use to recompute a batch's expected results on the CPU without executing
/// it — the view mirrors exactly what
/// [`execute_batch`](crate::AmbitMemory::execute_batch) will run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOpView {
    /// Telemetry mnemonic of the operation (`bbop_and`, `maj3`,
    /// `fold_or`, …).
    pub mnemonic: &'static str,
    /// The bitwise operation, for ops that are a plain
    /// [`BitwiseOp`] application ([`None`] for majority).
    pub op: Option<BitwiseOp>,
    /// Handles the op reads, in operand order (destination excluded even
    /// when it is also a source).
    pub reads: Vec<BitVectorHandle>,
    /// The handle the op writes.
    pub writes: BitVectorHandle,
}

/// Builder for a batch of bulk bitwise operations with inter-op
/// dependencies.
///
/// Data dependencies are inferred automatically from handle reuse: an op
/// reading a handle a prior op wrote (RAW), writing a handle a prior op
/// wrote (WAW), or writing a handle a prior op read (WAR) is ordered after
/// that op. [`depends_on`](Self::depends_on) adds explicit edges for
/// orderings the handles do not capture.
///
/// # Examples
///
/// ```
/// use ambit_core::{AmbitMemory, BatchBuilder, BitwiseOp, IssuePolicy};
///
/// let mut mem = AmbitMemory::ddr3_module();
/// let bits = mem.row_bits();
/// let a = mem.alloc(bits)?;
/// let b = mem.alloc(bits)?;
/// let t = mem.alloc(bits)?;
/// let out = mem.alloc(bits)?;
/// mem.poke_bits(a, &vec![true; bits])?;
/// mem.poke_bits(b, &vec![false; bits])?;
///
/// let mut batch = BatchBuilder::new();
/// let and = batch.bitwise(BitwiseOp::And, a, Some(b), t);
/// let not = batch.bitwise(BitwiseOp::Not, t, None, out); // RAW on t
/// assert_eq!(and.index(), 0);
/// assert_eq!(not.index(), 1);
/// let receipt = mem.execute_batch(&batch, IssuePolicy::BankParallel)?;
/// assert_eq!(receipt.per_op.len(), 2);
/// assert_eq!(mem.popcount(out)?, bits);
/// # Ok::<(), ambit_core::AmbitError>(())
/// ```
#[derive(Debug, Default)]
pub struct BatchBuilder {
    pub(crate) ops: Vec<BatchOp>,
    /// Explicit `(later, earlier)` edges added via `depends_on`.
    pub(crate) explicit: Vec<(usize, usize)>,
}

impl BatchBuilder {
    /// An empty batch.
    pub fn new() -> Self {
        BatchBuilder::default()
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Queues `dst = op(src1, src2)` (the shape of
    /// [`AmbitMemory::bitwise`](crate::AmbitMemory::bitwise)).
    pub fn bitwise(
        &mut self,
        op: BitwiseOp,
        src1: BitVectorHandle,
        src2: Option<BitVectorHandle>,
        dst: BitVectorHandle,
    ) -> OpId {
        self.push(BatchOp::Bitwise { op, src1, src2, dst })
    }

    /// Queues `dst = majority(a, b, c)` (the shape of
    /// [`AmbitMemory::bitwise_maj3`](crate::AmbitMemory::bitwise_maj3)).
    pub fn maj3(
        &mut self,
        a: BitVectorHandle,
        b: BitVectorHandle,
        c: BitVectorHandle,
        dst: BitVectorHandle,
    ) -> OpId {
        self.push(BatchOp::Maj3 { a, b, c, dst })
    }

    /// Queues a k-way accumulation (the shape of
    /// [`AmbitMemory::bitwise_fold`](crate::AmbitMemory::bitwise_fold)).
    pub fn fold(&mut self, op: BitwiseOp, srcs: &[BitVectorHandle], dst: BitVectorHandle) -> OpId {
        self.push(BatchOp::Fold {
            op,
            srcs: srcs.to_vec(),
            dst,
        })
    }

    /// Adds an explicit edge: `op` must execute after `dep`. Use for
    /// orderings invisible to the handle-based hazard analysis (e.g. ops
    /// that communicate through host-side reads between batches).
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::UnknownOp`] if either id is not from this
    /// batch, and [`AmbitError::DependencyCycle`] for a self-edge.
    pub fn depends_on(&mut self, op: OpId, dep: OpId) -> Result<()> {
        for id in [op, dep] {
            if id.0 >= self.ops.len() {
                return Err(AmbitError::UnknownOp { id: id.0 });
            }
        }
        if op == dep {
            return Err(AmbitError::DependencyCycle { op: op.0 });
        }
        self.explicit.push((op.0, dep.0));
        Ok(())
    }

    fn push(&mut self, op: BatchOp) -> OpId {
        self.ops.push(op);
        OpId(self.ops.len() - 1)
    }

    /// Read-only views of every queued op, in submission order — the
    /// program-introspection hook for golden models (see [`BatchOpView`]).
    pub fn op_views(&self) -> Vec<BatchOpView> {
        self.ops
            .iter()
            .map(|o| BatchOpView {
                mnemonic: o.mnemonic(),
                op: match o {
                    BatchOp::Bitwise { op, .. } | BatchOp::Fold { op, .. } => Some(*op),
                    BatchOp::Maj3 { .. } => None,
                },
                reads: o.reads().collect(),
                writes: o.writes(),
            })
            .collect()
    }

    /// Plans the batch into dependency waves: every op in a wave is
    /// independent of every other op in the same wave, and depends only on
    /// ops in earlier waves. Waves preserve submission order internally.
    ///
    /// An op's wave is its *level*: the length of the longest dependency
    /// path that ends at it (ops with no dependencies are level 0). That is
    /// exactly the partition Kahn's algorithm run level by level produces,
    /// but computed in one topological pass over an in-degree queue, so
    /// planning costs O(ops + edges) — edges being the explicit ones plus at
    /// most one RAW/WAW edge per operand and one WAR edge per earlier read.
    /// One pass suffices even though explicit
    /// [`depends_on`](Self::depends_on) edges may point forward in
    /// submission order: an op is levelled only once all its dependencies
    /// are.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::EmptyBatch`] for an empty builder.
    /// * [`AmbitError::DependencyCycle`] if the explicit edges close a
    ///   cycle (handle-inferred edges alone always point backwards and
    ///   cannot). `op` is the lowest index the pass could not place: an op
    ///   on the cycle or downstream of it.
    pub(crate) fn waves(&self) -> Result<Vec<Vec<usize>>> {
        let n = self.ops.len();
        if n == 0 {
            return Err(AmbitError::EmptyBatch);
        }
        // `(earlier, later)` edges, duplicates allowed: in-degrees count
        // them with the same multiplicity the queue pass decrements them.
        let mut edges: Vec<(usize, usize)> = self
            .explicit
            .iter()
            .map(|&(later, earlier)| (earlier, later))
            .collect();
        // Hazard analysis over raw handle ids, in submission order.
        let mut last_writer: IdHashMap<u64, usize> = IdHashMap::default();
        let mut readers_since_write: IdHashMap<u64, Vec<usize>> = IdHashMap::default();
        for (i, op) in self.ops.iter().enumerate() {
            for r in op.reads() {
                if let Some(&w) = last_writer.get(&r.0) {
                    edges.push((w, i)); // RAW
                }
                readers_since_write.entry(r.0).or_default().push(i);
            }
            let d = op.writes();
            if let Some(&w) = last_writer.get(&d.0) {
                edges.push((w, i)); // WAW
            }
            if let Some(readers) = readers_since_write.get_mut(&d.0) {
                edges.extend(readers.iter().filter(|&&r| r != i).map(|&r| (r, i))); // WAR
                readers.clear();
            }
            last_writer.insert(d.0, i);
        }

        // Successor lists in compressed form: `succ[start[v]..start[v + 1]]`.
        let mut start = vec![0usize; n + 1];
        let mut indegree = vec![0usize; n];
        for &(from, to) in &edges {
            start[from + 1] += 1;
            indegree[to] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut succ = vec![0usize; edges.len()];
        for &(from, to) in &edges {
            succ[fill[from]] = to;
            fill[from] += 1;
        }

        // One topological pass: an op's level is final when its last
        // dependency is dequeued.
        let mut level = vec![0usize; n];
        let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &w in &succ[start[v]..start[v + 1]] {
                level[w] = level[w].max(level[v] + 1);
                indegree[w] -= 1;
                if indegree[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if queue.len() < n {
            let op = (0..n).find(|&v| indegree[v] > 0).unwrap_or(0);
            return Err(AmbitError::DependencyCycle { op });
        }

        let depth = level.iter().max().map_or(0, |&l| l + 1);
        let mut waves = vec![Vec::new(); depth];
        for (i, &l) in level.iter().enumerate() {
            waves[l].push(i);
        }
        Ok(waves)
    }

    /// The level-by-level Kahn planner [`waves`](Self::waves) replaced,
    /// kept as its test oracle: each round rescans every op and places all
    /// whose dependencies are placed.
    #[cfg(test)]
    pub(crate) fn waves_by_levels(&self) -> Result<Vec<Vec<usize>>> {
        use std::collections::{HashMap, HashSet};
        let n = self.ops.len();
        if n == 0 {
            return Err(AmbitError::EmptyBatch);
        }
        let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        for &(later, earlier) in &self.explicit {
            deps[later].insert(earlier);
        }
        let mut last_writer: HashMap<u64, usize> = HashMap::new();
        let mut readers_since_write: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            for r in op.reads() {
                if let Some(&w) = last_writer.get(&r.0) {
                    deps[i].insert(w);
                }
                readers_since_write.entry(r.0).or_default().push(i);
            }
            let d = op.writes();
            if let Some(&w) = last_writer.get(&d.0) {
                deps[i].insert(w);
            }
            for &r in readers_since_write.get(&d.0).map_or(&[][..], |v| v) {
                if r != i {
                    deps[i].insert(r);
                }
            }
            last_writer.insert(d.0, i);
            readers_since_write.insert(d.0, Vec::new());
        }

        let mut remaining: Vec<HashSet<usize>> = deps;
        let mut placed = vec![false; n];
        let mut waves = Vec::new();
        let mut done = 0;
        while done < n {
            let wave: Vec<usize> = (0..n)
                .filter(|&i| !placed[i] && remaining[i].is_empty())
                .collect();
            if wave.is_empty() {
                let op = (0..n).find(|&i| !placed[i]).unwrap_or(0);
                return Err(AmbitError::DependencyCycle { op });
            }
            for &i in &wave {
                placed[i] = true;
            }
            done += wave.len();
            for r in remaining.iter_mut() {
                for &i in &wave {
                    r.remove(&i);
                }
            }
            waves.push(wave);
        }
        Ok(waves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(id: u64) -> BitVectorHandle {
        BitVectorHandle(id)
    }

    #[test]
    fn independent_ops_form_one_wave() {
        let mut b = BatchBuilder::new();
        for i in 0..4u64 {
            b.bitwise(
                BitwiseOp::And,
                handle(3 * i),
                Some(handle(3 * i + 1)),
                handle(3 * i + 2),
            );
        }
        assert_eq!(b.waves().unwrap(), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn raw_waw_war_hazards_order_waves() {
        let mut b = BatchBuilder::new();
        // op0: t = a & b; op1: out = !t (RAW on t); op2: t = c | d (WAR
        // against op1's read, WAW against op0's write).
        b.bitwise(BitwiseOp::And, handle(0), Some(handle(1)), handle(2));
        b.bitwise(BitwiseOp::Not, handle(2), None, handle(3));
        b.bitwise(BitwiseOp::Or, handle(4), Some(handle(5)), handle(2));
        assert_eq!(b.waves().unwrap(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn in_place_accumulation_chains() {
        let mut b = BatchBuilder::new();
        // acc = acc | p_i three times: each op both reads and writes acc.
        for i in 0..3u64 {
            b.bitwise(BitwiseOp::Or, handle(0), Some(handle(i + 1)), handle(0));
        }
        assert_eq!(b.waves().unwrap(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn shared_read_only_operand_does_not_serialize() {
        let mut b = BatchBuilder::new();
        b.bitwise(BitwiseOp::Not, handle(0), None, handle(1));
        b.bitwise(BitwiseOp::Not, handle(0), None, handle(2));
        assert_eq!(b.waves().unwrap(), vec![vec![0, 1]]);
    }

    #[test]
    fn explicit_dependency_edges() {
        let mut b = BatchBuilder::new();
        let x = b.bitwise(BitwiseOp::Not, handle(0), None, handle(1));
        let y = b.bitwise(BitwiseOp::Not, handle(2), None, handle(3));
        b.depends_on(y, x).unwrap();
        assert_eq!(b.waves().unwrap(), vec![vec![0], vec![1]]);
    }

    #[test]
    fn cycle_and_bad_ids_are_typed_errors() {
        let mut b = BatchBuilder::new();
        let x = b.bitwise(BitwiseOp::Not, handle(0), None, handle(1));
        let y = b.bitwise(BitwiseOp::Not, handle(2), None, handle(3));
        assert_eq!(
            b.depends_on(x, x).unwrap_err(),
            AmbitError::DependencyCycle { op: 0 }
        );
        assert_eq!(
            b.depends_on(x, OpId(7)).unwrap_err(),
            AmbitError::UnknownOp { id: 7 }
        );
        b.depends_on(y, x).unwrap();
        b.depends_on(x, y).unwrap();
        assert!(matches!(
            b.waves().unwrap_err(),
            AmbitError::DependencyCycle { .. }
        ));
    }

    #[test]
    fn empty_batch_rejected() {
        assert_eq!(
            BatchBuilder::new().waves().unwrap_err(),
            AmbitError::EmptyBatch
        );
    }

    #[test]
    fn forward_explicit_edge_reorders_waves() {
        let mut b = BatchBuilder::new();
        let x = b.bitwise(BitwiseOp::Not, handle(0), None, handle(1));
        b.bitwise(BitwiseOp::Not, handle(2), None, handle(3));
        let z = b.bitwise(BitwiseOp::Not, handle(3), None, handle(4)); // RAW on op 1
        b.depends_on(x, z).unwrap(); // points forward in submission order
        assert_eq!(b.waves().unwrap(), vec![vec![1], vec![2], vec![0]]);
        assert_eq!(b.waves(), b.waves_by_levels());
    }

    #[test]
    fn cycle_reports_lowest_unplaced_op() {
        let mut b = BatchBuilder::new();
        for i in 0..4u64 {
            b.bitwise(BitwiseOp::Not, handle(2 * i), None, handle(2 * i + 1));
        }
        // 0 is free; 1 waits on the 2 <-> 3 cycle, so it is unplaced too.
        b.depends_on(OpId(1), OpId(2)).unwrap();
        b.depends_on(OpId(2), OpId(3)).unwrap();
        b.depends_on(OpId(3), OpId(2)).unwrap();
        assert_eq!(b.waves(), Err(AmbitError::DependencyCycle { op: 1 }));
        assert_eq!(b.waves(), b.waves_by_levels());
    }

    #[test]
    fn maj3_and_fold_hazards_tracked() {
        let mut b = BatchBuilder::new();
        b.maj3(handle(0), handle(1), handle(2), handle(3));
        b.fold(BitwiseOp::Or, &[handle(3), handle(4)], handle(5));
        assert_eq!(b.waves().unwrap(), vec![vec![0], vec![1]]);
    }

    mod oracle {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// An op kind and three handle draws, reduced modulo the case's
        /// handle pool: a small pool makes RAW, WAW and WAR hazards (in-place
        /// ops and repeated fold operands included) dense, a large one
        /// leaves room for forward explicit edges that close no cycle.
        type Shape = (u8, u64, u64, u64);

        fn batch(shapes: &[Shape], pool: u64, edges: &[(usize, usize)]) -> BatchBuilder {
            let mut b = BatchBuilder::new();
            for &(kind, x, y, z) in shapes {
                let (x, y, z) = (x % pool, y % pool, z % pool);
                match kind {
                    0 => b.bitwise(BitwiseOp::And, handle(x), Some(handle(y)), handle(z)),
                    1 => b.bitwise(BitwiseOp::Not, handle(x), None, handle(z)),
                    2 => b.maj3(handle(x), handle(y), handle(z), handle((x + y) % pool)),
                    _ => b.fold(BitwiseOp::Or, &[handle(x), handle(y), handle(x)], handle(z)),
                };
            }
            let n = shapes.len();
            for &(op, dep) in edges {
                if op % n != dep % n {
                    b.depends_on(OpId(op % n), OpId(dep % n)).unwrap();
                }
            }
            b
        }

        fn shapes() -> impl Strategy<Value = Vec<Shape>> {
            vec((0u8..4, 0u64..64, 0u64..64, 0u64..64), 2..40)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Random hazard DAGs plus explicit edges in either direction
            /// (forward ones included, which sometimes close a cycle): the
            /// linear planner returns the oracle's waves, or its
            /// `DependencyCycle { op }`.
            #[test]
            fn linear_planner_matches_kahn_oracle(
                shapes in shapes(),
                pool in 3u64..64,
                edges in vec((0usize..40, 0usize..40), 0..6),
            ) {
                let b = batch(&shapes, pool, &edges);
                prop_assert_eq!(b.waves(), b.waves_by_levels());
            }

            /// The same batches with an explicit cycle injected through
            /// 2–4 distinct ops: both planners fail on the same op.
            #[test]
            fn injected_cycles_match_kahn_oracle(
                shapes in shapes(),
                pool in 3u64..64,
                edges in vec((0usize..40, 0usize..40), 0..6),
                ring in vec(0usize..40, 2..5),
            ) {
                let mut b = batch(&shapes, pool, &edges);
                let mut ids: Vec<usize> = Vec::new();
                for id in ring.iter().map(|r| r % shapes.len()) {
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                prop_assume!(ids.len() >= 2);
                for (k, &id) in ids.iter().enumerate() {
                    let next = ids[(k + 1) % ids.len()];
                    b.depends_on(OpId(id), OpId(next)).unwrap();
                }
                let planned = b.waves();
                prop_assert!(matches!(planned, Err(AmbitError::DependencyCycle { .. })));
                prop_assert_eq!(planned, b.waves_by_levels());
            }
        }
    }
}
