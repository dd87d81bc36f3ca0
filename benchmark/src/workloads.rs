//! The four benchmark workloads. Each one is set up from generated inputs
//! (device construction, load, compilation, campaign planning), then runs
//! closed-loop queries through the public API; the benchmark wraps every
//! call into a layer in a [`Tracer`] span.

use std::time::Instant;

use ambit_repro::apps::bitmap_index::{reference_query, BitmapIndexWorkload, QueryAnswer};
use ambit_repro::apps::synth_arith::{compare_rung_plan, full_adder_plan};
use ambit_repro::core::{
    AmbitError, AmbitMemory, BatchBuilder, BatchReceipt, BitVectorHandle, BitwiseOp, IssuePolicy,
    PoolStats, RecoveryReport, ResilientConfig, ResilientExecutor, ResilientHandle, SynthProgram,
};
use ambit_repro::dram::{
    AapMode, BitRow, CampaignConfig, DramGeometry, FaultCampaign, SubarrayStats, TimerStats,
    TimingParams,
};
use ambit_repro::telemetry::Registry;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::trace::Tracer;

pub type Result<T> = std::result::Result<T, AmbitError>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BitmapQuery,
    BitmapBatch,
    SynthArith,
    ResilientQuery,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::BitmapQuery,
        Kind::BitmapBatch,
        Kind::SynthArith,
        Kind::ResilientQuery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BitmapQuery => "bitmap_query",
            Kind::BitmapBatch => "bitmap_batch",
            Kind::SynthArith => "synth_arith",
            Kind::ResilientQuery => "resilient_query",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The input sizes and geometry the benchmark runs (fixed on every
    /// commit, so runs of different commits compare).
    pub fn full_size(self) -> Size {
        let ddr3 = DramGeometry::ddr3_module();
        match self {
            Kind::BitmapQuery => Size::bitmap(ddr3, 8 << 20, 4),
            Kind::BitmapBatch => Size::bitmap(
                DramGeometry {
                    channels: 2,
                    ..ddr3
                },
                8 << 20,
                4,
            ),
            Kind::SynthArith => Size::arith(ddr3, 1 << 16, 32),
            Kind::ResilientQuery => Size::bitmap(
                DramGeometry {
                    row_bytes: 1024,
                    ..ddr3
                },
                8192,
                4,
            ),
        }
    }
}

/// Sizes of one workload instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    pub geometry: DramGeometry,
    /// Bitmap workloads: users per bitmap. Arithmetic: lanes per vector.
    pub items: usize,
    /// Bitmap workloads: weeks queried. Arithmetic: integer width in bits.
    pub depth: usize,
}

impl Size {
    fn bitmap(geometry: DramGeometry, users: usize, weeks: usize) -> Size {
        Size {
            geometry,
            items: users,
            depth: weeks,
        }
    }

    fn arith(geometry: DramGeometry, lanes: usize, width: usize) -> Size {
        Size {
            geometry,
            items: lanes,
            depth: width,
        }
    }
}

/// Inputs generated from the seed before any timing starts; the program
/// receives only these.
#[derive(Debug, Clone)]
pub enum Inputs {
    Bitmap {
        /// `dailies[week][day]`, packed 64 users per word.
        dailies: Vec<Vec<Vec<u64>>>,
        male: Vec<u64>,
        reference: QueryAnswer,
    },
    Arith {
        a: Vec<u32>,
        b: Vec<u32>,
    },
}

/// Generates the inputs of `kind` at `size` from `seed`.
pub fn generate(kind: Kind, size: &Size, seed: u64) -> Inputs {
    match kind {
        Kind::SynthArith => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mask = u32::MAX >> (32 - size.depth);
            let mut lanes = || (0..size.items).map(|_| rng.gen::<u32>() & mask).collect();
            Inputs::Arith {
                a: lanes(),
                b: lanes(),
            }
        }
        _ => {
            let w = BitmapIndexWorkload {
                users: size.items,
                weeks: size.depth,
                daily_activity: 0.3,
                male_fraction: 0.5,
                seed,
            };
            let (dailies, male) = w.generate();
            let reference = reference_query(&dailies, &male, size.items);
            Inputs::Bitmap {
                dailies,
                male,
                reference,
            }
        }
    }
}

/// What one query returns to the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Simulated DRAM time of the query, picoseconds.
    pub sim_ps: u64,
    /// Simulated DRAM energy of the query, nanojoules.
    pub energy_nj: f64,
    /// The query's answer, for the bitmap workloads.
    pub answer: Option<QueryAnswer>,
}

/// Work the benchmark issued, counted as it issues it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Per-chunk command programs behind the driver calls the benchmark made.
    pub chunk_ops: u64,
    pub batch_ops: u64,
    pub batch_waves: u64,
    /// Summed per-bank busy time over all batches, ps.
    pub bank_busy_ps: u64,
    /// Summed banks × makespan over all batches, ps.
    pub bank_span_ps: u64,
}

/// A snapshot of the program's own counters plus the benchmark's tally;
/// per-layer metrics are differences of two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub timer: TimerStats,
    pub subarray: SubarrayStats,
    pub pool: PoolStats,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub recovery: RecoveryReport,
    pub tally: Tally,
}

/// Compile statistics of the synthesized cells one query emits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthSummary {
    pub compile_ns: u64,
    pub aaps: usize,
    pub steps: usize,
    pub scratch_rows: usize,
}

pub trait Workload {
    /// One closed-loop query: the timed span.
    fn query(&mut self, tr: &mut Tracer) -> Result<Outcome>;

    /// Whether `out` (and the device state it left) matches the CPU
    /// reference. Runs outside the timed span.
    fn check(&self, out: &Outcome) -> Result<bool>;

    /// The memory every layer runs on.
    fn memory(&self) -> &AmbitMemory;

    /// The benchmark's tally of issued work.
    fn tally(&self) -> Tally;

    /// Attaches `registry` to every layer the workload drives.
    fn attach(&mut self, registry: Registry);

    fn recovery(&self) -> RecoveryReport {
        RecoveryReport::default()
    }

    fn synth(&self) -> Option<SynthSummary> {
        None
    }

    fn probe(&self) -> Probe {
        let mem = self.memory();
        let (plan_hits, plan_misses) = mem.plan_cache_stats();
        Probe {
            timer: mem.controller().timer().stats(),
            subarray: mem.controller().device().stats(),
            pool: mem.pool_stats(),
            plan_hits,
            plan_misses,
            recovery: self.recovery(),
            tally: self.tally(),
        }
    }
}

/// Sets up one instance of `kind`: builds the device and loads `inputs`.
pub fn setup(kind: Kind, size: &Size, inputs: &Inputs) -> Result<Box<dyn Workload>> {
    let mem = AmbitMemory::new(
        size.geometry,
        TimingParams::ddr3_1600(),
        AapMode::Overlapped,
    );
    match (kind, inputs) {
        (
            Kind::BitmapQuery | Kind::BitmapBatch,
            Inputs::Bitmap {
                dailies,
                male,
                reference,
            },
        ) => {
            let batched = kind == Kind::BitmapBatch;
            Ok(Box::new(Bitmap::load(
                mem,
                dailies,
                male,
                reference.clone(),
                batched,
            )?))
        }
        (Kind::SynthArith, Inputs::Arith { a, b }) => Ok(Box::new(Arith::load(mem, size, a, b)?)),
        (
            Kind::ResilientQuery,
            Inputs::Bitmap {
                dailies,
                male,
                reference,
            },
        ) => Ok(Box::new(Resilient::load(
            mem,
            size,
            dailies,
            male,
            reference.clone(),
        )?)),
        _ => unreachable!("inputs are generated for their workload"),
    }
}

/// Row-sized packed chunks of a bitmap, zero-padded to whole rows.
fn rows_of(words: &[u64], row_bits: usize, chunks: usize) -> Vec<BitRow> {
    let per_row = row_bits / 64;
    (0..chunks)
        .map(|c| {
            let mut row = vec![0u64; per_row];
            let lo = (c * per_row).min(words.len());
            let hi = ((c + 1) * per_row).min(words.len());
            row[..hi - lo].copy_from_slice(&words[lo..hi]);
            BitRow::from_words(row_bits, &row)
        })
        .collect()
}

/// Simulated window of a sequence of eager receipts: first start to last
/// end (not `now_ps`, which lags the receipts on the eager path).
#[derive(Default)]
struct SimWindow {
    start_ps: Option<u64>,
    end_ps: u64,
    energy_nj: f64,
    ops: u64,
}

impl SimWindow {
    /// One eager `dst = op(a, b)` inside a `driver.bitwise` span.
    fn bitwise(
        &mut self,
        tr: &mut Tracer,
        mem: &mut AmbitMemory,
        op: BitwiseOp,
        a: BitVectorHandle,
        b: Option<BitVectorHandle>,
        dst: BitVectorHandle,
    ) -> Result<()> {
        let r = tr.span("driver.bitwise", || mem.bitwise(op, a, b, dst))?;
        self.start_ps = Some(self.start_ps.map_or(r.start_ps, |s| s.min(r.start_ps)));
        self.end_ps = self.end_ps.max(r.end_ps);
        self.energy_nj += r.energy_nj;
        self.ops += 1;
        Ok(())
    }

    fn outcome(&self, answer: Option<QueryAnswer>) -> Outcome {
        Outcome {
            sim_ps: self.end_ps - self.start_ps.unwrap_or(self.end_ps),
            energy_nj: self.energy_nj,
            answer,
        }
    }
}

/// The Figure 10 query on one device: eager calls or one batch per query.
struct Bitmap {
    mem: AmbitMemory,
    batched: bool,
    daily: Vec<Vec<BitVectorHandle>>,
    male: BitVectorHandle,
    weekly: Vec<BitVectorHandle>,
    every: BitVectorHandle,
    scratch: Vec<BitVectorHandle>,
    chunks: u64,
    reference: QueryAnswer,
    tally: Tally,
}

impl Bitmap {
    fn load(
        mut mem: AmbitMemory,
        dailies: &[Vec<Vec<u64>>],
        male: &[u64],
        reference: QueryAnswer,
        batched: bool,
    ) -> Result<Bitmap> {
        let row_bits = mem.row_bits();
        let chunks = (male.len() * 64).div_ceil(row_bits);
        let bits = chunks * row_bits;
        let load = |mem: &mut AmbitMemory, words: &[u64]| -> Result<BitVectorHandle> {
            let h = mem.alloc(bits)?;
            mem.poke_rows(h, &rows_of(words, row_bits, chunks))?;
            Ok(h)
        };
        let male_h = load(&mut mem, male)?;
        let daily = dailies
            .iter()
            .map(|week| week.iter().map(|day| load(&mut mem, day)).collect())
            .collect::<Result<Vec<Vec<_>>>>()?;
        let weekly = (0..dailies.len())
            .map(|_| mem.alloc(bits))
            .collect::<Result<_>>()?;
        let every = mem.alloc(bits)?;
        // The batch gives each week's male AND its own destination, so the
        // four ANDs share a wave; the eager query reuses one.
        let scratch_count = if batched { dailies.len() } else { 1 };
        let scratch = (0..scratch_count)
            .map(|_| mem.alloc(bits))
            .collect::<Result<_>>()?;
        Ok(Bitmap {
            mem,
            batched,
            daily,
            male: male_h,
            weekly,
            every,
            scratch,
            chunks: chunks as u64,
            reference,
            tally: Tally::default(),
        })
    }

    fn eager(&mut self, tr: &mut Tracer) -> Result<Outcome> {
        let Bitmap {
            mem,
            daily,
            male,
            weekly,
            every,
            scratch,
            ..
        } = self;
        let (male, every, scratch) = (*male, *every, scratch[0]);
        let mut sim = SimWindow::default();
        // 6w ORs: weekly = OR of the 7 dailies.
        for (days, &wk) in daily.iter().zip(weekly.iter()) {
            sim.bitwise(tr, mem, BitwiseOp::Copy, days[0], None, wk)?;
            for &d in &days[1..] {
                sim.bitwise(tr, mem, BitwiseOp::Or, wk, Some(d), wk)?;
            }
        }
        // w - 1 ANDs: active in every week.
        sim.bitwise(tr, mem, BitwiseOp::Copy, weekly[0], None, every)?;
        for &wk in &weekly[1..] {
            sim.bitwise(tr, mem, BitwiseOp::And, every, Some(wk), every)?;
        }
        // w ANDs with the male bitmap, each counted on the CPU.
        let mut male_active_per_week = Vec::with_capacity(weekly.len());
        for &wk in weekly.iter() {
            sim.bitwise(tr, mem, BitwiseOp::And, male, Some(wk), scratch)?;
            male_active_per_week.push(tr.span("driver.popcount", || mem.popcount(scratch))?);
        }
        let active_every_week = tr.span("driver.popcount", || mem.popcount(every))?;
        self.tally.chunk_ops += sim.ops * self.chunks;
        Ok(sim.outcome(Some(QueryAnswer {
            active_every_week,
            male_active_per_week,
        })))
    }

    fn batch(&mut self, tr: &mut Tracer) -> Result<Outcome> {
        let Bitmap {
            mem,
            daily,
            male,
            weekly,
            every,
            scratch,
            ..
        } = self;
        let batch = tr.span("batch.build", || {
            let mut b = BatchBuilder::new();
            for (days, &wk) in daily.iter().zip(weekly.iter()) {
                b.bitwise(BitwiseOp::Copy, days[0], None, wk);
                for &d in &days[1..] {
                    b.bitwise(BitwiseOp::Or, wk, Some(d), wk);
                }
            }
            b.bitwise(BitwiseOp::Copy, weekly[0], None, *every);
            for &wk in &weekly[1..] {
                b.bitwise(BitwiseOp::And, *every, Some(wk), *every);
            }
            for (&wk, &s) in weekly.iter().zip(scratch.iter()) {
                b.bitwise(BitwiseOp::And, *male, Some(wk), s);
            }
            b
        });
        let receipt = tr.span("driver.execute_batch", || {
            mem.execute_batch(&batch, IssuePolicy::BankParallelThreaded)
        })?;
        let male_active_per_week = scratch
            .iter()
            .map(|&s| tr.span("driver.popcount", || mem.popcount(s)))
            .collect::<Result<_>>()?;
        let active_every_week = tr.span("driver.popcount", || mem.popcount(*every))?;
        let banks = self.mem.controller().geometry().total_banks();
        tally_batch(&mut self.tally, &receipt, batch.len(), banks, self.chunks);
        Ok(Outcome {
            sim_ps: receipt.makespan_ps(),
            energy_nj: receipt.total.energy_nj,
            answer: Some(QueryAnswer {
                active_every_week,
                male_active_per_week,
            }),
        })
    }
}

fn tally_batch(tally: &mut Tally, r: &BatchReceipt, ops: usize, banks: usize, chunks: u64) {
    tally.batch_ops += ops as u64;
    tally.batch_waves += r.waves as u64;
    tally.chunk_ops += ops as u64 * chunks;
    tally.bank_busy_ps += r.bank_busy_ps.iter().sum::<u64>();
    tally.bank_span_ps += banks as u64 * r.makespan_ps();
}

impl Workload for Bitmap {
    fn query(&mut self, tr: &mut Tracer) -> Result<Outcome> {
        if self.batched {
            self.batch(tr)
        } else {
            self.eager(tr)
        }
    }

    fn check(&self, out: &Outcome) -> Result<bool> {
        Ok(out.answer.as_ref() == Some(&self.reference))
    }

    fn memory(&self) -> &AmbitMemory {
        &self.mem
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn attach(&mut self, registry: Registry) {
        self.mem.set_telemetry(registry);
    }
}

/// One lane-wise add and one `a < b` compare per query, from the
/// synthesized full-adder and comparator cells, emitted over handles
/// allocated once at set-up (the arena allocator never recycles freed
/// rows, so per-query allocation would exhaust the subarray).
struct Arith {
    mem: AmbitMemory,
    adder: SynthProgram,
    rung: SynthProgram,
    a: Vec<BitVectorHandle>,
    b: Vec<BitVectorHandle>,
    sum: Vec<BitVectorHandle>,
    carry: BitVectorHandle,
    lt: BitVectorHandle,
    eq: BitVectorHandle,
    scratch: Vec<BitVectorHandle>,
    a_vals: Vec<u32>,
    b_vals: Vec<u32>,
    compile_ns: u64,
    tally: Tally,
}

impl Arith {
    fn load(mut mem: AmbitMemory, size: &Size, a: &[u32], b: &[u32]) -> Result<Arith> {
        let started = Instant::now();
        let adder = full_adder_plan()?;
        let rung = compare_rung_plan()?;
        let compile_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

        let row_bits = mem.row_bits();
        let chunks = size.items.div_ceil(row_bits);
        let bits = chunks * row_bits;
        let width = size.depth;
        let slices = |mem: &mut AmbitMemory, vals: &[u32]| -> Result<Vec<BitVectorHandle>> {
            (0..width)
                .map(|i| {
                    let mut words = vec![0u64; bits / 64];
                    for (l, v) in vals.iter().enumerate() {
                        words[l / 64] |= u64::from(v >> i & 1) << (l % 64);
                    }
                    let h = mem.alloc(bits)?;
                    mem.poke_rows(h, &rows_of(&words, row_bits, chunks))?;
                    Ok(h)
                })
                .collect()
        };
        let a_h = slices(&mut mem, a)?;
        let b_h = slices(&mut mem, b)?;
        let mut alloc = |n: usize| (0..n).map(|_| mem.alloc(bits)).collect::<Result<Vec<_>>>();
        let sum = alloc(width)?;
        let flags = alloc(3)?;
        let scratch = alloc(adder.scratch_rows().max(rung.scratch_rows()))?;
        Ok(Arith {
            mem,
            adder,
            rung,
            a: a_h,
            b: b_h,
            sum,
            carry: flags[0],
            lt: flags[1],
            eq: flags[2],
            scratch,
            a_vals: a.to_vec(),
            b_vals: b.to_vec(),
            compile_ns,
            tally: Tally::default(),
        })
    }

    fn build(&self) -> Result<BatchBuilder> {
        let mut batch = BatchBuilder::new();
        batch.bitwise(BitwiseOp::InitZero, self.carry, None, self.carry);
        for i in 0..self.a.len() {
            self.adder.emit_into(
                &mut batch,
                &[self.a[i], self.b[i], self.carry],
                &self.scratch,
                &[self.sum[i], self.carry],
            )?;
        }
        batch.bitwise(BitwiseOp::InitZero, self.lt, None, self.lt);
        batch.bitwise(BitwiseOp::InitOne, self.eq, None, self.eq);
        for i in (0..self.a.len()).rev() {
            self.rung.emit_into(
                &mut batch,
                &[self.a[i], self.b[i], self.lt, self.eq],
                &self.scratch,
                &[self.lt, self.eq],
            )?;
        }
        Ok(batch)
    }
}

impl Workload for Arith {
    fn query(&mut self, tr: &mut Tracer) -> Result<Outcome> {
        let batch = tr.span("batch.build", || self.build())?;
        let mem = &mut self.mem;
        let receipt = tr.span("driver.execute_batch", || {
            mem.execute_batch(&batch, IssuePolicy::BankParallel)
        })?;
        let banks = mem.controller().geometry().total_banks();
        let chunks = (self.a_vals.len().div_ceil(mem.row_bits())) as u64;
        tally_batch(&mut self.tally, &receipt, batch.len(), banks, chunks);
        Ok(Outcome {
            sim_ps: receipt.makespan_ps(),
            energy_nj: receipt.total.energy_nj,
            answer: None,
        })
    }

    fn check(&self, _: &Outcome) -> Result<bool> {
        let lanes = self.a_vals.len();
        let mut sums = vec![0u32; lanes];
        for (i, &h) in self.sum.iter().enumerate() {
            for (s, bit) in sums.iter_mut().zip(self.mem.peek_bits(h)?) {
                *s |= u32::from(bit) << i;
            }
        }
        let mask = u32::MAX >> (32 - self.sum.len());
        let lt = self.mem.peek_bits(self.lt)?;
        Ok((0..lanes).all(|l| {
            let (a, b) = (self.a_vals[l], self.b_vals[l]);
            sums[l] == a.wrapping_add(b) & mask && lt[l] == (a < b)
        }))
    }

    fn memory(&self) -> &AmbitMemory {
        &self.mem
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn attach(&mut self, registry: Registry) {
        self.mem.set_telemetry(registry);
    }

    fn synth(&self) -> Option<SynthSummary> {
        let cells = [&self.adder, &self.rung];
        let width = self.a.len();
        Some(SynthSummary {
            compile_ns: self.compile_ns,
            aaps: width * cells.iter().map(|c| c.aap_cost().0).sum::<usize>(),
            steps: width * cells.iter().map(|c| c.steps().len()).sum::<usize>(),
            scratch_rows: self.scratch.len(),
        })
    }
}

/// The Figure 10 query through the resilient executor on a device armed
/// with a transient-TRA fault campaign.
struct Resilient {
    exec: ResilientExecutor,
    daily: Vec<Vec<ResilientHandle>>,
    male: ResilientHandle,
    weekly: Vec<ResilientHandle>,
    every: ResilientHandle,
    scratch: ResilientHandle,
    users: usize,
    reference: QueryAnswer,
}

/// Device-average per-bitline TRA failure rate of the campaign. Table 2
/// gives 0 % at ±5 % process variation and 0.29 % at ±10 %. At 0.29 % all
/// three replicas of a bit flip together (rate³ per bit and TRA) often
/// enough that about one query in a hundred returns a wrong count, which
/// voting cannot see. At 0.01 % that falls to about one query in a million,
/// while every query still detects, retries and repairs faults.
const TRA_RATE: f64 = 1e-4;

impl Resilient {
    fn load(
        mut mem: AmbitMemory,
        size: &Size,
        dailies: &[Vec<Vec<u64>>],
        male: &[u64],
        reference: QueryAnswer,
    ) -> Result<Resilient> {
        // The campaign keeps its default seed: the chip under test is the
        // same in every run and `--seed` draws only the data. A campaign
        // drawn from the data seed would give each run a different chip
        // (per-subarray rates ±25 %), and host time would follow the
        // retries that chip needs.
        let config = CampaignConfig {
            base_tra_rate: TRA_RATE,
            tra_rate_spread: 0.25,
            ..CampaignConfig::default()
        };
        let campaign = FaultCampaign::plan(config, &size.geometry)?;
        mem.reserve_spare_rows(2)?;
        let mut exec = ResilientExecutor::with_campaign(mem, ResilientConfig::default(), campaign)?;
        let row_bits = exec.memory().row_bits();
        let bits = size.items.div_ceil(row_bits) * row_bits;
        let load = |exec: &mut ResilientExecutor, words: &[u64]| -> Result<ResilientHandle> {
            let h = exec.alloc(bits)?;
            let data: Vec<bool> = (0..bits)
                .map(|i| words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1))
                .collect();
            exec.write(h, &data)?;
            Ok(h)
        };
        let male_h = load(&mut exec, male)?;
        let daily = dailies
            .iter()
            .map(|week| week.iter().map(|day| load(&mut exec, day)).collect())
            .collect::<Result<Vec<Vec<_>>>>()?;
        let weekly = (0..dailies.len())
            .map(|_| exec.alloc(bits))
            .collect::<Result<_>>()?;
        let every = exec.alloc(bits)?;
        let scratch = exec.alloc(bits)?;
        Ok(Resilient {
            exec,
            daily,
            male: male_h,
            weekly,
            every,
            scratch,
            users: size.items,
            reference,
        })
    }
}

impl Workload for Resilient {
    fn query(&mut self, tr: &mut Tracer) -> Result<Outcome> {
        let Resilient {
            exec,
            daily,
            male,
            weekly,
            every,
            scratch,
            users,
            ..
        } = self;
        let (male, every, scratch, users) = (*male, *every, *scratch, *users);
        let sim_before = exec.memory().controller().timer().horizon_ps();
        let energy_before = exec.memory().energy_nj();
        let op = |tr: &mut Tracer,
                  exec: &mut ResilientExecutor,
                  op: BitwiseOp,
                  a: ResilientHandle,
                  b: Option<ResilientHandle>,
                  dst: ResilientHandle|
         -> Result<()> {
            tr.span("resilient.bitwise", || exec.bitwise(op, a, b, dst))
                .map(|_| ())
        };
        let count = |tr: &mut Tracer, exec: &mut ResilientExecutor, h| -> Result<usize> {
            let bits = tr.span("resilient.read", || exec.read(h))?;
            Ok(bits[..users].iter().filter(|&&b| b).count())
        };
        for (days, &wk) in daily.iter().zip(weekly.iter()) {
            op(tr, exec, BitwiseOp::Copy, days[0], None, wk)?;
            for &d in &days[1..] {
                op(tr, exec, BitwiseOp::Or, wk, Some(d), wk)?;
            }
        }
        op(tr, exec, BitwiseOp::Copy, weekly[0], None, every)?;
        for &wk in &weekly[1..] {
            op(tr, exec, BitwiseOp::And, every, Some(wk), every)?;
        }
        let mut male_active_per_week = Vec::with_capacity(weekly.len());
        for &wk in weekly.iter() {
            op(tr, exec, BitwiseOp::And, male, Some(wk), scratch)?;
            male_active_per_week.push(count(tr, exec, scratch)?);
        }
        let active_every_week = count(tr, exec, every)?;
        Ok(Outcome {
            sim_ps: exec.memory().controller().timer().horizon_ps() - sim_before,
            energy_nj: exec.memory().energy_nj() - energy_before,
            answer: Some(QueryAnswer {
                active_every_week,
                male_active_per_week,
            }),
        })
    }

    fn check(&self, out: &Outcome) -> Result<bool> {
        Ok(out.answer.as_ref() == Some(&self.reference))
    }

    fn memory(&self) -> &AmbitMemory {
        self.exec.memory()
    }

    fn tally(&self) -> Tally {
        Tally::default()
    }

    fn attach(&mut self, registry: Registry) {
        self.exec.set_telemetry(registry);
    }

    fn recovery(&self) -> RecoveryReport {
        *self.exec.report()
    }
}
