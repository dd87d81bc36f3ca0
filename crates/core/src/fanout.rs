//! Parked-worker fan-out for the functional pass of eager ops and batches.
//!
//! The timing pass of every eager op and every batch queues each chunk
//! program on its bank as an `(op, chunk)` index into the op's or batch's
//! [`Plans`], and [`Fanout::run`] then runs every bank's queue in order.
//! Banks share no functional state, so the queues may run on different
//! threads.
//!
//! A pass runs *inline* on the caller when one bank is busy, when the
//! thread budget is one, or when the work it would hand off is below
//! [`DISPATCH_MIN_WORD_CMDS`]. Otherwise it is *dispatched*: every busy
//! bank is moved out of the device by value (an empty [`Bank`] stands in)
//! onto a board shared with up to `target_workers − 1` parked threads,
//! together with its queue, a reference-counted handle on the plans, the
//! `Copy` layout and the SALP flag. The caller wakes the workers it needs
//! and then works alongside them: each thread takes the bank with the most
//! queued commands left, runs it, and hands it back with its result, so a
//! worker that wakes late simply takes fewer banks. Nothing a worker holds
//! borrows from the caller, so this is safe code with no lifetime
//! extension; the caller's `&mut [Bank]` borrow keeps everyone else from
//! seeing a stand-in, and it puts every bank back before it returns.
//!
//! Workers are spawned on the first dispatch, park on a condition variable
//! between dispatches, and are joined when the fan-out drops. A queue that
//! panics is caught on the thread that runs it, which still owns the bank,
//! and surfaces as [`AmbitError::ExecutorPanicked`]. If a thread cannot be
//! spawned the dispatch uses the workers it has, down to none (inline).

use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use ambit_dram::Bank;
use ambit_telemetry::{Counter, Histogram, Registry};

use crate::addressing::SubarrayLayout;
use crate::controller::{run_program_on_bank, ChunkProgram};
use crate::error::{AmbitError, Result};

/// Work a dispatch must hand to workers, in commands × 64-bit row words,
/// before the round trip to a parked thread pays for itself.
///
/// On a 2-core Intel Xeon waking a parked worker and waiting for it costs
/// about 18 µs, and an eager AND over 8 KB rows ran as fast on two threads
/// as on one when it offloaded about 96 K row-word commands (24 chunk
/// programs of 4 AAPs; see EXPERIMENTS.md, "Parked bank workers").
pub(crate) const DISPATCH_MIN_WORD_CMDS: usize = 96 * 1024;

/// The programs a pass's queues index: one eager op's chunk plan or a
/// batch's per-op plans, shared by reference count so workers can hold
/// them without borrowing from the caller.
#[derive(Debug, Clone)]
pub(crate) enum Plans {
    /// One op: queue entries are `(0, chunk)`.
    Op(Arc<[ChunkProgram]>),
    /// A batch: queue entries are `(op, chunk)`.
    Batch(Arc<[Arc<[ChunkProgram]>]>),
}

impl Plans {
    /// The chunk program a queue entry names.
    pub(crate) fn chunk(&self, (op, chunk): (usize, usize)) -> &ChunkProgram {
        match self {
            Plans::Op(chunks) => &chunks[chunk],
            Plans::Batch(ops) => &ops[op][chunk],
        }
    }
}

/// Activity counters of the fan-out since the memory was created (or
/// since the last [`set_pool_threads`](crate::AmbitMemory::set_pool_threads)).
/// A *job* is one busy bank's queue in one functional pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Thread budget: the most threads, the caller included, one pass uses.
    pub target_workers: usize,
    /// Jobs run by dispatched passes, on a worker or on the caller.
    pub jobs_executed: u64,
    /// Jobs run by passes that stayed on the calling thread: one busy bank,
    /// a one-thread budget, work below the break-even, or no worker
    /// available.
    pub inline_jobs: u64,
    /// Worker threads spawned. Workers are spawned on the first dispatch
    /// and parked between dispatches, so this stays at most
    /// `target_workers − 1` unless a spawn failed.
    pub cold_spawns: u64,
    /// Parked workers notified: one per worker a dispatched pass wakes. A
    /// notified worker that wakes after the caller has taken every bank
    /// runs none, so this counts wake requests, not banks handed off.
    pub warm_dispatches: u64,
    /// Jobs that panicked (caught and surfaced as typed errors).
    pub worker_panics: u64,
}

#[derive(Debug)]
struct FanoutTelemetry {
    jobs: Counter,
    inline_jobs: Counter,
    cold_spawns: Counter,
    warm_dispatches: Counter,
    worker_panics: Counter,
    /// `ambit_fanout_total{mode}`, indexed by [`MODES`].
    passes: [Counter; MODES.len()],
    queue_wait_us: Histogram,
}

/// The `mode` label of `ambit_fanout_total`: inline first, then
/// dispatched.
const MODES: [&str; 2] = ["inline", "dispatched"];

/// One busy bank of a dispatch, moved out of the device with everything
/// its queue needs, and the result of running it.
#[derive(Debug)]
struct BankJob {
    flat: usize,
    bank: Bank,
    queue: Vec<(usize, usize)>,
    plans: Plans,
    layout: SubarrayLayout,
    result: Result<()>,
    /// Microseconds from the dispatch until a thread, the caller or a
    /// worker, took the bank.
    waited_us: f64,
}

impl BankJob {
    fn run(&mut self) {
        self.result = run_queue(&mut self.bank, &self.queue, &self.plans, &self.layout);
    }
}

/// The dispatch board the caller and its parked workers share.
#[derive(Debug, Default)]
struct Board {
    /// Banks no thread has taken yet, lightest first, so `pop` takes the
    /// heaviest.
    pending: Vec<BankJob>,
    /// Banks a worker has run, waiting to go back into the device.
    finished: Vec<BankJob>,
    /// Banks a worker has taken and not yet finished.
    running: usize,
    posted: Option<Instant>,
    exit: bool,
}

impl Board {
    /// Takes the heaviest bank no thread has taken yet and stamps how long
    /// it waited on the board.
    fn take(&mut self) -> Option<BankJob> {
        let mut job = self.pending.pop()?;
        job.waited_us = self.posted.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6);
        Some(job)
    }
}

#[derive(Debug, Default)]
struct Shared {
    board: Mutex<Board>,
    /// Signalled when banks are posted, and on exit.
    work: Condvar,
    /// Signalled when a worker finishes the last bank of a dispatch.
    done: Condvar,
}

impl Shared {
    /// Every update under the lock is one push, pop or store, so the board
    /// is whole even if a holder panicked; recovering keeps the path free
    /// of `expect`.
    fn lock(&self) -> MutexGuard<'_, Board> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, on: &Condvar, board: MutexGuard<'a, Board>) -> MutexGuard<'a, Board> {
        on.wait(board).unwrap_or_else(PoisonError::into_inner)
    }
}

/// A worker thread's loop: take the heaviest posted bank, run it, hand it
/// back, and park when none is left. Only `run_queue`, which catches
/// panics, runs outside the lock, so a worker never ends holding a bank.
fn park(shared: &Shared) {
    let mut board = shared.lock();
    loop {
        if board.exit {
            return;
        }
        let Some(mut job) = board.take() else {
            board = shared.wait(&shared.work, board);
            continue;
        };
        board.running += 1;
        drop(board);
        job.run();
        board = shared.lock();
        board.running -= 1;
        board.finished.push(job);
        if board.running == 0 && board.pending.is_empty() {
            shared.done.notify_all();
        }
    }
}

/// Runs one bank's queue in order, catching a panic as a typed error.
fn run_queue(
    bank: &mut Bank,
    queue: &[(usize, usize)],
    plans: &Plans,
    layout: &SubarrayLayout,
) -> Result<()> {
    catch_unwind(AssertUnwindSafe(|| {
        queue.iter().try_for_each(|&at| {
            let chunk = plans.chunk(at);
            run_program_on_bank(bank, layout, chunk.subarray, &chunk.program)
        })
    }))
    .unwrap_or_else(|payload| {
        Err(AmbitError::ExecutorPanicked {
            message: panic_message(payload),
        })
    })
}

/// The results of one pass's banks.
#[derive(Debug, Default)]
struct Outcome {
    /// The error of the lowest failing flat bank, so the reported failure
    /// does not depend on which thread finished first.
    first: Option<(usize, AmbitError)>,
    panics: u64,
}

impl Outcome {
    fn record(&mut self, flat: usize, result: Result<()>) {
        if let Err(e) = result {
            self.panics += u64::from(matches!(e, AmbitError::ExecutorPanicked { .. }));
            if self.first.as_ref().is_none_or(|&(f, _)| flat < f) {
                self.first = Some((flat, e));
            }
        }
    }
}

/// Per-bank queues of the current pass, the parked workers, and counters.
#[derive(Debug)]
pub(crate) struct Fanout {
    stats: PoolStats,
    /// Passes run inline and dispatched, indexed like [`MODES`].
    passes: [u64; MODES.len()],
    telemetry: Option<FanoutTelemetry>,
    /// `(op, chunk)` entries per flat bank, in issue order. Kept between
    /// passes so their capacity is reused.
    queues: Vec<Vec<(usize, usize)>>,
    /// Commands queued per flat bank in the current pass.
    commands: Vec<usize>,
    /// Busy banks of the current pass as `(queued commands, flat)`,
    /// lightest first; filled only when two or more banks are busy on a
    /// multi-thread budget. Kept between passes so its capacity is reused.
    busy: Vec<(usize, usize)>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for Fanout {
    fn drop(&mut self) {
        self.shared.lock().exit = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            // Queues run under `catch_unwind`, so a worker ends normally;
            // there is nothing to report if it did not.
            let _ = worker.join();
        }
    }
}

impl Fanout {
    /// A fan-out that uses at most `target` threads (at least 1). It spawns
    /// none until its first dispatch.
    pub(crate) fn new(target: usize) -> Self {
        Fanout {
            stats: PoolStats {
                target_workers: target.max(1),
                ..PoolStats::default()
            },
            passes: [0; MODES.len()],
            telemetry: None,
            queues: Vec::new(),
            commands: Vec::new(),
            busy: Vec::new(),
            shared: Arc::default(),
            workers: Vec::new(),
        }
    }

    /// A fan-out sized for this host: the `AMBIT_POOL_THREADS` environment
    /// variable if it parses (clamped to ≥ 1), otherwise
    /// [`std::thread::available_parallelism`].
    pub(crate) fn with_default_size() -> Self {
        let env = std::env::var("AMBIT_POOL_THREADS").ok();
        let target = env
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()));
        Fanout::new(target)
    }

    /// Activity counters so far.
    pub(crate) fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Registers the `ambit_pool_*` and `ambit_fanout_total` instruments on
    /// `registry` and mirrors the activity so far onto the counters, so
    /// attach order does not hide history.
    pub(crate) fn set_telemetry(&mut self, registry: &Registry) {
        let counter = |name, help, value| {
            let c = registry.counter(name, help, &[]);
            c.add(value);
            c
        };
        let s = self.stats;
        let passes = self.passes;
        self.telemetry = Some(FanoutTelemetry {
            jobs: counter(
                "ambit_pool_jobs_total",
                "Per-bank functional jobs run by dispatched passes",
                s.jobs_executed,
            ),
            inline_jobs: counter(
                "ambit_pool_inline_jobs_total",
                "Per-bank functional jobs run by passes that stayed on the calling thread",
                s.inline_jobs,
            ),
            cold_spawns: counter(
                "ambit_pool_cold_spawns_total",
                "Parked fan-out worker threads spawned",
                s.cold_spawns,
            ),
            warm_dispatches: counter(
                "ambit_pool_warm_dispatches_total",
                "Parked fan-out workers woken by dispatched passes",
                s.warm_dispatches,
            ),
            worker_panics: counter(
                "ambit_pool_worker_panics_total",
                "Per-bank functional jobs that panicked (caught and surfaced as typed errors)",
                s.worker_panics,
            ),
            passes: [0, 1].map(|i| {
                let c = registry.counter(
                    "ambit_fanout_total",
                    "Functional passes by fan-out decision",
                    &[("mode", MODES[i])],
                );
                c.add(passes[i]);
                c
            }),
            queue_wait_us: registry.histogram(
                "ambit_pool_queue_wait_us",
                "Wall-clock microseconds from a dispatch until a thread took a bank",
                &[],
                // The caller takes its first bank at once; a parked worker
                // wakes in 10–20 µs on a 2-core host.
                &[
                    2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 10_000.0,
                ],
            ),
        });
    }

    /// Starts a pass: forgets whatever an earlier pass left queued (one
    /// whose timing pass failed never runs its queues).
    pub(crate) fn begin(&mut self) {
        for queue in &mut self.queues {
            queue.clear();
        }
        self.commands.fill(0);
    }

    /// Queues plan entry `at`, a program of `commands` commands, on flat
    /// bank `flat`, after everything queued on that bank so far.
    pub(crate) fn queue(&mut self, flat: usize, at: (usize, usize), commands: usize) {
        if flat >= self.queues.len() {
            self.queues.resize_with(flat + 1, Vec::new);
            self.commands.resize(flat + 1, 0);
        }
        self.queues[flat].push(at);
        self.commands[flat] += commands;
    }

    /// The queues of the current pass, indexed by flat bank.
    pub(crate) fn queues(&self) -> &[Vec<(usize, usize)>] {
        &self.queues
    }

    /// Runs every bank's queue on `banks[flat]`, in queue order, and
    /// returns when all have finished. Every busy bank runs its queue up
    /// to its first failing command, whatever another bank does.
    ///
    /// # Errors
    ///
    /// The first failing bank's error in flat-bank order: a device error,
    /// or [`AmbitError::ExecutorPanicked`] for a queue that panicked. The
    /// bank comes back either way, and later passes work as usual.
    pub(crate) fn run(
        &mut self,
        banks: &mut [Bank],
        plans: &Plans,
        layout: SubarrayLayout,
        row_words: usize,
    ) -> Result<()> {
        let busy = self.queues.iter().filter(|q| !q.is_empty()).count();
        let threads = if busy > 1 && self.stats.target_workers > 1 {
            self.threads_for(row_words)
        } else {
            1
        };
        let jobs = busy as u64;
        let mut outcome = Outcome::default();
        if threads == 1 {
            for (flat, queue) in self.queues.iter().enumerate() {
                if !queue.is_empty() {
                    let result = run_queue(&mut banks[flat], queue, plans, &layout);
                    outcome.record(flat, result);
                }
            }
        } else {
            self.dispatch(banks, plans, layout, threads - 1, &mut outcome);
        }

        let dispatched = threads > 1;
        let woken = (threads - 1) as u64;
        let s = &mut self.stats;
        if dispatched {
            s.jobs_executed += jobs;
            s.warm_dispatches += woken;
        } else {
            s.inline_jobs += jobs;
        }
        s.worker_panics += outcome.panics;
        self.passes[usize::from(dispatched)] += 1;
        if let Some(tel) = &self.telemetry {
            tel.passes[usize::from(dispatched)].inc();
            if dispatched {
                tel.jobs.add(jobs);
                tel.warm_dispatches.add(woken);
            } else {
                tel.inline_jobs.add(jobs);
            }
            tel.worker_panics.add(outcome.panics);
        }
        match outcome.first {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Threads a pass with two or more busy banks runs on, the caller
    /// included: one unless the work it would hand off reaches the
    /// break-even. Leaves the busy banks in `busy`, lightest first.
    fn threads_for(&mut self, row_words: usize) -> usize {
        self.busy.clear();
        for (flat, queue) in self.queues.iter().enumerate() {
            if !queue.is_empty() {
                self.busy.push((self.commands[flat], flat));
            }
        }
        self.busy.sort_unstable();
        let wanted = self.stats.target_workers.min(self.busy.len());
        if offloaded(&self.busy, wanted).saturating_mul(row_words) >= DISPATCH_MIN_WORD_CMDS {
            self.spawn_workers(wanted - 1) + 1
        } else {
            1
        }
    }

    /// Spawns parked workers until `wanted` exist or a spawn fails, and
    /// returns how many are available.
    fn spawn_workers(&mut self, wanted: usize) -> usize {
        while self.workers.len() < wanted {
            let shared = Arc::clone(&self.shared);
            let name = format!("ambit-fanout-{}", self.workers.len() + 1);
            let Ok(worker) = thread::Builder::new()
                .name(name)
                .spawn(move || park(&shared))
            else {
                break;
            };
            self.workers.push(worker);
            self.stats.cold_spawns += 1;
            if let Some(tel) = &self.telemetry {
                tel.cold_spawns.inc();
            }
        }
        self.workers.len().min(wanted)
    }

    /// Moves every busy bank onto the shared board, wakes `woken` workers,
    /// takes banks off the board alongside them (heaviest first) until
    /// none is left, and puts every bank back once all have finished.
    fn dispatch(
        &mut self,
        banks: &mut [Bank],
        plans: &Plans,
        layout: SubarrayLayout,
        woken: usize,
        outcome: &mut Outcome,
    ) {
        let mut board = self.shared.lock();
        for &(_, flat) in &self.busy {
            board.pending.push(BankJob {
                flat,
                bank: mem::replace(&mut banks[flat], Bank::new(0, 0, 0)),
                queue: mem::take(&mut self.queues[flat]),
                plans: plans.clone(),
                layout,
                result: Ok(()),
                waited_us: 0.0,
            });
        }
        board.posted = Some(Instant::now());
        drop(board);
        for _ in 0..woken {
            self.shared.work.notify_one();
        }

        let mut restore = |banks: &mut [Bank], job: BankJob| {
            if let Some(tel) = &self.telemetry {
                tel.queue_wait_us.observe(job.waited_us);
            }
            banks[job.flat] = job.bank;
            self.queues[job.flat] = job.queue;
            outcome.record(job.flat, job.result);
        };
        loop {
            let job = self.shared.lock().take();
            let Some(mut job) = job else { break };
            job.run();
            restore(banks, job);
        }
        let mut board = self.shared.lock();
        while board.running > 0 {
            board = self.shared.wait(&self.shared.done, board);
        }
        for job in board.finished.drain(..) {
            restore(banks, job);
        }
    }
}

/// Queued commands a dispatch over `threads` threads hands off: what the
/// caller cannot keep when the load is spread evenly, less when one bank
/// outweighs an even share.
fn offloaded(busy: &[(usize, usize)], threads: usize) -> usize {
    let total: usize = busy.iter().map(|&(cmds, _)| cmds).sum();
    let heaviest = busy.iter().map(|&(cmds, _)| cmds).max().unwrap_or(0);
    total - total.div_ceil(threads).max(heaviest).min(total)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing::RowAddress;
    use crate::ops::{compile, BitwiseOp};
    use ambit_dram::{BankId, BitRow};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const BANKS: usize = 4;
    /// 1,024 words a row, so 16 four-AAP chunks on each of two offloaded
    /// banks clear the break-even.
    const WIDE_BITS: usize = 64 * 1024;
    const CHUNKS_PER_BANK: usize = 16;

    fn layout() -> SubarrayLayout {
        SubarrayLayout::new(32)
    }

    fn banks(bits: usize) -> Vec<Bank> {
        let mut rng = ChaCha8Rng::seed_from_u64(0xfa90);
        (0..BANKS)
            .map(|_| {
                let mut bank = Bank::new(2, 32, bits);
                for s in 0..2 {
                    for k in 0..3 {
                        let row = layout().data_row(k).unwrap();
                        bank.subarray_mut(s)
                            .poke_row(row, BitRow::random(bits, &mut rng));
                    }
                    bank.subarray_mut(s)
                        .poke_row(crate::addressing::ROW_C1, BitRow::ones(bits));
                }
                bank
            })
            .collect()
    }

    /// One AND chunk per `(bank, subarray)` pair, `per_bank` per bank.
    fn plans(per_bank: usize) -> Plans {
        let and = compile(
            BitwiseOp::And,
            RowAddress::D(0),
            Some(RowAddress::D(1)),
            RowAddress::D(2),
        )
        .unwrap();
        let xor = compile(
            BitwiseOp::Xor,
            RowAddress::D(2),
            Some(RowAddress::D(0)),
            RowAddress::D(1),
        )
        .unwrap();
        let chunks: Vec<ChunkProgram> = (0..BANKS * per_bank)
            .map(|i| ChunkProgram {
                bank: BankId {
                    channel: 0,
                    rank: 0,
                    bank: i % BANKS,
                },
                subarray: (i / BANKS) % 2,
                program: if i % 3 == 0 { xor.clone() } else { and.clone() },
            })
            .collect();
        Plans::Op(chunks.into())
    }

    fn queue_all(fanout: &mut Fanout, plans: &Plans) {
        fanout.begin();
        let Plans::Op(chunks) = plans else {
            unreachable!()
        };
        for (c, chunk) in chunks.iter().enumerate() {
            fanout.queue(chunk.bank.bank, (0, c), chunk.program.len());
        }
    }

    /// Every row and the stats of every bank, for byte-for-byte comparison.
    fn image(banks: &[Bank]) -> Vec<(Vec<BitRow>, ambit_dram::SubarrayStats)> {
        banks
            .iter()
            .map(|b| {
                let rows = (0..b.subarray_count())
                    .flat_map(|s| (0..32).map(move |r| b.subarray(s).peek_row(r)))
                    .collect();
                (rows, b.stats())
            })
            .collect()
    }

    fn run(fanout: &mut Fanout, banks: &mut [Bank], plans: &Plans, bits: usize) -> Result<()> {
        queue_all(fanout, plans);
        fanout.run(banks, plans, layout(), bits / 64)
    }

    #[test]
    fn dispatch_moves_banks_out_and_back_with_inline_bytes() {
        let plans = plans(CHUNKS_PER_BANK);
        let (mut threaded, mut inline) = (banks(WIDE_BITS), banks(WIDE_BITS));
        let (mut two, mut one) = (Fanout::new(2), Fanout::new(1));
        for _ in 0..3 {
            run(&mut two, &mut threaded, &plans, WIDE_BITS).unwrap();
            run(&mut one, &mut inline, &plans, WIDE_BITS).unwrap();
        }
        assert_eq!(image(&threaded), image(&inline));
        let jobs = 3 * BANKS as u64;
        let stats = two.stats();
        assert_eq!(
            (
                stats.jobs_executed,
                stats.inline_jobs,
                stats.cold_spawns,
                stats.warm_dispatches
            ),
            (jobs, 0, 1, 3),
            "one worker spawned on the first dispatch and reused: {stats:?}"
        );
        let stats = one.stats();
        assert_eq!(
            (
                stats.jobs_executed,
                stats.inline_jobs,
                stats.cold_spawns,
                stats.warm_dispatches
            ),
            (0, jobs, 0, 0)
        );
    }

    #[test]
    fn offloaded_work_is_what_the_caller_cannot_keep() {
        let even: Vec<(usize, usize)> = (0..8).map(|flat| (10, flat)).collect();
        assert_eq!(offloaded(&even, 2), 40);
        assert_eq!(offloaded(&even, 3), 53);
        let skewed = [(10, 1), (10, 2), (10, 3), (10, 4), (40, 0)];
        assert_eq!(offloaded(&skewed, 3), 40, "the heaviest bank stays whole");
        assert_eq!(offloaded(&[(7, 0)], 2), 0);
    }

    #[test]
    fn small_or_single_bank_passes_run_inline_and_spawn_nothing() {
        // Narrow rows: the whole pass is below the break-even.
        let plans = plans(CHUNKS_PER_BANK);
        let mut fanout = Fanout::new(4);
        run(&mut fanout, &mut banks(256), &plans, 256).unwrap();
        // Wide rows, but every chunk in one bank.
        fanout.begin();
        for c in (0..BANKS * CHUNKS_PER_BANK).step_by(BANKS) {
            fanout.queue(0, (0, c), plans.chunk((0, c)).program.len());
        }
        let mut wide = banks(WIDE_BITS);
        fanout
            .run(&mut wide, &plans, layout(), WIDE_BITS / 64)
            .unwrap();
        let stats = fanout.stats();
        assert_eq!(
            (
                stats.inline_jobs,
                stats.jobs_executed,
                stats.cold_spawns,
                stats.warm_dispatches
            ),
            (BANKS as u64 + 1, 0, 0, 0)
        );
        assert!(fanout.workers.is_empty());
    }

    #[test]
    fn panicking_queue_returns_its_bank_and_a_typed_error() {
        let plans = plans(CHUNKS_PER_BANK);
        let mut fanout = Fanout::new(2);
        let mut banks_hit = banks(WIDE_BITS);
        queue_all(&mut fanout, &plans);
        // An out-of-range plan index panics after each bank's real chunks,
        // on the worker for the two banks it took.
        for flat in 0..BANKS {
            fanout.queue(flat, (0, usize::MAX), 0);
        }
        let err = fanout
            .run(&mut banks_hit, &plans, layout(), WIDE_BITS / 64)
            .unwrap_err();
        assert!(
            matches!(&err, AmbitError::ExecutorPanicked { message } if message.contains("out of")),
            "{err}"
        );
        assert!(
            banks_hit.iter().all(|b| b.subarray_count() == 2),
            "every bank came back"
        );
        let stats = fanout.stats();
        assert_eq!(
            (stats.worker_panics, stats.warm_dispatches),
            (BANKS as u64, 1)
        );

        // The same worker serves the next dispatch, byte for byte like a
        // fan-out that never saw a panic.
        let (mut after, mut fresh) = (banks(WIDE_BITS), banks(WIDE_BITS));
        run(&mut fanout, &mut after, &plans, WIDE_BITS).unwrap();
        run(&mut Fanout::new(2), &mut fresh, &plans, WIDE_BITS).unwrap();
        assert_eq!(image(&after), image(&fresh));
        assert_eq!(fanout.stats().cold_spawns, 1);
    }

    #[test]
    fn dropping_the_fanout_joins_its_workers() {
        let plans = plans(CHUNKS_PER_BANK);
        let mut fanout = Fanout::new(3);
        run(&mut fanout, &mut banks(WIDE_BITS), &plans, WIDE_BITS).unwrap();
        assert_eq!(fanout.workers.len(), 2);
        let shared = Arc::clone(&fanout.shared);
        assert_eq!(Arc::strong_count(&shared), 4, "two workers hold the board");
        drop(fanout);
        assert_eq!(
            Arc::strong_count(&shared),
            1,
            "both worker threads have ended"
        );
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let registry = Registry::new();
        let plans = plans(CHUNKS_PER_BANK);
        let mut fanout = Fanout::new(2);
        // Activity before attach is backfilled at attach time.
        run(&mut fanout, &mut banks(WIDE_BITS), &plans, WIDE_BITS).unwrap();
        fanout.set_telemetry(&registry);
        run(&mut fanout, &mut banks(WIDE_BITS), &plans, WIDE_BITS).unwrap();
        run(&mut fanout, &mut banks(256), &plans, 256).unwrap();
        let stats = fanout.stats();
        let value = |name| registry.counter_value(name, &[]);
        assert_eq!(value("ambit_pool_jobs_total"), Some(stats.jobs_executed));
        assert_eq!(
            value("ambit_pool_inline_jobs_total"),
            Some(stats.inline_jobs)
        );
        assert_eq!(
            value("ambit_pool_cold_spawns_total"),
            Some(stats.cold_spawns)
        );
        assert_eq!(
            value("ambit_pool_warm_dispatches_total"),
            Some(stats.warm_dispatches)
        );
        let mode = |m| registry.counter_value("ambit_fanout_total", &[("mode", m)]);
        assert_eq!((mode("dispatched"), mode("inline")), (Some(2), Some(1)));
        let wait = registry
            .histogram_snapshot("ambit_pool_queue_wait_us", &[])
            .unwrap();
        assert_eq!(
            wait.count, BANKS as u64,
            "one wait sample per bank of the dispatched pass after attach"
        );
    }
}
