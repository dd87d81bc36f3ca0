//! Heap-allocation budgets of TMR maintenance and of an eager op that
//! dispatches to parked fan-out workers, counted by a global allocator
//! that forwards to the system allocator.
//!
//! Everything runs in one `#[test]`: the harness runs tests on threads of
//! its own, and a second test would add its allocations to the shared
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ambit_repro::core::{
    bitwise_tmr, AmbitMemory, BitwiseOp, ResilientConfig, ResilientExecutor, TmrVector,
};
use ambit_repro::dram::{AapMode, DramGeometry, TimingParams};

/// Allocations (and reallocations) since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation, then forwards it to [`System`].
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract for them; the only other work is a
// relaxed atomic increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Allocations allowed for one fault-free protected AND on a 1 KB vector,
/// the destination's check and heal included.
const AND_BUDGET: u64 = 8;

#[test]
fn tmr_maintenance_stays_within_its_allocation_budget() {
    // The counter sees a known allocation.
    let (buffer, n) = counted(|| Vec::<u64>::with_capacity(4));
    assert_eq!(n, 1);
    drop(buffer);

    let bits = 8 * 1024;
    let mem = AmbitMemory::new(
        DramGeometry::ddr3_module(),
        TimingParams::ddr3_1600(),
        AapMode::Overlapped,
    );
    let mut exec = ResilientExecutor::new(mem, ResilientConfig::default());
    let (a, b, out) = (
        exec.alloc(bits).unwrap(),
        exec.alloc(bits).unwrap(),
        exec.alloc(bits).unwrap(),
    );
    exec.write(a, &(0..bits).map(|i| i % 3 == 0).collect::<Vec<_>>())
        .unwrap();
    exec.write(b, &(0..bits).map(|i| i % 5 == 0).collect::<Vec<_>>())
        .unwrap();

    // A standalone TMR vector whose replicas agree: checking and scrubbing
    // it borrows the rows and writes nothing.
    let mem = exec.memory_mut();
    let v = TmrVector::alloc(mem, bits).unwrap();
    v.write(mem, &vec![true; bits]).unwrap();
    let (suspects, n) = counted(|| v.suspects(mem).unwrap());
    assert_eq!((suspects, n), (0, 0), "suspects allocates nothing");
    let (repaired, n) = counted(|| v.scrub(mem).unwrap());
    assert_eq!((repaired, n), (0, 0), "a clean scrub allocates nothing");

    // Replicas that agree after an in-DRAM op (three distinct buffers,
    // compared word by word) are checked and scrubbed for free too.
    let d = TmrVector::alloc(mem, bits).unwrap();
    bitwise_tmr(mem, BitwiseOp::And, &v, Some(&v), &d).unwrap();
    assert_eq!(counted(|| d.suspects(mem).unwrap()), (0, 0));
    assert_eq!(counted(|| d.scrub(mem).unwrap()), (0, 0));

    // A fault-free protected AND, after one that fills the plan cache.
    exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
    let (report, n) = counted(|| exec.bitwise(BitwiseOp::And, a, Some(b), out).unwrap());
    assert_eq!((report.retries, report.scrubs), (0, 0), "{report:?}");
    assert!(
        n <= AND_BUDGET,
        "a fault-free protected AND made {n} allocations (budget {AND_BUDGET})"
    );
    println!("fault-free protected AND: {n} allocations");

    // A fault-free eager AND over 128 chunks striped across all 8 banks,
    // on a two-thread budget: each op hands four banks to the parked
    // worker and takes them back. Once warm it allocates nothing: the
    // queues, job lists and plans are reused, and the functional model
    // writes its results into row buffers that precharges released.
    let mem = exec.memory_mut();
    mem.set_pool_threads(2);
    let wide = 128 * mem.row_bits();
    let (x, y, z) = (
        mem.alloc(wide).unwrap(),
        mem.alloc(wide).unwrap(),
        mem.alloc(wide).unwrap(),
    );
    mem.poke_bits(x, &(0..wide).map(|i| i % 3 == 0).collect::<Vec<_>>())
        .unwrap();
    mem.poke_bits(y, &(0..wide).map(|i| i % 7 == 0).collect::<Vec<_>>())
        .unwrap();
    for _ in 0..3 {
        mem.bitwise(BitwiseOp::And, x, Some(y), z).unwrap();
    }
    let before = mem.pool_stats();
    let (_, n) = counted(|| mem.bitwise(BitwiseOp::And, x, Some(y), z).unwrap());
    let after = mem.pool_stats();
    assert_eq!(
        (
            after.warm_dispatches - before.warm_dispatches,
            after.cold_spawns
        ),
        (1, 1),
        "the AND was handed to the one parked worker: {after:?}"
    );
    assert_eq!(
        n, 0,
        "a dispatched eager AND made {n} allocations (budget 0)"
    );
    println!("dispatched eager AND: {n} allocations");
}
