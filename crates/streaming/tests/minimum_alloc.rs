//! The Minimum row update allocates nothing once the reservoirs are full.
//!
//! A counting global allocator (its own test binary, so no other test's
//! allocations are in scope) counts the heap allocations made on the
//! measuring thread while a warmed sketch processes 10k fresh items one at a
//! time.

use mcf0_hashing::Xoshiro256StarStar;
use mcf0_streaming::workloads::planted_f0_stream;
use mcf0_streaming::{F0Config, F0Sketch, MinimumF0};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Only the measuring thread counts; the test harness's own threads
    /// allocate whenever they like.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a side effect that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts the allocations `body` makes on this thread.
fn allocations_in(body: impl FnOnce()) -> usize {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    body();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warmed_minimum_sketch_processes_items_without_allocating() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(13);
    let config = F0Config::explicit(0.8, 0.2, 150, 9);
    let mut sketch = MinimumF0::new(32, &config, &mut rng);
    // Warm-up fills every reservoir to Thresh; the measured items are a
    // second planted stream, so most are new and some still enter the
    // reservoirs (the insert path is exercised, not just the rejection).
    let warm = planted_f0_stream(&mut rng, 32, 5_000, 5_000);
    for &item in &warm {
        sketch.process(item);
    }
    let measured = planted_f0_stream(&mut rng, 32, 10_000, 10_000);
    // The counter itself works: one boxed value is one allocation.
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(Box::new(7u64)))),
        1
    );
    let before = sketch.clone();
    let allocations = allocations_in(|| {
        for &item in &measured {
            sketch.process(std::hint::black_box(item));
        }
    });
    assert_eq!(allocations, 0, "10k warmed row updates allocated");
    assert_ne!(
        (0..sketch.num_rows())
            .map(|i| sketch.row_parts(i).1)
            .collect::<Vec<_>>(),
        (0..before.num_rows())
            .map(|i| before.row_parts(i).1)
            .collect::<Vec<_>>(),
        "the measured items never entered a reservoir"
    );
}
