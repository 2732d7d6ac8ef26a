//! Pins that constructing a simulator costs O(1) allocations: `Simulator::new`
//! builds an empty event heap and packet slab that grow on demand, so a sweep
//! that builds hundreds of simulators pays nothing per cell up front.
//!
//! Lives in its own test binary so its counting allocator cannot interfere
//! with `trace_noalloc.rs`, and counts per thread so the test harness's own
//! threads cannot pollute the count.

// The workspace denies `unsafe_code`; implementing `GlobalAlloc` is
// inherently unsafe. The impl only delegates to `System` and bumps a
// thread-local counter.
#![allow(unsafe_code)]

use netsim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown, after the counter is
    // gone, are simply not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with no destructor, so bumping it never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn constructing_a_simulator_allocates_a_small_constant_number_of_times() {
    let before = allocs();
    let sim = Simulator::new(1);
    let n = allocs() - before;
    assert!(n <= 2, "Simulator::new made {n} allocations, want at most 2");
    drop(sim);
}
