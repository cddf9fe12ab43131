//! Proof that disabled instrumentation stays off the allocator.
//!
//! The acceptance bar for leaving instrumentation compiled into hot
//! paths (the auditor request loop, the modelled secure world) is that
//! the *disabled* path — no subscriber installed — costs a few atomic
//! operations and never touches the heap. A counting global allocator
//! measures exactly that, per thread: the test harness runs tests on
//! parallel threads, and a process-wide count would charge a sibling
//! test's allocations to the one being measured.

use alidrone_geo::Duration;
use alidrone_obs::{Level, Obs, RingBuffer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    // A const-initialised `Cell` needs no lazy setup or destructor, so
    // bumping it from inside the allocator cannot itself allocate.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread. `try_with` fails only
/// while the thread's locals are being torn down; those allocations
/// happen after any measurement on that thread has finished.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The counter is live: a heap allocation on this thread is seen.
#[test]
fn counter_sees_this_threads_allocations() {
    let n = allocations_during(|| drop(std::hint::black_box(vec![1u8; 64])));
    assert!(n >= 1, "allocation not counted");
}

/// Counters, histograms, spans, and gated events: zero allocations
/// per operation when no subscriber is installed.
#[test]
fn disabled_path_never_allocates() {
    let obs = Obs::noop();
    // Handle registration may allocate; it happens once at setup.
    let requests = obs.counter("server.requests");
    let inflight = obs.gauge("server.inflight");
    let latency = obs.histogram("server.latency");

    let n = allocations_during(|| {
        for i in 0..10_000u64 {
            requests.inc();
            inflight.set(i as i64);
            latency.record(Duration::from_millis(1.5));
            let span = obs.span(&latency);
            obs.emit(Level::Info, "server", "request_done", |f| {
                // Field construction allocates — this closure must not run.
                f.field("detail", format!("request {i}"));
            });
            drop(span);
        }
    });
    assert_eq!(n, 0, "disabled instrumentation path allocated {n} times");
}

/// The same event stream with a subscriber installed *does* reach the
/// subscriber — the gate is the subscriber, not a dead code path.
#[test]
fn enabled_path_still_delivers() {
    let obs = Obs::noop();
    let ring = Arc::new(RingBuffer::new(16));
    obs.set_subscriber(ring.clone());
    obs.emit(Level::Info, "server", "request_done", |f| {
        f.field("detail", format!("request {}", 7));
    });
    assert_eq!(ring.len(), 1);
    assert_eq!(
        ring.events()[0].field("detail").unwrap().as_str(),
        Some("request 7")
    );
}

/// Uninstalling the subscriber returns emit to the allocation-free path.
#[test]
fn clearing_subscriber_restores_no_alloc() {
    let obs = Obs::noop();
    let ring = Arc::new(RingBuffer::new(16));
    obs.set_subscriber(ring);
    obs.clear_subscriber();
    let n = allocations_during(|| {
        for _ in 0..1000 {
            obs.emit(Level::Debug, "t", "m", |f| {
                f.field("s", "heap".to_string());
            });
        }
    });
    assert_eq!(n, 0);
}
