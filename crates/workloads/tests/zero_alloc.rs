//! The plant step loop — `board.step(run.loads())` then
//! `run.advance(..)` — must not touch the heap once warmed up, phase
//! changes included. A counting global allocator pins that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use yukta_board::{Actuation, Board, BoardConfig, Placement};
use yukta_workloads::{WorkloadRun, catalog};

/// Counts allocations per thread, so the test harness's own threads
/// cannot leak into the measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn warm_step_loop_does_not_allocate() {
    let wl = catalog::parsec::bodytrack();
    let mut board = Board::new(BoardConfig::odroid_xu3());
    board.actuate(&Actuation {
        f_big: Some(1.4),
        f_little: Some(0.9),
        placement: Some(Placement {
            threads_big: 4,
            packing_big: 1.0,
            packing_little: 1.0,
        }),
        ..Default::default()
    });
    let mut run = WorkloadRun::new(&wl);
    // Warm up to just short of the first track → reduce boundary (track0
    // is 420 of bodytrack's 1500 GI), so the measured window crosses a
    // phase change and exercises the load-cache refresh.
    while run.progress_fraction() < 0.27 {
        let rep = board.step(run.loads());
        run.advance(rep.thread_progress);
    }
    let threads_before = run.active_threads();

    let before = allocs();
    for _ in 0..1_000 {
        let rep = board.step(run.loads());
        run.advance(rep.thread_progress);
    }
    let during = allocs() - before;

    assert!(!run.is_done(), "bodytrack finished inside the window");
    assert_eq!(threads_before, 8, "window must start in a track phase");
    assert_eq!(run.active_threads(), 2, "window must cross into reduce");
    assert_eq!(during, 0, "{during} heap allocations in 1000 warm steps");
}
