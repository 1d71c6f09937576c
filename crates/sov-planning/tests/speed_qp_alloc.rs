//! `SpeedQp::solve` allocates nothing once its workspace is built.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's own threads cannot disturb the count.

use sov_planning::qp::SpeedQp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees for `GlobalAlloc` carry over; the count is a
// side effect on a const-initialized thread local that never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn solve_allocates_nothing_once_the_workspace_is_built() {
    // The MPC planner's shape (20 knots) and the EM planner's (50).
    for (n, w_v, w_a) in [(20, 1.0, 2.0), (50, 1.0, 4.0)] {
        let mut qp = SpeedQp::new(n, w_v, w_a);
        let refs: Vec<f64> = (0..n).map(|k| 6.0 - (k as f64 * 0.2)).collect();
        let zeros = vec![0.0; n];
        let lo = vec![0.0; n];
        let hi: Vec<f64> = (0..n).map(|k| 5.0 + k as f64 * 0.2).collect();
        let nan_hi = vec![f64::NAN; n];
        let before = allocations();
        let stats = qp.solve(&refs, &lo, &hi, 600, 1e-7).expect("feasible");
        // All-zero references take the dense fallback rows.
        qp.solve(&zeros, &lo, &hi, 600, 1e-7).expect("feasible");
        assert!(qp.solve(&refs, &lo, &nan_hi, 600, 1e-7).is_err());
        let after = allocations();
        assert!(stats.iterations > 1, "{stats:?}");
        assert_eq!(after - before, 0, "n = {n}: solve allocated");
    }
}
