//! A std-only persistent worker pool with deterministic chunked execution.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Chunk boundaries depend only on the input length and
//!    the caller-chosen chunk size — never on the worker count or on
//!    scheduling. Every chunk writes to data disjoint from every other
//!    chunk (its sub-slice, or its slot of the output), and reductions
//!    merge chunk results in ascending chunk order on the calling thread.
//!    Consequently a pool of any size produces output bit-identical to
//!    serial execution of the same chunks.
//! 2. **No allocation per work item.** Threads are spawned once and live
//!    for the pool's lifetime; dispatching a parallel region costs one
//!    `Arc` and one channel send per worker.
//! 3. **std only.** No crossbeam, no rayon: `mpsc` for dispatch, an atomic
//!    cursor for chunk claiming, and a `Condvar` for completion.
//!
//! The calling thread always participates as a lane, so a pool never
//! deadlocks even with zero spawned workers, and `WorkerPool::new(1)` is
//! exactly serial execution.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::slice::{from_raw_parts, from_raw_parts_mut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A chunk-executable parallel region (lifetime-erased by [`Unit`]).
trait Task: Sync {
    /// Runs chunk `index`; chunks are disjoint by construction.
    fn run_chunk(&self, index: usize);
}

/// Shared state of one parallel region.
struct Unit {
    /// Type- and lifetime-erased task pointer. Safety: the dispatching
    /// call blocks until `finished == total`, and workers dereference the
    /// pointer only while executing a claimed chunk (strictly before their
    /// `finished` increment), so the pointee outlives every dereference.
    task: *const (dyn Task + 'static),
    /// Next unclaimed chunk.
    next: AtomicUsize,
    /// Total number of chunks.
    total: usize,
    /// Chunks completed (including panicked ones).
    finished: AtomicUsize,
    /// Set when any chunk panicked.
    panicked: AtomicBool,
    /// Completion signal: `finished == total`.
    done: (Mutex<bool>, Condvar),
}

// SAFETY: `task` points at a `Sync` task (enforced by the only
// constructor, `WorkerPool::run_unit`) that outlives the unit's use: the
// dispatching call blocks on the completion barrier before returning, so
// no lane can observe a dangling pointer after a move between threads.
unsafe impl Send for Unit {}
// SAFETY: every field reachable through `&Unit` is synchronized —
// `next`/`finished` are atomics, `panicked` an atomic flag, `done` a
// mutex/condvar pair — and `task` is only ever read as `&dyn Task`,
// which is safe to share because the pointee is `Sync` (same
// constructor-enforced invariant as above).
unsafe impl Sync for Unit {}

impl Unit {
    /// Claims and runs chunks until none remain. Returns whether this lane
    /// executed the final chunk (and therefore signalled completion).
    fn participate(&self) {
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.total {
                return;
            }
            // SAFETY: see the `task` field invariant.
            let task = unsafe { &*self.task };
            if catch_unwind(AssertUnwindSafe(|| task.run_chunk(chunk))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
                let (lock, cvar) = &self.done;
                *lock
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
                cvar.notify_all();
            }
        }
    }

    /// Blocks until every chunk has finished.
    fn wait(&self) {
        let (lock, cvar) = &self.done;
        let mut done = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*done {
            done = cvar
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// A persistent pool of worker threads for deterministic data parallelism.
///
/// `lanes` counts the calling thread: `WorkerPool::new(4)` spawns three
/// worker threads and the caller works as the fourth lane. All `parallel_*`
/// methods produce output bit-identical to serial execution regardless of
/// `lanes` (see the module docs for why).
#[derive(Debug)]
pub struct WorkerPool {
    lanes: usize,
    sender: Option<Sender<Arc<Unit>>>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `lanes` parallel lanes (the calling thread is
    /// one of them; `lanes - 1` threads are spawned).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    #[must_use]
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "a pool needs at least one lane");
        let (sender, receiver) = channel::<Arc<Unit>>();
        let receiver = Arc::new(Mutex::new(receiver));
        let threads = (1..lanes)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<Arc<Unit>>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("sov-pool-{i}"))
                    .spawn(move || loop {
                        let unit = {
                            let guard = receiver
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            guard.recv()
                        };
                        match unit {
                            Ok(unit) => unit.participate(),
                            Err(_) => return, // pool dropped
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            lanes,
            sender: Some(sender),
            threads,
        }
    }

    /// Number of parallel lanes (including the calling thread).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Dispatches `task` over `total` chunks and blocks until complete.
    ///
    /// # Panics
    ///
    /// Re-raises (as a fresh panic) if any chunk panicked.
    fn run_unit(&self, task: &(dyn Task + '_), total: usize) {
        if total == 0 {
            return;
        }
        // SAFETY (lifetime erasure): we block on `unit.wait()` below, so
        // `task` outlives every dereference made by workers.
        let task: *const (dyn Task + 'static) = unsafe { std::mem::transmute(task) };
        let unit = Arc::new(Unit {
            task,
            next: AtomicUsize::new(0),
            total,
            finished: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done: (Mutex::new(false), Condvar::new()),
        });
        if let Some(sender) = &self.sender {
            // One wake-up per worker; workers finding no unclaimed chunk
            // return immediately, so over-notifying is harmless.
            for _ in 0..self.threads.len().min(total.saturating_sub(1)) {
                if sender.send(Arc::clone(&unit)).is_err() {
                    break;
                }
            }
        }
        unit.participate();
        unit.wait();
        assert!(
            !unit.panicked.load(Ordering::Acquire),
            "a parallel chunk panicked"
        );
    }

    /// Runs `f` over fixed-size chunks of `items` in parallel, in place.
    ///
    /// `f(start, chunk)` receives the chunk's starting index in `items`
    /// and the mutable sub-slice `items[start..start + chunk.len()]`.
    /// Chunk boundaries depend only on `items.len()` and `chunk_size`, so
    /// the result is identical for every pool size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`, or re-raises a chunk panic.
    pub fn parallel_for<T, F>(&self, items: &mut [T], chunk_size: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        let len = items.len();
        if len == 0 {
            return;
        }
        struct ForTask<T, F> {
            base: *mut T,
            len: usize,
            chunk_size: usize,
            f: F,
        }
        // SAFETY: chunks index disjoint sub-slices of one allocation.
        unsafe impl<T: Send, F: Sync> Sync for ForTask<T, F> {}
        impl<T: Send, F: Fn(usize, &mut [T]) + Sync> Task for ForTask<T, F> {
            fn run_chunk(&self, index: usize) {
                let start = index * self.chunk_size;
                let end = (start + self.chunk_size).min(self.len);
                // SAFETY: chunk `index` owns exactly `[start, end)`:
                // distinct chunks cover disjoint sub-ranges of one live
                // allocation (the caller's `&mut [T]`, which outlives the
                // parallel region), so this exclusive sub-slice aliases
                // no other chunk's.
                let slice = unsafe { from_raw_parts_mut(self.base.add(start), end - start) };
                (self.f)(start, slice);
            }
        }
        let task = ForTask {
            base: items.as_mut_ptr(),
            len,
            chunk_size,
            f,
        };
        self.run_unit(&task, len.div_ceil(chunk_size));
    }

    /// Maps fixed-size chunks of `items` in parallel, then folds the chunk
    /// results **in ascending chunk order** on the calling thread — the
    /// ordered merge that keeps floating-point reductions bit-identical to
    /// serial execution of the same chunks.
    ///
    /// `map(start, chunk)` receives the chunk's starting index and the
    /// chunk sub-slice.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`, or re-raises a chunk panic.
    pub fn parallel_map_reduce<T, M, R, Map, Reduce>(
        &self,
        items: &[T],
        chunk_size: usize,
        map: Map,
        init: R,
        mut reduce: Reduce,
    ) -> R
    where
        T: Sync,
        M: Send,
        Map: Fn(usize, &[T]) -> M + Sync,
        Reduce: FnMut(R, M) -> R,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        let len = items.len();
        if len == 0 {
            return init;
        }
        let total = len.div_ceil(chunk_size);
        let mut slots: Vec<Option<M>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        struct MapTask<'s, T, M, Map> {
            items: *const T,
            len: usize,
            chunk_size: usize,
            slots: *mut Option<M>,
            map: &'s Map,
        }
        // SAFETY: each chunk reads a disjoint input range and writes only
        // its own output slot.
        unsafe impl<T: Sync, M: Send, Map: Sync> Sync for MapTask<'_, T, M, Map> {}
        impl<T: Sync, M: Send, Map: Fn(usize, &[T]) -> M + Sync> Task for MapTask<'_, T, M, Map> {
            fn run_chunk(&self, index: usize) {
                let start = index * self.chunk_size;
                let end = (start + self.chunk_size).min(self.len);
                // SAFETY: `[start, end)` is in bounds of the caller's
                // `&[T]` (live for the whole parallel region), and the
                // shared reads need no exclusivity.
                let chunk = unsafe { from_raw_parts(self.items.add(start), end - start) };
                let value = (self.map)(start, chunk);
                // SAFETY: slot `index` is written by exactly this chunk.
                unsafe { *self.slots.add(index) = Some(value) };
            }
        }
        let task = MapTask {
            items: items.as_ptr(),
            len,
            chunk_size,
            slots: slots.as_mut_ptr(),
            map: &map,
        };
        self.run_unit(&task, total);
        // Ordered merge: ascending chunk index, on this thread.
        let mut acc = init;
        for slot in &mut slots {
            let value = slot.take().expect("every chunk completed");
            acc = reduce(acc, value);
        }
        acc
    }

    /// Maps each element of `items` to an output element in parallel,
    /// preserving order: `out[i] = f(i, &items[i])`.
    ///
    /// A convenience wrapper over the chunked machinery for per-element
    /// kernels (e.g. one kd-tree query per point).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`, or re-raises a chunk panic.
    pub fn parallel_map<T, R, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.parallel_map_reduce(
            items,
            chunk_size,
            |start, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, item)| f(start + i, item))
                    .collect::<Vec<R>>()
            },
            Vec::with_capacity(items.len()),
            |mut acc, mut part| {
                acc.append(&mut part);
                acc
            },
        )
    }
}

/// [`WorkerPool::parallel_for`] with a serial fallback: when `pool` is
/// `None` the same chunks run in ascending order on the calling thread, so
/// both paths execute identical chunk boundaries and are bit-identical.
///
/// # Panics
///
/// Panics if `chunk_size == 0`, or re-raises a chunk panic.
pub fn for_chunks<T, F>(pool: Option<&WorkerPool>, items: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    match pool {
        Some(pool) => pool.parallel_for(items, chunk_size, f),
        None => {
            for (index, chunk) in items.chunks_mut(chunk_size).enumerate() {
                f(index * chunk_size, chunk);
            }
        }
    }
}

/// [`WorkerPool::parallel_map_reduce`] with a serial fallback (same chunk
/// boundaries, ascending merge order — bit-identical to the pooled path).
///
/// # Panics
///
/// Panics if `chunk_size == 0`, or re-raises a chunk panic.
pub fn map_reduce_chunks<T, M, R, Map, Reduce>(
    pool: Option<&WorkerPool>,
    items: &[T],
    chunk_size: usize,
    map: Map,
    init: R,
    mut reduce: Reduce,
) -> R
where
    T: Sync,
    M: Send,
    Map: Fn(usize, &[T]) -> M + Sync,
    Reduce: FnMut(R, M) -> R,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    match pool {
        Some(pool) => pool.parallel_map_reduce(items, chunk_size, map, init, reduce),
        None => {
            let mut acc = init;
            for (index, chunk) in items.chunks(chunk_size).enumerate() {
                let value = map(index * chunk_size, chunk);
                acc = reduce(acc, value);
            }
            acc
        }
    }
}

/// [`WorkerPool::parallel_map`] with a serial fallback: `out[i] =
/// f(i, &items[i])` either way.
///
/// # Panics
///
/// Panics if `chunk_size == 0`, or re-raises a chunk panic.
pub fn map_indexed<T, R, F>(
    pool: Option<&WorkerPool>,
    items: &[T],
    chunk_size: usize,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    match pool {
        Some(pool) => pool.parallel_map(items, chunk_size, f),
        None => items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect(),
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.sender.take()); // disconnects every worker's recv()
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn parallel_for_visits_every_element_once() {
        let pool = WorkerPool::new(4);
        let mut data: Vec<u64> = (0..1000).collect();
        pool.parallel_for(&mut data, 64, |start, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = *v * 2 + (start + i) as u64; // depends on true index
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
    }

    #[test]
    fn map_reduce_is_bit_identical_across_lane_counts() {
        // Floating-point sums: chunked reduction order must not depend on
        // the number of lanes.
        let items: Vec<f64> = (0..10_000).map(|i| (i as f64).sin() * 1e3).collect();
        let reference = WorkerPool::new(1).parallel_map_reduce(
            &items,
            128,
            |_, c| c.iter().sum::<f64>(),
            0.0f64,
            |a, b| a + b,
        );
        for lanes in [2, 3, 4, 8] {
            let sum = WorkerPool::new(lanes).parallel_map_reduce(
                &items,
                128,
                |_, c| c.iter().sum::<f64>(),
                0.0f64,
                |a, b| a + b,
            );
            assert_eq!(sum.to_bits(), reference.to_bits(), "lanes {lanes}");
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let pool = WorkerPool::new(3);
        let items: Vec<usize> = (0..257).collect();
        let out = pool.parallel_map(&items, 10, |i, &v| {
            assert_eq!(i, v);
            v * v
        });
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let mut empty: Vec<u8> = Vec::new();
        pool.parallel_for(&mut empty, 8, |_, _| panic!("must not run"));
        let out: Vec<u8> = pool.parallel_map(&empty, 8, |_, v| *v);
        assert!(out.is_empty());
        let sum = pool.parallel_map_reduce(&empty, 8, |_, _| 1u64, 7u64, |a, b| a + b);
        assert_eq!(sum, 7, "init returned untouched");
    }

    #[test]
    fn chunk_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let mut data: Vec<u64> = (0..100).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(&mut data, 10, |start, _| {
                assert!(start != 50, "injected chunk fault");
            });
        }));
        assert!(result.is_err(), "chunk panic must surface to the caller");
        // The pool keeps working after a panicked region.
        let sum = pool.parallel_map_reduce(&data, 16, |_, c| c.len(), 0usize, |a, b| a + b);
        assert_eq!(sum, 100);
    }

    #[test]
    fn single_lane_pool_is_serial() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.lanes(), 1);
        let items: Vec<u32> = (0..50).collect();
        let out = pool.parallel_map(&items, 7, |_, v| v + 1);
        assert_eq!(out, (1..51).collect::<Vec<u32>>());
    }

    #[test]
    fn optional_pool_helpers_match_serial() {
        let pool = WorkerPool::new(4);
        let items: Vec<f64> = (0..1111).map(|i| f64::from(i).cos()).collect();
        let serial = map_reduce_chunks(
            None,
            &items,
            100,
            |_, c| c.iter().sum::<f64>(),
            0.0,
            |a, b| a + b,
        );
        let pooled = map_reduce_chunks(
            Some(&pool),
            &items,
            100,
            |_, c| c.iter().sum::<f64>(),
            0.0,
            |a, b| a + b,
        );
        assert_eq!(serial.to_bits(), pooled.to_bits());

        let mut a = items.clone();
        let mut b = items.clone();
        for_chunks(None, &mut a, 37, |start, c| {
            for (i, v) in c.iter_mut().enumerate() {
                *v = v.sin() + (start + i) as f64;
            }
        });
        for_chunks(Some(&pool), &mut b, 37, |start, c| {
            for (i, v) in c.iter_mut().enumerate() {
                *v = v.sin() + (start + i) as f64;
            }
        });
        assert_eq!(a, b);

        let ser = map_indexed(None, &items, 64, |i, v| v * i as f64);
        let par = map_indexed(Some(&pool), &items, 64, |i, v| v * i as f64);
        assert_eq!(ser, par);
    }

    #[test]
    fn reduction_runs_in_chunk_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let order = pool.parallel_map_reduce(
            &items,
            9,
            |start, _| start,
            Vec::new(),
            |mut acc: Vec<usize>, start| {
                acc.push(start);
                acc
            },
        );
        let expected: Vec<usize> = (0..100usize.div_ceil(9)).map(|c| c * 9).collect();
        assert_eq!(order, expected);
    }
}
