//! The parties' one fan-out: a [`Pool`] of fixed width whose one
//! operation, [`Pool::map`], is the static `parallel for` of each party.
//!
//! A call cuts its `len` items into `m = min(width, len)` contiguous chunks
//! (`[k·len/m, (k+1)·len/m)`), runs chunk 0 on the caller and the rest on
//! named scoped threads, and returns the results in order. Width 1 or under
//! two items runs inline, starting no thread (a call nested in it may still
//! fan out); a call inside a chunk runs inline; a chunk whose thread cannot
//! start runs on the caller. A panic is re-raised with its payload once all
//! threads are joined: the caller's chunks' first, then the workers' in order.

use std::cell::Cell;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// A fork-join pool; worker `k` runs on a thread named `{label}-worker{k}`.
pub struct Pool {
    width: usize,
    label: String,
}

/// Worker threads this process has started so far (a test statistic).
pub fn worker_threads_started() -> u64 {
    WORKERS_STARTED.load(Ordering::Relaxed)
}

static WORKERS_STARTED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread runs a chunk: nested calls run inline.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

impl Pool {
    /// A pool of `width` workers (0 is treated as 1). No thread starts here.
    pub fn new(width: usize, label: impl Into<String>) -> Pool {
        Pool { width: width.max(1), label: label.into() }
    }

    /// The number of chunks a call over many items is cut into.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `f` over `items`, in order, fanned out across the pool.
    pub fn map<T: Send, R: Send>(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        let len = items.len();
        if self.width < 2 || len < 2 || IN_CHUNK.get() {
            return items.into_iter().map(f).collect();
        }
        let (m, mut items) = (self.width.min(len), items.into_iter());
        let size = |k: usize| (k + 1) * len / m - k * len / m;
        // Chunk k's items in, its results out; locked only to move them.
        let slots: Vec<Mutex<(Vec<T>, Vec<R>)>> =
            (0..m).map(|k| Mutex::new((items.by_ref().take(size(k)).collect(), vec![]))).collect();
        let lock = |k: usize| slots[k].lock().unwrap_or_else(PoisonError::into_inner);
        self.fan_out(m, &|k| {
            IN_CHUNK.set(true);
            let chunk = mem::take(&mut lock(k).0);
            let out = chunk.into_iter().map(&f).collect();
            lock(k).1 = out;
        });
        (0..m).flat_map(|k| mem::take(&mut lock(k).1)).collect()
    }

    /// Runs `chunk(k)` for every `k < m`. Not generic, so every call shares
    /// one copy of the spawn, join and panic machinery.
    fn fan_out(&self, m: usize, chunk: &(dyn Fn(usize) + Sync)) {
        thread::scope(|scope| {
            let (mut mine, mut handles) = (vec![0], Vec::new());
            for k in 1..m {
                let worker = thread::Builder::new().name(format!("{}-worker{k}", self.label));
                match worker.spawn_scoped(scope, move || chunk(k)) {
                    Ok(handle) => handles.push(handle),
                    Err(_) => mine.push(k),
                }
            }
            WORKERS_STARTED.fetch_add(handles.len() as u64, Ordering::Relaxed);
            // Every handle is joined by hand: a panic the scope joins for us
            // would come back as "a scoped thread panicked", payload lost.
            let joined = handles.into_iter().map(|handle| handle.join());
            let mut ran: Vec<_> =
                mine.into_iter().map(|k| catch_unwind(AssertUnwindSafe(|| chunk(k)))).collect();
            IN_CHUNK.set(false); // only a caller in no chunk fans out
            ran.extend(joined);
            if let Some(payload) = ran.into_iter().find_map(Result::err) {
                resume_unwind(payload);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    const WIDTHS: [usize; 5] = [1, 2, 3, 4, 7];

    fn pool(width: usize) -> Pool {
        Pool::new(width, "test")
    }

    /// The contract's length grid for one width.
    fn lengths(width: usize) -> Vec<usize> {
        vec![0, 1, 2, width.saturating_sub(1), width, width + 1, 1000]
    }

    /// The threads a map over `len` items on `pool` ran on.
    fn threads_used(pool: &Pool, len: usize) -> HashSet<ThreadId> {
        pool.map(vec![(); len], |()| thread::current().id()).into_iter().collect()
    }

    #[test]
    fn map_equals_std_at_every_width_and_length() {
        for width in WIDTHS {
            for len in lengths(width) {
                let v: Vec<u64> = (0..len as u64).map(|i| i * 7 + 3).collect();
                let want: Vec<u64> = v.iter().map(|&x| x * x + 1).collect();
                assert_eq!(pool(width).map(v, |x| x * x + 1), want, "width {width} len {len}");
            }
        }
    }

    #[test]
    fn a_result_collect_keeps_the_lowest_index_error() {
        for width in WIDTHS {
            for len in lengths(width) {
                // Errors in every chunk: the one at the smallest index wins.
                for first_bad in [0, len / 3, len.saturating_sub(1)] {
                    let one = |i: usize| {
                        if i >= first_bad && i % 2 == first_bad % 2 {
                            Err(i)
                        } else {
                            Ok(i)
                        }
                    };
                    let got: Result<Vec<usize>, usize> =
                        pool(width).map((0..len).collect(), one).into_iter().collect();
                    let want: Result<Vec<usize>, usize> = (0..len).map(one).collect();
                    assert_eq!(got, want, "width {width} len {len} first_bad {first_bad}");
                }
            }
        }
    }

    #[test]
    fn fans_out_to_min_width_len_contiguous_chunks_with_chunk_0_on_the_caller() {
        let me = thread::current().id();
        for width in [2, 3, 4, 7] {
            for len in lengths(width).into_iter().filter(|&len| len >= 2) {
                let ids = pool(width).map(vec![(); len], |()| thread::current().id());
                assert_eq!(ids[0], me, "chunk 0 runs on the caller");
                let runs = 1 + ids.windows(2).filter(|w| w[0] != w[1]).count();
                let distinct: HashSet<ThreadId> = ids.iter().copied().collect();
                assert_eq!(distinct.len(), width.min(len), "width {width} len {len}");
                assert_eq!(runs, distinct.len(), "each thread owns one contiguous run");
            }
        }
    }

    #[test]
    fn width_1_and_short_inputs_run_inline_and_start_no_thread() {
        let me: HashSet<ThreadId> = [thread::current().id()].into();
        // Other tests of this binary start workers concurrently, so the
        // process-wide counter cannot be compared here; thread identity can.
        assert_eq!(threads_used(&pool(1), 1000), me, "width 1");
        assert_eq!(pool(0).width(), 1);
        for width in WIDTHS {
            assert_eq!(threads_used(&pool(width), 1), me, "one item, width {width}");
            assert!(threads_used(&pool(width), 0).is_empty());
        }
    }

    #[test]
    fn a_call_nested_inside_a_chunk_runs_inline() {
        let (outer, inner) = (pool(3), pool(4));
        let nested = outer.map(vec![(); 3], |()| {
            let mine = threads_used(&outer, 100);
            (thread::current().id(), mine, threads_used(&inner, 100))
        });
        let chunk_threads: HashSet<ThreadId> = nested.iter().map(|n| n.0).collect();
        assert_eq!(chunk_threads.len(), 3, "the outer call did fan out");
        for (chunk, mine, other) in nested {
            let only_me: HashSet<ThreadId> = [chunk].into();
            assert_eq!(mine, only_me, "a nested call left its chunk's thread");
            assert_eq!(other, only_me, "another pool's call inside a chunk fanned out");
        }
        // After the call the caller is no chunk.
        assert_eq!(threads_used(&outer, 100).len(), 3);
    }

    /// A one-item call runs inline *without* becoming a chunk: the pool
    /// stays free to the call nested inside it (a single payload's decrypt
    /// fans out per feature).
    #[test]
    fn a_one_item_call_leaves_a_nested_call_free_to_fan_out() {
        let outer = pool(3);
        assert_eq!(outer.map(vec![()], |()| threads_used(&outer, 100).len()), vec![3]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload_and_thread_name() {
        for width in [2, 4] {
            let pool = pool(width);
            // Panic in the last chunk only: always a spawned worker.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.map((0..100usize).collect(), |i| {
                    if i == 99 {
                        let name = thread::current().name().unwrap_or("?").to_string();
                        panic!("boom at {i} on {name}");
                    }
                    i
                })
            }));
            let payload = caught.expect_err("the panic must propagate");
            let text = payload.downcast_ref::<String>().expect("original String payload");
            assert_eq!(text, &format!("boom at 99 on test-worker{}", width - 1));
            // Non-string payloads survive too, and so does a panic in the
            // caller's own chunk while workers are still running.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.map((0..100usize).collect(), |i| {
                    if i == 0 {
                        std::panic::panic_any(42u8)
                    }
                    i
                })
            }));
            assert_eq!(caught.expect_err("propagates").downcast_ref::<u8>(), Some(&42));
            // The pool and the caller are intact afterwards.
            assert_eq!(threads_used(&pool, 100).len(), width);
        }
    }

    #[test]
    fn the_started_count_grows_only_with_fan_out() {
        let before = worker_threads_started();
        threads_used(&pool(3), 100);
        assert!(worker_threads_started() >= before + 2);
    }
}
