//! A persistent worker pool shared by every fan-out phase.
//!
//! The paper parallelizes each platform by fanning work over independent
//! workers; the seed implementation spawned a fresh set of scoped
//! threads for **every** phase of every task, which at smoke scale costs
//! more than the work itself. This pool spawns its threads once per
//! process ([`WorkerPool::global`]) and hands each phase to them as a
//! *broadcast*: the calling thread participates as slot 0, up to
//! `parallelism - 1` pool workers join, and everyone pulls chunks off an
//! atomic counter owned by the caller (dynamic claiming — no static
//! partitioning, so stragglers cannot leave cores idle).
//!
//! Exactness is the caller's concern and is easy to keep: claim indices
//! are handed out monotonically and results are gathered by chunk index,
//! so output never depends on which thread ran which chunk. That loop is
//! written once, as `WorkerPool::gather`.
//!
//! The cluster twins run on the same threads: a Hive map or reduce phase
//! and a Spark stage are [`WorkerPool::run_contained`], in [`crate::exec`]
//! — this module knows threads and depends on nothing but `std`.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, OnceLock};
use std::thread;

/// The caller's job closure with its lifetime erased. The erasure is
/// enforced at runtime: `broadcast` does not return (or unwind) until
/// every worker that entered the job has left it.
#[derive(Clone, Copy)]
struct Job(&'static (dyn Fn(usize) + Sync));

struct State {
    /// Monotonic job id so a worker never re-joins a job it finished.
    epoch: u64,
    job: Option<Job>,
    /// Pool workers still allowed to join the current job.
    seats: usize,
    /// Next participant slot index (caller is always slot 0).
    next_slot: usize,
    /// Workers currently inside the job closure.
    active: usize,
    /// A worker's job closure panicked during the current job.
    panicked: bool,
}

/// Persistent pool of worker threads; see the module docs.
pub struct WorkerPool {
    state: Mutex<State>,
    /// Workers wait here for a new job epoch.
    work_cv: Condvar,
    /// The submitter waits here for `active == 0`.
    done_cv: Condvar,
    /// Serializes broadcasts so two phases never share the seat state.
    submit: Mutex<()>,
    spawned: OnceLock<()>,
    size: usize,
}

thread_local! {
    /// True inside pool workers and inside a thread's own `broadcast`,
    /// so a re-entrant broadcast (a job that itself fans out) degrades
    /// to inline execution instead of deadlocking on the submit lock.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Shrug off lock poisoning: every critical section restores the pool's
/// invariants before any unwind can drop its guard (`broadcast` re-raises
/// a job panic only after seating is closed and `active == 0`), so a
/// poisoned mutex still holds consistent state. The same holds for a
/// mutex whose every critical section is one store or one push.
pub(crate) fn recover<T>(r: LockResult<T>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How many threads this host runs at once — what a platform twin asks
/// of the pool by default. Not the pool's size: that is at least 8, and
/// eight participants on two cores would stretch every measured task.
pub fn host_parallelism() -> usize {
    thread::available_parallelism().map_or(4, |n| n.get())
}

impl WorkerPool {
    /// The process-wide pool: one thread per available core, but at
    /// least 8 so the benchmark's 8-way runs exercise real concurrency
    /// even on smaller machines.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::with_size(host_parallelism().max(8)))
    }

    /// A pool with exactly `size` worker threads, spawned lazily on the
    /// first broadcast. Prefer [`WorkerPool::global`]; a non-global pool
    /// must be leaked (`&'static`) before use and its threads live until
    /// the process exits.
    pub fn with_size(size: usize) -> WorkerPool {
        WorkerPool {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                seats: 0,
                next_slot: 0,
                active: 0,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            submit: Mutex::new(()),
            spawned: OnceLock::new(),
            size,
        }
    }

    /// Number of pool worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        recover(self.state.lock())
    }

    fn worker_loop(&self) {
        IN_POOL.with(|f| f.set(true));
        let mut last_epoch = 0u64;
        loop {
            let (job, slot) = {
                let mut st = self.lock_state();
                loop {
                    if st.seats > 0 && st.epoch != last_epoch {
                        if let Some(job) = st.job {
                            last_epoch = st.epoch;
                            st.seats -= 1;
                            st.active += 1;
                            let slot = st.next_slot;
                            st.next_slot += 1;
                            break (job, slot);
                        }
                    }
                    st = recover(self.work_cv.wait(st));
                }
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| (job.0)(slot)));
            let mut st = self.lock_state();
            if outcome.is_err() {
                st.panicked = true;
            }
            st.active -= 1;
            if st.active == 0 {
                self.done_cv.notify_all();
            }
        }
    }

    /// Run `f` with up to `parallelism` concurrent participants: the
    /// calling thread as slot 0 plus pool workers on slots `1..`. Each
    /// participant calls `f(slot)` exactly once; dynamic load balance
    /// comes from `f` claiming chunks off a caller-owned atomic counter.
    /// Returns the number of participants that actually joined (at
    /// least 1; pool workers may miss a short job entirely, which is
    /// fine because the caller drains the remaining chunks itself).
    ///
    /// # Panics
    /// Re-raises a panic from `f` (on any participant) after every
    /// participant has left the closure.
    pub fn broadcast(&'static self, parallelism: usize, f: &(dyn Fn(usize) + Sync)) -> usize {
        if parallelism <= 1 || self.size == 0 || IN_POOL.with(Cell::get) {
            // Re-entrant or trivially serial: run inline.
            f(0);
            return 1;
        }
        self.spawned.get_or_init(|| {
            for i in 0..self.size {
                thread::Builder::new()
                    .name(format!("smda-pool-{i}"))
                    .spawn(move || self.worker_loop())
                    .expect("spawn pool worker");
            }
        });
        let _submit = recover(self.submit.lock());
        {
            let mut st = self.lock_state();
            st.epoch += 1;
            // SAFETY: lifetime erasure only. Before this function
            // returns or unwinds it closes seating and waits for
            // `active == 0`, so no worker outlives the real borrow.
            st.job = Some(Job(unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
            }));
            st.seats = (parallelism - 1).min(self.size);
            st.next_slot = 1;
            st.panicked = false;
            self.work_cv.notify_all();
        }
        IN_POOL.with(|g| g.set(true));
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        IN_POOL.with(|g| g.set(false));
        let (participants, worker_panicked) = {
            let mut st = self.lock_state();
            st.seats = 0; // close seating — the work is already drained
            while st.active > 0 {
                st = recover(self.done_cv.wait(st));
            }
            st.job = None;
            (st.next_slot, st.panicked)
        };
        match caller {
            Err(payload) => resume_unwind(payload),
            Ok(()) if worker_panicked => panic!("pool worker panicked during broadcast"),
            Ok(()) => participants,
        }
    }

    /// The claim-and-gather loop every indexed fan-out runs: up to
    /// `parallelism` participants, each on an `S::default()` of its own,
    /// claim the indices `0..n` off one counter and `run` them. Slot `i`
    /// of the answer holds what `run(_, i)` returned, whichever
    /// participant ran it. Claims ascend and every claimed index is run,
    /// so "the lowest index that failed" is one index on every schedule.
    /// A slot is `None` only if its index never ran, which a `broadcast`
    /// that returned rules out.
    ///
    /// # Panics
    /// Re-raises a panic from `run`, as [`WorkerPool::broadcast`] does.
    pub(crate) fn gather<S: Default, R: Send>(
        &'static self,
        parallelism: usize,
        n: usize,
        run: &(dyn Fn(&mut S, usize) -> R + Sync),
    ) -> Vec<Option<R>> {
        // Relaxed: the counter hands out indices and publishes nothing;
        // results travel through the slots' mutex.
        let next = AtomicUsize::new(0);
        let slots = Mutex::new((0..n).map(|_| None).collect::<Vec<_>>());
        self.broadcast(parallelism.min(n), &|_slot| {
            let mut state = S::default();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = run(&mut state, i);
                recover(slots.lock())[i] = Some(result);
            }
        });
        recover(slots.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_drains_every_chunk_exactly_once() {
        let pool = WorkerPool::global();
        for parallelism in [1usize, 2, 4, 8] {
            let n = 97;
            let next = AtomicUsize::new(0);
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let participants = pool.broadcast(parallelism, &|_slot| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n {
                    break;
                }
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            assert!(participants >= 1 && participants <= parallelism);
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn broadcast_is_reusable_back_to_back() {
        let pool = WorkerPool::global();
        for round in 0..20 {
            let total = AtomicUsize::new(0);
            pool.broadcast(4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
            let t = total.load(Ordering::Relaxed);
            assert!((1..=4).contains(&t), "round {round}: {t} participants");
        }
    }

    #[test]
    fn caller_panic_is_reraised_and_pool_survives() {
        let pool = WorkerPool::global();
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(4, &|slot| {
                if slot == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool survives and still runs jobs afterwards.
        let ran = AtomicUsize::new(0);
        pool.broadcast(2, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ran.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn reentrant_broadcast_degrades_to_inline() {
        let pool = WorkerPool::global();
        let inner_runs = AtomicUsize::new(0);
        pool.broadcast(4, &|_| {
            // Fanning out from inside a job must not deadlock.
            let p = pool.broadcast(4, &|_| {
                inner_runs.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(p, 1);
        });
        assert!(inner_runs.load(Ordering::Relaxed) >= 1);
    }
}
