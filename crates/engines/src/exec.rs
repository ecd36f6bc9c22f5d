//! Cluster-twin tasks on the persistent pool: timed, contained, retried.
//!
//! Hive's map and reduce phases and Spark's stages "execute really" so
//! their results are exact; what each task cost feeds the virtual
//! scheduler as `smda_cluster::SimTask::compute`. They run here, on the
//! threads every other fan-out uses ([`WorkerPool::global`]) — the pool
//! knows threads, this layer knows tasks: a clock around each one, a
//! panic contained to the task it felled, a retry budget the way a
//! cluster scheduler re-attempts a failed task, and the counters and
//! typed error that report all three.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use smda_obs::{counters, MetricsSink};
use smda_types::{Error, Result};

use crate::pool::WorkerPool;

impl WorkerPool {
    /// Run `f(0)`, …, `f(n - 1)` on up to `parallelism` participants and
    /// return what each produced, in index order, with the time it took.
    ///
    /// A panic fells its task, not the phase: the task is re-run, up to
    /// `max_attempts` runs in all, while the others' results stand. `f`
    /// borrows its input, so a re-run reads what the first run read.
    /// Re-runs count into [`counters::TASKS_RETRIED`], tasks that then
    /// succeed into [`counters::FAULTS_RECOVERED_TASK_PANIC`], and the
    /// participants asked for into [`counters::WORKERS_SPAWNED`]. An
    /// `Err` that `f` *returns* is a result like any other and is not
    /// retried.
    ///
    /// # Errors
    /// [`Error::TaskFailed`] naming the lowest index still panicking once
    /// the budget is spent (with a budget of 0, nothing runs: index 0).
    pub fn run_contained<R: Send>(
        &'static self,
        parallelism: usize,
        n: usize,
        max_attempts: usize,
        metrics: &MetricsSink,
        f: &(dyn Fn(usize) -> R + Sync),
    ) -> Result<Vec<(R, Duration)>> {
        let workers = parallelism.min(n);
        if workers > 0 {
            metrics.incr(counters::WORKERS_SPAWNED, workers as u64);
        }
        let mut done: Vec<Option<(R, Duration)>> = (0..n).map(|_| None).collect();
        let mut todo: Vec<usize> = (0..n).collect();
        for attempt in 0..max_attempts {
            if todo.is_empty() {
                break;
            }
            if attempt > 0 {
                metrics.incr(counters::TASKS_RETRIED, todo.len() as u64);
            }
            let ran = self.gather(parallelism, todo.len(), &|(): &mut (), j| {
                let start = Instant::now();
                // The hook still prints the payload; a panic costs its
                // task this attempt and nothing else.
                let out = catch_unwind(AssertUnwindSafe(|| f(todo[j]))).ok()?;
                Some((out, start.elapsed()))
            });
            let mut failed = Vec::new();
            for (&i, slot) in todo.iter().zip(ran) {
                match slot.flatten() {
                    Some(timed) => {
                        if attempt > 0 {
                            metrics.incr(counters::FAULTS_RECOVERED_TASK_PANIC, 1);
                        }
                        done[i] = Some(timed);
                    }
                    None => failed.push(i),
                }
            }
            todo = failed;
        }
        (done.into_iter().enumerate())
            .map(|(i, slot)| {
                slot.ok_or_else(|| Error::TaskFailed {
                    task: format!("pool task {i}"),
                    attempts: max_attempts,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Once};

    /// A task panic these tests mean to happen starts with this, and a
    /// hook installed once for the whole test binary stays silent for it
    /// (and only it), so tests on other threads keep their reports. The
    /// hook is process-wide state: swapping it in and out per test would
    /// race.
    const MEANT: &str = "contained on purpose";

    fn hush_meant_panics() {
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let message = (payload.downcast_ref::<String>().map(String::as_str))
                    .or_else(|| payload.downcast_ref::<&str>().copied());
                if !message.is_some_and(|m| m.starts_with(MEANT)) {
                    default(info);
                }
            }));
        });
    }

    fn values<R>(timed: Vec<(R, Duration)>) -> Vec<R> {
        timed.into_iter().map(|(v, _)| v).collect()
    }

    fn run<R: Send>(
        parallelism: usize,
        n: usize,
        f: &(dyn Fn(usize) -> R + Sync),
    ) -> Result<Vec<(R, Duration)>> {
        WorkerPool::global().run_contained(parallelism, n, 1, &MetricsSink::disabled(), f)
    }

    #[test]
    fn outputs_preserve_input_order() {
        let out = run(4, 100, &|i| i * 2).unwrap();
        assert_eq!(values(out), (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn timings_are_recorded() {
        // Lower bounds only: each task's own sleep is inside its clock.
        let out = run(2, 2, &|i| {
            std::thread::sleep(Duration::from_millis(10 * (i as u64 + 1)));
        })
        .unwrap();
        assert!(out[0].1 >= Duration::from_millis(9), "{:?}", out[0].1);
        assert!(out[1].1 >= Duration::from_millis(19), "{:?}", out[1].1);
    }

    #[test]
    fn empty_input_is_fine() {
        let sink = MetricsSink::recording();
        let out = WorkerPool::global()
            .run_contained(4, 0, 3, &sink, &|i| i)
            .unwrap();
        assert!(out.is_empty());
        let report = sink.finish(smda_obs::RunManifest::new("t", "p"));
        assert_eq!(report.counter(counters::WORKERS_SPAWNED), None);
    }

    #[test]
    fn single_thread_path_works() {
        // Parallelism 0 is parallelism 1: the caller alone.
        for parallelism in [0, 1] {
            let caller = std::thread::current().id();
            let out = run(parallelism, 3, &|i| (i + 1, std::thread::current().id())).unwrap();
            assert_eq!(
                values(out),
                vec![(1, caller), (2, caller), (3, caller)],
                "parallelism {parallelism}"
            );
        }
    }

    #[test]
    fn parallelism_actually_overlaps() {
        // Two tasks that each wait for the other: they return only if
        // both are running at once. No clock — a pool worker takes the
        // second seat whenever it wakes, and the caller waits for it
        // inside task 0.
        let both = Barrier::new(2);
        let out = run(2, 2, &|i| {
            both.wait();
            (i, std::thread::current().id())
        })
        .unwrap();
        assert_ne!(out[0].0 .1, out[1].0 .1, "one thread ran both tasks");
    }

    #[test]
    fn panic_is_a_typed_error_not_an_abort() {
        hush_meant_panics();
        let err = run(4, 16, &|i| {
            if i == 5 || i == 11 {
                panic!("{MEANT}: boom {i}");
            }
            i
        })
        .unwrap_err();
        match err {
            Error::TaskFailed { task, attempts } => {
                assert_eq!(task, "pool task 5", "lowest failing index reported");
                assert_eq!(attempts, 1);
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn single_thread_panic_is_contained_too() {
        hush_meant_panics();
        let err = run(1, 3, &|i| {
            if i >= 1 {
                panic!("{MEANT}: {i}");
            }
            i
        })
        .unwrap_err();
        match err {
            Error::TaskFailed { task, attempts } => {
                assert_eq!(task, "pool task 1", "lowest failing index reported");
                assert_eq!(attempts, 1);
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn retrying_recovers_a_flaky_task() {
        hush_meant_panics();
        let sink = MetricsSink::recording();
        let flaky_runs = AtomicUsize::new(0);
        // Task 3 panics on its first attempt only.
        let out = WorkerPool::global()
            .run_contained(4, 8, 3, &sink, &|i| {
                if i == 3 && flaky_runs.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("{MEANT}: transient fault");
                }
                i * 10
            })
            .unwrap();
        assert_eq!(values(out), vec![0, 10, 20, 30, 40, 50, 60, 70]);
        let report = sink.finish(smda_obs::RunManifest::new("t", "p"));
        assert_eq!(report.counter(counters::TASKS_RETRIED), Some(1));
        assert_eq!(
            report.counter(counters::FAULTS_RECOVERED_TASK_PANIC),
            Some(1)
        );
        assert_eq!(report.counter(counters::WORKERS_SPAWNED), Some(4));
    }

    #[test]
    fn retry_exhaustion_names_the_task() {
        hush_meant_panics();
        let runs_of_2 = AtomicUsize::new(0);
        let err = WorkerPool::global()
            .run_contained(2, 3, 3, &MetricsSink::disabled(), &|i| {
                if i == 2 {
                    runs_of_2.fetch_add(1, Ordering::SeqCst);
                    panic!("{MEANT}: always");
                }
                i
            })
            .unwrap_err();
        match err {
            Error::TaskFailed { task, attempts } => {
                assert_eq!(task, "pool task 2");
                assert_eq!(attempts, 3);
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
        assert_eq!(runs_of_2.load(Ordering::SeqCst), 3, "the whole budget");
    }

    #[test]
    fn a_returned_err_is_a_result_and_is_not_retried() {
        let sink = MetricsSink::recording();
        let runs = AtomicUsize::new(0);
        let out = WorkerPool::global()
            .run_contained(2, 4, 3, &sink, &|i| {
                runs.fetch_add(1, Ordering::SeqCst);
                if i % 2 == 1 {
                    Err(Error::Invalid(format!("odd {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 4, "every task ran once");
        let firsts: Vec<String> = values(out)
            .into_iter()
            .filter_map(|r| r.err().map(|e| e.to_string()))
            .collect();
        assert_eq!(firsts.len(), 2);
        assert!(firsts[0].contains("odd 1"), "{firsts:?}");
        let report = sink.finish(smda_obs::RunManifest::new("t", "p"));
        assert_eq!(report.counter(counters::TASKS_RETRIED), None);
    }
}
