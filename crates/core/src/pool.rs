//! A small reusable worker pool on std threads.
//!
//! The workspace builds with no external dependencies, so the tier
//! roll-up of [`crate::engine::MoCubingEngine`] runs on this minimal
//! channel-based pool instead of rayon/crossbeam: `N` long-lived
//! workers pull boxed jobs from one queue, and [`WorkerPool::run`] fans
//! a task vector out and collects the results **in task order**, so
//! parallel execution never perturbs downstream determinism.
//!
//! Jobs must be `'static` (they are moved to worker threads), which the
//! callers arrange by sharing read-only inputs behind [`std::sync::Arc`].
//!
//! # Nesting
//!
//! [`run`](WorkerPool::run) must not be called from inside a pool job of
//! the *same* pool: a job that blocks on the queue it occupies can
//! deadlock once every worker does the same. The tier roll-up respects
//! this by construction: its jobs fold tables and never call back into
//! an engine.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of std worker threads executing boxed jobs.
///
/// Dropping the pool closes the queue and joins every worker.
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("regcube-pool-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits one fire-and-forget job.
    fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool alive until drop")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }

    /// Runs every task on the pool and returns the results **in task
    /// order** (task `i`'s result at index `i`, regardless of which
    /// worker finished first) — the property the deterministic tier
    /// roll-up relies on.
    ///
    /// # Panics
    /// If any task panicked on its worker, waits for every other task,
    /// then resumes the panic of the lowest-indexed failing task on the
    /// calling thread, with that task's own payload. The pool stays
    /// usable.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        let (tx, rx) = channel::<(usize, std::thread::Result<T>)>();
        for (i, task) in tasks.into_iter().enumerate() {
            let tx = tx.clone();
            self.execute(move || {
                let outcome = panic::catch_unwind(AssertUnwindSafe(task));
                // `run` holds the receiver until all n outcomes are in.
                let _ = tx.send((i, outcome));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        for (i, outcome) in rx.iter().take(n) {
            slots[i] = Some(outcome);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("each task index reports exactly once"))
            .map(|outcome| outcome.unwrap_or_else(|payload| panic::resume_unwind(payload)))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker loop.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The per-worker loop: pull jobs until the queue closes. Jobs never
/// unwind into it — [`WorkerPool::run`] catches each task's panic and
/// hands it back to its caller — so a worker lives as long as the pool.
fn worker_loop(receiver: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let guard = receiver.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        match job {
            Ok(job) => job(),
            Err(_) => break, // queue closed: pool dropped
        }
    }
}

/// The machine's available parallelism (fallback 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_preserves_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..32usize)
            .map(|i| {
                move || {
                    // Stagger completion so out-of-order finishes are likely.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((32 - i) % 7) as u64 * 50,
                    ));
                    i * i
                }
            })
            .collect();
        let results = pool.run(tasks);
        assert_eq!(results, (0..32usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_runs() {
        let pool = WorkerPool::new(2);
        for round in 0..5usize {
            let results = pool.run((0..8usize).map(|i| move || i + round).collect());
            assert_eq!(results[7], 7 + round);
        }
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run(vec![|| 41 + 1]), vec![42]);
    }

    #[test]
    fn execute_runs_detached_jobs() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers, so all jobs have run
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn a_panicking_task_re_raises_its_own_payload() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let payload = panic::catch_unwind(AssertUnwindSafe(|| pool.run(tasks)))
            .expect_err("the task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The pool still serves ordered runs afterwards.
        let results = pool.run((0..4usize).map(|i| move || i).collect());
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
