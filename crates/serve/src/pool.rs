//! A fixed worker pool with a bounded admission queue.
//!
//! Submission is non-blocking: [`WorkerPool::try_submit`] either enqueues
//! the job or hands it straight back when the queue is full, so the
//! accept loop can shed load with a `503` instead of letting an
//! unbounded backlog grow.  Shutdown is graceful — workers drain every
//! job already admitted before exiting.  A job that panics is caught at
//! the worker: its captured connection drops (and so closes), the pool
//! counts the panic, and the worker takes the next job.

use crate::gauge::LoadGauge;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work: one accepted connection to serve.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
    capacity: usize,
    /// Mirrors the queue depth for lock-free readers (adaptive linger,
    /// degrade watermark, Retry-After advice).
    gauge: Option<Arc<LoadGauge>>,
    /// Jobs that panicked (caught; the worker lived on).
    panics: AtomicU64,
}

/// The pool: `workers` threads pulling from one bounded queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads behind a queue admitting at most
    /// `capacity` waiting jobs (jobs being executed don't count).
    pub fn new(workers: usize, capacity: usize) -> Self {
        Self::with_gauge(workers, capacity, None)
    }

    /// [`WorkerPool::new`] publishing its queue depth through `gauge` on
    /// every submit and dequeue.
    pub fn with_gauge(workers: usize, capacity: usize, gauge: Option<Arc<LoadGauge>>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), shutdown: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            gauge,
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("csrplus-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool { shared, workers: handles }
    }

    /// Admits a job, or returns it if the queue is full or the pool is
    /// shutting down (the caller responds `503`).
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        if queue.shutdown || queue.jobs.len() >= self.shared.capacity {
            return Err(job);
        }
        queue.jobs.push_back(job);
        drop(queue);
        if let Some(gauge) = &self.shared.gauge {
            gauge.incr();
        }
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Jobs currently waiting (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().expect("pool queue poisoned").jobs.len()
    }

    /// Jobs that have panicked since the pool started.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Stops admissions, drains every queued job, and joins the workers.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn begin_shutdown(&self) {
        self.shared.queue.lock().expect("pool queue poisoned").shutdown = true;
        self.shared.ready.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return; // queue drained, shutdown requested
                }
                queue = shared.ready.wait(queue).expect("pool queue poisoned");
            }
        };
        if let Some(gauge) = &shared.gauge {
            gauge.decr();
        }
        // Unwinding drops the job and the connection it owns, which
        // closes.  The pool's own lock is not held here.
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_submitted_jobs() {
        let pool = WorkerPool::new(4, 16);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            // Queue capacity is 16 but workers drain concurrently; retry
            // rejected submissions to push all 32 through.
            let mut job: Job = Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            loop {
                match pool.try_submit(job) {
                    Ok(()) => break,
                    Err(rejected) => {
                        job = rejected;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let pool = WorkerPool::new(1, 2);
        // Block the single worker so the queue fills.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }))
        .unwrap_or_else(|_| panic!("first job rejected"));
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // Worker is busy: two jobs fit the queue, the third is shed.
        assert!(pool.try_submit(Box::new(|| {})).is_ok());
        assert!(pool.try_submit(Box::new(|| {})).is_ok());
        assert!(pool.try_submit(Box::new(|| {})).is_err(), "queue of 2 must shed the 3rd");
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_jobs() {
        let pool = WorkerPool::new(1, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            pool.try_submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(2));
                counter.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap_or_else(|_| panic!("admission failed"));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 8, "shutdown must drain the queue");
    }

    #[test]
    fn gauge_mirrors_queue_depth() {
        let gauge = Arc::new(LoadGauge::new(8));
        let pool = WorkerPool::with_gauge(1, 8, Some(Arc::clone(&gauge)));
        // Block the single worker so queued jobs stay queued.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }))
        .unwrap_or_else(|_| panic!("first job rejected"));
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        for _ in 0..3 {
            pool.try_submit(Box::new(|| {})).unwrap_or_else(|_| panic!("admission failed"));
        }
        assert_eq!(gauge.depth(), 3, "three jobs waiting behind the blocked worker");
        release_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(gauge.depth(), 0, "drained queue reads empty");
    }

    #[test]
    fn panicking_jobs_leave_every_worker_alive() {
        let pool = WorkerPool::new(2, 8);
        for _ in 0..4 {
            pool.try_submit(Box::new(|| panic!("injected job panic")))
                .unwrap_or_else(|_| panic!("admission failed"));
        }
        // Two jobs that each hold a worker until both have started: they
        // can only both start if both workers survived the panics.
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let mut releases = Vec::new();
        for _ in 0..2 {
            let started_tx = started_tx.clone();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            releases.push(release_tx);
            pool.try_submit(Box::new(move || {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            }))
            .unwrap_or_else(|_| panic!("admission failed"));
        }
        for _ in 0..2 {
            started_rx.recv_timeout(Duration::from_secs(5)).expect("a worker died");
        }
        // FIFO: each worker finished its panicking jobs before taking a
        // blocking one, so every panic is already counted.
        assert_eq!(pool.panics(), 4);
        for release in releases {
            release.send(()).unwrap();
        }
        pool.shutdown();
    }

    #[test]
    fn rejects_after_shutdown() {
        let pool = WorkerPool::new(1, 8);
        pool.begin_shutdown();
        assert!(pool.try_submit(Box::new(|| {})).is_err());
    }
}
