//! A fixed worker pool over an `mpsc` channel.
//!
//! The reactor hands each fully-parsed request to the pool; a fixed
//! number of worker threads drain the shared receiver. Shutdown is graceful by
//! construction: dropping the pool drops the sender, every queued job is
//! still delivered (an `mpsc` channel yields buffered messages before
//! reporting disconnection), and the drop then joins all workers — so
//! in-flight requests complete before the listener exits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Live saturation gauges for a pool: thread count, jobs currently
/// executing, jobs waiting in the queue. Shared with the telemetry
/// tick, which samples them once a second.
#[derive(Debug, Default)]
pub struct PoolStats {
    size: AtomicU64,
    busy: AtomicU64,
    queued: AtomicU64,
}

impl PoolStats {
    /// Fresh gauges (all zero); sized when a pool adopts them.
    #[must_use]
    pub fn new() -> PoolStats {
        PoolStats::default()
    }

    /// Number of worker threads.
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::Relaxed)
    }

    /// Jobs currently executing.
    pub fn busy(&self) -> u64 {
        self.busy.load(Ordering::Relaxed)
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Busy workers as a fraction of the pool (0.0 when unsized).
    pub fn utilization(&self) -> f64 {
        let size = self.size();
        if size == 0 {
            return 0.0;
        }
        self.busy() as f64 / size as f64
    }
}

/// The pool. Dropping it drains the queue and joins every worker.
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<PoolStats>,
}

impl WorkerPool {
    /// Spawns `size` workers (at least one).
    #[must_use]
    pub fn new(size: usize) -> WorkerPool {
        Self::with_stats(size, Arc::new(PoolStats::new()))
    }

    /// Spawns `size` workers reporting saturation into `stats`.
    #[must_use]
    pub fn with_stats(size: usize, stats: Arc<PoolStats>) -> WorkerPool {
        let size = size.max(1);
        stats.size.store(size as u64, Ordering::Relaxed);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("cpssec-worker-{i}"))
                    .spawn(move || worker_loop(&receiver, &stats))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
            stats,
        }
    }

    /// The pool's saturation gauges.
    #[must_use]
    pub fn stats(&self) -> Arc<PoolStats> {
        Arc::clone(&self.stats)
    }

    /// Number of worker threads.
    #[must_use]
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Queues a job for the next free worker.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(sender) = &self.sender {
            self.stats.queued.fetch_add(1, Ordering::Relaxed);
            // Send fails only if every worker has died; jobs are
            // infallible closures, so treat that as unreachable in
            // practice but don't panic the accept loop.
            let _ = sender.send(Box::new(job));
        }
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>, stats: &PoolStats) {
    loop {
        // Hold the lock only while receiving, never while running a job.
        let job = match receiver.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        match job {
            Ok(job) => {
                stats.queued.fetch_sub(1, Ordering::Relaxed);
                stats.busy.fetch_add(1, Ordering::Relaxed);
                // A panicking job must not take its worker (or the busy
                // gauge) with it.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                stats.busy.fetch_sub(1, Ordering::Relaxed);
            }
            Err(_) => return, // Sender dropped and queue fully drained.
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_jobs_on_multiple_threads() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.size(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // Joins workers; all queued jobs must have run.
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn drop_drains_queued_jobs_before_joining() {
        // One slow worker: queued jobs are still pending at drop time.
        let pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn stats_track_busy_and_drain_to_idle() {
        let stats = Arc::new(PoolStats::new());
        let pool = WorkerPool::with_stats(2, Arc::clone(&stats));
        assert_eq!(stats.size(), 2);
        let gate = Arc::new(std::sync::Barrier::new(3));
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            pool.execute(move || {
                gate.wait();
            });
        }
        // Both workers are parked on the barrier: busy == size.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while stats.busy() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(stats.busy(), 2);
        assert!((stats.utilization() - 1.0).abs() < 1e-12);
        gate.wait();
        drop(pool);
        assert_eq!(stats.busy(), 0);
        assert_eq!(stats.queued(), 0);
    }

    #[test]
    fn zero_size_is_clamped_to_one_worker() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.size(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&done);
        pool.execute(move || {
            flag.store(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_panicking_job_leaves_the_worker_alive_and_idle() {
        // A server test in this process may have installed the flight
        // recorder's panic hook; keep its dump out of the source tree.
        std::env::set_var("CPSSEC_FLIGHT_DIR", std::env::temp_dir());
        let stats = Arc::new(PoolStats::new());
        let pool = WorkerPool::with_stats(1, Arc::clone(&stats));
        pool.execute(|| panic!("injected job panic"));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.execute(move || tx.send(()).unwrap());
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the next job runs on the same worker");
        drop(pool);
        assert_eq!(stats.busy(), 0);
    }
}
