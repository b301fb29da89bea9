//! The compile pipeline, and the background compiler pool that runs it
//! (and native emission) off the execution thread.
//!
//! In the paper's TraceMonkey, compilation happens on the thread that
//! recorded the trace — acceptable when compiles are rare and the realm
//! is alone in the process. A multi-tenant VM wants the execution thread
//! back as soon as recording finishes: the realm keeps *interpreting*
//! while a worker runs [`compile_trace`], and the finished fragment is
//! installed by the monitor at the next anchor hit (see
//! `Monitor::poll_compiles`). Until installation the loop simply stays in
//! the interpreter — semantically identical, just not yet fast. The
//! monitor's inline path runs the same [`compile_trace`].
//!
//! A pool job is any closure returning `Result<T, String>`; its result is
//! handed off on a per-job channel ([`Ticket`]), so a pool can serve any
//! number of realms without routing state. A compile job moves the
//! [`RecordedTrace`] in and returns it with the fragment, because the
//! monitor needs the (filtered) recording back to build the tree.
//!
//! A panicking job (a filter, backend or emitter defect) is caught in
//! the worker and resolves its ticket to `Err`. The monitor counts a
//! failed compile like a recording abort (the §3.3 failure budget), so
//! one realm's miscompile cannot take down the process.
//!
//! Determinism: the interleaving test rig drives the handoff through
//! `tm_support::sched` yield points (`pool.submit`, `pool.take`,
//! `pool.result`, `pool.wait`); see `docs/TESTING.md`.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tm_lir::{run_backward_filters, ArSlot, ExitLiveness, LirType};
use tm_nanojit::{assemble, Fragment};
use tm_support::sched;

use crate::config::JitOptions;
use crate::exit::SideExitInfo;
use crate::recorder::RecordedTrace;

/// The compile pipeline (§5.1–5.2): backward filters, the post-filter
/// trace verification, assembly, peephole fusion, and the backend
/// fragment verification. `verify_base` is the fragment's pre-existing
/// entry state (empty for a root trace; the parent exit's type map plus
/// the tree entry map for a branch), used only by the trace verification.
///
/// # Errors
///
/// A verification stage rejected the trace or the fragment (only with
/// [`JitOptions::verify`] on).
pub fn compile_trace(
    recorded: &mut RecordedTrace,
    verify_base: &[(ArSlot, LirType)],
    opts: &JitOptions,
) -> Result<Fragment, String> {
    let liveness = ExitLiveness {
        live_slots: recorded.exits.iter().map(SideExitInfo::live_slots).collect(),
    };
    run_backward_filters(&mut recorded.lir, &liveness, &recorded.loop_live);
    if opts.verify {
        // The recorder's output was already verified; what is handed to
        // the backend is re-checked so a backward-filter defect (bad id
        // compaction, dropped store an exit needs) surfaces here instead
        // of as compiled garbage.
        recorded
            .verify(verify_base)
            .map_err(|err| format!("backward filters produced a malformed trace: {err}"))?;
    }
    let mut frag = assemble(&recorded.lir);
    if opts.enable_fusion {
        frag = tm_nanojit::fuse(frag);
    }
    if opts.verify {
        // Register allocation and the peephole pass must hand the
        // executor structurally sound code.
        tm_verifier::verify_fragment(&frag)
            .map_err(|err| format!("backend produced a malformed fragment: {err}"))?;
    }
    Ok(frag)
}

/// The submitter's handle to one in-flight job.
#[derive(Debug)]
pub struct Ticket<T> {
    rx: Receiver<Result<T, String>>,
}

/// What a ticket resolves to when the pool shut down before the job ran.
const SHUT_DOWN: &str = "compiler pool shut down";

impl<T> Ticket<T> {
    /// Non-blocking poll. `None` while the job is still queued or
    /// running. A dead worker (channel disconnect) reports as `Err`.
    pub fn try_ready(&self) -> Option<Result<T, String>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(SHUT_DOWN.into())),
        }
    }

    /// Blocking wait, used when a program finishes with compiles still
    /// in flight (the monitor drains so its final state is
    /// deterministic). Under the schedule rig this spins through a yield
    /// point instead of blocking, keeping the interleaving seeded.
    pub fn wait(&self) -> Result<T, String> {
        if sched::armed() {
            loop {
                if let Some(result) = self.try_ready() {
                    return result;
                }
                sched::yield_point("pool.wait");
            }
        }
        self.rx.recv().unwrap_or_else(|_| Err(SHUT_DOWN.into()))
    }
}

/// One queued job. It runs its body, calls [`PoolShared::finished`], then
/// sends the result to its ticket, so the counter and the `pool.result`
/// yield point come between producing a result and handing it off.
type Job = Box<dyn FnOnce(&PoolShared) + Send>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// High-water mark of queued-but-not-taken jobs (diagnostics).
    peak_depth: usize,
    executed: u64,
}

struct PoolShared {
    queue: Mutex<Queue>,
    cv: Condvar,
}

impl PoolShared {
    fn finished(&self) {
        self.queue.lock().unwrap().executed += 1;
        sched::yield_point("pool.result");
    }
}

/// Pool-wide counters (see `docs/DIAGNOSTICS.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs a worker has finished (success or failure).
    pub executed: u64,
    /// Deepest the queue has been.
    pub peak_depth: usize,
    /// Jobs currently queued (not yet taken by a worker).
    pub queued: usize,
}

/// A pool of background compiler threads shared by any number of realms.
///
/// Dropping the pool shuts the workers down: running jobs finish, and jobs
/// still queued are dropped unrun, so their tickets resolve to
/// `Err("compiler pool shut down")`. Monitors hold the pool by `Arc`, so
/// this only reaches tickets nobody polls any more.
pub struct CompilerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for CompilerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompilerPool")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl CompilerPool {
    /// Spawns a pool with `nworkers` compiler threads (minimum 1).
    pub fn new(nworkers: usize) -> CompilerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue::default()),
            cv: Condvar::new(),
        });
        let workers = (0..nworkers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tm-compile-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn compiler worker")
            })
            .collect();
        CompilerPool { shared, workers }
    }

    /// Enqueues `job`, returning the ticket its result will arrive on. A
    /// panic in `job` resolves the ticket to `Err` with the panic message.
    pub fn submit<T, F>(&self, job: F) -> Ticket<T>
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T, String> + Send + 'static,
    {
        sched::yield_point("pool.submit");
        let (tx, rx) = channel();
        let job: Job = Box::new(move |shared| {
            let result = std::panic::catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|panic| {
                Err(format!("pool job panicked: {}", panic_message(&*panic)))
            });
            shared.finished();
            // The submitter may have vanished (program ended and the
            // monitor dropped the ticket); a send failure is fine.
            let _ = tx.send(result);
        });
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.jobs.push_back(job);
            q.peak_depth = q.peak_depth.max(q.jobs.len());
        }
        self.shared.cv.notify_one();
        sched::wake_all();
        Ticket { rx }
    }

    /// A snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        let q = self.shared.queue.lock().unwrap();
        PoolStats { executed: q.executed, peak_depth: q.peak_depth, queued: q.jobs.len() }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for CompilerPool {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.cv.notify_all();
        sched::wake_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn panic_message(panic: &(dyn Any + Send)) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("no message")
}

fn worker_loop(shared: &PoolShared) {
    loop {
        // Take one job, parking (schedule-aware) while the queue is idle.
        // On shutdown, queued jobs are left to be dropped with the queue,
        // which resolves their tickets to `Err`.
        let next = loop {
            let mut q = shared.queue.lock().unwrap();
            if q.shutdown {
                break None;
            }
            if let Some(job) = q.jobs.pop_front() {
                drop(q);
                sched::yield_point("pool.take");
                break Some(job);
            }
            sched::pre_park("pool.park");
            let q2 = shared.cv.wait(q).unwrap();
            drop(q2);
            sched::post_park("pool.unpark");
        };
        let Some(job) = next else { return };
        job(shared);
        sched::wake_all();
    }
}

/// Compile-time Send audit: the pool and its tickets cross threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Ticket<(RecordedTrace, Fragment)>>();
    assert_send::<Ticket<tm_nanojit::NativeTree>>();
    assert_send::<CompilerPool>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_spawns_and_drops_cleanly() {
        let pool = CompilerPool::new(2);
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.stats().executed, 0);
        drop(pool);
    }

    #[test]
    fn minimum_one_worker() {
        let pool = CompilerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn a_panicking_job_fails_its_ticket_and_the_worker_runs_on() {
        let pool = CompilerPool::new(1);
        let bad = pool.submit(|| -> Result<u32, String> { panic!("emitter defect") });
        let good = pool.submit(|| Ok(7u32));
        let err = bad.wait().unwrap_err();
        assert!(err.contains("emitter defect"), "{err}");
        assert_eq!(good.wait(), Ok(7));
        assert_eq!(pool.stats().executed, 2);
    }

    #[test]
    fn dropping_the_pool_fails_pending_tickets() {
        let pool = CompilerPool::new(1);
        // Occupy the only worker until the pool is shutting down, so the
        // jobs behind it are still queued when the worker stops.
        let shared = Arc::clone(&pool.shared);
        let busy = pool.submit(move || {
            while !shared.queue.lock().unwrap().shutdown {
                std::thread::yield_now();
            }
            Ok(())
        });
        while pool.stats().queued > 0 {
            std::thread::yield_now();
        }
        let polled = pool.submit(|| Ok(1u32));
        let waited = pool.submit(|| Ok(2u32));
        drop(pool);
        let shut = Err(SHUT_DOWN.to_string());
        assert_eq!(busy.wait(), Ok(()));
        assert_eq!(polled.try_ready(), Some(shut.clone()));
        assert_eq!(waited.wait(), shut);
    }
}
