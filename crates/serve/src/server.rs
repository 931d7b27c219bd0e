//! The threaded serving front-end: a supervised worker thread around
//! [`ServerCore`].
//!
//! [`Server::submit`] performs admission synchronously on the caller's
//! thread (so shed decisions are instantaneous and typed) and hands back a
//! [`Ticket`] the caller blocks on. A single worker thread forms and runs
//! micro-batches; it supervises itself the same way `batchprep`'s prep
//! workers do: each incarnation runs under `catch_unwind`, a crashed
//! incarnation is respawned from a bounded budget, and when the budget is
//! exhausted the server turns itself off — every queued and future caller
//! gets a terminal response rather than a hang.

use crate::core::ServerCore;
use crate::{Rejected, Request, Response};
use salient_fault::{self as fault};
use salient_graph::NodeId;
use salient_tensor::sync::channel::{self, Receiver, RecvTimeoutError, Sender};
use salient_tensor::sync::{into_inner_unpoisoned, lock_unpoisoned};
use salient_trace::names;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Worker incarnations the supervisor will start beyond the first.
const RESPAWN_BUDGET: u64 = 3;

/// How long an idle worker sleeps between queue checks.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// Every lock below is taken poison-tolerantly (`lock_unpoisoned`): the
/// state behind these mutexes is kept consistent by the panic boundaries
/// around every step, so a poisoned lock carries no torn invariants.
struct Shared {
    core: Mutex<ServerCore>,
    waiters: Mutex<HashMap<u64, Sender<Response>>>,
    /// Wakes the worker when new work is admitted.
    nudge_tx: Sender<()>,
    /// `None` once the supervisor has exited, so a submitter blocked in
    /// `send` on a full nudge buffer errors out instead of parking forever.
    nudge_rx: Mutex<Option<Receiver<()>>>,
    shutdown: AtomicBool,
    /// Set when the respawn budget is exhausted: the server stops accepting
    /// work and fails everything still queued.
    dead: AtomicBool,
    next_id: AtomicU64,
}

impl Shared {
    /// Fails every parked waiter (server death / shutdown path): the
    /// no-silent-drops contract holds even when the worker is gone.
    fn fail_all_waiters(&self) {
        let mut waiters = lock_unpoisoned(&self.waiters);
        for (_, tx) in waiters.drain() {
            let _ = tx.send(Response::Failed);
        }
    }

    fn deliver(&self, responses: Vec<(u64, Response)>) {
        if responses.is_empty() {
            return;
        }
        let mut waiters = lock_unpoisoned(&self.waiters);
        for (id, resp) in responses {
            if let Some(tx) = waiters.remove(&id) {
                // A send error means the caller dropped its Ticket; the
                // response is theirs to discard.
                let _ = tx.send(resp);
            }
        }
    }
}

/// A handle to one admitted request.
pub struct Ticket {
    id: u64,
    rx: Receiver<Response>,
}

impl Ticket {
    /// The request id responses are keyed by.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request's terminal [`Response`]. A worker that died
    /// with the respawn budget exhausted resolves this as
    /// [`Response::Failed`] — tickets never hang.
    pub fn wait(self) -> Response {
        self.rx.recv().unwrap_or(Response::Failed)
    }
}

/// Thread-safe serving front-end (see the module docs).
pub struct Server {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the supervised worker thread around `core`.
    pub fn start(core: ServerCore) -> Server {
        let (nudge_tx, nudge_rx) = channel::bounded::<()>(1);
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            waiters: Mutex::new(HashMap::new()),
            nudge_tx,
            nudge_rx: Mutex::new(Some(nudge_rx)),
            shutdown: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
        });
        let sup_shared = Arc::clone(&shared);
        #[expect(clippy::expect_used, reason = "thread-spawn failure is unrecoverable resource exhaustion at server start")]
        let supervisor = std::thread::Builder::new()
            .name("serve-supervisor".into())
            .spawn(move || supervise(sup_shared))
            .expect("spawn serve supervisor");
        Server { shared, supervisor: Some(supervisor) }
    }

    /// Admits one query (synchronously, on the caller's thread) with an
    /// absolute deadline on the serving clock.
    ///
    /// # Errors
    ///
    /// The typed shed decision from [`ServerCore::submit`]; additionally
    /// [`Rejected::Overload`] once the server is shut down or its worker
    /// respawn budget is exhausted.
    pub fn submit(&self, node: NodeId, deadline_ns: u64) -> Result<Ticket, Rejected> {
        if self.shared.dead.load(Ordering::Acquire)
            || self.shared.shutdown.load(Ordering::Acquire)
        {
            return Err(Rejected::Overload);
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed); // Relaxed: the counter only needs uniqueness, not ordering with other state
        let (tx, rx) = channel::bounded::<Response>(1);
        // Park the waiter before admission so the worker can never emit a
        // response that finds no mailbox.
        lock_unpoisoned(&self.shared.waiters).insert(id, tx);
        let admitted = {
            let mut core = lock_unpoisoned(&self.shared.core);
            core.submit(Request { id, node, deadline_ns })
        };
        match admitted {
            Ok(()) => {
                // Wake the worker; a full nudge buffer means it is already
                // scheduled to look.
                let _ = self.shared.nudge_tx.send(());
                Ok(Ticket { id, rx })
            }
            Err(rej) => {
                lock_unpoisoned(&self.shared.waiters).remove(&id);
                Err(rej)
            }
        }
    }

    /// Runs `f` against the underlying core (metrics snapshots, state
    /// probes). The worker is paused for the duration.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut ServerCore) -> R) -> R {
        f(&mut lock_unpoisoned(&self.shared.core))
    }

    /// Stops the worker, fails any still-parked waiters, and returns the
    /// core (for final metric snapshots).
    pub fn shutdown(mut self) -> ServerCore {
        self.stop();
        self.shared.fail_all_waiters();
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(sh) => into_inner_unpoisoned(sh.core),
            Err(shared) => {
                // A straggling Ticket still holds the Arc; steal the core by
                // swapping in a dummy? Not possible without Default — so we
                // only reach here if callers kept tickets past shutdown.
                // Block until they drop (tickets resolve instantly after
                // fail_all_waiters, so this is bounded).
                loop {
                    if Arc::strong_count(&shared) == 1 {
                        break Arc::try_unwrap(shared)
                            .map(|sh| into_inner_unpoisoned(sh.core))
                            .unwrap_or_else(|_| unreachable!("sole owner"));
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    fn stop(&mut self) {
        // No shutdown nudge: `send` blocks while the buffer is full, and a
        // worker that already exited via its idle poll would never drain
        // it. The worker re-checks the flag every IDLE_POLL regardless.
        let Some(h) = self.supervisor.take() else { return };
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = h.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        self.shared.fail_all_waiters();
    }
}

/// The supervisor loop: runs worker incarnations under `catch_unwind`,
/// respawning crashed ones from a bounded budget (the prep workers'
/// pattern). Exhausting the budget marks the server dead and fails all
/// parked waiters instead of hanging them.
fn supervise(shared: Arc<Shared>) {
    let respawns = lock_unpoisoned(&shared.core)
        .trace()
        .counter(names::counters::SERVE_RESPAWNS);
    let mut incarnation: u64 = 0;
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| worker(&shared, incarnation)));
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // The incarnation ended without shutdown: it panicked (or its
        // injected `serve.worker` fault dropped it).
        let _ = run;
        if incarnation >= RESPAWN_BUDGET {
            shared.dead.store(true, Ordering::Release);
            shared.fail_all_waiters();
            break;
        }
        incarnation += 1;
        respawns.inc();
    }
    // Drop the nudge receiver so any submitter blocked on a full buffer
    // gets a send error instead of parking forever.
    lock_unpoisoned(&shared.nudge_rx).take();
}

/// One worker incarnation: wait for a nudge (or idle-poll), then drain the
/// pending queue one micro-batch at a time, delivering responses between
/// steps so the core lock is never held while a caller is woken.
fn worker(shared: &Shared, incarnation: u64) {
    // Injected worker-crash site: panics propagate to the supervisor's
    // catch_unwind; a Drop action ends the incarnation quietly. Fired
    // outside any lock.
    if fault::fire(fault::sites::SERVE_WORKER, incarnation) {
        return;
    }
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let nudged = {
            let rx = lock_unpoisoned(&shared.nudge_rx);
            match rx.as_ref() {
                Some(rx) => rx.recv_timeout(IDLE_POLL),
                None => return,
            }
        };
        if matches!(nudged, Err(RecvTimeoutError::Disconnected)) {
            return;
        }
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let outcome = {
                let mut core = lock_unpoisoned(&shared.core);
                if core.pending() == 0 {
                    break;
                }
                core.step()
            };
            shared.deliver(outcome.responses);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use salient_core::{RunConfig, Trainer};
    use salient_graph::DatasetConfig;
    use salient_trace::{Clock, Trace};
    use std::sync::Arc as StdArc;

    fn trained_core(trace: Trace) -> ServerCore {
        let dataset = StdArc::new(DatasetConfig::tiny(17).build());
        let mut trainer = Trainer::new(StdArc::clone(&dataset), RunConfig::test_tiny());
        trainer.train_epoch();
        let model = trainer.into_model();
        let cfg = ServeConfig {
            fanout_ladder: vec![vec![4, 4], vec![2, 2]],
            seed: 99,
            ..ServeConfig::default()
        };
        ServerCore::new(model, dataset, cfg, trace)
    }

    #[test]
    fn threaded_server_serves_real_requests() {
        let trace = Trace::new(Clock::monotonic());
        let core = trained_core(trace);
        let server = Server::start(core);
        let clock = server.with_core(|c| c.clock());
        let mut done = 0;
        let mut tickets = Vec::new();
        for node in 0..20u64 {
            let deadline = clock.now_ns() + 500_000_000;
            match server.submit(node as NodeId, deadline) {
                Ok(t) => tickets.push(t),
                Err(r) => panic!("unexpected rejection at low load: {r:?}"),
            }
        }
        for t in tickets {
            if t.wait().is_done() {
                done += 1;
            }
        }
        assert!(done >= 18, "expected nearly all to complete, got {done}/20");
        let core = server.shutdown();
        let snap = core.trace().snapshot();
        assert_eq!(
            snap.metrics.counter(names::counters::SERVE_ADMITTED),
            20
        );
    }

    #[test]
    fn shutdown_fails_parked_waiters_instead_of_hanging() {
        let trace = Trace::new(Clock::monotonic());
        let core = trained_core(trace);
        let server = Server::start(core);
        // Submit with a generous deadline, then shut down immediately; the
        // ticket must resolve (Done if the worker got there first, Failed
        // if shutdown won) — never hang.
        let clock = server.with_core(|c| c.clock());
        let t = server.submit(0, clock.now_ns() + 10_000_000_000).ok();
        drop(server);
        if let Some(t) = t {
            let _ = t.wait();
        }
    }
}
