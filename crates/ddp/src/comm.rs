//! In-process collective communication: a ring all-reduce over threads.
//!
//! SALIENT delegates gradient synchronization to PyTorch DDP over NCCL; this
//! module provides the equivalent primitive for the Rust reproduction. The
//! algorithm is the standard two-phase ring: `n − 1` reduce-scatter steps
//! followed by `n − 1` all-gather steps, so each rank sends and receives
//! `2·(n−1)/n` of the buffer — the same communication volume the simulator's
//! cost model charges.
//!
//! Every ring receive is bounded by a configurable deadline: a dead or
//! dropped peer surfaces as a typed [`CommError`] naming the rank, step, and
//! phase where the collective stalled, instead of deadlocking the ring on a
//! blocking `recv`. Every payload's length is checked against the chunk the
//! step expects, so ranks that fell out of step get an error, never each
//! other's buffers. A [`Communicator`] belongs to one rank thread (it is
//! `Send`, not `Sync`). Fault injection hooks ([`salient_fault::sites::DDP_SEND`]
//! / [`salient_fault::sites::DDP_RECV`]) allow tests to kill ranks, drop
//! links and delay ranks deterministically.

use salient_fault as fault;
use salient_tensor::Tensor;
use salient_trace::{names, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Which phase of a collective an error occurred in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommPhase {
    /// The reduce-scatter half of an all-reduce.
    ReduceScatter,
    /// The all-gather half of an all-reduce.
    AllGather,
    /// A broadcast from rank 0.
    Broadcast,
}

impl std::fmt::Display for CommPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CommPhase::ReduceScatter => "reduce-scatter",
            CommPhase::AllGather => "all-gather",
            CommPhase::Broadcast => "broadcast",
        };
        f.write_str(s)
    }
}

/// Why a collective failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommErrorKind {
    /// No message arrived from the previous rank within the deadline.
    Timeout(Duration),
    /// A peer's endpoint was dropped (its thread died).
    Disconnected,
    /// The previous rank's payload is not the chunk this step expects: the
    /// ranks are no longer in the same collective, and combining the buffers
    /// would corrupt both.
    Desynchronized {
        /// Floats this ring step should have received.
        expected: usize,
        /// Floats that arrived.
        got: usize,
    },
}

/// A failed collective: which rank observed it, at which ring step, in which
/// phase. Replaces the ring's previous behavior of blocking forever (or
/// panicking) when a peer dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommError {
    /// The rank that observed the failure.
    pub rank: usize,
    /// The communicator's monotone ring-step counter at the failure.
    pub step: u64,
    /// The collective phase that stalled.
    pub phase: CommPhase,
    /// Timeout or disconnect.
    pub kind: CommErrorKind,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            CommErrorKind::Timeout(d) => write!(
                f,
                "rank {} timed out after {:?} at ring step {} ({})",
                self.rank, d, self.step, self.phase
            ),
            CommErrorKind::Disconnected => write!(
                f,
                "rank {} lost its ring peer at step {} ({})",
                self.rank, self.step, self.phase
            ),
            CommErrorKind::Desynchronized { expected, got } => write!(
                f,
                "rank {} received {} floats where ring step {} ({}) expects {}",
                self.rank, got, self.step, self.phase, expected
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Default per-step receive deadline (override per-ring with
/// [`Communicator::ring_with_timeout`]).
pub(crate) const DEFAULT_STEP_TIMEOUT: Duration = Duration::from_secs(5);

/// One rank's endpoint of a ring communicator.
#[derive(Debug)]
pub struct Communicator {
    rank: usize,
    world: usize,
    timeout: Duration,
    steps: AtomicU64,
    to_next: Sender<Vec<f32>>,
    from_prev: Receiver<Vec<f32>>,
    trace: Trace,
}

impl Communicator {
    /// Creates a ring of `world` connected communicators with the default
    /// step deadline.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn ring(world: usize) -> Vec<Communicator> {
        Self::ring_with_timeout(world, DEFAULT_STEP_TIMEOUT)
    }

    /// Creates a ring whose receives give up after `timeout` per step.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub(crate) fn ring_with_timeout(world: usize, timeout: Duration) -> Vec<Communicator> {
        Self::ring_traced(world, timeout, &Trace::disabled())
    }

    /// Creates a ring whose endpoints record their `ddp.step` spans, and
    /// each send as a `ddp.ring_send` span counting its bytes, against
    /// `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn ring_traced(world: usize, timeout: Duration, trace: &Trace) -> Vec<Communicator> {
        assert!(world > 0, "world size must be positive");
        // Each ring link has exactly one producer and one consumer, so the
        // std SPSC channel is sufficient — and it is deliberately the
        // *unbounded* `channel`, not the bounded `sync_channel` batch prep
        // streams through: a bounded link would let a slow peer park a *sender*, where today
        // the only call that can block is the deadline-bounded
        // `recv_timeout` in `recv_from_prev`, which is what turns a dead
        // peer into a typed `CommError` instead of a wedged ring.
        // Channel i is *received* by rank i
        // and rank r sends to rank r + 1, so rotating the sender list left
        // by one pairs rank r with the sender of channel (r + 1) % world —
        // no Option juggling, each sender moved exactly once.
        let (mut senders, receivers): (Vec<Sender<Vec<f32>>>, Vec<Receiver<Vec<f32>>>) =
            (0..world).map(|_| channel()).unzip();
        senders.rotate_left(1);
        senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (to_next, from_prev))| Communicator {
                rank,
                world,
                timeout,
                steps: AtomicU64::new(0),
                to_next,
                from_prev,
                trace: trace.clone(),
            })
            .collect()
    }

    fn chunk_bounds(len: usize, world: usize, chunk: usize) -> (usize, usize) {
        let base = len / world;
        let rem = len % world;
        let start = chunk * base + chunk.min(rem);
        let size = base + usize::from(chunk < rem);
        (start, start + size)
    }

    fn err(&self, phase: CommPhase, kind: CommErrorKind) -> CommError {
        CommError {
            rank: self.rank,
            // Relaxed: step number only labels the error message.
            step: self.steps.load(Ordering::Relaxed),
            phase,
            kind,
        }
    }

    /// One ring step: send `payload` to the next rank (unless an injected
    /// fault drops the link) and receive the previous rank's payload — of
    /// `expected` floats — within the deadline. An injected drop at the
    /// receive ends the step in a timeout without taking the payload: taking
    /// it and reading again would pair this rank with the next step's chunk.
    fn step(
        &self,
        payload: Vec<f32>,
        expected: usize,
        phase: CommPhase,
    ) -> Result<Vec<f32>, CommError> {
        // The pre-increment value doubles as the ring-step index tagged
        // onto the send/recv spans: a step, not a batch id, so trace
        // attribution keeps them off batch chains. Relaxed: diagnostic
        // counter; the channel send/recv provide all cross-rank ordering.
        let ring_step = self.steps.fetch_add(1, Ordering::Relaxed);
        // Comm span covers the send and the (possibly blocking) receive —
        // the trace-level view of ring latency.
        let _comm_span = self.trace.span(names::spans::COMM_STEP);
        self.send_next(payload, ring_step, phase)?;
        if fault::fire(fault::sites::DDP_RECV, self.rank as u64) {
            return Err(self.err(phase, CommErrorKind::Timeout(self.timeout)));
        }
        let clock = self.trace.clock();
        let recv_t0 = clock.now_ns();
        let received = self.recv_from_prev(expected, phase);
        self.trace
            .record_span(names::spans::DDP_RING_RECV, ring_step, recv_t0, clock.now_ns());
        received
    }

    /// Sends `payload` to the next rank unless an injected fault drops the
    /// link: one `ddp.ring_send` span tagged `ring_step`, whose first count
    /// is the payload's bytes (f32s), dropped or not.
    fn send_next(&self, payload: Vec<f32>, ring_step: u64, phase: CommPhase) -> Result<(), CommError> {
        let clock = self.trace.clock();
        let send_t0 = clock.now_ns();
        let bytes = (payload.len() * std::mem::size_of::<f32>()) as u64;
        // An injected drop takes the link down: the next rank will time out.
        let dropped = fault::fire(fault::sites::DDP_SEND, self.rank as u64);
        if !dropped && self.to_next.send(payload).is_err() {
            return Err(self.err(phase, CommErrorKind::Disconnected));
        }
        let counts = [bytes, 0];
        self.trace
            .record_span_counts(names::spans::DDP_RING_SEND, ring_step, send_t0, clock.now_ns(), counts);
        Ok(())
    }

    /// Receives the ring predecessor's payload within the step deadline and
    /// checks it is the `expected` floats long, in release builds too: a
    /// rank that fell out of step would otherwise have one collective's
    /// buffer summed or copied into another's.
    fn recv_from_prev(&self, expected: usize, phase: CommPhase) -> Result<Vec<f32>, CommError> {
        let kind = match self.from_prev.recv_timeout(self.timeout) {
            Ok(v) if v.len() == expected => return Ok(v),
            Ok(v) => CommErrorKind::Desynchronized { expected, got: v.len() },
            Err(RecvTimeoutError::Timeout) => CommErrorKind::Timeout(self.timeout),
            Err(RecvTimeoutError::Disconnected) => CommErrorKind::Disconnected,
        };
        Err(self.err(phase, kind))
    }

    /// In-place ring all-reduce (sum) over a flat buffer. Every rank must
    /// call this with a buffer of identical length.
    ///
    /// # Errors
    ///
    /// Returns a [`CommError`] if a peer disconnected or stalled past the
    /// step deadline; the buffer contents are unspecified on error.
    pub fn all_reduce_sum(&self, data: &mut [f32]) -> Result<(), CommError> {
        let n = self.world;
        if n == 1 {
            return Ok(());
        }
        let len = data.len();
        // Reduce-scatter: after step s, rank r owns the full sum of chunk
        // (r + 1) mod n ... eventually chunk (r + 1) mod n is complete.
        let mut send_chunk = self.rank;
        for _ in 0..n - 1 {
            let (s, e) = Self::chunk_bounds(len, n, send_chunk);
            let recv_chunk = (send_chunk + n - 1) % n;
            let (rs, re) = Self::chunk_bounds(len, n, recv_chunk);
            let incoming = self.step(data[s..e].to_vec(), re - rs, CommPhase::ReduceScatter)?;
            for (d, v) in data[rs..re].iter_mut().zip(incoming) {
                *d += v;
            }
            send_chunk = recv_chunk;
        }
        // All-gather: circulate the completed chunks.
        for _ in 0..n - 1 {
            let (s, e) = Self::chunk_bounds(len, n, send_chunk);
            let recv_chunk = (send_chunk + n - 1) % n;
            let (rs, re) = Self::chunk_bounds(len, n, recv_chunk);
            let incoming = self.step(data[s..e].to_vec(), re - rs, CommPhase::AllGather)?;
            data[rs..re].copy_from_slice(&incoming);
            send_chunk = recv_chunk;
        }
        Ok(())
    }

    /// In-place all-reduce that averages instead of summing.
    ///
    /// # Errors
    ///
    /// See [`Communicator::all_reduce_sum`].
    pub fn all_reduce_mean(&self, data: &mut [f32]) -> Result<(), CommError> {
        self.all_reduce_sum(data)?;
        let inv = 1.0 / self.world as f32;
        for d in data {
            *d *= inv;
        }
        Ok(())
    }

    /// Averages a tensor across ranks in place.
    ///
    /// # Errors
    ///
    /// See [`Communicator::all_reduce_sum`].
    pub(crate) fn all_reduce_mean_tensor(&self, t: &mut Tensor) -> Result<(), CommError> {
        self.all_reduce_mean(t.data_mut())
    }

    /// Broadcast from rank 0: every rank ends with rank 0's buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`CommError`] if the chain stalls or a peer disconnected.
    pub(crate) fn broadcast(&self, data: &mut [f32]) -> Result<(), CommError> {
        if self.world == 1 {
            return Ok(());
        }
        // Relaxed: the step index only tags the send span.
        let ring_step = self.steps.fetch_add(1, Ordering::Relaxed);
        let _comm_span = self.trace.span(names::spans::COMM_STEP);
        // Pass the buffer down the ring from rank 0 to the last rank.
        if self.rank != 0 {
            let incoming = self.recv_from_prev(data.len(), CommPhase::Broadcast)?;
            data.copy_from_slice(&incoming);
        }
        if self.rank != self.world - 1 {
            // A dropped send leaves the ranks downstream to time out.
            self.send_next(data.to_vec(), ring_step, CommPhase::Broadcast)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ranks<F>(world: usize, f: F) -> Vec<Vec<f32>>
    where
        F: Fn(usize, &Communicator) -> Vec<f32> + Send + Sync,
    {
        let comms = Communicator::ring(world);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for (r, comm) in comms.into_iter().enumerate() {
                let f = &f;
                handles.push(s.spawn(move || f(r, &comm)));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn all_reduce_sum_across_4_ranks() {
        let results = run_ranks(4, |r, comm| {
            let mut data: Vec<f32> = (0..10).map(|i| (r * 10 + i) as f32).collect();
            comm.all_reduce_sum(&mut data).unwrap();
            data
        });
        // Sum over ranks of (10r + i) = 60 + 4i.
        for data in results {
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, 60.0 + 4.0 * i as f32);
            }
        }
    }

    #[test]
    fn all_reduce_mean_equals_average() {
        let results = run_ranks(3, |r, comm| {
            let mut data = vec![r as f32; 7];
            comm.all_reduce_mean(&mut data).unwrap();
            data
        });
        for data in results {
            assert!(data.iter().all(|&v| (v - 1.0).abs() < 1e-6));
        }
    }

    #[test]
    fn buffer_shorter_than_world_still_works() {
        let results = run_ranks(4, |r, comm| {
            let mut data = vec![r as f32 + 1.0];
            comm.all_reduce_sum(&mut data).unwrap();
            data
        });
        for data in results {
            assert_eq!(data[0], 10.0);
        }
    }

    #[test]
    fn broadcast_from_rank_zero() {
        let results = run_ranks(4, |r, comm| {
            let mut data = if r == 0 { vec![3.5; 5] } else { vec![0.0; 5] };
            comm.broadcast(&mut data).unwrap();
            data
        });
        for data in results {
            assert!(data.iter().all(|&v| v == 3.5));
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let comms = Communicator::ring(1);
        let mut data = vec![1.0, 2.0];
        comms[0].all_reduce_mean(&mut data).unwrap();
        assert_eq!(data, vec![1.0, 2.0]);
    }

    #[test]
    fn traced_ring_records_comm_spans_and_bytes() {
        let trace = Trace::new(salient_trace::Clock::virtual_with_tick(10));
        let comms = Communicator::ring_traced(2, Duration::from_secs(2), &trace);
        std::thread::scope(|s| {
            for comm in comms {
                s.spawn(move || {
                    let mut data = vec![1.0f32; 8];
                    comm.all_reduce_sum(&mut data).unwrap();
                });
            }
        });
        let snap = trace.snapshot();
        // 2 ranks × (1 reduce-scatter + 1 all-gather) ring steps.
        assert_eq!(snap.spans(names::spans::COMM_STEP).count(), 4);
        // Every step carries one send span and one recv span, tagged with
        // its ring-step index.
        assert_eq!(snap.spans(names::spans::DDP_RING_SEND).count(), 4);
        assert_eq!(snap.spans(names::spans::DDP_RING_RECV).count(), 4);
        assert!(snap
            .spans(names::spans::DDP_RING_SEND)
            .all(|e| e.batch == 0 || e.batch == 1));
        // Each step ships one 4-float chunk (len 8 split across 2 ranks).
        let bytes: Vec<u64> = snap.spans(names::spans::DDP_RING_SEND).map(|e| e.counts[0]).collect();
        assert_eq!(bytes, vec![16; 4]);
        assert_eq!(snap.distinct_tids(), 2);
    }

    #[test]
    fn dead_peer_times_out_with_typed_error() {
        // Rank 1 never participates: its communicator is dropped, so rank 0
        // observes a disconnect (closed channel) or times out, instead of
        // blocking forever.
        let mut comms = Communicator::ring_with_timeout(2, Duration::from_millis(50));
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        drop(c1);
        let err = c0.all_reduce_sum(&mut [1.0, 2.0]).unwrap_err();
        assert_eq!(err.rank, 0);
        assert_eq!(err.phase, CommPhase::ReduceScatter);
        assert!(matches!(
            err.kind,
            CommErrorKind::Timeout(_) | CommErrorKind::Disconnected
        ));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn silent_peer_times_out_with_typed_error() {
        // Rank 1 stays alive but never sends: rank 0 must time out (the
        // channel is open, so only the deadline can save it).
        let comms = Communicator::ring_with_timeout(2, Duration::from_millis(40));
        let mut it = comms.into_iter();
        let c0 = it.next().unwrap();
        let _c1 = it.next().unwrap(); // held alive, silent
        let err = c0.all_reduce_sum(&mut [1.0]).unwrap_err();
        assert_eq!(err.kind, CommErrorKind::Timeout(Duration::from_millis(40)));
        assert_eq!(err.rank, 0);
    }
}
