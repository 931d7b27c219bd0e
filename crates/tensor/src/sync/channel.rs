//! A std-only bounded multi-producer multi-consumer channel.
//!
//! `std::sync::mpsc` is single-consumer, but batch preparation's
//! prepared-batch stream is MPMC: many workers produce, the consumer —
//! possibly cloned — drains, first in first out. This module provides that
//! one bounded queue, built on `Mutex<VecDeque>` + two condvars. The
//! staging-slot pool is not a channel: it hands out the slot released last
//! (`batchprep::pinned`).
//!
//! Backpressure is the bound: a producer that runs ahead parks in `send`
//! on a condvar (no drops, no spinning) until a slot frees.
//!
//! Semantics match the conventional MPMC contract: `send` blocks while the
//! buffer is full and fails once every receiver is gone; `recv` drains
//! buffered messages even after every sender is gone, then reports
//! disconnection. Endpoints are clone-counted; dropping the last endpoint of
//! either side wakes all waiters on the other.

use super::{lock_unpoisoned, wait_unpoisoned};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// The message could not be delivered because every receiver was dropped.
/// The unsent message is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Every sender was dropped and the buffer is empty.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

/// Creates a bounded MPMC channel with room for `cap` in-flight messages.
///
/// # Panics
///
/// Panics if `cap == 0` (rendezvous channels are not needed here).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "channel capacity must be positive");
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(cap),
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap,
    });
    (
        Sender { inner: Arc::clone(&inner) },
        Receiver { inner },
    )
}

/// The producing endpoint; clone freely across worker threads.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Sender<T> {
    /// Delivers `value`, blocking while the buffer is full. Fails (returning
    /// the value) once every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = lock_unpoisoned(&self.inner.state);
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            if st.queue.len() < self.inner.cap {
                st.queue.push_back(value);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            st = wait_unpoisoned(&self.inner.not_full, st);
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock_unpoisoned(&self.inner.state).senders += 1;
        Sender { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = lock_unpoisoned(&self.inner.state);
        st.senders -= 1;
        if st.senders == 0 {
            // Receivers blocked on an empty buffer must observe disconnect.
            self.inner.not_empty.notify_all();
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

/// The consuming endpoint; clone freely across consumer threads.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Receiver<T> {
    /// Takes the next message, blocking while the buffer is empty and at
    /// least one sender is alive.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = lock_unpoisoned(&self.inner.state);
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.inner.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = wait_unpoisoned(&self.inner.not_empty, st);
        }
    }

    /// A blocking iterator that yields until every sender disconnects and
    /// the buffer drains.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        lock_unpoisoned(&self.inner.state).receivers += 1;
        Receiver { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let buffered = {
            let mut st = lock_unpoisoned(&self.inner.state);
            st.receivers -= 1;
            if st.receivers == 0 {
                // No receiver can ever take these messages; drop them now so
                // resources they own (e.g. pinned staging slots) are released
                // immediately rather than when the last *sender* departs.
                // Senders blocked on a full buffer must observe disconnect.
                self.inner.not_full.notify_all();
                std::mem::take(&mut st.queue)
            } else {
                VecDeque::new()
            }
        };
        // Run the queued messages' destructors outside the channel lock:
        // they may send on other channels (slot-return paths).
        drop(buffered);
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

/// Blocking iterator over a [`Receiver`]; see [`Receiver::iter`].
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn send_blocks_until_space_frees() {
        let (tx, rx) = bounded(1);
        tx.send(1u32).unwrap();
        let h = thread::spawn(move || tx.send(2).is_ok());
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(h.join().unwrap());
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn recv_drains_after_all_senders_drop() {
        let (tx, rx) = bounded(8);
        tx.send(7u32).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(3u32), Err(SendError(3)));
    }

    #[test]
    fn mpmc_under_contention_delivers_everything_once() {
        let (tx, rx) = bounded(4);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..250 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || rx.iter().collect::<Vec<i32>>())
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<i32> =
            (0..4).flat_map(|p| (0..250).map(move |i| p * 1000 + i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn queued_messages_drop_when_last_receiver_departs() {
        let (tx, rx) = bounded(4);
        let token = std::sync::Arc::new(());
        tx.send(std::sync::Arc::clone(&token)).unwrap();
        tx.send(std::sync::Arc::clone(&token)).unwrap();
        assert_eq!(std::sync::Arc::strong_count(&token), 3);
        drop(rx);
        // The buffered messages were destroyed eagerly, not parked until the
        // sender also departs.
        assert_eq!(std::sync::Arc::strong_count(&token), 1);
        assert!(tx.send(std::sync::Arc::clone(&token)).is_err());
    }

    #[test]
    fn blocking_iter_ends_on_disconnect() {
        let (tx, rx) = bounded(2);
        let h = thread::spawn(move || {
            for i in 0..10u32 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = rx.iter().collect();
        h.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }
}
