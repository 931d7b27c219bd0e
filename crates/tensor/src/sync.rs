//! Poison-tolerant lock helpers. The kernel pool's job slots and batch
//! prep's slot pool use these. The two dependency-free leaves keep their
//! own: `salient-trace` has `lock_tolerant`, and `salient-fault` recovers its
//! two statics' guards inline.
//!
//! A panicking batch-prep worker poisons any `Mutex` it held; the fault
//! layer catches the panic and retries the batch, so the lock's
//! *data* is still consistent — every structure guarded in this workspace
//! (the staging pool's free list, the kernel pool's job slot) keeps its
//! invariants between mutations. Propagating the poison with `.unwrap()`
//! would turn one recovered worker panic into a cascade that kills the whole
//! prep pipeline, which is exactly what the supervised-recovery layer exists
//! to prevent. These helpers recover the guard from a poisoned lock instead
//! of panicking; `clippy::unwrap_used` rejects the bare `.lock().unwrap()`
//! pattern in library code.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a previous holder panicked.
#[inline]
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait` that recovers the guard from a poisoned lock.
#[inline]
pub fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex};

    #[test]
    fn lock_recovers_after_holder_panicked() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 7);
        *lock_unpoisoned(&m) = 8;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }

    #[test]
    fn wait_wakes_on_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = lock_unpoisoned(m);
            while !*done {
                done = wait_unpoisoned(cv, done);
            }
        });
        {
            let (m, cv) = &*pair;
            *lock_unpoisoned(m) = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }
}
