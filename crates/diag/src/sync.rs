//! Rank-checked drop-in wrappers over `std::sync` primitives.
//!
//! Debug builds track per-thread held ranks (see crate docs); release
//! builds are passthrough. All wrappers recover from poisoning: a
//! panicking holder leaves the data in whatever state it reached, the
//! next acquirer proceeds — the same semantics as the non-poisoning
//! locks these wrappers replaced, and the right call in a system whose
//! rank checker panics *before* corrupting anything.

use crate::Rank;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, WaitTimeoutResult};
use std::time::Duration;

#[cfg(debug_assertions)]
use crate::tracker;
#[cfg(debug_assertions)]
use std::panic::Location;

/// A mutex with a global-hierarchy rank (crate docs).
pub struct OrderedMutex<T: ?Sized> {
    rank: Rank,
    inner: sync::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` at `rank`.
    pub const fn new(rank: Rank, value: T) -> Self {
        Self {
            rank,
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// This lock's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    #[cfg(debug_assertions)]
    fn lock_id(&self) -> usize {
        &self.inner as *const sync::Mutex<T> as *const u8 as usize
    }

    /// Acquires the mutex, enforcing rank order in debug builds.
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        tracker::acquire(
            self.rank.value,
            self.rank.name,
            self.lock_id(),
            Location::caller(),
        );
        OrderedMutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            lock: self,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for [`OrderedMutex`].
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    /// `Option` so [`OrderedCondvar::wait`] can hand the std guard to
    /// the OS wait and re-wrap it afterwards; `None` only inside that
    /// window.
    inner: Option<sync::MutexGuard<'a, T>>,
    lock: &'a OrderedMutex<T>,
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        tracker::release(self.lock.lock_id());
        #[cfg(not(debug_assertions))]
        let _ = &self.lock;
    }
}

/// A condition variable paired with [`OrderedMutex`].
///
/// Debug builds panic if a wait is entered while the thread holds any
/// wrapper lock besides the condvar's own mutex (crate docs); the
/// waited mutex's rank is un-recorded for the duration of the wait and
/// re-recorded on wake, mirroring what the OS does with the lock
/// itself.
pub struct OrderedCondvar {
    inner: sync::Condvar,
}

impl Default for OrderedCondvar {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderedCondvar {
    /// A fresh condvar.
    pub const fn new() -> Self {
        Self {
            inner: sync::Condvar::new(),
        }
    }

    /// Blocks until notified.
    #[track_caller]
    pub fn wait<'a, T>(&self, mut guard: OrderedMutexGuard<'a, T>) -> OrderedMutexGuard<'a, T> {
        #[cfg(debug_assertions)]
        let entry = tracker::wait_begin(guard.lock.lock_id(), Location::caller());
        let std_guard = guard.inner.take().expect("guard present outside wait");
        let std_guard = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(std_guard);
        #[cfg(debug_assertions)]
        tracker::wait_end(entry);
        guard
    }

    /// Blocks until notified or `timeout` elapses.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: OrderedMutexGuard<'a, T>,
        timeout: Duration,
    ) -> (OrderedMutexGuard<'a, T>, WaitTimeoutResult) {
        #[cfg(debug_assertions)]
        let entry = tracker::wait_begin(guard.lock.lock_id(), Location::caller());
        let std_guard = guard.inner.take().expect("guard present outside wait");
        let (std_guard, result) = self
            .inner
            .wait_timeout(std_guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(std_guard);
        #[cfg(debug_assertions)]
        tracker::wait_end(entry);
        (guard, result)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A reader-writer lock with a global-hierarchy rank. Read and write
/// acquisitions obey the same strict-increase rule as mutexes — in
/// particular a same-thread nested `read()` of one lock is flagged
/// (with a writer queued between the two reads it deadlocks on
/// writer-preferring implementations).
pub struct OrderedRwLock<T: ?Sized> {
    rank: Rank,
    inner: sync::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` at `rank`.
    pub const fn new(rank: Rank, value: T) -> Self {
        Self {
            rank,
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// This lock's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    fn lock_id(&self) -> usize {
        &self.inner as *const sync::RwLock<T> as *const u8 as usize
    }

    /// Acquires shared access, enforcing rank order in debug builds.
    #[track_caller]
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        tracker::acquire(
            self.rank.value,
            self.rank.name,
            self.lock_id(),
            Location::caller(),
        );
        OrderedRwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            lock_id: self.lock_id(),
        }
    }

    /// Acquires exclusive access, enforcing rank order in debug builds.
    #[track_caller]
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        tracker::acquire(
            self.rank.value,
            self.rank.name,
            self.lock_id(),
            Location::caller(),
        );
        OrderedRwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            lock_id: self.lock_id(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard for [`OrderedRwLock`].
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    lock_id: usize,
}

impl<T: ?Sized> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        tracker::release(self.lock_id);
    }
}

/// Exclusive guard for [`OrderedRwLock`].
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    lock_id: usize,
}

impl<T: ?Sized> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        tracker::release(self.lock_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rank;
    use std::sync::Arc;
    use std::thread;

    /// Whether rank checking is compiled in (true exactly in debug
    /// builds — release builds are passthrough).
    const fn rank_checking_enabled() -> bool {
        cfg!(debug_assertions)
    }

    /// The ranks the current thread holds, outermost first. Debug builds
    /// only; release builds always report an empty set.
    fn held_ranks() -> Vec<(&'static str, u16)> {
        #[cfg(debug_assertions)]
        {
            crate::tracker::HELD
                .with(|held| held.borrow().iter().map(|h| (h.name, h.rank)).collect())
        }
        #[cfg(not(debug_assertions))]
        {
            Vec::new()
        }
    }

    const LOW: Rank = Rank::new(1_000, "test.low");
    const MID: Rank = Rank::new(1_010, "test.mid");
    const HIGH: Rank = Rank::new(1_020, "test.high");

    #[test]
    fn increasing_order_is_clean() {
        let low = OrderedMutex::new(LOW, 1u32);
        let high = OrderedMutex::new(HIGH, 2u32);
        let a = low.lock();
        let b = high.lock();
        assert_eq!(*a + *b, 3);
        if rank_checking_enabled() {
            assert_eq!(
                held_ranks(),
                vec![("test.low", 1_000), ("test.high", 1_020)]
            );
        }
        drop(b);
        drop(a);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn reacquire_after_release_is_clean() {
        let low = OrderedMutex::new(LOW, ());
        let high = OrderedMutex::new(HIGH, ());
        drop(high.lock());
        // Rank went down, but nothing is held: fine.
        drop(low.lock());
        drop(high.lock());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank inversion")]
    fn inversion_panics_in_debug() {
        let low = OrderedMutex::new(LOW, ());
        let high = OrderedMutex::new(HIGH, ());
        let _h = high.lock();
        let _l = low.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank inversion")]
    fn equal_rank_panics_in_debug() {
        let a = OrderedMutex::new(MID, ());
        let b = OrderedMutex::new(MID, ());
        let _a = a.lock();
        let _b = b.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank inversion")]
    fn rwlock_read_recursion_panics_in_debug() {
        let lock = OrderedRwLock::new(MID, ());
        let _first = lock.read();
        let _second = lock.read();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn inversion_panic_names_both_sites() {
        let result = thread::spawn(|| {
            let low = OrderedMutex::new(LOW, ());
            let high = OrderedMutex::new(HIGH, ());
            let _h = high.lock();
            let _l = low.lock();
        })
        .join();
        let panic = result.expect_err("inversion must panic");
        let message = panic
            .downcast_ref::<String>()
            .expect("panic carries a message");
        // Both the held lock's and the offending acquisition's sites.
        assert!(message.contains("`test.low`"), "{message}");
        assert!(message.contains("`test.high`"), "{message}");
        assert_eq!(
            message.matches("sync.rs:").count(),
            2,
            "both acquisition sites expected: {message}"
        );
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn inversion_passes_through_in_release() {
        let low = OrderedMutex::new(LOW, ());
        let high = OrderedMutex::new(HIGH, ());
        let _h = high.lock();
        let _l = low.lock();
        assert!(!rank_checking_enabled());
        assert!(held_ranks().is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "condvar wait on")]
    fn condvar_wait_while_holding_other_lock_panics() {
        let low = OrderedMutex::new(LOW, ());
        let state = OrderedMutex::new(HIGH, false);
        let cond = OrderedCondvar::new();
        let _l = low.lock();
        let guard = state.lock();
        let _ = cond.wait_timeout(guard, Duration::from_millis(1));
    }

    #[test]
    fn condvar_wait_releases_and_restores_rank() {
        let shared = Arc::new((OrderedMutex::new(MID, false), OrderedCondvar::new()));
        let waiter = {
            let shared = shared.clone();
            thread::spawn(move || {
                let (lock, cond) = &*shared;
                let mut ready = lock.lock();
                while !*ready {
                    ready = cond.wait(ready);
                }
                // After the wake the wait re-recorded the mutex: a
                // higher lock is still acquirable, so the rank state
                // survived the round trip.
                if rank_checking_enabled() {
                    assert_eq!(held_ranks(), vec![("test.mid", 1_010)]);
                }
            })
        };
        {
            // While the waiter sleeps its mutex is genuinely free.
            let (lock, cond) = &*shared;
            thread::sleep(Duration::from_millis(20));
            *lock.lock() = true;
            cond.notify_all();
        }
        waiter.join().expect("waiter must finish cleanly");
    }

    #[test]
    fn wait_timeout_reports_timeouts() {
        let lock = OrderedMutex::new(MID, ());
        let cond = OrderedCondvar::new();
        let (_guard, result) = cond.wait_timeout(lock.lock(), Duration::from_millis(5));
        assert!(result.timed_out());
    }

    #[test]
    fn rwlock_readers_on_distinct_threads_share() {
        let lock = Arc::new(OrderedRwLock::new(MID, 7u32));
        let reader = {
            let lock = lock.clone();
            thread::spawn(move || *lock.read())
        };
        assert_eq!(*lock.read(), 7);
        assert_eq!(reader.join().unwrap(), 7);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 8);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let lock = Arc::new(OrderedMutex::new(MID, 41u32));
        let panicker = {
            let lock = lock.clone();
            thread::spawn(move || {
                let _guard = lock.lock();
                panic!("poison the lock");
            })
        };
        assert!(panicker.join().is_err());
        *lock.lock() += 1;
        assert_eq!(*lock.lock(), 42);
    }
}
