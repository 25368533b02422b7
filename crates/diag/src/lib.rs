//! Ranked-lock deadlock detection for the OpenFLAME workspace.
//!
//! Every mutex, rwlock and condvar in the serving stack goes through
//! the wrappers in this crate instead of `std::sync` / `parking_lot`.
//! Each lock carries a [`Rank`] from the global table in [`ranks`], and
//! in debug builds each thread tracks the set of wrapper locks it
//! holds:
//!
//! - acquiring a lock whose rank is **not strictly greater** than every
//!   rank already held panics with both acquisition sites (the held
//!   lock's and the offending one's) — so any two threads that could
//!   ever deadlock by taking the same pair of locks in opposite orders
//!   fail loudly the first time *either* order is observed, on any
//!   test run, without needing the unlucky interleaving;
//! - waiting on an [`OrderedCondvar`] while holding **any** wrapper
//!   lock other than the condvar's own mutex panics — a sleeping
//!   thread that keeps a lower-ranked lock pinned is the classic
//!   lost-wakeup/deadlock incubator.
//!
//! In release builds the wrappers compile to passthrough newtypes over
//! `std::sync` with no per-acquisition bookkeeping.
//!
//! The rank table (and the reasoning behind the order) is documented
//! in `docs/wire-protocol.md` Appendix A; the conformance rules that
//! keep raw `std::sync::Mutex::new` out of the tree are in
//! `docs/conformance.md`.

pub mod ranks;
mod sync;

pub use sync::{
    OrderedCondvar, OrderedMutex, OrderedMutexGuard, OrderedRwLock, OrderedRwLockReadGuard,
    OrderedRwLockWriteGuard,
};

/// A level in the global lock hierarchy. Locks may only be acquired in
/// strictly increasing rank order within one thread; see [`ranks`] for
/// the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rank {
    /// Position in the hierarchy (greater = acquired later / innermost).
    pub value: u16,
    /// Stable human-readable name used in violation panics.
    pub name: &'static str,
}

impl Rank {
    /// Declares a rank. All ranks live in [`ranks`]; ad-hoc ranks are
    /// reserved for tests.
    pub const fn new(value: u16, name: &'static str) -> Self {
        Self { value, name }
    }
}

#[cfg(debug_assertions)]
pub(crate) mod tracker {
    //! Per-thread held-lock bookkeeping (debug builds only).

    use std::cell::RefCell;
    use std::panic::Location;

    /// One wrapper lock currently held by this thread.
    #[derive(Clone, Copy)]
    pub(crate) struct Held {
        pub rank: u16,
        pub name: &'static str,
        /// Address of the wrapped primitive — distinguishes two locks
        /// that share a rank and identifies the entry to pop on drop.
        pub lock_id: usize,
        /// Where this thread acquired it.
        pub site: &'static Location<'static>,
    }

    thread_local! {
        pub(crate) static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// Records an acquisition, panicking on rank inversion.
    pub(crate) fn acquire(
        rank: u16,
        name: &'static str,
        lock_id: usize,
        site: &'static Location<'static>,
    ) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(top) = held.iter().max_by_key(|h| h.rank) {
                if rank <= top.rank {
                    let top = *top;
                    drop(held);
                    panic!(
                        "lock rank inversion: acquiring `{name}` (rank {rank}) at {site} \
                         while holding `{}` (rank {}) acquired at {} — locks must be taken \
                         in strictly increasing rank order (docs/wire-protocol.md Appendix A)",
                        top.name, top.rank, top.site
                    );
                }
            }
            held.push(Held {
                rank,
                name,
                lock_id,
                site,
            });
        });
    }

    /// Drops the most recent record for `lock_id` (guard drop).
    pub(crate) fn release(lock_id: usize) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.lock_id == lock_id) {
                held.remove(pos);
            }
        });
    }

    /// Marks the start of a condvar wait on the mutex identified by
    /// `lock_id`: panics if the thread holds any *other* wrapper lock,
    /// then temporarily un-records the waited mutex (the OS releases it
    /// for the duration of the wait).
    pub(crate) fn wait_begin(lock_id: usize, site: &'static Location<'static>) -> Held {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(other) = held.iter().find(|h| h.lock_id != lock_id) {
                let waited = held
                    .iter()
                    .find(|h| h.lock_id == lock_id)
                    .map(|h| h.name)
                    .unwrap_or("<untracked mutex>");
                let other = *other;
                drop(held);
                panic!(
                    "condvar wait on `{waited}` at {site} while holding `{}` (rank {}) \
                     acquired at {} — a waiting thread must hold no lock besides the \
                     condvar's own mutex (docs/wire-protocol.md Appendix A)",
                    other.name, other.rank, other.site
                );
            }
            let pos = held
                .iter()
                .rposition(|h| h.lock_id == lock_id)
                .expect("condvar wait on a mutex this thread does not hold");
            held.remove(pos)
        })
    }

    /// Re-records the waited mutex after the wait returns (the wait's
    /// own re-acquisition).
    pub(crate) fn wait_end(entry: Held) {
        HELD.with(|held| held.borrow_mut().push(entry));
    }
}
