//! Runtime lock-order witness for the workspace's named lock sites.
//!
//! [`TrackedMutex`] / [`TrackedRwLock`] carry the same site names the static
//! analyzer derives (`{crate}.{file-stem}.{Struct}.{field}`, rules G008/G009
//! in `graphrep-check`), so the dynamic acquisition order observed under load
//! is directly comparable to the statically extracted lock graph.
//!
//! Two build modes, selected by the `lock-audit` feature:
//!
//! * **off** (default): the wrappers are transparent newtypes over
//!   `std::sync` primitives with `#[inline(always)]` passthroughs and no
//!   per-acquisition bookkeeping — the site string is not even stored.
//! * **on**: every acquisition pushes its site on a thread-local *held
//!   stack*; for each site already held, the ordered pair `(held, acquired)`
//!   is inserted into a global edge set; the first insertion that closes a
//!   cycle panics with the witness path. [`witness::observed_edges`] exposes
//!   the accumulated graph so tests can assert it is a subset of the static
//!   one.
//!
//! Both modes translate `std::sync` poisoning into guard recovery
//! (`parking_lot` semantics): a panicking holder must not wedge unrelated
//! threads, and every protected structure in this workspace is swapped or
//! appended whole, never left torn.
//!
//! Site identity is the *field*, not the instance: the 64 memo shards all
//! share `ged.cache.Shard.facts`, and same-site pairs are skipped as
//! self-edges — exactly mirroring the static model, which cannot distinguish
//! instances either.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

#[cfg(feature = "lock-audit")]
mod imp {
    use crate::witness;
    use std::fmt;
    use std::sync;
    use std::time::Duration;

    /// A mutex that reports acquisitions to the [`witness`].
    pub struct TrackedMutex<T: ?Sized> {
        site: &'static str,
        inner: sync::Mutex<T>,
    }

    impl<T> TrackedMutex<T> {
        /// A new mutex registered under `site`.
        pub const fn new(site: &'static str, value: T) -> Self {
            Self {
                site,
                inner: sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> TrackedMutex<T> {
        /// Acquires the lock, recording the acquisition order first (so a
        /// would-be deadlock panics with its witness instead of hanging).
        pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
            witness::on_acquire(self.site);
            let g = match self.inner.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            TrackedMutexGuard {
                site: self.site,
                inner: Some(g),
            }
        }
    }

    impl<T: fmt::Debug> fmt::Debug for TrackedMutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.inner.try_lock() {
                Ok(g) => f.debug_tuple("TrackedMutex").field(&&*g).finish(),
                Err(_) => f.write_str("TrackedMutex(<locked>)"),
            }
        }
    }

    /// Guard of a [`TrackedMutex`]; releases the witness entry on drop.
    pub struct TrackedMutexGuard<'a, T: ?Sized> {
        site: &'static str,
        /// `None` only while the guard is parked in a condvar wait (the site
        /// intentionally stays on the held stack through the wait).
        inner: Option<sync::MutexGuard<'a, T>>,
    }

    impl<T: ?Sized> std::ops::Deref for TrackedMutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard parked in condvar wait")
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard parked in condvar wait")
        }
    }

    impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.inner.is_some() {
                witness::on_release(self.site);
            }
        }
    }

    /// A reader-writer lock that reports acquisitions to the [`witness`].
    pub struct TrackedRwLock<T: ?Sized> {
        site: &'static str,
        inner: sync::RwLock<T>,
    }

    impl<T> TrackedRwLock<T> {
        /// A new lock registered under `site`.
        pub const fn new(site: &'static str, value: T) -> Self {
            Self {
                site,
                inner: sync::RwLock::new(value),
            }
        }
    }

    impl<T: ?Sized> TrackedRwLock<T> {
        /// Acquires a shared read guard (order recorded first; read and write
        /// acquisitions are the same site — the order graph does not
        /// distinguish modes, matching the static model).
        pub fn read(&self) -> TrackedReadGuard<'_, T> {
            witness::on_acquire(self.site);
            let g = match self.inner.read() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            TrackedReadGuard {
                site: self.site,
                inner: g,
            }
        }

        /// Acquires an exclusive write guard (order recorded first).
        pub fn write(&self) -> TrackedWriteGuard<'_, T> {
            witness::on_acquire(self.site);
            let g = match self.inner.write() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            TrackedWriteGuard {
                site: self.site,
                inner: g,
            }
        }
    }

    impl<T: fmt::Debug> fmt::Debug for TrackedRwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.inner.try_read() {
                Ok(g) => f.debug_tuple("TrackedRwLock").field(&&*g).finish(),
                Err(_) => f.write_str("TrackedRwLock(<locked>)"),
            }
        }
    }

    /// Read guard of a [`TrackedRwLock`]; releases the witness entry on drop.
    pub struct TrackedReadGuard<'a, T: ?Sized> {
        site: &'static str,
        inner: sync::RwLockReadGuard<'a, T>,
    }

    impl<T: ?Sized> std::ops::Deref for TrackedReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> Drop for TrackedReadGuard<'_, T> {
        fn drop(&mut self) {
            witness::on_release(self.site);
        }
    }

    /// Write guard of a [`TrackedRwLock`]; releases the witness entry on drop.
    pub struct TrackedWriteGuard<'a, T: ?Sized> {
        site: &'static str,
        inner: sync::RwLockWriteGuard<'a, T>,
    }

    impl<T: ?Sized> std::ops::Deref for TrackedWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized> Drop for TrackedWriteGuard<'_, T> {
        fn drop(&mut self) {
            witness::on_release(self.site);
        }
    }

    /// A condition variable over a [`TrackedMutex`].
    #[derive(Default)]
    pub struct TrackedCondvar {
        inner: sync::Condvar,
    }

    impl TrackedCondvar {
        /// A new condition variable.
        pub const fn new() -> Self {
            Self {
                inner: sync::Condvar::new(),
            }
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }

        /// Waits on the guard's mutex with a timeout. The guard's site stays
        /// on the held stack through the wait (the thread is blocked, so the
        /// over-approximation can never contribute a spurious edge).
        pub fn wait_timeout<'a, T>(
            &self,
            mut guard: TrackedMutexGuard<'a, T>,
            dur: Duration,
        ) -> (TrackedMutexGuard<'a, T>, sync::WaitTimeoutResult) {
            let site = guard.site;
            let std_guard = guard.inner.take().expect("guard parked in condvar wait");
            drop(guard); // Inner is None: the drop does not pop the site.
            let (g, timeout) = match self.inner.wait_timeout(std_guard, dur) {
                Ok(v) => v,
                Err(p) => p.into_inner(),
            };
            (
                TrackedMutexGuard {
                    site,
                    inner: Some(g),
                },
                timeout,
            )
        }
    }

    impl fmt::Debug for TrackedCondvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("TrackedCondvar")
        }
    }
}

#[cfg(not(feature = "lock-audit"))]
mod imp {
    use std::fmt;
    use std::sync;
    use std::time::Duration;

    /// A mutex; with `lock-audit` off this is a transparent `std::sync`
    /// wrapper (the site string is discarded at construction).
    pub struct TrackedMutex<T: ?Sized> {
        inner: sync::Mutex<T>,
    }

    impl<T> TrackedMutex<T> {
        /// A new mutex; `site` is unused in this build.
        pub const fn new(_site: &'static str, value: T) -> Self {
            Self {
                inner: sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> TrackedMutex<T> {
        /// Acquires the lock (poison recovered, `parking_lot` semantics).
        #[inline(always)]
        pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
            TrackedMutexGuard {
                inner: match self.inner.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                },
            }
        }
    }

    impl<T: fmt::Debug> fmt::Debug for TrackedMutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.inner.try_lock() {
                Ok(g) => f.debug_tuple("TrackedMutex").field(&&*g).finish(),
                Err(_) => f.write_str("TrackedMutex(<locked>)"),
            }
        }
    }

    /// Guard of a [`TrackedMutex`] (plain `std` guard underneath).
    pub struct TrackedMutexGuard<'a, T: ?Sized> {
        inner: sync::MutexGuard<'a, T>,
    }

    impl<T: ?Sized> std::ops::Deref for TrackedMutexGuard<'_, T> {
        type Target = T;
        #[inline(always)]
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
        #[inline(always)]
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    /// A reader-writer lock; transparent `std::sync` wrapper in this build.
    pub struct TrackedRwLock<T: ?Sized> {
        inner: sync::RwLock<T>,
    }

    impl<T> TrackedRwLock<T> {
        /// A new lock; `site` is unused in this build.
        pub const fn new(_site: &'static str, value: T) -> Self {
            Self {
                inner: sync::RwLock::new(value),
            }
        }
    }

    impl<T: ?Sized> TrackedRwLock<T> {
        /// Acquires a shared read guard (poison recovered).
        #[inline(always)]
        pub fn read(&self) -> TrackedReadGuard<'_, T> {
            TrackedReadGuard {
                inner: match self.inner.read() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                },
            }
        }

        /// Acquires an exclusive write guard (poison recovered).
        #[inline(always)]
        pub fn write(&self) -> TrackedWriteGuard<'_, T> {
            TrackedWriteGuard {
                inner: match self.inner.write() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                },
            }
        }
    }

    impl<T: fmt::Debug> fmt::Debug for TrackedRwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.inner.try_read() {
                Ok(g) => f.debug_tuple("TrackedRwLock").field(&&*g).finish(),
                Err(_) => f.write_str("TrackedRwLock(<locked>)"),
            }
        }
    }

    /// Read guard of a [`TrackedRwLock`] (plain `std` guard underneath).
    pub struct TrackedReadGuard<'a, T: ?Sized> {
        inner: sync::RwLockReadGuard<'a, T>,
    }

    impl<T: ?Sized> std::ops::Deref for TrackedReadGuard<'_, T> {
        type Target = T;
        #[inline(always)]
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    /// Write guard of a [`TrackedRwLock`] (plain `std` guard underneath).
    pub struct TrackedWriteGuard<'a, T: ?Sized> {
        inner: sync::RwLockWriteGuard<'a, T>,
    }

    impl<T: ?Sized> std::ops::Deref for TrackedWriteGuard<'_, T> {
        type Target = T;
        #[inline(always)]
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
        #[inline(always)]
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    /// A condition variable over a [`TrackedMutex`]; transparent wrapper.
    #[derive(Debug, Default)]
    pub struct TrackedCondvar {
        inner: sync::Condvar,
    }

    impl TrackedCondvar {
        /// A new condition variable.
        pub const fn new() -> Self {
            Self {
                inner: sync::Condvar::new(),
            }
        }

        /// Wakes one waiter.
        #[inline(always)]
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wakes every waiter.
        #[inline(always)]
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }

        /// Waits on the guard's mutex with a timeout (poison recovered).
        #[inline(always)]
        pub fn wait_timeout<'a, T>(
            &self,
            guard: TrackedMutexGuard<'a, T>,
            dur: Duration,
        ) -> (TrackedMutexGuard<'a, T>, sync::WaitTimeoutResult) {
            let (g, timeout) = match self.inner.wait_timeout(guard.inner, dur) {
                Ok(v) => v,
                Err(p) => p.into_inner(),
            };
            (TrackedMutexGuard { inner: g }, timeout)
        }
    }
}

pub use imp::{
    TrackedCondvar, TrackedMutex, TrackedMutexGuard, TrackedReadGuard, TrackedRwLock,
    TrackedWriteGuard,
};

/// The global acquisition-order witness (compiled only under `lock-audit`).
#[cfg(feature = "lock-audit")]
pub mod witness {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    thread_local! {
        /// Sites whose guards this thread currently holds, in acquisition
        /// order. Duplicates are legal (reentrant same-site reads).
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// Every ordered pair `(held, acquired)` observed so far, process-wide.
    static EDGES: Mutex<BTreeSet<(&'static str, &'static str)>> = Mutex::new(BTreeSet::new());

    /// Records that `site` is being acquired by this thread: inserts one
    /// edge per distinct held site and panics if an insertion closes a
    /// cycle. Called *before* blocking on the underlying primitive, so a
    /// genuine order inversion reports instead of deadlocking.
    pub fn on_acquire(site: &'static str) {
        // `try_with`: guards dropped during thread-local teardown must not
        // panic the unwinder.
        let _ = HELD.try_with(|h| {
            let mut held = h.borrow_mut();
            if !held.is_empty() {
                let mut edges = match EDGES.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                for &from in held.iter() {
                    if from != site && edges.insert((from, site)) {
                        if let Some(path) = path_between(&edges, site, from) {
                            panic!(
                                "lock-order cycle: acquiring `{site}` while holding `{from}` \
                                 closes the cycle {} -> {site}",
                                path.join(" -> ")
                            );
                        }
                    }
                }
            }
            held.push(site);
        });
    }

    /// Records that this thread released a guard for `site` (the most
    /// recent matching acquisition).
    pub fn on_release(site: &'static str) {
        let _ = HELD.try_with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&s| s == site) {
                held.remove(pos);
            }
        });
    }

    /// The accumulated order graph: every `(held, acquired)` pair observed
    /// since process start, sorted.
    pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
        let edges = match EDGES.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        edges.iter().copied().collect()
    }

    /// A path `start -> … -> goal` through `edges`, if one exists (DFS).
    fn path_between(
        edges: &BTreeSet<(&'static str, &'static str)>,
        start: &'static str,
        goal: &'static str,
    ) -> Option<Vec<&'static str>> {
        let mut stack = vec![vec![start]];
        let mut seen = BTreeSet::new();
        seen.insert(start);
        while let Some(path) = stack.pop() {
            let last = *path.last()?;
            if last == goal {
                return Some(path);
            }
            for &(f, t) in edges.iter() {
                if f == last && seen.insert(t) {
                    let mut next = path.clone();
                    next.push(t);
                    stack.push(next);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_and_rwlock_basics() {
        let m = TrackedMutex::new("test.basic.m", 1u64);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let l = TrackedRwLock::new("test.basic.l", 5u64);
        assert_eq!(*l.read(), 5);
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn condvar_wait_times_out() {
        let m = TrackedMutex::new("test.cv.m", ());
        let cv = TrackedCondvar::new();
        let g = m.lock();
        let (_g, t) = cv.wait_timeout(g, std::time::Duration::from_millis(1));
        assert!(t.timed_out());
    }

    #[cfg(feature = "lock-audit")]
    #[test]
    fn nested_acquisition_records_an_edge() {
        let a = TrackedMutex::new("test.edge.a", ());
        let b = TrackedMutex::new("test.edge.b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
        assert!(witness::observed_edges().contains(&("test.edge.a", "test.edge.b")));
    }

    #[cfg(feature = "lock-audit")]
    #[test]
    fn same_site_reentry_is_not_an_edge() {
        let l = TrackedRwLock::new("test.reent.l", ());
        let g1 = l.read();
        let g2 = l.read();
        drop(g2);
        drop(g1);
        assert!(!witness::observed_edges()
            .iter()
            .any(|&(f, t)| f == "test.reent.l" && t == "test.reent.l"));
    }

    #[cfg(feature = "lock-audit")]
    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn inverted_order_panics_with_witness() {
        let x = TrackedMutex::new("test.cycle.x", ());
        let y = TrackedMutex::new("test.cycle.y", ());
        {
            let gx = x.lock();
            let gy = y.lock();
            drop(gy);
            drop(gx);
        }
        let gy = y.lock();
        let _gx = x.lock(); // y -> x closes the cycle: panics.
        drop(gy);
    }

    #[cfg(feature = "lock-audit")]
    #[test]
    fn condvar_wait_keeps_site_held_once() {
        let m = TrackedMutex::new("test.cvheld.m", ());
        let cv = TrackedCondvar::new();
        let g = m.lock();
        let (g, _) = cv.wait_timeout(g, std::time::Duration::from_millis(1));
        drop(g);
        // Balanced: a fresh acquisition after the wait+drop records no
        // self-edge and does not panic.
        let other = TrackedMutex::new("test.cvheld.n", ());
        let go = other.lock();
        let gm = m.lock();
        drop(gm);
        drop(go);
        assert!(witness::observed_edges().contains(&("test.cvheld.n", "test.cvheld.m")));
    }
}
