//! The session manager: paper Sec 7's interactive model as server state.
//!
//! `open_session` runs the initialization phase once (π̂-vectors over the
//! vantage orderings); every subsequent `(θ, k)` run reuses it — the exact
//! workload shape of the paper's interactive θ-refinement, with the session
//! held server-side behind an id. Sessions expire after an idle TTL; expiry
//! is checked opportunistically on access and swept on inserts, so no
//! background reaper thread is needed.

use graphrep_core::Session;
use graphrep_lockaudit::{TrackedMutex, TrackedRwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One open session: the engine's [`Session`], pinned to its snapshot
/// (index `Arc` / per-shard epoch vector) when it was opened, plus
/// bookkeeping.
pub struct LiveSession {
    id: u64,
    session: Box<dyn Session>,
    last_used: TrackedMutex<Instant>,
}

impl std::fmt::Debug for LiveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveSession")
            .field("id", &self.id)
            .field("relevant", &self.session.relevant().len())
            .finish()
    }
}

impl LiveSession {
    /// Session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The underlying query session. Runs take `&self`, so concurrent runs
    /// on one session are safe.
    pub fn session(&self) -> &dyn Session {
        &*self.session
    }

    fn touch(&self) {
        *self.last_used.lock() = Instant::now();
    }

    fn idle_for(&self, now: Instant) -> Duration {
        now.saturating_duration_since(*self.last_used.lock())
    }
}

/// Concurrent session table with idle expiry.
#[derive(Debug)]
pub struct SessionManager {
    next_id: AtomicU64,
    ttl: Duration,
    expired: AtomicU64,
    map: TrackedRwLock<HashMap<u64, Arc<LiveSession>>>,
}

impl SessionManager {
    /// A manager whose sessions expire after `ttl` of inactivity.
    pub fn new(ttl: Duration) -> Self {
        Self {
            next_id: AtomicU64::new(1),
            ttl,
            expired: AtomicU64::new(0),
            map: TrackedRwLock::new("serve.sessions.SessionManager.map", HashMap::new()),
        }
    }

    /// Registers a session, returning its id. Expired sessions are swept as
    /// a side effect, bounding the table by the live working set.
    pub fn insert(&self, session: Box<dyn Session>) -> u64 {
        self.sweep();
        // Relaxed: the id only needs uniqueness, not ordering with the map.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let live = Arc::new(LiveSession {
            id,
            session,
            last_used: TrackedMutex::new("serve.sessions.LiveSession.last_used", Instant::now()),
        });
        self.map.write().insert(id, live);
        id
    }

    /// Fetches a session and refreshes its idle clock. A session past its
    /// TTL is removed and reported as absent — the caller sees the same
    /// `not_found` an unknown id produces.
    pub fn get(&self, id: u64) -> Option<Arc<LiveSession>> {
        let live = self.map.read().get(&id).cloned()?;
        if live.idle_for(Instant::now()) >= self.ttl {
            if self.map.write().remove(&id).is_some() {
                // Relaxed: monotone telemetry counter; no ordering needed.
                self.expired.fetch_add(1, Ordering::Relaxed);
            }
            return None;
        }
        live.touch();
        Some(live)
    }

    /// Removes a session explicitly. Returns whether it existed.
    pub fn remove(&self, id: u64) -> bool {
        self.map.write().remove(&id).is_some()
    }

    /// Removes every session idle past the TTL, returning how many.
    pub fn sweep(&self) -> usize {
        let now = Instant::now();
        let stale: Vec<u64> = self
            .map
            .read()
            .iter()
            .filter(|(_, s)| s.idle_for(now) >= self.ttl)
            .map(|(&id, _)| id)
            .collect();
        if stale.is_empty() {
            return 0;
        }
        let mut removed = 0;
        let mut map = self.map.write();
        for id in stale {
            // Re-check under the write lock: a concurrent `get` may have
            // touched the session between the scan and now.
            let still_stale = map.get(&id).is_some_and(|s| s.idle_for(now) >= self.ttl);
            if still_stale && map.remove(&id).is_some() {
                removed += 1;
            }
        }
        // Relaxed: monotone telemetry counter; no ordering needed.
        self.expired.fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sessions removed by idle expiry since construction.
    pub fn expired_total(&self) -> u64 {
        // Relaxed: monotone telemetry counter; no ordering needed.
        self.expired.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrep_core::{NbIndex, NbIndexConfig};
    use graphrep_datagen::{DatasetKind, DatasetSpec};
    use graphrep_ged::GedConfig;

    fn tiny_session() -> Box<dyn Session> {
        let data = DatasetSpec::new(DatasetKind::DudLike, 12, 7).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let index = Arc::new(NbIndex::build(oracle, NbIndexConfig::default()));
        Box::new(index.start_session_shared(vec![0, 1, 2, 3]))
    }

    #[test]
    fn insert_get_remove() {
        let m = SessionManager::new(Duration::from_secs(60));
        let id = m.insert(tiny_session());
        assert_eq!(m.len(), 1);
        let live = m.get(id).expect("session should be live");
        assert_eq!(live.session().relevant().len(), 4);
        assert!(m.remove(id));
        assert!(!m.remove(id));
        assert!(m.get(id).is_none());
    }

    #[test]
    fn zero_ttl_expires_immediately() {
        let m = SessionManager::new(Duration::ZERO);
        let id = m.insert(tiny_session());
        assert!(m.get(id).is_none(), "TTL 0 must expire on first access");
        assert_eq!(m.len(), 0);
        assert_eq!(m.expired_total(), 1);
    }

    #[test]
    fn sweep_counts_stale_sessions() {
        let m = SessionManager::new(Duration::ZERO);
        let _ = m.insert(tiny_session());
        assert_eq!(m.sweep(), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let m = SessionManager::new(Duration::from_secs(60));
        let a = m.insert(tiny_session());
        let b = m.insert(tiny_session());
        assert!(b > a);
        assert_eq!(m.len(), 2);
    }
}
