//! Shared-ownership synchronization for [`SessionStore`].
//!
//! The store itself is deliberately not internally synchronized (see
//! `log.rs`); historically each embedder wrapped it in its own
//! `Mutex<SessionStore>`, which left the store's position in the lock
//! hierarchy implicit. [`SyncSessionStore`] centralizes that wrapper
//! here so the `store.session_store` lock class is owned by the crate
//! that owns the data: every embedder shares one class, and with the
//! `lockdep` feature on, any acquisition that contradicts the documented
//! `shard < entry < store` hierarchy panics at the acquiring site.

use crate::log::SessionStore;
use qhorn_lockdep::{LockClass, OrderedMutex, OrderedMutexGuard};

/// A [`SessionStore`] behind a class-tagged mutex.
///
/// All access goes through [`SyncSessionStore::lock`], which recovers
/// from poisoning: a panic inside one store operation must not wedge
/// every other session's durability path (the PR-9 rule). Recovery is
/// sound because the store's mutating operations are append-then-update
/// — a panic can lose the in-memory tail position at worst, and
/// recovery replays the log to rebuild it.
pub struct SyncSessionStore {
    inner: OrderedMutex<SessionStore>,
}

impl SyncSessionStore {
    /// Wraps `store` under the shared `store.session_store` lock class.
    pub fn new(store: SessionStore) -> SyncSessionStore {
        SyncSessionStore {
            inner: OrderedMutex::new(LockClass::new("store.session_store"), store),
        }
    }

    /// Acquires the store, recovering from poisoning.
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, SessionStore> {
        self.inner.lock_recover()
    }

    /// Consumes the wrapper, returning the store even if poisoned.
    pub fn into_inner(self) -> SessionStore {
        self.inner.into_inner_recover()
    }
}

impl std::fmt::Debug for SyncSessionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncSessionStore").finish_non_exhaustive()
    }
}
