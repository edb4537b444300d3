//! The session registry backing [`ServerHandle`](super::ServerHandle).
//!
//! One `RwLock<HashMap>` keyed by session id: a request takes the lock just
//! long enough to clone the session's `Arc`, and then operates on the
//! per-session mutex — so requests against *unrelated* sessions only meet
//! on that brief lookup, and requests against the *same* session serialize
//! (which is what makes a concurrently-driven session's trajectory
//! deterministic).
//!
//! Lock discipline (the registry's no-deadlock argument): the map lock is
//! only ever held for a lookup/insert/remove, never while blocking on a
//! slot mutex. A thread may take the map lock *while holding* a slot mutex
//! (close and failed-create cleanup do, via [`Registry::remove_if`]), but
//! never the reverse — so the slot → map edge cannot complete a cycle.
//!
//! Poisoned locks are recovered rather than propagated: one tenant's panic
//! must not wedge the daemon or any other tenant. Map-lock poisoning is
//! harmless (the map itself is only mutated by insert/remove, which don't
//! panic mid-structure); a poisoned *slot* mutex, however, may guard a
//! tenant whose in-memory state was torn mid-mutation, so [`lock_slot`]
//! fails safe by emptying the slot — later requests get a typed
//! `unknown_session` and the client re-creates/resumes from the (durable,
//! always-consistent) journal instead of silently driving corrupted state.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// One registry slot. `None` marks a slot whose tenant is gone — either a
/// creation that failed after reserving the name, or a session that was
/// closed while another thread still held the `Arc`.
pub(crate) type Slot<T> = Arc<Mutex<Option<T>>>;

/// A concurrent `String → T` map (see the module docs for the locking
/// discipline).
#[derive(Debug)]
pub(crate) struct Registry<T> {
    map: RwLock<HashMap<String, Slot<T>>>,
}

impl<T> Registry<T> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            map: RwLock::new(HashMap::new()),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, Slot<T>>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reserves `key` with an empty slot, failing if the key is present.
    /// The caller fills the slot (under its mutex) once construction
    /// succeeds, or removes the reservation on failure via
    /// [`Registry::remove_if`] with this slot (slot-identity-checked, so a
    /// racing close-and-recreate's fresh registration is never removed by
    /// a stale cleanup).
    pub fn reserve(&self, key: &str) -> Option<Slot<T>> {
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        if map.contains_key(key) {
            return None;
        }
        let slot: Slot<T> = Arc::new(Mutex::new(None));
        map.insert(key.to_string(), Arc::clone(&slot));
        Some(slot)
    }

    /// The slot registered under `key`, if any.
    pub fn get(&self, key: &str) -> Option<Slot<T>> {
        self.read().get(key).cloned()
    }

    /// Unregisters `key`, but only while it still maps to `slot` — a caller
    /// racing a close-and-recreate of the same id must not remove someone
    /// else's fresh registration. The tenant itself is *not* dropped here —
    /// the caller empties the slot under its mutex, so laggard requests
    /// holding the `Arc` observe `None` instead of racing a half-dropped
    /// tenant.
    pub fn remove_if(&self, key: &str, slot: &Slot<T>) -> bool {
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        if map.get(key).is_some_and(|s| Arc::ptr_eq(s, slot)) {
            map.remove(key);
            true
        } else {
            false
        }
    }

    /// Number of registered keys (reserved-but-unfilled ones included).
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// All registered keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut out: Vec<String> = self.read().keys().cloned().collect();
        out.sort();
        out
    }
}

/// Locks a slot. Poisoning (a panic inside a session operation) is
/// recovered *by emptying the slot*: the tenant may have been torn
/// mid-mutation, and serving it would silently break the
/// trajectory-determinism and journal-consistency guarantees — dropping it
/// fails safe, because the journal on disk is always consistent and the
/// client can re-create/resume the session from it.
pub(crate) fn lock_slot<T>(slot: &Mutex<Option<T>>) -> MutexGuard<'_, Option<T>> {
    match slot.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            guard.take();
            guard
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_get_remove_roundtrip() {
        let r: Registry<u32> = Registry::new();
        let slot = r.reserve("a").expect("fresh key");
        assert!(r.reserve("a").is_none(), "double reservation must fail");
        *lock_slot(&slot) = Some(7);
        assert_eq!(*lock_slot(&r.get("a").unwrap()), Some(7));
        assert_eq!(r.len(), 1);
        assert_eq!(r.keys(), vec!["a".to_string()]);
        assert!(r.remove_if("a", &slot));
        lock_slot(&slot).take();
        assert!(r.get("a").is_none());
        assert_eq!(r.len(), 0);
        // The name is reusable after removal …
        let fresh = r.reserve("a").unwrap();
        // … and a stale holder of the old slot cannot remove the new one.
        assert!(!r.remove_if("a", &slot));
        assert!(r.get("a").is_some());
        assert!(r.remove_if("a", &fresh));
    }

    #[test]
    fn poisoned_slot_is_emptied_not_served() {
        let r: Registry<u32> = Registry::new();
        let slot = r.reserve("p").unwrap();
        *lock_slot(&slot) = Some(1);
        let s2 = Arc::clone(&slot);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = s2.lock().unwrap();
            panic!("tenant panics mid-mutation");
        }));
        // The torn tenant must not be served; the slot reads as closed.
        assert!(lock_slot(&slot).is_none());
    }

    #[test]
    fn concurrent_mixed_operations_do_not_deadlock() {
        let r: Arc<Registry<u64>> = Arc::new(Registry::new());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let key = format!("k{}", (t * 7 + i) % 16);
                        if let Some(slot) = r.reserve(&key) {
                            *lock_slot(&slot) = Some(t);
                        }
                        if let Some(slot) = r.get(&key) {
                            let _ = lock_slot(&slot).as_ref().map(|v| v + 1);
                        }
                        if i % 5 == 0 {
                            if let Some(slot) = r.get(&key) {
                                let took = lock_slot(&slot).take().is_some();
                                if took {
                                    r.remove_if(&key, &slot);
                                }
                            }
                        }
                        let _ = r.len();
                    }
                });
            }
        });
        assert!(r.len() <= 16);
    }
}
