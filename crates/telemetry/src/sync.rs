//! Poison-recovering lock acquisition — the one blessed way to take a
//! `Mutex`/`RwLock` on shared state in this workspace.
//!
//! A poisoned lock means some other thread panicked while holding the
//! guard. For the state these helpers protect (metric registries,
//! event rings, route tables, node state) every mutation is small and
//! self-consistent — there is no multi-step invariant a mid-panic
//! writer could leave half-applied — so propagating the poison as a
//! second panic only turns one thread's failure into a process-wide
//! cascade. The helpers recover the guard and let the caller proceed.
//!
//! Every `clippy.toml` in the workspace disallows `Mutex::lock`,
//! `RwLock::read` and `RwLock::write` and points here.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquire `m`, recovering the guard if a previous holder panicked.
#[expect(clippy::disallowed_methods, reason = "recovers the poisoned guard")]
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Acquire `l` for reading, recovering the guard on poison.
#[expect(clippy::disallowed_methods, reason = "recovers the poisoned guard")]
pub fn read_unpoisoned<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Acquire `l` for writing, recovering the guard on poison.
#[expect(clippy::disallowed_methods, reason = "recovers the poisoned guard")]
pub fn write_unpoisoned<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn mutex_recovers_after_holder_panics() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            #[expect(clippy::disallowed_methods, reason = "poisons the lock on purpose")]
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 7);
        *lock_unpoisoned(&m) = 8;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }

    #[test]
    fn rwlock_recovers_after_writer_panics() {
        let l = Arc::new(RwLock::new(1u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            #[expect(clippy::disallowed_methods, reason = "poisons the lock on purpose")]
            let _guard = l2.write().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(l.is_poisoned());
        assert_eq!(*read_unpoisoned(&l), 1);
        *write_unpoisoned(&l) = 2;
        assert_eq!(*read_unpoisoned(&l), 2);
    }
}
