//! The workspace's one lock poison policy: a lock poisoned by a panic is
//! recovered, never propagated.
//!
//! Engine panics are survivable by design — the wire server
//! `catch_unwind`s them, and [`crate::Connection`]'s drop path and the
//! harness scheduler's finish guard lock during unwinding. The engine, the
//! application corpus, the harness scheduler and the wire server therefore
//! take their `std::sync` locks through here, so a panicking holder never
//! turns every later access into a second panic.

use std::sync::{
    Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};
use std::time::{Duration, Instant};

fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Lock `mutex`, recovering it if poisoned.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    recover(mutex.lock())
}

/// Read-latch `lock`, recovering it if poisoned.
pub fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    recover(lock.read())
}

/// Write-latch `lock`, recovering it if poisoned.
pub fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    recover(lock.write())
}

/// [`Condvar::wait_while`] that keeps waiting through poison: returns only
/// once `condition` is false.
pub fn wait_while<'a, T, F>(
    cv: &Condvar,
    mut guard: MutexGuard<'a, T>,
    mut condition: F,
) -> MutexGuard<'a, T>
where
    F: FnMut(&mut T) -> bool,
{
    loop {
        // std returns early (condition unchecked) on a poisoned wakeup.
        match cv.wait_while(guard, &mut condition) {
            Ok(guard) => return guard,
            Err(poisoned) => guard = poisoned.into_inner(),
        }
    }
}

/// [`Condvar::wait_timeout_while`] that keeps waiting through poison until
/// `condition` is false or `timeout` has elapsed in total. The result
/// reports a timeout iff the condition still held at the deadline.
pub fn wait_timeout_while<'a, T, F>(
    cv: &Condvar,
    mut guard: MutexGuard<'a, T>,
    timeout: Duration,
    mut condition: F,
) -> (MutexGuard<'a, T>, WaitTimeoutResult)
where
    F: FnMut(&mut T) -> bool,
{
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match cv.wait_timeout_while(guard, left, &mut condition) {
            Ok(done) => return done,
            Err(poisoned) => guard = poisoned.into_inner().0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Panic on another thread while holding a guard taken by `hold`.
    fn poison<L: Send + Sync + 'static>(lock: &Arc<L>, hold: fn(&L)) {
        let l = Arc::clone(lock);
        assert!(thread::spawn(move || hold(&l)).join().is_err());
    }

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let handle = thread::spawn(move || {
            let (m, cv) = &*p2;
            *lock(m) = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let ready = wait_while(cv, lock(m), |ready| !*ready);
        assert!(*ready);
        handle.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(0u32);
        let cv = Condvar::new();
        let start = Instant::now();
        let (mut g, result) =
            wait_timeout_while(&cv, lock(&m), Duration::from_millis(20), |_| true);
        assert!(result.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(20));
        // The guard is still usable after the timed-out wait.
        *g += 1;
        assert_eq!(*g, 1);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(5);
        {
            let r1 = read(&l);
            let r2 = read(&l);
            assert_eq!((*r1, *r2), (5, 5));
        }
        *write(&l) += 1;
        assert_eq!(*read(&l), 6);
    }

    #[test]
    fn poisoned_mutex_is_recovered() {
        let m = Arc::new(Mutex::new(7));
        poison(&m, |m| {
            let _g = m.lock();
            panic!("poison the mutex");
        });
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
    }

    #[test]
    fn poisoned_rwlock_is_recovered() {
        let l = Arc::new(RwLock::new(7));
        poison(&l, |l| {
            let _g = l.write();
            panic!("poison the rwlock");
        });
        assert!(l.is_poisoned());
        assert_eq!(*read(&l), 7);
        *write(&l) += 1;
        assert_eq!(*read(&l), 8);
    }

    #[test]
    fn condvar_waits_survive_a_poisoned_mutex() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        poison(&pair, |(m, _)| {
            let _g = m.lock();
            panic!("poison the mutex");
        });
        // A bumper can take the lock only once this thread parks, so each
        // wakeup below returns through the poisoned path.
        let bump = || {
            let p = Arc::clone(&pair);
            thread::spawn(move || {
                *lock(&p.0) += 1;
                p.1.notify_all();
            })
        };
        let (m, cv) = &*pair;
        let g = lock(m);
        let first = bump();
        let g = wait_while(cv, g, |n| *n < 1);
        let second = bump();
        let (g, result) = wait_timeout_while(cv, g, Duration::from_secs(60), |n| *n < 2);
        assert_eq!(*g, 2);
        assert!(!result.timed_out());
        drop(g);
        first.join().unwrap();
        second.join().unwrap();
    }
}
