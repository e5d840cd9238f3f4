//! Blocking-receive support: the kernel's only role on the messaging path.
//!
//! In FLIPC "the operating system kernel is involved only in synchronization
//! actions that cannot be directly accomplished via state in the
//! communication buffer" — i.e. putting a thread to sleep and waking it on
//! message arrival. The engine never upcalls into the application (the
//! paper rejects interrupting upcalls for real-time environments); instead
//! a blocked receiver registers a wait cell, the application-side waiter
//! count in the endpoint record tells the engine a wakeup is wanted, and
//! the engine posts the wake through this registry (standing in for the
//! kernel). The awakened thread is then *presented to the scheduler* — in
//! the host implementation that is the OS scheduler. This registry is the
//! paper's real-time semaphore option on the host; a wake signals every
//! waiter on the endpoint, in no importance order.
//!
//! Everything here is off the fast path: polling receives never touch it.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::endpoint::EndpointIndex;

/// A one-per-blocked-thread wait cell.
///
/// `notify` leaves a permit so a wake that races ahead of the `wait` is not
/// lost.
pub struct WaitCell {
    state: Mutex<bool>,
    cv: Condvar,
}

impl WaitCell {
    /// Creates an unsignaled cell.
    pub fn new() -> Arc<WaitCell> {
        Arc::new(WaitCell {
            state: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    /// Signals the cell, waking a current or future waiter.
    pub fn notify(&self) {
        let mut signaled = self.state.lock().expect("wait cell poisoned");
        *signaled = true;
        self.cv.notify_all();
    }

    /// Blocks until signaled or `timeout` elapses; consumes the permit.
    /// Returns `true` if signaled.
    pub fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut signaled = self.state.lock().expect("wait cell poisoned");
        while !*signaled {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, res) = self
                .cv
                .wait_timeout(signaled, deadline - now)
                .expect("wait cell poisoned");
            signaled = guard;
            if res.timed_out() && !*signaled {
                return false;
            }
        }
        *signaled = false;
        true
    }
}

/// Registry connecting endpoints to blocked threads; shared between the
/// application interface layer and the messaging engine (playing the
/// kernel's wakeup role).
#[derive(Default)]
pub struct WaitRegistry {
    cells: Mutex<HashMap<u16, Vec<Arc<WaitCell>>>>,
}

impl WaitRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<WaitRegistry> {
        Arc::new(WaitRegistry::default())
    }

    /// Registers `cell` to be notified when a message arrives on `ep`.
    pub fn register(&self, ep: EndpointIndex, cell: &Arc<WaitCell>) {
        self.cells
            .lock()
            .expect("wait registry poisoned")
            .entry(ep.0)
            .or_default()
            .push(cell.clone());
    }

    /// Removes `cell`'s registration on `ep` (after a wait completes or
    /// times out).
    pub fn unregister(&self, ep: EndpointIndex, cell: &Arc<WaitCell>) {
        let mut map = self.cells.lock().expect("wait registry poisoned");
        if let Some(v) = map.get_mut(&ep.0) {
            v.retain(|c| !Arc::ptr_eq(c, cell));
            if v.is_empty() {
                map.remove(&ep.0);
            }
        }
    }

    /// Wakes every thread currently waiting on `ep`. Called by the engine
    /// (through the node's wake hook) when it delivers into `ep` and the
    /// endpoint's waiter count is nonzero.
    pub fn wake(&self, ep: EndpointIndex) {
        let cells: Vec<Arc<WaitCell>> = self
            .cells
            .lock()
            .expect("wait registry poisoned")
            .get(&ep.0)
            .map(|v| v.to_vec())
            .unwrap_or_default();
        for c in cells {
            c.notify();
        }
    }

    /// Number of registered waiters on `ep` (for tests and introspection).
    pub fn waiter_count(&self, ep: EndpointIndex) -> usize {
        self.cells
            .lock()
            .expect("wait registry poisoned")
            .get(&ep.0)
            .map_or(0, |v| v.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn pre_signaled_cell_does_not_block() {
        let c = WaitCell::new();
        c.notify();
        assert!(c.wait(Duration::from_millis(1)));
        // Permit consumed.
        assert!(!c.wait(Duration::from_millis(1)));
    }

    #[test]
    fn wait_times_out() {
        let c = WaitCell::new();
        let start = Instant::now();
        assert!(!c.wait(Duration::from_millis(10)));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn cross_thread_wake() {
        let c = WaitCell::new();
        let c2 = c.clone();
        let t = thread::spawn(move || c2.wait(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(5));
        c.notify();
        assert!(t.join().unwrap());
    }

    #[test]
    fn registry_wakes_only_registered_endpoint() {
        let r = WaitRegistry::new();
        let a = WaitCell::new();
        let b = WaitCell::new();
        r.register(EndpointIndex(1), &a);
        r.register(EndpointIndex(2), &b);
        assert_eq!(r.waiter_count(EndpointIndex(1)), 1);
        r.wake(EndpointIndex(1));
        assert!(a.wait(Duration::from_millis(50)));
        assert!(!b.wait(Duration::from_millis(5)));
    }

    #[test]
    fn unregister_removes_cell() {
        let r = WaitRegistry::new();
        let a = WaitCell::new();
        r.register(EndpointIndex(3), &a);
        r.unregister(EndpointIndex(3), &a);
        assert_eq!(r.waiter_count(EndpointIndex(3)), 0);
        r.wake(EndpointIndex(3));
        assert!(!a.wait(Duration::from_millis(5)));
    }

    #[test]
    fn one_cell_may_wait_on_many_endpoints() {
        // The endpoint-group blocking pattern: one cell registered on every
        // member.
        let r = WaitRegistry::new();
        let cell = WaitCell::new();
        for ep in [4u16, 5, 6] {
            r.register(EndpointIndex(ep), &cell);
        }
        r.wake(EndpointIndex(5));
        assert!(cell.wait(Duration::from_millis(50)));
        for ep in [4u16, 5, 6] {
            r.unregister(EndpointIndex(ep), &cell);
            assert_eq!(r.waiter_count(EndpointIndex(ep)), 0);
        }
    }
}
