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
//! A blocking receive does not park on its first empty poll. It first
//! climbs an *idle ladder* over the communication buffer: it polls the
//! endpoint rings with loads alone, spinning between the first
//! [`SPINS_BEFORE_YIELD`] polls and yielding the CPU between later ones,
//! for at most one sleep-and-wake. Only then does it register here and
//! park. A sleep-and-wake costs what the host's scheduler makes it cost,
//! so the bound is measured, not configured: each wait that slept and was
//! signalled folds the time from [`WaitCell::notify`] to the waiter running
//! again into a process-wide `WakeEstimate`. Polling for at most that
//! long never costs more than twice the better of polling and parking
//! (competitive spinning), and a reply that lands inside the poll phase
//! never enters the kernel, takes the registry's mutex or allocates a
//! cell. Before the first sample the bound is zero and a receive parks at
//! once.
//!
//! Everything here is off the fast path: polling receives never touch it.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::endpoint::EndpointIndex;
use crate::sync::atomic::{AtomicU64, Ordering};

/// Idle polls that spin before each further poll yields the CPU: the
/// engine thread's idle loop and a blocking receive's poll phase share it.
/// Spinning keeps a reply that is a few hundred nanoseconds away from
/// paying a system call; yielding after that lets a thread that shares the
/// CPU, such as the engine, run.
pub const SPINS_BEFORE_YIELD: u32 = 16;

/// How a [`WaitCell::wait`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Waited {
    /// The cell was already signalled when the wait began: the thread
    /// never slept.
    Presignalled,
    /// The thread slept and was signalled; the duration runs from the
    /// signal to the thread running again.
    Woken(Duration),
    /// The timeout elapsed with the cell unsignalled.
    TimedOut,
}

/// A smoothed estimate of one sleep-and-wake: the bound on a blocking
/// receive's poll phase.
///
/// Each wait that slept and was signalled is a sample, folded in with
/// gain 1/8 (the smoothed round-trip time gain of RFC 6298). A wait that
/// never slept or that timed out measured no wake and leaves the estimate
/// as it is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct WakeEstimate {
    ns: u64,
}

impl WakeEstimate {
    /// Folds in the outcome of one wait.
    pub(crate) fn observe(self, waited: Waited) -> WakeEstimate {
        let Waited::Woken(wake) = waited else {
            return self;
        };
        let sample = u128::from(u64::try_from(wake.as_nanos()).unwrap_or(u64::MAX));
        // new = old + (sample - old) / 8, computed without going negative.
        let ns = (u128::from(self.ns) * 7 + sample) / 8;
        WakeEstimate { ns: ns as u64 }
    }

    /// How long a receive with `remaining` time left may poll before it
    /// parks: one estimated sleep-and-wake, never past the timeout.
    pub(crate) fn poll_bound(self, remaining: Duration) -> Duration {
        Duration::from_nanos(self.ns).min(remaining)
    }
}

/// The process-wide [`WakeEstimate`], in nanoseconds. The wake cost belongs
/// to the host's scheduler, not to a node, so one estimate serves every
/// communication buffer, and no set-up allocation carries it.
static WAKE_NS: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// Test seam: a poll bound that replaces the shared estimate on this
    /// thread, so a test can place a reply inside or after the poll phase
    /// without racing the other tests that share the process.
    static PINNED_BOUND: std::cell::Cell<Option<Duration>> =
        const { std::cell::Cell::new(None) };
}

/// Test seam guard: pins this thread's poll bound until dropped.
#[cfg(test)]
pub(crate) struct PinnedBound;

#[cfg(test)]
impl PinnedBound {
    pub(crate) fn new(bound: Duration) -> PinnedBound {
        PINNED_BOUND.set(Some(bound));
        PinnedBound
    }
}

#[cfg(test)]
impl Drop for PinnedBound {
    fn drop(&mut self) {
        PINNED_BOUND.set(None);
    }
}

/// The poll bound for a blocking receive with `remaining` time left.
pub(crate) fn poll_bound(remaining: Duration) -> Duration {
    #[cfg(test)]
    if let Some(pinned) = PINNED_BOUND.get() {
        return pinned.min(remaining);
    }
    // ordering: the estimate publishes no other data; a stale read only
    // shortens or lengthens one poll phase.
    WakeEstimate {
        ns: WAKE_NS.load(Ordering::Relaxed),
    }
    .poll_bound(remaining)
}

/// Folds the outcome of a receiver's wait into the process-wide estimate.
/// Concurrent waiters may overwrite each other's fold; each is one sample
/// of the same quantity, so a lost one costs nothing.
pub(crate) fn observe(waited: Waited) {
    if let Waited::Woken(_) = waited {
        // ordering: as in `poll_bound`, the word carries only itself.
        let old = WakeEstimate {
            ns: WAKE_NS.load(Ordering::Relaxed),
        };
        WAKE_NS.store(old.observe(waited).ns, Ordering::Relaxed);
    }
}

/// A one-per-blocked-thread wait cell.
///
/// `notify` leaves a permit so a wake that races ahead of the `wait` is not
/// lost. The permit carries the instant it was posted, so a waiter that
/// slept can tell how long its wake took.
pub struct WaitCell {
    signalled: Mutex<Option<Instant>>,
    cv: Condvar,
}

impl WaitCell {
    /// Creates an unsignaled cell.
    pub fn new() -> Arc<WaitCell> {
        Arc::new(WaitCell {
            signalled: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Signals the cell, waking a current or future waiter.
    pub fn notify(&self) {
        let mut signalled = self.signalled.lock().expect("wait cell poisoned");
        signalled.get_or_insert_with(Instant::now);
        self.cv.notify_all();
    }

    /// Blocks until signaled or `timeout` elapses; consumes the permit.
    pub fn wait(&self, timeout: Duration) -> Waited {
        let deadline = Instant::now() + timeout;
        let mut signalled = self.signalled.lock().expect("wait cell poisoned");
        if signalled.take().is_some() {
            return Waited::Presignalled;
        }
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Waited::TimedOut;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(signalled, deadline - now)
                .expect("wait cell poisoned");
            signalled = guard;
            if let Some(at) = signalled.take() {
                return Waited::Woken(Instant::now().saturating_duration_since(at));
            }
        }
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
        // Signalled before the wait began: the thread never slept, so the
        // wait measured no wake.
        assert_eq!(c.wait(Duration::from_millis(1)), Waited::Presignalled);
        // Permit consumed.
        assert_eq!(c.wait(Duration::from_millis(1)), Waited::TimedOut);
    }

    #[test]
    fn wait_times_out() {
        let c = WaitCell::new();
        let start = Instant::now();
        assert_eq!(c.wait(Duration::from_millis(10)), Waited::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn cross_thread_wake() {
        let c = WaitCell::new();
        let c2 = c.clone();
        let t = thread::spawn(move || c2.wait(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(5));
        c.notify();
        assert_ne!(t.join().unwrap(), Waited::TimedOut);
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
        assert_ne!(a.wait(Duration::from_millis(50)), Waited::TimedOut);
        assert_eq!(b.wait(Duration::from_millis(5)), Waited::TimedOut);
    }

    #[test]
    fn unregister_removes_cell() {
        let r = WaitRegistry::new();
        let a = WaitCell::new();
        r.register(EndpointIndex(3), &a);
        r.unregister(EndpointIndex(3), &a);
        assert_eq!(r.waiter_count(EndpointIndex(3)), 0);
        r.wake(EndpointIndex(3));
        assert_eq!(a.wait(Duration::from_millis(5)), Waited::TimedOut);
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
        assert_ne!(cell.wait(Duration::from_millis(50)), Waited::TimedOut);
        for ep in [4u16, 5, 6] {
            r.unregister(EndpointIndex(ep), &cell);
            assert_eq!(r.waiter_count(EndpointIndex(ep)), 0);
        }
    }

    #[test]
    fn a_wait_that_slept_measures_its_wake() {
        // The waiter cannot announce that it sleeps, so give it ever longer
        // to get there; a notify that still lands first only makes that
        // attempt presignalled.
        for attempt in 0..5 {
            let c = WaitCell::new();
            let c2 = c.clone();
            let (started, start) = std::sync::mpsc::channel();
            let t = thread::spawn(move || {
                started.send(()).unwrap();
                c2.wait(Duration::from_secs(5))
            });
            start.recv().unwrap();
            thread::sleep(Duration::from_millis(10 << attempt));
            let before = Instant::now();
            c.notify();
            let waited = t.join().unwrap();
            let bound = before.elapsed();
            match waited {
                Waited::Woken(wake) => {
                    assert!(wake <= bound, "{wake:?} > {bound:?}");
                    return;
                }
                Waited::Presignalled => continue,
                Waited::TimedOut => panic!("a notified wait timed out"),
            }
        }
        panic!("the waiter never slept before its notify");
    }

    #[test]
    fn estimate_folds_wakes_with_gain_one_eighth() {
        let e = WakeEstimate::default();
        assert_eq!(e.poll_bound(Duration::from_secs(1)), Duration::ZERO);
        let e = e.observe(Waited::Woken(Duration::from_nanos(8_000)));
        assert_eq!(e.ns, 1_000);
        let e = e.observe(Waited::Woken(Duration::from_nanos(9_000)));
        assert_eq!(e.ns, 2_000);
        // A long run of one sample converges on it.
        let e = (0..200).fold(e, |e, _| {
            e.observe(Waited::Woken(Duration::from_nanos(6_000)))
        });
        assert!((5_990..=6_000).contains(&e.ns), "{}", e.ns);
        // Falls with the same gain.
        let before = e.ns;
        assert_eq!(e.observe(Waited::Woken(Duration::ZERO)).ns, before * 7 / 8);
    }

    #[test]
    fn estimate_ignores_waits_that_measured_no_wake() {
        let e = WakeEstimate::default().observe(Waited::Woken(Duration::from_nanos(800)));
        assert_eq!(e.ns, 100);
        assert_eq!(e.observe(Waited::Presignalled), e);
        assert_eq!(e.observe(Waited::TimedOut), e);
        // An absurd wake saturates rather than wrapping.
        let huge = e.observe(Waited::Woken(Duration::MAX));
        assert!(huge.ns >= u64::MAX / 8);
    }

    #[test]
    fn poll_bound_never_passes_the_timeout() {
        let e = WakeEstimate::default().observe(Waited::Woken(Duration::from_micros(80)));
        assert_eq!(
            e.poll_bound(Duration::from_secs(1)),
            Duration::from_micros(10)
        );
        assert_eq!(
            e.poll_bound(Duration::from_micros(3)),
            Duration::from_micros(3)
        );
        assert_eq!(e.poll_bound(Duration::ZERO), Duration::ZERO);
    }
}
