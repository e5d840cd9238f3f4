//! Bounded exhaustive interleaving models of the wait-free core.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`, where the
//! `flipc_core::sync` facade switches to instrumented atomics and
//! `flipc_loom` explores every schedule of the accesses below (within the
//! preemption bound). The *production* protocol code is what runs —
//! `CounterEngineSide`/`CounterAppSide` and `AppQueue`/`EngineQueue` —
//! not re-implementations.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p flipc-core --release loom_`
//!
//! Models must not spin: every loop below is bounded, because an unbounded
//! retry loop cannot be exhaustively explored.
#![cfg(loom)]

use std::sync::Arc;

use flipc_core::buffer::BufferState;
use flipc_core::commbuf::CommBuffer;
use flipc_core::counter::{CounterAppSide, CounterEngineSide};
use flipc_core::endpoint::{EndpointAddress, EndpointIndex, EndpointType, FlipcNodeId, Importance};
use flipc_core::hist::Histogram;
use flipc_core::layout::Geometry;
use flipc_core::queue::{AppQueue, EngineQueue};
use flipc_core::sync::atomic::{fence, AtomicBool, AtomicU32, Ordering};

/// The paper's no-lost-drop-event guarantee: engine increments racing with
/// the application's `read_and_reset` are never lost or double-counted.
#[test]
fn loom_counter_no_lost_drop_event() {
    flipc_loom::model(|| {
        let drops = Arc::new(AtomicU32::new(0));
        let taken = Arc::new(AtomicU32::new(0));
        let drops2 = drops.clone();
        let engine = flipc_loom::thread::spawn(move || {
            let eng = CounterEngineSide::new(&drops2);
            eng.increment();
            eng.increment();
        });
        let app = CounterAppSide::new(&drops, &taken);
        // One reset concurrent with the increments, one after.
        let first = u64::from(app.read_and_reset());
        engine.join().unwrap();
        let rest = u64::from(app.read_and_reset());
        assert_eq!(first + rest, 2, "a drop event was lost or duplicated");
        assert_eq!(app.read(), 0, "counter did not reset");
    });
}

/// The histogram generalization of the drop-counter guarantee: engine
/// records racing with the application's `harvest` never lose or duplicate
/// a sample across harvests. A two-bucket histogram keeps the state space
/// small; the production `record`/`harvest` code is what runs.
#[test]
fn loom_hist_record_vs_harvest_conserves_samples() {
    flipc_loom::model(|| {
        let h: Arc<Histogram<2>> = Arc::new(Histogram::new());
        let h2 = h.clone();
        let engine = flipc_loom::thread::spawn(move || {
            let rec = h2.recorder();
            rec.record(0); // bucket 0
            rec.record(5); // clamped into bucket 1
        });
        let reader = h.reader();
        // One harvest concurrent with the records, one after.
        let first = reader.harvest();
        engine.join().unwrap();
        let rest = reader.harvest();
        assert_eq!(
            first.count() + rest.count(),
            2,
            "a sample was lost or duplicated across harvests"
        );
        assert_eq!(
            first.buckets[0] + rest.buckets[0],
            1,
            "bucket 0 sample miscounted"
        );
        assert_eq!(first.sum.wrapping_add(rest.sum), 5, "sum drifted");
        assert_eq!(h.snapshot().count(), 0, "harvest did not reset");
    });
}

/// Queue storage shared between the app and engine model threads.
struct Shared {
    release: AtomicU32,
    process: AtomicU32,
    acquire: AtomicU32,
    slots: [AtomicU32; 4],
}

impl Shared {
    fn new() -> Shared {
        Shared {
            release: AtomicU32::new(0),
            process: AtomicU32::new(0),
            acquire: AtomicU32::new(0),
            slots: [
                AtomicU32::new(0),
                AtomicU32::new(0),
                AtomicU32::new(0),
                AtomicU32::new(0),
            ],
        }
    }

    fn app(&self) -> AppQueue<'_> {
        AppQueue::new(&self.release, &self.process, &self.acquire, &self.slots)
    }

    fn engine(&self) -> EngineQueue<'_> {
        EngineQueue::new(&self.release, &self.process, &self.acquire, &self.slots)
    }

    /// Asserts the three-pointer invariant `acquire <= process <= release`.
    ///
    /// Sound from either thread at any point: the loads are made in
    /// ascending pointer order, and each pointer is monotonic, so a stale
    /// earlier load can only under-read — it can never manufacture a
    /// violation that did not occur.
    fn check_invariant(&self) {
        let a = self.acquire.load(Ordering::Relaxed);
        let p = self.process.load(Ordering::Relaxed);
        let r = self.release.load(Ordering::Relaxed);
        assert!(a <= p, "invariant violated: acquire {a} > process {p}");
        assert!(p <= r, "invariant violated: process {p} > release {r}");
    }
}

/// The three-pointer protocol of Figure 3 under every interleaving of an
/// application (release + acquire) and an engine (peek + advance): the
/// pointers never cross, the engine sees releases in FIFO order, and the
/// application gets every processed buffer back in the same order.
#[test]
fn loom_queue_three_pointer_invariant() {
    flipc_loom::model(|| {
        let s = Arc::new(Shared::new());
        let mut app = s.app();
        // Two buffers released before the engine starts (so the engine
        // deterministically has work) ...
        app.release(10).unwrap();
        app.release(20).unwrap();
        let s2 = s.clone();
        let engine = flipc_loom::thread::spawn(move || {
            let eng = s2.engine();
            let mut seen = Vec::new();
            for _ in 0..6 {
                s2.check_invariant();
                if let Some(buf) = eng.peek() {
                    seen.push(buf);
                    eng.advance();
                }
            }
            s2.check_invariant();
            seen
        });
        // ... and a third released concurrently with its processing.
        app.release(30).unwrap();
        let mut got = Vec::new();
        for _ in 0..4 {
            s.check_invariant();
            if let Some(buf) = app.acquire() {
                got.push(buf);
            }
        }
        let seen = engine.join().unwrap();
        // The engine saw a FIFO prefix (always including the two buffers
        // released before it started), never reordered or duplicated.
        let expected = [10u32, 20, 30];
        assert!(
            seen.len() >= 2,
            "engine missed pre-released buffers: {seen:?}"
        );
        assert_eq!(
            seen,
            expected[..seen.len()],
            "engine processed out of order"
        );
        // Post-join drain is race-free and bounded.
        while let Some(buf) = app.acquire() {
            got.push(buf);
        }
        assert_eq!(got, expected[..seen.len()], "app acquired out of order");
        s.check_invariant();
        assert_eq!(
            app.len() as usize,
            3 - seen.len(),
            "released minus acquired must equal the unprocessed remainder"
        );
    });
}

/// `pending_process`/`acquirable` (the paper's two half-empty conditions)
/// never exceed the number of outstanding buffers under any interleaving.
#[test]
fn loom_queue_half_empty_conditions_bounded() {
    flipc_loom::model(|| {
        let s = Arc::new(Shared::new());
        let mut app = s.app();
        app.release(1).unwrap();
        app.release(2).unwrap();
        let s2 = s.clone();
        let engine = flipc_loom::thread::spawn(move || {
            let eng = s2.engine();
            for _ in 0..2 {
                assert!(eng.backlog() <= 2, "backlog exceeds outstanding releases");
                if eng.peek().is_some() {
                    eng.advance();
                }
            }
        });
        for _ in 0..3 {
            let pending = app.pending_process();
            let ready = app.acquirable();
            assert!(pending <= 2, "pending_process {pending} exceeds releases");
            assert!(ready <= 2, "acquirable {ready} exceeds releases");
            let _ = app.acquire();
        }
        engine.join().unwrap();
    });
}

/// The blocked-waiter handshake behind `Flipc::recv_blocking` and
/// `EndpointGroup::recv_any_blocking`, against the engine's delivery.
///
/// The receiver polls the ring once (the poll phase reads `acquirable`
/// and writes nothing), then parks the way the blocking receives do: raise
/// `EP_WAITERS`, fence, re-check the ring, and sleep only if the re-check
/// is empty. The engine delivers the way `Engine::deliver` does: advance
/// the process pointer, fence, load `EP_WAITERS`, and post a wake only if
/// it is nonzero. No schedule may park the receiver with the message
/// delivered and no wake posted: that is a lost wakeup, and the receiver
/// would sleep to its timeout.
///
/// The steps run on the production `CommBuffer::adjust_waiters`/`waiters`
/// and queue views. `flipc-loom` explores sequentially consistent
/// interleavings only, so this model checks the *order* of the steps; it
/// cannot see the `SeqCst` fences, which exist so that real hardware keeps
/// the store-then-load order that the model takes for granted. Arming
/// after the re-check, or dropping the re-check, fails the model.
#[test]
fn loom_blocking_receive_never_parks_past_a_delivery() {
    flipc_loom::model(|| {
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let ep = cb
            .alloc_endpoint(EndpointType::Receive, Importance::Normal)
            .unwrap()
            .0;
        let buf = cb.alloc_buffer().unwrap().index();
        cb.app_queue(ep).unwrap().release(buf).unwrap();
        let woken = Arc::new(AtomicBool::new(false));

        let (cb2, woken2) = (cb.clone(), woken.clone());
        let engine = flipc_loom::thread::spawn(move || {
            let q = cb2.engine_queue(ep).unwrap();
            let b = q.peek().expect("a receive buffer is queued");
            let src = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
            cb2.header(b).store(src, BufferState::Processed);
            q.advance();
            fence(Ordering::SeqCst);
            if cb2.waiters(ep).unwrap() > 0 {
                woken2.store(true, Ordering::Release);
            }
        });

        let ready = |cb: &CommBuffer| cb.app_queue(ep).unwrap().acquirable() != 0;
        let parked = if ready(&cb) {
            false
        } else {
            cb.adjust_waiters(ep, 1).unwrap();
            fence(Ordering::SeqCst);
            let found = ready(&cb);
            // (The receiver would sleep here when `found` is false, and
            // lower the count again when it resumes.)
            !found
        };
        engine.join().unwrap();
        if parked {
            assert!(
                woken.load(Ordering::Acquire),
                "receiver parked with a message delivered and no wake posted"
            );
        }
    });
}
