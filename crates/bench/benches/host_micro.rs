//! H1a: host microbenchmarks of the real wait-free primitives.
//!
//! Criterion timings of the data structures the paper's synchronization
//! design rests on: the three-pointer endpoint queue, the two-location
//! read-and-reset counter, the TAS lock, the SPSC wire ring, and the
//! buffer pool — all measured single-threaded (the pure instruction cost
//! of each wait-free operation; the coherence costs are what the simulated
//! Paragon model charges for). One pair adds a second writer thread: a
//! write to a line another thread keeps writing vs a write to a padded,
//! private line — the paper's layout lesson on modern hardware. The
//! `engine/idle_pass` rows time one engine pass with nothing to move, at
//! three endpoint-table sizes.
//!
//! The end-to-end message path is timed by the wall-clock benchmark in
//! `perfbench/` (`pingpong_loopback`), not here.

#![allow(missing_docs)] // criterion macros generate undocumented entry points

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointAddress, EndpointIndex, EndpointType, FlipcNodeId, Importance};
use flipc_core::layout::Geometry;
use flipc_core::wait::WaitRegistry;
use flipc_core::Flipc;
use flipc_engine::{fabric, spsc, Engine, EngineConfig};

fn queue_ops(c: &mut Criterion) {
    let cb = CommBuffer::new(Geometry::small()).expect("commbuf");
    let (ep, _) = cb
        .alloc_endpoint(EndpointType::Send, Importance::Normal)
        .expect("endpoint");
    c.bench_function("queue/release+process+acquire", |b| {
        let mut app = cb.app_queue(ep).expect("app queue");
        let eng = cb.engine_queue(ep).expect("engine queue");
        b.iter(|| {
            app.release(black_box(3)).expect("release");
            black_box(eng.peek());
            eng.advance();
            black_box(app.acquire());
        })
    });
}

fn counter_ops(c: &mut Criterion) {
    let cb = CommBuffer::new(Geometry::small()).expect("commbuf");
    let (ep, _) = cb
        .alloc_endpoint(EndpointType::Receive, Importance::Normal)
        .expect("endpoint");
    c.bench_function("counter/increment+read_and_reset", |b| {
        let eng = cb.drops_engine(ep).expect("engine side");
        let app = cb.drops_app(ep).expect("app side");
        b.iter(|| {
            eng.increment();
            black_box(app.read_and_reset());
        })
    });
}

fn lock_ops(c: &mut Criterion) {
    let cb = CommBuffer::new(Geometry::small()).expect("commbuf");
    let (ep, _) = cb
        .alloc_endpoint(EndpointType::Send, Importance::Normal)
        .expect("endpoint");
    c.bench_function("lock/uncontended_tas_pair", |b| {
        let lock = cb.endpoint_lock(ep).expect("lock");
        b.iter(|| {
            let g = lock.lock();
            black_box(&g);
        })
    });
}

fn spsc_ops(c: &mut Criterion) {
    c.bench_function("spsc/push+pop", |b| {
        let (mut tx, mut rx) = spsc::ring::<u64>(64);
        b.iter(|| {
            tx.push(black_box(7)).expect("push");
            black_box(rx.pop());
        })
    });
}

fn buffer_pool(c: &mut Criterion) {
    let cb = CommBuffer::new(Geometry::small()).expect("commbuf");
    c.bench_function("pool/alloc+free", |b| {
        b.iter(|| {
            let t = cb.alloc_buffer().expect("alloc");
            cb.free_buffer(black_box(t));
        })
    });
}

fn api_send_path(c: &mut Criterion) {
    // The full library send path against a hand-pumped engine: the
    // unlocked variant the paper's measurements use vs the TAS-locked one.
    let cb = Arc::new(CommBuffer::new(Geometry::small()).expect("commbuf"));
    let f = Flipc::attach(cb, FlipcNodeId(0), WaitRegistry::new());
    let ep = f
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .expect("ep");
    let dest = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
    let pump = |f: &Flipc, idx: EndpointIndex| {
        let q = f.commbuf().engine_queue(idx).expect("queue");
        while let Some(b) = q.peek() {
            f.commbuf()
                .header(b)
                .set_state(flipc_core::BufferState::Processed);
            q.advance();
        }
    };
    c.bench_function("api/send_unlocked+reclaim", |b| {
        b.iter(|| {
            let t = f.buffer_allocate().expect("buffer");
            f.send_unlocked(&ep, t, dest).expect("send");
            pump(&f, ep.index());
            let back = f
                .reclaim_send_unlocked(&ep)
                .expect("reclaim")
                .expect("token");
            f.buffer_free(back);
        })
    });
    c.bench_function("api/send_locked+reclaim", |b| {
        b.iter(|| {
            let t = f.buffer_allocate().expect("buffer");
            f.send(&ep, t, dest).expect("send");
            pump(&f, ep.index());
            let back = f.reclaim_send(&ep).expect("reclaim").expect("token");
            f.buffer_free(back);
        })
    });
}

fn engine_idle_pass(c: &mut Criterion) {
    // One allocated Normal send endpoint with nothing queued, on a
    // loopback port: the pass's cost is the engine's fixed overhead, which
    // should not grow with the slots nobody uses.
    for endpoints in [1u16, 8, 128] {
        let geo = Geometry {
            endpoints,
            ..Geometry::small()
        };
        let cb = Arc::new(CommBuffer::new(geo).expect("commbuf"));
        cb.alloc_endpoint(EndpointType::Send, Importance::Normal)
            .expect("endpoint");
        let port = fabric(1, 64).pop().expect("port");
        let mut engine = Engine::new(
            cb,
            Box::new(port),
            WaitRegistry::new(),
            EngineConfig::default(),
        );
        c.bench_function(&format!("engine/idle_pass/{endpoints}_slots"), |b| {
            b.iter(|| engine.iterate())
        });
    }
}

fn false_sharing_microbench(c: &mut Criterion) {
    // The paper's layout lesson on modern hardware: two threads writing
    // adjacent words (one line) vs padded words (separate lines). On a
    // single-core host the contrast is muted — reported for completeness.
    use flipc_core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    #[repr(align(64))]
    struct Padded(AtomicU64);

    struct Shared {
        a: AtomicU64,
        b: AtomicU64,
        pa: Padded,
        pb: Padded,
        stop: AtomicBool,
    }
    let sh = Arc::new(Shared {
        a: AtomicU64::new(0),
        b: AtomicU64::new(0),
        pa: Padded(AtomicU64::new(0)),
        pb: Padded(AtomicU64::new(0)),
        stop: AtomicBool::new(false),
    });

    let sh2 = sh.clone();
    let writer = std::thread::spawn(move || {
        while !sh2.stop.load(Ordering::Acquire) {
            sh2.b.fetch_add(1, Ordering::Relaxed);
            sh2.pb.0.fetch_add(1, Ordering::Relaxed);
        }
    });

    c.bench_function("layout/false_shared_write", |bench| {
        bench.iter(|| sh.a.fetch_add(black_box(1), Ordering::Relaxed))
    });
    c.bench_function("layout/padded_write", |bench| {
        bench.iter(|| sh.pa.0.fetch_add(black_box(1), Ordering::Relaxed))
    });

    sh.stop.store(true, Ordering::Release);
    writer.join().expect("writer");
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = queue_ops, counter_ops, lock_ops, spsc_ops, buffer_pool, api_send_path,
        engine_idle_pass, false_sharing_microbench
}
criterion_main!(benches);
