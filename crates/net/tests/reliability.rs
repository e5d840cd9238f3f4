//! Robustness suite: the unmodified engine over a misbehaving network.
//!
//! Two real [`flipc_engine::engine::Engine`]s run over [`NetTransport`]s
//! whose links are wrapped in seeded [`FaultInjector`]s. Everything is
//! deterministic: the fault schedule comes from a seed, and the
//! retransmit timers from a [`ManualClock`] advanced by the test loop —
//! a failure here replays identically every run.
//!
//! The property under test is the engine contract itself: despite
//! injected loss, duplication, and reordering, the application observes
//! ordered, loss-free delivery, and the reliability layer's memory stays
//! bounded (the retransmit ring is capped by the window, the timeout by
//! the backoff cap).

use std::sync::Arc;

use flipc_core::api::Flipc;
use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointType, FlipcNodeId, Importance};
use flipc_core::layout::Geometry;
use flipc_core::wait::WaitRegistry;
use flipc_engine::engine::{Engine, EngineConfig};
use flipc_net::{
    FaultConfig, FaultInjector, ManualClock, MemHub, NetConfig, NetStats, NetTransport,
};

struct NetWorld {
    apps: Vec<Flipc>,
    engines: Vec<Engine>,
    stats: Vec<Arc<NetStats>>,
    clock: ManualClock,
}

/// Two engine-driven nodes joined by fault-injected in-memory links.
/// Each direction gets its own deterministic fault stream (seed, seed+1).
fn world(cfg: NetConfig, fault: FaultConfig, seed: u64) -> NetWorld {
    let hub = MemHub::new(2, 4096);
    let clock = ManualClock::new();
    let mut apps = Vec::new();
    let mut engines = Vec::new();
    let mut stats = Vec::new();
    for i in 0..2u16 {
        let node = FlipcNodeId(i);
        let other = FlipcNodeId(1 - i);
        let link = FaultInjector::new(hub.link(node), fault, seed + i as u64);
        let transport = NetTransport::new(node, &[other], link, clock.clone(), cfg);
        stats.push(transport.stats());
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let registry = WaitRegistry::new();
        apps.push(Flipc::attach(cb.clone(), node, registry.clone()));
        engines.push(Engine::new(
            cb,
            Box::new(transport),
            registry,
            EngineConfig::default(),
        ));
    }
    NetWorld {
        apps,
        engines,
        stats,
        clock,
    }
}

impl NetWorld {
    /// One deterministic step: advance time, run both event loops.
    fn pump(&mut self, ticks: u64) {
        self.clock.advance(ticks);
        for e in &mut self.engines {
            e.iterate();
        }
    }
}

const MESSAGES: usize = 120;

/// Drives `MESSAGES` messages node 0 → node 1 through the full
/// application API while the network misbehaves, and asserts the
/// application never sees loss, reordering, or duplication.
fn ordered_loss_free_delivery(fault: FaultConfig, seed: u64) -> NetWorld {
    let cfg = NetConfig {
        window: 8,
        reorder_window: 32,
        rto: 2_000,
        rto_max: 16_000,
        ..NetConfig::default()
    };
    let mut w = world(cfg, fault, seed);
    let tx = w.apps[0]
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .unwrap();
    let rx = w.apps[1]
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .unwrap();
    let dest = w.apps[1].address(&rx);

    let mut sent = 0usize;
    let mut outstanding = 0usize; // sent, not yet reclaimed
    let mut provided = 0usize; // receive buffers queued, not yet consumed
    let mut received: Vec<u8> = Vec::new();
    let mut idle_guard = 0u32;
    while received.len() < MESSAGES {
        // Receiver: keep the ring topped up so the engine never discards
        // (more provided buffers than frames that can arrive in one pump).
        while provided < 12 {
            let Ok(b) = w.apps[1].buffer_allocate() else {
                break;
            };
            w.apps[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
            provided += 1;
        }
        // Sender: bounded pipelining through the optimistic send path.
        while sent < MESSAGES && outstanding < 8 {
            let mut t = w.apps[0].buffer_allocate().unwrap();
            w.apps[0].payload_mut(&mut t)[0] = sent as u8;
            match w.apps[0].send(&tx, t, dest) {
                Ok(_) => {
                    sent += 1;
                    outstanding += 1;
                }
                Err(r) => {
                    // Send ring momentarily full: put the buffer back and
                    // let the engine drain.
                    w.apps[0].buffer_free(r.token);
                    break;
                }
            }
        }
        w.pump(500);
        while let Ok(Some(b)) = w.apps[0].reclaim_send(&tx) {
            w.apps[0].buffer_free(b);
            outstanding -= 1;
        }
        while let Ok(Some(got)) = w.apps[1].recv(&rx) {
            received.push(w.apps[1].payload(&got.token)[0]);
            w.apps[1].buffer_free(got.token);
            provided -= 1;
        }
        idle_guard += 1;
        assert!(
            idle_guard < 100_000,
            "delivery stalled: {}/{MESSAGES} after {idle_guard} pumps",
            received.len()
        );
    }

    let expect: Vec<u8> = (0..MESSAGES).map(|i| i as u8).collect();
    assert_eq!(received, expect, "application-visible order must be exact");
    assert_eq!(
        w.apps[1].drops_reset(&rx).unwrap(),
        0,
        "no application-visible loss"
    );
    // Let the final acks drain, then the rings must be empty.
    for _ in 0..50 {
        w.pump(2_000);
    }
    let s0 = w.stats[0].snapshot();
    assert_eq!(s0.paths[0].in_flight, 0, "all frames acknowledged");
    let s1 = w.stats[1].snapshot();
    assert_eq!(
        s1.paths[0].delivered as usize, MESSAGES,
        "exactly one in-order delivery per message"
    );
    w
}

#[test]
fn one_percent_loss_delivers_everything_in_order() {
    ordered_loss_free_delivery(
        FaultConfig {
            loss: 0.01,
            duplicate: 0.01,
            reorder: 0.02,
            delay_ops: 3,
            ..FaultConfig::default()
        },
        0xF11C_0001,
    );
}

#[test]
fn ten_percent_loss_delivers_everything_in_order() {
    let w = ordered_loss_free_delivery(
        FaultConfig {
            loss: 0.10,
            duplicate: 0.05,
            reorder: 0.10,
            delay_ops: 4,
            ..FaultConfig::default()
        },
        0xF11C_0010,
    );
    let s = w.stats[0].snapshot();
    assert!(
        s.paths[0].retransmitted > 0,
        "10% loss must exercise the recovery path"
    );
}

#[test]
fn heavy_duplication_is_invisible_to_the_application() {
    let w = ordered_loss_free_delivery(
        FaultConfig {
            duplicate: 0.4,
            ..FaultConfig::default()
        },
        0xF11C_0D0B,
    );
    let s = w.stats[1].snapshot();
    assert!(
        s.paths[0].dup_dropped > 0,
        "duplicates must be absorbed by the dedup window, not delivered"
    );
}

/// The engine's drain pass is the batch boundary: four frames queued on
/// one endpoint leave in one pass as one Batch datagram and arrive in
/// order.
#[test]
fn one_drain_pass_is_one_batch_delivered_in_order() {
    let mut w = world(NetConfig::default(), FaultConfig::default(), 0xBA7C);
    let tx = w.apps[0]
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .unwrap();
    let rx = w.apps[1]
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .unwrap();
    let dest = w.apps[1].address(&rx);
    for _ in 0..4 {
        let b = w.apps[1].buffer_allocate().unwrap();
        w.apps[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
    }
    for i in 0..4u8 {
        let mut t = w.apps[0].buffer_allocate().unwrap();
        w.apps[0].payload_mut(&mut t)[0] = i;
        w.apps[0].send(&tx, t, dest).map_err(|r| r.error).unwrap();
    }
    w.engines[0].iterate();
    let s = w.stats[0].snapshot();
    assert_eq!(s.paths[0].sent, 4);
    assert_eq!(
        (s.batch_datagrams, s.batch_frames),
        (1, 4),
        "one pass, one Batch"
    );
    w.engines[1].iterate();
    let mut got = Vec::new();
    while let Ok(Some(m)) = w.apps[1].recv(&rx) {
        got.push(w.apps[1].payload(&m.token)[0]);
    }
    assert_eq!(got, vec![0, 1, 2, 3]);
}

/// A dead peer: the retransmit ring must stay bounded at the window, the
/// backoff must cap the retransmit rate, and the engine loop must stay
/// live (optimistic sends complete; excess queues; nothing blocks).
#[test]
fn dead_peer_keeps_memory_and_retransmit_rate_bounded() {
    let cfg = NetConfig {
        window: 8,
        rto: 1_000,
        rto_max: 4_000,
        // This test pins the pre-lifecycle property: even with dead
        // declaration disabled, the retransmit machinery alone keeps
        // memory and datagram rate bounded. The chaos suite covers the
        // lifecycle path (declare, fail, resync) separately.
        dead_strikes: u32::MAX,
        heartbeat_interval: 0,
        ..NetConfig::default()
    };
    // 100% loss in both directions: node 1 is unreachable.
    let mut w = world(cfg, FaultConfig::lossy(1.0), 0xDEAD);
    let tx = w.apps[0]
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .unwrap();
    let rx = w.apps[1]
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .unwrap();
    let dest = w.apps[1].address(&rx);

    let mut queued = 0;
    for i in 0..14u8 {
        let mut t = w.apps[0].buffer_allocate().unwrap();
        w.apps[0].payload_mut(&mut t)[0] = i;
        if w.apps[0].send(&tx, t, dest).is_ok() {
            queued += 1;
        }
        w.pump(100);
    }
    assert!(queued >= 14, "optimistic send path never blocks the app");

    // A long silent stretch with the timer firing many times.
    let total_ticks: u64 = 200 * 1_000;
    for _ in 0..200 {
        w.pump(1_000);
        let s = w.stats[0].snapshot();
        assert!(
            s.paths[0].in_flight <= 8,
            "retransmit ring exceeded the window: {}",
            s.paths[0].in_flight
        );
    }
    let s = w.stats[0].snapshot();
    // With the timeout capped at 4k ticks, a 200k-tick stretch can fire at
    // most ~(ramp + total/cap) rounds of at most `window` frames each.
    let max_rounds = 3 + total_ticks / cfg.rto_max;
    assert!(
        (s.paths[0].retransmitted as u64) <= max_rounds * 8,
        "backoff failed to cap the retransmit rate: {} retransmissions",
        s.paths[0].retransmitted
    );
    assert!(
        s.paths[0].retransmitted >= 8,
        "the timer must actually fire for a dead peer"
    );
    // The engine is still live for other work: its iterate() keeps
    // returning without hanging (implicitly proven by reaching this line)
    // and the application can still reclaim what the transport accepted.
    let mut reclaimed = 0;
    while let Ok(Some(b)) = w.apps[0].reclaim_send(&tx) {
        w.apps[0].buffer_free(b);
        reclaimed += 1;
    }
    assert!(reclaimed >= 8, "optimistically accepted sends complete");
}
