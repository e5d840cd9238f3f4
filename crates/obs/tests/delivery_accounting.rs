//! Every delivery is accounted for in the trace plane, on real traffic.
//!
//! Two node pairs run closed-loop ping-pong: one on the in-process
//! loopback fabric, where node 1's trace ring and engine telemetry must
//! each account for every message node 1 delivers; and one over real
//! `127.0.0.1` UDP sockets ([`loopback_udp_pair`]), where [`merge`] must
//! rebuild a cross-node send→deliver chain for every round. Both pairs run
//! more rounds than a node has buffers, so a round that leaked a buffer
//! would exhaust the pool and fail.

use std::sync::Arc;

use flipc_core::api::{Flipc, LocalEndpoint};
use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointAddress, EndpointType, FlipcNodeId, Importance};
use flipc_core::layout::Geometry;
use flipc_core::wait::WaitRegistry;
use flipc_engine::engine::{Engine, EngineConfig};
use flipc_engine::node::InlineCluster;
use flipc_net::demo::loopback_udp_pair;
use flipc_net::{NetConfig, NetTransport, UdpLink};
use flipc_obs::merge::{merge, NodeInput};
use flipc_obs::TraceKind;

/// Round trips per run: twice as many as `Geometry::small()` has buffers.
fn rounds() -> u64 {
    2 * u64::from(Geometry::small().buffers)
}

/// One node's application side: a send and a receive endpoint.
struct App {
    app: Flipc,
    tx: LocalEndpoint,
    rx: LocalEndpoint,
    inbox: EndpointAddress,
}

impl App {
    fn new(app: Flipc) -> App {
        let endpoint = |ty| app.endpoint_allocate(ty, Importance::Normal).expect("ep");
        let tx = endpoint(EndpointType::Send);
        let rx = endpoint(EndpointType::Receive);
        let inbox = app.address(&rx);
        App { app, tx, rx, inbox }
    }

    fn provide(&self) {
        let buf = self.app.buffer_allocate().expect("buffer");
        self.app
            .provide_receive_buffer(&self.rx, buf)
            .map_err(|r| r.error)
            .expect("provide");
    }

    fn reclaim(&self) {
        while let Some(tok) = self.app.reclaim_send_unlocked(&self.tx).expect("reclaim") {
            self.app.buffer_free(tok);
        }
    }
}

/// One ping-pong round: `a` pings `b`, `b` echoes the same buffer back.
/// `pump` runs both engines once; it is called until each hop lands.
fn round(a: &App, b: &App, mut pump: impl FnMut()) {
    a.provide();
    b.provide();
    let ping = a.app.buffer_allocate().expect("buffer");
    a.app.send_unlocked(&a.tx, ping, b.inbox).expect("send");
    let got = loop {
        pump();
        if let Some(got) = b.app.recv_unlocked(&b.rx).expect("recv") {
            break got;
        }
    };
    b.app
        .send_unlocked(&b.tx, got.token, a.inbox)
        .expect("send");
    let back = loop {
        pump();
        if let Some(back) = a.app.recv_unlocked(&a.rx).expect("recv") {
            break back;
        }
    };
    a.app.buffer_free(back.token);
    a.reclaim();
    b.reclaim();
}

/// Runs [`rounds`] loopback round trips from node 0 with a trace ring of
/// `capacity` events on node 1, drained once at the end. Returns node 1's
/// `(Deliver events drained, events the ring shed, deliveries in its
/// engine telemetry)`.
fn loopback_rounds(capacity: usize) -> (u64, u64, u64) {
    let mut cl =
        InlineCluster::new(2, Geometry::small(), EngineConfig::default()).expect("cluster");
    let mut trace = cl.engine_mut(1).install_trace(capacity);
    let a = App::new(cl.node(0).attach());
    let b = App::new(cl.node(1).attach());
    for _ in 0..rounds() {
        round(&a, &b, || {
            cl.pump();
        });
    }
    let delivers = trace
        .drain()
        .iter()
        .filter(|e| e.kind == TraceKind::Deliver)
        .count() as u64;
    let telemetry = cl.engine_telemetry(1).harvest();
    (
        delivers,
        trace.lost(),
        telemetry.total_deliver_latency().count(),
    )
}

#[test]
fn every_loopback_delivery_is_traced_or_counted_lost() {
    let rounds = rounds();
    // A ring that holds the whole run records every delivery.
    let (delivers, lost, telemetry) = loopback_rounds(4096);
    assert_eq!((delivers, lost), (rounds, 0));
    assert_eq!(telemetry, rounds, "telemetry missed deliveries");

    // A ring that overflows sheds into `lost`, never silently.
    let (delivers, lost, telemetry) = loopback_rounds(64);
    assert!(delivers < rounds, "a 64-event ring held the whole run");
    assert!(
        delivers + lost >= rounds,
        "trace ring lost deliveries silently: {delivers} traced + {lost} lost < {rounds}"
    );
    assert_eq!(telemetry, rounds, "telemetry missed deliveries");
}

/// One node of the UDP pair, its engine pumped by the test thread.
fn udp_node(id: u16, transport: NetTransport<UdpLink>) -> (App, Engine) {
    let cb = Arc::new(CommBuffer::new(Geometry::small()).expect("geometry"));
    let registry = WaitRegistry::new();
    let app = Flipc::attach(cb.clone(), FlipcNodeId(id), registry.clone());
    let engine = Engine::new(cb, Box::new(transport), registry, EngineConfig::default());
    (App::new(app), engine)
}

#[test]
fn merge_rebuilds_a_cross_node_chain_per_udp_round() {
    let (t0, t1) = loopback_udp_pair(NetConfig::default()).expect("bind loopback UDP pair");
    let (app0, mut engine0) = udp_node(0, t0);
    let (app1, mut engine1) = udp_node(1, t1);
    let mut traces = [engine0.install_trace(4096), engine1.install_trace(4096)];
    let mut events = [Vec::new(), Vec::new()];
    let mut lost = [0u64; 2];
    let rounds = rounds();
    // Node 1 speaks first: node 0 learns its port from the first ping.
    for _ in 0..rounds {
        round(&app1, &app0, || {
            engine1.iterate();
            engine0.iterate();
        });
        for (i, t) in traces.iter_mut().enumerate() {
            t.drain_into(&mut events[i]);
            lost[i] += t.lost();
        }
    }

    // Node 1's transport measured "node 0's clock minus mine" on the
    // wire: the rebase onto node 0's clock. With no clock samples it
    // reads 0, which is exact here: both nodes share one process clock.
    let snap = engine1.transport_snapshot().expect("node 1 snapshot");
    let path = &snap.paths[0];
    let [ev0, ev1] = events;
    let merged = merge(&[
        NodeInput {
            node: 0,
            offset_ns: 0,
            dispersion_ns: 0,
            events: ev0,
            lost: lost[0],
        },
        NodeInput {
            node: 1,
            offset_ns: path.clock_offset_ns,
            dispersion_ns: path.clock_dispersion_ns,
            events: ev1,
            lost: lost[1],
        },
    ]);
    assert!(
        merged.cross_chains.len() as u64 >= rounds,
        "merge rebuilt {} cross-node chains from {rounds} rounds",
        merged.cross_chains.len()
    );
}
