//! Protection domains: multiple communication buffers per node with send
//! restrictions (the paper's Future Work item for "multiple applications
//! that do not trust each other").

use flipc_core::sync::atomic::Ordering;
use std::sync::Arc;

use flipc_core::api::Flipc;
use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointType, FlipcNodeId, Importance};
use flipc_core::layout::Geometry;
use flipc_core::wait::WaitRegistry;
use flipc_engine::engine::{Domain, Engine, EngineConfig};
use flipc_engine::loopback::fabric;

/// Two domains on node 0 (a trusted control app and a restricted guest
/// app) plus a plain node 1; returns engines and the attached handles.
struct World {
    engines: Vec<Engine>,
    control: Flipc,
    guest: Flipc,
    remote: Flipc,
}

fn world(guest_allowed: Option<Vec<FlipcNodeId>>) -> World {
    let geo = Geometry::small(); // 8 endpoints each
    let mut ports = fabric(2, 64).into_iter();

    // Node 0: two communication buffers — control at base 0, guest at 8.
    let control_cb = Arc::new(CommBuffer::new(geo).expect("commbuf"));
    let control_reg = WaitRegistry::new();
    let guest_cb = Arc::new(CommBuffer::new(geo).expect("commbuf"));
    let guest_reg = WaitRegistry::new();
    let node0 = Engine::new_multi(
        vec![
            Domain::unrestricted(control_cb.clone(), control_reg.clone()),
            Domain {
                cb: guest_cb.clone(),
                registry: guest_reg.clone(),
                index_base: 8,
                allowed_destinations: guest_allowed,
            },
        ],
        Box::new(ports.next().expect("port 0")),
        EngineConfig::default(),
    );

    // Node 1: ordinary single-domain node.
    let remote_cb = Arc::new(CommBuffer::new(geo).expect("commbuf"));
    let remote_reg = WaitRegistry::new();
    let node1 = Engine::new(
        remote_cb.clone(),
        Box::new(ports.next().expect("port 1")),
        remote_reg.clone(),
        EngineConfig::default(),
    );

    World {
        engines: vec![node0, node1],
        control: Flipc::attach_at(control_cb, FlipcNodeId(0), control_reg, 0),
        guest: Flipc::attach_at(guest_cb, FlipcNodeId(0), guest_reg, 8),
        remote: Flipc::attach(remote_cb, FlipcNodeId(1), remote_reg),
    }
}

fn pump(engines: &mut [Engine]) {
    for _ in 0..6 {
        for e in engines.iter_mut() {
            e.iterate();
        }
    }
}

fn send(
    f: &Flipc,
    ep: &flipc_core::api::LocalEndpoint,
    dest: flipc_core::EndpointAddress,
    tag: u8,
) {
    let mut t = f.buffer_allocate().expect("buffer");
    f.payload_mut(&mut t)[0] = tag;
    f.send(ep, t, dest).expect("send");
}

fn provide(f: &Flipc, ep: &flipc_core::api::LocalEndpoint, n: usize) {
    for _ in 0..n {
        let t = f.buffer_allocate().expect("buffer");
        f.provide_receive_buffer(ep, t)
            .map_err(|r| r.error)
            .expect("provide");
    }
}

#[test]
fn domains_route_by_index_base_and_stay_isolated() {
    let mut w = world(None);
    // Each domain gets a receive endpoint; the remote node sends to both.
    let c_rx = w
        .control
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .unwrap();
    let g_rx = w
        .guest
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .unwrap();
    provide(&w.control, &c_rx, 2);
    provide(&w.guest, &g_rx, 2);
    // Addresses carry the domain's base: control ep0 -> global 0, guest
    // ep0 -> global 8.
    let c_addr = w.control.address(&c_rx);
    let g_addr = w.guest.address(&g_rx);
    assert_eq!(c_addr.index().0, 0);
    assert_eq!(g_addr.index().0, 8);

    let r_tx = w
        .remote
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .unwrap();
    send(&w.remote, &r_tx, c_addr, 1);
    send(&w.remote, &r_tx, g_addr, 2);
    pump(&mut w.engines);

    let got_c = w.control.recv(&c_rx).unwrap().expect("control delivery");
    assert_eq!(w.control.payload(&got_c.token)[0], 1);
    let got_g = w.guest.recv(&g_rx).unwrap().expect("guest delivery");
    assert_eq!(w.guest.payload(&got_g.token)[0], 2);
    // Nothing leaked across domains.
    assert!(w.control.recv(&c_rx).unwrap().is_none());
    assert!(w.guest.recv(&g_rx).unwrap().is_none());
    assert_eq!(w.control.drops_reset(&c_rx).unwrap(), 0);
    assert_eq!(w.guest.drops_reset(&g_rx).unwrap(), 0);
}

#[test]
fn cross_domain_messaging_on_one_node_goes_through_the_engine() {
    let mut w = world(None);
    let g_rx = w
        .guest
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .unwrap();
    provide(&w.guest, &g_rx, 1);
    let g_addr = w.guest.address(&g_rx);

    let c_tx = w
        .control
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .unwrap();
    send(&w.control, &c_tx, g_addr, 42);
    pump(&mut w.engines);

    let got = w.guest.recv(&g_rx).unwrap().expect("cross-domain delivery");
    assert_eq!(w.guest.payload(&got.token)[0], 42);
    // Provenance shows the control domain's global index space.
    assert_eq!(got.from.node(), FlipcNodeId(0));
    assert!(got.from.index().0 < 8);
}

#[test]
fn send_restriction_denies_and_counts() {
    // The guest may only talk to node 0 (itself) — its messages to node 1
    // must be suppressed by the engine, visibly.
    let mut w = world(Some(vec![FlipcNodeId(0)]));
    let r_rx = w
        .remote
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .unwrap();
    provide(&w.remote, &r_rx, 4);
    let r_addr = w.remote.address(&r_rx);

    let g_tx = w
        .guest
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .unwrap();
    for i in 0..3u8 {
        send(&w.guest, &g_tx, r_addr, i);
    }
    pump(&mut w.engines);

    // Nothing reached the remote node.
    assert!(
        w.remote.recv(&r_rx).unwrap().is_none(),
        "restricted send leaked off-node"
    );
    // The denial is observable: engine stat + the send endpoint's drop
    // counter, and the buffers complete so the guest can reclaim them.
    assert_eq!(w.engines[0].stats().denied.load(Ordering::Relaxed), 3);
    assert_eq!(w.guest.drops_reset(&g_tx).unwrap(), 3);
    let mut reclaimed = 0;
    while w.guest.reclaim_send(&g_tx).unwrap().is_some() {
        reclaimed += 1;
    }
    assert_eq!(reclaimed, 3);

    // The control domain (unrestricted) still reaches node 1.
    let c_tx = w
        .control
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .unwrap();
    send(&w.control, &c_tx, r_addr, 9);
    pump(&mut w.engines);
    let got = w
        .remote
        .recv(&r_rx)
        .unwrap()
        .expect("control traffic must pass");
    assert_eq!(w.remote.payload(&got.token)[0], 9);
}

#[test]
fn restricted_guest_may_still_message_allowed_nodes() {
    let mut w = world(Some(vec![FlipcNodeId(0)]));
    // Guest -> control (same node, allowed).
    let c_rx = w
        .control
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .unwrap();
    provide(&w.control, &c_rx, 1);
    let c_addr = w.control.address(&c_rx);
    let g_tx = w
        .guest
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .unwrap();
    send(&w.guest, &g_tx, c_addr, 7);
    pump(&mut w.engines);
    let got = w.control.recv(&c_rx).unwrap().expect("allowed destination");
    assert_eq!(w.control.payload(&got.token)[0], 7);
    assert_eq!(w.engines[0].stats().denied.load(Ordering::Relaxed), 0);
}

#[test]
fn unowned_global_index_is_misaddressed() {
    let mut w = world(None);
    let r_tx = w
        .remote
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .unwrap();
    // Global index 99 belongs to no domain on node 0.
    let bogus = flipc_core::EndpointAddress::new(FlipcNodeId(0), flipc_core::EndpointIndex(99), 1);
    send(&w.remote, &r_tx, bogus, 5);
    pump(&mut w.engines);
    assert_eq!(w.engines[0].stats().misaddressed.load(Ordering::Relaxed), 1);
}

#[test]
#[should_panic(expected = "overlap")]
fn overlapping_domain_ranges_are_rejected() {
    let geo = Geometry::small();
    let mut ports = fabric(1, 4).into_iter();
    let cb1 = Arc::new(CommBuffer::new(geo).unwrap());
    let cb2 = Arc::new(CommBuffer::new(geo).unwrap());
    let _ = Engine::new_multi(
        vec![
            Domain::unrestricted(cb1, WaitRegistry::new()),
            Domain {
                cb: cb2,
                registry: WaitRegistry::new(),
                index_base: 4, // overlaps [0,8)
                allowed_destinations: None,
            },
        ],
        Box::new(ports.next().unwrap()),
        EngineConfig::default(),
    );
}

#[test]
#[should_panic(expected = "runs past the u16 index space")]
fn domain_range_past_the_u16_index_space_is_rejected() {
    let mut ports = fabric(1, 4).into_iter();
    let _ = Engine::new_multi(
        vec![Domain {
            cb: Arc::new(CommBuffer::new(Geometry::small()).unwrap()),
            registry: WaitRegistry::new(),
            index_base: 65_530, // slots 65,530..65,538: the last two wrap
            allowed_destinations: None,
        }],
        Box::new(ports.next().unwrap()),
        EngineConfig::default(),
    );
}
