//! The in-process loopback-UDP node pair that `bench-report` and the
//! `net_pingpong` criterion bench ping-pong over: two engine-driven FLIPC
//! nodes on [`loopback_udp_pair`]'s real `127.0.0.1` sockets, both
//! engines pumped inline by the calling thread.

use std::sync::Arc;

use flipc_core::api::{Flipc, LocalEndpoint};
use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointAddress, EndpointType, FlipcNodeId, Importance};
use flipc_core::layout::Geometry;
use flipc_core::wait::WaitRegistry;
use flipc_engine::engine::{Engine, EngineConfig};
use flipc_net::demo::loopback_udp_pair;
use flipc_net::{NetConfig, NetTransport, UdpLink};

/// One node of the pair, with a send and a receive endpoint.
pub struct UdpNode {
    /// The node's application handle.
    pub app: Flipc,
    /// The node's engine, over its UDP transport.
    pub engine: Engine,
    /// The send endpoint.
    pub tx: LocalEndpoint,
    /// The receive endpoint.
    pub rx: LocalEndpoint,
    /// The address of `rx`.
    pub inbox: EndpointAddress,
}

/// Binds the pair with communication buffers of geometry `geo` and
/// returns it as `(pinger, ponger)`. The pinger must be node 1: it holds
/// a static route to node 0, while node 0 only learns node 1's ephemeral
/// port from the first arriving ping.
pub fn udp_nodes(geo: Geometry, net: NetConfig) -> (UdpNode, UdpNode) {
    let (t0, t1) = loopback_udp_pair(net).expect("bind loopback UDP pair");
    let node = |id: u16, transport: NetTransport<UdpLink>| {
        let cb = Arc::new(CommBuffer::new(geo).expect("geometry"));
        let registry = WaitRegistry::new();
        let app = Flipc::attach(cb.clone(), FlipcNodeId(id), registry.clone());
        let engine = Engine::new(cb, Box::new(transport), registry, EngineConfig::default());
        let endpoint = |ty| app.endpoint_allocate(ty, Importance::Normal).expect("ep");
        let tx = endpoint(EndpointType::Send);
        let rx = endpoint(EndpointType::Receive);
        let inbox = app.address(&rx);
        UdpNode {
            app,
            engine,
            tx,
            rx,
            inbox,
        }
    };
    let ponger = node(0, t0);
    (node(1, t1), ponger)
}

/// One ping-pong round: `a` pings `b`, `b` echoes the same buffer back,
/// and both engines are pumped until each hop is delivered. Both nodes
/// end the round with their send buffers reclaimed.
pub fn round(a: &mut UdpNode, b: &mut UdpNode) {
    for n in [&*b, &*a] {
        let buf = n.app.buffer_allocate().expect("buffer");
        n.app
            .provide_receive_buffer(&n.rx, buf)
            .map_err(|r| r.error)
            .expect("provide");
    }
    let ping = a.app.buffer_allocate().expect("buffer");
    a.app.send_unlocked(&a.tx, ping, b.inbox).expect("send");
    let got = loop {
        a.engine.iterate();
        b.engine.iterate();
        if let Some(got) = b.app.recv_unlocked(&b.rx).expect("recv") {
            break got;
        }
    };
    b.app
        .send_unlocked(&b.tx, got.token, a.inbox)
        .expect("send");
    let back = loop {
        a.engine.iterate();
        b.engine.iterate();
        if let Some(back) = a.app.recv_unlocked(&a.rx).expect("recv") {
            break back;
        }
    };
    a.app.buffer_free(back.token);
    for n in [&*a, &*b] {
        while let Some(tok) = n.app.reclaim_send_unlocked(&n.tx).expect("reclaim") {
            n.app.buffer_free(tok);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_cross_the_pair_without_leaking_buffers() {
        let geo = Geometry::small();
        let (mut a, mut b) = udp_nodes(geo, NetConfig::default());
        for _ in 0..geo.buffers + 1 {
            round(&mut a, &mut b);
        }
    }
}
