//! H2: half-RTT of the real UDP transport vs the in-process loopback,
//! over the paper's 50–500 byte message range.
//!
//! Two complete FLIPC nodes live in this process, joined by real
//! `127.0.0.1` UDP sockets through `flipc-net`; the loopback rows run the
//! identical engine/API code over the in-process wire. Each criterion
//! iteration is one full ping-pong, so **half-RTT = reported time / 2**.
//! The gap between the two rows is the cost of sockets + the reliability
//! layer; the loopback row is the pure software floor.

#![allow(missing_docs)] // criterion macros generate undocumented entry points

use criterion::{criterion_group, criterion_main, Criterion};

use flipc_bench::udp::{round, udp_nodes};
use flipc_core::endpoint::{EndpointType, Importance};
use flipc_core::layout::Geometry;
use flipc_engine::engine::EngineConfig;
use flipc_engine::node::InlineCluster;
use flipc_net::NetConfig;

/// Message sizes (header + payload) spanning the paper's 50–500 B range.
const MSG_SIZES: [u32; 4] = [64, 128, 256, 512];

fn geometry(msg_size: u32) -> Geometry {
    Geometry {
        ring_capacity: 32,
        buffers: 128,
        msg_size,
        ..Geometry::small()
    }
}

fn udp_vs_loopback(c: &mut Criterion) {
    for msg_size in MSG_SIZES {
        let geo = geometry(msg_size);
        let payload = geo.payload_size();

        let (mut a, mut b) = udp_nodes(geo, NetConfig::default());
        c.bench_function(&format!("net_udp/{payload}B_round_trip"), |bench| {
            bench.iter(|| round(&mut a, &mut b))
        });

        let mut cl = InlineCluster::new(2, geo, EngineConfig::default()).expect("cluster");
        let app0 = cl.node(0).attach();
        let app1 = cl.node(1).attach();
        let (tx0, rx0) = (
            app0.endpoint_allocate(EndpointType::Send, Importance::Normal)
                .expect("ep"),
            app0.endpoint_allocate(EndpointType::Receive, Importance::Normal)
                .expect("ep"),
        );
        let (tx1, rx1) = (
            app1.endpoint_allocate(EndpointType::Send, Importance::Normal)
                .expect("ep"),
            app1.endpoint_allocate(EndpointType::Receive, Importance::Normal)
                .expect("ep"),
        );
        let to_b = app1.address(&rx1);
        let to_a = app0.address(&rx0);
        c.bench_function(&format!("loopback/{payload}B_round_trip"), |bench| {
            bench.iter(|| {
                let buf = app1.buffer_allocate().expect("buffer");
                app1.provide_receive_buffer(&rx1, buf)
                    .map_err(|r| r.error)
                    .expect("provide");
                let buf = app0.buffer_allocate().expect("buffer");
                app0.provide_receive_buffer(&rx0, buf)
                    .map_err(|r| r.error)
                    .expect("provide");
                let ping = app0.buffer_allocate().expect("buffer");
                app0.send_unlocked(&tx0, ping, to_b).expect("send");
                cl.pump_until_idle(8);
                let got = app1.recv_unlocked(&rx1).expect("recv").expect("message");
                app1.send_unlocked(&tx1, got.token, to_a).expect("send");
                cl.pump_until_idle(8);
                let back = app0.recv_unlocked(&rx0).expect("recv").expect("message");
                app0.buffer_free(back.token);
                if let Some(tok) = app0.reclaim_send_unlocked(&tx0).expect("reclaim") {
                    app0.buffer_free(tok);
                }
                if let Some(tok) = app1.reclaim_send_unlocked(&tx1).expect("reclaim") {
                    app1.buffer_free(tok);
                }
            })
        });
    }
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = udp_vs_loopback
}
criterion_main!(benches);
