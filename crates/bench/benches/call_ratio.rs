//! E9: the call-ratio observation. The paper: "a FLIPC application can
//! expect to employ about half of its calls to FLIPC to send or receive
//! messages, and the other half for message buffer management", motivating
//! the managed buffer layer of the Future Work section.
//!
//! Measured on the *real* host implementation: a request/response workload
//! run over the inline (deterministic) engine, once against the raw API
//! and once against the managed layer.

use flipc_bench::print_table;
use flipc_core::endpoint::{EndpointType, Importance};
use flipc_core::layout::Geometry;
use flipc_core::managed::{ManagedReceiver, ManagedSender};
use flipc_engine::engine::EngineConfig;
use flipc_engine::node::InlineCluster;

const MESSAGES: u64 = 500;

fn main() {
    // Raw API in its steady state: buffers are allocated once and recycled
    // — each message still costs the sender a `reclaim_send` and the
    // receiver a `provide_receive_buffer`, which is exactly the paper's
    // "half of the calls are buffer management". The loop counts the calls
    // it makes: send/recv on one side, allocate/provide/reclaim on the other.
    let mut cl =
        InlineCluster::new(2, Geometry::small(), EngineConfig::default()).expect("cluster");
    let a = cl.node(0).attach();
    let b = cl.node(1).attach();
    let tx = a
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .expect("ep");
    let rx = b
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .expect("ep");
    let dest = b.address(&rx);
    let mut raw_msg_calls = 0u64;
    let mut raw_buf_calls = 0u64;
    let first = b.buffer_allocate().expect("buffer");
    b.provide_receive_buffer(&rx, first)
        .map_err(|r| r.error)
        .expect("provide");
    let mut token = Some(a.buffer_allocate().expect("buffer"));
    raw_buf_calls += 3;
    for _ in 0..MESSAGES {
        let mut t = token.take().expect("send buffer");
        a.payload_mut(&mut t)[..4].copy_from_slice(b"ping");
        a.send(&tx, t, dest).expect("send");
        cl.pump_until_idle(16);
        let got = b.recv(&rx).expect("recv").expect("message");
        raw_msg_calls += 2;
        b.provide_receive_buffer(&rx, got.token)
            .map_err(|r| r.error)
            .expect("recycle");
        token = Some(a.reclaim_send(&tx).expect("reclaim").expect("buffer"));
        raw_buf_calls += 2;
    }

    // Managed layer: one call per message per side.
    let mut cl =
        InlineCluster::new(2, Geometry::small(), EngineConfig::default()).expect("cluster");
    let a = cl.node(0).attach();
    let b = cl.node(1).attach();
    let tx = a
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .expect("ep");
    let rx = b
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .expect("ep");
    let dest = b.address(&rx);
    let mut mtx = ManagedSender::new(&a, tx, 8).expect("sender");
    let mut mrx = ManagedReceiver::new(&b, rx, 8).expect("receiver");
    for _ in 0..MESSAGES {
        mtx.send_bytes(dest, b"ping").expect("send");
        cl.pump_until_idle(16);
        mrx.recv_bytes().expect("recv").expect("message");
    }
    let managed_calls = mtx.user_calls() + mrx.user_calls();

    print_table(
        &format!("Programmer-visible FLIPC calls for {MESSAGES} request messages"),
        &[
            "API",
            "send/recv calls",
            "buffer-mgmt calls",
            "buffer-mgmt share",
        ],
        &[
            vec![
                "raw (paper's API)".into(),
                raw_msg_calls.to_string(),
                raw_buf_calls.to_string(),
                format!(
                    "{:.0}%",
                    raw_buf_calls as f64 / (raw_msg_calls + raw_buf_calls) as f64 * 100.0
                ),
            ],
            vec![
                "managed layer (future work)".into(),
                managed_calls.to_string(),
                "0".into(),
                "0%".into(),
            ],
        ],
    );
    println!();
    println!("paper: ~half of an application's FLIPC calls are buffer management;");
    println!("the managed layer folds them away ({raw_msg_calls} + {raw_buf_calls} calls -> {managed_calls}).");
}
