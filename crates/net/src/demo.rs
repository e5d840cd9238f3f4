//! The two-process UDP ping-pong demo.
//!
//! One OS process runs `--server`, another runs `--client`, both on
//! `127.0.0.1`, and a full FLIPC round trip — endpoint allocation, buffer
//! provisioning, optimistic send, blocking receive, buffer reclaim — runs
//! through the *unmodified* engine over real sockets. The name service the
//! paper assumes is external is played by stdout: the server prints its
//! bound port and packed inbox address; the client embeds its own inbox
//! address in each ping's payload so the server knows where to pong.
//!
//! The crate's `net_pingpong` bin is this module's CLI (the two-process
//! smoke test spawns it). [`loopback_udp_pair`] is the same bootstrap
//! inside one process, the node-pair fixture of `flipc-top --udp` and of
//! flipc-obs's cross-node merge test.

use std::io::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use flipc_core::api::Flipc;
use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointAddress, EndpointType, FlipcNodeId, Importance};
use flipc_core::layout::Geometry;
use flipc_core::wait::WaitRegistry;
use flipc_engine::engine::{Engine, EngineConfig};
use flipc_engine::thread::spawn_engine;
use std::sync::Arc;

use crate::peers::{NodeAddr, NodeMap};
use crate::reliability::NetConfig;
use crate::transport::{udp_transport, NetTransport};
use crate::udp::UdpLink;

/// Node id the server runs as.
pub const SERVER_NODE: FlipcNodeId = FlipcNodeId(0);
/// Node id the client runs as.
pub const CLIENT_NODE: FlipcNodeId = FlipcNodeId(1);

/// How long either role waits for one message before giving up.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// Binds a node pair on `127.0.0.1` ephemeral ports inside one process
/// and returns its transports as `(node 0, node 1)`.
///
/// Node 0 knows node 1 only as [`NodeAddr::Dynamic`]; node 1 routes
/// statically to node 0's bound port. Node 0 learns node 1's port from
/// the first datagram it receives, so node 1 must speak first — the
/// same bootstrap as [`run_server`] and [`run_client`].
pub fn loopback_udp_pair(
    net: NetConfig,
) -> std::io::Result<(NetTransport<UdpLink>, NetTransport<UdpLink>)> {
    let ephemeral = NodeAddr::Static(SocketAddr::from(([127, 0, 0, 1], 0)));
    let mut map0 = NodeMap::new();
    map0.insert(SERVER_NODE, ephemeral)
        .insert(CLIENT_NODE, NodeAddr::Dynamic);
    let t0 = udp_transport(&map0, SERVER_NODE, net)?;
    let mut map1 = NodeMap::new();
    map1.insert(SERVER_NODE, NodeAddr::Static(t0.link().local_addr()?))
        .insert(CLIENT_NODE, ephemeral);
    let t1 = udp_transport(&map1, CLIENT_NODE, net)?;
    Ok((t0, t1))
}

fn build_node(
    transport: NetTransport<UdpLink>,
    node: FlipcNodeId,
) -> (Flipc, flipc_engine::thread::EngineHandle) {
    let cb = Arc::new(CommBuffer::new(Geometry::small()).expect("geometry"));
    let registry = WaitRegistry::new();
    let app = Flipc::attach(cb.clone(), node, registry.clone());
    let engine = Engine::new(cb, Box::new(transport), registry, EngineConfig::default());
    (app, spawn_engine(engine))
}

/// Runs the server role: binds `port` (0 = ephemeral), prints
/// `LISTEN <port>` and `INBOX <packed-address>` on stdout, then echoes
/// `rounds` pings back to the address each ping carries in its payload.
pub fn run_server(port: u16, rounds: u32) -> std::io::Result<()> {
    let mut map = NodeMap::new();
    map.insert(
        SERVER_NODE,
        NodeAddr::Static(SocketAddr::from(([127, 0, 0, 1], port))),
    )
    .insert(CLIENT_NODE, NodeAddr::Dynamic);
    let transport = udp_transport(&map, SERVER_NODE, NetConfig::default())?;
    let bound = transport.link().local_addr()?;
    let stats = transport.stats();
    let (app, engine) = build_node(transport, SERVER_NODE);

    let inbox = app
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .map_err(std::io::Error::other)?;
    let outbox = app
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .map_err(std::io::Error::other)?;

    // Two receive buffers queued before the port is announced: the
    // client has at most one ping in flight, so one buffer is always
    // available however the ping/provide race falls — the engine never
    // has to discard-and-count.
    for _ in 0..2 {
        let buf = app.buffer_allocate().map_err(std::io::Error::other)?;
        app.provide_receive_buffer(&inbox, buf)
            .map_err(|r| std::io::Error::other(r.error))?;
    }

    // The out-of-band "name service": stdout.
    println!("LISTEN {}", bound.port());
    println!("INBOX {}", app.address(&inbox).pack());
    std::io::stdout().flush()?;

    // Send buffers not yet handed back by the engine. The drain below must
    // see this reach zero: reclaim is the application-visible proof that
    // the engine actually transmitted an optimistic send, and `in_flight`
    // alone cannot distinguish "everything acked" from "the engine has not
    // picked the pong up yet" (on a single-core host the engine thread may
    // not have run at all between `send` and the end of the loop).
    let mut unreclaimed: u32 = 0;
    for _ in 0..rounds {
        let got = app.recv_blocking(&inbox, RECV_TIMEOUT).map_err(|e| {
            let es = engine.stats();
            let o = flipc_core::sync::atomic::Ordering::Relaxed;
            eprintln!(
                "server wire state at failure:\n{}\nserver engine: delivered {} \
                 dropped_no_buffer {} misaddressed {} check_failures {} inbox drops {:?}",
                stats.snapshot().render(),
                es.delivered.load(o),
                es.dropped_no_buffer.load(o),
                es.misaddressed.load(o),
                es.check_failures.load(o),
                app.drops(&inbox)
            );
            std::io::Error::other(e)
        })?;
        let payload = app.payload(&got.token);
        let reply_to = EndpointAddress::unpack(u64::from_le_bytes(
            payload[..8].try_into().expect("8-byte reply address"),
        ));
        let seq = payload[8];
        app.buffer_free(got.token);

        // Replace the consumed buffer *before* the pong goes out, so the
        // next ping (sent the instant the client sees this pong) always
        // finds one queued.
        let buf = app.buffer_allocate().map_err(std::io::Error::other)?;
        app.provide_receive_buffer(&inbox, buf)
            .map_err(|r| std::io::Error::other(r.error))?;

        let mut pong = app.buffer_allocate().map_err(std::io::Error::other)?;
        app.payload_mut(&mut pong)[0] = seq;
        app.send(&outbox, pong, reply_to)
            .map_err(|r| std::io::Error::other(r.error))?;
        unreclaimed += 1;
        // Reclaim transmitted buffers so the pool never runs dry.
        while let Ok(Some(b)) = app.reclaim_send(&outbox) {
            app.buffer_free(b);
            unreclaimed -= 1;
        }
    }
    // `send` is optimistic: it queues the pong and returns before the
    // engine has even transmitted it. Don't tear the node down until the
    // engine has processed every pong (every send buffer reclaimed) AND
    // the reliability layer has seen them acknowledged (`in_flight == 0`)
    // — otherwise dropping the engine handle can kill the final pong
    // while it still sits in the outbox ring.
    let flush_deadline = Instant::now() + RECV_TIMEOUT;
    loop {
        while let Ok(Some(b)) = app.reclaim_send(&outbox) {
            app.buffer_free(b);
            unreclaimed -= 1;
        }
        let snap = stats.snapshot();
        if unreclaimed == 0 && snap.paths.iter().all(|p| p.in_flight == 0) {
            break;
        }
        if Instant::now() > flush_deadline {
            // Peer vanished before acking; transmitted best-effort.
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    println!("DONE server rounds={rounds}");
    println!("STATS\n{}", stats.snapshot().render());
    Ok(())
}

/// Runs the client role against a server at `server_addr` whose inbox is
/// `server_inbox` (the packed address the server printed). Sends `rounds`
/// pings and validates each pong. Returns the measured mean round-trip
/// time.
pub fn run_client(
    server_addr: SocketAddr,
    server_inbox: u64,
    rounds: u32,
) -> std::io::Result<Duration> {
    let mut map = NodeMap::new();
    map.insert(SERVER_NODE, NodeAddr::Static(server_addr))
        .insert(
            CLIENT_NODE,
            NodeAddr::Static(SocketAddr::from(([127, 0, 0, 1], 0))),
        );
    let transport = udp_transport(&map, CLIENT_NODE, NetConfig::default())?;
    let stats = transport.stats();
    let (app, _engine) = build_node(transport, CLIENT_NODE);

    let inbox = app
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .map_err(std::io::Error::other)?;
    let outbox = app
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .map_err(std::io::Error::other)?;
    let inbox_addr = app.address(&inbox).pack();
    let server = EndpointAddress::unpack(server_inbox);

    let started = Instant::now();
    for round in 0..rounds {
        let buf = app.buffer_allocate().map_err(std::io::Error::other)?;
        app.provide_receive_buffer(&inbox, buf)
            .map_err(|r| std::io::Error::other(r.error))?;

        let seq = (round % 251) as u8;
        let mut ping = app.buffer_allocate().map_err(std::io::Error::other)?;
        {
            let p = app.payload_mut(&mut ping);
            p[..8].copy_from_slice(&inbox_addr.to_le_bytes());
            p[8] = seq;
        }
        app.send(&outbox, ping, server)
            .map_err(|r| std::io::Error::other(r.error))?;

        let got = app.recv_blocking(&inbox, RECV_TIMEOUT).map_err(|e| {
            eprintln!(
                "client wire state at failure (round {round}):\n{}",
                stats.snapshot().render()
            );
            std::io::Error::other(e)
        })?;
        let echoed = app.payload(&got.token)[0];
        app.buffer_free(got.token);
        if echoed != seq {
            return Err(std::io::Error::other(format!(
                "round {round}: pong carried {echoed}, expected {seq}"
            )));
        }
        while let Ok(Some(b)) = app.reclaim_send(&outbox) {
            app.buffer_free(b);
        }
    }
    let mean_rtt = started.elapsed() / rounds.max(1);
    println!("DONE client rounds={rounds} mean_rtt={mean_rtt:?}");
    Ok(mean_rtt)
}

/// Command-line front end of the crate's `net_pingpong` bin.
///
/// ```text
/// net_pingpong --server [--port P] [--rounds N]
/// net_pingpong --client --server-addr HOST:PORT --inbox PACKED [--rounds N]
/// ```
pub fn run_cli(args: impl Iterator<Item = String>) -> std::io::Result<()> {
    let args: Vec<String> = args.collect();
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let rounds: u32 = flag("--rounds")
        .map_or(Ok(32), str::parse)
        .map_err(|e| std::io::Error::other(format!("--rounds: {e}")))?;
    if args.iter().any(|a| a == "--server") {
        let port: u16 = flag("--port")
            .map_or(Ok(0), str::parse)
            .map_err(|e| std::io::Error::other(format!("--port: {e}")))?;
        run_server(port, rounds)
    } else if args.iter().any(|a| a == "--client") {
        let addr: SocketAddr = flag("--server-addr")
            .ok_or_else(|| std::io::Error::other("--client needs --server-addr HOST:PORT"))?
            .parse()
            .map_err(std::io::Error::other)?;
        let inbox: u64 = flag("--inbox")
            .ok_or_else(|| std::io::Error::other("--client needs --inbox PACKED"))?
            .parse()
            .map_err(std::io::Error::other)?;
        run_client(addr, inbox, rounds).map(|_| ())
    } else {
        Err(std::io::Error::other(
            "usage: net_pingpong --server [--port P] | --client --server-addr A --inbox X",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use flipc_core::endpoint::EndpointIndex;
    use flipc_engine::transport::Transport;
    use flipc_engine::wire::Frame;

    fn pump(t: &mut NetTransport<UdpLink>) -> Frame {
        let deadline = Instant::now() + RECV_TIMEOUT;
        loop {
            if let Some(f) = t.try_recv() {
                return f;
            }
            assert!(Instant::now() < deadline, "frame never arrived");
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    #[test]
    fn loopback_udp_pair_is_reachable_once_node_1_speaks() {
        let (mut t0, mut t1) = loopback_udp_pair(NetConfig::default()).expect("bind");
        assert!(
            !t0.link_mut().send(CLIENT_NODE, b"x"),
            "node 0 has no route to node 1 before its first datagram"
        );
        let frame = |src: FlipcNodeId, dst: FlipcNodeId, tag: u8| Frame {
            src: EndpointAddress::new(src, EndpointIndex(0), 1),
            dst: EndpointAddress::new(dst, EndpointIndex(0), 1),
            payload: vec![tag; 16].into(),
            stamp_ns: 0,
        };
        assert!(t1.try_send(SERVER_NODE, &frame(CLIENT_NODE, SERVER_NODE, 1)));
        t1.flush();
        assert_eq!(pump(&mut t0).payload[0], 1);
        assert!(t0.try_send(CLIENT_NODE, &frame(SERVER_NODE, CLIENT_NODE, 2)));
        t0.flush();
        assert_eq!(pump(&mut t1).payload[0], 2);
    }
}
