//! The four workloads, the fixtures they run on, and the checks on what
//! they deliver.
//!
//! Every fixture is built from the public stack with default
//! `EngineConfig`, `NetConfig` and crate features, and uses the
//! single-thread `_unlocked` calls. Untraced fixtures take the production
//! constructors (`Box::new(port)`, `udp_transport`); traced ones assemble
//! the same parts by hand so that timing adapters can sit between them.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flipc_core::api::{Flipc, LocalEndpoint, Received};
use flipc_core::buffer::BufferToken;
use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointAddress, EndpointType, FlipcNodeId, Importance};
use flipc_core::error::FlipcError;
use flipc_core::layout::Geometry;
use flipc_core::sync::atomic::Ordering;
use flipc_core::wait::WaitRegistry;
use flipc_engine::{
    fabric, spawn_engine, Engine, EngineConfig, EngineHandle, EngineStats, Transport,
};
use flipc_net::{
    udp_transport, MonotonicClock, NetConfig, NetStats, NetTransport, NodeAddr, NodeMap, UdpLink,
};

use crate::hist::Histogram;
use crate::procfs;
use crate::trace::{self, Name, Probe, TracedLink, TracedTransport};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PingpongLoopback,
    PingpongUdp,
    StreamUdp,
    RpcThreaded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PingpongLoopback,
        Workload::PingpongUdp,
        Workload::StreamUdp,
        Workload::RpcThreaded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongLoopback => "pingpong_loopback",
            Workload::PingpongUdp => "pingpong_udp",
            Workload::StreamUdp => "stream_udp",
            Workload::RpcThreaded => "rpc_threaded",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The geometry of every communication buffer the workload builds.
    pub fn geometry(self) -> Geometry {
        match self {
            // 512-byte messages, the top of the paper's 50-500 B range.
            // Rings of 64 let one engine pass (incoming budget 64) land
            // without outrunning the stocked receive buffers.
            Workload::StreamUdp => Geometry {
                endpoints: 8,
                ring_capacity: STREAM_RING,
                buffers: 512,
                msg_size: 512,
            },
            // 120-byte payloads: the paper's Figure-4 point.
            _ => Geometry::small(),
        }
    }
}

const STREAM_RING: u32 = 64;
const STREAM_SENDERS: usize = 4;
/// Loopback fabric ring depth, as `ThreadedCluster` builds it.
const WIRE_DEPTH: usize = 256;
/// Receive buffers stocked per closed-loop inbox: one message is ever in
/// flight, so two keep a buffer queued however the re-provide races.
const CLOSED_LOOP_STOCK: usize = 2;
/// How long a closed loop waits for one message before the run fails.
const GIVE_UP: Duration = Duration::from_secs(2);

// ----------------------------------------------------------------------
// Inputs and output checks.
// ----------------------------------------------------------------------

const BODIES: usize = 64;
const HEADER: usize = 10;

/// Seeded payloads. A message carries its sequence number and sender in
/// its first ten bytes and one of 64 seeded bodies after them.
pub struct Inputs {
    bodies: Vec<Vec<u8>>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    pub fn new(seed: u64, payload: usize) -> Inputs {
        let mut state = seed;
        let bodies = (0..BODIES)
            .map(|_| (0..payload).map(|_| splitmix(&mut state) as u8).collect())
            .collect();
        Inputs { bodies }
    }

    fn body(&self, sender: u16, seq: u64) -> &[u8] {
        &self.bodies[(seq.wrapping_mul(31) + u64::from(sender)) as usize % BODIES][HEADER..]
    }

    fn fill(&self, buf: &mut [u8], sender: u16, seq: u64) {
        buf[..8].copy_from_slice(&seq.to_le_bytes());
        buf[8..HEADER].copy_from_slice(&sender.to_le_bytes());
        buf[HEADER..].copy_from_slice(self.body(sender, seq));
    }
}

/// Verifies every delivered message: the seeded bytes, the sender's
/// address, and per-sender order. A gap in a sender's sequence counts the
/// skipped messages as missing; an earlier sequence number than expected
/// is a reorder or duplicate, which counts as corrupt.
pub struct Checker {
    next: Vec<u64>,
    senders: Vec<EndpointAddress>,
    pub missing: u64,
    pub corrupt: u64,
    pub delivered: u64,
    /// Sender and sequence of each delivery, kept only when asked for.
    pub log: Option<Vec<(u16, u64)>>,
}

impl Checker {
    pub fn new(senders: Vec<EndpointAddress>, keep_log: bool) -> Checker {
        Checker {
            next: vec![0; senders.len()],
            senders,
            missing: 0,
            corrupt: 0,
            delivered: 0,
            log: keep_log.then(Vec::new),
        }
    }

    /// Checks one delivery; returns its sender and sequence number when
    /// the message is intact and in order.
    fn accept(
        &mut self,
        inputs: &Inputs,
        payload: &[u8],
        from: EndpointAddress,
    ) -> Option<(usize, u64)> {
        let seq = u64::from_le_bytes(payload[..8].try_into().expect("8-byte header"));
        let sender = u16::from_le_bytes(payload[8..HEADER].try_into().expect("2-byte header"));
        let k = usize::from(sender);
        let intact = self.senders.get(k) == Some(&from)
            && payload[HEADER..] == *inputs.body(sender, seq)
            && seq >= self.next[k];
        if !intact {
            self.corrupt += 1;
            return None;
        }
        self.missing += seq - self.next[k];
        self.next[k] = seq + 1;
        self.delivered += 1;
        if let Some(log) = &mut self.log {
            log.push((sender, seq));
        }
        Some((k, seq))
    }

    /// Counts every message a sender sent but the receiver never saw.
    fn settle(&mut self, sent: &[u64]) {
        for (next, &sent) in self.next.iter_mut().zip(sent) {
            self.missing += sent.saturating_sub(*next);
            *next = (*next).max(sent);
        }
    }
}

// ----------------------------------------------------------------------
// Measurement windows.
// ----------------------------------------------------------------------

/// Figures of one measurement window.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub p50_ns: Option<f64>,
    pub p99_ns: Option<f64>,
    pub msgs_per_s: f64,
    pub cpu_ns_per_msg: Option<f64>,
}

/// Cuts a measured phase into windows of fixed length, each with its own
/// latency histogram, rate and CPU time; the run reports medians over the
/// windows, so a burst of noise from outside moves one window, not the
/// figure.
pub struct Meter {
    hist: Histogram,
    windows: Vec<Window>,
    length: Duration,
    start: Instant,
    msgs: u64,
    cpu0: u64,
    /// Messages delivered since [`Meter::begin`].
    pub delivered: u64,
}

impl Meter {
    pub fn new(length: Duration, max_windows: usize) -> Meter {
        Meter {
            hist: Histogram::new(),
            windows: Vec::with_capacity(max_windows),
            length,
            start: Instant::now(),
            msgs: 0,
            cpu0: 0,
            delivered: 0,
        }
    }

    /// Starts measuring: drops what warm-up recorded.
    pub fn begin(&mut self) {
        self.hist.clear();
        self.windows.clear();
        self.msgs = 0;
        self.delivered = 0;
        self.cpu0 = procfs::process_cpu_ns();
        self.start = Instant::now();
    }

    fn record(&mut self, latency_ns: u64) {
        self.hist.record(latency_ns);
        self.msgs += 1;
        self.delivered += 1;
    }

    fn roll(&mut self, now: Instant) {
        if now.duration_since(self.start) >= self.length {
            self.close(now);
        }
    }

    fn close(&mut self, now: Instant) {
        let secs = now.duration_since(self.start).as_secs_f64();
        let cpu = procfs::process_cpu_ns();
        let latency = |q| (self.hist.count() > 0).then(|| self.hist.quantile(q));
        let window = Window {
            p50_ns: latency(0.5),
            p99_ns: latency(0.99),
            msgs_per_s: self.msgs as f64 / secs,
            cpu_ns_per_msg: (self.msgs > 0)
                .then(|| cpu.saturating_sub(self.cpu0) as f64 / self.msgs as f64),
        };
        if self.windows.len() < self.windows.capacity() {
            self.windows.push(window);
        }
        self.hist.clear();
        self.msgs = 0;
        self.cpu0 = cpu;
        self.start = now;
    }

    /// Ends the phase. A phase too short for one whole window becomes one
    /// window; otherwise the partial tail is dropped.
    pub fn finish(&mut self) -> Vec<Window> {
        if self.windows.is_empty() {
            self.close(Instant::now());
        }
        self.windows.clone()
    }
}

/// When a measured phase ends.
#[derive(Clone, Copy)]
pub struct Until {
    deadline: Option<Instant>,
    /// Messages each sender sends at most.
    per_sender: u64,
    /// End early once the span memory is full.
    trace_full: bool,
}

impl Until {
    pub fn time(d: Duration) -> Until {
        Until {
            deadline: Some(Instant::now() + d),
            per_sender: u64::MAX,
            trace_full: false,
        }
    }

    #[cfg(test)]
    pub fn messages(per_sender: u64) -> Until {
        Until {
            deadline: None,
            per_sender,
            trace_full: false,
        }
    }

    pub fn or_trace_full(self) -> Until {
        Until {
            trace_full: true,
            ..self
        }
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d) || (self.trace_full && trace::full())
    }
}

// ----------------------------------------------------------------------
// Fixtures.
// ----------------------------------------------------------------------

/// Engine and transport counters, summed over a fixture's nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub sent: u64,
    pub delivered: u64,
    pub dropped_no_buffer: u64,
    pub misaddressed: u64,
    pub check_failures: u64,
    pub denied: u64,
    pub peer_down: u64,
    pub iterations: u64,
    /// `Flipc::drops` over every endpoint.
    pub endpoint_drops: u64,
    pub net_sent: u64,
    pub net_delivered: u64,
    pub net_failed: u64,
    pub net_out_of_window: u64,
    pub net_retransmitted: u64,
    pub net_dup_dropped: u64,
    pub net_credit_stalls: u64,
}

impl Counts {
    /// The discards `EngineStats` records: no buffer, misaddressed, check
    /// failure, denied and peer down.
    pub fn discards(&self) -> u64 {
        self.dropped_no_buffer
            + self.misaddressed
            + self.check_failures
            + self.denied
            + self.peer_down
    }

    fn add_engine(&mut self, s: &EngineStats) {
        let r = |c: &flipc_core::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        self.sent += r(&s.sent);
        self.delivered += r(&s.delivered);
        self.dropped_no_buffer += r(&s.dropped_no_buffer);
        self.misaddressed += r(&s.misaddressed);
        self.check_failures += r(&s.check_failures);
        self.denied += r(&s.denied);
        self.peer_down += r(&s.peer_down);
        self.iterations += r(&s.iterations);
    }

    fn add_net(&mut self, s: &NetStats) {
        for p in &s.peers {
            self.net_sent += u64::from(p.sent.read());
            self.net_delivered += u64::from(p.delivered.read());
            self.net_failed += u64::from(p.failed.read());
            self.net_out_of_window += u64::from(p.out_of_window.read());
            self.net_retransmitted += u64::from(p.retransmitted.read());
            self.net_dup_dropped += u64::from(p.dup_dropped.read());
            self.net_credit_stalls += u64::from(p.credit_stalls.read());
        }
    }

    fn add_drops(&mut self, app: &Flipc, eps: &[&LocalEndpoint]) {
        for ep in eps {
            self.endpoint_drops += u64::from(app.drops(ep).unwrap_or(0));
        }
    }

    pub fn minus(&self, base: &Counts) -> Counts {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counts {
            sent: d(self.sent, base.sent),
            delivered: d(self.delivered, base.delivered),
            dropped_no_buffer: d(self.dropped_no_buffer, base.dropped_no_buffer),
            misaddressed: d(self.misaddressed, base.misaddressed),
            check_failures: d(self.check_failures, base.check_failures),
            denied: d(self.denied, base.denied),
            peer_down: d(self.peer_down, base.peer_down),
            iterations: d(self.iterations, base.iterations),
            endpoint_drops: d(self.endpoint_drops, base.endpoint_drops),
            net_sent: d(self.net_sent, base.net_sent),
            net_delivered: d(self.net_delivered, base.net_delivered),
            net_failed: d(self.net_failed, base.net_failed),
            net_out_of_window: d(self.net_out_of_window, base.net_out_of_window),
            net_retransmitted: d(self.net_retransmitted, base.net_retransmitted),
            net_dup_dropped: d(self.net_dup_dropped, base.net_dup_dropped),
            net_credit_stalls: d(self.net_credit_stalls, base.net_credit_stalls),
        }
    }
}

/// What a workload loop needs besides its fixture.
pub struct Ctx<'a> {
    pub inputs: &'a Inputs,
    pub check: Checker,
    pub meter: Meter,
}

/// A workload's fixture and loop.
pub trait Fixture: Sized {
    /// Builds the nodes, allocates endpoints and stocks receive buffers.
    fn setup(workload: Workload, traced: bool) -> io::Result<Self>;
    /// Addresses of the sending endpoints, indexed by sender id.
    fn senders(&self) -> Vec<EndpointAddress>;
    /// Runs the workload until `until` says stop.
    fn run<P: Probe>(&mut self, p: P, ctx: &mut Ctx, until: Until) -> Result<(), String>;
    /// Delivers whatever is still in flight, then counts the rest missing.
    /// A closed loop has nothing in flight between messages.
    fn drain(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        ctx.check.settle(&self.sent());
        Ok(())
    }
    fn counts(&self) -> Counts;
    /// Messages each sender has sent.
    fn sent(&self) -> Vec<u64>;
}

struct Node {
    app: Flipc,
    engine: Engine,
    stats: Arc<EngineStats>,
}

fn attach(node: u16, geo: Geometry) -> (Arc<CommBuffer>, Arc<WaitRegistry>, Flipc) {
    let cb = Arc::new(CommBuffer::new(geo).expect("workload geometries are valid"));
    let registry = WaitRegistry::new();
    let app = Flipc::attach(cb.clone(), FlipcNodeId(node), registry.clone());
    (cb, registry, app)
}

fn inline_node(node: u16, geo: Geometry, transport: Box<dyn Transport>) -> Node {
    let (cb, registry, app) = attach(node, geo);
    let engine = Engine::new(cb, transport, registry, EngineConfig::default());
    let stats = engine.stats();
    Node { app, engine, stats }
}

fn io_err(e: FlipcError) -> io::Error {
    io::Error::other(e.to_string())
}

fn endpoint(app: &Flipc, ty: EndpointType) -> io::Result<LocalEndpoint> {
    app.endpoint_allocate(ty, Importance::Normal)
        .map_err(io_err)
}

fn stock(app: &Flipc, ep: &LocalEndpoint, n: usize) -> io::Result<()> {
    for _ in 0..n {
        let t = app.buffer_allocate().map_err(io_err)?;
        app.provide_receive_buffer_unlocked(ep, t)
            .map_err(|r| io_err(r.error))?;
    }
    Ok(())
}

/// The two UDP transports' counters; `None` on the loopback fabric.
type NetPair = Option<[Arc<NetStats>; 2]>;

/// Two nodes' transports: loopback fabric ports, or UDP transports bound
/// to ephemeral 127.0.0.1 ports. Node 1 is told node 0's address; node 0
/// learns node 1's from its first datagram, so node 1 speaks first.
fn pair_transports(
    workload: Workload,
    traced: bool,
) -> io::Result<([Box<dyn Transport>; 2], NetPair)> {
    if workload == Workload::PingpongLoopback {
        let mut ports = fabric(2, WIRE_DEPTH).into_iter();
        let mut next = || -> Box<dyn Transport> {
            let port = ports.next().expect("fabric(2) has two ports");
            if traced {
                Box::new(TracedTransport::loopback(port))
            } else {
                Box::new(port)
            }
        };
        return Ok(([next(), next()], None));
    }
    let local = SocketAddr::from(([127, 0, 0, 1], 0));
    let mut map0 = NodeMap::new();
    map0.insert(FlipcNodeId(0), NodeAddr::Static(local))
        .insert(FlipcNodeId(1), NodeAddr::Dynamic);
    let (t0, addr0, s0) = udp_node(&map0, FlipcNodeId(0), traced)?;
    let mut map1 = NodeMap::new();
    map1.insert(FlipcNodeId(1), NodeAddr::Static(local))
        .insert(FlipcNodeId(0), NodeAddr::Static(addr0));
    let (t1, _, s1) = udp_node(&map1, FlipcNodeId(1), traced)?;
    Ok(([t0, t1], Some([s0, s1])))
}

/// One UDP transport: `udp_transport` untraced, or the same parts
/// (`UdpLink::bind`, `NetTransport::new`, `MonotonicClock`) with timing
/// adapters around the link and the transport.
fn udp_node(
    map: &NodeMap,
    local: FlipcNodeId,
    traced: bool,
) -> io::Result<(Box<dyn Transport>, SocketAddr, Arc<NetStats>)> {
    if traced {
        let link = UdpLink::bind(map, local)?;
        let addr = link.local_addr()?;
        let peers: Vec<FlipcNodeId> = map.nodes().filter(|&n| n != local).collect();
        let t = NetTransport::new(
            local,
            &peers,
            TracedLink(link),
            MonotonicClock::new(),
            NetConfig::default(),
        );
        let stats = t.stats();
        Ok((Box::new(TracedTransport::net(t)), addr, stats))
    } else {
        let t = udp_transport(map, local, NetConfig::default())?;
        let addr = t.link().local_addr()?;
        let stats = t.stats();
        Ok((Box::new(t), addr, stats))
    }
}

fn inline_pair(workload: Workload, traced: bool) -> io::Result<([Node; 2], NetPair)> {
    let geo = workload.geometry();
    let ([t0, t1], net) = pair_transports(workload, traced)?;
    let mut nodes = [inline_node(0, geo, t0), inline_node(1, geo, t1)];
    if let Some(net) = &net {
        for (node, stats) in nodes.iter_mut().zip(net) {
            node.app.set_liveness(stats.liveness.clone());
        }
    }
    Ok((nodes, net))
}

fn net_counts(c: &mut Counts, net: &NetPair) {
    for s in net.iter().flatten() {
        c.add_net(s);
    }
}

fn recv_hit(r: &Result<Option<Received>, FlipcError>) -> u32 {
    matches!(r, Ok(Some(_))).into()
}

// ----------------------------------------------------------------------
// pingpong_loopback and pingpong_udp.
// ----------------------------------------------------------------------

/// Two inline nodes bouncing one message at a time; node `i` sends from
/// `send[i]` to the other node's `recv`.
pub struct Pingpong {
    nodes: [Node; 2],
    send: [LocalEndpoint; 2],
    recv: [LocalEndpoint; 2],
    net: NetPair,
    rounds: u64,
}

impl Fixture for Pingpong {
    fn setup(workload: Workload, traced: bool) -> io::Result<Pingpong> {
        let (nodes, net) = inline_pair(workload, traced)?;
        let mut send = Vec::new();
        let mut recv = Vec::new();
        for n in &nodes {
            send.push(endpoint(&n.app, EndpointType::Send)?);
            let r = endpoint(&n.app, EndpointType::Receive)?;
            stock(&n.app, &r, CLOSED_LOOP_STOCK)?;
            recv.push(r);
        }
        let pair =
            |v: Vec<LocalEndpoint>| -> [LocalEndpoint; 2] { v.try_into().expect("two nodes") };
        Ok(Pingpong {
            nodes,
            send: pair(send),
            recv: pair(recv),
            net,
            rounds: 0,
        })
    }

    fn senders(&self) -> Vec<EndpointAddress> {
        (0..2)
            .map(|i| self.nodes[i].app.address(&self.send[i]))
            .collect()
    }

    fn run<P: Probe>(&mut self, p: P, ctx: &mut Ctx, until: Until) -> Result<(), String> {
        while self.rounds < until.per_sender {
            // Node 1 first: node 0 learns node 1's UDP address from it.
            for i in [1, 0] {
                let latency = self.one_way(p, ctx, i)?;
                ctx.meter.record(latency);
            }
            self.rounds += 1;
            ctx.meter.roll(Instant::now());
            if until.expired() {
                break;
            }
        }
        Ok(())
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for (i, n) in self.nodes.iter().enumerate() {
            c.add_engine(&n.stats);
            c.add_drops(&n.app, &[&self.send[i], &self.recv[i]]);
        }
        net_counts(&mut c, &self.net);
        c
    }

    fn sent(&self) -> Vec<u64> {
        vec![self.rounds; 2]
    }
}

impl Pingpong {
    /// Sends one message from node `i` to the other node, pumping both
    /// engines inline until it arrives; returns its one-way latency.
    fn one_way<P: Probe>(&mut self, p: P, ctx: &mut Ctx, i: usize) -> Result<u64, String> {
        let j = 1 - i;
        let [n0, n1] = &mut self.nodes;
        let (a, b) = if i == 0 { (n0, n1) } else { (n1, n0) };
        let (send, recv) = (&self.send[i], &self.recv[j]);
        let dest = b.app.address(recv);
        let seq = self.rounds;
        p.seq(seq);
        let mut token = p
            .span(Name::Alloc, || a.app.buffer_allocate(), |_| 0)
            .map_err(|e| e.to_string())?;
        ctx.inputs
            .fill(a.app.payload_mut(&mut token), i as u16, seq);
        let t0 = Instant::now();
        p.span(Name::Send, || a.app.send_unlocked(send, token, dest), |_| 0)
            .map_err(|r| r.error.to_string())?;
        let mut polls = 0u32;
        let got = loop {
            p.span(Name::Iterate, || a.engine.iterate(), |&w| w);
            p.span(Name::Iterate, || b.engine.iterate(), |&w| w);
            if let Some(got) = p
                .span(Name::Recv, || b.app.recv_unlocked(recv), recv_hit)
                .map_err(|e| e.to_string())?
            {
                break got;
            }
            polls += 1;
            if polls.is_multiple_of(1024) && t0.elapsed() > GIVE_UP {
                return Err(format!("message {seq} from node {i} never arrived"));
            }
        };
        let latency = t0.elapsed().as_nanos() as u64;
        ctx.check
            .accept(ctx.inputs, b.app.payload(&got.token), got.from);
        p.span(
            Name::Provide,
            || b.app.provide_receive_buffer_unlocked(recv, got.token),
            |_| 0,
        )
        .map_err(|r| r.error.to_string())?;
        while let Some(t) = p
            .span(Name::Reclaim, || a.app.reclaim_send_unlocked(send), |_| 0)
            .map_err(|e| e.to_string())?
        {
            p.span(Name::Free, || a.app.buffer_free(t), |_| 0);
        }
        Ok(latency)
    }
}

// ----------------------------------------------------------------------
// stream_udp.
// ----------------------------------------------------------------------

/// Send-time slots per sender, indexed by sequence number; it bounds how
/// far a sender may run ahead of the receiver.
const STAMPS: u64 = 1024;

/// Four send endpoints on node 1 streaming into one receive endpoint on
/// node 0 over UDP, both engines pumped inline.
pub struct Stream {
    nodes: [Node; 2],
    send: Vec<LocalEndpoint>,
    recv: LocalEndpoint,
    net: NetPair,
    next: [u64; STREAM_SENDERS],
    in_ring: [u32; STREAM_SENDERS],
    spare: Vec<BufferToken>,
    stamps: Vec<u64>,
    epoch: Instant,
}

impl Fixture for Stream {
    fn setup(workload: Workload, traced: bool) -> io::Result<Stream> {
        let (nodes, net) = inline_pair(workload, traced)?;
        let recv = endpoint(&nodes[0].app, EndpointType::Receive)?;
        stock(&nodes[0].app, &recv, STREAM_RING as usize)?;
        let send = (0..STREAM_SENDERS)
            .map(|_| endpoint(&nodes[1].app, EndpointType::Send))
            .collect::<io::Result<_>>()?;
        Ok(Stream {
            nodes,
            send,
            recv,
            net,
            next: [0; STREAM_SENDERS],
            in_ring: [0; STREAM_SENDERS],
            spare: Vec::with_capacity(STREAM_SENDERS * STREAM_RING as usize),
            stamps: vec![0; STREAM_SENDERS * STAMPS as usize],
            epoch: Instant::now(),
        })
    }

    fn senders(&self) -> Vec<EndpointAddress> {
        self.send
            .iter()
            .map(|ep| self.nodes[1].app.address(ep))
            .collect()
    }

    fn run<P: Probe>(&mut self, p: P, ctx: &mut Ctx, until: Until) -> Result<(), String> {
        loop {
            let sending = self.pass(p, ctx, until.per_sender)?;
            ctx.meter.roll(Instant::now());
            if !sending || until.expired() {
                return Ok(());
            }
        }
    }

    fn drain(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let start = Instant::now();
        while self.next.iter().zip(&ctx.check.next).any(|(s, r)| s > r) && start.elapsed() < GIVE_UP
        {
            self.pass(trace::Off, ctx, 0)?;
        }
        ctx.check.settle(&self.sent());
        Ok(())
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for n in &self.nodes {
            c.add_engine(&n.stats);
        }
        c.add_drops(&self.nodes[0].app, &[&self.recv]);
        c.add_drops(&self.nodes[1].app, &self.send.iter().collect::<Vec<_>>());
        net_counts(&mut c, &self.net);
        c
    }

    fn sent(&self) -> Vec<u64> {
        self.next.to_vec()
    }
}

impl Stream {
    /// One pass: refill each sender's ring up to `limit` messages per
    /// sender, run both engines once, and take in everything delivered.
    /// Returns whether any sender is still below its limit.
    fn pass<P: Probe>(&mut self, p: P, ctx: &mut Ctx, limit: u64) -> Result<bool, String> {
        let [rx, tx] = &mut self.nodes;
        let mut sending = false;
        for (k, ep) in self.send.iter().enumerate() {
            while let Some(t) = p
                .span(
                    Name::Reclaim,
                    || tx.app.reclaim_send_unlocked(ep),
                    |r| matches!(r, Ok(Some(_))).into(),
                )
                .map_err(|e| e.to_string())?
            {
                self.in_ring[k] -= 1;
                self.spare.push(t);
            }
            sending |= self.next[k] < limit;
            while self.next[k] < limit
                && self.in_ring[k] < STREAM_RING
                && self.next[k] - ctx.check.next[k] < STAMPS
            {
                let mut token = match self.spare.pop() {
                    Some(t) => t,
                    None => p
                        .span(Name::Alloc, || tx.app.buffer_allocate(), |_| 0)
                        .map_err(|e| e.to_string())?,
                };
                let seq = self.next[k];
                p.seq(seq);
                ctx.inputs
                    .fill(tx.app.payload_mut(&mut token), k as u16, seq);
                let dest = rx.app.address(&self.recv);
                self.stamps[k * STAMPS as usize + (seq % STAMPS) as usize] =
                    self.epoch.elapsed().as_nanos() as u64;
                p.span(Name::Send, || tx.app.send_unlocked(ep, token, dest), |_| 0)
                    .map_err(|r| r.error.to_string())?;
                self.in_ring[k] += 1;
                self.next[k] += 1;
            }
        }
        p.span(Name::Iterate, || tx.engine.iterate(), |&w| w);
        p.span(Name::Iterate, || rx.engine.iterate(), |&w| w);
        while let Some(got) = p
            .span(Name::Recv, || rx.app.recv_unlocked(&self.recv), recv_hit)
            .map_err(|e| e.to_string())?
        {
            let now = self.epoch.elapsed().as_nanos() as u64;
            if let Some((k, seq)) =
                ctx.check
                    .accept(ctx.inputs, rx.app.payload(&got.token), got.from)
            {
                let sent_at = self.stamps[k * STAMPS as usize + (seq % STAMPS) as usize];
                ctx.meter.record(now.saturating_sub(sent_at));
            }
            p.span(
                Name::Provide,
                || {
                    rx.app
                        .provide_receive_buffer_unlocked(&self.recv, got.token)
                },
                |_| 0,
            )
            .map_err(|r| r.error.to_string())?;
        }
        Ok(sending)
    }
}

// ----------------------------------------------------------------------
// rpc_threaded.
// ----------------------------------------------------------------------

/// One node whose engine runs on its `spawn_engine` thread; the benchmark
/// thread sends to a receive endpoint on the same node and blocks in
/// `recv_blocking` for it.
pub struct Rpc {
    app: Flipc,
    engine: EngineHandle,
    send: LocalEndpoint,
    recv: LocalEndpoint,
    sent: u64,
    pinned: bool,
}

/// The name `spawn_engine` gives the engine thread of node 0.
pub const ENGINE_THREAD: &str = "flipc-engine-0";

/// Puts the calling thread on CPU 0 and the engine thread on CPU 1, the
/// paper's arrangement of an application processor beside a dedicated
/// message coprocessor. Left to the scheduler, the two threads sometimes
/// share a CPU, where the engine's `yield_now` hands the woken receiver the
/// CPU directly: a different, 2.4 times faster wake path that would flip
/// runs between two figures. On a single CPU the kernel refuses CPU 1 and
/// the engine thread stays where it is.
fn pin_apart() {
    // A new thread names itself when it first runs, which can wait until
    // this thread sleeps: it starts on this thread's CPU.
    let engine = (0..100).find_map(|_| {
        procfs::thread_named(ENGINE_THREAD).or_else(|| {
            std::thread::sleep(Duration::from_millis(1));
            None
        })
    });
    if let (Some(app), Some(engine)) = (procfs::current_thread(), engine) {
        procfs::pin(&app, 0);
        procfs::pin(&engine, 1);
    }
}

impl Fixture for Rpc {
    fn setup(workload: Workload, _traced: bool) -> io::Result<Rpc> {
        let (cb, registry, app) = attach(0, workload.geometry());
        let port = fabric(1, WIRE_DEPTH).pop().expect("fabric(1) has one port");
        let engine = spawn_engine(Engine::new(
            cb,
            Box::new(port),
            registry,
            EngineConfig::default(),
        ));
        let send = endpoint(&app, EndpointType::Send)?;
        let recv = endpoint(&app, EndpointType::Receive)?;
        stock(&app, &recv, CLOSED_LOOP_STOCK)?;
        Ok(Rpc {
            app,
            engine,
            send,
            recv,
            sent: 0,
            pinned: false,
        })
    }

    fn senders(&self) -> Vec<EndpointAddress> {
        vec![self.app.address(&self.send)]
    }

    fn run<P: Probe>(&mut self, p: P, ctx: &mut Ctx, until: Until) -> Result<(), String> {
        if !self.pinned {
            self.pinned = true;
            pin_apart();
        }
        let dest = self.app.address(&self.recv);
        while self.sent < until.per_sender {
            let seq = self.sent;
            p.seq(seq);
            let app = &self.app;
            let mut token = p
                .span(Name::Alloc, || app.buffer_allocate(), |_| 0)
                .map_err(|e| e.to_string())?;
            ctx.inputs.fill(app.payload_mut(&mut token), 0, seq);
            let t0 = Instant::now();
            p.span(
                Name::Send,
                || app.send_unlocked(&self.send, token, dest),
                |_| 0,
            )
            .map_err(|r| r.error.to_string())?;
            self.sent += 1;
            let got = p
                .span(
                    Name::RecvBlocking,
                    || app.recv_blocking(&self.recv, GIVE_UP),
                    |_| 0,
                )
                .map_err(|e| format!("message {seq}: {e}"))?;
            let now = Instant::now();
            ctx.meter.record(now.duration_since(t0).as_nanos() as u64);
            ctx.check
                .accept(ctx.inputs, app.payload(&got.token), got.from);
            p.span(
                Name::Provide,
                || app.provide_receive_buffer_unlocked(&self.recv, got.token),
                |_| 0,
            )
            .map_err(|r| r.error.to_string())?;
            while let Some(t) = p
                .span(
                    Name::Reclaim,
                    || app.reclaim_send_unlocked(&self.send),
                    |_| 0,
                )
                .map_err(|e| e.to_string())?
            {
                p.span(Name::Free, || app.buffer_free(t), |_| 0);
            }
            ctx.meter.roll(now);
            if until.expired() {
                break;
            }
        }
        Ok(())
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        c.add_engine(self.engine.stats());
        c.add_drops(&self.app, &[&self.send, &self.recv]);
        c
    }

    fn sent(&self) -> Vec<u64> {
        vec![self.sent]
    }
}
