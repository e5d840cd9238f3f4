//! `flipc-top`: a live inspector for a FLIPC node pair.
//!
//! Drives a two-node demo (in-process loopback fabric by default,
//! `--udp` for real `127.0.0.1` sockets through `flipc-net`'s
//! reliability layer), harvests telemetry and trace snapshots on an
//! interval, and renders what an operator needs: per-endpoint p50/p99
//! deliver latency, event rates, drop/retransmit counts, the per-peer
//! lifecycle table (liveness verdict, SRTT/RTTVAR estimator state,
//! current RTO, session epoch), and live stall reports from the
//! trace-gap analyzer.
//!
//! ```text
//! flipc-top [--interval MS] [--ticks N] [--once] [--json]
//!           [--inject-stall] [--udp] [--workload] [--cluster]
//!           [--stall-threshold MS] [--trace-out FILE] [--listen ADDR]
//! ```
//!
//! * `--once --json` — headless mode for CI: run a short window, emit one
//!   JSON document (timeline, stall reports, exposition page) to stdout.
//! * `--inject-stall` — freeze the engine pump mid-run with messages
//!   queued, so the stall analyzer has something real to attribute.
//! * `--cluster` — the cross-process mode: spawn two real OS processes,
//!   each running one engine over UDP with its own exposition server,
//!   scrape both expositions live ([`flipc_obs::ClusterScraper`]), and at
//!   the end merge the two trace timelines onto node 0's clock using the
//!   transport's wire-measured offset estimate
//!   ([`flipc_obs::merge`]) — cross-node send→deliver chains come out
//!   with dispersion-derived error bars, and per-node stall reports are
//!   ranked into a cluster bottleneck table. With `--inject-stall` the
//!   freeze happens inside the node-1 child, and the ranking must name
//!   it. (The children are re-invocations of this binary with the hidden
//!   `--cluster-node` flag.)
//! * `--workload` — drive the seeded pub-sub broadcast workload over the
//!   chaos cluster instead of the engine demo: workload-level trace
//!   events flow through the same timeline and stall analysis, and the
//!   exposition page carries the `flipc_workload_*` metric family. Fully
//!   deterministic (manual clock, pinned seed) — reruns are identical.
//! * `--trace-out FILE` — also write the raw trace events as text.
//! * `--listen ADDR` — serve the Prometheus-style exposition over HTTP
//!   while the demo runs (e.g. `--listen 127.0.0.1:9464`).
//!
//! The engines stay untouched by all of this: the inspector is strictly a
//! consumer of the wait-free recorders (trace rings, telemetry
//! histograms, transport counters).

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flipc_core::api::{Flipc, LocalEndpoint};
use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointAddress, EndpointType, FlipcNodeId, Importance};
use flipc_core::inspect::PeerLiveness;
use flipc_core::layout::Geometry;
use flipc_core::wait::WaitRegistry;
use flipc_engine::engine::{Engine, EngineConfig};
use flipc_engine::loopback::fabric;
use flipc_net::demo::loopback_udp_pair;
use flipc_net::{udp_transport, NetConfig, NodeAddr, NodeMap};
use flipc_obs::json::Value;
use flipc_obs::merge::{events_from_json, merge, MergedTimeline, NodeInput};
use flipc_obs::stall::{rank_nodes, scan, NodeStallRank, StallConfig, StallReport};
use flipc_obs::timeline::{Timeline, TimelineBuilder};
use flipc_obs::trace::TraceEvent;
use flipc_obs::{
    expose_engine, expose_trace_lost, expose_transport, merge_pages, sample_value, ClusterScraper,
    EngineTelemetry, EngineTelemetrySnapshot, ExpoServer, Exposition, TraceReader,
};

/// Version of the `--once --json` document shape. Bump when a section is
/// added or reshaped; the golden tests below lock the rendering.
const SCHEMA: u64 = 3;

/// Command-line options.
struct Opts {
    interval: Duration,
    ticks: u32,
    json: bool,
    inject_stall: bool,
    udp: bool,
    workload: bool,
    cluster: bool,
    /// Hidden: this invocation IS a cluster child running the given node.
    cluster_node: Option<u16>,
    /// Hidden (node-1 child): the node-0 child's bound UDP address.
    peer_addr: Option<SocketAddr>,
    /// Hidden (node-1 child): the node-0 child's packed inbox address.
    peer_inbox: Option<u64>,
    /// Hidden (children): how long to run the traffic loop.
    run_ms: u64,
    stall_threshold: Duration,
    trace_out: Option<String>,
    listen: Option<String>,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            interval: Duration::from_millis(250),
            ticks: 8,
            json: false,
            inject_stall: false,
            udp: false,
            workload: false,
            cluster: false,
            cluster_node: None,
            peer_addr: None,
            peer_inbox: None,
            run_ms: 0,
            stall_threshold: Duration::from_millis(150),
            trace_out: None,
            listen: None,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--once" => opts.ticks = 2,
            "--json" => opts.json = true,
            "--inject-stall" => opts.inject_stall = true,
            "--udp" => opts.udp = true,
            "--workload" => opts.workload = true,
            "--cluster" => opts.cluster = true,
            "--cluster-node" => {
                i += 1;
                opts.cluster_node = Some(parse_num(&args, i, "--cluster-node") as u16);
            }
            "--peer-addr" => {
                i += 1;
                let raw = expect_arg(&args, i, "--peer-addr");
                opts.peer_addr = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("flipc-top: --peer-addr needs HOST:PORT");
                    std::process::exit(2);
                }));
            }
            "--peer-inbox" => {
                i += 1;
                opts.peer_inbox = Some(parse_num(&args, i, "--peer-inbox"));
            }
            "--run-ms" => {
                i += 1;
                opts.run_ms = parse_num(&args, i, "--run-ms");
            }
            "--interval" => {
                i += 1;
                opts.interval = Duration::from_millis(parse_num(&args, i, "--interval"));
            }
            "--ticks" => {
                i += 1;
                opts.ticks = parse_num(&args, i, "--ticks") as u32;
            }
            "--stall-threshold" => {
                i += 1;
                opts.stall_threshold =
                    Duration::from_millis(parse_num(&args, i, "--stall-threshold"));
            }
            "--trace-out" => {
                i += 1;
                opts.trace_out = Some(expect_arg(&args, i, "--trace-out"));
            }
            "--listen" => {
                i += 1;
                opts.listen = Some(expect_arg(&args, i, "--listen"));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: flipc-top [--interval MS] [--ticks N] [--once] [--json]\n       \
                     [--inject-stall] [--udp] [--workload] [--cluster]\n       \
                     [--stall-threshold MS] [--trace-out FILE] [--listen ADDR]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("flipc-top: unknown flag {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    run(&opts)
}

fn expect_arg(args: &[String], i: usize, flag: &str) -> String {
    args.get(i).cloned().unwrap_or_else(|| {
        eprintln!("flipc-top: {flag} needs a value");
        std::process::exit(2);
    })
}

fn parse_num(args: &[String], i: usize, flag: &str) -> u64 {
    expect_arg(args, i, flag).parse().unwrap_or_else(|_| {
        eprintln!("flipc-top: {flag} needs a number");
        std::process::exit(2);
    })
}

/// One demo node: application handle, inline-pumped engine, and the
/// observer-side taps (trace reader, telemetry, scan carry state).
struct DemoNode {
    app: Flipc,
    engine: Engine,
    tx: LocalEndpoint,
    rx: LocalEndpoint,
    reader: TraceReader,
    telemetry: Arc<EngineTelemetry>,
    /// Per-node last-event stamps carried across drains so a stall
    /// spanning two ticks is still one gap.
    carry: Vec<(u16, u64)>,
    /// Telemetry merged across ticks (for the final p50/p99 rendering).
    accum: Option<EngineTelemetrySnapshot>,
    /// Cumulative retransmitted-frame count at the last tick, for deltas.
    prev_retransmitted: u64,
    lost: u64,
}

impl DemoNode {
    fn new(app: Flipc, mut engine: Engine) -> DemoNode {
        let reader = engine.install_trace(8192);
        let telemetry = engine.telemetry();
        let tx = app
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .expect("allocate send endpoint");
        let rx = app
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .expect("allocate receive endpoint");
        DemoNode {
            app,
            engine,
            tx,
            rx,
            reader,
            telemetry,
            carry: Vec::new(),
            accum: None,
            prev_retransmitted: 0,
            lost: 0,
        }
    }
}

fn geometry() -> Geometry {
    Geometry {
        ring_capacity: 32,
        buffers: 128,
        ..Geometry::small()
    }
}

/// Builds the two demo nodes on the chosen transport.
fn build_nodes(udp: bool) -> Vec<DemoNode> {
    let geo = geometry();
    let mk = |id: u16, transport: Box<dyn flipc_engine::transport::Transport>| {
        let cb = Arc::new(CommBuffer::new(geo).expect("geometry"));
        let registry = WaitRegistry::new();
        let app = Flipc::attach(cb.clone(), FlipcNodeId(id), registry.clone());
        DemoNode::new(
            app,
            Engine::new(cb, transport, registry, EngineConfig::default()),
        )
    };
    if udp {
        let (t0, t1) = loopback_udp_pair(NetConfig::default()).expect("bind loopback UDP pair");
        vec![mk(0, Box::new(t0)), mk(1, Box::new(t1))]
    } else {
        let mut ports = fabric(2, 256);
        let p1 = ports.pop().expect("port 1");
        let p0 = ports.pop().expect("port 0");
        vec![mk(0, Box::new(p0)), mk(1, Box::new(p1))]
    }
}

/// Tops up both receive rings from the buffer pools.
fn stock_receivers(nodes: &mut [DemoNode]) {
    for n in nodes.iter_mut() {
        while let Ok(buf) = n.app.buffer_allocate() {
            match n.app.provide_receive_buffer_unlocked(&n.rx, buf) {
                Ok(()) => {}
                Err(r) => {
                    n.app.buffer_free(r.token);
                    break;
                }
            }
        }
    }
}

/// One ping-pong round: node 0 pings node 1, node 1 pongs back. With the
/// UDP transport a hop needs several engine passes, so each receive polls
/// a bounded pump loop. In demo traffic a dropped round is fine — the
/// engines' own counters record it.
///
/// `pinger` pings `ponger`, who echoes back. Over UDP the pinger must be
/// node 1: node 0's routing entry for node 1 is `Dynamic`, learned from
/// the first datagram node 1 sends, so traffic has to originate there.
fn round(
    nodes: &mut [DemoNode],
    pinger: usize,
    ponger: usize,
    to_ponger: EndpointAddress,
    to_pinger: EndpointAddress,
) {
    stock_receivers(nodes);
    for n in nodes.iter_mut() {
        while let Ok(Some(tok)) = n.app.reclaim_send_unlocked(&n.tx) {
            n.app.buffer_free(tok);
        }
    }
    if let Ok(buf) = nodes[pinger].app.buffer_allocate() {
        if let Err(r) = nodes[pinger]
            .app
            .send_unlocked(&nodes[pinger].tx, buf, to_ponger)
        {
            nodes[pinger].app.buffer_free(r.token);
            return;
        }
    }
    for _ in 0..128 {
        for n in nodes.iter_mut() {
            n.engine.iterate();
        }
        if let Ok(Some(got)) = nodes[ponger].app.recv_unlocked(&nodes[ponger].rx) {
            let _ = nodes[ponger]
                .app
                .send_unlocked(&nodes[ponger].tx, got.token, to_pinger);
        }
        if let Ok(Some(back)) = nodes[pinger].app.recv_unlocked(&nodes[pinger].rx) {
            nodes[pinger].app.buffer_free(back.token);
            return;
        }
    }
}

/// Queues `count` pings on the pinger WITHOUT pumping any engine — the
/// backlog the stall analyzer should attribute the frozen interval to.
fn queue_burst(nodes: &mut [DemoNode], pinger: usize, to_ponger: EndpointAddress, count: usize) {
    stock_receivers(nodes);
    for _ in 0..count {
        let Ok(buf) = nodes[pinger].app.buffer_allocate() else {
            break;
        };
        if let Err(r) = nodes[pinger]
            .app
            .send_unlocked(&nodes[pinger].tx, buf, to_ponger)
        {
            nodes[pinger].app.buffer_free(r.token);
            break;
        }
    }
}

/// Everything one tick harvested, for rendering.
struct TickHarvest {
    stalls: Vec<StallReport>,
}

/// Drains every node's trace ring and telemetry, scans for stalls, and
/// folds the results into the long-lived builder/accumulators. Drained
/// events also accumulate in `all_events` — the raw feed behind
/// `--trace-out` and the cluster children's merged-timeline shipping.
fn harvest_tick(
    nodes: &mut [DemoNode],
    builder: &mut TimelineBuilder,
    all_events: &mut Vec<TraceEvent>,
    cfg: &StallConfig,
) -> TickHarvest {
    let mut stalls = Vec::new();
    let mut batch: Vec<TraceEvent> = Vec::with_capacity(4096);
    for n in nodes.iter_mut() {
        batch.clear();
        n.reader.drain_into(&mut batch);
        let lost = n.reader.lost();
        n.lost += lost;
        builder.note_lost(lost);
        let work = n.telemetry.harvest();
        let (retransmitted, suspects) = n
            .engine
            .transport_snapshot()
            .map(|s| {
                let r = s
                    .paths
                    .iter()
                    .map(|p| u64::from(p.retransmitted))
                    .sum::<u64>();
                let sus = s
                    .paths
                    .iter()
                    .filter(|p| p.liveness != PeerLiveness::Healthy)
                    .count() as u32;
                (r, sus)
            })
            .unwrap_or((0, 0));
        let delta = retransmitted.saturating_sub(n.prev_retransmitted);
        n.prev_retransmitted = retransmitted;
        stalls.extend(scan(
            &batch,
            &n.carry,
            &work.iteration_work,
            delta,
            suspects,
            cfg,
        ));
        for ev in &batch {
            match n.carry.iter_mut().find(|(node, _)| *node == ev.node) {
                Some((_, t)) => *t = ev.t_ns,
                None => n.carry.push((ev.node, ev.t_ns)),
            }
        }
        builder.ingest(&batch);
        all_events.extend_from_slice(&batch);
        match n.accum.as_mut() {
            None => n.accum = Some(work),
            Some(acc) => {
                acc.iteration_work.merge(&work.iteration_work);
                for (a, b) in acc.deliver_latency.iter_mut().zip(&work.deliver_latency) {
                    a.merge(b);
                }
            }
        }
    }
    TickHarvest { stalls }
}

/// Renders drained events one per line (the `--trace-out` format).
fn trace_text(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for ev in events {
        let _ = writeln!(out, "{ev}");
    }
    out
}

/// Renders the current exposition page from the accumulated state.
fn exposition(nodes: &[DemoNode]) -> String {
    let mut expo = Exposition::new();
    for (i, n) in nodes.iter().enumerate() {
        if let Some(acc) = &n.accum {
            expose_engine(&mut expo, i as u16, acc);
        }
        expose_trace_lost(&mut expo, i as u16, n.lost);
        if let Some(snap) = n.engine.transport_snapshot() {
            expose_transport(&mut expo, &snap);
        }
    }
    expo.render()
}

/// Renders the per-peer lifecycle table: failure-detector verdict, RTT
/// estimator state, currently armed RTO, and session epoch per path.
fn peer_table(nodes: &[DemoNode]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, n) in nodes.iter().enumerate() {
        let Some(snap) = n.engine.transport_snapshot() else {
            continue;
        };
        for p in &snap.paths {
            let _ = writeln!(
                out,
                "node {i} -> peer {}: {:7} srtt={} rttvar={} rto={} epoch={} \
                 in-flight={} credit={} stalls={} failed={}",
                p.peer.0,
                p.liveness.name(),
                p.srtt,
                p.rttvar,
                p.rto,
                p.epoch,
                p.in_flight,
                p.credit_window,
                p.credit_stalls,
                p.failed,
            );
        }
    }
    out
}

/// One structured lifecycle row for the JSON document. Split out from
/// [`peers_json`] so the golden test below can lock the row shape
/// (including the flow-control columns) without standing up an engine.
fn peer_row(node: u64, p: &flipc_core::inspect::PathSnapshot) -> Value {
    Value::object([
        ("node", Value::from(node)),
        ("peer", Value::from(u64::from(p.peer.0))),
        ("liveness", Value::from(p.liveness.name())),
        ("srtt_ticks", Value::from(p.srtt)),
        ("rttvar_ticks", Value::from(p.rttvar)),
        ("rto_ticks", Value::from(p.rto)),
        ("epoch", Value::from(u64::from(p.epoch))),
        ("in_flight", Value::from(u64::from(p.in_flight))),
        ("credit_window", Value::from(u64::from(p.credit_window))),
        ("credit_stalls", Value::from(u64::from(p.credit_stalls))),
        ("credit_shrinks", Value::from(u64::from(p.credit_shrinks))),
        ("failed", Value::from(u64::from(p.failed))),
        ("stale_epoch", Value::from(u64::from(p.stale_epoch))),
        ("pings", Value::from(u64::from(p.pings))),
        ("clock_offset_ns", Value::Num(p.clock_offset_ns as f64)),
        ("clock_dispersion_ns", Value::from(p.clock_dispersion_ns)),
        ("clock_samples", Value::from(p.clock_samples)),
    ])
}

/// The same lifecycle table as structured rows for the JSON document.
fn peers_json(nodes: &[DemoNode]) -> Value {
    let mut rows = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        let Some(snap) = n.engine.transport_snapshot() else {
            continue;
        };
        for p in &snap.paths {
            rows.push(peer_row(i as u64, p));
        }
    }
    Value::Array(rows)
}

/// Per-node telemetry summary for the JSON document.
fn telemetry_json(nodes: &[DemoNode]) -> Value {
    Value::Array(
        nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let acc = n.accum.clone().unwrap_or(EngineTelemetrySnapshot {
                    iteration_work: flipc_core::hist::HistogramSnapshot::empty(
                        flipc_core::hist::BUCKETS,
                    ),
                    deliver_latency: Vec::new(),
                });
                Value::object([
                    ("node", Value::from(i as u64)),
                    ("iterations", Value::from(acc.iteration_work.count())),
                    (
                        "mean_work",
                        Value::from(acc.iteration_work.mean().unwrap_or(0.0)),
                    ),
                    (
                        "endpoints",
                        Value::Array(
                            acc.deliver_latency
                                .iter()
                                .enumerate()
                                .filter(|(_, h)| h.count() > 0)
                                .map(|(e, h)| {
                                    Value::object([
                                        ("endpoint", Value::from(e as u64)),
                                        ("delivers", Value::from(h.count())),
                                        ("p50_ns", Value::from(h.quantile(0.5).unwrap_or(0.0))),
                                        ("p99_ns", Value::from(h.quantile(0.99).unwrap_or(0.0))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// The `--once --json` document for the engine demo modes. Pure function
/// of its inputs so the golden tests below can lock the shape.
#[allow(clippy::too_many_arguments)]
fn engine_doc(
    mode: &str,
    ticks: u32,
    inject_stall: bool,
    timeline: &Timeline,
    stalls: &[StallReport],
    telemetry: Value,
    peers: Value,
    exposition: &str,
) -> Value {
    Value::object([
        ("schema", Value::from(SCHEMA)),
        ("mode", Value::from(mode)),
        ("ticks", Value::from(u64::from(ticks))),
        ("stall_injected", Value::Bool(inject_stall)),
        ("timeline", timeline.to_json()),
        (
            "stalls",
            Value::Array(stalls.iter().map(StallReport::to_json).collect()),
        ),
        ("telemetry", telemetry),
        ("peers", peers),
        ("exposition", Value::from(exposition)),
    ])
}

/// The `--workload --once --json` document.
fn workload_doc(
    timeline: &Timeline,
    stalls: &[StallReport],
    workloads: Value,
    exposition: &str,
) -> Value {
    Value::object([
        ("schema", Value::from(SCHEMA)),
        ("mode", Value::from("workload")),
        ("workload", Value::from("broadcast")),
        ("timeline", timeline.to_json()),
        (
            "stalls",
            Value::Array(stalls.iter().map(StallReport::to_json).collect()),
        ),
        ("workloads", workloads),
        ("exposition", Value::from(exposition)),
    ])
}

/// The `--cluster --once --json` document: per-direction clock estimates,
/// the merged cross-node timeline, and the stall-burden ranking.
fn cluster_doc(
    run_ms: u64,
    inject_stall: bool,
    clock: Value,
    merged: &MergedTimeline,
    ranks: &[NodeStallRank],
    stalls: &[StallReport],
    exposition: &str,
) -> Value {
    Value::object([
        ("schema", Value::from(SCHEMA)),
        ("mode", Value::from("cluster")),
        ("run_ms", Value::from(run_ms)),
        ("stall_injected", Value::Bool(inject_stall)),
        ("clock", clock),
        ("merged", merged.to_json()),
        (
            "stall_ranking",
            Value::Array(ranks.iter().map(NodeStallRank::to_json).collect()),
        ),
        (
            "stalls",
            Value::Array(stalls.iter().map(StallReport::to_json).collect()),
        ),
        ("exposition", Value::from(exposition)),
    ])
}

/// Reads the clock-sync gauges for each `(node, peer)` direction out of a
/// merged exposition page into the JSON `clock` section.
fn clock_rows(page: &str, pairs: &[(u16, u16)]) -> Value {
    Value::Array(
        pairs
            .iter()
            .map(|&(node, peer)| {
                let (ns, ps) = (node.to_string(), peer.to_string());
                let labels = [("node", ns.as_str()), ("peer", ps.as_str())];
                let read = |name: &str| sample_value(page, name, &labels).unwrap_or(0.0);
                Value::object([
                    ("node", Value::from(u64::from(node))),
                    ("peer", Value::from(u64::from(peer))),
                    ("offset_ns", Value::Num(read("flipc_net_clock_offset_ns"))),
                    (
                        "dispersion_ns",
                        Value::from(read("flipc_net_clock_dispersion_ns") as u64),
                    ),
                    (
                        "samples",
                        Value::from(read("flipc_net_clock_samples") as u64),
                    ),
                ])
            })
            .collect(),
    )
}

/// Serializes drained events in the [`TraceReader::dump_json`] shape —
/// the cluster child's half of the trace-shipping wire format that
/// [`events_from_json`] parses back on the parent side.
fn events_to_json(events: &[TraceEvent]) -> Value {
    Value::Array(
        events
            .iter()
            .map(|ev| {
                Value::object([
                    ("t_ns", Value::from(ev.t_ns)),
                    ("kind", Value::from(ev.kind.name())),
                    ("node", Value::from(u64::from(ev.node))),
                    ("endpoint", Value::from(u64::from(ev.endpoint))),
                    ("arg", Value::from(u64::from(ev.arg))),
                ])
            })
            .collect(),
    )
}

/// `--workload` mode: drives the seeded pub-sub broadcast over the chaos
/// cluster — a storm, a subscriber crash, a fresh-epoch reboot — with its
/// workload-level trace feeding the same timeline/stall pipeline the
/// engine demo uses, and the `flipc_workload_*` family on the exposition
/// page. Manual clock + pinned seed: the whole run is reproducible.
fn run_workload(opts: &Opts) -> ExitCode {
    use flipc_net::FaultConfig;
    use flipc_workloads::{Broadcast, BroadcastConfig, TopicSpec};

    let net = NetConfig {
        window: 8,
        rto: 100,
        rto_min: 10,
        rto_max: 400,
        suspect_strikes: 2,
        dead_strikes: 8,
        heartbeat_interval: 500,
        ..NetConfig::default()
    };
    let topics = vec![TopicSpec {
        topic: 0,
        publisher: 0,
        subscribers: vec![1, 2, 3],
    }];
    let mut b = Broadcast::new(4, net, 0xF11C_0070, BroadcastConfig::default(), topics);
    let (writer, mut reader) = flipc_obs::trace_ring(16384);
    b.install_trace(writer);

    b.cluster_mut().log("storm on the publisher's uplink");
    b.cluster_mut().faults(0, FaultConfig::lossy(0.20));
    b.publish_burst(15);
    b.run(120);
    b.cluster_mut().log("subscriber 2 dies mid-stream");
    b.cluster_mut().crash(2);
    b.publish_burst(15);
    b.run(120);
    b.cluster_mut().log("subscriber 2 reboots on a fresh epoch");
    b.cluster_mut().restart(2);
    b.cluster_mut().log("storm passes; drain to quiesce");
    b.cluster_mut().faults(0, FaultConfig::default());
    for _ in 0..400 {
        if b.completeness_violations().is_empty() {
            break;
        }
        b.run(25);
    }

    // Harvest the workload trace through the standard consumer pipeline.
    // The manual clock ticks stand in for nanoseconds; the crash leaves
    // subscriber 2's endpoint silent for thousands of ticks, which is
    // exactly the kind of gap the stall analyzer attributes.
    let mut batch: Vec<TraceEvent> = Vec::new();
    reader.drain_into(&mut batch);
    let mut builder = TimelineBuilder::new();
    builder.note_lost(reader.lost());
    builder.ingest(&batch);
    let timeline = builder.timeline();
    let cfg = StallConfig {
        threshold_ns: 2_000,
        ..StallConfig::default()
    };
    let idle = flipc_core::hist::HistogramSnapshot::empty(flipc_core::hist::BUCKETS);
    let stalls = scan(&batch, &[], &idle, 0, 0, &cfg);

    let snaps = b.snapshots();
    let mut expo = Exposition::new();
    for s in &snaps {
        flipc_obs::expose_workload(&mut expo, s);
    }
    if let Some(t) = b.cluster_mut().snapshot(0) {
        expose_transport(&mut expo, &t);
    }

    if let Some(path) = &opts.trace_out {
        use std::fmt::Write as _;
        let mut text = String::new();
        for ev in &batch {
            let _ = writeln!(text, "{ev}");
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("flipc-top: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if opts.json {
        let doc = workload_doc(
            &timeline,
            &stalls,
            Value::Array(snaps.iter().map(|s| s.to_json()).collect()),
            &expo.render(),
        );
        println!("{}", doc.render_pretty());
    } else {
        print!("{}", b.cluster_mut().transcript_text());
        println!("=== workloads ===");
        for s in &snaps {
            println!(
                "{} node {}: published={} delivered={} retried={} dropped={} backlog={}",
                s.workload, s.node, s.published, s.delivered, s.retried, s.dropped, s.backlog
            );
            for c in &s.classes {
                if c.latency.count() > 0 {
                    println!(
                        "  class {}: {} delivered, p50={:.0} p99={:.0} ticks",
                        c.class,
                        c.latency.count(),
                        c.latency.quantile(0.5).unwrap_or(0.0),
                        c.latency.quantile(0.99).unwrap_or(0.0),
                    );
                }
            }
        }
        println!("=== timeline ===");
        print!("{}", timeline.render());
        println!("=== stalls ({}) ===", stalls.len());
        for s in &stalls {
            println!("{s}");
        }
        println!("=== exposition ===");
        print!("{}", expo.render());
    }

    // Sanity for CI: the broadcast must quiesce complete and its trace
    // must reach the timeline as per-endpoint activity.
    if !b.completeness_violations().is_empty() || !b.violations().is_empty() {
        eprintln!("flipc-top: workload failed to quiesce cleanly");
        return ExitCode::FAILURE;
    }
    if timeline.endpoints.is_empty() {
        eprintln!("flipc-top: workload produced no endpoint activity");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One cluster child: a single engine on real UDP, an exposition server
/// for the parent's scraper, and a final `RESULT` line shipping the trace
/// (as JSON events), loss tally, and this node's attributed stalls.
///
/// Node 0 is the ponger (it echoes to the address each ping carries,
/// exactly like the net demo's server); node 1 is the pinger — over UDP
/// traffic must originate at node 1 because node 0's route to it is
/// `Dynamic`. Pings go out on a ~15 ms cadence with the heartbeat
/// interval well below the quiet window between them, so the clock-sync
/// exchange samples continuously alongside real traffic.
fn run_cluster_child(node_id: u16, opts: &Opts) -> ExitCode {
    use std::io::Write as _;

    // Lenient liveness: the injected stall freezes a whole process for
    // several hundred ms, and a dead declaration would reset the session
    // epoch — throwing away the clock estimate mid-run by design.
    let net = NetConfig {
        heartbeat_interval: 5_000,
        dead_strikes: u32::MAX,
        ..NetConfig::default()
    };
    let transport = if node_id == 0 {
        let mut map = NodeMap::new();
        map.insert(
            FlipcNodeId(0),
            NodeAddr::Static(SocketAddr::from(([127, 0, 0, 1], 0))),
        )
        .insert(FlipcNodeId(1), NodeAddr::Dynamic);
        udp_transport(&map, FlipcNodeId(0), net)
    } else {
        let Some(peer) = opts.peer_addr else {
            eprintln!("flipc-top: --cluster-node 1 needs --peer-addr");
            return ExitCode::from(2);
        };
        let mut map = NodeMap::new();
        map.insert(FlipcNodeId(0), NodeAddr::Static(peer)).insert(
            FlipcNodeId(1),
            NodeAddr::Static(SocketAddr::from(([127, 0, 0, 1], 0))),
        );
        udp_transport(&map, FlipcNodeId(1), net)
    };
    let transport = match transport {
        Ok(t) => t,
        Err(e) => {
            eprintln!("flipc-top: cluster node {node_id} cannot bind: {e}");
            return ExitCode::from(2);
        }
    };
    let udp_addr = transport.link().local_addr().expect("local addr");

    let cb = Arc::new(CommBuffer::new(geometry()).expect("geometry"));
    let registry = WaitRegistry::new();
    let app = Flipc::attach(cb.clone(), FlipcNodeId(node_id), registry.clone());
    let mut node = DemoNode::new(
        app,
        Engine::new(cb, Box::new(transport), registry, EngineConfig::default()),
    );
    let my_inbox = node.app.address(&node.rx).pack();
    // Node 0's keepalive: a periodic node-local tick (send to its own
    // second receive endpoint, engine loopback bypass). When node 1
    // freezes, node 0's trace would otherwise go just as silent — and the
    // stall ranking would blame the starved victim instead of the frozen
    // culprit. The tick proves node 0's engine loop stayed alive.
    let tick = (node_id == 0).then(|| {
        let ttx = node
            .app
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .expect("tick send endpoint");
        let trx = node
            .app
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .expect("tick receive endpoint");
        let addr = node.app.address(&trx);
        let eps = (node.app.address(&ttx).index().0, addr.index().0);
        (ttx, trx, addr, eps)
    });

    let page: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    let server = {
        let page = page.clone();
        match ExpoServer::spawn("127.0.0.1:0", move || {
            page.lock().expect("page lock").clone()
        }) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("flipc-top: cluster node {node_id} cannot serve metrics: {e}");
                return ExitCode::from(2);
            }
        }
    };

    // The out-of-band name service, same as the net demo: stdout.
    println!(
        "READY udp={udp_addr} expo={} inbox={my_inbox}",
        server.addr()
    );
    let _ = std::io::stdout().flush();

    let cfg = StallConfig {
        threshold_ns: opts.stall_threshold.as_nanos() as u64,
        ..StallConfig::default()
    };
    let run_for = Duration::from_millis(opts.run_ms.max(200));
    let mut deadline = Instant::now() + run_for;
    let halfway = Instant::now() + run_for / 2;
    let mut injected = !opts.inject_stall;
    let mut next_ping = Instant::now();
    let mut next_tick = Instant::now();
    let mut last_harvest = Instant::now();
    let mut builder = TimelineBuilder::new();
    let mut all_events: Vec<TraceEvent> = Vec::new();
    let mut stalls: Vec<StallReport> = Vec::new();
    let peer_inbox = opts.peer_inbox.map(EndpointAddress::unpack);
    let send_ping = |node: &mut DemoNode, peer: EndpointAddress| {
        let Ok(mut buf) = node.app.buffer_allocate() else {
            return;
        };
        node.app.payload_mut(&mut buf)[..8].copy_from_slice(&my_inbox.to_le_bytes());
        if let Err(r) = node.app.send_unlocked(&node.tx, buf, peer) {
            node.app.buffer_free(r.token);
        }
    };

    while Instant::now() < deadline {
        stock_receivers(std::slice::from_mut(&mut node));
        while let Ok(Some(tok)) = node.app.reclaim_send_unlocked(&node.tx) {
            node.app.buffer_free(tok);
        }
        node.engine.iterate();
        while let Ok(Some(got)) = node.app.recv_unlocked(&node.rx) {
            if node_id == 0 {
                // Echo back to the address the ping carries, reusing the
                // delivered buffer as the pong.
                let payload = node.app.payload(&got.token);
                let reply = EndpointAddress::unpack(u64::from_le_bytes(
                    payload[..8].try_into().expect("8-byte reply address"),
                ));
                if let Err(r) = node.app.send_unlocked(&node.tx, got.token, reply) {
                    node.app.buffer_free(r.token);
                }
            } else {
                node.app.buffer_free(got.token);
            }
        }
        if let Some((ttx, trx, addr, _)) = tick.as_ref() {
            if Instant::now() >= next_tick {
                next_tick = Instant::now() + Duration::from_millis(20);
                while let Ok(Some(tok)) = node.app.reclaim_send_unlocked(ttx) {
                    node.app.buffer_free(tok);
                }
                while let Ok(Some(got)) = node.app.recv_unlocked(trx) {
                    node.app.buffer_free(got.token);
                }
                if let Ok(stock) = node.app.buffer_allocate() {
                    if let Err(r) = node.app.provide_receive_buffer_unlocked(trx, stock) {
                        node.app.buffer_free(r.token);
                    }
                }
                if let Ok(buf) = node.app.buffer_allocate() {
                    if let Err(r) = node.app.send_unlocked(ttx, buf, *addr) {
                        node.app.buffer_free(r.token);
                    }
                }
            }
        }
        if node_id == 1 && Instant::now() >= next_ping {
            next_ping = Instant::now() + Duration::from_millis(15);
            if let Some(peer) = peer_inbox {
                send_ping(&mut node, peer);
            }
        }
        if !injected && Instant::now() >= halfway {
            injected = true;
            // Freeze the pump with pings queued: the trace goes silent and
            // the resume flush gives the analyzer its backlog evidence.
            if let Some(peer) = peer_inbox {
                for _ in 0..24 {
                    send_ping(&mut node, peer);
                }
            }
            std::thread::sleep(4 * opts.stall_threshold);
            // Don't let the freeze eat the rest of the run: the queued
            // burst has to flush (its resume events are the stall's
            // trailing edge) before the deadline.
            deadline += 4 * opts.stall_threshold;
        }
        if last_harvest.elapsed() >= Duration::from_millis(50) {
            last_harvest = Instant::now();
            let h = harvest_tick(
                std::slice::from_mut(&mut node),
                &mut builder,
                &mut all_events,
                &cfg,
            );
            stalls.extend(h.stalls);
            *page.lock().expect("page lock") = exposition(std::slice::from_ref(&node));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let h = harvest_tick(
        std::slice::from_mut(&mut node),
        &mut builder,
        &mut all_events,
        &cfg,
    );
    stalls.extend(h.stalls);
    *page.lock().expect("page lock") = exposition(std::slice::from_ref(&node));

    // The keepalive ticks already did their job locally (they kept the
    // stall scanner honest about engine liveness); shipped to the parent
    // they would only pollute the cross-node pairing in the merge, so
    // strip them from the event feed.
    if let Some((_, _, _, (te_tx, te_rx))) = tick.as_ref() {
        all_events.retain(|ev| ev.endpoint != *te_tx && ev.endpoint != *te_rx);
    }

    // Ship the parent everything its merge needs. The exposition page
    // stays scrapeable until the process exits; the parent keeps its last
    // successful scrape, so no extra handshake is required here.
    let result = Value::object([
        ("node", Value::from(u64::from(node_id))),
        ("lost", Value::from(node.lost)),
        ("events", events_to_json(&all_events)),
        (
            "stalls",
            Value::Array(stalls.iter().map(StallReport::to_json).collect()),
        ),
    ]);
    println!("RESULT {}", result.render());
    let _ = std::io::stdout().flush();
    drop(server);
    ExitCode::SUCCESS
}

/// Parses a child's `READY udp=… expo=… inbox=…` line.
fn read_ready(r: &mut impl std::io::BufRead) -> Option<(SocketAddr, SocketAddr, u64)> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line).ok()? == 0 {
            return None;
        }
        if let Some(rest) = line.trim().strip_prefix("READY ") {
            let field = |k: &str| rest.split_whitespace().find_map(|t| t.strip_prefix(k));
            let udp: SocketAddr = field("udp=")?.parse().ok()?;
            let expo: SocketAddr = field("expo=")?.parse().ok()?;
            let inbox: u64 = field("inbox=")?.parse().ok()?;
            return Some((udp, expo, inbox));
        }
    }
}

/// Parses a child's collected stdout for the final `RESULT` document:
/// `(node, lost, events, stalls)`.
fn parse_child_result(out: &str) -> Option<(u16, u64, Vec<TraceEvent>, Vec<StallReport>)> {
    let line = out.lines().find_map(|l| l.strip_prefix("RESULT "))?;
    let v = Value::parse(line).ok()?;
    let node = v.get("node")?.as_f64()? as u16;
    let lost = v.get("lost")?.as_f64()? as u64;
    let events = events_from_json(v.get("events")?)?;
    let stalls = v
        .get("stalls")?
        .as_array()?
        .iter()
        .map(StallReport::from_json)
        .collect::<Option<Vec<_>>>()?;
    Some((node, lost, events, stalls))
}

/// One-line live summary of a node's clock estimate from its page.
fn clock_line(page: Option<&String>, node: u16, peer: u16) -> String {
    let Some(page) = page else {
        return format!("node {node}: no scrape yet");
    };
    let (ns, ps) = (node.to_string(), peer.to_string());
    let labels = [("node", ns.as_str()), ("peer", ps.as_str())];
    let read = |name: &str| sample_value(page, name, &labels).unwrap_or(0.0);
    format!(
        "node {node} -> peer {peer}: clock offset {}ns ±{}ns ({} samples)",
        read("flipc_net_clock_offset_ns") as i64,
        read("flipc_net_clock_dispersion_ns") as u64,
        read("flipc_net_clock_samples") as u64,
    )
}

/// `--cluster`: spawn the two UDP children, scrape both expositions while
/// they run, then merge their shipped timelines onto node 0's clock and
/// rank the nodes by stall burden.
fn run_cluster(opts: &Opts) -> ExitCode {
    use std::io::Read as _;
    use std::process::{Command, Stdio};

    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("flipc-top: cannot locate own binary: {e}");
            return ExitCode::from(2);
        }
    };
    let run_ms = u64::from(opts.ticks) * opts.interval.as_millis() as u64;
    let threshold_ms = opts.stall_threshold.as_millis().to_string();
    let spawn = |extra: &[&str]| {
        let mut cmd = Command::new(&exe);
        cmd.args(["--run-ms", &run_ms.to_string()])
            .args(["--stall-threshold", &threshold_ms])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        cmd.spawn().map(|mut child| {
            let stdout = child.stdout.take().expect("piped stdout");
            (child, std::io::BufReader::new(stdout))
        })
    };

    // Node 0 (ponger) boots first and announces its addresses; node 1
    // (pinger) gets them on its command line — the parent is the name
    // service the paper assumes is external.
    let (mut c0, mut r0) = match spawn(&["--cluster-node", "0"]) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("flipc-top: cannot spawn node 0: {e}");
            return ExitCode::from(2);
        }
    };
    let Some((udp0, expo0, inbox0)) = read_ready(&mut r0) else {
        eprintln!("flipc-top: node 0 never became ready");
        let _ = c0.kill();
        return ExitCode::FAILURE;
    };
    let mut child1_args = vec![
        "--cluster-node".to_string(),
        "1".to_string(),
        "--peer-addr".to_string(),
        udp0.to_string(),
        "--peer-inbox".to_string(),
        inbox0.to_string(),
    ];
    if opts.inject_stall {
        child1_args.push("--inject-stall".to_string());
    }
    let child1_refs: Vec<&str> = child1_args.iter().map(String::as_str).collect();
    let (mut c1, mut r1) = match spawn(&child1_refs) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("flipc-top: cannot spawn node 1: {e}");
            let _ = c0.kill();
            return ExitCode::from(2);
        }
    };
    let Some((_udp1, expo1, _inbox1)) = read_ready(&mut r1) else {
        eprintln!("flipc-top: node 1 never became ready");
        let _ = c0.kill();
        let _ = c1.kill();
        return ExitCode::FAILURE;
    };

    // Children may block on a full stdout pipe while shipping their trace,
    // so collector threads drain the rest of each pipe concurrently.
    let collect0 = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = r0.read_to_string(&mut s);
        s
    });
    let collect1 = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = r1.read_to_string(&mut s);
        s
    });

    let mut scraper = ClusterScraper::new(&[(0, expo0), (1, expo1)]);
    let mut last_pages: [Option<String>; 2] = [None, None];
    let hard_deadline = Instant::now() + Duration::from_millis(run_ms * 4 + 10_000);
    let mut poll = 0u32;
    loop {
        let done0 = matches!(c0.try_wait(), Ok(Some(_)));
        let done1 = matches!(c1.try_wait(), Ok(Some(_)));
        if done0 && done1 {
            break;
        }
        if Instant::now() > hard_deadline {
            eprintln!("flipc-top: cluster children overran; killing");
            let _ = c0.kill();
            let _ = c1.kill();
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(100));
        for s in scraper.scrape() {
            if let Some(p) = s.page {
                last_pages[usize::from(s.node)] = Some(p);
            }
        }
        poll += 1;
        if !opts.json {
            println!("--- cluster poll {poll} ---");
            println!("{}", clock_line(last_pages[0].as_ref(), 0, 1));
            println!("{}", clock_line(last_pages[1].as_ref(), 1, 0));
        }
    }
    let status_ok =
        matches!(c0.wait(), Ok(s) if s.success()) && matches!(c1.wait(), Ok(s) if s.success());
    let out0 = collect0.join().unwrap_or_default();
    let out1 = collect1.join().unwrap_or_default();
    if !status_ok {
        eprintln!("flipc-top: a cluster child exited with failure");
        return ExitCode::FAILURE;
    }
    let (Some((_, lost0, events0, stalls0)), Some((_, lost1, events1, stalls1))) =
        (parse_child_result(&out0), parse_child_result(&out1))
    else {
        eprintln!("flipc-top: a cluster child shipped no parseable RESULT");
        return ExitCode::FAILURE;
    };

    // Node 0 is the reference clock. Its transport measured node 1's
    // offset (positive = node 1 ahead), so node 1's stamps rebase by the
    // negation; the dispersion rides along as the error bar.
    let page0 = last_pages[0].clone().unwrap_or_default();
    let labels = [("node", "0"), ("peer", "1")];
    let read0 = |name: &str| sample_value(&page0, name, &labels).unwrap_or(0.0);
    let offset01 = read0("flipc_net_clock_offset_ns") as i64;
    let dispersion01 = read0("flipc_net_clock_dispersion_ns") as u64;
    let samples01 = read0("flipc_net_clock_samples") as u64;
    let inputs = [
        NodeInput {
            node: 0,
            offset_ns: 0,
            dispersion_ns: 0,
            events: events0,
            lost: lost0,
        },
        NodeInput {
            node: 1,
            offset_ns: -offset01,
            dispersion_ns: dispersion01,
            events: events1,
            lost: lost1,
        },
    ];
    let merged = merge(&inputs);
    let mut all_stalls = stalls0;
    all_stalls.extend(stalls1);
    let ranks = rank_nodes(&all_stalls);
    let merged_page = merge_pages(&[
        flipc_obs::NodeScrape {
            node: 0,
            page: last_pages[0].clone(),
        },
        flipc_obs::NodeScrape {
            node: 1,
            page: last_pages[1].clone(),
        },
    ]);

    if opts.json {
        let doc = cluster_doc(
            run_ms,
            opts.inject_stall,
            clock_rows(&merged_page, &[(0, 1), (1, 0)]),
            &merged,
            &ranks,
            &all_stalls,
            &merged_page,
        );
        println!("{}", doc.render_pretty());
    } else {
        println!("=== clock ===");
        println!("{}", clock_line(last_pages[0].as_ref(), 0, 1));
        println!("{}", clock_line(last_pages[1].as_ref(), 1, 0));
        println!("=== merged timeline (node 0 clock) ===");
        print!("{}", merged.timeline.render());
        println!(
            "cross-node chains: {} (p99 {}ns ±{}ns, {} unmatched sends)",
            merged.cross_chains.len(),
            merged.cross_latency_p99_ns().unwrap_or(0),
            merged.max_error_ns,
            merged.unmatched_sends,
        );
        println!("=== stall ranking ===");
        for r in &ranks {
            println!(
                "node {}: {} stalls, {:.2} ms total (worst {:.2} ms, {})",
                r.node,
                r.stalls,
                r.total_gap_ns as f64 / 1e6,
                r.worst_gap_ns as f64 / 1e6,
                r.worst_cause.name(),
            );
        }
        println!("=== exposition ===");
        print!("{merged_page}");
    }

    // Sanity for CI: clock sync must have converged, the merge must have
    // reconstructed real cross-process chains, and an injected stall must
    // be pinned on the node that carried it.
    if samples01 == 0 {
        eprintln!("flipc-top: clock sync never produced a sample");
        return ExitCode::FAILURE;
    }
    if merged.cross_chains.is_empty() {
        eprintln!("flipc-top: no cross-node send->deliver chains reconstructed");
        return ExitCode::FAILURE;
    }
    if opts.inject_stall && ranks.first().map(|r| r.node) != Some(1) {
        eprintln!("flipc-top: stall injected on node 1 but ranking blames {ranks:?}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run(opts: &Opts) -> ExitCode {
    if let Some(node_id) = opts.cluster_node {
        return run_cluster_child(node_id, opts);
    }
    if opts.cluster {
        return run_cluster(opts);
    }
    if opts.workload {
        return run_workload(opts);
    }
    let mut nodes = build_nodes(opts.udp);
    // Over UDP, traffic must originate at node 1 (see `round`).
    let (pinger, ponger) = if opts.udp { (1, 0) } else { (0, 1) };
    let to_ponger = nodes[ponger].app.address(&nodes[ponger].rx);
    let to_pinger = nodes[pinger].app.address(&nodes[pinger].rx);
    let cfg = StallConfig {
        threshold_ns: opts.stall_threshold.as_nanos() as u64,
        ..StallConfig::default()
    };

    // The optional HTTP listener serves whatever page the last tick
    // rendered (observer-side state only).
    let page: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    let _server = match &opts.listen {
        None => None,
        Some(addr) => {
            let page = page.clone();
            match ExpoServer::spawn(addr, move || page.lock().expect("page lock").clone()) {
                Ok(s) => {
                    eprintln!("flipc-top: serving metrics on http://{}", s.addr());
                    Some(s)
                }
                Err(e) => {
                    eprintln!("flipc-top: cannot listen on {addr}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let mut builder = TimelineBuilder::new();
    let mut all_events: Vec<TraceEvent> = Vec::new();
    let mut all_stalls: Vec<StallReport> = Vec::new();
    let mut injected = !opts.inject_stall;

    for tick in 0..opts.ticks {
        let deadline = Instant::now() + opts.interval;
        let halfway = Instant::now() + opts.interval / 2;
        while Instant::now() < deadline {
            round(&mut nodes, pinger, ponger, to_ponger, to_pinger);
            if !injected && Instant::now() >= halfway {
                injected = true;
                // Freeze the pump with work queued: the trace goes silent
                // for several thresholds, and the flush on resume gives
                // the analyzer its backlog evidence.
                queue_burst(&mut nodes, pinger, to_ponger, 24);
                std::thread::sleep(4 * opts.stall_threshold);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let h = harvest_tick(&mut nodes, &mut builder, &mut all_events, &cfg);
        *page.lock().expect("page lock") = exposition(&nodes);
        if !opts.json {
            println!("--- tick {}/{} ---", tick + 1, opts.ticks);
            for (i, n) in nodes.iter().enumerate() {
                if let Some(acc) = &n.accum {
                    print!("node {i}: {}", acc.render());
                }
            }
            print!("{}", peer_table(&nodes));
            for s in &h.stalls {
                println!("STALL {s}");
            }
        }
        all_stalls.extend(h.stalls);
    }

    let timeline = builder.timeline();
    *page.lock().expect("page lock") = exposition(&nodes);
    if let Some(path) = &opts.trace_out {
        if let Err(e) = std::fs::write(path, trace_text(&all_events)) {
            eprintln!("flipc-top: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if opts.json {
        let doc = engine_doc(
            if opts.udp { "udp" } else { "loopback" },
            opts.ticks,
            opts.inject_stall,
            &timeline,
            &all_stalls,
            telemetry_json(&nodes),
            peers_json(&nodes),
            &exposition(&nodes),
        );
        println!("{}", doc.render_pretty());
    } else {
        println!("=== timeline ===");
        print!("{}", timeline.render());
        println!("=== peers ===");
        print!("{}", peer_table(&nodes));
        println!("=== stalls ({}) ===", all_stalls.len());
        for s in &all_stalls {
            println!("{s}");
        }
        println!("=== exposition ===");
        print!("{}", exposition(&nodes));
    }

    // Sanity for CI: the demo must have produced at least one endpoint
    // timeline, and stall detection must match the injection request.
    if timeline.endpoints.is_empty() {
        eprintln!("flipc-top: demo produced no endpoint activity");
        return ExitCode::FAILURE;
    }
    if opts.inject_stall && all_stalls.is_empty() {
        eprintln!("flipc-top: stall injected but not detected");
        return ExitCode::FAILURE;
    }
    if !opts.inject_stall && !all_stalls.is_empty() {
        eprintln!(
            "flipc-top: {} spurious stall report(s) on healthy traffic \
             (raise --stall-threshold on very noisy machines)",
            all_stalls.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipc_obs::stall::StallCause;
    use flipc_obs::trace::TraceKind;

    fn ev(t_ns: u64, kind: TraceKind, node: u16, endpoint: u16, arg: u32) -> TraceEvent {
        TraceEvent {
            t_ns,
            kind,
            node,
            endpoint,
            arg,
        }
    }

    fn fixture_stall(node: u16, gap_ns: u64) -> StallReport {
        StallReport {
            node,
            start_ns: 10_000,
            end_ns: 10_000 + gap_ns,
            gap_ns,
            endpoint: 1,
            cause: StallCause::EngineIdle,
            resume_burst: 0,
        }
    }

    /// Locks one `peers` row byte-for-byte, flow-control columns
    /// included: the credit window the peer currently grants, the sends
    /// refused by flow control, and the receive-side shrink rounds.
    #[test]
    fn peer_row_golden() {
        let p = flipc_core::inspect::PathSnapshot {
            peer: FlipcNodeId(1),
            sent: 40,
            retransmitted: 2,
            delivered: 38,
            dup_dropped: 0,
            out_of_window: 0,
            wire_dropped: 0,
            in_flight: 3,
            failed: 0,
            stale_epoch: 0,
            pings: 5,
            credit_stalls: 7,
            credit_shrinks: 2,
            credit_window: 4,
            liveness: PeerLiveness::Healthy,
            srtt: 120,
            rttvar: 30,
            rto: 240,
            epoch: 1,
            clock_offset_ns: -250,
            clock_dispersion_ns: 300,
            clock_samples: 12,
        };
        let expected = "{\"node\":0,\"peer\":1,\"liveness\":\"healthy\",\"srtt_ticks\":120,\"rttvar_ticks\":30,\"rto_ticks\":240,\"epoch\":1,\"in_flight\":3,\"credit_window\":4,\"credit_stalls\":7,\"credit_shrinks\":2,\"failed\":0,\"stale_epoch\":0,\"pings\":5,\"clock_offset_ns\":-250,\"clock_dispersion_ns\":300,\"clock_samples\":12}";
        assert_eq!(peer_row(0, &p).render(), expected);
    }

    /// Locks the `--once --json` engine document byte-for-byte. A failure
    /// here means the output shape changed: bump [`SCHEMA`] and update the
    /// golden string deliberately, never accidentally.
    #[test]
    fn engine_doc_golden() {
        let mut b = TimelineBuilder::new();
        b.ingest(&[
            ev(1_000, TraceKind::Send, 0, 1, 7),
            ev(3_500, TraceKind::Deliver, 0, 1, 7),
        ]);
        let timeline = b.timeline().clone();
        let stalls = [fixture_stall(0, 15_000)];
        let telemetry = Value::object([("iterations", Value::from(5u64))]);
        let peers = Value::Array(Vec::new());
        let doc = engine_doc(
            "udp",
            3,
            false,
            &timeline,
            &stalls,
            telemetry,
            peers,
            "# fixture\n",
        );
        let expected = "{\"schema\":3,\"mode\":\"udp\",\"ticks\":3,\"stall_injected\":false,\"timeline\":{\"endpoints\":[{\"node\":0,\"endpoint\":1,\"first_ns\":1000,\"last_ns\":3500,\"sends\":1,\"delivers\":1,\"drops\":0,\"wakeups\":0,\"misaddressed\":0,\"bytes\":14,\"events_per_sec\":800000,\"gaps\":{\"count\":1,\"min_ns\":2500,\"max_ns\":2500,\"mean_ns\":2500}}],\"chain_latency\":{\"count\":1,\"min_ns\":2500,\"max_ns\":2500,\"mean_ns\":2500},\"retransmit_bursts\":0,\"retransmit_frames\":0,\"total_events\":2,\"lost\":0},\"stalls\":[{\"node\":0,\"start_ns\":10000,\"end_ns\":25000,\"gap_ns\":15000,\"endpoint\":1,\"cause\":\"engine-idle\",\"resume_burst\":0}],\"telemetry\":{\"iterations\":5},\"peers\":[],\"exposition\":\"# fixture\\n\"}";
        assert_eq!(doc.render(), expected);
    }

    /// Locks the `--cluster --once --json` document: the `clock` rows read
    /// back from an exposition page, the merged timeline with offsets and
    /// error bars, and the stall-burden ranking.
    #[test]
    fn cluster_doc_golden() {
        let page = "\
# TYPE flipc_net_clock_offset_ns gauge
flipc_net_clock_offset_ns{node=\"0\",peer=\"1\"} -250
# TYPE flipc_net_clock_dispersion_ns gauge
flipc_net_clock_dispersion_ns{node=\"0\",peer=\"1\"} 300
# TYPE flipc_net_clock_samples gauge
flipc_net_clock_samples{node=\"0\",peer=\"1\"} 12
";
        let clock = clock_rows(page, &[(0, 1)]);
        let merged = merge(&[
            NodeInput {
                node: 0,
                offset_ns: 0,
                dispersion_ns: 0,
                events: vec![ev(1_000, TraceKind::Send, 0, 1, 7)],
                lost: 0,
            },
            NodeInput {
                node: 1,
                offset_ns: 250,
                dispersion_ns: 300,
                events: vec![ev(3_750, TraceKind::Deliver, 1, 2, 7)],
                lost: 0,
            },
        ]);
        let ranks = rank_nodes(&[fixture_stall(1, 20_000)]);
        let stalls = [fixture_stall(1, 20_000)];
        let doc = cluster_doc(500, true, clock, &merged, &ranks, &stalls, "# fixture\n");
        let expected = "{\"schema\":3,\"mode\":\"cluster\",\"run_ms\":500,\"stall_injected\":true,\"clock\":[{\"node\":0,\"peer\":1,\"offset_ns\":-250,\"dispersion_ns\":300,\"samples\":12}],\"merged\":{\"nodes\":[{\"node\":0,\"offset_ns\":0,\"dispersion_ns\":0},{\"node\":1,\"offset_ns\":250,\"dispersion_ns\":300}],\"cross_chains\":1,\"cross_latency\":{\"count\":1,\"min_ns\":3000,\"max_ns\":3000,\"mean_ns\":3000},\"cross_latency_p99_ns\":3000,\"max_error_ns\":300,\"unmatched_sends\":0,\"timeline\":{\"endpoints\":[{\"node\":0,\"endpoint\":1,\"first_ns\":1000,\"last_ns\":1000,\"sends\":1,\"delivers\":0,\"drops\":0,\"wakeups\":0,\"misaddressed\":0,\"bytes\":7,\"events_per_sec\":0,\"gaps\":{\"count\":0,\"min_ns\":0,\"max_ns\":0,\"mean_ns\":0}},{\"node\":1,\"endpoint\":2,\"first_ns\":4000,\"last_ns\":4000,\"sends\":0,\"delivers\":1,\"drops\":0,\"wakeups\":0,\"misaddressed\":0,\"bytes\":7,\"events_per_sec\":0,\"gaps\":{\"count\":0,\"min_ns\":0,\"max_ns\":0,\"mean_ns\":0}}],\"chain_latency\":{\"count\":0,\"min_ns\":0,\"max_ns\":0,\"mean_ns\":0},\"retransmit_bursts\":0,\"retransmit_frames\":0,\"total_events\":2,\"lost\":0}},\"stall_ranking\":[{\"node\":1,\"stalls\":1,\"total_gap_ns\":20000,\"worst_gap_ns\":20000,\"worst_cause\":\"engine-idle\"}],\"stalls\":[{\"node\":1,\"start_ns\":10000,\"end_ns\":30000,\"gap_ns\":20000,\"endpoint\":1,\"cause\":\"engine-idle\",\"resume_burst\":0}],\"exposition\":\"# fixture\\n\"}";
        assert_eq!(doc.render(), expected);
    }
}
