//! Dependency-free Prometheus-style text exposition.
//!
//! Dashboards need the telemetry the recorders gather, and the standard
//! transport for that is the Prometheus text format — `# HELP`/`# TYPE`
//! headers, one `name{labels} value` sample per line, histograms as
//! cumulative `_bucket{le="…"}` series. This module renders
//! [`EngineTelemetrySnapshot`] and [`TransportSnapshot`] into that format
//! with **stable metric names** (golden-tested in
//! `tests/expo_golden.rs`), entirely from the standard library.
//!
//! Serving is equally minimal: [`serve_once`] answers exactly one HTTP
//! request on an already-bound listener, and [`ExpoServer`] loops that in
//! a background thread. Both run strictly on the observer side — the
//! engine never blocks on, or even knows about, the listener.
//!
//! Metric-name contract (dashboards depend on these):
//!
//! | metric | type | labels |
//! |---|---|---|
//! | `flipc_iteration_work` | histogram | `node` |
//! | `flipc_deliver_latency_ns` | histogram | `node`, `endpoint` |
//! | `flipc_trace_events_lost_total` | counter | `node` |
//! | `flipc_net_sent_total` | counter | `node`, `peer` |
//! | `flipc_net_retransmitted_total` | counter | `node`, `peer` |
//! | `flipc_net_delivered_total` | counter | `node`, `peer` |
//! | `flipc_net_dup_dropped_total` | counter | `node`, `peer` |
//! | `flipc_net_out_of_window_total` | counter | `node`, `peer` |
//! | `flipc_net_wire_dropped_total` | counter | `node`, `peer` |
//! | `flipc_net_failed_total` | counter | `node`, `peer` |
//! | `flipc_net_stale_epoch_total` | counter | `node`, `peer` |
//! | `flipc_net_pings_total` | counter | `node`, `peer` |
//! | `flipc_net_credit_stalls_total` | counter | `node`, `peer` |
//! | `flipc_net_credit_shrinks_total` | counter | `node`, `peer` |
//! | `flipc_net_in_flight` | gauge | `node`, `peer` |
//! | `flipc_net_credit_window` | gauge | `node`, `peer` |
//! | `flipc_net_peer_state` | gauge | `node`, `peer` (0 healthy, 1 suspect, 2 dead) |
//! | `flipc_net_srtt_ticks` | gauge | `node`, `peer` |
//! | `flipc_net_rttvar_ticks` | gauge | `node`, `peer` |
//! | `flipc_net_rto_current_ticks` | gauge | `node`, `peer` |
//! | `flipc_net_epoch` | gauge | `node`, `peer` |
//! | `flipc_net_clock_offset_ns` | gauge | `node`, `peer` (signed) |
//! | `flipc_net_clock_dispersion_ns` | gauge | `node`, `peer` |
//! | `flipc_net_clock_samples` | gauge | `node`, `peer` |
//! | `flipc_net_decode_errors_total` | counter | `node` |
//! | `flipc_net_unknown_peer_total` | counter | `node` |
//! | `flipc_net_epoch_resyncs_total` | counter | `node` |
//! | `flipc_net_rto_ticks` | histogram | `node` |
//! | `flipc_net_retransmit_burst` | histogram | `node` |
//! | `flipc_net_batch_datagrams_total` | counter | `node` |
//! | `flipc_net_batch_frames_total` | counter | `node` |
//! | `flipc_net_batch_size` | histogram | `node` |
//! | `flipc_workload_published_total` | counter | `workload`, `node` |
//! | `flipc_workload_delivered_total` | counter | `workload`, `node` |
//! | `flipc_workload_dropped_total` | counter | `workload`, `node` |
//! | `flipc_workload_retried_total` | counter | `workload`, `node` |
//! | `flipc_workload_replayed_total` | counter | `workload`, `node` |
//! | `flipc_workload_acked_total` | counter | `workload`, `node` |
//! | `flipc_workload_invariant_violations_total` | counter | `workload`, `node` |
//! | `flipc_workload_backlog` | gauge | `workload`, `node` |
//! | `flipc_workload_latency_us` | histogram | `workload`, `node`, `class` |
//!
//! The HTTP side understands exactly two paths: anything (the metrics
//! page) and `/healthz` (a constant `ok` liveness probe), and speaks
//! enough HTTP/1.1 to keep a scrape connection open (`connection:
//! keep-alive` honoured, one correct `content-length` per response).

use flipc_core::sync::atomic::{AtomicBool, Ordering};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use flipc_core::hist::{bucket_bounds, HistogramSnapshot};
use flipc_core::inspect::TransportSnapshot;

use crate::telemetry::EngineTelemetrySnapshot;
use crate::workload::WorkloadSnapshot;

/// Prometheus sample types this renderer knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricType {
    Counter,
    Gauge,
    Histogram,
}

impl MetricType {
    fn name(self) -> &'static str {
        match self {
            MetricType::Counter => "counter",
            MetricType::Gauge => "gauge",
            MetricType::Histogram => "histogram",
        }
    }
}

/// One metric family: a HELP/TYPE header plus its samples, rendered in
/// insertion order.
struct Family {
    name: String,
    help: &'static str,
    kind: MetricType,
    /// Pre-rendered sample lines (`name{labels} value`).
    lines: Vec<String>,
}

/// Label set for one sample: `(key, value)` pairs rendered in order.
pub type Labels<'a> = &'a [(&'a str, String)];

/// Builder for one exposition page.
///
/// Families render in first-registration order, so repeated exposure of
/// the same snapshot structure yields byte-identical layout — the property
/// the golden test pins down.
#[derive(Default)]
pub struct Exposition {
    families: Vec<Family>,
}

impl Exposition {
    /// An empty page.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    fn family(&mut self, name: &str, help: &'static str, kind: MetricType) -> &mut Family {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            assert_eq!(
                self.families[i].kind, kind,
                "metric {name} registered with two types"
            );
            return &mut self.families[i];
        }
        self.families.push(Family {
            name: name.to_owned(),
            help,
            kind,
            lines: Vec::new(),
        });
        self.families.last_mut().expect("just pushed")
    }

    fn sample(family: &mut Family, suffix: &str, labels: Labels<'_>, value: &str) {
        let mut line = String::with_capacity(64);
        line.push_str(&family.name);
        line.push_str(suffix);
        if !labels.is_empty() {
            line.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(k);
                line.push_str("=\"");
                // Prometheus label escaping: backslash, quote, newline.
                for c in v.chars() {
                    match c {
                        '\\' => line.push_str("\\\\"),
                        '"' => line.push_str("\\\""),
                        '\n' => line.push_str("\\n"),
                        c => line.push(c),
                    }
                }
                line.push('"');
            }
            line.push('}');
        }
        line.push(' ');
        line.push_str(value);
        family.lines.push(line);
    }

    /// Adds one counter sample.
    pub fn counter(&mut self, name: &str, help: &'static str, labels: Labels<'_>, value: u64) {
        let f = self.family(name, help, MetricType::Counter);
        Exposition::sample(f, "", labels, &value.to_string());
    }

    /// Adds one gauge sample.
    pub fn gauge(&mut self, name: &str, help: &'static str, labels: Labels<'_>, value: u64) {
        let f = self.family(name, help, MetricType::Gauge);
        Exposition::sample(f, "", labels, &value.to_string());
    }

    /// Adds one signed gauge sample (Prometheus gauges may go negative —
    /// the clock-offset estimate does whenever the peer's clock lags).
    pub fn gauge_signed(&mut self, name: &str, help: &'static str, labels: Labels<'_>, value: i64) {
        let f = self.family(name, help, MetricType::Gauge);
        Exposition::sample(f, "", labels, &value.to_string());
    }

    /// Adds one histogram series: cumulative `_bucket{le="…"}` lines for
    /// every non-empty log₂ bucket plus the mandatory `le="+Inf"`, then
    /// `_sum` and `_count`. The `le` bound of bucket `i` is its inclusive
    /// upper value bound from [`bucket_bounds`].
    pub fn histogram(
        &mut self,
        name: &str,
        help: &'static str,
        labels: Labels<'_>,
        h: &HistogramSnapshot,
    ) {
        let f = self.family(name, help, MetricType::Histogram);
        let total: u64 = h.count();
        let mut cum = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let (_, hi) = bucket_bounds(i, h.buckets.len());
            if hi == u64::MAX {
                // The top bucket is the +Inf bucket rendered below.
                continue;
            }
            let mut le_labels: Vec<(&str, String)> = labels.to_vec();
            le_labels.push(("le", hi.to_string()));
            Exposition::sample(f, "_bucket", &le_labels, &cum.to_string());
        }
        let mut inf_labels: Vec<(&str, String)> = labels.to_vec();
        inf_labels.push(("le", "+Inf".to_owned()));
        Exposition::sample(f, "_bucket", &inf_labels, &total.to_string());
        Exposition::sample(f, "_sum", labels, &h.sum.to_string());
        Exposition::sample(f, "_count", labels, &total.to_string());
    }

    /// Renders the whole page (trailing newline included).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.name());
            for line in &f.lines {
                let _ = writeln!(out, "{line}");
            }
        }
        out
    }
}

/// Exposes one engine's telemetry snapshot under the stable names
/// `flipc_iteration_work` and `flipc_deliver_latency_ns` (per-endpoint),
/// labelled with this engine's `node`.
pub fn expose_engine(expo: &mut Exposition, node: u16, snap: &EngineTelemetrySnapshot) {
    let node_l = node.to_string();
    expo.histogram(
        "flipc_iteration_work",
        "Messages moved per engine-loop pass.",
        &[("node", node_l.clone())],
        &snap.iteration_work,
    );
    for (e, h) in snap.deliver_latency.iter().enumerate() {
        if h.count() == 0 {
            continue;
        }
        expo.histogram(
            "flipc_deliver_latency_ns",
            "Send-to-deliver latency per receive endpoint, nanoseconds.",
            &[("node", node_l.clone()), ("endpoint", e.to_string())],
            h,
        );
    }
}

/// Exposes the trace ring's lost-event tally for one node.
pub fn expose_trace_lost(expo: &mut Exposition, node: u16, lost: u64) {
    expo.counter(
        "flipc_trace_events_lost_total",
        "Trace events dropped because the ring was full.",
        &[("node", node.to_string())],
        lost,
    );
}

/// Exposes a transport snapshot under the stable `flipc_net_*` names
/// (per-peer counters + gauges, node-scope error counters, retransmit
/// histograms).
pub fn expose_transport(expo: &mut Exposition, snap: &TransportSnapshot) {
    let node = snap.local.0.to_string();
    for p in &snap.paths {
        let labels = [("node", node.clone()), ("peer", p.peer.0.to_string())];
        let counters: [(&str, &'static str, u32); 11] = [
            (
                "flipc_net_sent_total",
                "Data frames transmitted for the first time.",
                p.sent,
            ),
            (
                "flipc_net_retransmitted_total",
                "Data frames re-transmitted by the reliability layer.",
                p.retransmitted,
            ),
            (
                "flipc_net_delivered_total",
                "In-order frames handed up to the engine.",
                p.delivered,
            ),
            (
                "flipc_net_dup_dropped_total",
                "Duplicate arrivals discarded by the dedup window.",
                p.dup_dropped,
            ),
            (
                "flipc_net_out_of_window_total",
                "Arrivals outside the reorder window, discarded.",
                p.out_of_window,
            ),
            (
                "flipc_net_wire_dropped_total",
                "First-transmission attempts the wire refused.",
                p.wire_dropped,
            ),
            (
                "flipc_net_failed_total",
                "Sends failed back to the application by the peer lifecycle.",
                p.failed,
            ),
            (
                "flipc_net_stale_epoch_total",
                "Datagrams from a stale session epoch, rejected.",
                p.stale_epoch,
            ),
            (
                "flipc_net_pings_total",
                "Idle-path heartbeat pings sent.",
                p.pings,
            ),
            (
                "flipc_net_credit_stalls_total",
                "Sends refused by the credit grant or fairness arbiter.",
                p.credit_stalls,
            ),
            (
                "flipc_net_credit_shrinks_total",
                "Credit window shrink events (AIMD halvings and congestion clamps).",
                p.credit_shrinks,
            ),
        ];
        for (name, help, v) in counters {
            expo.counter(name, help, &labels, u64::from(v));
        }
        expo.gauge(
            "flipc_net_in_flight",
            "Frames sent and not yet cumulatively acknowledged.",
            &labels,
            u64::from(p.in_flight),
        );
        let gauges: [(&str, &'static str, u64); 6] = [
            (
                "flipc_net_peer_state",
                "Failure-detector verdict: 0 healthy, 1 suspect, 2 dead.",
                u64::from(p.liveness.as_u8()),
            ),
            (
                "flipc_net_srtt_ticks",
                "Smoothed round-trip time estimate, transport clock ticks.",
                p.srtt,
            ),
            (
                "flipc_net_rttvar_ticks",
                "Round-trip time variance estimate, transport clock ticks.",
                p.rttvar,
            ),
            (
                "flipc_net_rto_current_ticks",
                "Retransmit timeout currently armed for this path.",
                p.rto,
            ),
            (
                "flipc_net_epoch",
                "This node's current session epoch on the path.",
                u64::from(p.epoch),
            ),
            (
                "flipc_net_credit_window",
                "Effective send window under the peer's receiver-granted credit.",
                u64::from(p.credit_window),
            ),
        ];
        for (name, help, v) in gauges {
            expo.gauge(name, help, &labels, v);
        }
        expo.gauge_signed(
            "flipc_net_clock_offset_ns",
            "Estimated offset of the peer's trace clock, nanoseconds (signed).",
            &labels,
            p.clock_offset_ns,
        );
        expo.gauge(
            "flipc_net_clock_dispersion_ns",
            "Error bound on the clock offset estimate, nanoseconds.",
            &labels,
            p.clock_dispersion_ns,
        );
        expo.gauge(
            "flipc_net_clock_samples",
            "Clock-sync samples folded into the estimate this epoch.",
            &labels,
            p.clock_samples,
        );
    }
    let node_l = [("node", node.clone())];
    expo.counter(
        "flipc_net_decode_errors_total",
        "Datagrams rejected before peer attribution.",
        &node_l,
        u64::from(snap.decode_errors),
    );
    expo.counter(
        "flipc_net_unknown_peer_total",
        "Well-formed datagrams from unconfigured node ids.",
        &node_l,
        u64::from(snap.unknown_peer),
    );
    expo.counter(
        "flipc_net_epoch_resyncs_total",
        "Paths resynchronized after a peer arrived on a newer epoch.",
        &node_l,
        u64::from(snap.epoch_resyncs),
    );
    expo.histogram(
        "flipc_net_rto_ticks",
        "Retransmit timeouts that fired, in transport clock ticks.",
        &node_l,
        &snap.rto,
    );
    expo.histogram(
        "flipc_net_retransmit_burst",
        "Frames re-sent per go-back-N retransmit round.",
        &node_l,
        &snap.retransmit_burst,
    );
    expo.counter(
        "flipc_net_batch_datagrams_total",
        "Coalesced Batch datagrams transmitted.",
        &node_l,
        u64::from(snap.batch_datagrams),
    );
    expo.counter(
        "flipc_net_batch_frames_total",
        "Sub-frames carried inside coalesced Batch datagrams.",
        &node_l,
        u64::from(snap.batch_frames),
    );
    expo.histogram(
        "flipc_net_batch_size",
        "Sub-frames per transmitted Batch datagram.",
        &node_l,
        &snap.batch_size,
    );
}

/// Exposes one workload snapshot under the stable `flipc_workload_*`
/// names, labelled `{workload, node}` (plus `class` on the latency
/// histogram).
pub fn expose_workload(expo: &mut Exposition, snap: &WorkloadSnapshot) {
    let labels = [
        ("workload", snap.workload.clone()),
        ("node", snap.node.to_string()),
    ];
    let counters: [(&str, &'static str, u64); 7] = [
        (
            "flipc_workload_published_total",
            "Messages the application asked the workload to send.",
            snap.published,
        ),
        (
            "flipc_workload_delivered_total",
            "Messages handed to the application in order.",
            snap.delivered,
        ),
        (
            "flipc_workload_dropped_total",
            "Messages knowingly shed (at-most-once backpressure, expired deadlines).",
            snap.dropped,
        ),
        (
            "flipc_workload_retried_total",
            "Application-level retransmissions on the reliable paths.",
            snap.retried,
        ),
        (
            "flipc_workload_replayed_total",
            "Log entries re-delivered through a replay-from-offset fetch.",
            snap.replayed,
        ),
        (
            "flipc_workload_acked_total",
            "Application-level acknowledgements received.",
            snap.acked,
        ),
        (
            "flipc_workload_invariant_violations_total",
            "Workload invariant breaches observed (must stay zero).",
            snap.invariant_violations,
        ),
    ];
    for (name, help, v) in counters {
        expo.counter(name, help, &labels, v);
    }
    expo.gauge(
        "flipc_workload_backlog",
        "Messages accepted but not yet deliverable (buffers, outboxes, queues).",
        &labels,
        snap.backlog,
    );
    for c in &snap.classes {
        if c.latency.count() == 0 {
            continue;
        }
        let class_labels = [
            ("workload", snap.workload.clone()),
            ("node", snap.node.to_string()),
            ("class", c.class.clone()),
        ];
        expo.histogram(
            "flipc_workload_latency_us",
            "Workload send-to-deliver latency per traffic class, simulated microseconds (manual-clock ticks).",
            &class_labels,
            &c.latency,
        );
    }
}

/// A parsed HTTP request head: just enough routing state for a metrics
/// endpoint.
struct RequestHead {
    path: String,
    keep_alive: bool,
}

/// Reads one request head (through the blank line) and extracts the path
/// and connection preference. `None` on EOF, timeout, an oversized head,
/// or a malformed request line.
fn read_request_head(stream: &mut std::net::TcpStream) -> Option<RequestHead> {
    // Single-byte reads keep this free of buffering state across
    // requests on a keep-alive connection; the head is tiny and the
    // observer-side cost is irrelevant.
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= 4096 {
            return None;
        }
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => return None,
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let request = lines.next()?;
    let mut parts = request.split_ascii_whitespace();
    let _method = parts.next()?;
    let path = parts.next()?.to_string();
    let version = parts.next().unwrap_or("HTTP/1.0");
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    // `connection:` header overrides either way.
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("connection") {
                let value = value.trim().to_ascii_lowercase();
                keep_alive = value == "keep-alive";
            }
        }
    }
    Some(RequestHead { path, keep_alive })
}

/// Writes one complete HTTP response with a correct `content-length`.
fn write_response(
    stream: &mut std::net::TcpStream,
    body: &str,
    content_type: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 200 OK\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// Routes one parsed request: `/healthz` answers the constant liveness
/// page, every other path gets the metrics body from `render`.
fn respond(
    stream: &mut std::net::TcpStream,
    req: &RequestHead,
    render: &dyn Fn() -> String,
    keep_alive: bool,
) -> std::io::Result<()> {
    if req.path == "/healthz" {
        write_response(stream, "ok\n", "text/plain", keep_alive)
    } else {
        write_response(stream, &render(), "text/plain; version=0.0.4", keep_alive)
    }
}

/// Answers exactly one HTTP request on `listener`: `/healthz` gets the
/// liveness page, any other path gets `body` as the metrics page. The
/// connection always closes after the response (one request is the
/// contract; [`ExpoServer`] is the keep-alive path). Returns the peer
/// that was served.
///
/// Blocks until a client connects (honouring the listener's own blocking
/// mode and timeouts).
pub fn serve_once(listener: &TcpListener, body: &str) -> std::io::Result<SocketAddr> {
    let (mut stream, peer) = listener.accept()?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    if let Some(req) = read_request_head(&mut stream) {
        let body = body.to_owned();
        respond(&mut stream, &req, &move || body.clone(), false)?;
    }
    Ok(peer)
}

/// A tiny blocking metrics listener on a background thread: every request
/// gets a freshly rendered page from the supplied callback, `/healthz`
/// answers a constant liveness probe, and connections are kept alive
/// across requests when the client asks for it.
pub struct ExpoServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ExpoServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `render` until the
    /// handle is dropped.
    pub fn spawn<F>(addr: &str, render: F) -> std::io::Result<ExpoServer>
    where
        F: Fn() -> String + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        // Nonblocking accept + sleep keeps shutdown simple (no self-connect
        // tricks) at the cost of a few wakeups per second — observer-side
        // only, invisible to the engine.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let join = std::thread::Builder::new()
            .name("flipc-expo".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false).ok();
                            serve_stream(stream, &render);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => return,
                    }
                }
            })?;
        Ok(ExpoServer {
            addr: bound,
            stop,
            join: Some(join),
        })
    }

    /// The address actually bound (resolves `:0` port requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Serves a keep-alive connection: requests are answered with freshly
/// rendered pages until the client asks to close, goes quiet (500 ms
/// read timeout), or exhausts the per-connection request budget (a
/// misbehaving scraper cannot pin the accept loop forever).
fn serve_stream(mut stream: std::net::TcpStream, render: &dyn Fn() -> String) {
    const MAX_REQUESTS_PER_CONN: u32 = 64;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    for served in 0..MAX_REQUESTS_PER_CONN {
        let Some(req) = read_request_head(&mut stream) else {
            return;
        };
        let keep_alive = req.keep_alive && served + 1 < MAX_REQUESTS_PER_CONN;
        if respond(&mut stream, &req, render, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

impl Drop for ExpoServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Reads exactly one HTTP response (head through `\r\n\r\n`, then a
/// `content-length` body) off a stream that stays open afterwards — the
/// client side of the keep-alive contract [`serve_stream`] speaks.
fn read_http_response(stream: &mut std::net::TcpStream) -> std::io::Result<(String, String)> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= 4096 {
            return Err(std::io::Error::other("oversized response head"));
        }
        match stream.read(&mut byte)? {
            1 => head.push(byte[0]),
            _ => return Err(std::io::ErrorKind::UnexpectedEof.into()),
        }
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let len: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().to_owned())
        })
        .ok_or_else(|| std::io::Error::other("no content-length"))?
        .parse()
        .map_err(std::io::Error::other)?;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok((head, String::from_utf8_lossy(&body).into_owned()))
}

/// One node's metrics page as fetched by a [`ClusterScraper`] poll
/// (`page` is `None` when the node was unreachable this round).
#[derive(Clone, Debug)]
pub struct NodeScrape {
    /// The node id the target was registered under.
    pub node: u16,
    /// The raw exposition page, or `None` on connect/read failure.
    pub page: Option<String>,
}

/// A metrics client that polls several nodes' [`ExpoServer`]s over
/// persistent keep-alive connections — the same HTTP/1.1 path a
/// `/healthz` probe uses — and hands back one page per node. Purely
/// observer-side: it shares nothing with the engines it watches except
/// the TCP sockets.
///
/// Connections are lazy and self-healing: a target that is down simply
/// yields `page: None` this round and is re-dialed on the next poll, so
/// one crashed node never stalls the rest of the cluster view.
pub struct ClusterScraper {
    targets: Vec<(u16, SocketAddr)>,
    conns: Vec<Option<std::net::TcpStream>>,
}

impl ClusterScraper {
    /// A scraper over `(node id, exposition address)` targets.
    pub fn new(targets: &[(u16, SocketAddr)]) -> ClusterScraper {
        ClusterScraper {
            targets: targets.to_vec(),
            conns: targets.iter().map(|_| None).collect(),
        }
    }

    /// The registered `(node id, address)` targets, in poll order.
    pub fn targets(&self) -> &[(u16, SocketAddr)] {
        &self.targets
    }

    /// Polls every target once, reusing each node's keep-alive
    /// connection when it is still good and re-dialing when it is not.
    pub fn scrape(&mut self) -> Vec<NodeScrape> {
        let mut out = Vec::with_capacity(self.targets.len());
        for (i, &(node, addr)) in self.targets.iter().enumerate() {
            let page = self.conns[i]
                .as_mut()
                .and_then(|c| Self::fetch(c, "/metrics").ok())
                .or_else(|| {
                    // Stale or absent connection: one fresh dial attempt.
                    self.conns[i] = Self::dial(addr);
                    self.conns[i]
                        .as_mut()
                        .and_then(|c| Self::fetch(c, "/metrics").ok())
                });
            if page.is_none() {
                self.conns[i] = None;
            }
            out.push(NodeScrape { node, page });
        }
        out
    }

    fn dial(addr: SocketAddr) -> Option<std::net::TcpStream> {
        let stream =
            std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .ok()?;
        Some(stream)
    }

    fn fetch(stream: &mut std::net::TcpStream, path: &str) -> std::io::Result<String> {
        let req = format!("GET {path} HTTP/1.1\r\nhost: flipc\r\nconnection: keep-alive\r\n\r\n");
        stream.write_all(req.as_bytes())?;
        let (_head, body) = read_http_response(stream)?;
        Ok(body)
    }
}

/// Merges per-node exposition pages into one cluster-wide page: each
/// family's `# HELP`/`# TYPE` headers are emitted once (first node
/// wins), and sample lines pass through untouched — the `expose_*`
/// helpers already stamp every sample with its `node` label, which is
/// what keeps the merged families disjoint.
pub fn merge_pages(scrapes: &[NodeScrape]) -> String {
    let mut out = String::new();
    let mut seen_help: Vec<String> = Vec::new();
    let mut seen_type: Vec<String> = Vec::new();
    for s in scrapes {
        let Some(page) = &s.page else { continue };
        for line in page.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let fam = rest.split_whitespace().next().unwrap_or_default();
                if seen_help.iter().any(|f| f == fam) {
                    continue;
                }
                seen_help.push(fam.to_owned());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let fam = rest.split_whitespace().next().unwrap_or_default();
                if seen_type.iter().any(|f| f == fam) {
                    continue;
                }
                seen_type.push(fam.to_owned());
            }
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Extracts the value of the first sample in `page` whose metric name is
/// exactly `name` and whose label block contains every `(key, value)`
/// pair in `labels`. Works on single-node and merged pages alike; `None`
/// when no sample matches.
pub fn sample_value(page: &str, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    for line in page.lines() {
        if line.starts_with('#') || !line.starts_with(name) {
            continue;
        }
        let rest = &line[name.len()..];
        // The name must end here: either a label block or the value.
        let (label_block, value) = match rest.strip_prefix('{') {
            Some(tail) => {
                let (block, value) = tail.split_once("} ")?;
                (block, value)
            }
            None => match rest.strip_prefix(' ') {
                Some(value) => ("", value),
                None => continue,
            },
        };
        let all = labels
            .iter()
            .all(|(k, v)| label_block.contains(&format!("{k}=\"{v}\"")));
        if all {
            return value.trim().parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipc_core::hist::BUCKETS;

    #[test]
    fn families_dedupe_help_and_type_headers() {
        let mut e = Exposition::new();
        e.counter("flipc_x_total", "X.", &[("node", "0".into())], 1);
        e.counter("flipc_x_total", "X.", &[("node", "1".into())], 2);
        let page = e.render();
        assert_eq!(page.matches("# HELP flipc_x_total").count(), 1);
        assert_eq!(page.matches("# TYPE flipc_x_total counter").count(), 1);
        assert!(page.contains("flipc_x_total{node=\"0\"} 1\n"));
        assert!(page.contains("flipc_x_total{node=\"1\"} 2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let mut h = HistogramSnapshot::empty(BUCKETS);
        h.buckets[1] = 3; // values in [1,1]
        h.buckets[3] = 2; // values in [4,7]
        h.sum = 13;
        let mut e = Exposition::new();
        e.histogram("flipc_h", "H.", &[], &h);
        let page = e.render();
        assert!(page.contains("flipc_h_bucket{le=\"1\"} 3\n"), "{page}");
        assert!(page.contains("flipc_h_bucket{le=\"7\"} 5\n"), "{page}");
        assert!(page.contains("flipc_h_bucket{le=\"+Inf\"} 5\n"), "{page}");
        assert!(page.contains("flipc_h_sum 13\n"));
        assert!(page.contains("flipc_h_count 5\n"));
    }

    #[test]
    fn top_bucket_samples_surface_only_in_inf() {
        let mut h = HistogramSnapshot::empty(BUCKETS);
        h.buckets[BUCKETS - 1] = 4;
        let mut e = Exposition::new();
        e.histogram("flipc_h", "H.", &[], &h);
        let page = e.render();
        assert!(page.contains("flipc_h_bucket{le=\"+Inf\"} 4\n"), "{page}");
        assert_eq!(page.matches("_bucket").count(), 1, "{page}");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut e = Exposition::new();
        e.gauge("g", "G.", &[("who", "a\"b\\c\nd".into())], 7);
        assert!(e.render().contains("g{who=\"a\\\"b\\\\c\\nd\"} 7\n"));
    }

    #[test]
    fn serve_once_answers_http() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve_once(&listener, "flipc_up 1\n").unwrap());
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        server.join().unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("text/plain"), "{resp}");
        assert!(resp.ends_with("flipc_up 1\n"), "{resp}");
    }

    #[test]
    fn expo_server_serves_fresh_pages_until_dropped() {
        use flipc_core::sync::atomic::AtomicU64;
        let n = Arc::new(AtomicU64::new(0));
        let n2 = n.clone();
        let server = ExpoServer::spawn("127.0.0.1:0", move || {
            format!("flipc_page {}\n", n2.fetch_add(1, Ordering::Relaxed))
        })
        .unwrap();
        let fetch = |addr| {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
            let mut r = String::new();
            s.read_to_string(&mut r).unwrap();
            r
        };
        let a = fetch(server.addr());
        let b = fetch(server.addr());
        assert!(a.contains("flipc_page 0"), "{a}");
        assert!(b.contains("flipc_page 1"), "{b}");
        drop(server);
    }

    /// Reads exactly one HTTP response (head + `content-length` body)
    /// off a stream that may stay open — the keep-alive test's parser.
    fn read_one_response(stream: &mut std::net::TcpStream) -> (String, String) {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            assert_eq!(stream.read(&mut byte).unwrap(), 1, "head truncated");
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                    .map(str::to_owned)
            })
            .expect("content-length present")
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        (head, String::from_utf8(body).unwrap())
    }

    #[test]
    fn healthz_answers_ok_on_both_serve_paths() {
        // serve_once.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve_once(&listener, "flipc_up 1\n").unwrap());
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        server.join().unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("content-length: 3\r\n"), "{resp}");
        assert!(resp.ends_with("ok\n"), "{resp}");
        // ExpoServer.
        let server = ExpoServer::spawn("127.0.0.1:0", || "flipc_up 1\n".to_string()).unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.ends_with("ok\n"), "{resp}");
        drop(server);
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        use flipc_core::sync::atomic::AtomicU64;
        let n = Arc::new(AtomicU64::new(0));
        let n2 = n.clone();
        let server = ExpoServer::spawn("127.0.0.1:0", move || {
            format!("flipc_page {}\n", n2.fetch_add(1, Ordering::Relaxed))
        })
        .unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        // HTTP/1.1 defaults to keep-alive: three requests, one socket,
        // each response freshly rendered with its own content-length.
        for expect in 0..3u64 {
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nhost: x\r\n\r\n")
                .unwrap();
            let (head, body) = read_one_response(&mut stream);
            assert!(head.contains("connection: keep-alive"), "{head}");
            assert!(
                head.contains(&format!("content-length: {}", body.len())),
                "{head}"
            );
            assert_eq!(body, format!("flipc_page {expect}\n"));
        }
        // A mid-stream healthz rides the same connection.
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        let (_, body) = read_one_response(&mut stream);
        assert_eq!(body, "ok\n");
        // An explicit close is honoured: response, then EOF.
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
            .unwrap();
        let (head, _) = read_one_response(&mut stream);
        assert!(head.contains("connection: close"), "{head}");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection must close after response");
        drop(server);
    }

    #[test]
    fn cluster_scraper_polls_and_merges_nodes_and_survives_a_dead_target() {
        let s0 = ExpoServer::spawn("127.0.0.1:0", || {
            "# HELP flipc_x X.\n# TYPE flipc_x gauge\nflipc_x{node=\"0\"} 1\n".to_string()
        })
        .unwrap();
        let s1 = ExpoServer::spawn("127.0.0.1:0", || {
            "# HELP flipc_x X.\n# TYPE flipc_x gauge\nflipc_x{node=\"1\"} -2\n".to_string()
        })
        .unwrap();
        // A target nobody listens on: bind-then-drop frees the port.
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let mut scraper = ClusterScraper::new(&[(0, s0.addr()), (1, s1.addr()), (7, dead)]);
        for _ in 0..2 {
            // Two rounds: the second reuses the keep-alive connections.
            let scrapes = scraper.scrape();
            assert_eq!(scrapes.len(), 3);
            assert!(scrapes[0].page.as_deref().unwrap().contains("node=\"0\""));
            assert!(scrapes[1].page.as_deref().unwrap().contains("node=\"1\""));
            assert!(scrapes[2].page.is_none(), "dead target reads None");
            let merged = merge_pages(&scrapes);
            assert_eq!(
                merged.matches("# HELP flipc_x").count(),
                1,
                "family headers dedupe:\n{merged}"
            );
            assert_eq!(merged.matches("# TYPE flipc_x gauge").count(), 1);
            assert!(merged.contains("flipc_x{node=\"0\"} 1\n"));
            assert!(merged.contains("flipc_x{node=\"1\"} -2\n"));
            assert_eq!(
                sample_value(&merged, "flipc_x", &[("node", "0")]),
                Some(1.0)
            );
            assert_eq!(
                sample_value(&merged, "flipc_x", &[("node", "1")]),
                Some(-2.0),
                "signed gauges parse"
            );
            assert_eq!(sample_value(&merged, "flipc_x", &[("node", "9")]), None);
        }
        drop((s0, s1));
    }

    #[test]
    fn sample_value_matches_exact_names_and_bare_samples() {
        let page = "flipc_xy 3\nflipc_x 7\n";
        // `flipc_x` must not match the longer `flipc_xy` line.
        assert_eq!(sample_value(page, "flipc_x", &[]), Some(7.0));
        assert_eq!(sample_value(page, "flipc_xy", &[]), Some(3.0));
        assert_eq!(sample_value(page, "flipc_z", &[]), None);
    }

    #[test]
    fn workload_exposure_uses_stable_names() {
        use crate::workload::{WorkloadClass, WorkloadSnapshot};
        let mut lat = HistogramSnapshot::empty(BUCKETS);
        lat.buckets[4] = 7; // values in [8,15]
        lat.sum = 70;
        let mut snap = WorkloadSnapshot::new("broadcast", 2);
        snap.published = 30;
        snap.delivered = 28;
        snap.dropped = 1;
        snap.retried = 5;
        snap.replayed = 0;
        snap.acked = 28;
        snap.invariant_violations = 0;
        snap.backlog = 2;
        snap.classes.push(WorkloadClass {
            class: "topic0".to_string(),
            latency: lat,
        });
        snap.classes.push(WorkloadClass {
            class: "quiet".to_string(),
            latency: HistogramSnapshot::empty(BUCKETS),
        });
        let mut e = Exposition::new();
        expose_workload(&mut e, &snap);
        let page = e.render();
        for needle in [
            "flipc_workload_published_total{workload=\"broadcast\",node=\"2\"} 30",
            "flipc_workload_delivered_total{workload=\"broadcast\",node=\"2\"} 28",
            "flipc_workload_dropped_total{workload=\"broadcast\",node=\"2\"} 1",
            "flipc_workload_retried_total{workload=\"broadcast\",node=\"2\"} 5",
            "flipc_workload_replayed_total{workload=\"broadcast\",node=\"2\"} 0",
            "flipc_workload_acked_total{workload=\"broadcast\",node=\"2\"} 28",
            "flipc_workload_invariant_violations_total{workload=\"broadcast\",node=\"2\"} 0",
            "flipc_workload_backlog{workload=\"broadcast\",node=\"2\"} 2",
            "flipc_workload_latency_us_count{workload=\"broadcast\",node=\"2\",class=\"topic0\"} 7",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
        // Quiet classes are not exposed.
        assert!(!page.contains("class=\"quiet\""), "{page}");
    }

    #[test]
    fn engine_and_transport_exposure_use_stable_names() {
        use flipc_core::endpoint::FlipcNodeId;
        use flipc_core::inspect::PathSnapshot;
        let mut lat = HistogramSnapshot::empty(BUCKETS);
        lat.buckets[11] = 5;
        lat.sum = 5_000;
        let snap = crate::telemetry::EngineTelemetrySnapshot {
            iteration_work: HistogramSnapshot::empty(BUCKETS),
            deliver_latency: vec![HistogramSnapshot::empty(BUCKETS), lat],
        };
        let tsnap = TransportSnapshot {
            local: FlipcNodeId(0),
            paths: vec![PathSnapshot {
                peer: FlipcNodeId(1),
                sent: 10,
                retransmitted: 2,
                delivered: 9,
                dup_dropped: 1,
                out_of_window: 0,
                wire_dropped: 0,
                in_flight: 1,
                failed: 4,
                stale_epoch: 2,
                pings: 6,
                credit_stalls: 11,
                credit_shrinks: 3,
                credit_window: 6,
                liveness: flipc_core::inspect::PeerLiveness::Suspect,
                srtt: 120,
                rttvar: 30,
                rto: 240,
                epoch: 3,
                clock_offset_ns: -750,
                clock_dispersion_ns: 90,
                clock_samples: 5,
            }],
            decode_errors: 0,
            unknown_peer: 0,
            epoch_resyncs: 1,
            rto: HistogramSnapshot::empty(BUCKETS),
            retransmit_burst: HistogramSnapshot::empty(BUCKETS),
            batch_datagrams: 3,
            batch_frames: 12,
            batch_size: HistogramSnapshot::empty(BUCKETS),
        };
        let mut e = Exposition::new();
        expose_engine(&mut e, 0, &snap);
        expose_trace_lost(&mut e, 0, 3);
        expose_transport(&mut e, &tsnap);
        let page = e.render();
        for needle in [
            "# TYPE flipc_iteration_work histogram",
            "flipc_deliver_latency_ns_count{node=\"0\",endpoint=\"1\"} 5",
            "flipc_trace_events_lost_total{node=\"0\"} 3",
            "flipc_net_sent_total{node=\"0\",peer=\"1\"} 10",
            "flipc_net_in_flight{node=\"0\",peer=\"1\"} 1",
            "flipc_net_failed_total{node=\"0\",peer=\"1\"} 4",
            "flipc_net_stale_epoch_total{node=\"0\",peer=\"1\"} 2",
            "flipc_net_pings_total{node=\"0\",peer=\"1\"} 6",
            "flipc_net_credit_stalls_total{node=\"0\",peer=\"1\"} 11",
            "flipc_net_credit_shrinks_total{node=\"0\",peer=\"1\"} 3",
            "flipc_net_credit_window{node=\"0\",peer=\"1\"} 6",
            "flipc_net_peer_state{node=\"0\",peer=\"1\"} 1",
            "flipc_net_srtt_ticks{node=\"0\",peer=\"1\"} 120",
            "flipc_net_rttvar_ticks{node=\"0\",peer=\"1\"} 30",
            "flipc_net_rto_current_ticks{node=\"0\",peer=\"1\"} 240",
            "flipc_net_epoch{node=\"0\",peer=\"1\"} 3",
            "flipc_net_clock_offset_ns{node=\"0\",peer=\"1\"} -750",
            "flipc_net_clock_dispersion_ns{node=\"0\",peer=\"1\"} 90",
            "flipc_net_clock_samples{node=\"0\",peer=\"1\"} 5",
            "flipc_net_decode_errors_total{node=\"0\"} 0",
            "flipc_net_epoch_resyncs_total{node=\"0\"} 1",
            "# TYPE flipc_net_retransmit_burst histogram",
            "flipc_net_batch_datagrams_total{node=\"0\"} 3",
            "flipc_net_batch_frames_total{node=\"0\"} 12",
            "# TYPE flipc_net_batch_size histogram",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
        // Quiet endpoints are not exposed (ep0 delivered nothing).
        assert!(!page.contains("endpoint=\"0\""), "{page}");
    }
}
