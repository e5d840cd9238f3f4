//! Runs a workload untraced or traced and turns what it measured into the
//! reported metrics.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

use crate::procfs;
use crate::trace::{self, Name, Off, On};
use crate::workloads::{
    Checker, Counts, Ctx, Fixture, Inputs, Meter, Until, Window, Workload, ENGINE_THREAD,
};
use crate::Args;

/// Segments of an untraced run, each on a fresh fixture.
const SEGMENTS: usize = 5;
/// Timed set-ups per run, spread over its segments; `setup_s` is their
/// median.
const SETUPS: usize = 15;
/// Traffic before measuring starts: caches, branch predictors and the
/// transport's RTT estimate settle.
const WARMUP: Duration = Duration::from_millis(300);
/// Measurement window; end-to-end figures are medians over windows.
const WINDOW: Duration = Duration::from_millis(250);
/// How much slower than the best window a quiet window may be.
const QUIET: f64 = 0.3;
/// Span memory of a traced phase (40 bytes a span).
const SPAN_CAPACITY: usize = 1 << 20;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The outcome of checking fixtures' deliveries against their counters.
#[derive(Default)]
struct Verdict {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Verdict {
    fn merge(&mut self, other: Verdict) {
        self.problems.extend(other.problems);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn verdict(check: &Checker, counts: &Counts, sent: &[u64]) -> Verdict {
    let mut problems = Vec::new();
    if check.corrupt > 0 {
        problems.push(format!(
            "{} messages corrupted, misaddressed or out of order",
            check.corrupt
        ));
    }
    // Every message the benchmark counts missing must be one the engines
    // discarded, and the endpoints' drop counters must agree with them.
    let lost = counts.dropped_no_buffer + counts.misaddressed + counts.denied + counts.peer_down;
    if check.missing != lost {
        problems.push(format!(
            "{} messages missing but engines discarded {lost}",
            check.missing
        ));
    }
    let dropped = counts.dropped_no_buffer + counts.denied + counts.peer_down;
    if counts.endpoint_drops != dropped {
        problems.push(format!(
            "endpoint drop counters read {} but engines counted {dropped}",
            counts.endpoint_drops
        ));
    }
    if counts.delivered != check.delivered + check.corrupt {
        problems.push(format!(
            "engines delivered {} but the receivers took {}",
            counts.delivered,
            check.delivered + check.corrupt
        ));
    }
    if counts.check_failures > 0 {
        problems.push(format!("{} engine check failures", counts.check_failures));
    }
    Verdict {
        problems,
        attempted: sent.iter().sum(),
        failed: check.missing + check.corrupt,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of(windows: &[Window], f: impl Fn(&Window) -> Option<f64>) -> f64 {
    median(windows.iter().filter_map(f).collect())
}

/// The windows in which the host let the benchmark run at full speed:
/// those whose median latency is within `QUIET` of the run's best window.
/// On a shared host the same code runs up to 1.8 times slower for seconds
/// at a time while a neighbour is busy; those windows are left out.
fn quiet(windows: &[Window]) -> Vec<Window> {
    let best = windows
        .iter()
        .filter_map(|w| w.p50_ns)
        .fold(f64::INFINITY, f64::min);
    windows
        .iter()
        .filter(|w| w.p50_ns.is_some_and(|p| p <= best * (1.0 + QUIET)))
        .copied()
        .collect()
}

/// Time per message over the quiet windows: the one-way p50 on the
/// closed loops, the inverse rate on the saturating stream.
fn time_per_msg(w: Workload, windows: &[Window]) -> f64 {
    let quiet = quiet(windows);
    if w == Workload::StreamUdp {
        1e9 / median_of(&quiet, |w| Some(w.msgs_per_s))
    } else {
        median_of(&quiet, |w| w.p50_ns)
    }
}

pub fn run<F: Fixture>(args: &Args) -> Result<Outcome, String> {
    let inputs = Inputs::new(args.seed, args.workload.geometry().payload_size());
    if args.trace {
        traced::<F>(args, &inputs)
    } else {
        untraced::<F>(args, &inputs)
    }
}

fn ctx<'a, F: Fixture>(f: &F, inputs: &'a Inputs, window: Duration, windows: usize) -> Ctx<'a> {
    Ctx {
        inputs,
        check: Checker::new(f.senders(), false),
        meter: Meter::new(window, windows),
    }
}

/// One measured stretch on a fresh fixture: `setups` timed set-ups (the
/// last fixture is kept), a warm-up, then `length` of windows.
struct Segment {
    windows: Vec<Window>,
    samples: u64,
    setups: Vec<f64>,
    verdict: Verdict,
}

fn segment<F: Fixture>(
    w: Workload,
    inputs: &Inputs,
    setups: usize,
    length: Duration,
) -> Result<Segment, String> {
    let mut times = Vec::with_capacity(setups);
    let mut fixture = None;
    for _ in 0..setups {
        drop(fixture.take());
        let t = Instant::now();
        let f = F::setup(w, false).map_err(|e| format!("set-up: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        fixture = Some(f);
    }
    let mut f = fixture.expect("at least one set-up");
    let max_windows = (length.as_millis() / WINDOW.as_millis()) as usize + 2;
    let mut ctx = ctx(&f, inputs, WINDOW, max_windows);
    f.run(Off, &mut ctx, Until::time(WARMUP))?;
    ctx.meter.begin();
    f.run(Off, &mut ctx, Until::time(length))?;
    let windows = ctx.meter.finish();
    let samples = ctx.meter.delivered;
    f.drain(&mut ctx)?;
    Ok(Segment {
        windows,
        samples,
        setups: times,
        verdict: verdict(&ctx.check, &f.counts(), &f.sent()),
    })
}

/// `SEGMENTS` segments, each on a fresh fixture, so that set-up is timed
/// at several moments of the run and no one fixture's sockets or memory
/// placement decides the figures.
fn untraced<F: Fixture>(args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let w = args.workload;
    let length = Duration::from_secs(args.seconds) / SEGMENTS as u32;
    let (mut windows, mut setups, mut samples) = (Vec::new(), Vec::new(), 0);
    let mut v = Verdict::default();
    for _ in 0..SEGMENTS {
        let s = segment::<F>(w, inputs, SETUPS / SEGMENTS, length)?;
        windows.extend(s.windows);
        setups.extend(s.setups);
        samples += s.samples;
        v.merge(s.verdict);
    }
    let calm = quiet(&windows);
    for p in &v.problems {
        eprintln!("flipc-perfbench: {}: {p}", w.name());
    }
    eprintln!(
        "flipc-perfbench: {}: {samples} latency samples in {} windows of {:?}, {} of them quiet; {} messages sent",
        w.name(),
        windows.len(),
        WINDOW,
        calm.len(),
        v.attempted
    );
    let metrics = vec![
        Metric {
            name: "latency_p50_ns",
            value: median_of(&calm, |w| w.p50_ns),
            unit: "ns",
        },
        // The tail is taken over every window, quiet or not, so a change
        // that slows only some windows still shows.
        Metric {
            name: "latency_p99_ns",
            value: median_of(&windows, |w| w.p99_ns),
            unit: "ns",
        },
        Metric {
            name: "msgs_per_s",
            value: median_of(&calm, |w| Some(w.msgs_per_s)),
            unit: "1/s",
        },
        Metric {
            name: "cpu_ns_per_msg",
            value: median_of(&calm, |w| w.cpu_ns_per_msg),
            unit: "ns/msg",
        },
        Metric {
            name: "delivered_ratio",
            value: (v.attempted - v.failed.min(v.attempted)) as f64 / v.attempted.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "setup_s",
            value: median(setups),
            unit: "s",
        },
        Metric {
            name: "rss_peak_mib",
            value: procfs::peak_rss_mib().unwrap_or(0.0),
            unit: "MiB",
        },
    ];
    Ok(Outcome {
        correct: v.problems.is_empty(),
        attempted: v.attempted,
        failed: v.failed,
        metrics,
    })
}

/// Engine-thread accounting for `rpc_threaded`: CPU nanoseconds and
/// context switches.
fn engine_thread() -> Option<(u64, u64)> {
    let tid = procfs::thread_named(ENGINE_THREAD)?;
    Some((
        procfs::thread_cpu_ns(&tid)?,
        procfs::thread_ctx_switches(&tid)?,
    ))
}

/// An untraced phase and a traced phase of `--seconds / 2` each, on fresh
/// fixtures; the traced phase also ends when its span memory is full.
fn traced<F: Fixture>(args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let w = args.workload;
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let base = segment::<F>(w, inputs, 1, half)?;
    let untraced_time = time_per_msg(w, &base.windows);
    let mut v = base.verdict;

    let mut f = F::setup(w, true).map_err(|e| format!("set-up: {e}"))?;
    let mut ctx = ctx(&f, inputs, Duration::MAX, 1);
    f.run(On, &mut ctx, Until::time(WARMUP))?;
    let thread0 = engine_thread();
    let counts0 = f.counts();
    ctx.meter.begin();
    let phase = trace::start(SPAN_CAPACITY);
    f.run(On, &mut ctx, Until::time(half).or_trace_full())?;
    let tr = phase.finish();
    let thread1 = engine_thread();
    if let Some(path) = &args.spans {
        write_spans(&tr, path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let counts = f.counts().minus(&counts0);
    let msgs = ctx.meter.delivered.max(1) as f64;
    let traced_time = time_per_msg(w, &ctx.meter.finish());
    f.drain(&mut ctx)?;
    v.merge(verdict(&ctx.check, &f.counts(), &f.sent()));
    for p in &v.problems {
        eprintln!("flipc-perfbench: {}: {p}", w.name());
    }
    eprintln!(
        "flipc-perfbench: {}: traced {msgs} messages, {} spans, in {:.3} s",
        w.name(),
        tr.spans().len(),
        tr.wall_ns / 1e9
    );
    let thread = match (thread0, thread1) {
        (Some((c0, x0)), Some((c1, x1))) => {
            Some((c1.saturating_sub(c0) as f64, x1.saturating_sub(x0) as f64))
        }
        _ => None,
    };
    let metrics = layer_metrics(&tr, &counts, msgs, thread, untraced_time, traced_time);
    Ok(Outcome {
        correct: v.problems.is_empty(),
        attempted: v.attempted,
        failed: v.failed,
        metrics,
    })
}

fn write_spans(tr: &trace::Trace, path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tr.write_tsv(&mut out)?;
    out.flush()
}

/// The per-layer metrics. A layer the workload's path never enters, or
/// that cannot be timed from outside on it, reads 0 (see `README.md`).
fn layer_metrics(
    tr: &trace::Trace,
    c: &Counts,
    msgs: f64,
    thread: Option<(f64, f64)>,
    untraced_time: f64,
    traced_time: f64,
) -> Vec<Metric> {
    use Name::*;
    let r = tr.reduce();
    let all = |_| true;
    let hit = |a| a != 0;
    let miss = |a| a == 0;
    let per = |x: f64| x / msgs;
    let transport = [NetTrySend, NetTryRecv, NetFlush];
    let busy = r.count(Iterate, hit);
    let iterations = r.count(Iterate, all);
    let sends = r.count(NetTrySend, all);
    // On rpc_threaded the engine iterates on its own thread, where no span
    // is recorded; its allocations are counted per thread instead.
    let engine_allocs = if iterations > 0 {
        r.self_allocs(&[Iterate])
    } else {
        tr.untraced_allocs
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("core.api.send_ns", r.median_ns(Send, all), "ns"),
        m("core.api.recv_ns", r.median_ns(Recv, hit), "ns"),
        m(
            "core.api.bufmgmt_ns_per_msg",
            per(r.total_ns(&[Alloc, Free, Provide, Reclaim])),
            "ns/msg",
        ),
        m(
            "core.api.recv_empty_per_msg",
            per(r.count(Recv, miss) as f64),
            "count/msg",
        ),
        m(
            "core.wait.recv_blocking_ns",
            r.median_ns(RecvBlocking, all),
            "ns",
        ),
        m(
            "core.wait.allocs_per_msg",
            per(r.self_allocs(&[RecvBlocking]) as f64),
            "count/msg",
        ),
        m("engine.iterate_busy_ns", r.median_ns(Iterate, hit), "ns"),
        m("engine.iterate_idle_ns", r.median_ns(Iterate, miss), "ns"),
        m(
            "engine.self_ns_per_msg",
            per(r.self_ns(&[Iterate])),
            "ns/msg",
        ),
        m(
            "engine.msgs_per_busy_iteration",
            r.arg_sum(Iterate) as f64 / busy.max(1) as f64,
            "count",
        ),
        m(
            "engine.allocs_per_msg",
            per(engine_allocs as f64),
            "count/msg",
        ),
        m(
            "engine.idle_ratio",
            (iterations - busy) as f64 / iterations.max(1) as f64,
            "ratio",
        ),
        m("engine.discards", c.discards() as f64, "count"),
        m(
            "engine.loopback.try_send_ns",
            r.median_ns(LoopbackTrySend, all),
            "ns",
        ),
        m(
            "engine.loopback.try_recv_ns",
            r.median_ns(LoopbackTryRecv, hit),
            "ns",
        ),
        m(
            "engine.loopback.allocs_per_msg",
            per(r.self_allocs(&[LoopbackTrySend, LoopbackTryRecv]) as f64),
            "count/msg",
        ),
        m(
            "engine.thread.cpu_ns_per_msg",
            thread.map_or(0.0, |(cpu, _)| per(cpu)),
            "ns/msg",
        ),
        m(
            "engine.thread.iterations_per_msg",
            if thread.is_some() {
                per(c.iterations as f64)
            } else {
                0.0
            },
            "count/msg",
        ),
        m(
            "engine.thread.ctx_switches_per_msg",
            thread.map_or(0.0, |(_, cs)| per(cs)),
            "count/msg",
        ),
        m(
            "net.transport.try_send_ns",
            r.median_ns(NetTrySend, all),
            "ns",
        ),
        m(
            "net.transport.try_recv_ns",
            r.median_ns(NetTryRecv, hit),
            "ns",
        ),
        m(
            "net.transport.try_recv_empty_ns",
            r.median_ns(NetTryRecv, miss),
            "ns",
        ),
        m("net.transport.flush_ns", r.median_ns(NetFlush, all), "ns"),
        m(
            "net.transport.self_ns_per_msg",
            per(r.self_ns(&transport)),
            "ns/msg",
        ),
        m(
            "net.transport.allocs_per_msg",
            per(r.self_allocs(&transport) as f64),
            "count/msg",
        ),
        m(
            "net.transport.refused_per_send",
            r.count(NetTrySend, miss) as f64 / sends.max(1) as f64,
            "ratio",
        ),
        m(
            "net.retransmits_per_msg",
            per(c.net_retransmitted as f64),
            "count/msg",
        ),
        m(
            "net.credit_stalls_per_msg",
            per(c.net_credit_stalls as f64),
            "count/msg",
        ),
        m("net.udp.send_ns", r.median_ns(UdpSend, all), "ns"),
        m("net.udp.recv_ns", r.median_ns(UdpRecv, hit), "ns"),
        m(
            "net.udp.datagrams_per_msg",
            per(tr.datagrams as f64),
            "count/msg",
        ),
        m("net.udp.bytes_per_msg", per(tr.bytes as f64), "B/msg"),
        m(
            "net.udp.recv_empty_per_msg",
            per(r.count(UdpRecv, miss) as f64),
            "count/msg",
        ),
        m("trace.overhead_ratio", traced_time / untraced_time, "ratio"),
        m(
            "trace.unattributed_ns_per_msg",
            per(r.unattributed_ns()),
            "ns/msg",
        ),
    ]
}
