//! `bench-report`: the deterministic simulation suite.
//!
//! Every row drives the real reliability layer, workloads or link shaper
//! through seeded fault schedules on a [`ManualClock`], so the suite
//! writes the same `BENCH.json` (see [`flipc_bench::report`]) on every
//! host, in debug and release builds alike:
//!
//! * recovery under seeded 1% / 10% datagram loss (delivery ratio and
//!   retransmissions per frame — the fault schedule is a fixed, replayable
//!   adversary),
//! * per-frame recovery latency p99 under the seeded 10% adversary,
//! * reliable broadcast fan-out, replicated-log replay and tiered delivery
//!   over the workload chaos cluster,
//! * goodput and high-class latency through a token-bucket-shaped link.
//!
//! One manual-clock tick is one simulated microsecond, so latencies are
//! reported in `us` and rates per simulated second. Wall-clock
//! measurements live in `perfbench/`, not here.
//!
//! ```text
//! bench-report [--out BENCH.json]
//! ```
//!
//! The crate's `baseline` test runs this binary and fails unless every
//! row equals `baselines/BENCH_baseline.json`. A change that moves a row
//! regenerates that file in the same commit:
//! `cargo run --release -p flipc-bench --bin bench-report -- --out baselines/BENCH_baseline.json`.

use std::process::ExitCode;

use flipc_bench::report::{percentile, Direction, Metric, Report};
use flipc_core::endpoint::{EndpointAddress, EndpointIndex, FlipcNodeId};
use flipc_engine::transport::Transport;
use flipc_engine::wire::{Frame, FRAME_HEADER_LEN};
use flipc_net::packet::HEADER_LEN;
use flipc_net::{
    FaultConfig, FaultInjector, ManualClock, MemHub, MemLink, NetConfig, NetTransport,
};
use flipc_workloads::{
    Broadcast, BroadcastConfig, LogConfig, ReplicatedLog, TierConfig, Tiered, TopicSpec,
};

/// Manual-clock ticks (simulated microseconds) per simulated second.
const TICKS_PER_SEC: f64 = 1e6;

fn main() -> ExitCode {
    let mut out = String::from("BENCH.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("bench-report: --out needs a value");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: bench-report [--out FILE]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bench-report: unknown flag {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let report = run_suite();
    println!("{}", summarize(&report));
    if let Err(e) = std::fs::write(&out, report.render_json()) {
        eprintln!("bench-report: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    eprintln!(
        "bench-report: wrote {out} ({} metrics)",
        report.metrics.len()
    );
    ExitCode::SUCCESS
}

/// Runs the whole deterministic suite and assembles the report.
fn run_suite() -> Report {
    let mut metrics = Vec::new();

    // --- Seeded-loss recovery: the same fixed adversary every run.
    let frames = 1000;
    for (loss_pct, loss) in [(1u32, 0.01f64), (10, 0.10)] {
        let run = lossy_run(loss, frames);
        metrics.push(scalar(
            format!("loss{loss_pct}_delivery_ratio"),
            "ratio",
            run.delivered as f64 / frames as f64,
            Direction::HigherIsBetter,
        ));
        metrics.push(scalar(
            format!("loss{loss_pct}_retransmits_per_frame"),
            "frames",
            run.retransmitted as f64 / frames as f64,
            Direction::LowerIsBetter,
        ));
        // Per-frame recovery latency under the 10% adversary.
        if loss_pct == 10 {
            metrics.push(latency_us(
                "loss_recovery_adaptive_p99_us",
                (run.p50, run.p99),
            ));
        }
    }

    // --- Workload-level metrics over the deterministic chaos cluster.
    metrics.push(scalar(
        "broadcast_fanout_msgs_per_sim_sec",
        "msg/sim-s",
        broadcast_fanout_rate(),
        Direction::HigherIsBetter,
    ));
    metrics.push(latency_us(
        "log_append_replay_p99_us",
        log_append_replay_latency(),
    ));
    metrics.push(latency_us(
        "tiered_high_class_p99_us",
        tiered_high_class_latency(),
    ));

    // --- Flow control under congestion: the reliability layer pushing a
    // fixed frame count through a token-bucket-shaped link, the credit
    // loop holding the sender inside the bottleneck.
    metrics.push(scalar(
        "goodput_under_congestion_msgs_per_sim_sec",
        "msg/sim-s",
        congested_goodput(),
        Direction::HigherIsBetter,
    ));
    metrics.push(latency_us(
        "tiered_high_class_p99_under_bulk_us",
        tiered_high_class_latency_under_bulk(),
    ));

    Report::new(metrics)
}

/// A row with no sample distribution behind it.
fn scalar(name: impl Into<String>, unit: &str, value: f64, direction: Direction) -> Metric {
    Metric {
        name: name.into(),
        unit: unit.into(),
        value,
        p50: None,
        p99: None,
        direction,
    }
}

/// A latency row in simulated microseconds: the p99 is the headline.
fn latency_us(name: impl Into<String>, (p50, p99): (f64, f64)) -> Metric {
    Metric {
        name: name.into(),
        unit: "us".into(),
        value: p99,
        p50: Some(p50),
        p99: Some(p99),
        direction: Direction::LowerIsBetter,
    }
}

/// Transport tuning for the workload metrics: the same fast manual-clock
/// timers the workload chaos suite pins, so RTOs and heartbeats fire
/// within a bench-sized run.
fn workload_net() -> NetConfig {
    NetConfig {
        window: 8,
        rto: 100,
        rto_min: 10,
        rto_max: 400,
        suspect_strikes: 2,
        dead_strikes: 8,
        heartbeat_interval: 2_000,
        ..NetConfig::default()
    }
}

/// Reliable fan-out throughput: one publisher, three ack-backed
/// subscribers on a clean link; total deliveries per simulated second.
fn broadcast_fanout_rate() -> f64 {
    let topics = vec![TopicSpec {
        topic: 0,
        publisher: 0,
        subscribers: vec![1, 2, 3],
    }];
    let mut b = Broadcast::new(
        4,
        workload_net(),
        0xBE9C_0001,
        BroadcastConfig::default(),
        topics,
    );
    for _ in 0..240 {
        b.publish_burst(4);
        b.step();
    }
    for _ in 0..4_000 {
        if b.completeness_violations().is_empty() {
            break;
        }
        b.step();
    }
    assert!(
        b.completeness_violations().is_empty(),
        "fanout bench failed to quiesce"
    );
    let delivered: u64 = [1u16, 2, 3].iter().map(|&s| b.delivered(0, s)).sum();
    delivered as f64 * TICKS_PER_SEC / b.cluster_mut().now().max(1) as f64
}

/// Append latency at a follower that crashes mid-stream and catches up
/// through replay-from-offset: the p99 is dominated by the recovery
/// path, which is exactly what the gate watches.
fn log_append_replay_latency() -> (f64, f64) {
    let entries = 240;
    let mut log = ReplicatedLog::new(2, workload_net(), 0xBE9C_0002, LogConfig::default());
    for v in 0..entries / 2 {
        log.append(v);
    }
    log.run(60);
    log.crash_follower(1);
    for v in entries / 2..entries {
        log.append(v);
    }
    log.run(60);
    log.restart_follower(1);
    for _ in 0..600 {
        if log.committed() == log.leader_len() {
            break;
        }
        log.run(10);
    }
    assert_eq!(
        log.committed(),
        log.leader_len(),
        "replay bench failed to quiesce"
    );
    let snaps = log.snapshots();
    let h = &snaps[1].classes[0].latency;
    (
        h.quantile(0.5).unwrap_or(0.0),
        h.quantile(0.99).unwrap_or(0.0),
    )
}

/// High-class delivery latency while the bulk class saturates the link
/// under seeded 10% loss — the strict-priority bound the tiered chaos
/// story asserts, measured.
fn tiered_high_class_latency() -> (f64, f64) {
    let mut cfg = TierConfig::default();
    cfg.classes[2].deadline = 3_000;
    let mut t = Tiered::new(workload_net(), 0xBE9C_0003, cfg);
    t.cluster_mut().faults(0, FaultConfig::lossy(0.10));
    tiered_run(&mut t, "tiered bench failed to quiesce")
}

/// Goodput through the reliability layer over a token-bucket-shaped link
/// running far below the sender's natural rate: the sender keeps the
/// window full, the shaper meters the wire, and the receiver-granted
/// credit window (AIMD on the shaper's tail drops) has to keep the
/// retransmit ratio bounded while the link drains at capacity.
fn congested_goodput() -> f64 {
    let frames = 600;
    // The initial RTO must sit above the shaped link's worst-case queue
    // service time, or the first timeout fires before the first ack can
    // possibly return, Karn's rule then discards every RTT sample, and
    // the run degenerates into a spurious go-back-N storm (the shaped
    // chaos test documents the same calibration).
    let cfg = NetConfig {
        window: 32,
        rto: 4_000,
        rto_min: 100,
        rto_max: 20_000,
        ..NetConfig::default()
    };
    let shaped = FaultConfig {
        bandwidth_bps: 2_000_000,
        ..FaultConfig::default()
    };
    let mut pair = MemPair::new(cfg, shaped);
    let (mut sent, mut delivered) = (0u32, 0u32);
    let mut budget = frames * 600;
    while delivered < frames && budget > 0 {
        budget -= 1;
        let (accepted, arrived) = pair.step(u32::from(sent < frames), 25);
        sent += accepted;
        delivered += arrived;
    }
    assert_eq!(delivered, frames, "congested goodput bench failed to drain");
    let retransmitted = pair.a.stats().snapshot().paths[0].retransmitted;
    assert!(
        retransmitted <= frames,
        "retransmit storm under congestion: {retransmitted} for {frames} frames"
    );
    // The shaper admits `bandwidth_bps` bytes per simulated second, and
    // each frame leaves as one Data datagram: packet header, frame
    // header, payload.
    let datagram = HEADER_LEN + FRAME_HEADER_LEN + pair.frame.payload.len();
    let capacity = shaped.bandwidth_bps as f64 / datagram as f64;
    let goodput = f64::from(delivered) * TICKS_PER_SEC / pair.now.max(1) as f64;
    assert!(
        goodput <= capacity,
        "goodput {goodput:.0} msg/s exceeds the shaped link's {capacity:.0} datagrams/s"
    );
    goodput
}

/// High-class delivery latency while the bulk tier saturates a
/// token-bucket-shaped bottleneck (no loss — pure congestion): the DRR
/// arbiter and per-peer credit window are what keep the high tier's p99
/// bounded here, measured over the same harness the chaos suite pins.
fn tiered_high_class_latency_under_bulk() -> (f64, f64) {
    let mut cfg = TierConfig::default();
    cfg.classes[2].deadline = 3_000;
    // Patient timers for the same reason as `congested_goodput`: the
    // bottleneck queue's service time must not outrun the initial RTO.
    let net = NetConfig {
        rto: 2_000,
        rto_min: 100,
        rto_max: 20_000,
        ..workload_net()
    };
    let mut t = Tiered::new(net, 0xBE9C_0004, cfg);
    let shaped = FaultConfig {
        bandwidth_bps: 2_000_000,
        ..FaultConfig::default()
    };
    t.cluster_mut().faults(0, shaped);
    tiered_run(&mut t, "bulk-congested tiered bench failed to quiesce")
}

/// Offers eight bulk messages every step and one high-class message every
/// fourth, for 400 steps under node 0's installed faults; then heals the
/// link, runs until every high-class message is delivered, and returns
/// the high class's `(p50, p99)` latency.
fn tiered_run(t: &mut Tiered, stuck: &str) -> (f64, f64) {
    let mut high_sent = 0u64;
    for step in 0..400 {
        t.offer(2, 8);
        if step % 4 == 0 {
            t.offer(0, 1);
            high_sent += 1;
        }
        t.step();
    }
    t.cluster_mut().faults(0, FaultConfig::default());
    for _ in 0..1_000 {
        if t.delivered(0) == high_sent {
            break;
        }
        t.step();
    }
    assert_eq!(t.delivered(0), high_sent, "{stuck}");
    (
        t.latency_quantile(0, 0.5).unwrap_or(0.0),
        t.latency_quantile(0, 0.99).unwrap_or(0.0),
    )
}

/// A sender/receiver [`NetTransport`] pair over an in-memory hub, stepped
/// on a manual clock. The sender's link runs through a seeded fault
/// injector (a pass-through under `FaultConfig::default()`), and every
/// send is the same 56-byte-payload frame.
struct MemPair {
    a: NetTransport<FaultInjector<MemLink>, ManualClock>,
    b: NetTransport<MemLink, ManualClock>,
    clock: ManualClock,
    frame: Frame,
    /// Manual-clock ticks stepped so far.
    now: u64,
}

impl MemPair {
    fn new(cfg: NetConfig, fault: FaultConfig) -> MemPair {
        let hub = MemHub::new(2, 4096);
        let clock = ManualClock::new();
        let (n0, n1) = (FlipcNodeId(0), FlipcNodeId(1));
        MemPair {
            a: NetTransport::new(
                n0,
                &[n1],
                FaultInjector::new(hub.link(n0), fault, 0xF11C),
                clock.clone(),
                cfg,
            ),
            b: NetTransport::new(n1, &[n0], hub.link(n1), clock.clone(), cfg),
            clock,
            frame: Frame {
                src: EndpointAddress::new(n0, EndpointIndex(0), 1),
                dst: EndpointAddress::new(n1, EndpointIndex(0), 1),
                payload: vec![0xAB; 56].into(),
                stamp_ns: 0,
            },
            now: 0,
        }
    }

    /// One step: offers the frame up to `offer` times (stopping at the
    /// first refusal), flushes the batch boundary as the engine does at
    /// the end of a drain pass, drains the receiver, lets the sender
    /// process acks and service its timers, then advances the clock by
    /// `tick`. Returns `(frames accepted, frames delivered)`.
    fn step(&mut self, offer: u32, tick: u64) -> (u32, u32) {
        let mut accepted = 0;
        while accepted < offer && self.a.try_send(FlipcNodeId(1), &self.frame) {
            accepted += 1;
        }
        self.a.flush();
        let mut delivered = 0;
        while self.b.try_recv().is_some() {
            delivered += 1;
        }
        let _ = self.a.try_recv();
        self.clock.advance(tick);
        self.now += tick;
        (accepted, delivered)
    }
}

/// What one seeded-loss run observed.
struct LossyRun {
    /// Frames delivered in order.
    delivered: u32,
    /// Frames the sender retransmitted.
    retransmitted: u32,
    /// Send→deliver latency percentiles, manual-clock ticks.
    p50: f64,
    p99: f64,
}

/// Pushes `frames` frames through the reliability layer over a seeded
/// lossy in-memory link (sender side drops with probability `loss`). The
/// fault schedule depends only on the seed, so a given build always sees
/// the same adversary. Go-back-N delivers in order, so the i-th delivery
/// pairs with the i-th send for the latency samples.
fn lossy_run(loss: f64, frames: u32) -> LossyRun {
    // `rto_min` must sit below the in-memory link's observed RTT scale or
    // the adaptive estimator pins at the clamp and the schedule stops
    // resembling the fixed baseline the historical numbers were cut from.
    let cfg = NetConfig {
        window: 32,
        rto: 100,
        rto_min: 25,
        rto_max: 800,
        ..NetConfig::default()
    };
    let mut pair = MemPair::new(cfg, FaultConfig::lossy(loss));
    let mut send_times: Vec<u64> = Vec::with_capacity(frames as usize);
    let mut latencies: Vec<u64> = Vec::with_capacity(frames as usize);
    let mut budget = frames * 400;
    while (latencies.len() as u32) < frames && budget > 0 {
        budget -= 1;
        let now = pair.now;
        let (accepted, arrived) = pair.step(u32::from((send_times.len() as u32) < frames), 25);
        send_times.extend((0..accepted).map(|_| now));
        for _ in 0..arrived {
            latencies.push(now - send_times[latencies.len()]);
        }
    }
    latencies.sort_unstable();
    LossyRun {
        delivered: latencies.len() as u32,
        retransmitted: pair.a.stats().snapshot().paths[0].retransmitted,
        p50: percentile(&latencies, 0.5) as f64,
        p99: percentile(&latencies, 0.99) as f64,
    }
}

/// Human-readable one-screen summary printed alongside the JSON artifact.
fn summarize(report: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = format!("bench-report schema {}\n", report.schema);
    for m in &report.metrics {
        let _ = write!(out, "  {:<42} {:>14.3} {}", m.name, m.value, m.unit);
        if let (Some(p50), Some(p99)) = (m.p50, m.p99) {
            let _ = write!(out, "  (p50 {p50:.1}, p99 {p99:.1})");
        }
        let _ = writeln!(out);
    }
    out
}
