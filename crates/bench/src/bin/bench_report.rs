//! `bench-report`: the fixed deterministic performance suite behind CI's
//! perf-smoke gate.
//!
//! Runs a small set of end-to-end measurements against the real stack and
//! writes a schema-versioned, machine-readable `BENCH.json`
//! (see [`flipc_bench::report`]):
//!
//! * one-way latency over the in-process loopback fabric at five message
//!   sizes spanning the paper's 50–500 B payload range, plus the fitted
//!   ns/byte slope of that curve,
//! * ping-pong RTT over the loopback fabric and over real `127.0.0.1` UDP
//!   sockets through `flipc-net`'s reliability layer,
//! * recovery under seeded 1% / 10% datagram loss (delivery ratio and
//!   retransmissions per frame — the fault schedule is a fixed, replayable
//!   adversary),
//! * per-frame recovery latency p99 under the seeded 10% adversary,
//! * the engine's own telemetry view of deliver latency (histogram p50),
//!   which cross-checks the external stopwatch numbers.
//!
//! ```text
//! bench-report [--quick] [--out BENCH.json]
//! bench-report --compare OLD.json [--current BENCH.json] [--tolerance 2.0x]
//! bench-report --trend OLD.json [--current BENCH.json]
//! ```
//!
//! `--compare` never reruns the suite: it diffs two report files with the
//! direction-aware comparator and exits non-zero if any metric got worse
//! by more than the tolerance factor. `--trend` renders the same pair as
//! an informational markdown delta table (for `$GITHUB_STEP_SUMMARY`) and
//! always exits zero — the gate is `--compare`, never the trend.

use std::process::ExitCode;
use std::time::Instant;

use flipc_bench::report::{
    compare, fit_slope, parse_tolerance, percentile, Direction, Metric, Report,
};
use flipc_bench::udp;
use flipc_core::api::{Flipc, LocalEndpoint};
use flipc_core::endpoint::{EndpointAddress, EndpointIndex, EndpointType, FlipcNodeId, Importance};
use flipc_core::layout::Geometry;
use flipc_engine::engine::EngineConfig;
use flipc_engine::node::InlineCluster;
use flipc_engine::transport::Transport;
use flipc_engine::wire::Frame;
use flipc_net::{
    FaultConfig, FaultInjector, ManualClock, MemHub, MemLink, NetConfig, NetTransport,
};
use flipc_obs::merge::{merge, NodeInput};
use flipc_obs::{trace_ring, TraceEvent};
use flipc_workloads::{
    Broadcast, BroadcastConfig, LogConfig, ReplicatedLog, TierConfig, Tiered, TopicSpec,
};

/// Message sizes (8-byte header + payload) spanning the paper's range.
const MSG_SIZES: [u32; 5] = [64, 96, 160, 288, 544];

/// Suite iteration counts: (warmup, measured) per size point.
const FULL_ITERS: (usize, usize) = (200, 2000);
const QUICK_ITERS: (usize, usize) = (50, 300);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = String::from("BENCH.json");
    let mut compare_with: Option<String> = None;
    let mut trend_with: Option<String> = None;
    let mut current = String::from("BENCH.json");
    let mut tolerance = 2.0;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out = expect_arg(&args, i, "--out");
            }
            "--compare" => {
                i += 1;
                compare_with = Some(expect_arg(&args, i, "--compare"));
            }
            "--trend" => {
                i += 1;
                trend_with = Some(expect_arg(&args, i, "--trend"));
            }
            "--current" => {
                i += 1;
                current = expect_arg(&args, i, "--current");
            }
            "--tolerance" => {
                i += 1;
                let raw = expect_arg(&args, i, "--tolerance");
                tolerance = match parse_tolerance(&raw) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("bench-report: {e}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench-report [--quick] [--out FILE]\n       \
                     bench-report --compare OLD [--current FILE] [--tolerance 2.0x]\n       \
                     bench-report --trend OLD [--current FILE]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bench-report: unknown flag {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if let Some(baseline) = compare_with {
        return run_compare(&baseline, &current, tolerance);
    }
    if let Some(baseline) = trend_with {
        return run_trend(&baseline, &current);
    }

    let report = run_suite(quick);
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

fn expect_arg(args: &[String], i: usize, flag: &str) -> String {
    args.get(i).cloned().unwrap_or_else(|| {
        eprintln!("bench-report: {flag} needs a value");
        std::process::exit(2);
    })
}

/// Loads two report files, diffs them, prints the verdict. Exit code 1 on
/// regression, 2 on operational errors (unreadable/invalid files).
fn run_compare(baseline: &str, current: &str, tolerance: f64) -> ExitCode {
    let load = |path: &str| -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Report::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(baseline), load(current)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-report: {e}");
            return ExitCode::from(2);
        }
    };
    let regressions = match compare(&old, &new, tolerance) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench-report: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "comparing {current} (rev {}) against {baseline} (rev {}), tolerance {tolerance}x",
        new.git_rev, old.git_rev
    );
    if regressions.is_empty() {
        println!("OK: no metric regressed past {tolerance}x");
        return ExitCode::SUCCESS;
    }
    for r in &regressions {
        println!(
            "REGRESSION {}: {} -> {} ({:.2}x worse, limit {tolerance}x)",
            r.name, r.old, r.new, r.factor
        );
    }
    ExitCode::FAILURE
}

/// Loads two report files and prints the informational markdown delta
/// table. Never fails the build on metric movement — the gate is
/// `--compare` — so any problem (unreadable file, schema drift) degrades
/// to a note in the table's place and a clean exit.
fn run_trend(baseline: &str, current: &str) -> ExitCode {
    let load = |path: &str| -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Report::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (load(baseline), load(current)) {
        (Ok(old), Ok(new)) => println!("{}", flipc_bench::report::render_trend(&old, &new)),
        (Err(e), _) | (_, Err(e)) => {
            println!("### Bench trend vs committed baseline\n\n_unavailable: {e}_");
        }
    }
    ExitCode::SUCCESS
}

/// The git revision to stamp into the report: CI's `GITHUB_SHA`, else the
/// working tree's HEAD, else `"unknown"`.
fn git_rev() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs the whole deterministic suite and assembles the report.
fn run_suite(quick: bool) -> Report {
    let (warmup, iters) = if quick { QUICK_ITERS } else { FULL_ITERS };
    let mut report = Report::new(git_rev(), quick);

    // --- One-way loopback latency across the size sweep + fitted slope.
    let mut slope_points = Vec::new();
    for msg_size in MSG_SIZES {
        let geo = Geometry {
            ring_capacity: 32,
            buffers: 128,
            msg_size,
            ..Geometry::small()
        };
        let payload = geo.payload_size();
        let (rtts, telemetry_p50) = loopback_pingpong(geo, warmup, iters);
        let p50 = percentile(&rtts, 0.5) as f64 / 2.0;
        let p99 = percentile(&rtts, 0.99) as f64 / 2.0;
        slope_points.push((payload as f64, p50));
        report.push(Metric {
            name: format!("oneway_p50_ns_{payload}B"),
            unit: "ns".into(),
            value: p50,
            p50: Some(p50),
            p99: Some(p99),
            direction: Direction::LowerIsBetter,
            gate: true,
        });
        if msg_size == MSG_SIZES[0] {
            report.push(Metric {
                name: "loopback_rtt_p50_ns".into(),
                unit: "ns".into(),
                value: percentile(&rtts, 0.5) as f64,
                p50: Some(percentile(&rtts, 0.5) as f64),
                p99: Some(percentile(&rtts, 0.99) as f64),
                direction: Direction::LowerIsBetter,
                gate: true,
            });
            report.push(Metric {
                name: "deliver_latency_telemetry_p50_ns".into(),
                unit: "ns".into(),
                value: telemetry_p50,
                p50: Some(telemetry_p50),
                p99: None,
                direction: Direction::LowerIsBetter,
                // Log2-bucket quantization is coarser than the 2x CI gate.
                gate: false,
            });
        }
    }
    if let Some((slope, intercept)) = fit_slope(&slope_points) {
        report.push(Metric {
            name: "oneway_ns_per_byte".into(),
            unit: "ns/B".into(),
            // A noisy sub-ns/byte slope can fit slightly negative; clamp so
            // the baseline comparison stays meaningful.
            value: slope.max(0.001),
            p50: None,
            p99: None,
            direction: Direction::LowerIsBetter,
            // The slope signal is small against the flat per-message cost;
            // run-to-run noise would flap a 2x gate.
            gate: false,
        });
        report.push(Metric {
            name: "oneway_intercept_ns".into(),
            unit: "ns".into(),
            value: intercept.max(1.0),
            p50: None,
            p99: None,
            direction: Direction::LowerIsBetter,
            gate: false,
        });
    }

    // --- Real-UDP ping-pong RTT (sockets + reliability layer).
    let udp_rtts = udp_pingpong(warmup, iters.min(1000));
    report.push(Metric {
        name: "udp_rtt_p50_ns".into(),
        unit: "ns".into(),
        value: percentile(&udp_rtts, 0.5) as f64,
        p50: Some(percentile(&udp_rtts, 0.5) as f64),
        p99: Some(percentile(&udp_rtts, 0.99) as f64),
        direction: Direction::LowerIsBetter,
        gate: true,
    });

    // --- Cross-node chain latency through the merge pipeline: the same
    // loopback-UDP node pair, but measured the way `flipc-top --cluster`
    // measures a real cluster — each engine's trace ring drained per
    // node, rebased by the transport's own wire-measured clock offset,
    // and the send→deliver chains reconstructed by `obs::merge`.
    let (chain_p50, chain_p99) = cross_node_chain_latency(warmup, iters.min(1000));
    report.push(Metric {
        name: "cross_node_chain_latency_p99_ns".into(),
        unit: "ns".into(),
        value: chain_p99,
        p50: Some(chain_p50),
        p99: Some(chain_p99),
        direction: Direction::LowerIsBetter,
        gate: true,
    });

    // --- Sustained throughput: saturating open loop over the loopback
    // pair (the ROADMAP's msgs/s metric; higher is better).
    let msgs_per_sec = sustained_throughput(quick);
    report.push(Metric {
        name: "sustained_throughput_msgs_per_sec".into(),
        unit: "msg/s".into(),
        value: msgs_per_sec,
        p50: None,
        p99: None,
        direction: Direction::HigherIsBetter,
        gate: true,
    });

    // --- Batched wire path: the same open-loop shape driven through the
    // reliability layer, so the jumbo-datagram path (pack, seal, fan-out)
    // is what gets measured.
    report.push(Metric {
        name: "batched_throughput_msgs_per_sec".into(),
        unit: "msg/s".into(),
        value: batched_throughput(quick),
        p50: None,
        p99: None,
        direction: Direction::HigherIsBetter,
        gate: true,
    });

    // --- Seeded-loss recovery: the same fixed adversary every run.
    let frames = if quick { 200 } else { 1000 };
    for (loss_pct, loss) in [(1u32, 0.01f64), (10, 0.10)] {
        let run = lossy_run(loss, frames);
        report.push(Metric {
            name: format!("loss{loss_pct}_delivery_ratio"),
            unit: "ratio".into(),
            value: run.delivered as f64 / frames as f64,
            p50: None,
            p99: None,
            direction: Direction::HigherIsBetter,
            gate: true,
        });
        report.push(Metric {
            name: format!("loss{loss_pct}_retransmits_per_frame"),
            unit: "frames".into(),
            // Loss-free padding so a zero-retransmit run still yields a
            // positive, comparable value.
            value: (run.retransmitted as f64 + 1.0) / frames as f64,
            p50: None,
            p99: None,
            direction: Direction::LowerIsBetter,
            gate: true,
        });
        // Per-frame recovery latency under the 10% adversary.
        // Manual-clock ticks are nominal nanoseconds, and the fault
        // schedule is seed-fixed, so the number is exactly reproducible
        // per build.
        if loss_pct == 10 {
            report.push(Metric {
                name: "loss_recovery_adaptive_p99_ns".into(),
                unit: "ns".into(),
                value: run.p99,
                p50: Some(run.p50),
                p99: Some(run.p99),
                direction: Direction::LowerIsBetter,
                gate: true,
            });
        }
    }

    // --- Workload-level metrics over the deterministic chaos cluster.
    // Manual-clock ticks are nominal nanoseconds and every schedule is
    // seed-fixed, so all three reproduce exactly per build.
    report.push(Metric {
        name: "broadcast_fanout_msgs_per_sec".into(),
        unit: "msg/s".into(),
        value: broadcast_fanout_rate(quick),
        p50: None,
        p99: None,
        direction: Direction::HigherIsBetter,
        gate: true,
    });
    let (replay_p50, replay_p99) = log_append_replay_latency(quick);
    report.push(Metric {
        name: "log_append_replay_p99_ns".into(),
        unit: "ns".into(),
        value: replay_p99,
        p50: Some(replay_p50),
        p99: Some(replay_p99),
        direction: Direction::LowerIsBetter,
        gate: true,
    });
    let (tier_p50, tier_p99) = tiered_high_class_latency(quick);
    report.push(Metric {
        name: "tiered_high_class_p99_ns".into(),
        unit: "ns".into(),
        value: tier_p99,
        p50: Some(tier_p50),
        p99: Some(tier_p99),
        direction: Direction::LowerIsBetter,
        gate: true,
    });

    // --- Flow control under congestion: the reliability layer pushing a
    // fixed frame count through a token-bucket-shaped link, the credit
    // loop holding the sender inside the bottleneck. Goodput over nominal
    // (manual-clock) time; shaper, clock, and schedule are all seeded, so
    // the number reproduces exactly per build.
    report.push(Metric {
        name: "goodput_under_congestion_msgs_per_sec".into(),
        unit: "msg/s".into(),
        value: congested_goodput(quick),
        p50: None,
        p99: None,
        direction: Direction::HigherIsBetter,
        gate: true,
    });
    let (cong_p50, cong_p99) = tiered_high_class_latency_under_bulk(quick);
    report.push(Metric {
        name: "tiered_high_class_p99_under_bulk_ns".into(),
        unit: "ns".into(),
        value: cong_p99,
        p50: Some(cong_p50),
        p99: Some(cong_p99),
        direction: Direction::LowerIsBetter,
        gate: true,
    });

    report
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
/// subscribers on a clean link; total deliveries over nominal time.
fn broadcast_fanout_rate(quick: bool) -> f64 {
    let bursts = if quick { 60 } else { 240 };
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
    for _ in 0..bursts {
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
    delivered as f64 * 1e9 / b.cluster_mut().now().max(1) as f64
}

/// Append latency at a follower that crashes mid-stream and catches up
/// through replay-from-offset: the p99 is dominated by the recovery
/// path, which is exactly what the gate watches.
fn log_append_replay_latency(quick: bool) -> (f64, f64) {
    let entries = if quick { 60 } else { 240 } as u32;
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
fn tiered_high_class_latency(quick: bool) -> (f64, f64) {
    let steps = if quick { 150 } else { 400 };
    let mut cfg = TierConfig::default();
    cfg.classes[2].deadline = 3_000;
    let mut t = Tiered::new(workload_net(), 0xBE9C_0003, cfg);
    t.cluster_mut().faults(0, FaultConfig::lossy(0.10));
    let mut high_sent = 0u64;
    for step in 0..steps {
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
    assert_eq!(t.delivered(0), high_sent, "tiered bench failed to quiesce");
    (
        t.latency_quantile(0, 0.5).unwrap_or(0.0),
        t.latency_quantile(0, 0.99).unwrap_or(0.0),
    )
}

/// Goodput through the reliability layer over a token-bucket-shaped link
/// running far below the sender's natural rate: the sender keeps the
/// window full, the shaper meters the wire, and the receiver-granted
/// credit window (AIMD on the shaper's tail drops) has to keep the
/// retransmit ratio bounded while the link drains at capacity.
fn congested_goodput(quick: bool) -> f64 {
    let frames = if quick { 200 } else { 600 } as u32;
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
    delivered as f64 * 1e9 / pair.now.max(1) as f64
}

/// High-class delivery latency while the bulk tier saturates a
/// token-bucket-shaped bottleneck (no loss — pure congestion): the DRR
/// arbiter and per-peer credit window are what keep the high tier's p99
/// bounded here, measured over the same harness the chaos suite pins.
fn tiered_high_class_latency_under_bulk(quick: bool) -> (f64, f64) {
    let steps = if quick { 150 } else { 400 };
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
    let mut high_sent = 0u64;
    for step in 0..steps {
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
    assert_eq!(
        t.delivered(0),
        high_sent,
        "bulk-congested tiered bench failed to quiesce"
    );
    (
        t.latency_quantile(0, 0.5).unwrap_or(0.0),
        t.latency_quantile(0, 0.99).unwrap_or(0.0),
    )
}

/// One node pair on the in-process loopback fabric; returns measured
/// ping-pong RTTs (ns) and the receiving engine's own telemetry p50 of
/// send→deliver latency — the internal view of the same traffic.
fn loopback_pingpong(geo: Geometry, warmup: usize, iters: usize) -> (Vec<u64>, f64) {
    let mut cl = InlineCluster::new(2, geo, EngineConfig::default()).expect("cluster");
    // Exercise the trace ring on real traffic: engine 1 records its
    // deliveries; the drained events sanity-check the sample counts.
    let (tw, mut tr) = trace_ring(4096);
    cl.engine_mut(1).set_trace(tw);
    let app0 = cl.node(0).attach();
    let app1 = cl.node(1).attach();
    let tx0 = alloc(&app0, EndpointType::Send);
    let rx0 = alloc(&app0, EndpointType::Receive);
    let tx1 = alloc(&app1, EndpointType::Send);
    let rx1 = alloc(&app1, EndpointType::Receive);
    let to_b = app1.address(&rx1);
    let to_a = app0.address(&rx0);

    let mut rtts = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let start = Instant::now();
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
        for (app, tx) in [(&app0, &tx0), (&app1, &tx1)] {
            while let Some(tok) = app.reclaim_send_unlocked(tx).expect("reclaim") {
                app.buffer_free(tok);
            }
        }
        if i >= warmup {
            rtts.push(start.elapsed().as_nanos() as u64);
        }
    }
    rtts.sort_unstable();

    // The engine's internal latency distribution for node 1's deliveries.
    let snap = cl.engine_telemetry(1).harvest();
    let telemetry_p50 = snap
        .total_deliver_latency()
        .quantile(0.5)
        .unwrap_or(0.0)
        .max(1.0);
    // Each round trip delivers one frame to node 1; the trace ring saw
    // every one (or honestly reported what it shed).
    let delivers = tr
        .drain()
        .iter()
        .filter(|e| e.kind == flipc_obs::TraceKind::Deliver)
        .count() as u64;
    assert!(
        delivers + tr.lost() >= (warmup + iters) as u64,
        "trace ring lost deliveries silently"
    );
    (rtts, telemetry_p50)
}

fn alloc(app: &Flipc, ty: EndpointType) -> LocalEndpoint {
    app.endpoint_allocate(ty, Importance::Normal).expect("ep")
}

/// Saturating open loop over an inline loopback pair: the sender keeps the
/// send ring full, the receiver keeps buffers provided and frees arrivals
/// as they land, and no send ever waits for a response — the engines run
/// at their iteration-bounded maximum. Returns messages delivered per
/// second of wall time over the measured window (a warmup window runs
/// first so ramp-up cost stays out of the number).
fn sustained_throughput(quick: bool) -> f64 {
    let geo = Geometry {
        ring_capacity: 32,
        buffers: 128,
        ..Geometry::small()
    };
    let mut cl = InlineCluster::new(2, geo, EngineConfig::default()).expect("cluster");
    let app0 = cl.node(0).attach();
    let app1 = cl.node(1).attach();
    let tx = alloc(&app0, EndpointType::Send);
    let rx = alloc(&app1, EndpointType::Receive);
    let dest = app1.address(&rx);

    let (warmup, window): (u64, u64) = if quick {
        (5_000, 50_000)
    } else {
        (20_000, 400_000)
    };
    let mut delivered = 0u64;
    let mut window_base: Option<u64> = None;
    let mut start = Instant::now();
    loop {
        // Keep the receive ring stocked...
        while let Ok(buf) = app1.buffer_allocate() {
            if let Err(r) = app1.provide_receive_buffer_unlocked(&rx, buf) {
                app1.buffer_free(r.token);
                break;
            }
        }
        // ...and the send ring full (reclaim completed sends first so the
        // pool never starves).
        while let Some(tok) = app0.reclaim_send_unlocked(&tx).expect("reclaim") {
            app0.buffer_free(tok);
        }
        while let Ok(buf) = app0.buffer_allocate() {
            if let Err(r) = app0.send_unlocked(&tx, buf, dest) {
                app0.buffer_free(r.token);
                break;
            }
        }
        cl.pump();
        while let Some(got) = app1.recv_unlocked(&rx).expect("recv") {
            app1.buffer_free(got.token);
            delivered += 1;
        }
        if window_base.is_none() && delivered >= warmup {
            window_base = Some(delivered);
            start = Instant::now();
        }
        if let Some(base) = window_base {
            if delivered >= base + window {
                return (delivered - base) as f64 / start.elapsed().as_secs_f64();
            }
        }
    }
}

/// Open-loop throughput through the reliability layer: the sender fills
/// the go-back-N window, the step's flush seals the staged jumbos, and the
/// receiver fans the batches back out through the ordinary dedup window.
/// Wall-clock rate over the measured window; the manual clock crawls so
/// retransmit timers never fire and the number is the clean batched path.
fn batched_throughput(quick: bool) -> f64 {
    let cfg = NetConfig {
        window: 256,
        ..NetConfig::default()
    };
    let mut pair = MemPair::new(cfg, FaultConfig::default());
    let (warmup, window): (u64, u64) = if quick {
        (5_000, 50_000)
    } else {
        (20_000, 200_000)
    };
    let mut delivered = 0u64;
    let mut window_base: Option<u64> = None;
    let mut start = Instant::now();
    loop {
        // Fill the send window; every frame stages into the coalescer.
        delivered += u64::from(pair.step(u32::MAX, 1).1);
        if window_base.is_none() && delivered >= warmup {
            window_base = Some(delivered);
            start = Instant::now();
        }
        if let Some(base) = window_base {
            if delivered >= base + window {
                return (delivered - base) as f64 / start.elapsed().as_secs_f64();
            }
        }
    }
}

/// The geometry of both nodes of the loopback-UDP pair.
fn udp_geometry() -> Geometry {
    Geometry {
        ring_capacity: 32,
        buffers: 128,
        ..Geometry::small()
    }
}

/// Ping-pong RTTs (ns, sorted) over the loopback-UDP node pair
/// ([`udp::udp_nodes`]).
fn udp_pingpong(warmup: usize, iters: usize) -> Vec<u64> {
    let (mut a, mut b) = udp::udp_nodes(udp_geometry(), NetConfig::default());
    let mut rtts = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let start = Instant::now();
        udp::round(&mut a, &mut b);
        if i >= warmup {
            rtts.push(start.elapsed().as_nanos() as u64);
        }
    }
    rtts.sort_unstable();
    rtts
}

/// The same loopback-UDP engine pair as [`udp_pingpong`], observed the
/// way the cluster plane observes real deployments: both engines record
/// into trace rings, the transports measure their mutual clock offset on
/// the heartbeat path (quiet windows between bursts let the ping
/// exchange fire), and [`merge`] rebases node 1's events onto node 0's
/// clock and reconstructs the cross-node send→deliver chains. Returns
/// `(p50, p99)` of the merged chain latencies in ns.
fn cross_node_chain_latency(warmup: usize, iters: usize) -> (f64, f64) {
    // Fast heartbeats (2 ms in the transport's µs ticks) so the clock
    // exchange collects samples inside a bench-sized run.
    let (mut a, mut b) = udp::udp_nodes(
        udp_geometry(),
        NetConfig {
            heartbeat_interval: 2_000,
            ..NetConfig::default()
        },
    );
    // Reader 0 is node 0's ring (the ponger), reader 1 node 1's.
    let mut readers = Vec::new();
    for n in [&mut b, &mut a] {
        let (tw, tr) = trace_ring(4096);
        n.engine.set_trace(tw);
        readers.push(tr);
    }

    let mut events: [Vec<TraceEvent>; 2] = [Vec::new(), Vec::new()];
    let mut lost = [0u64; 2];
    let drain = |readers: &mut Vec<flipc_obs::TraceReader>,
                 events: &mut [Vec<TraceEvent>; 2],
                 lost: &mut [u64; 2]| {
        for (i, r) in readers.iter_mut().enumerate() {
            events[i].extend_from_slice(&r.drain());
            lost[i] = r.lost();
        }
    };

    for i in 0..warmup + iters {
        udp::round(&mut a, &mut b);
        if i < warmup {
            // Events from the warmup window would skew the merged p99.
            drain(&mut readers, &mut events, &mut lost);
            for e in &mut events {
                e.clear();
            }
            // Quiet window between warmup rounds: the heartbeat path only
            // probes an idle peer, so this is where the clock exchange
            // collects its samples — before the measured burst, which
            // must stay contiguous (a multi-ms idle gap inside the
            // measured window would dominate the merged p99).
            if i % 8 == 7 {
                let until = Instant::now() + std::time::Duration::from_millis(5);
                while Instant::now() < until {
                    a.engine.iterate();
                    b.engine.iterate();
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        } else if i % 64 == 0 {
            drain(&mut readers, &mut events, &mut lost);
        }
    }
    drain(&mut readers, &mut events, &mut lost);

    // Node 1's transport measured "node 0's clock minus mine" on the
    // wire; that is exactly the rebase that maps its stamps onto the
    // reference (node 0) clock. Zero samples (possible in ultra-short
    // quick runs) degrades to offset 0 — same process, same epoch, so
    // the true offset is 0 anyway.
    let snap = a.engine.transport_snapshot().expect("node 1 snapshot");
    let path = &snap.paths[0];
    let [ev0, ev1] = events;
    let merged = merge(&[
        NodeInput {
            node: 0,
            offset_ns: 0,
            dispersion_ns: 0,
            events: ev0,
            lost: lost[0],
        },
        NodeInput {
            node: 1,
            offset_ns: path.clock_offset_ns,
            dispersion_ns: path.clock_dispersion_ns,
            events: ev1,
            lost: lost[1],
        },
    ]);
    assert!(
        merged.cross_chains.len() as u64 >= iters as u64,
        "merge reconstructed {} cross-node chains from {} rounds",
        merged.cross_chains.len(),
        iters
    );
    let mut lat: Vec<u64> = merged.cross_chains.iter().map(|c| c.latency_ns).collect();
    lat.sort_unstable();
    (percentile(&lat, 0.5) as f64, percentile(&lat, 0.99) as f64)
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
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench-report rev {} ({})",
        report.git_rev,
        if report.quick { "quick" } else { "full" }
    );
    for m in &report.metrics {
        let _ = write!(out, "  {:<36} {:>14.1} {}", m.name, m.value, m.unit);
        if let (Some(p50), Some(p99)) = (m.p50, m.p99) {
            let _ = write!(out, "  (p50 {p50:.0}, p99 {p99:.0})");
        }
        let _ = writeln!(out);
    }
    out
}
