//! The chaos matrix: scripted failure stories against live transports.
//!
//! Each scenario below is played across three pinned seeds (override with
//! `CHAOS_SEED=<n>` to hunt a specific schedule). Everything is
//! deterministic — the fault schedule derives from the seed, time from a
//! manual clock — so a red run here is a replayable counterexample, not a
//! flake. On failure the full transcript is written to
//! `target/chaos/lifecycle-<scenario>-<seed>.txt` (CI uploads these as
//! artifacts; the workload prefix keeps harnesses from colliding)
//! and included in the panic message.
//!
//! The properties exercised per story:
//!
//! * **crash/restart** — a peer dying mid-stream is declared dead within
//!   the strike budget, its queued sends fail back, a dead peer costs
//!   zero datagrams, and the restarted incarnation resynchronizes on a
//!   new epoch with no cross-epoch duplicates.
//! * **one-way partition** — an asymmetric cut exhausts the budget even
//!   though the peer is still audible, and healing re-admits it via the
//!   first heartbeat through.
//! * **loss/corruption storm** — a survivable storm never kills the peer,
//!   never corrupts delivery order, and recovers entirely within the
//!   epoch (no resync).
//! * **request/response under faults** — with every ack riding the
//!   reverse message, lost, duplicated, reordered and corrupted carriers
//!   still leave both directions complete, in order, fully acknowledged
//!   and on their first epoch.
//!
//! The harness ends each node's turn with `flush`, as the engine ends a
//! pass, so these stories run the paced ack path; the workload chaos
//! stories poll without flushing and cover the other one.

use flipc_core::inspect::PeerLiveness;
use flipc_net::{FaultConfig, NetConfig, Scenario, ScenarioOutcome};

/// Pinned seed matrix; `CHAOS_SEED` narrows the run to one seed.
fn seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        let seed = s
            .parse()
            .or_else(|_| u64::from_str_radix(s.trim_start_matches("0x"), 16))
            .expect("CHAOS_SEED must be an integer");
        return vec![seed];
    }
    vec![0xF11C_0001, 0xF11C_0002, 0xF11C_0003]
}

/// Lifecycle-tuned config: fast timers, small budget, idle heartbeats.
fn cfg() -> NetConfig {
    NetConfig {
        window: 8,
        rto: 100,
        rto_min: 10,
        rto_max: 400,
        suspect_strikes: 2,
        dead_strikes: 4,
        heartbeat_interval: 1_000,
        ..NetConfig::default()
    }
}

/// Plays the scenario, writes the transcript artifact on failure
/// (lazily, workload-prefixed so seed-matrix artifacts never collide),
/// and panics with the whole story.
fn check(out: ScenarioOutcome) {
    if !out.passed() {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .parent()
            .map(|p| p.join("chaos"))
            .unwrap_or_else(|| "target/chaos".into());
        if let Ok(path) = out.write_transcript(&dir, "lifecycle") {
            eprintln!("chaos transcript written to {}", path.display());
        }
    }
    out.assert_clean();
}

#[test]
fn crash_restart_resyncs_on_a_new_epoch() {
    for seed in seeds() {
        let scenario = Scenario::new("crash-restart", 2, cfg(), seed)
            .say("steady traffic establishes the path")
            .send(0, 1, 10)
            .run(4_000)
            .expect_delivered_at_least(1, 0, 10)
            .expect_liveness(0, 1, PeerLiveness::Healthy)
            .say("node 1 dies mid-stream with frames on the way")
            .crash(1)
            .send(0, 1, 6)
            .run(20_000)
            .expect_liveness(0, 1, PeerLiveness::Dead)
            .expect_failed_at_least(0, 1, 1)
            .say("a dead peer costs zero datagrams, however long we wait")
            .mark_cost(0)
            .run(10_000)
            .expect_no_cost_since_mark(0)
            .say("the supervisor reboots node 1 at the next epoch")
            .restart(1)
            .run(8_000)
            .expect_liveness(0, 1, PeerLiveness::Healthy)
            .expect_epoch_resyncs_at_least(0, 1)
            .say("traffic flows again on the fresh epoch")
            .send(0, 1, 10)
            .run(6_000)
            .expect_delivered_at_least(1, 0, 10);
        check(scenario.play());
    }
}

#[test]
fn one_way_partition_exhausts_the_budget_and_heals() {
    for seed in seeds() {
        // Node 1's heartbeat cadence is slow enough (8k ticks) that node 0
        // — which has unacked frames striking every RTO — gives up long
        // before node 1 speaks again, keeping the timeline deterministic:
        // strikes exhaust at cut+1100 ticks, the first audible ping lands
        // thousands of ticks later.
        let slow_hb = NetConfig {
            heartbeat_interval: 8_000,
            ..cfg()
        };
        let scenario = Scenario::new("one-way-partition", 2, slow_hb, seed)
            .say("healthy traffic in both directions")
            .send(0, 1, 6)
            .send(1, 0, 6)
            .run(4_000)
            .expect_delivered_at_least(1, 0, 6)
            .expect_delivered_at_least(0, 1, 6)
            .say("cut 0 -> 1 only; node 1 can still reach node 0")
            .partition(0, 1)
            .send(0, 1, 6)
            // Long enough for the strike budget (rounds at +100, +300,
            // +700, +1100 ticks), short enough that node 1's slow
            // heartbeat has not spoken yet — one audible ping through the
            // open direction would re-admit the peer (by design: any
            // valid arrival does).
            .run(2_000)
            .say("node 0's strikes exhaust even though node 1 is audible")
            .expect_liveness(0, 1, PeerLiveness::Dead)
            .expect_failed_at_least(0, 1, 1)
            .say("heal; node 1's next heartbeat re-admits it")
            .heal(0, 1)
            .run(12_000)
            .expect_liveness(0, 1, PeerLiveness::Healthy)
            .say("the path works forward on node 0's bumped epoch")
            .send(0, 1, 8)
            .run(6_000)
            .expect_delivered_at_least(1, 0, 14)
            .expect_epoch_resyncs_at_least(1, 1);
        check(scenario.play());
    }
}

#[test]
fn survivable_storm_recovers_within_the_epoch() {
    for seed in seeds() {
        // Budget sized to ride out the storm: plenty of strikes.
        let sturdy = NetConfig {
            dead_strikes: 1_000,
            ..cfg()
        };
        let storm = FaultConfig {
            loss: 0.30,
            duplicate: 0.10,
            reorder: 0.10,
            delay: 0.15,
            delay_ops: 4,
            delay_jitter_ops: 6,
            corrupt: 0.15,
            ..FaultConfig::default()
        };
        let scenario = Scenario::new("storm", 2, sturdy, seed)
            .say("clean warmup")
            .send(0, 1, 8)
            .run(3_000)
            .say("storm: loss, duplication, reordering, delay, corruption")
            .faults(0, storm)
            .faults(1, storm)
            .send(0, 1, 30)
            .run(60_000)
            .say("storm passes")
            .faults(0, FaultConfig::default())
            .faults(1, FaultConfig::default())
            .run(20_000)
            .expect_delivered_at_least(1, 0, 38)
            .expect_liveness(0, 1, PeerLiveness::Healthy)
            .expect_liveness(1, 0, PeerLiveness::Healthy);
        let out = scenario.play();
        // The storm must have actually bitten, and recovery must have
        // happened inside the epoch: no resync, no cross-epoch losses.
        let s0 = out.snapshots[0].as_ref().expect("node 0 alive");
        let s1 = out.snapshots[1].as_ref().expect("node 1 alive");
        assert!(
            s0.paths[0].retransmitted > 0,
            "storm must exercise recovery (seed {seed:#x})"
        );
        assert!(
            s1.decode_errors > 0,
            "corruption storms must surface as decode errors (seed {seed:#x})"
        );
        assert_eq!(s0.epoch_resyncs, 0, "no resync needed (seed {seed:#x})");
        assert_eq!(s1.epoch_resyncs, 0, "no resync needed (seed {seed:#x})");
        check(out);
    }
}

#[test]
fn request_response_under_faults_acks_on_the_reverse_path() {
    const EXCHANGES: u32 = 60;
    for seed in seeds() {
        let sturdy = NetConfig {
            dead_strikes: 1_000,
            ..cfg()
        };
        let faults = FaultConfig {
            loss: 0.15,
            duplicate: 0.10,
            reorder: 0.10,
            corrupt: 0.10,
            ..FaultConfig::default()
        };
        let mut scenario = Scenario::new("request-response", 2, sturdy, seed)
            .say("request/response under loss, duplication, reordering, corruption")
            .faults(0, faults)
            .faults(1, faults);
        for _ in 0..EXCHANGES {
            // The reply is queued the turn after the request arrives, while
            // the responder's ack for it waits to ride; the next request
            // carries the requester's ack for the reply the same way.
            scenario = scenario.send(0, 1, 1).send(1, 0, 1).run(50);
        }
        let out = scenario
            .say("faults clear")
            .faults(0, FaultConfig::default())
            .faults(1, FaultConfig::default())
            .run(20_000)
            .expect_delivered_at_least(1, 0, EXCHANGES)
            .expect_delivered_at_least(0, 1, EXCHANGES)
            .expect_liveness(0, 1, PeerLiveness::Healthy)
            .expect_liveness(1, 0, PeerLiveness::Healthy)
            .play();
        for (node, s) in out.snapshots.iter().enumerate() {
            let s = s.as_ref().expect("both nodes alive");
            assert!(
                s.paths[0].retransmitted > 0,
                "faults must force recovery on node {node} (seed {seed:#x})"
            );
            assert_eq!(
                s.paths[0].in_flight, 0,
                "every message acknowledged on node {node} (seed {seed:#x})"
            );
            assert_eq!(s.epoch_resyncs, 0, "no resync (seed {seed:#x})");
        }
        assert!(
            out.snapshots.iter().flatten().any(|s| s.decode_errors > 0),
            "corruption must surface as decode errors (seed {seed:#x})"
        );
        check(out);
    }
}

#[test]
fn mutually_dead_peers_rediscover_each_other_after_a_long_partition() {
    for seed in seeds() {
        // Fast dead probing so the rediscovery loop fits the scenario
        // timeline (production default is 1.6 s between probes).
        let probing = NetConfig {
            dead_probe_interval: 2_000,
            ..cfg()
        };
        let scenario = Scenario::new("mutual-dead", 2, probing, seed)
            .say("healthy traffic in both directions")
            .send(0, 1, 6)
            .send(1, 0, 6)
            .run(4_000)
            .expect_delivered_at_least(1, 0, 6)
            .expect_delivered_at_least(0, 1, 6)
            .say("full partition with unacknowledged demand on both sides")
            .partition(0, 1)
            .partition(1, 0)
            .send(0, 1, 4)
            .send(1, 0, 4)
            .run(30_000)
            .expect_liveness(0, 1, PeerLiveness::Dead)
            .expect_liveness(1, 0, PeerLiveness::Dead)
            .expect_failed_at_least(0, 1, 1)
            .expect_failed_at_least(1, 0, 1)
            .say("dead probing is capped: a handful of pings, not a storm")
            .mark_cost(0)
            .mark_cost(1)
            .run(8_000)
            // 8k ticks at one probe per 2k is four probes; six leaves
            // margin for a boundary-straddling round. Without the probe
            // loop this window would cost zero — and the pair would stay
            // mutually dead forever below.
            .expect_cost_at_most_since_mark(0, 6)
            .expect_cost_at_most_since_mark(1, 6)
            .say("the partition heals; slow probes rediscover the peer")
            .heal(0, 1)
            .heal(1, 0)
            .run(8_000)
            .expect_liveness(0, 1, PeerLiveness::Healthy)
            .expect_liveness(1, 0, PeerLiveness::Healthy)
            .say("traffic flows again in both directions on fresh epochs")
            .send(0, 1, 5)
            .send(1, 0, 5)
            .run(6_000)
            .expect_delivered_at_least(1, 0, 11)
            .expect_delivered_at_least(0, 1, 11);
        check(scenario.play());
    }
}

/// Bandwidth fractions (percent of nominal) the shaped-link story sweeps.
/// `CHAOS_SHAPED=1` (the CI shaped leg) widens the sweep so the
/// proportionality claim is checked at finer capacity steps.
fn shaped_fractions() -> Vec<u64> {
    if matches!(std::env::var("CHAOS_SHAPED").as_deref(), Ok("1")) {
        vec![10, 25, 40, 50, 60, 75, 90, 100]
    } else {
        vec![25, 50, 75, 100]
    }
}

#[test]
fn shaped_link_goodput_degrades_in_proportion_to_capacity() {
    // Nominal capacity: 0.2 bytes per microsecond tick. A data datagram
    // for the harness's 8-byte payloads is 42 bytes on the wire, so the
    // full run window at 100% pays for ~190 datagrams — comfortable for
    // the 120-frame burst — while 25% pays for ~47: the lower fractions
    // *must* bind inside the window for the proportionality check to
    // mean anything.
    const NOMINAL_BPS: u64 = 200_000;
    const FRAMES: u32 = 120;
    const RUN: u64 = 40_000;
    for seed in seeds() {
        let mut curve: Vec<(u64, usize, u64)> = Vec::new();
        for frac in shaped_fractions() {
            // Timers sized for the link, not for fast lifecycle tests: at
            // 10% capacity one datagram takes ~2'100 ticks of tokens, so
            // a lifecycle-fast 100-tick RTO would fire before the first
            // ack can possibly return, mark every frame retransmitted,
            // and starve the estimator forever (Karn) — a self-inflicted
            // storm. With the initial timeout above the worst service
            // time the first ack samples cleanly and the adaptive RTO
            // tracks the queue delay from there.
            let patient = NetConfig {
                rto: 4_000,
                rto_min: 100,
                rto_max: 20_000,
                dead_strikes: 1_000,
                ..cfg()
            };
            let shaped = FaultConfig {
                bandwidth_bps: NOMINAL_BPS * frac / 100,
                ..FaultConfig::default()
            };
            let out = Scenario::new(&format!("shaped-{frac}"), 2, patient, seed)
                .say("token-bucket bottleneck on node 0's outbound wire")
                .faults(0, shaped)
                .send(0, 1, FRAMES)
                .run(RUN)
                .play();
            check(out.clone());
            let s0 = out.snapshots[0].as_ref().expect("node 0 alive");
            let p = &s0.paths[0];
            let sent = u64::from(p.sent).max(1);
            let rexmit = u64::from(p.retransmitted);
            // No retransmit storm at any capacity: go-back-N under
            // congestion stays within a small multiple of useful sends.
            assert!(
                rexmit <= 2 * sent,
                "retransmit storm at {frac}% capacity: {rexmit} rexmit vs {sent} sent \
                 (seed {seed:#x})"
            );
            curve.push((frac, out.delivered[1].len(), rexmit));
        }
        for pair in curve.windows(2) {
            assert!(
                pair[0].1 <= pair[1].1,
                "goodput must not rise as capacity shrinks: {curve:?} (seed {seed:#x})"
            );
        }
        let narrowest = curve.first().expect("sweep is non-empty");
        let widest = curve.last().expect("sweep is non-empty");
        assert!(
            widest.1 == FRAMES as usize,
            "full nominal capacity must deliver the whole burst: {curve:?} (seed {seed:#x})"
        );
        assert!(
            narrowest.1 < widest.1,
            "the narrowest link must actually bind: {curve:?} (seed {seed:#x})"
        );
    }
}

#[test]
fn the_matrix_is_deterministic_per_seed() {
    let scenario = Scenario::new("determinism", 2, cfg(), 0xF11C_0001)
        .send(0, 1, 12)
        .faults(0, FaultConfig::lossy(0.2))
        .run(10_000)
        .crash(1)
        .run(10_000)
        .restart(1)
        .run(10_000)
        .send(0, 1, 12)
        .run(10_000);
    let a = scenario.play();
    let b = scenario.play();
    assert_eq!(
        a.transcript, b.transcript,
        "transcripts must replay exactly"
    );
    assert_eq!(a.delivered, b.delivered, "deliveries must replay exactly");
}
