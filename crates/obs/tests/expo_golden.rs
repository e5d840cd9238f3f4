//! Golden test of the Prometheus-style exposition format.
//!
//! Dashboards scrape by metric name and label: once shipped, those are a
//! public contract. This test renders a fully deterministic, hand-built
//! snapshot set through every exposer and compares the page byte for
//! byte. If it fails because you *intentionally* renamed or relabelled a
//! metric, update the golden below AND the contract table in
//! `flipc_obs::expo`'s module docs — and expect to migrate dashboards.

use flipc_core::endpoint::FlipcNodeId;
use flipc_core::hist::{bucket_index, HistogramSnapshot, BUCKETS};
use flipc_core::inspect::{PathSnapshot, PeerLiveness, TransportSnapshot};
use flipc_obs::{
    expose_engine, expose_trace_lost, expose_transport, expose_workload, EngineTelemetrySnapshot,
    Exposition, WorkloadClass, WorkloadSnapshot,
};

/// A histogram snapshot with `values` recorded — built arithmetically,
/// no clocks involved.
fn hist_of(values: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::empty(BUCKETS);
    for &v in values {
        h.buckets[bucket_index(v)] += 1;
        h.sum = h.sum.wrapping_add(v);
    }
    h
}

fn page() -> String {
    let engine = EngineTelemetrySnapshot {
        iteration_work: hist_of(&[0, 0, 1, 2, 3]),
        deliver_latency: vec![
            hist_of(&[]),           // quiet endpoint: must be skipped
            hist_of(&[900, 4_000]), // active endpoint 1
        ],
    };
    let transport = TransportSnapshot {
        local: FlipcNodeId(0),
        paths: vec![PathSnapshot {
            peer: FlipcNodeId(1),
            sent: 120,
            retransmitted: 3,
            delivered: 117,
            dup_dropped: 2,
            out_of_window: 1,
            wire_dropped: 4,
            in_flight: 5,
            failed: 6,
            stale_epoch: 2,
            pings: 9,
            credit_stalls: 13,
            credit_shrinks: 4,
            credit_window: 12,
            liveness: PeerLiveness::Healthy,
            srtt: 150,
            rttvar: 25,
            rto: 250,
            epoch: 2,
            clock_offset_ns: -1_250,
            clock_dispersion_ns: 300,
            clock_samples: 8,
        }],
        decode_errors: 1,
        unknown_peer: 0,
        epoch_resyncs: 1,
        rto: hist_of(&[2_000]),
        retransmit_burst: hist_of(&[2, 1]),
        batch_datagrams: 2,
        batch_frames: 5,
        batch_size: hist_of(&[2, 3]),
    };
    let mut workload = WorkloadSnapshot::new("tiers", 1);
    workload.published = 42;
    workload.delivered = 40;
    workload.dropped = 2;
    workload.retried = 5;
    workload.replayed = 3;
    workload.acked = 38;
    workload.invariant_violations = 0;
    workload.backlog = 4;
    workload.classes.push(WorkloadClass {
        class: "high".to_string(),
        latency: hist_of(&[900, 4_000]),
    });
    workload.classes.push(WorkloadClass {
        class: "quiet".to_string(), // empty class: must be skipped
        latency: hist_of(&[]),
    });
    let mut expo = Exposition::new();
    expose_engine(&mut expo, 0, &engine);
    expose_trace_lost(&mut expo, 0, 7);
    expose_transport(&mut expo, &transport);
    expose_workload(&mut expo, &workload);
    expo.render()
}

#[test]
fn exposition_page_matches_golden() {
    let golden = "\
# HELP flipc_iteration_work Messages moved per engine-loop pass.
# TYPE flipc_iteration_work histogram
flipc_iteration_work_bucket{node=\"0\",le=\"0\"} 2
flipc_iteration_work_bucket{node=\"0\",le=\"1\"} 3
flipc_iteration_work_bucket{node=\"0\",le=\"3\"} 5
flipc_iteration_work_bucket{node=\"0\",le=\"+Inf\"} 5
flipc_iteration_work_sum{node=\"0\"} 6
flipc_iteration_work_count{node=\"0\"} 5
# HELP flipc_deliver_latency_ns Send-to-deliver latency per receive endpoint, nanoseconds.
# TYPE flipc_deliver_latency_ns histogram
flipc_deliver_latency_ns_bucket{node=\"0\",endpoint=\"1\",le=\"1023\"} 1
flipc_deliver_latency_ns_bucket{node=\"0\",endpoint=\"1\",le=\"4095\"} 2
flipc_deliver_latency_ns_bucket{node=\"0\",endpoint=\"1\",le=\"+Inf\"} 2
flipc_deliver_latency_ns_sum{node=\"0\",endpoint=\"1\"} 4900
flipc_deliver_latency_ns_count{node=\"0\",endpoint=\"1\"} 2
# HELP flipc_trace_events_lost_total Trace events dropped because the ring was full.
# TYPE flipc_trace_events_lost_total counter
flipc_trace_events_lost_total{node=\"0\"} 7
# HELP flipc_net_sent_total Data frames transmitted for the first time.
# TYPE flipc_net_sent_total counter
flipc_net_sent_total{node=\"0\",peer=\"1\"} 120
# HELP flipc_net_retransmitted_total Data frames re-transmitted by the reliability layer.
# TYPE flipc_net_retransmitted_total counter
flipc_net_retransmitted_total{node=\"0\",peer=\"1\"} 3
# HELP flipc_net_delivered_total In-order frames handed up to the engine.
# TYPE flipc_net_delivered_total counter
flipc_net_delivered_total{node=\"0\",peer=\"1\"} 117
# HELP flipc_net_dup_dropped_total Duplicate arrivals discarded by the dedup window.
# TYPE flipc_net_dup_dropped_total counter
flipc_net_dup_dropped_total{node=\"0\",peer=\"1\"} 2
# HELP flipc_net_out_of_window_total Arrivals outside the reorder window, discarded.
# TYPE flipc_net_out_of_window_total counter
flipc_net_out_of_window_total{node=\"0\",peer=\"1\"} 1
# HELP flipc_net_wire_dropped_total First-transmission attempts the wire refused.
# TYPE flipc_net_wire_dropped_total counter
flipc_net_wire_dropped_total{node=\"0\",peer=\"1\"} 4
# HELP flipc_net_failed_total Sends failed back to the application by the peer lifecycle.
# TYPE flipc_net_failed_total counter
flipc_net_failed_total{node=\"0\",peer=\"1\"} 6
# HELP flipc_net_stale_epoch_total Datagrams from a stale session epoch, rejected.
# TYPE flipc_net_stale_epoch_total counter
flipc_net_stale_epoch_total{node=\"0\",peer=\"1\"} 2
# HELP flipc_net_pings_total Idle-path heartbeat pings sent.
# TYPE flipc_net_pings_total counter
flipc_net_pings_total{node=\"0\",peer=\"1\"} 9
# HELP flipc_net_credit_stalls_total Sends refused by the credit grant or fairness arbiter.
# TYPE flipc_net_credit_stalls_total counter
flipc_net_credit_stalls_total{node=\"0\",peer=\"1\"} 13
# HELP flipc_net_credit_shrinks_total Credit window shrink events (AIMD halvings and congestion clamps).
# TYPE flipc_net_credit_shrinks_total counter
flipc_net_credit_shrinks_total{node=\"0\",peer=\"1\"} 4
# HELP flipc_net_in_flight Frames sent and not yet cumulatively acknowledged.
# TYPE flipc_net_in_flight gauge
flipc_net_in_flight{node=\"0\",peer=\"1\"} 5
# HELP flipc_net_peer_state Failure-detector verdict: 0 healthy, 1 suspect, 2 dead.
# TYPE flipc_net_peer_state gauge
flipc_net_peer_state{node=\"0\",peer=\"1\"} 0
# HELP flipc_net_srtt_ticks Smoothed round-trip time estimate, transport clock ticks.
# TYPE flipc_net_srtt_ticks gauge
flipc_net_srtt_ticks{node=\"0\",peer=\"1\"} 150
# HELP flipc_net_rttvar_ticks Round-trip time variance estimate, transport clock ticks.
# TYPE flipc_net_rttvar_ticks gauge
flipc_net_rttvar_ticks{node=\"0\",peer=\"1\"} 25
# HELP flipc_net_rto_current_ticks Retransmit timeout currently armed for this path.
# TYPE flipc_net_rto_current_ticks gauge
flipc_net_rto_current_ticks{node=\"0\",peer=\"1\"} 250
# HELP flipc_net_epoch This node's current session epoch on the path.
# TYPE flipc_net_epoch gauge
flipc_net_epoch{node=\"0\",peer=\"1\"} 2
# HELP flipc_net_credit_window Effective send window under the peer's receiver-granted credit.
# TYPE flipc_net_credit_window gauge
flipc_net_credit_window{node=\"0\",peer=\"1\"} 12
# HELP flipc_net_clock_offset_ns Estimated offset of the peer's trace clock, nanoseconds (signed).
# TYPE flipc_net_clock_offset_ns gauge
flipc_net_clock_offset_ns{node=\"0\",peer=\"1\"} -1250
# HELP flipc_net_clock_dispersion_ns Error bound on the clock offset estimate, nanoseconds.
# TYPE flipc_net_clock_dispersion_ns gauge
flipc_net_clock_dispersion_ns{node=\"0\",peer=\"1\"} 300
# HELP flipc_net_clock_samples Clock-sync samples folded into the estimate this epoch.
# TYPE flipc_net_clock_samples gauge
flipc_net_clock_samples{node=\"0\",peer=\"1\"} 8
# HELP flipc_net_decode_errors_total Datagrams rejected before peer attribution.
# TYPE flipc_net_decode_errors_total counter
flipc_net_decode_errors_total{node=\"0\"} 1
# HELP flipc_net_unknown_peer_total Well-formed datagrams from unconfigured node ids.
# TYPE flipc_net_unknown_peer_total counter
flipc_net_unknown_peer_total{node=\"0\"} 0
# HELP flipc_net_epoch_resyncs_total Paths resynchronized after a peer arrived on a newer epoch.
# TYPE flipc_net_epoch_resyncs_total counter
flipc_net_epoch_resyncs_total{node=\"0\"} 1
# HELP flipc_net_rto_ticks Retransmit timeouts that fired, in transport clock ticks.
# TYPE flipc_net_rto_ticks histogram
flipc_net_rto_ticks_bucket{node=\"0\",le=\"2047\"} 1
flipc_net_rto_ticks_bucket{node=\"0\",le=\"+Inf\"} 1
flipc_net_rto_ticks_sum{node=\"0\"} 2000
flipc_net_rto_ticks_count{node=\"0\"} 1
# HELP flipc_net_retransmit_burst Frames re-sent per go-back-N retransmit round.
# TYPE flipc_net_retransmit_burst histogram
flipc_net_retransmit_burst_bucket{node=\"0\",le=\"1\"} 1
flipc_net_retransmit_burst_bucket{node=\"0\",le=\"3\"} 2
flipc_net_retransmit_burst_bucket{node=\"0\",le=\"+Inf\"} 2
flipc_net_retransmit_burst_sum{node=\"0\"} 3
flipc_net_retransmit_burst_count{node=\"0\"} 2
# HELP flipc_net_batch_datagrams_total Coalesced Batch datagrams transmitted.
# TYPE flipc_net_batch_datagrams_total counter
flipc_net_batch_datagrams_total{node=\"0\"} 2
# HELP flipc_net_batch_frames_total Sub-frames carried inside coalesced Batch datagrams.
# TYPE flipc_net_batch_frames_total counter
flipc_net_batch_frames_total{node=\"0\"} 5
# HELP flipc_net_batch_size Sub-frames per transmitted Batch datagram.
# TYPE flipc_net_batch_size histogram
flipc_net_batch_size_bucket{node=\"0\",le=\"3\"} 2
flipc_net_batch_size_bucket{node=\"0\",le=\"+Inf\"} 2
flipc_net_batch_size_sum{node=\"0\"} 5
flipc_net_batch_size_count{node=\"0\"} 2
# HELP flipc_workload_published_total Messages the application asked the workload to send.
# TYPE flipc_workload_published_total counter
flipc_workload_published_total{workload=\"tiers\",node=\"1\"} 42
# HELP flipc_workload_delivered_total Messages handed to the application in order.
# TYPE flipc_workload_delivered_total counter
flipc_workload_delivered_total{workload=\"tiers\",node=\"1\"} 40
# HELP flipc_workload_dropped_total Messages knowingly shed (at-most-once backpressure, expired deadlines).
# TYPE flipc_workload_dropped_total counter
flipc_workload_dropped_total{workload=\"tiers\",node=\"1\"} 2
# HELP flipc_workload_retried_total Application-level retransmissions on the reliable paths.
# TYPE flipc_workload_retried_total counter
flipc_workload_retried_total{workload=\"tiers\",node=\"1\"} 5
# HELP flipc_workload_replayed_total Log entries re-delivered through a replay-from-offset fetch.
# TYPE flipc_workload_replayed_total counter
flipc_workload_replayed_total{workload=\"tiers\",node=\"1\"} 3
# HELP flipc_workload_acked_total Application-level acknowledgements received.
# TYPE flipc_workload_acked_total counter
flipc_workload_acked_total{workload=\"tiers\",node=\"1\"} 38
# HELP flipc_workload_invariant_violations_total Workload invariant breaches observed (must stay zero).
# TYPE flipc_workload_invariant_violations_total counter
flipc_workload_invariant_violations_total{workload=\"tiers\",node=\"1\"} 0
# HELP flipc_workload_backlog Messages accepted but not yet deliverable (buffers, outboxes, queues).
# TYPE flipc_workload_backlog gauge
flipc_workload_backlog{workload=\"tiers\",node=\"1\"} 4
# HELP flipc_workload_latency_us Workload send-to-deliver latency per traffic class, simulated microseconds (manual-clock ticks).
# TYPE flipc_workload_latency_us histogram
flipc_workload_latency_us_bucket{workload=\"tiers\",node=\"1\",class=\"high\",le=\"1023\"} 1
flipc_workload_latency_us_bucket{workload=\"tiers\",node=\"1\",class=\"high\",le=\"4095\"} 2
flipc_workload_latency_us_bucket{workload=\"tiers\",node=\"1\",class=\"high\",le=\"+Inf\"} 2
flipc_workload_latency_us_sum{workload=\"tiers\",node=\"1\",class=\"high\"} 4900
flipc_workload_latency_us_count{workload=\"tiers\",node=\"1\",class=\"high\"} 2
";
    let got = page();
    assert_eq!(
        got, golden,
        "exposition format drifted — if intentional, update the golden \
         and the contract table in flipc_obs::expo"
    );
}

#[test]
fn exposition_is_deterministic() {
    assert_eq!(page(), page());
}
