//! Workload-level telemetry snapshots.
//!
//! The transport layer reports datagrams, retransmits, and epochs; a
//! *workload* (pub-sub broadcast, replicated log, tiered delivery — see
//! `flipc-workloads`) reports application-meaningful counters: messages
//! published and delivered, app-level retries, replayed log entries,
//! invariant violations. [`WorkloadSnapshot`] is the loads-only carrier
//! for those numbers, produced by a workload harness per node and
//! consumed by [`crate::expo::expose_workload`] and `flipc-top`.
//!
//! The snapshot is plain data on purpose: workloads record into their own
//! local counters on the hot path and materialize a snapshot only when an
//! observer asks, mirroring the engine's snapshot discipline.

use flipc_core::hist::HistogramSnapshot;

use crate::json::Value;

/// Per-traffic-class latency for one workload on one node.
#[derive(Clone, Debug)]
pub struct WorkloadClass {
    /// Stable class label (`"high"`, `"bulk"`, `"topic3"`, …).
    pub class: String,
    /// Send→deliver latency distribution in manual-clock ticks
    /// (simulated microseconds): every workload harness runs on a
    /// deterministic cluster's manual clock.
    pub latency: HistogramSnapshot,
}

/// One workload's counters on one node at a moment in time.
#[derive(Clone, Debug)]
pub struct WorkloadSnapshot {
    /// Stable workload name (`"broadcast"`, `"log"`, `"tiers"`).
    pub workload: String,
    /// Node the counters belong to.
    pub node: u16,
    /// Messages the application asked the workload to send.
    pub published: u64,
    /// Messages handed to the application in order.
    pub delivered: u64,
    /// Messages knowingly shed (at-most-once backpressure, expired
    /// deadlines).
    pub dropped: u64,
    /// App-level retransmissions (reliable modes only).
    pub retried: u64,
    /// Log entries re-delivered through a replay-from-offset fetch.
    pub replayed: u64,
    /// App-level acknowledgements received.
    pub acked: u64,
    /// Invariant breaches observed so far (must stay zero).
    pub invariant_violations: u64,
    /// Messages accepted but not yet deliverable (reorder buffers,
    /// un-acked outboxes, undrained queues).
    pub backlog: u64,
    /// Per-class latency distributions.
    pub classes: Vec<WorkloadClass>,
}

impl WorkloadSnapshot {
    /// An all-zero snapshot for `workload` on `node`.
    pub fn new(workload: &str, node: u16) -> WorkloadSnapshot {
        WorkloadSnapshot {
            workload: workload.to_string(),
            node,
            published: 0,
            delivered: 0,
            dropped: 0,
            retried: 0,
            replayed: 0,
            acked: 0,
            invariant_violations: 0,
            backlog: 0,
            classes: Vec::new(),
        }
    }

    /// The snapshot as a JSON object (for `flipc-top --json` documents).
    pub fn to_json(&self) -> Value {
        let classes: Vec<Value> = self
            .classes
            .iter()
            .map(|c| {
                Value::object([
                    ("class", Value::from(c.class.as_str())),
                    ("count", Value::from(c.latency.count())),
                    (
                        "p50",
                        c.latency
                            .quantile(0.50)
                            .map(Value::from)
                            .unwrap_or(Value::Null),
                    ),
                    (
                        "p99",
                        c.latency
                            .quantile(0.99)
                            .map(Value::from)
                            .unwrap_or(Value::Null),
                    ),
                ])
            })
            .collect();
        Value::object([
            ("workload", Value::from(self.workload.as_str())),
            ("node", Value::from(u64::from(self.node))),
            ("published", Value::from(self.published)),
            ("delivered", Value::from(self.delivered)),
            ("dropped", Value::from(self.dropped)),
            ("retried", Value::from(self.retried)),
            ("replayed", Value::from(self.replayed)),
            ("acked", Value::from(self.acked)),
            (
                "invariant_violations",
                Value::from(self.invariant_violations),
            ),
            ("backlog", Value::from(self.backlog)),
            ("classes", Value::Array(classes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let mut s = WorkloadSnapshot::new("broadcast", 3);
        s.published = 10;
        s.delivered = 9;
        s.classes.push(WorkloadClass {
            class: "topic0".to_string(),
            latency: HistogramSnapshot::empty(65),
        });
        let v = s.to_json();
        assert_eq!(v.get("workload").and_then(Value::as_str), Some("broadcast"));
        assert_eq!(v.get("published").and_then(Value::as_f64), Some(10.0));
        assert!(v.get("classes").is_some());
    }
}
