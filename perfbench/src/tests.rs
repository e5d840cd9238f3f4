//! Checks on the benchmark itself.

use crate::trace::{self, Off, On};
use crate::workloads::{
    Checker, Counts, Ctx, Fixture, Inputs, Meter, Pingpong, Rpc, Stream, Until, Workload,
};
use std::time::Duration;

/// What one brief run delivered: each sender's sequence numbers in arrival
/// order, and the counters that the messages alone determine.
#[derive(Debug, PartialEq, Eq)]
struct Delivered {
    per_sender: Vec<Vec<u64>>,
    counts: Counts,
    missing: u64,
    corrupt: u64,
}

fn brief<F: Fixture>(w: Workload, traced: bool, per_sender: u64) -> Delivered {
    let inputs = Inputs::new(7, w.geometry().payload_size());
    let mut f = F::setup(w, traced).expect("set-up");
    let mut ctx = Ctx {
        inputs: &inputs,
        check: Checker::new(f.senders(), true),
        meter: Meter::new(Duration::MAX, 1),
    };
    let until = Until::messages(per_sender);
    if traced {
        let phase = trace::start(1 << 16);
        f.run(On, &mut ctx, until).expect("traced run");
        let tr = phase.finish();
        assert!(!tr.spans().is_empty(), "{}: no spans recorded", w.name());
    } else {
        f.run(Off, &mut ctx, until).expect("untraced run");
    }
    f.drain(&mut ctx).expect("drain");
    let senders = f.senders().len();
    let mut per_sender = vec![Vec::new(); senders];
    for &(k, seq) in ctx.check.log.as_deref().unwrap_or_default() {
        per_sender[usize::from(k)].push(seq);
    }
    // Iterations, retransmissions, duplicates and credit stalls depend on
    // timing (the engine's idle passes and the transport's timers), not
    // on the messages; they legitimately differ between two runs.
    let counts = Counts {
        iterations: 0,
        net_retransmitted: 0,
        net_dup_dropped: 0,
        net_credit_stalls: 0,
        ..f.counts()
    };
    Delivered {
        per_sender,
        counts,
        missing: ctx.check.missing,
        corrupt: ctx.check.corrupt,
    }
}

fn traced_matches_untraced<F: Fixture>(w: Workload, per_sender: u64) {
    let plain = brief::<F>(w, false, per_sender);
    let traced = brief::<F>(w, true, per_sender);
    assert_eq!(plain.missing + plain.corrupt, 0, "{}: {plain:?}", w.name());
    for seqs in &plain.per_sender {
        assert_eq!(seqs.len() as u64, per_sender, "{}", w.name());
    }
    assert_eq!(
        plain,
        traced,
        "{}: the traced stack behaved differently",
        w.name()
    );
}

/// The timing adapters forward every trait method, so tracing changes
/// neither what is delivered nor what the engines and transports count.
/// One test runs all four workloads in turn: allocation counting is
/// process-wide and must not overlap between them.
#[test]
fn tracing_does_not_change_behaviour() {
    traced_matches_untraced::<Pingpong>(Workload::PingpongLoopback, 500);
    traced_matches_untraced::<Pingpong>(Workload::PingpongUdp, 500);
    traced_matches_untraced::<Stream>(Workload::StreamUdp, 2_000);
    traced_matches_untraced::<Rpc>(Workload::RpcThreaded, 500);
}
