//! Per-peer transport counters, on the two-location discipline.
//!
//! Every counter is a [`flipc_core::counter::OwnedCounter`]: the transport
//! (running inside the engine's event loop) is the single writer of the
//! event location; inspectors harvest through the `taken` location. That
//! keeps counting on the engine's loads-and-stores budget and lets a live
//! operator read (or read-and-reset) without any read-modify-write, the
//! same property the paper required for the endpoint drop counters.
//!
//! The peer-lifecycle surface lives here too: the transport mirrors each
//! path's SRTT/RTTVAR/RTO estimate and session epoch into plain-store
//! gauges, and publishes its failure-detector verdicts on a shared
//! [`flipc_core::inspect::LivenessBoard`] so the application interface can
//! fail sends to dead peers without asking the transport anything.
//!
//! [`NetStats::snapshot`] renders into the workspace-wide inspect surface
//! ([`flipc_core::inspect::TransportSnapshot`]).

use flipc_core::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use flipc_core::counter::OwnedCounter;
use flipc_core::endpoint::FlipcNodeId;
use flipc_core::hist::Histogram;
use flipc_core::inspect::{LivenessBoard, PathSnapshot, TransportSnapshot};

/// Counters for one peer path (both directions).
#[derive(Debug, Default)]
pub struct PeerStats {
    /// The peer these paths connect to.
    pub node: FlipcNodeId,
    /// Data frames transmitted for the first time.
    pub sent: OwnedCounter,
    /// Data frames re-sent by a go-back-N burst.
    pub retransmitted: OwnedCounter,
    /// In-order frames handed up to the engine.
    pub delivered: OwnedCounter,
    /// Duplicate arrivals discarded.
    pub dup_dropped: OwnedCounter,
    /// Arrivals beyond the reorder window, discarded.
    pub out_of_window: OwnedCounter,
    /// First transmissions the wire refused (recovered by retransmit).
    pub wire_dropped: OwnedCounter,
    /// Frames failed back to the application by the peer lifecycle (dead
    /// declaration or epoch resync) instead of being retransmitted forever.
    pub failed: OwnedCounter,
    /// Datagrams from a stale session epoch, rejected before delivery.
    pub stale_epoch: OwnedCounter,
    /// Idle-path heartbeat pings sent to this peer.
    pub pings: OwnedCounter,
    /// Sends refused by flow control — the peer's credit grant or the
    /// DRR fairness arbiter — while the configured window still had room.
    pub credit_stalls: OwnedCounter,
    /// Times our credit grantor shrank the window it advertises to this
    /// peer (receive-side drops seen since the previous advertisement).
    pub credit_shrinks: OwnedCounter,
    /// Gauge: the credit window the peer currently grants us (frames).
    /// Single writer (the transport); plain store.
    pub credit_window: AtomicU32,
    /// Gauge: frames in the retransmit ring right now. Single writer (the
    /// transport); plain store.
    pub in_flight: AtomicU32,
    /// Gauge: smoothed RTT estimate for this path (clock ticks).
    pub srtt: AtomicU64,
    /// Gauge: RTT variance estimate (clock ticks).
    pub rttvar: AtomicU64,
    /// Gauge: retransmit timeout currently armed (clock ticks).
    pub rto_cur: AtomicU64,
    /// Gauge: this node's current session epoch on the path.
    pub epoch: AtomicU32,
    /// Gauge: estimated offset of the peer's trace clock relative to
    /// ours (nanoseconds, signed — stored as the `i64` two's-complement
    /// bit pattern; readers cast back). Fed by the heartbeat clock-sync
    /// exchange ([`crate::reliability::ClockSync`]).
    pub clock_offset: AtomicU64,
    /// Gauge: dispersion (error bound) on the clock offset estimate,
    /// nanoseconds.
    pub clock_dispersion: AtomicU64,
    /// Gauge: clock-sync samples folded into the estimate this epoch
    /// (zero until the first answered heartbeat, and again after an
    /// epoch resync forgets the estimate).
    pub clock_samples: AtomicU64,
}

/// All of one transport's counters, shared with inspectors via `Arc`.
#[derive(Debug)]
pub struct NetStats {
    /// The node the transport serves.
    pub local: FlipcNodeId,
    /// One entry per configured peer (construction order).
    pub peers: Vec<PeerStats>,
    /// Datagrams rejected before peer attribution.
    pub decode_errors: OwnedCounter,
    /// Well-formed datagrams from unconfigured node ids.
    pub unknown_peer: OwnedCounter,
    /// Paths resynchronized because the peer arrived on a newer epoch.
    pub epoch_resyncs: OwnedCounter,
    /// Distribution of retransmit timeouts that actually fired (transport
    /// clock ticks — microseconds on the production clock). The transport
    /// is the single recorder; one sample per go-back-N round.
    pub rto: Histogram,
    /// Distribution of go-back-N burst sizes (frames re-sent per round).
    /// Same recorder discipline as `rto`.
    pub retransmit_burst: Histogram,
    /// Coalesced Batch datagrams transmitted (one per flush with two or
    /// more frames staged; a lone frame leaves as plain Data).
    pub batch_datagrams: OwnedCounter,
    /// Sub-frames carried inside coalesced Batch datagrams.
    pub batch_frames: OwnedCounter,
    /// Distribution of sub-frames per transmitted Batch datagram. Same
    /// recorder discipline as `rto`: the transport records one sample per
    /// Batch sent.
    pub batch_size: Histogram,
    /// The failure detector's shared verdict table. The transport is the
    /// single writer; hand a clone to [`flipc_core::api::Flipc::set_liveness`]
    /// so the application interface fails sends to dead peers eagerly.
    pub liveness: Arc<LivenessBoard>,
}

impl NetStats {
    /// Fresh zeroed counters for `local` speaking to `peers`.
    pub fn new(local: FlipcNodeId, peers: &[FlipcNodeId]) -> Arc<NetStats> {
        let max_node = peers
            .iter()
            .map(|n| n.0)
            .chain(std::iter::once(local.0))
            .max()
            .unwrap_or(0);
        Arc::new(NetStats {
            local,
            peers: peers
                .iter()
                .map(|&node| PeerStats {
                    node,
                    ..PeerStats::default()
                })
                .collect(),
            decode_errors: OwnedCounter::new(),
            unknown_peer: OwnedCounter::new(),
            epoch_resyncs: OwnedCounter::new(),
            rto: Histogram::new(),
            retransmit_burst: Histogram::new(),
            batch_datagrams: OwnedCounter::new(),
            batch_frames: OwnedCounter::new(),
            batch_size: Histogram::new(),
            liveness: Arc::new(LivenessBoard::new(max_node)),
        })
    }

    /// The counters for `node`, if it is a configured peer.
    pub fn peer(&self, node: FlipcNodeId) -> Option<&PeerStats> {
        self.peers.iter().find(|p| p.node == node)
    }

    /// Captures a point-in-time snapshot onto the shared inspect surface.
    /// Wait-free: one atomic load per field, no counter is reset.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            local: self.local,
            paths: self
                .peers
                .iter()
                .map(|p| PathSnapshot {
                    peer: p.node,
                    sent: p.sent.read(),
                    retransmitted: p.retransmitted.read(),
                    delivered: p.delivered.read(),
                    dup_dropped: p.dup_dropped.read(),
                    out_of_window: p.out_of_window.read(),
                    wire_dropped: p.wire_dropped.read(),
                    in_flight: p.in_flight.load(Ordering::Relaxed),
                    failed: p.failed.read(),
                    stale_epoch: p.stale_epoch.read(),
                    pings: p.pings.read(),
                    credit_stalls: p.credit_stalls.read(),
                    credit_shrinks: p.credit_shrinks.read(),
                    credit_window: p.credit_window.load(Ordering::Relaxed),
                    liveness: self.liveness.get(p.node),
                    srtt: p.srtt.load(Ordering::Relaxed),
                    rttvar: p.rttvar.load(Ordering::Relaxed),
                    rto: p.rto_cur.load(Ordering::Relaxed),
                    epoch: p.epoch.load(Ordering::Relaxed) as u16,
                    clock_offset_ns: p.clock_offset.load(Ordering::Relaxed) as i64,
                    clock_dispersion_ns: p.clock_dispersion.load(Ordering::Relaxed),
                    clock_samples: p.clock_samples.load(Ordering::Relaxed),
                })
                .collect(),
            decode_errors: self.decode_errors.read(),
            unknown_peer: self.unknown_peer.read(),
            epoch_resyncs: self.epoch_resyncs.read(),
            rto: self.rto.snapshot(),
            retransmit_burst: self.retransmit_burst.snapshot(),
            batch_datagrams: self.batch_datagrams.read(),
            batch_frames: self.batch_frames.read(),
            batch_size: self.batch_size.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipc_core::inspect::PeerLiveness;

    #[test]
    fn snapshot_reflects_counters_without_resetting() {
        let stats = NetStats::new(FlipcNodeId(0), &[FlipcNodeId(1), FlipcNodeId(2)]);
        let p = stats.peer(FlipcNodeId(2)).unwrap();
        p.sent.writer().increment();
        p.sent.writer().increment();
        p.retransmitted.writer().increment();
        p.in_flight.store(5, Ordering::Relaxed);
        stats.unknown_peer.writer().increment();

        let s1 = stats.snapshot();
        let s2 = stats.snapshot();
        assert_eq!(s1.paths.len(), 2);
        let path = s1.paths.iter().find(|p| p.peer == FlipcNodeId(2)).unwrap();
        assert_eq!(path.sent, 2);
        assert_eq!(path.retransmitted, 1);
        assert_eq!(path.in_flight, 5);
        assert_eq!(s1.unknown_peer, 1);
        assert_eq!(s2.paths[1].sent, 2, "snapshots must not consume counts");
        assert!(s1.render().contains("peer 2"));
    }

    #[test]
    fn snapshot_carries_lifecycle_gauges_and_board_state() {
        let stats = NetStats::new(FlipcNodeId(0), &[FlipcNodeId(1)]);
        let p = stats.peer(FlipcNodeId(1)).unwrap();
        for _ in 0..3 {
            p.failed.writer().increment();
        }
        p.stale_epoch.writer().increment();
        p.pings.writer().increment();
        p.pings.writer().increment();
        p.credit_stalls.writer().increment();
        p.credit_shrinks.writer().increment();
        p.credit_shrinks.writer().increment();
        p.credit_window.store(16, Ordering::Relaxed);
        p.srtt.store(150, Ordering::Relaxed);
        p.rttvar.store(40, Ordering::Relaxed);
        p.rto_cur.store(310, Ordering::Relaxed);
        p.epoch.store(7, Ordering::Relaxed);
        // The offset gauge stores the signed value's bit pattern.
        p.clock_offset.store((-1_500_i64) as u64, Ordering::Relaxed);
        p.clock_dispersion.store(250, Ordering::Relaxed);
        p.clock_samples.store(4, Ordering::Relaxed);
        stats.epoch_resyncs.writer().increment();
        stats.liveness.set(FlipcNodeId(1), PeerLiveness::Dead);

        let s = stats.snapshot();
        let path = &s.paths[0];
        assert_eq!(path.failed, 3);
        assert_eq!(path.stale_epoch, 1);
        assert_eq!(path.pings, 2);
        assert_eq!(path.credit_stalls, 1);
        assert_eq!(path.credit_shrinks, 2);
        assert_eq!(path.credit_window, 16);
        assert_eq!(path.srtt, 150);
        assert_eq!(path.rttvar, 40);
        assert_eq!(path.rto, 310);
        assert_eq!(path.epoch, 7);
        assert_eq!(path.clock_offset_ns, -1_500, "bit pattern casts back");
        assert_eq!(path.clock_dispersion_ns, 250);
        assert_eq!(path.clock_samples, 4);
        assert_eq!(path.liveness, PeerLiveness::Dead);
        assert_eq!(s.epoch_resyncs, 1);
        assert!(s.render().contains("[dead e7]"));
    }

    #[test]
    fn board_covers_every_configured_node() {
        // Peer ids need not be dense; the board must still cover the max.
        let stats = NetStats::new(FlipcNodeId(2), &[FlipcNodeId(9)]);
        stats.liveness.set(FlipcNodeId(9), PeerLiveness::Suspect);
        assert_eq!(stats.liveness.get(FlipcNodeId(9)), PeerLiveness::Suspect);
    }
}
