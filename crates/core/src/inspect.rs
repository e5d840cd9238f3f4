//! Diagnostics: read-only snapshots of communication-buffer state.
//!
//! The communication buffer is deliberately opaque to applications (the
//! interface layer "hides the data structures in the communication
//! buffer"), but operators debugging a distributed real-time system need
//! to see queue depths, drop counts, and pool occupancy. This module
//! provides wait-free, read-only snapshots — every value is a single
//! atomic load, so inspection can run against a live system without
//! perturbing the engine or the applications (beyond the cache traffic of
//! the reads themselves).
//!
//! Snapshots are instantaneous samples of concurrently changing state;
//! cross-field invariants (e.g. pool + in-flight == total) hold exactly
//! only on a quiescent buffer.

use crate::commbuf::CommBuffer;
use crate::endpoint::{EndpointIndex, EndpointType, Importance};
use crate::hist::HistogramSnapshot;

/// Point-in-time state of one endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EndpointSnapshot {
    /// Slot index.
    pub index: u16,
    /// Allocation generation.
    pub generation: u16,
    /// Whether the slot is currently allocated.
    pub active: bool,
    /// Role, when decodable (`None` for a never-used or corrupt slot).
    pub endpoint_type: Option<EndpointType>,
    /// Importance class.
    pub importance: Importance,
    /// Buffers released and awaiting engine processing.
    pub pending_process: u32,
    /// Buffers processed and awaiting application acquire.
    pub acquirable: u32,
    /// Total buffers held by the queue.
    pub queued: u32,
    /// Unharvested discarded-message count.
    pub drops: u32,
    /// Threads currently blocked on this endpoint.
    pub waiters: u32,
}

/// Point-in-time state of a whole communication buffer.
#[derive(Clone, Debug)]
pub struct CommBufferSnapshot {
    /// Per-endpoint states (every slot, active or not).
    pub endpoints: Vec<EndpointSnapshot>,
    /// Buffers currently in the free pool.
    pub free_buffers: u32,
    /// Total buffers in the pool (geometry).
    pub total_buffers: u32,
    /// Unharvested misaddressed-message count.
    pub misaddressed: u32,
}

impl CommBufferSnapshot {
    /// Captures a snapshot of `cb`.
    pub fn capture(cb: &CommBuffer) -> CommBufferSnapshot {
        let geo = cb.geometry();
        let mut endpoints = Vec::with_capacity(geo.endpoints as usize);
        for i in 0..geo.endpoints {
            let idx = EndpointIndex(i);
            let (generation, active) = cb.endpoint_gen_active(idx).unwrap_or((0, false));
            let q = cb.app_queue(idx).expect("index in range");
            endpoints.push(EndpointSnapshot {
                index: i,
                generation,
                active,
                endpoint_type: cb.endpoint_type(idx).ok(),
                importance: cb.endpoint_importance(idx).unwrap_or(Importance::Normal),
                pending_process: q.pending_process(),
                acquirable: q.acquirable(),
                queued: q.len(),
                drops: cb.drops_app(idx).expect("index in range").read(),
                waiters: cb.waiters(idx).unwrap_or(0),
            });
        }
        CommBufferSnapshot {
            endpoints,
            free_buffers: cb.free_buffers(),
            total_buffers: geo.buffers,
            misaddressed: cb.misaddressed_app().read(),
        }
    }

    /// Active endpoints only.
    pub fn active(&self) -> impl Iterator<Item = &EndpointSnapshot> {
        self.endpoints.iter().filter(|e| e.active)
    }

    /// Sum of unharvested drops across all endpoints (misaddressed not
    /// included).
    pub fn total_drops(&self) -> u64 {
        self.endpoints.iter().map(|e| e.drops as u64).sum()
    }

    /// A compact human-readable report (one line per active endpoint).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pool {}/{} free, misaddressed {}",
            self.free_buffers, self.total_buffers, self.misaddressed
        );
        for e in self.active() {
            let ty = match e.endpoint_type {
                Some(EndpointType::Send) => "send",
                Some(EndpointType::Receive) => "recv",
                None => "????",
            };
            let _ = writeln!(
                out,
                "ep{:<3} g{:<5} {} {:?}: queued {} (await-engine {}, await-app {}), drops {}, waiters {}",
                e.index, e.generation, ty, e.importance, e.queued, e.pending_process,
                e.acquirable, e.drops, e.waiters
            );
        }
        out
    }
}

/// Liveness classification of one peer, as judged by a network transport's
/// failure detector (bounded retransmit budget + idle heartbeats).
///
/// The state machine only moves `Healthy → Suspect → Dead` on evidence of
/// silence and jumps straight back to `Healthy` on any valid arrival — a
/// returning peer is always re-admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PeerLiveness {
    /// The peer is acknowledging (or idle but answering heartbeats).
    #[default]
    Healthy,
    /// The retransmit/heartbeat strike budget is partially consumed; the
    /// peer may be slow, partitioned, or gone.
    Suspect,
    /// The strike budget is exhausted: the transport has stopped spending
    /// datagrams on this peer and fails its sends back to the application.
    Dead,
}

impl PeerLiveness {
    /// Stable lower-case name used by renderers and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            PeerLiveness::Healthy => "healthy",
            PeerLiveness::Suspect => "suspect",
            PeerLiveness::Dead => "dead",
        }
    }

    /// Numeric encoding used on the wire-free atomic board (and as the
    /// `flipc_net_peer_state` gauge value).
    pub fn as_u8(self) -> u8 {
        match self {
            PeerLiveness::Healthy => 0,
            PeerLiveness::Suspect => 1,
            PeerLiveness::Dead => 2,
        }
    }

    /// Inverse of [`PeerLiveness::as_u8`]; unknown encodings read as
    /// `Healthy` (the optimistic default).
    pub fn from_u8(v: u8) -> PeerLiveness {
        match v {
            1 => PeerLiveness::Suspect,
            2 => PeerLiveness::Dead,
            _ => PeerLiveness::Healthy,
        }
    }
}

/// A shared per-node liveness table: one atomic cell per peer node id,
/// written only by the node's transport (plain stores) and read by anyone —
/// the application interface checks it on `send` so a dead destination is
/// rejected with [`crate::error::FlipcError::PeerDown`] instead of silently
/// black-holed, and inspectors render it.
///
/// Same single-writer discipline as every other shared surface in this
/// workspace: loads and stores only, no read-modify-write anywhere.
#[derive(Debug)]
pub struct LivenessBoard {
    states: Vec<crate::sync::atomic::AtomicU8>,
}

impl LivenessBoard {
    /// A board covering node ids `0..=max_node`, all `Healthy`.
    pub fn new(max_node: u16) -> LivenessBoard {
        LivenessBoard {
            states: (0..=u32::from(max_node))
                .map(|_| crate::sync::atomic::AtomicU8::new(0))
                .collect(),
        }
    }

    /// The recorded state of `node`; ids outside the board read `Healthy`
    /// (an unknown peer is not known to be dead).
    pub fn get(&self, node: crate::endpoint::FlipcNodeId) -> PeerLiveness {
        match self.states.get(node.0 as usize) {
            Some(s) => PeerLiveness::from_u8(s.load(crate::sync::atomic::Ordering::Relaxed)),
            None => PeerLiveness::Healthy,
        }
    }

    /// Records `state` for `node` (single writer: the transport). Ids
    /// outside the board are ignored.
    pub fn set(&self, node: crate::endpoint::FlipcNodeId, state: PeerLiveness) {
        if let Some(s) = self.states.get(node.0 as usize) {
            s.store(state.as_u8(), crate::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Point-in-time reliability state of one inter-node path (this node to or
/// from one peer), as reported by a network transport.
///
/// All counts are cumulative since the transport was built; `in_flight` is
/// a gauge (frames sent and not yet cumulatively acknowledged). Transports
/// fill these from their own two-location counters
/// ([`crate::counter::OwnedCounter`]), so capturing a snapshot never resets
/// anything the transport is still writing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathSnapshot {
    /// The peer node on the far end of this path.
    pub peer: crate::endpoint::FlipcNodeId,
    /// Data frames transmitted for the first time.
    pub sent: u32,
    /// Data frames re-transmitted by the reliability layer.
    pub retransmitted: u32,
    /// In-order frames handed up to the engine.
    pub delivered: u32,
    /// Duplicate arrivals discarded by the dedup window.
    pub dup_dropped: u32,
    /// Arrivals outside the reorder window, discarded (the peer's
    /// retransmission recovers them).
    pub out_of_window: u32,
    /// First-transmission attempts the wire refused (the retransmit timer
    /// recovers them).
    pub wire_dropped: u32,
    /// Frames sent and not yet cumulatively acknowledged (gauge, bounded
    /// by the transport's window).
    pub in_flight: u32,
    /// Frames failed back to the application by the peer lifecycle (dead
    /// declaration or epoch resync) instead of being retransmitted forever.
    pub failed: u32,
    /// Datagrams from a stale session epoch, rejected (never delivered).
    pub stale_epoch: u32,
    /// Heartbeat pings sent on this path while it was idle.
    pub pings: u32,
    /// Sends refused by flow control (the peer's credit grant or the DRR
    /// fairness arbiter) while the configured window still had room.
    pub credit_stalls: u32,
    /// Times this node's credit grantor shrank the window it advertises
    /// to the peer (receive-side congestion rounds).
    pub credit_shrinks: u32,
    /// The credit window the peer currently grants this path (frames;
    /// gauge, equal to the configured window until congestion shrinks it).
    pub credit_window: u32,
    /// The failure detector's current verdict for this peer.
    pub liveness: PeerLiveness,
    /// Smoothed round-trip time estimate (clock ticks; 0 = no samples yet).
    pub srtt: u64,
    /// Round-trip time variance estimate (clock ticks).
    pub rttvar: u64,
    /// The retransmit timeout currently armed for this path (clock ticks):
    /// `clamp(srtt + 4·rttvar)` once samples exist, plus any loss backoff.
    pub rto: u64,
    /// This node's current session epoch on the path (stamped into every
    /// outgoing datagram; bumped when the peer is declared dead).
    pub epoch: u16,
    /// Estimated offset of the peer's trace clock relative to ours
    /// (nanoseconds, signed: positive means the peer's clock reads ahead).
    /// Zero until the first answered clock-sync heartbeat.
    pub clock_offset_ns: i64,
    /// Error bound on `clock_offset_ns` (nanoseconds): an EWMA of the
    /// sample scatter plus half the round-trip delay, the classic NTP
    /// bound on how wrong a symmetric-delay offset estimate can be.
    pub clock_dispersion_ns: u64,
    /// Clock-sync samples folded into the estimate this session epoch
    /// (reset alongside the epoch, so a restarted peer re-learns).
    pub clock_samples: u64,
}

/// Point-in-time state of a whole network transport: one [`PathSnapshot`]
/// per configured peer plus node-scope error counts.
#[derive(Clone, Debug)]
pub struct TransportSnapshot {
    /// The node the transport serves.
    pub local: crate::endpoint::FlipcNodeId,
    /// Per-peer path states.
    pub paths: Vec<PathSnapshot>,
    /// Datagrams rejected before peer attribution (bad magic, version, or
    /// length).
    pub decode_errors: u32,
    /// Well-formed datagrams from node ids outside the peer table.
    pub unknown_peer: u32,
    /// Times a peer arrived speaking a newer session epoch and the path
    /// was resynchronized (receiver state reset; a crashed-and-restarted
    /// peer produces exactly one).
    pub epoch_resyncs: u32,
    /// Distribution of retransmit timeouts that actually fired (transport
    /// clock ticks — microseconds on the production clock). One sample per
    /// go-back-N round, node scope.
    pub rto: HistogramSnapshot,
    /// Distribution of go-back-N burst sizes (frames re-sent per retransmit
    /// round), node scope.
    pub retransmit_burst: HistogramSnapshot,
    /// Coalesced Batch datagrams transmitted (a lone staged frame leaves
    /// as plain Data and is not counted), node scope.
    pub batch_datagrams: u32,
    /// Sub-frames carried inside coalesced Batch datagrams, node scope.
    pub batch_frames: u32,
    /// Distribution of sub-frames per transmitted Batch datagram (one
    /// sample per Batch sent), node scope.
    pub batch_size: HistogramSnapshot,
}

impl TransportSnapshot {
    /// A compact human-readable report (one line per peer), in the same
    /// spirit as [`CommBufferSnapshot::render`].
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "net node {}: decode errors {}, unknown peers {}, epoch resyncs {}",
            self.local.0, self.decode_errors, self.unknown_peer, self.epoch_resyncs
        );
        for p in &self.paths {
            let _ = writeln!(
                out,
                "peer {:<3} [{} e{}] sent {} (+{} rexmit, {} wire-dropped), delivered {}, \
                 dup {}, out-of-window {}, in-flight {}, failed {}, stale-epoch {}, \
                 srtt {} rttvar {} rto {}, credit {} ({} stalls, {} shrinks)",
                p.peer.0,
                p.liveness.name(),
                p.epoch,
                p.sent,
                p.retransmitted,
                p.wire_dropped,
                p.delivered,
                p.dup_dropped,
                p.out_of_window,
                p.in_flight,
                p.failed,
                p.stale_epoch,
                p.srtt,
                p.rttvar,
                p.rto,
                p.credit_window,
                p.credit_stalls,
                p.credit_shrinks
            );
            if p.clock_samples > 0 {
                let _ = writeln!(
                    out,
                    "peer {:<3} clock offset {}ns ±{}ns ({} samples)",
                    p.peer.0, p.clock_offset_ns, p.clock_dispersion_ns, p.clock_samples
                );
            }
        }
        let rounds = self.retransmit_burst.count();
        if rounds > 0 {
            let _ = writeln!(
                out,
                "retransmit rounds {rounds}: burst p50 {:.0}, rto p50 {:.0}, rto p99 {:.0}",
                self.retransmit_burst.quantile(0.5).unwrap_or(0.0),
                self.rto.quantile(0.5).unwrap_or(0.0),
                self.rto.quantile(0.99).unwrap_or(0.0),
            );
        }
        if self.batch_datagrams > 0 {
            let _ = writeln!(
                out,
                "coalesced {} frames into {} batch datagrams: size p50 {:.0}, p99 {:.0}",
                self.batch_frames,
                self.batch_datagrams,
                self.batch_size.quantile(0.5).unwrap_or(0.0),
                self.batch_size.quantile(0.99).unwrap_or(0.0),
            );
        }
        out
    }

    /// Sum of frames discarded on receive across all paths (the peer's
    /// reliability layer recovers every one of them).
    pub fn total_recv_drops(&self) -> u64 {
        self.paths
            .iter()
            .map(|p| p.dup_dropped as u64 + p.out_of_window as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Flipc;
    use crate::endpoint::FlipcNodeId;
    use crate::layout::Geometry;
    use crate::wait::WaitRegistry;
    use std::sync::Arc;

    fn flipc() -> Flipc {
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        Flipc::attach(cb, FlipcNodeId(0), WaitRegistry::new())
    }

    #[test]
    fn fresh_buffer_snapshot_is_quiet() {
        let f = flipc();
        let s = CommBufferSnapshot::capture(f.commbuf());
        assert_eq!(s.endpoints.len(), 8);
        assert_eq!(s.active().count(), 0);
        assert_eq!(s.free_buffers, 64);
        assert_eq!(s.total_buffers, 64);
        assert_eq!(s.total_drops(), 0);
        assert_eq!(s.misaddressed, 0);
    }

    #[test]
    fn snapshot_tracks_queue_and_pool_state() {
        let f = flipc();
        let tx = f
            .endpoint_allocate(EndpointType::Send, Importance::High)
            .unwrap();
        let rx = f
            .endpoint_allocate(EndpointType::Receive, Importance::Low)
            .unwrap();
        // Two buffers queued on the receive ring, one allocated and held.
        for _ in 0..2 {
            let t = f.buffer_allocate().unwrap();
            f.provide_receive_buffer(&rx, t)
                .map_err(|r| r.error)
                .unwrap();
        }
        let held = f.buffer_allocate().unwrap();

        let s = CommBufferSnapshot::capture(f.commbuf());
        assert_eq!(s.active().count(), 2);
        assert_eq!(s.free_buffers, 64 - 3);
        let snd = &s.endpoints[tx.index().0 as usize];
        assert_eq!(snd.endpoint_type, Some(EndpointType::Send));
        assert_eq!(snd.importance, Importance::High);
        assert_eq!(snd.queued, 0);
        let rcv = &s.endpoints[rx.index().0 as usize];
        assert_eq!(rcv.endpoint_type, Some(EndpointType::Receive));
        assert_eq!(rcv.queued, 2);
        assert_eq!(rcv.pending_process, 2);
        assert_eq!(rcv.acquirable, 0);
        f.buffer_free(held);
    }

    #[test]
    fn snapshot_reads_do_not_consume_counters() {
        let f = flipc();
        let rx = f
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        f.commbuf().drops_engine(rx.index()).unwrap().increment();
        let s1 = CommBufferSnapshot::capture(f.commbuf());
        let s2 = CommBufferSnapshot::capture(f.commbuf());
        assert_eq!(s1.endpoints[0].drops, 1);
        assert_eq!(
            s2.endpoints[0].drops, 1,
            "inspection must not reset counters"
        );
        assert_eq!(
            f.drops_reset(&rx).unwrap(),
            1,
            "the application still harvests it"
        );
    }

    #[test]
    fn transport_snapshot_renders_per_peer_lines() {
        let s = TransportSnapshot {
            local: FlipcNodeId(0),
            paths: vec![PathSnapshot {
                peer: FlipcNodeId(1),
                sent: 10,
                retransmitted: 2,
                delivered: 7,
                dup_dropped: 1,
                out_of_window: 3,
                wire_dropped: 0,
                in_flight: 4,
                failed: 0,
                stale_epoch: 0,
                pings: 0,
                credit_stalls: 5,
                credit_shrinks: 2,
                credit_window: 32,
                liveness: PeerLiveness::Suspect,
                srtt: 120,
                rttvar: 30,
                rto: 240,
                epoch: 3,
                clock_offset_ns: -2_500,
                clock_dispersion_ns: 400,
                clock_samples: 6,
            }],
            decode_errors: 5,
            unknown_peer: 0,
            epoch_resyncs: 1,
            rto: HistogramSnapshot::empty(crate::hist::BUCKETS),
            retransmit_burst: HistogramSnapshot::empty(crate::hist::BUCKETS),
            batch_datagrams: 0,
            batch_frames: 0,
            batch_size: HistogramSnapshot::empty(crate::hist::BUCKETS),
        };
        let text = s.render();
        assert!(text.contains("net node 0"));
        assert!(text.contains("decode errors 5"));
        assert!(text.contains("epoch resyncs 1"));
        assert!(text.contains("peer 1"));
        assert!(text.contains("[suspect e3]"), "{text}");
        assert!(text.contains("srtt 120"), "{text}");
        assert!(text.contains("credit 32 (5 stalls, 2 shrinks)"), "{text}");
        assert!(
            text.contains("clock offset -2500ns ±400ns (6 samples)"),
            "{text}"
        );
        assert!(
            !text.contains("retransmit rounds"),
            "quiet histograms stay unlisted:\n{text}"
        );
        assert_eq!(s.total_recv_drops(), 4);

        let mut s = s;
        let mut busy = HistogramSnapshot::empty(crate::hist::BUCKETS);
        busy.buckets[3] = 2; // two rounds of 4..8 frames
        busy.sum = 9;
        s.retransmit_burst = busy.clone();
        s.rto = busy;
        assert!(s.render().contains("retransmit rounds 2"));
    }

    #[test]
    fn liveness_board_tracks_per_node_state() {
        let board = LivenessBoard::new(3);
        assert_eq!(board.get(FlipcNodeId(2)), PeerLiveness::Healthy);
        board.set(FlipcNodeId(2), PeerLiveness::Dead);
        board.set(FlipcNodeId(0), PeerLiveness::Suspect);
        assert_eq!(board.get(FlipcNodeId(2)), PeerLiveness::Dead);
        assert_eq!(board.get(FlipcNodeId(0)), PeerLiveness::Suspect);
        // Out-of-board ids read Healthy and writes to them are ignored.
        assert_eq!(board.get(FlipcNodeId(9)), PeerLiveness::Healthy);
        board.set(FlipcNodeId(9), PeerLiveness::Dead);
        assert_eq!(board.get(FlipcNodeId(9)), PeerLiveness::Healthy);
        // Round-trip of the numeric encoding.
        for s in [
            PeerLiveness::Healthy,
            PeerLiveness::Suspect,
            PeerLiveness::Dead,
        ] {
            assert_eq!(PeerLiveness::from_u8(s.as_u8()), s);
        }
    }

    #[test]
    fn render_mentions_active_endpoints_only() {
        let f = flipc();
        let _tx = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let s = CommBufferSnapshot::capture(f.commbuf());
        let text = s.render();
        assert!(text.contains("pool 64/64 free"));
        assert!(text.contains("ep0"));
        assert!(
            !text.contains("ep1 "),
            "inactive slots must not be listed:\n{text}"
        );
    }
}
