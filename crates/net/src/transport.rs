//! [`NetTransport`]: the engine's [`Transport`] over a datagram [`Link`].
//!
//! This is where the unreliable network is reconciled with the engine's
//! contract (reliable, per-path-ordered, non-blocking). The engine code is
//! untouched: it calls `try_send` / `try_recv` exactly as it does against
//! the loopback fabric, and everything below — sequencing, retransmission,
//! reordering, deduplication, acknowledgement — happens here, off the
//! happy path:
//!
//! * `try_send` is one ring push plus a copy into the peer's batch stage.
//!   The engine's end-of-pass [`Transport::flush`] (or the sender's next
//!   poll) puts each peer's stage on the wire as one datagram: a lone
//!   frame as its plain Data datagram, a run as one MTU-bounded Batch.
//!   No waiting for acks (optimistic: send first). A full retransmit
//!   window is reported as wire backpressure, which the engine already
//!   retries without losing the frame — so the reliability layer is
//!   *bounded memory* by construction and can never block the event loop.
//! * `try_recv` drains a bounded burst of datagrams, applies the
//!   reliability state machine, services retransmit timers and idle
//!   heartbeats, and hands the engine the next in-order frame. A caller
//!   that ends its passes with `flush`, as the engine does, has the link
//!   polled at most once per pass: once a poll has handed out a frame,
//!   the `try_recv` that finds nothing queued returns without another
//!   `recvfrom`.
//!
//! Acknowledgement is cumulative, one ack per peer, and stays off the
//! request/response path (wire v6, see [`crate::packet`]). An ack owed
//! for two or more frames, or to a Ping, leaves as a standalone Ack at
//! the end of the pump that received them. An ack owed for a single frame
//! waits up to one pass for reverse data: the `flush` that puts a frame
//! to that peer on the wire sends it as a kind-6 Batch carrying the ack
//! block, and if no frame leaves by the end of the next pass the ack goes
//! standalone. Either carrier is one AIMD round of the credit grantor. A
//! caller that never flushes gets every ack at the end of its pump.
//!
//! Layered on the reliability machinery is the *peer lifecycle* (see
//! `DESIGN.md` §3.4.2):
//!
//! * each path's retransmit timeout adapts to the measured RTT
//!   ([`crate::reliability::RttEstimator`]),
//! * a strike-budget failure detector walks each peer
//!   `Healthy → Suspect → Dead`; a dead peer costs **zero datagrams** (no
//!   retransmissions, no heartbeats) and its queued sends fail back to the
//!   application instead of silently black-holing,
//! * every path carries a session *epoch*; a peer arriving on a newer
//!   epoch (a crashed-and-restarted incarnation, or a sender that reset
//!   after declaring us dead) resynchronizes the path, and stale-epoch
//!   datagrams are rejected — delivery is in-order exactly-once *within*
//!   an epoch.
//!
//! Version 4 layers *flow control* on the same machinery (`DESIGN.md`
//! §14): every ack and pong carries the receiver's AIMD credit grant and
//! its cumulative receive-drop counter ([`crate::reliability::CreditGrantor`]),
//! the sender clamps its effective window to the grant
//! ([`SenderPath::on_credit`]), and a deficit-round-robin arbiter
//! ([`crate::reliability::DrrArbiter`]) shares the clamped window fairly
//! across local endpoints so one bulk producer cannot starve the rest.
//! A dead peer with demonstrated send demand is probed at a capped slow
//! rate (`NetConfig::dead_probe_interval`) so two nodes that declared
//! each other dead during a partition still reconverge after it heals.
//!
//! Every discard (duplicate, out-of-window, wire refusal, stale epoch,
//! lifecycle failure) is counted in the two-location per-peer counters
//! ([`crate::stats::NetStats`]) — mirrored from the same discipline the
//! endpoint drop counters use, and exposed through `flipc_core::inspect`.

use flipc_core::sync::atomic::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;

use flipc_core::endpoint::FlipcNodeId;
use flipc_core::inspect::PeerLiveness;
use flipc_engine::transport::Transport;
use flipc_engine::wire::Frame;

use crate::clock::{Clock, MonotonicClock};
use crate::link::Link;
use crate::packet::{self, AckBlock, BatchBuilder, Packet, BATCH_MTU, HEADER_LEN, MAX_DATAGRAM};
use crate::peers::NodeMap;
use crate::reliability::{
    epoch_newer, ClockSync, CreditGrantor, DrrArbiter, LivenessTracker, NetConfig, ReceiverPath,
    SenderPath,
};
use crate::stats::NetStats;
use crate::udp::UdpLink;

/// Max datagrams drained from the wire per transport poll.
const RECV_BURST: usize = 128;

/// Per-peer protocol state (sender + receiver half of one path pair).
struct PeerState {
    node: FlipcNodeId,
    sender: SenderPath,
    receiver: ReceiverPath,
    /// Data frames received from this peer since an ack last left for
    /// it (standalone or riding a batch), saturating: the policy only
    /// tells none, one, and two or more apart.
    acks_owed: u8,
    /// Set when a Ping asked for an ack: it leaves at the end of the pump.
    ack_now: bool,
    /// Set when an owed ack has outlived one end-of-pass flush: the next
    /// flush sends it standalone unless a batch to this peer carries it.
    ack_aged: bool,
    /// Our session epoch on this path: stamped into every outgoing
    /// datagram, bumped whenever we abandon the path (dead declaration or
    /// forced resync) so the peer's receiver restarts cleanly.
    epoch: u16,
    /// The peer's epoch as last seen (`None` until its first datagram).
    remote_epoch: Option<u16>,
    /// The failure detector for this peer.
    liveness: LivenessTracker,
    /// Staged first transmissions awaiting the next batch boundary.
    batch: BatchBuilder,
    /// NTP-style offset/dispersion estimate of the peer's trace clock,
    /// fed by the heartbeat ping/pong exchange ([`crate::packet`] v3).
    clock: ClockSync,
    /// Receiver-side AIMD credit grantor: decides the window we advertise
    /// back to this peer in every ack and pong ([`crate::packet`] v4).
    credit: CreditGrantor,
    /// Deficit-round-robin arbiter: when the (credit-clamped) send window
    /// is contested, local endpoints sharing this path take turns instead
    /// of the fastest producer starving the rest.
    fair: DrrArbiter,
    /// Set when a send was demanded of this peer after (or at) its dead
    /// declaration: arms the capped slow dead-probe loop so two peers
    /// that declared each other dead can still rediscover one another.
    dead_demand: bool,
    /// Next tick at which a dead-probe ping may fire.
    next_dead_probe: u64,
}

/// The UDP/datagram transport with its optimistic reliability layer.
pub struct NetTransport<L: Link, C: Clock = MonotonicClock> {
    local: FlipcNodeId,
    link: L,
    clock: C,
    cfg: NetConfig,
    peers: Vec<PeerState>,
    /// node id → index into `peers` (dense; node ids are u16).
    by_node: Vec<Option<u16>>,
    /// In-order frames awaiting the engine.
    ready: VecDeque<Frame>,
    /// Frames re-sent since the engine last called
    /// [`Transport::retransmits_since_poll`] (telemetry; the engine
    /// forwards it to its trace ring).
    rexmit_since_poll: u32,
    stats: Arc<NetStats>,
    /// Reusable datagram receive buffer.
    recv_buf: Box<[u8]>,
    /// Set by the first [`Transport::flush`]: the caller ends its passes
    /// the way the engine does, so an ack owed for one frame may wait a
    /// pass for reverse data to ride, and the link is polled at most once
    /// per pass. A caller that never flushes keeps an ack at the end of
    /// every pump and a poll on every empty `try_recv`.
    paced: bool,
    /// Set when this pass's poll handed out a frame: the next `try_recv`
    /// that finds `ready` empty returns `None` without polling the link
    /// again, until `flush` ends the pass.
    polled: bool,
}

impl<L: Link, C: Clock> NetTransport<L, C> {
    /// Builds a transport for `local` speaking to `peers` over `link`.
    pub fn new(
        local: FlipcNodeId,
        peers: &[FlipcNodeId],
        link: L,
        mut clock: C,
        cfg: NetConfig,
    ) -> NetTransport<L, C> {
        let now = clock.now();
        let peers: Vec<FlipcNodeId> = peers.iter().copied().filter(|&p| p != local).collect();
        let max_node = peers.iter().map(|p| p.0).max().unwrap_or(0) as usize;
        let mut by_node = vec![None; max_node + 1];
        for (i, p) in peers.iter().enumerate() {
            by_node[p.0 as usize] = Some(i as u16);
        }
        let stats = NetStats::new(local, &peers);
        for (i, _) in peers.iter().enumerate() {
            stats.peers[i]
                .epoch
                .store(u32::from(cfg.initial_epoch), Ordering::Relaxed);
            stats.peers[i]
                .rto_cur
                .store(cfg.rto.min(cfg.rto_max), Ordering::Relaxed);
            stats.peers[i]
                .credit_window
                .store(cfg.window, Ordering::Relaxed);
        }
        NetTransport {
            local,
            stats,
            peers: peers
                .iter()
                .map(|&node| PeerState {
                    node,
                    sender: SenderPath::new(cfg),
                    receiver: ReceiverPath::new(cfg),
                    acks_owed: 0,
                    ack_now: false,
                    ack_aged: false,
                    epoch: cfg.initial_epoch,
                    remote_epoch: None,
                    liveness: LivenessTracker::new(now),
                    batch: BatchBuilder::new(BATCH_MTU),
                    clock: ClockSync::new(),
                    credit: CreditGrantor::new(&cfg),
                    fair: DrrArbiter::new(&cfg),
                    dead_demand: false,
                    next_dead_probe: 0,
                })
                .collect(),
            by_node,
            link,
            clock,
            cfg,
            ready: VecDeque::new(),
            rexmit_since_poll: 0,
            recv_buf: vec![0u8; MAX_DATAGRAM].into_boxed_slice(),
            paced: false,
            polled: false,
        }
    }

    /// Shared counter handle for inspectors (capture with
    /// [`NetStats::snapshot`]). Clone before boxing the transport into an
    /// engine; `stats().liveness` is the board to hand to
    /// `Flipc::set_liveness`.
    pub fn stats(&self) -> Arc<NetStats> {
        self.stats.clone()
    }

    /// The underlying link (e.g. to read the bound UDP address before the
    /// transport is boxed into an engine).
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Mutable access to the underlying link, so a chaos harness can
    /// toggle fault injection mid-run.
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }

    fn peer_index(&self, node: FlipcNodeId) -> Option<usize> {
        self.by_node
            .get(node.0 as usize)
            .copied()
            .flatten()
            .map(usize::from)
    }

    /// Mirrors the sender path's volatile state into the plain-store
    /// gauges.
    fn publish_gauges(&self, i: usize) {
        let st = &self.stats.peers[i];
        let s = &self.peers[i].sender;
        st.in_flight.store(s.in_flight(), Ordering::Relaxed);
        st.srtt.store(s.srtt(), Ordering::Relaxed);
        st.rttvar.store(s.rttvar(), Ordering::Relaxed);
        st.rto_cur.store(s.rto(), Ordering::Relaxed);
        st.credit_window
            .store(s.effective_window(), Ordering::Relaxed);
        st.epoch
            .store(u32::from(self.peers[i].epoch), Ordering::Relaxed);
    }

    /// Mirrors the clock-sync estimate for peer `i` into the plain-store
    /// gauges. The signed offset is stored as its two's-complement bit
    /// pattern (`i64 as u64`); [`crate::stats::NetStats::snapshot`] casts
    /// it back.
    fn publish_clock(&self, i: usize) {
        let st = &self.stats.peers[i];
        let c = &self.peers[i].clock;
        st.clock_offset
            .store(c.offset_ns() as u64, Ordering::Relaxed);
        st.clock_dispersion
            .store(c.dispersion_ns(), Ordering::Relaxed);
        st.clock_samples.store(c.samples(), Ordering::Relaxed);
    }

    /// Abandons our send direction toward peer `i`: fails everything in
    /// the retransmit ring back to the drop accounting, restarts the
    /// sequence space, and bumps our epoch so the peer's receiver resyncs
    /// instead of seeing duplicates.
    fn reset_sender_path(&mut self, i: usize) {
        let failed = self.peers[i].sender.reset_epoch();
        for _ in 0..failed {
            self.stats.peers[i].failed.writer().increment();
        }
        // Staged coalesced frames belong to the abandoned epoch (they are
        // part of the ring just failed back); a flush after the bump would
        // stamp them with the new epoch and corrupt the fresh sequence
        // space.
        self.peers[i].batch.clear();
        self.peers[i].epoch = self.peers[i].epoch.wrapping_add(1);
        // Queued fairness demand died with the ring; the fresh epoch's
        // senders re-register on their next attempt.
        self.peers[i].fair.reset();
        // The estimate (and any outstanding probe) belonged to the
        // abandoned session; the next incarnation re-learns from scratch.
        self.peers[i].clock.reset();
        self.publish_gauges(i);
        self.publish_clock(i);
    }

    /// Transmits peer `i`'s staged first transmissions, if any. An ack
    /// owed to the peer rides them when its block fits the MTU: the
    /// staged frames leave as one kind-6 Batch, a lone frame included.
    /// Otherwise a lone frame leaves as the sealed Data datagram already
    /// in the retransmit ring (the same bytes, no second checksum), and
    /// two or more as one Batch. A wire refusal is charged per staged
    /// frame; the frames stay in the retransmit ring and the timers
    /// recover them like ordinary loss (a lost ack is re-armed by the
    /// next arrival, as for a standalone one).
    fn flush_peer(&mut self, i: usize) {
        let count = self.peers[i].batch.count();
        if count == 0 {
            return;
        }
        let ack = (self.peers[i].acks_owed > 0 && self.peers[i].batch.fits_ack())
            .then(|| self.take_ack(i));
        if count > 1 {
            self.stats.batch_datagrams.writer().increment();
            for _ in 0..count {
                self.stats.batch_frames.writer().increment();
            }
            self.stats.batch_size.recorder().record(u64::from(count));
        }
        let peer = &mut self.peers[i];
        let bytes = if count == 1 && ack.is_none() {
            peer.sender.datagram(peer.batch.first_seq())
        } else {
            peer.batch.finish(self.local, peer.epoch, ack)
        };
        let sent = bytes.is_some_and(|b| self.link.send(peer.node, b));
        peer.batch.clear();
        if !sent {
            for _ in 0..count {
                self.stats.peers[i].wire_dropped.writer().increment();
            }
        }
    }

    /// Flushes every peer's staged batch (no-op per peer when empty).
    fn flush_all(&mut self) {
        for i in 0..self.peers.len() {
            self.flush_peer(i);
        }
    }

    /// The ack owed to peer `i`, as it leaves: the cumulative ack for the
    /// peer's current epoch and one AIMD round of the credit grantor
    /// (halve on fresh receive-side drops, regrow additively on
    /// productive rounds), whichever datagram carries it. Clears the
    /// owed state.
    fn take_ack(&mut self, i: usize) -> AckBlock {
        let (credit, recv_drops, shrank) = self.peers[i].credit.advertise();
        if shrank {
            self.stats.peers[i].credit_shrinks.writer().increment();
        }
        let p = &mut self.peers[i];
        p.acks_owed = 0;
        p.ack_now = false;
        p.ack_aged = false;
        AckBlock {
            cumulative: p.receiver.cumulative(),
            acked_epoch: p.remote_epoch.unwrap_or_default(),
            credit,
            recv_drops,
        }
    }

    /// Sends the ack owed to peer `i` as a standalone Ack datagram. Ack
    /// loss is harmless: the next data arrival (or retransmission)
    /// re-arms it, and acks are cumulative.
    fn send_ack(&mut self, i: usize) {
        let a = self.take_ack(i);
        let p = &self.peers[i];
        let ack = packet::encode_ack(
            self.local,
            a.cumulative,
            p.epoch,
            a.acked_epoch,
            a.credit,
            a.recv_drops,
        );
        self.link.send(p.node, &ack);
    }

    /// Classifies one arrival's epoch against what we know of peer `i`.
    /// Returns `false` for a stale-epoch datagram (counted; the caller
    /// must ignore it). A *newer* epoch means the peer restarted or reset
    /// the path: our receive direction restarts, and if we have sent
    /// anything this session our send direction resets too (its state was
    /// meaningless to the new incarnation).
    fn admit_epoch(&mut self, i: usize, remote: u16) -> bool {
        match self.peers[i].remote_epoch {
            None => {
                self.peers[i].remote_epoch = Some(remote);
                true
            }
            Some(r) if r == remote => true,
            Some(r) if epoch_newer(remote, r) => {
                self.peers[i].receiver.reset();
                self.peers[i].remote_epoch = Some(remote);
                self.stats.epoch_resyncs.writer().increment();
                // A restarted incarnation may run on a different clock
                // (new process, new `now_ns` origin): forget the estimate
                // even when our send direction has nothing to reset.
                self.peers[i].clock.reset();
                self.publish_clock(i);
                if self.peers[i].sender.has_history() {
                    self.reset_sender_path(i);
                }
                true
            }
            Some(_) => {
                self.stats.peers[i].stale_epoch.writer().increment();
                false
            }
        }
    }

    /// Records that something valid arrived from peer `i` and publishes
    /// any liveness change (including re-admission of a dead peer).
    fn heard(&mut self, i: usize, now: u64) {
        let idle = self.peers[i].sender.in_flight() == 0;
        let before = self.peers[i].liveness.state();
        self.peers[i].liveness.on_heard(now, idle);
        let after = self.peers[i].liveness.state();
        if after != before {
            self.stats.liveness.set(self.peers[i].node, after);
            if before == PeerLiveness::Dead {
                // Re-admitted: the slow dead-probe loop has done its job.
                self.peers[i].dead_demand = false;
                self.peers[i].next_dead_probe = 0;
            }
        }
    }

    /// Applies a cumulative ack and credit advertisement from peer `i`,
    /// whether an Ack datagram or a kind-6 Batch carried it.
    fn on_ack_block(&mut self, i: usize, now: u64, a: &AckBlock) {
        // The credit advertisement is current receiver state on the peer,
        // valid regardless of which of our epochs the cumulative ack
        // names. A fresh advance of the peer's drop counter clamps the
        // grant once more (congestion signal beyond the explicit window).
        if self.peers[i].sender.on_credit(a.credit, a.recv_drops) {
            self.stats.peers[i].credit_shrinks.writer().increment();
        }
        if a.acked_epoch == self.peers[i].epoch {
            let freed = self.peers[i].sender.on_ack(now, a.cumulative);
            if freed > 0 {
                self.peers[i].liveness.on_progress(now);
                self.stats
                    .liveness
                    .set(self.peers[i].node, PeerLiveness::Healthy);
            }
        } else {
            // An ack for a previous incarnation of our send path: applying
            // it would corrupt the fresh sequence space.
            self.stats.peers[i].stale_epoch.writer().increment();
        }
        self.publish_gauges(i);
    }

    /// Walks data frames from peer `i`, sequenced from `first_seq`,
    /// through its reliability/dedup window, and queues what is now in
    /// order for the engine. Each frame adds to the ack owed.
    fn on_frames(&mut self, i: usize, first_seq: u32, frames: impl IntoIterator<Item = Frame>) {
        let peer = &mut self.peers[i];
        let st = &self.stats.peers[i];
        for (k, frame) in frames.into_iter().enumerate() {
            peer.acks_owed = peer.acks_owed.saturating_add(1);
            let out = peer
                .receiver
                .on_data(first_seq.wrapping_add(k as u32), frame);
            if out.duplicate {
                st.dup_dropped.writer().increment();
            }
            if out.out_of_window {
                st.out_of_window.writer().increment();
                peer.credit.on_drop();
            }
            if !out.delivered.is_empty() {
                peer.credit.on_delivered(out.delivered.len() as u32);
            }
            for f in out.delivered {
                st.delivered.writer().increment();
                self.ready.push_back(f);
            }
        }
    }

    /// Drains a bounded burst of datagrams from the link into the
    /// reliability layer, then emits the acks that cannot wait. Staged
    /// send batches are flushed first so a raw caller that only polls can
    /// never strand coalesced frames waiting for an explicit
    /// [`Transport::flush`].
    fn pump(&mut self, now: u64) {
        // Let the link's time-based machinery (the fault injector's
        // token-bucket shaper) refill and release before we drain it.
        self.link.on_tick(now);
        self.flush_all();
        for _ in 0..RECV_BURST {
            let Some(n) = self.link.recv(&mut self.recv_buf) else {
                break;
            };
            let Some(pkt) = packet::decode(&self.recv_buf[..n]) else {
                self.stats.decode_errors.writer().increment();
                continue;
            };
            let (src, epoch) = match &pkt {
                Packet::Data { src, epoch, .. }
                | Packet::Ack { src, epoch, .. }
                | Packet::Ping { src, epoch, .. }
                | Packet::Batch { src, epoch, .. }
                | Packet::Pong { src, epoch, .. } => (*src, *epoch),
            };
            // Clock-sync arrival stamp (t2 of a ping, t4 of a pong), taken
            // before any processing so work done in this pump does not
            // inflate the apparent one-way delay.
            let arrival = match pkt {
                Packet::Ping { .. } | Packet::Pong { .. } => self.clock.wall_ns(),
                _ => 0,
            };
            let Some(i) = self.peer_index(src) else {
                self.stats.unknown_peer.writer().increment();
                continue;
            };
            if !self.admit_epoch(i, epoch) {
                continue;
            }
            // A valid packet proves the peer's current address.
            self.link.associate(src);
            self.heard(i, now);
            match pkt {
                Packet::Data { seq, frame, .. } => {
                    self.on_frames(i, seq, std::iter::once(frame));
                }
                Packet::Ack {
                    cumulative,
                    acked_epoch,
                    credit,
                    recv_drops,
                    ..
                } => {
                    let a = AckBlock {
                        cumulative,
                        acked_epoch,
                        credit,
                        recv_drops,
                    };
                    self.on_ack_block(i, now, &a);
                }
                Packet::Ping { t1, .. } => {
                    // The cumulative ack still answers the liveness probe;
                    // the pong carries the clock-sync stamps back (t1
                    // echoed for Karn matching, plus our receive and
                    // transmit times).
                    self.peers[i].ack_now = true;
                    let t3 = self.clock.wall_ns();
                    // The pong carries our current grant read-only: AIMD
                    // rounds advance only on ack emission, so a ping storm
                    // cannot pump the regrow.
                    let p = &self.peers[i];
                    let pong = packet::encode_pong(
                        self.local,
                        p.epoch,
                        t1,
                        arrival,
                        t3,
                        p.credit.window(),
                        p.credit.drops(),
                    );
                    self.link.send(src, &pong);
                }
                Packet::Pong {
                    t1,
                    t2,
                    t3,
                    credit,
                    recv_drops,
                    ..
                } => {
                    // Heartbeat pongs refresh the credit view on otherwise
                    // idle paths, so a window shrunk during a busy spell
                    // regrows without waiting for new data traffic.
                    if self.peers[i].sender.on_credit(credit, recv_drops) {
                        self.stats.peers[i].credit_shrinks.writer().increment();
                    }
                    self.publish_gauges(i);
                    // Fold the four stamps into the offset estimator. Karn
                    // discipline lives inside: a pong whose echoed t1 does
                    // not match the one outstanding probe is dropped.
                    if self.peers[i].clock.on_pong(t1, t2, t3, arrival) {
                        self.publish_clock(i);
                    }
                }
                Packet::Batch {
                    first_seq,
                    ack,
                    frames,
                    ..
                } => {
                    // A riding ack applies exactly as an Ack datagram
                    // would, before the frames.
                    if let Some(a) = ack {
                        self.on_ack_block(i, now, &a);
                    }
                    // Fan the jumbo back out: sub-frame k carries
                    // first_seq + k, and each walks the same reliability/
                    // dedup window as a plain Data arrival — a lost batch
                    // is just a contiguous sequence gap to go-back-N.
                    self.on_frames(i, first_seq, frames);
                }
            }
        }
        // Acks that cannot wait leave now, one cumulative ack per peer:
        // every ack of a caller that never flushes, an ack a Ping asked
        // for, and one owed for two or more frames (acknowledge at least
        // every second segment, RFC 1122 §4.2.3.2). An ack owed for a
        // single frame waits for the pass's flush, where reverse data to
        // that peer can carry it.
        for i in 0..self.peers.len() {
            let p = &self.peers[i];
            if p.ack_now || p.acks_owed >= 2 || (p.acks_owed == 1 && !self.paced) {
                self.send_ack(i);
            }
        }
    }

    /// Services every live peer's retransmit timer (go-back-N on stall)
    /// and idle heartbeat, charging failure-detector strikes as rounds
    /// fire. Dead peers are skipped entirely: zero datagram cost.
    fn service_timers(&mut self, now: u64) {
        for i in 0..self.peers.len() {
            let before = self.peers[i].liveness.state();
            if before == PeerLiveness::Dead {
                // A dead peer normally costs zero datagrams — but if an
                // application actually demanded a send since the
                // declaration, we probe at a capped slow rate so two peers
                // that declared each other dead during a long partition
                // can still rediscover one another once it heals. No
                // strikes are charged: the peer is already as dead as the
                // detector can make it.
                if self.peers[i].dead_demand
                    && self.cfg.dead_probe_interval > 0
                    && now >= self.peers[i].next_dead_probe
                {
                    let t1 = self.clock.wall_ns();
                    self.peers[i].clock.probe_sent(t1);
                    let ping = packet::encode_ping(self.local, self.peers[i].epoch, t1);
                    let dst = self.peers[i].node;
                    self.link.send(dst, &ping);
                    self.stats.peers[i].pings.writer().increment();
                    self.peers[i].next_dead_probe =
                        now.saturating_add(self.cfg.dead_probe_interval);
                }
                continue;
            }
            let dst = self.peers[i].node;
            // The timeout that is about to fire (poll doubles the backoff).
            let rto_fired = self.peers[i].sender.rto();
            let ring = self.peers[i].sender.poll_retransmit(now);
            let burst = ring.len() as u32;
            if burst > 0 {
                // Go-back-N re-sends the whole ring; hand it to the link
                // as one burst. Refused tail frames stay in the ring and
                // the next round recovers them.
                let datagrams: Vec<&[u8]> = ring.iter().map(|f| f.bytes.as_slice()).collect();
                self.link.send_batch(dst, &datagrams);
                for _ in 0..burst {
                    self.stats.peers[i].retransmitted.writer().increment();
                }
                self.rexmit_since_poll = self.rexmit_since_poll.saturating_add(burst);
                self.stats.rto.recorder().record(rto_fired);
                self.stats
                    .retransmit_burst
                    .recorder()
                    .record(u64::from(burst));
                // A fired round means the path stalled a full timeout
                // without ack progress: one strike against the peer.
                self.peers[i].liveness.on_strike(&self.cfg);
            } else if self.peers[i].sender.in_flight() == 0
                && self.peers[i].liveness.heartbeat_due(now, &self.cfg)
            {
                // Each heartbeat doubles as a clock-sync probe: stamp the
                // trace-clock send time into the ping and remember it so
                // only the matching pong is accepted (Karn-style — a
                // re-probe invalidates the previous outstanding sample).
                let t1 = self.clock.wall_ns();
                self.peers[i].clock.probe_sent(t1);
                let ping = packet::encode_ping(self.local, self.peers[i].epoch, t1);
                self.link.send(dst, &ping);
                self.stats.peers[i].pings.writer().increment();
            }
            let after = self.peers[i].liveness.state();
            if after != before {
                self.stats.liveness.set(dst, after);
                if after == PeerLiveness::Dead {
                    // Budget exhausted: stop spending datagrams, fail the
                    // in-flight frames back to the accounting, and start a
                    // new epoch for whenever the peer returns. Frames dying
                    // in the ring are unacknowledged demand: arm the slow
                    // dead-probe loop so a mutually-dead pair can heal.
                    let had_inflight = self.peers[i].sender.in_flight() > 0;
                    self.reset_sender_path(i);
                    self.peers[i].dead_demand = had_inflight;
                    self.peers[i].next_dead_probe =
                        now.saturating_add(self.cfg.dead_probe_interval);
                }
            }
            if burst > 0 {
                self.publish_gauges(i);
            }
        }
    }
}

impl<L: Link, C: Clock> Transport for NetTransport<L, C> {
    fn try_send(&mut self, dst: FlipcNodeId, frame: &Frame) -> bool {
        let Some(i) = self.peer_index(dst) else {
            // Same semantics as the loopback fabric: an out-of-table node
            // id is accepted-and-black-holed (a powered-off node slot).
            self.stats.unknown_peer.writer().increment();
            return true;
        };
        if self.peers[i].liveness.state() == PeerLiveness::Dead {
            // The engine checks `peer_down` first and fails the frame to
            // the endpoint's drop counter; this path covers raw callers.
            // Consuming the frame (return true) keeps the contract
            // non-blocking — backpressure would wedge the sender forever.
            // Either way the application demonstrably still wants this
            // peer: arm the slow dead-probe loop.
            self.peers[i].dead_demand = true;
            self.stats.peers[i].failed.writer().increment();
            return true;
        }
        let now = self.clock.now();
        // Fairness gate: when the (credit-clamped) window is contested,
        // local endpoints sharing this path take turns by deficit round
        // robin instead of the fastest producer starving the rest. An
        // uncontended sender passes untouched.
        let free = self.peers[i]
            .sender
            .effective_window()
            .saturating_sub(self.peers[i].sender.in_flight());
        let ep = frame.src.index().0;
        if !self.peers[i].fair.request(ep, now, free) {
            if free > 0 || self.peers[i].sender.credit_limited() {
                // Refused by fairness or by the peer's credit grant, not
                // by the classic configured window.
                self.stats.peers[i].credit_stalls.writer().increment();
            }
            return false;
        }
        let local = self.local;
        let epoch = self.peers[i].epoch;
        // Decide the flush *before* admitting so the staged run stays
        // sequence-contiguous: a frame that will not fit (or can never fit
        // under the MTU bound) forces the pending stage out first, then is
        // staged into the empty builder (or bypasses it as plain Data).
        let batchable = self.peers[i].batch.can_ever_hold(frame.wire_len());
        if !self.peers[i].batch.fits(frame.wire_len()) {
            self.flush_peer(i);
        }
        let peer = &mut self.peers[i];
        let Some(bytes) = peer
            .sender
            .admit(now, |seq| packet::encode_data(local, seq, epoch, frame))
        else {
            // Window full (or frame larger than a datagram, which a fixed
            // FLIPC geometry makes impossible at runtime): backpressure.
            return false;
        };
        let st = &self.stats.peers[i];
        st.sent.writer().increment();
        // The admitted datagram's body (after the header) is exactly the
        // `Frame::encode` bytes; its assigned sequence sits at header
        // offset 8. Stage it; the batch boundary (MTU, the engine's
        // end-of-pass flush, or the next pump) transmits. The pre-flush
        // above guarantees the builder accepts a batchable frame.
        let staged = batchable && {
            let seq = u32::from_le_bytes(bytes[8..12].try_into().unwrap_or_default());
            peer.batch.push(seq, &bytes[HEADER_LEN..])
        };
        if !staged && !self.link.send(dst, bytes) {
            // The wire refused; the frame stays in the retransmit ring and
            // the timer recovers it. Optimistic: the engine moves on.
            st.wire_dropped.writer().increment();
        }
        st.in_flight
            .store(self.peers[i].sender.in_flight(), Ordering::Relaxed);
        true
    }

    /// Ends the pass: stages leave (carrying any owed ack that fits),
    /// and an ack that already waited one pass without a frame to carry
    /// it leaves standalone.
    fn flush(&mut self) {
        self.paced = true;
        self.polled = false;
        for i in 0..self.peers.len() {
            self.flush_peer(i);
            if self.peers[i].acks_owed > 0 {
                if self.peers[i].ack_aged {
                    self.send_ack(i);
                } else {
                    self.peers[i].ack_aged = true;
                }
            }
        }
    }

    fn try_recv(&mut self) -> Option<Frame> {
        if let Some(f) = self.ready.pop_front() {
            return Some(f);
        }
        if self.polled {
            return None;
        }
        let now = self.clock.now();
        self.pump(now);
        self.service_timers(now);
        let f = self.ready.pop_front();
        self.polled = self.paced && f.is_some();
        f
    }

    fn local_node(&self) -> FlipcNodeId {
        self.local
    }

    fn retransmits_since_poll(&mut self) -> u32 {
        std::mem::take(&mut self.rexmit_since_poll)
    }

    fn snapshot(&self) -> Option<flipc_core::inspect::TransportSnapshot> {
        Some(self.stats.snapshot())
    }

    fn peer_down(&self, dst: FlipcNodeId) -> bool {
        self.peer_index(dst)
            .map(|i| self.peers[i].liveness.state() == PeerLiveness::Dead)
            .unwrap_or(false)
    }
}

/// Builds the production configuration: a [`NetTransport`] over a bound
/// non-blocking UDP socket with real-time retransmit timers, addressing
/// every other node in `map` as a peer.
pub fn udp_transport(
    map: &NodeMap,
    local: FlipcNodeId,
    cfg: NetConfig,
) -> std::io::Result<NetTransport<UdpLink, MonotonicClock>> {
    let link = UdpLink::bind(map, local)?;
    let peers: Vec<FlipcNodeId> = map.nodes().filter(|&n| n != local).collect();
    Ok(NetTransport::new(
        local,
        &peers,
        link,
        MonotonicClock::new(),
        cfg,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::link::MemHub;
    use flipc_core::endpoint::{EndpointAddress, EndpointIndex};

    fn frame(tag: u8) -> Frame {
        Frame {
            src: EndpointAddress::new(FlipcNodeId(0), EndpointIndex(0), 1),
            dst: EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1),
            payload: vec![tag; 16].into(),
            stamp_ns: 0,
        }
    }

    fn mem_pair(
        cfg: NetConfig,
    ) -> (
        NetTransport<crate::link::MemLink, ManualClock>,
        NetTransport<crate::link::MemLink, ManualClock>,
        ManualClock,
    ) {
        let hub = MemHub::new(2, 4096);
        let clock = ManualClock::new();
        let a = NetTransport::new(
            FlipcNodeId(0),
            &[FlipcNodeId(1)],
            hub.link(FlipcNodeId(0)),
            clock.clone(),
            cfg,
        );
        let b = NetTransport::new(
            FlipcNodeId(1),
            &[FlipcNodeId(0)],
            hub.link(FlipcNodeId(1)),
            clock.clone(),
            cfg,
        );
        (a, b, clock)
    }

    #[test]
    fn frames_flow_in_order_over_a_clean_link() {
        let (mut a, mut b, _clock) = mem_pair(NetConfig::default());
        for i in 0..20u8 {
            assert!(a.try_send(FlipcNodeId(1), &frame(i)));
        }
        a.flush();
        for i in 0..20u8 {
            let f = loop {
                if let Some(f) = b.try_recv() {
                    break f;
                }
            };
            assert_eq!(f.payload[0], i);
        }
        // b's acks drain a's retransmit ring.
        while a.try_recv().is_some() {}
        let s = a.stats().snapshot();
        assert_eq!(s.paths[0].sent, 20);
        assert_eq!(s.paths[0].retransmitted, 0);
        assert_eq!(s.paths[0].in_flight, 0);
        assert_eq!(s.paths[0].liveness, PeerLiveness::Healthy);
        let sb = b.stats().snapshot();
        assert_eq!(sb.paths[0].delivered, 20);
    }

    #[test]
    fn full_window_backpressures_then_recovers() {
        let cfg = NetConfig {
            window: 4,
            ..NetConfig::default()
        };
        let (mut a, mut b, _clock) = mem_pair(cfg);
        for i in 0..4u8 {
            assert!(a.try_send(FlipcNodeId(1), &frame(i)));
        }
        assert!(!a.try_send(FlipcNodeId(1), &frame(9)), "window full");
        a.flush();
        // Receiver drains and acks; sender frees the window.
        for _ in 0..4 {
            assert!(b.try_recv().is_some());
        }
        assert!(a.try_recv().is_none());
        assert!(a.try_send(FlipcNodeId(1), &frame(9)), "window freed by ack");
    }

    #[test]
    fn black_holed_peer_retransmits_with_backoff_and_stays_bounded() {
        let cfg = NetConfig {
            window: 4,
            rto: 100,
            rto_max: 400,
            // Keep the pre-lifecycle behaviour for this test: never give
            // up, so the bounded-retrickle property stays covered.
            dead_strikes: u32::MAX,
            heartbeat_interval: 0,
            ..NetConfig::default()
        };
        let hub = MemHub::new(2, 4096);
        let clock = ManualClock::new();
        // Peer 1 exists in the hub but never runs: pure black hole.
        let mut a = NetTransport::new(
            FlipcNodeId(0),
            &[FlipcNodeId(1)],
            hub.link(FlipcNodeId(0)),
            clock.clone(),
            cfg,
        );
        for i in 0..4u8 {
            assert!(a.try_send(FlipcNodeId(1), &frame(i)));
        }
        // A long silent stretch: retransmit rounds happen at 100, then
        // 200, 400, 400, ... ticks — the backoff caps, the ring does not
        // grow.
        for _ in 0..40 {
            clock.advance(100);
            assert!(a.try_recv().is_none());
        }
        let s = a.stats().snapshot();
        assert_eq!(s.paths[0].in_flight, 4, "ring bounded at the window");
        // Over 4000 silent ticks the backoff schedule fires at t = 100,
        // 300, 700, then every 400 ticks (the cap): 11 go-back-N rounds of
        // 4 frames — bounded, decaying, never zero.
        assert!(
            s.paths[0].retransmitted >= 4,
            "at least one go-back-N burst"
        );
        assert!(
            s.paths[0].retransmitted <= 4 * 12,
            "backoff caps the retransmit rate, got {}",
            s.paths[0].retransmitted
        );
        assert!(
            !a.try_send(FlipcNodeId(1), &frame(9)),
            "still backpressured"
        );
        // The budget has been partially consumed: suspect by now, but with
        // dead declaration disabled it never goes further.
        assert_eq!(s.paths[0].liveness, PeerLiveness::Suspect);
        // Every go-back-N round recorded one rto and one burst sample, and
        // each round re-sent the whole 4-frame window.
        assert!(s.rto.count() > 0, "rto histogram populated");
        assert_eq!(s.rto.count(), s.retransmit_burst.count());
        assert_eq!(
            s.retransmit_burst.sum,
            u64::from(s.paths[0].retransmitted),
            "burst sizes sum to the retransmit counter"
        );
        // The first round fired at the base timeout; backoff then caps.
        assert!(s.rto.quantile(1.0).unwrap_or(0.0) <= 400.0 * 2.0);
        // The engine-facing poll reports and resets the tally.
        assert_eq!(a.retransmits_since_poll(), s.paths[0].retransmitted);
        assert_eq!(a.retransmits_since_poll(), 0, "poll resets the tally");
    }

    #[test]
    fn dead_peer_is_declared_fails_sends_and_costs_nothing() {
        let cfg = NetConfig {
            window: 4,
            rto: 100,
            rto_max: 400,
            suspect_strikes: 2,
            dead_strikes: 4,
            heartbeat_interval: 0,
            ..NetConfig::default()
        };
        let hub = MemHub::new(2, 4096);
        let clock = ManualClock::new();
        let mut a = NetTransport::new(
            FlipcNodeId(0),
            &[FlipcNodeId(1)],
            hub.link(FlipcNodeId(0)),
            clock.clone(),
            cfg,
        );
        for i in 0..4u8 {
            assert!(a.try_send(FlipcNodeId(1), &frame(i)));
        }
        // Rounds fire at t = 100, 300, 700, 1100 — the 4th strike declares
        // the peer dead.
        for _ in 0..12 {
            clock.advance(100);
            assert!(a.try_recv().is_none());
        }
        let s = a.stats().snapshot();
        assert_eq!(s.paths[0].liveness, PeerLiveness::Dead);
        assert_eq!(s.paths[0].failed, 4, "in-flight frames failed back");
        assert_eq!(s.paths[0].in_flight, 0, "ring emptied");
        assert_eq!(
            s.paths[0].epoch,
            cfg.initial_epoch + 1,
            "epoch bumped for the peer's eventual return"
        );
        assert!(a.peer_down(FlipcNodeId(1)));
        assert!(!a.peer_down(FlipcNodeId(9)), "unknown peers are not down");
        let board = a.stats().liveness.clone();
        assert_eq!(board.get(FlipcNodeId(1)), PeerLiveness::Dead);

        // Post-declaration datagram cost is zero: no retransmissions, no
        // pings, however long the clock runs.
        let rexmit_at_death = s.paths[0].retransmitted;
        for _ in 0..50 {
            clock.advance(1_000);
            assert!(a.try_recv().is_none());
        }
        let s = a.stats().snapshot();
        assert_eq!(s.paths[0].retransmitted, rexmit_at_death);
        assert_eq!(s.paths[0].pings, 0);
        // Raw sends are consumed-and-failed (the engine's peer_down check
        // normally intercepts first) — never backpressured forever.
        assert!(a.try_send(FlipcNodeId(1), &frame(9)));
        assert_eq!(a.stats().snapshot().paths[0].failed, 5);
    }

    #[test]
    fn dead_peer_is_readmitted_when_it_returns() {
        let cfg = NetConfig {
            window: 4,
            rto: 100,
            rto_max: 400,
            suspect_strikes: 2,
            dead_strikes: 3,
            heartbeat_interval: 0,
            ..NetConfig::default()
        };
        let hub = MemHub::new(2, 4096);
        let clock = ManualClock::new();
        let mut a = NetTransport::new(
            FlipcNodeId(0),
            &[FlipcNodeId(1)],
            hub.link(FlipcNodeId(0)),
            clock.clone(),
            cfg,
        );
        a.try_send(FlipcNodeId(1), &frame(0));
        for _ in 0..10 {
            clock.advance(100);
            a.try_recv();
        }
        assert!(a.peer_down(FlipcNodeId(1)));
        // The peer (re)starts now — a fresh transport on the same node id,
        // at a higher epoch as a restart supervisor would assign.
        let mut b = NetTransport::new(
            FlipcNodeId(1),
            &[FlipcNodeId(0)],
            hub.link(FlipcNodeId(1)),
            clock.clone(),
            NetConfig {
                initial_epoch: cfg.initial_epoch + 1,
                ..cfg
            },
        );
        assert!(b.try_send(FlipcNodeId(0), &frame(7)));
        b.flush();
        let f = loop {
            if let Some(f) = a.try_recv() {
                break f;
            }
        };
        assert_eq!(f.payload[0], 7, "traffic from the returned peer flows");
        assert!(!a.peer_down(FlipcNodeId(1)), "peer re-admitted");
        assert_eq!(
            a.stats().liveness.get(FlipcNodeId(1)),
            PeerLiveness::Healthy
        );
        // And the path works forward again: a sends on its bumped epoch,
        // b's fresh receiver resyncs and accepts from sequence 1. Copies of
        // the failed frame that were already on the wire before the dead
        // declaration may still arrive first — a failed send means
        // "delivery unknown", not "never delivered" — so drain to the new
        // frame.
        assert!(a.try_send(FlipcNodeId(1), &frame(8)));
        a.flush();
        loop {
            if let Some(f) = b.try_recv() {
                if f.payload[0] == 8 {
                    break;
                }
                assert_eq!(f.payload[0], 0, "only the abandoned frame may leak");
            }
        }
    }

    #[test]
    fn restarted_peer_resyncs_the_epoch_without_cross_epoch_duplicates() {
        let cfg = NetConfig {
            window: 8,
            rto: 100,
            rto_max: 400,
            dead_strikes: u32::MAX,
            heartbeat_interval: 0,
            ..NetConfig::default()
        };
        let hub = MemHub::new(2, 4096);
        let clock = ManualClock::new();
        let mut a = NetTransport::new(
            FlipcNodeId(0),
            &[FlipcNodeId(1)],
            hub.link(FlipcNodeId(0)),
            clock.clone(),
            cfg,
        );
        let mut b = NetTransport::new(
            FlipcNodeId(1),
            &[FlipcNodeId(0)],
            hub.link(FlipcNodeId(1)),
            clock.clone(),
            cfg,
        );
        // Establish traffic b -> a in epoch 1.
        for i in 0..3u8 {
            assert!(b.try_send(FlipcNodeId(0), &frame(i)));
        }
        b.flush();
        for _ in 0..3 {
            assert!(a.try_recv().is_some());
        }
        while b.try_recv().is_some() {}
        // b crashes and restarts with a fresh transport at a newer epoch.
        drop(b);
        let mut b2 = NetTransport::new(
            FlipcNodeId(1),
            &[FlipcNodeId(0)],
            hub.link(FlipcNodeId(1)),
            clock.clone(),
            NetConfig {
                initial_epoch: cfg.initial_epoch + 1,
                ..cfg
            },
        );
        // The new incarnation's stream restarts at sequence 1. Without the
        // epoch these would be swallowed as duplicates of epoch 1's
        // sequences 1..3.
        for i in 10..14u8 {
            assert!(b2.try_send(FlipcNodeId(0), &frame(i)));
        }
        b2.flush();
        let mut got = Vec::new();
        while got.len() < 4 {
            if let Some(f) = a.try_recv() {
                got.push(f.payload[0]);
            }
        }
        assert_eq!(got, vec![10, 11, 12, 13], "new-epoch stream in order");
        let s = a.stats().snapshot();
        assert_eq!(s.epoch_resyncs, 1, "exactly one resync");
        assert_eq!(s.paths[0].dup_dropped, 0, "no cross-epoch duplicates");
        assert_eq!(s.paths[0].delivered, 7);
    }

    #[test]
    fn stale_epoch_datagrams_are_rejected_not_delivered() {
        let cfg = NetConfig {
            heartbeat_interval: 0,
            ..NetConfig::default()
        };
        let hub = MemHub::new(2, 4096);
        let clock = ManualClock::new();
        let mut a = NetTransport::new(
            FlipcNodeId(0),
            &[FlipcNodeId(1)],
            hub.link(FlipcNodeId(0)),
            clock.clone(),
            NetConfig {
                initial_epoch: 5,
                ..cfg
            },
        );
        let mut wire = hub.link(FlipcNodeId(1));
        // Epoch 5 establishes the path; epoch 3 is a stale straggler.
        let fresh = packet::encode_data(FlipcNodeId(1), 1, 5, &frame(1)).unwrap();
        let stale = packet::encode_data(FlipcNodeId(1), 2, 3, &frame(2)).unwrap();
        wire.send(FlipcNodeId(0), &fresh);
        wire.send(FlipcNodeId(0), &stale);
        assert_eq!(a.try_recv().unwrap().payload[0], 1);
        assert!(a.try_recv().is_none(), "stale frame never delivered");
        let s = a.stats().snapshot();
        assert_eq!(s.paths[0].stale_epoch, 1);
        assert_eq!(s.paths[0].delivered, 1);
    }

    #[test]
    fn idle_paths_heartbeat_and_unanswered_pings_kill_the_peer() {
        let cfg = NetConfig {
            rto: 100,
            rto_max: 400,
            suspect_strikes: 1,
            dead_strikes: 3,
            heartbeat_interval: 1_000,
            ..NetConfig::default()
        };
        let (mut a, mut b, clock) = mem_pair(cfg);
        // Nothing in flight; silence accumulates. While b polls too, each
        // ping is answered and both stay healthy.
        for _ in 0..10 {
            clock.advance(500);
            assert!(a.try_recv().is_none());
            assert!(b.try_recv().is_none());
        }
        let s = a.stats().snapshot();
        assert!(s.paths[0].pings > 0, "idle path heartbeats");
        assert_eq!(s.paths[0].liveness, PeerLiveness::Healthy);
        // Each answered heartbeat also fed the clock-sync estimator. Both
        // ends share one ManualClock, so the only skew the estimator can
        // see is the polling delay between ping and pong (bounded by one
        // 500-tick poll interval).
        assert!(s.paths[0].clock_samples > 0, "pongs fed the estimator");
        assert!(
            s.paths[0].clock_offset_ns.unsigned_abs() <= 500,
            "same-clock offset bounded by the poll interval, got {}",
            s.paths[0].clock_offset_ns
        );
        // Now b stops participating entirely: a's pings go unanswered and
        // the strike budget runs out.
        for _ in 0..20 {
            clock.advance(500);
            assert!(a.try_recv().is_none());
        }
        let s = a.stats().snapshot();
        assert_eq!(s.paths[0].liveness, PeerLiveness::Dead);
        // Dead: ping flow stops (zero datagram cost).
        let pings_at_death = s.paths[0].pings;
        for _ in 0..20 {
            clock.advance(500);
            assert!(a.try_recv().is_none());
        }
        let s = a.stats().snapshot();
        assert_eq!(s.paths[0].pings, pings_at_death);
        // The dead declaration reset the path epoch, and the clock-sync
        // estimate (meaningless to the next incarnation) went with it.
        assert_eq!(s.paths[0].clock_samples, 0, "estimate reset with epoch");
        assert_eq!(s.paths[0].clock_offset_ns, 0);
        assert_eq!(s.paths[0].clock_dispersion_ns, 0);
    }

    #[test]
    fn rto_tracks_the_path_rtt() {
        // One round-trip per 40-tick cycle: send, advance, receive+ack,
        // advance, collect. The estimator should settle near the cycle
        // RTT instead of the configured 5000-tick initial timeout.
        let cfg = NetConfig {
            rto_min: 10,
            ..NetConfig::default()
        };
        let (mut a, mut b, clock) = mem_pair(cfg);
        for i in 0..32u8 {
            assert!(a.try_send(FlipcNodeId(1), &frame(i)));
            a.flush();
            clock.advance(20);
            assert!(b.try_recv().is_some());
            clock.advance(20);
            while a.try_recv().is_some() {}
        }
        let s = a.stats().snapshot();
        assert!(s.paths[0].srtt > 0, "samples observed");
        assert!(
            s.paths[0].srtt <= 80,
            "srtt near the 40-tick RTT, got {}",
            s.paths[0].srtt
        );
        assert!(
            s.paths[0].rto < cfg.rto,
            "armed timeout adapted below the initial schedule: {} < {}",
            s.paths[0].rto,
            cfg.rto
        );
        assert_eq!(s.paths[0].retransmitted, 0, "no spurious retransmits");
    }

    #[test]
    fn coalesced_frames_flow_in_order_and_count_batches() {
        let (mut a, mut b, _clock) = mem_pair(NetConfig::default());
        // A drain pass: many sends, one explicit batch-boundary flush
        // (exactly what the engine does at the end of pump_outgoing).
        for i in 0..20u8 {
            assert!(a.try_send(FlipcNodeId(1), &frame(i)));
        }
        a.flush();
        for i in 0..20u8 {
            let f = loop {
                if let Some(f) = b.try_recv() {
                    break f;
                }
            };
            assert_eq!(f.payload[0], i, "coalescing preserves order");
        }
        while a.try_recv().is_some() {}
        let s = a.stats().snapshot();
        assert_eq!(s.paths[0].sent, 20);
        assert_eq!(s.batch_frames, 20, "every frame rode a batch");
        assert!(
            s.batch_datagrams >= 1 && s.batch_datagrams < 20,
            "frames were actually coalesced, got {} datagrams",
            s.batch_datagrams
        );
        assert_eq!(s.batch_size.sum, 20);
        assert_eq!(s.paths[0].retransmitted, 0);
        assert_eq!(s.paths[0].in_flight, 0, "acks drained the ring");
        let sb = b.stats().snapshot();
        assert_eq!(sb.paths[0].delivered, 20);
        assert_eq!(sb.paths[0].dup_dropped, 0);
    }

    #[test]
    fn pump_flushes_staged_batches_for_raw_pollers() {
        let (mut a, mut b, _clock) = mem_pair(NetConfig::default());
        assert!(a.try_send(FlipcNodeId(1), &frame(7)));
        assert!(a.try_send(FlipcNodeId(1), &frame(8)));
        // No explicit flush: a's own next poll must push the staged batch
        // out, or a caller that only polls would strand it forever.
        assert!(a.try_recv().is_none());
        for tag in [7, 8] {
            let f = loop {
                if let Some(f) = b.try_recv() {
                    break f;
                }
            };
            assert_eq!(f.payload[0], tag);
        }
        assert_eq!(a.stats().snapshot().batch_datagrams, 1);
    }

    #[test]
    fn oversized_frames_bypass_the_coalescer_as_plain_data() {
        // A payload past the batch MTU can never be staged, so each frame
        // must go out plain, and in order.
        let big = |tag: u8| Frame {
            payload: vec![tag; BATCH_MTU + 100].into(),
            ..frame(tag)
        };
        let (mut a, mut b, _clock) = mem_pair(NetConfig::default());
        for i in 0..4u8 {
            assert!(a.try_send(FlipcNodeId(1), &big(i)));
        }
        a.flush();
        for i in 0..4u8 {
            let f = loop {
                if let Some(f) = b.try_recv() {
                    break f;
                }
            };
            assert_eq!(f.payload[..], big(i).payload[..]);
        }
        let s = a.stats().snapshot();
        assert_eq!(s.batch_datagrams, 0, "nothing fit the batch");
        assert_eq!(s.paths[0].sent, 4);
    }

    #[test]
    fn faults_hit_coalesced_batches_at_datagram_granularity() {
        // Satellite check: a jumbo is one datagram on the wire, so the
        // fault injector loses ALL its sub-frames together (one `dropped`
        // tick, not one per frame), and go-back-N recovers the whole gap.
        use crate::fault::{FaultConfig, FaultInjector};
        let cfg = NetConfig {
            window: 16,
            rto: 100,
            rto_max: 400,
            dead_strikes: u32::MAX,
            heartbeat_interval: 0,
            ..NetConfig::default()
        };
        let hub = MemHub::new(2, 4096);
        let clock = ManualClock::new();
        let mut a = NetTransport::new(
            FlipcNodeId(0),
            &[FlipcNodeId(1)],
            FaultInjector::new(hub.link(FlipcNodeId(0)), FaultConfig::default(), 21),
            clock.clone(),
            cfg,
        );
        let mut b = NetTransport::new(
            FlipcNodeId(1),
            &[FlipcNodeId(0)],
            hub.link(FlipcNodeId(1)),
            clock.clone(),
            cfg,
        );
        // Stage 4 frames into one batch, then lose exactly that datagram.
        a.link_mut().set_config(FaultConfig::lossy(1.0));
        for i in 0..4u8 {
            assert!(a.try_send(FlipcNodeId(1), &frame(i)));
        }
        a.flush();
        assert_eq!(
            a.link_mut().fault_counts().dropped,
            1,
            "the jumbo is ONE datagram to the injector: all 4 sub-frames lost together"
        );
        assert!(b.try_recv().is_none(), "nothing crossed");
        // Heal the wire; the retransmit timer recovers all 4 in order
        // (as plain per-frame Data — retransmissions never re-coalesce).
        a.link_mut().set_config(FaultConfig::default());
        clock.advance(150);
        assert!(a.try_recv().is_none());
        for i in 0..4u8 {
            let f = loop {
                if let Some(f) = b.try_recv() {
                    break f;
                }
            };
            assert_eq!(
                f.payload[0], i,
                "go-back-N recovered the whole gap in order"
            );
        }
        let s = a.stats().snapshot();
        assert_eq!(s.batch_datagrams, 1);
        assert_eq!(s.batch_frames, 4);
        assert_eq!(s.paths[0].retransmitted, 4);
    }

    #[test]
    fn epoch_reset_discards_staged_batch_frames() {
        // An epoch reset mid-stage (dead declaration, forced resync) must
        // not leak old-epoch sub-frames into the new sequence space: a
        // flush after the bump would stamp them with the new epoch.
        let cfg = NetConfig::default();
        let hub = MemHub::new(2, 4096);
        let clock = ManualClock::new();
        let mut a = NetTransport::new(
            FlipcNodeId(0),
            &[FlipcNodeId(1)],
            hub.link(FlipcNodeId(0)),
            clock.clone(),
            cfg,
        );
        for i in 0..2u8 {
            assert!(
                a.try_send(FlipcNodeId(1), &frame(i)),
                "stages into the batch"
            );
        }
        a.reset_sender_path(0);
        a.flush();
        let s = a.stats().snapshot();
        assert_eq!(
            s.batch_datagrams, 0,
            "the abandoned stage was cleared, not transmitted"
        );
        assert_eq!(
            hub.link(FlipcNodeId(1)).recv(&mut [0u8; MAX_DATAGRAM]),
            None,
            "nothing reached the wire"
        );
        assert_eq!(
            s.paths[0].failed, 2,
            "staged frames failed back with the ring"
        );
        assert_eq!(s.paths[0].epoch, cfg.initial_epoch + 1);
    }

    #[test]
    fn a_lone_frame_goes_out_as_its_data_datagram() {
        let cfg = NetConfig::default();
        let hub = MemHub::new(2, 4096);
        let mut a = NetTransport::new(
            FlipcNodeId(0),
            &[FlipcNodeId(1)],
            hub.link(FlipcNodeId(0)),
            ManualClock::new(),
            cfg,
        );
        let mut wire = hub.link(FlipcNodeId(1));
        let mut buf = [0u8; MAX_DATAGRAM];
        // One frame in a pass: the flush sends the sealed Data datagram
        // already in the retransmit ring, byte for byte.
        assert!(a.try_send(FlipcNodeId(1), &frame(1)));
        a.flush();
        let n = wire.recv(&mut buf).expect("one datagram");
        let data = packet::encode_data(FlipcNodeId(0), 1, cfg.initial_epoch, &frame(1));
        assert_eq!(Some(&buf[..n]), data.as_deref());
        assert_eq!(wire.recv(&mut buf), None);
        assert_eq!(a.stats().snapshot().batch_datagrams, 0);
        // Two frames in a pass: one Batch datagram carrying both.
        assert!(a.try_send(FlipcNodeId(1), &frame(2)));
        assert!(a.try_send(FlipcNodeId(1), &frame(3)));
        a.flush();
        let n = wire.recv(&mut buf).expect("one datagram");
        assert_eq!(
            packet::decode(&buf[..n]),
            Some(Packet::Batch {
                src: FlipcNodeId(0),
                first_seq: 2,
                epoch: cfg.initial_epoch,
                ack: None,
                frames: vec![frame(2), frame(3)],
            })
        );
        assert_eq!(wire.recv(&mut buf), None);
        let s = a.stats().snapshot();
        assert_eq!((s.batch_datagrams, s.batch_frames), (1, 2));
    }

    #[test]
    fn unknown_destination_is_black_holed_and_counted() {
        let (mut a, _b, _clock) = mem_pair(NetConfig::default());
        assert!(a.try_send(FlipcNodeId(9), &frame(0)));
        assert_eq!(a.stats().snapshot().unknown_peer, 1);
    }

    #[test]
    fn garbage_datagrams_are_counted_not_fatal() {
        let hub = MemHub::new(2, 64);
        let clock = ManualClock::new();
        let mut a = NetTransport::new(
            FlipcNodeId(0),
            &[FlipcNodeId(1)],
            hub.link(FlipcNodeId(0)),
            clock,
            NetConfig::default(),
        );
        let mut foreign = hub.link(FlipcNodeId(1));
        foreign.send(FlipcNodeId(0), b"not a flipc packet");
        foreign.send(
            FlipcNodeId(0),
            &packet::encode_ack(FlipcNodeId(77), 3, 1, 1, 8, 0),
        );
        assert!(a.try_recv().is_none());
        let s = a.stats().snapshot();
        assert_eq!(s.decode_errors, 1);
        assert_eq!(s.unknown_peer, 1);
    }
}
