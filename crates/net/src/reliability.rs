//! The optimistic go-back-N reliability state machine.
//!
//! FLIPC's transport philosophy is *optimistic*: send immediately, assume
//! delivery, recover rarely. This module reproduces that over a lossy
//! reordering datagram network with the cheapest classical machinery that
//! still gives the engine its reliable-ordered contract:
//!
//! * **Sender** ([`SenderPath`]): per-peer sequence numbers and a bounded
//!   retransmit ring of already-encoded datagrams. Nothing is waited for —
//!   a frame goes on the wire at the end of the engine pass that offered
//!   it, and the only cost on the happy path is one ring push. When the
//!   cumulative acknowledgement stalls past a timeout, the whole
//!   unacknowledged ring is resent (go-back-N) and the timeout backs off
//!   exponentially to a cap. The timeout itself is *adaptive*
//!   ([`RttEstimator`]): an RFC-6298-style SRTT/RTTVAR filter fed by
//!   per-frame ack RTT samples (Karn's rule: retransmitted frames never
//!   produce samples), so the recovery latency tracks the path instead of
//!   a fixed schedule.
//! * **Receiver** ([`ReceiverPath`]): in-order delivery with a bounded
//!   reorder window. Frames ahead of the expected sequence are parked (up
//!   to the window), duplicates and stale arrivals are dropped and
//!   counted, and anything beyond the window is dropped too — the peer's
//!   retransmission recovers it. Every data arrival is answered with a
//!   cumulative ack (coalesced per poll by the transport).
//! * **Failure detector** ([`LivenessTracker`]): a bounded strike budget
//!   (`Healthy → Suspect → Dead`) charged by failed retransmit rounds and
//!   unanswered idle heartbeats. On `Dead` the transport stops spending
//!   datagrams on the peer, fails its queued/in-flight sends back to the
//!   application ([`flipc_core::error::FlipcError::PeerDown`]), and bumps
//!   its session epoch so a later resync restarts the stream cleanly. Any
//!   valid arrival re-admits the peer.
//!
//! Sequence numbers are `u32` and wrap; all comparisons are windowed
//! wrapping comparisons, sound because both windows are tiny (≤ 2^15)
//! relative to the sequence space. Session epochs are `u16` and compared
//! the same way ([`epoch_newer`]).
//!
//! Where this deliberately differs from the paper: FLIPC-on-Paragon had a
//! reliable mesh and therefore *no* retransmission at all. The recovery
//! machinery here is the minimum needed to re-create the mesh's
//! reliable-ordered property over UDP; it stays off the happy path, which
//! is the paper-faithful part.

use std::collections::{HashMap, VecDeque};

use flipc_core::inspect::PeerLiveness;
use flipc_engine::wire::Frame;

/// Tuning for one transport's reliability layer.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Sender window: max unacknowledged data frames per peer (also the
    /// retransmit-ring capacity). A full window backpressures the engine.
    pub window: u32,
    /// Receiver reorder window: how far ahead of the next expected
    /// sequence an arrival may be and still be parked for reassembly.
    pub reorder_window: u32,
    /// Initial retransmit timeout, in clock ticks (µs on the real clock),
    /// used until the adaptive estimator has its first RTT sample.
    pub rto: u64,
    /// Lower clamp for the adaptive retransmit timeout, in clock ticks.
    /// (If the bounds conflict, `rto_max` wins.)
    pub rto_min: u64,
    /// Backoff cap for the retransmit timeout, in clock ticks.
    pub rto_max: u64,
    /// Strikes (failed retransmit rounds or unanswered heartbeats) before
    /// a peer is demoted from `Healthy` to `Suspect`.
    pub suspect_strikes: u32,
    /// Strikes before a peer is declared `Dead`: the bounded retransmit
    /// budget. `u32::MAX` disables dead declaration (retransmit forever,
    /// the pre-lifecycle behaviour).
    pub dead_strikes: u32,
    /// Idle-path heartbeat interval, in clock ticks: after this much
    /// silence on a path with nothing in flight, a ping is sent (and an
    /// unanswered ping is a strike). `0` disables heartbeats.
    pub heartbeat_interval: u64,
    /// The session epoch this transport's paths start at. A supervisor
    /// restarting a crashed node should hand the new incarnation a larger
    /// epoch so peers detect the restart immediately; the transport also
    /// bumps it per path when it declares a peer dead.
    pub initial_epoch: u16,
    /// Deficit-round-robin quantum ([`DrrArbiter`]): how many frames one
    /// source endpoint may admit per round while other endpoints on the
    /// same peer path are waiting. Bounds priority inversion to one
    /// quantum of the competing flow. Clamped to at least 1.
    pub drr_quantum: u32,
    /// Interval, in clock ticks, between slow probes toward a peer
    /// already declared dead *while sends toward it are still pending*
    /// (unacknowledged credit). This is what breaks the mutual-dead
    /// deadlock: two partitioned nodes that both declared each other dead
    /// would otherwise never speak again (heartbeats stop on `Dead`).
    /// Probes are charged to no strike budget and stop when the demand
    /// clears. `0` disables dead probing; heartbeats disabled
    /// (`heartbeat_interval == 0`) disables it too.
    pub dead_probe_interval: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            window: 64,
            reorder_window: 64,
            rto: 5_000,
            rto_min: 1_000,
            rto_max: 80_000,
            suspect_strikes: 3,
            dead_strikes: 12,
            heartbeat_interval: 200_000,
            initial_epoch: 1,
            drr_quantum: 4,
            dead_probe_interval: 1_600_000,
        }
    }
}

/// Half the u32 sequence space; distances below this are "forward".
const HALF: u32 = 1 << 31;

/// True when epoch `a` is strictly newer than `b` under wrapping `u16`
/// comparison (sound because real epoch deltas are tiny relative to the
/// space). Stale-epoch datagrams — `a` older than the recorded epoch — are
/// rejected; newer epochs trigger a path resync.
pub fn epoch_newer(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 1 << 15
}

/// RFC-6298-style smoothed RTT estimator (integer arithmetic, clock
/// ticks). Single-writer like everything else on the path: the transport
/// observes samples from inside the engine loop and mirrors the estimate
/// to gauges with plain stores.
#[derive(Debug, Default, Clone, Copy)]
pub struct RttEstimator {
    srtt: u64,
    rttvar: u64,
    samples: u64,
}

impl RttEstimator {
    /// An estimator with no samples (the configured initial RTO applies).
    pub fn new() -> RttEstimator {
        RttEstimator::default()
    }

    /// Feeds one ack RTT sample (ticks). Saturating throughout, so even
    /// pathological samples (`u64::MAX`) cannot overflow.
    pub fn observe(&mut self, rtt: u64) {
        if self.samples == 0 {
            self.srtt = rtt;
            self.rttvar = rtt / 2;
        } else {
            // RFC 6298: RTTVAR := 3/4·RTTVAR + 1/4·|SRTT − R|,
            //           SRTT := 7/8·SRTT + 1/8·R.
            let err = self.srtt.abs_diff(rtt);
            self.rttvar = (self.rttvar.saturating_mul(3).saturating_add(err)) / 4;
            self.srtt = (self.srtt.saturating_mul(7).saturating_add(rtt)) / 8;
        }
        self.samples = self.samples.saturating_add(1);
    }

    /// Smoothed RTT (0 until the first sample).
    pub fn srtt(&self) -> u64 {
        self.srtt
    }

    /// RTT variance.
    pub fn rttvar(&self) -> u64 {
        self.rttvar
    }

    /// Samples observed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The retransmit timeout this estimate implies:
    /// `clamp(srtt + 4·rttvar, rto_min, rto_max)`, or the configured
    /// initial `rto` while no samples exist. The floor is applied first,
    /// so `rto_max` wins if the configured bounds conflict.
    pub fn rto(&self, cfg: &NetConfig) -> u64 {
        if self.samples == 0 {
            return cfg.rto.min(cfg.rto_max);
        }
        self.srtt
            .saturating_add(self.rttvar.saturating_mul(4))
            .max(cfg.rto_min)
            .min(cfg.rto_max)
    }
}

/// One datagram in the retransmit ring.
#[derive(Debug)]
pub struct InFlight {
    /// Sequence number the datagram carries.
    pub seq: u32,
    /// The encoded bytes, reused verbatim for any retransmission.
    pub bytes: Vec<u8>,
    /// Tick of the first transmission (the RTT sample base).
    pub sent_at: u64,
    /// Set once any go-back-N round re-sent this datagram. Karn's rule:
    /// such frames never produce RTT samples (the ack is ambiguous).
    pub retransmitted: bool,
}

/// Sender side of one path: sequence allocation + retransmit ring.
#[derive(Debug)]
pub struct SenderPath {
    cfg: NetConfig,
    /// Sequence number the next fresh frame will carry.
    next_seq: u32,
    /// Highest cumulatively acknowledged sequence.
    cum_acked: u32,
    /// Encoded datagrams sent but not yet acknowledged, oldest first.
    unacked: VecDeque<InFlight>,
    /// Current retransmit timeout (ticks), grows under backoff.
    rto_cur: u64,
    /// Tick of the last forward progress (send-from-empty or new ack).
    last_progress: u64,
    /// Adaptive RTT estimate for this path.
    estimator: RttEstimator,
    /// Latest credit window the peer granted us (frames it will accept in
    /// flight). Starts optimistic at `cfg.window` — the pre-credit
    /// behaviour — until the first advertisement arrives.
    remote_credit: u32,
    /// The peer's cumulative receive-side drop counter as last advertised
    /// (wrapping; meaningful only once `peer_drops_seen`).
    peer_drops: u32,
    /// Whether any advertisement has established the drop baseline.
    peer_drops_seen: bool,
}

impl SenderPath {
    /// A fresh path; the first frame will be sequence 1.
    pub fn new(cfg: NetConfig) -> SenderPath {
        SenderPath {
            cfg,
            next_seq: 1,
            cum_acked: 0,
            unacked: VecDeque::new(),
            rto_cur: cfg.rto.min(cfg.rto_max),
            last_progress: 0,
            estimator: RttEstimator::new(),
            remote_credit: cfg.window,
            peer_drops: 0,
            peer_drops_seen: false,
        }
    }

    /// Frames in flight (sent, unacknowledged).
    pub fn in_flight(&self) -> u32 {
        self.unacked.len() as u32
    }

    /// The window this path may actually use right now: the configured
    /// sender window clamped by the peer's granted credit.
    pub fn effective_window(&self) -> u32 {
        self.cfg.window.min(self.remote_credit).max(1)
    }

    /// True when the effective window is full: the caller must
    /// backpressure.
    pub fn full(&self) -> bool {
        self.unacked.len() as u32 >= self.effective_window()
    }

    /// True when the refusal to admit comes from the peer's credit grant
    /// rather than the configured window — the distinction the
    /// `credit_stalls` counter reports.
    pub fn credit_limited(&self) -> bool {
        self.full() && (self.unacked.len() as u32) < self.cfg.window
    }

    /// The peer's latest granted credit window (clamped to ≥ 1).
    pub fn remote_credit(&self) -> u32 {
        self.remote_credit
    }

    /// Applies a credit advertisement from the peer (rides every ack and
    /// pong). `credit` is the receiver's explicit grant; `drops` its
    /// cumulative receive-side drop counter. A wrapping-forward advance
    /// of the drop counter since the last advertisement is a congestion
    /// signal: the usable window is halved *below* the fresh grant for
    /// one round (the grantor's own shrink catches up on its next
    /// advertisement). Returns `true` when that congestion clamp fired.
    pub fn on_credit(&mut self, credit: u32, drops: u32) -> bool {
        let mut limit = credit.max(1);
        let mut clamped = false;
        if self.peer_drops_seen {
            let delta = drops.wrapping_sub(self.peer_drops);
            if delta != 0 && delta < HALF {
                limit = (limit / 2).max(1);
                clamped = true;
            }
        }
        self.peer_drops = drops;
        self.peer_drops_seen = true;
        self.remote_credit = limit;
        clamped
    }

    /// True once any frame has been admitted in the current epoch (used to
    /// decide whether an epoch resync must also reset this sender).
    pub fn has_history(&self) -> bool {
        self.next_seq != 1
    }

    /// Admits one frame: assigns it the next sequence number and parks the
    /// encoded datagram in the retransmit ring. Returns `None` (without
    /// consuming a sequence number) when the window is full.
    ///
    /// `encode` maps the assigned sequence to the wire bytes; the same
    /// bytes are reused verbatim for any retransmission.
    pub fn admit(
        &mut self,
        now: u64,
        encode: impl FnOnce(u32) -> Option<Vec<u8>>,
    ) -> Option<&[u8]> {
        if self.full() {
            return None;
        }
        let seq = self.next_seq;
        let bytes = encode(seq)?;
        if self.unacked.is_empty() {
            // The timer measures ack stall; (re)arm it when the ring goes
            // from idle to occupied so old idle time doesn't count.
            self.last_progress = now;
        }
        self.next_seq = self.next_seq.wrapping_add(1);
        self.unacked.push_back(InFlight {
            seq,
            bytes,
            sent_at: now,
            retransmitted: false,
        });
        self.unacked.back().map(|f| f.bytes.as_slice())
    }

    /// Applies a cumulative acknowledgement. Returns the number of frames
    /// newly acknowledged (0 for stale or duplicate acks). Progress feeds
    /// the RTT estimator (newest acked never-retransmitted frame — Karn's
    /// rule) and re-arms the timeout from the estimate.
    pub fn on_ack(&mut self, now: u64, cumulative: u32) -> u32 {
        let advance = cumulative.wrapping_sub(self.cum_acked);
        if advance == 0 || advance >= HALF {
            return 0; // duplicate or stale
        }
        // Never ack past what we actually sent (a corrupt or foreign ack).
        let outstanding = self.next_seq.wrapping_sub(1).wrapping_sub(self.cum_acked);
        if advance > outstanding {
            return 0;
        }
        let mut freed = 0;
        let mut sample = None;
        while let Some(f) = self.unacked.front() {
            if f.seq.wrapping_sub(self.cum_acked) <= advance {
                if !f.retransmitted {
                    sample = Some(now.saturating_sub(f.sent_at));
                }
                self.unacked.pop_front();
                freed += 1;
            } else {
                break;
            }
        }
        if let Some(rtt) = sample {
            self.estimator.observe(rtt);
        }
        self.cum_acked = cumulative;
        self.rto_cur = self.estimator.rto(&self.cfg);
        self.last_progress = now;
        freed
    }

    /// Checks the retransmit timer. If the path has stalled past the
    /// current timeout, returns the full unacknowledged ring for
    /// retransmission (go-back-N), backs the timeout off, and marks every
    /// returned frame retransmitted (Karn); otherwise returns an empty
    /// ring.
    pub fn poll_retransmit(&mut self, now: u64) -> &VecDeque<InFlight> {
        static EMPTY: VecDeque<InFlight> = VecDeque::new();
        if self.unacked.is_empty() || now.wrapping_sub(self.last_progress) < self.rto_cur {
            return &EMPTY;
        }
        self.rto_cur = (self.rto_cur.saturating_mul(2)).min(self.cfg.rto_max);
        self.last_progress = now;
        for f in &mut self.unacked {
            f.retransmitted = true;
        }
        &self.unacked
    }

    /// Abandons the current epoch: clears the retransmit ring (the caller
    /// fails those frames back to the application), restarts the sequence
    /// space at 1, and resets the backoff. The RTT estimate survives — the
    /// path's physics did not change, only the session. Returns how many
    /// in-flight frames were abandoned.
    ///
    /// The caller must bump its wire epoch alongside this reset so the
    /// peer's receiver resynchronizes instead of treating the fresh
    /// sequence numbers as duplicates.
    pub fn reset_epoch(&mut self) -> u32 {
        let failed = self.unacked.len() as u32;
        self.unacked.clear();
        self.next_seq = 1;
        self.cum_acked = 0;
        self.rto_cur = self.estimator.rto(&self.cfg);
        // The peer may be a new incarnation: forget its grant and drop
        // baseline and start optimistic again, like a fresh path.
        self.remote_credit = self.cfg.window;
        self.peer_drops = 0;
        self.peer_drops_seen = false;
        failed
    }

    /// The encoded datagram for in-flight sequence `seq`, or `None` once
    /// it has been acknowledged (or was never admitted). The ring holds
    /// `cum_acked + 1 ..` contiguously, so this is one index.
    pub fn datagram(&self, seq: u32) -> Option<&[u8]> {
        let k = seq.wrapping_sub(self.cum_acked.wrapping_add(1)) as usize;
        self.unacked
            .get(k)
            .filter(|f| f.seq == seq)
            .map(|f| f.bytes.as_slice())
    }

    /// Current retransmit timeout (exposed for backoff-cap tests and the
    /// per-peer gauge).
    pub fn rto(&self) -> u64 {
        self.rto_cur
    }

    /// Smoothed RTT estimate (0 until the first sample).
    pub fn srtt(&self) -> u64 {
        self.estimator.srtt()
    }

    /// RTT variance estimate.
    pub fn rttvar(&self) -> u64 {
        self.estimator.rttvar()
    }

    /// The estimator itself (for tests and benches).
    pub fn estimator(&self) -> &RttEstimator {
        &self.estimator
    }
}

/// What the receiver did with one data arrival.
#[derive(Debug, Default)]
pub struct RecvOutcome {
    /// Frames now deliverable in order (the arrival itself and any parked
    /// successors it unblocked).
    pub delivered: Vec<Frame>,
    /// The arrival was a duplicate (stale or already parked) and was
    /// discarded.
    pub duplicate: bool,
    /// The arrival was beyond the reorder window and was discarded.
    pub out_of_window: bool,
}

/// Receiver side of one path: reorder/dedup window and cumulative ack
/// generation.
#[derive(Debug)]
pub struct ReceiverPath {
    cfg: NetConfig,
    /// Sequence number the next in-order frame must carry.
    next_expected: u32,
    /// Parked out-of-order frames, keyed by sequence. Bounded by
    /// `cfg.reorder_window`; wrap-safe because lookups are by exact key.
    parked: HashMap<u32, Frame>,
}

impl ReceiverPath {
    /// A fresh path expecting sequence 1.
    pub fn new(cfg: NetConfig) -> ReceiverPath {
        ReceiverPath {
            cfg,
            next_expected: 1,
            parked: HashMap::new(),
        }
    }

    /// Cumulative acknowledgement to advertise: the highest sequence
    /// received in order (0 until the first frame arrives).
    pub fn cumulative(&self) -> u32 {
        self.next_expected.wrapping_sub(1)
    }

    /// Restarts the path for a new session epoch: the peer's stream begins
    /// again at sequence 1 and parked frames from the old epoch are
    /// discarded (the in-order guarantee is per-epoch).
    pub fn reset(&mut self) {
        self.next_expected = 1;
        self.parked.clear();
    }

    /// Processes one data arrival.
    pub fn on_data(&mut self, seq: u32, frame: Frame) -> RecvOutcome {
        let mut out = RecvOutcome::default();
        let ahead = seq.wrapping_sub(self.next_expected);
        if ahead >= HALF {
            // Behind the cursor: an already-delivered sequence resent by a
            // go-back-N burst or duplicated by the network.
            out.duplicate = true;
            return out;
        }
        if ahead == 0 {
            self.next_expected = self.next_expected.wrapping_add(1);
            out.delivered.push(frame);
            // Unblock any parked successors.
            while let Some(f) = self.parked.remove(&self.next_expected) {
                self.next_expected = self.next_expected.wrapping_add(1);
                out.delivered.push(f);
            }
            return out;
        }
        if ahead >= self.cfg.reorder_window {
            out.out_of_window = true;
            return out;
        }
        if self.parked.insert(seq, frame).is_some() {
            out.duplicate = true;
        }
        out
    }
}

/// Receiver-side credit policy for one peer path: decides how many frames
/// the peer may keep in flight toward us, advertised on every outgoing
/// ack and pong (see `packet.rs`, version 4).
///
/// The policy is classic AIMD, driven by this receiver's own drop
/// counter rather than by loss inference at the sender:
///
/// * **Multiplicative shrink**: any out-of-window discard since the last
///   advertisement halves the grant (floored at 1) — the peer is
///   outrunning our reorder window or our drain rate, and a smaller
///   window converts its go-back-N flooding into backpressure.
/// * **Additive regrow**: an advertisement round with delivery progress
///   and no new drops raises the grant by one, back up to `cfg.window`.
///   Because the floor is 1, a probe frame can always get through to
///   earn the next increase: the window degrades gracefully and can
///   never wedge shut.
///
/// The cumulative drop counter itself (`u32`, wrapping) is advertised
/// alongside the grant so the sender can react to congestion a round
/// earlier than the shrunk grant reaches it
/// ([`SenderPath::on_credit`]).
#[derive(Debug)]
pub struct CreditGrantor {
    /// Current grant (frames).
    window: u32,
    /// Regrow ceiling (the configured sender window).
    max: u32,
    /// Cumulative receive-side drops (wrapping).
    drops: u32,
    /// `drops` as of the last advertisement (shrink trigger baseline).
    drops_at_last: u32,
    /// In-order deliveries since the last advertisement (regrow
    /// evidence).
    delivered_since: u32,
}

impl CreditGrantor {
    /// A fresh grantor starting fully open at the configured window.
    pub fn new(cfg: &NetConfig) -> CreditGrantor {
        let max = cfg.window.max(1);
        CreditGrantor {
            window: max,
            max,
            drops: 0,
            drops_at_last: 0,
            delivered_since: 0,
        }
    }

    /// Records one receive-side discard (out-of-window arrival).
    pub fn on_drop(&mut self) {
        self.drops = self.drops.wrapping_add(1);
    }

    /// Records `n` in-order deliveries.
    pub fn on_delivered(&mut self, n: u32) {
        self.delivered_since = self.delivered_since.saturating_add(n);
    }

    /// Current grant, without adjusting policy state (what pongs carry —
    /// AIMD rounds are paced by ack emission only).
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Cumulative drop counter (wrapping).
    pub fn drops(&self) -> u32 {
        self.drops
    }

    /// Runs one AIMD round and returns `(credit, drops, shrank)` for the
    /// outgoing ack: the possibly-adjusted grant, the cumulative drop
    /// counter, and whether this round shrank the window.
    pub fn advertise(&mut self) -> (u32, u32, bool) {
        let fresh_drops = self.drops.wrapping_sub(self.drops_at_last);
        let mut shrank = false;
        if fresh_drops != 0 {
            let next = (self.window / 2).max(1);
            shrank = next < self.window;
            self.window = next;
            self.drops_at_last = self.drops;
        } else if self.delivered_since > 0 && self.window < self.max {
            self.window += 1;
        }
        self.delivered_since = 0;
        (self.window, self.drops, shrank)
    }
}

/// Deficit-round-robin admission arbiter for the source endpoints that
/// share one peer path's sender window.
///
/// Without it, strict-priority callers are safe but a greedy bulk
/// endpoint can keep the whole window full so a latency-critical
/// endpoint's frames always find it closed (the starvation the tiered
/// workload demonstrated). The arbiter charges admissions against a
/// per-endpoint deficit only while the path is *contested* — some other
/// endpoint was recently refused — so uncontended traffic pays nothing.
/// Once contested, an endpoint whose deficit is spent is refused until
/// the round replenishes (when no demanding endpoint has deficit left),
/// bounding the slots any flow can claim ahead of a waiting competitor
/// to one quantum.
///
/// A refused endpoint that stops retrying (its producer went away) must
/// not throttle the survivors: demand expires after `stale_after` ticks
/// of not requesting.
#[derive(Debug)]
pub struct DrrArbiter {
    /// Frames one endpoint may admit per contested round.
    quantum: u32,
    /// Ticks after which a refused endpoint's demand is forgotten.
    stale_after: u64,
    /// Per-endpoint state, small and scanned linearly (endpoint counts
    /// are tiny — the tiered workload has three).
    flows: Vec<DrrFlow>,
}

#[derive(Debug)]
struct DrrFlow {
    /// Source endpoint index this flow tracks.
    ep: u16,
    /// Admissions left this round while contested.
    deficit: u32,
    /// The endpoint was refused and has not been granted since.
    waiting: bool,
    /// Tick of the endpoint's last admission request.
    last_request: u64,
}

impl DrrArbiter {
    /// An arbiter with the configured quantum; `stale_after` should be on
    /// the order of the retransmit timeout (the transport passes the
    /// initial RTO).
    pub fn new(cfg: &NetConfig) -> DrrArbiter {
        DrrArbiter {
            quantum: cfg.drr_quantum.max(1),
            stale_after: cfg.rto.max(1),
            flows: Vec::new(),
        }
    }

    /// Asks to admit one frame from endpoint `ep` given `free_slots` open
    /// window slots. Returns `true` to admit; `false` means the caller
    /// must backpressure this endpoint (window full, or its fair share is
    /// spent while another endpoint waits).
    pub fn request(&mut self, ep: u16, now: u64, free_slots: u32) -> bool {
        let idx = match self.flows.iter().position(|f| f.ep == ep) {
            Some(i) => i,
            None => {
                self.flows.push(DrrFlow {
                    ep,
                    deficit: self.quantum,
                    waiting: false,
                    last_request: now,
                });
                self.flows.len() - 1
            }
        };
        self.flows[idx].last_request = now;
        if free_slots == 0 {
            self.flows[idx].waiting = true;
            return false;
        }
        let contested = self.flows.iter().enumerate().any(|(j, f)| {
            j != idx && f.waiting && now.saturating_sub(f.last_request) <= self.stale_after
        });
        if !contested {
            // Uncontended: admit freely and keep the round fresh so a
            // newly-waking competitor starts from a full quantum fight.
            self.flows[idx].waiting = false;
            self.flows[idx].deficit = self.flows[idx].deficit.max(1) - 1;
            if self.flows[idx].deficit == 0 {
                self.replenish(now);
            }
            return true;
        }
        if self.flows[idx].deficit == 0 {
            // Spent while others wait: if nobody with live demand has
            // deficit left either, start the next round; otherwise yield.
            let any_live_deficit = self.flows.iter().any(|f| {
                f.deficit > 0
                    && (f.waiting || f.ep == ep)
                    && now.saturating_sub(f.last_request) <= self.stale_after
            });
            if any_live_deficit {
                self.flows[idx].waiting = true;
                return false;
            }
            // Replenish prunes stale flows, shifting indices; the
            // requester survives (its last_request is `now`), so re-find
            // it by endpoint.
            self.replenish(now);
        }
        if let Some(f) = self.flows.iter_mut().find(|f| f.ep == ep) {
            f.waiting = false;
            f.deficit = f.deficit.saturating_sub(1);
        }
        true
    }

    /// Starts a new round: every endpoint with live demand gets a fresh
    /// quantum; endpoints whose demand went stale are dropped.
    fn replenish(&mut self, now: u64) {
        let stale = self.stale_after;
        self.flows
            .retain(|f| now.saturating_sub(f.last_request) <= stale);
        for f in &mut self.flows {
            f.deficit = self.quantum;
        }
    }

    /// Forgets all flow state (path reset: the window emptied, old debts
    /// are meaningless).
    pub fn reset(&mut self) {
        self.flows.clear();
    }
}

/// The per-peer failure detector: a strike budget shared by the retransmit
/// timer (a fired round with no progress is a strike) and the idle-path
/// heartbeat (an unanswered ping is a strike).
///
/// `Healthy → Suspect → Dead` is monotone under silence; any valid arrival
/// re-admits the peer to `Healthy` (the transport re-syncs the path state
/// separately, via epochs).
#[derive(Debug)]
pub struct LivenessTracker {
    state: PeerLiveness,
    strikes: u32,
    /// Tick of the last valid arrival (or of construction).
    last_heard: u64,
    /// Tick of the last heartbeat ping (0 = none sent yet).
    last_ping: u64,
    /// A ping is out and nothing has been heard since.
    ping_outstanding: bool,
}

impl LivenessTracker {
    /// A fresh tracker; silence is measured from `now`.
    pub fn new(now: u64) -> LivenessTracker {
        LivenessTracker {
            state: PeerLiveness::Healthy,
            strikes: 0,
            last_heard: now,
            last_ping: 0,
            ping_outstanding: false,
        }
    }

    /// Current verdict.
    pub fn state(&self) -> PeerLiveness {
        self.state
    }

    /// Strikes accumulated since the last reset.
    pub fn strikes(&self) -> u32 {
        self.strikes
    }

    /// A valid datagram arrived from the peer. `idle` is whether we have
    /// nothing in flight toward it — an idle peer that talks is fully
    /// healthy, while a talking peer that never acks our in-flight frames
    /// keeps its retransmit strikes (a one-way partition must still
    /// exhaust the budget). Returns `true` when this arrival re-admits a
    /// peer previously declared dead.
    pub fn on_heard(&mut self, now: u64, idle: bool) -> bool {
        self.last_heard = now;
        self.ping_outstanding = false;
        if self.state == PeerLiveness::Dead {
            self.strikes = 0;
            self.state = PeerLiveness::Healthy;
            return true;
        }
        if idle {
            self.strikes = 0;
            self.state = PeerLiveness::Healthy;
        }
        false
    }

    /// The peer acknowledged forward progress: full reset to `Healthy`.
    pub fn on_progress(&mut self, now: u64) {
        self.last_heard = now;
        self.ping_outstanding = false;
        self.strikes = 0;
        self.state = PeerLiveness::Healthy;
    }

    /// One strike (a failed retransmit round or an unanswered heartbeat).
    /// Returns the (possibly unchanged) state after charging it.
    pub fn on_strike(&mut self, cfg: &NetConfig) -> PeerLiveness {
        if self.state == PeerLiveness::Dead {
            return PeerLiveness::Dead;
        }
        self.strikes = self.strikes.saturating_add(1);
        self.state = if self.strikes >= cfg.dead_strikes {
            PeerLiveness::Dead
        } else if self.strikes >= cfg.suspect_strikes {
            PeerLiveness::Suspect
        } else {
            PeerLiveness::Healthy
        };
        self.state
    }

    /// Decides whether an idle-path heartbeat should go out now. Charges a
    /// strike first if the previous ping went unanswered; returns `false`
    /// (no datagram) once the peer is dead or heartbeats are disabled.
    pub fn heartbeat_due(&mut self, now: u64, cfg: &NetConfig) -> bool {
        if cfg.heartbeat_interval == 0 || self.state == PeerLiveness::Dead {
            return false;
        }
        if now.saturating_sub(self.last_heard) < cfg.heartbeat_interval {
            return false;
        }
        if self.last_ping != 0 && now.saturating_sub(self.last_ping) < cfg.heartbeat_interval {
            return false;
        }
        if self.ping_outstanding && self.on_strike(cfg) == PeerLiveness::Dead {
            // The unanswered-ping strike exhausted the budget: no more
            // datagrams toward this peer.
            self.ping_outstanding = false;
            return false;
        }
        self.last_ping = now;
        self.ping_outstanding = true;
        true
    }
}

/// NTP-style per-peer clock-offset estimator fed by the heartbeat
/// exchange.
///
/// The transport stamps each outgoing Ping with its trace-clock send time
/// `t1` ([`crate::clock::Clock::wall_ns`]); the peer answers with a Pong
/// echoing `t1` plus its own receive stamp `t2` and send stamp `t3`; the
/// transport notes arrival time `t4` and feeds all four here. From one
/// exchange:
///
/// ```text
/// offset sample = ((t2 − t1) + (t3 − t4)) / 2   (peer clock minus ours)
/// delay         = (t4 − t1) − (t3 − t2)          (round trip minus remote hold)
/// ```
///
/// The sample's unknowable error is bounded by `delay / 2` (the true
/// offset lies anywhere inside the path asymmetry), so the estimator
/// smooths samples with the same integer EWMA gains as [`RttEstimator`]
/// and folds `delay / 2` plus the innovation into a *dispersion* bound —
/// the error bar the timeline merge propagates onto cross-node latencies.
///
/// Karn-style rejection: a pong is accepted only when its echoed `t1`
/// matches the one outstanding probe, and accepting (or re-probing)
/// consumes it — a duplicated, delayed, or retransmit-ambiguous reply can
/// never corrupt the estimate. [`ClockSync::reset`] forgets the pending
/// probe across epoch resyncs (a restarted peer answers old probes with a
/// new clock).
///
/// All arithmetic is wrapping-then-widening (`u64` wrapping subtraction
/// reinterpreted as `i64`, accumulated in `i128`), so stamps near the
/// `u64` wrap point produce correct small differences instead of panics
/// or absurd offsets.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClockSync {
    /// Smoothed offset estimate: peer trace clock minus ours, ns.
    offset: i64,
    /// Smoothed error bound on the offset, ns.
    dispersion: u64,
    /// Accepted samples.
    samples: u64,
    /// The `t1` of the one outstanding probe (Karn matching).
    pending: Option<u64>,
}

/// Signed difference `a − b` under `u64` wraparound (exact whenever the
/// true difference fits in an `i64`, which trace stamps always do).
#[inline]
fn wrap_diff(a: u64, b: u64) -> i64 {
    a.wrapping_sub(b) as i64
}

impl ClockSync {
    /// An estimator with no samples and no outstanding probe.
    pub fn new() -> ClockSync {
        ClockSync::default()
    }

    /// Notes that a probe stamped `t1` just went on the wire. Overwrites
    /// any previous pending probe: its reply would be ambiguous (was it
    /// answering the old stamp or a duplicate?), so it is invalidated —
    /// the Karn discipline under retransmitted/repeated heartbeats.
    pub fn probe_sent(&mut self, t1: u64) {
        self.pending = Some(t1);
    }

    /// Feeds one completed exchange. Returns `true` when the sample was
    /// accepted; a pong whose `t1` matches no outstanding probe (stale,
    /// duplicated, or forged) is rejected without touching the estimate.
    pub fn on_pong(&mut self, t1: u64, t2: u64, t3: u64, t4: u64) -> bool {
        if self.pending != Some(t1) {
            return false;
        }
        self.pending = None;
        let delay = i128::from(wrap_diff(t4, t1)) - i128::from(wrap_diff(t3, t2));
        if delay < 0 {
            // A monotone clock cannot produce this; the stamps are
            // damaged (or wrapped mid-exchange). Drop the sample.
            return false;
        }
        let sample = (i128::from(wrap_diff(t2, t1)) + i128::from(wrap_diff(t3, t4))) / 2;
        let sample = clamp_i64(sample);
        let half_delay = clamp_u64(delay.unsigned_abs() / 2);
        if self.samples == 0 {
            self.offset = sample;
            self.dispersion = half_delay;
        } else {
            // Same integer gains as RFC 6298: the innovation feeds the
            // error bound (3/4 old + 1/4 new evidence), the sample feeds
            // the offset (7/8 old + 1/8 new).
            let err = clamp_u64((i128::from(self.offset) - i128::from(sample)).unsigned_abs());
            self.dispersion = self
                .dispersion
                .saturating_mul(3)
                .saturating_add(err)
                .saturating_add(half_delay)
                / 4;
            self.offset = clamp_i64((i128::from(self.offset) * 7 + i128::from(sample)) / 8);
        }
        self.samples = self.samples.saturating_add(1);
        true
    }

    /// Forgets the outstanding probe and the whole estimate — the path
    /// resynchronized onto a new session epoch, so the peer may be a new
    /// incarnation with an unrelated clock.
    pub fn reset(&mut self) {
        *self = ClockSync::new();
    }

    /// Smoothed offset estimate: peer trace clock minus ours, ns
    /// (0 until the first sample).
    pub fn offset_ns(&self) -> i64 {
        self.offset
    }

    /// Smoothed error bound on the offset, ns.
    pub fn dispersion_ns(&self) -> u64 {
        self.dispersion
    }

    /// Accepted samples so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[inline]
fn clamp_i64(v: i128) -> i64 {
    v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
}

#[inline]
fn clamp_u64(v: u128) -> u64 {
    v.min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipc_core::endpoint::{EndpointAddress, EndpointIndex, FlipcNodeId};

    fn cfg() -> NetConfig {
        NetConfig {
            window: 4,
            reorder_window: 4,
            rto: 100,
            rto_min: 10,
            rto_max: 400,
            ..NetConfig::default()
        }
    }

    fn frame(tag: u8) -> Frame {
        Frame {
            src: EndpointAddress::new(FlipcNodeId(0), EndpointIndex(0), 1),
            dst: EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1),
            payload: vec![tag; 4].into(),
            stamp_ns: 0,
        }
    }

    fn bytes_for(seq: u32) -> Option<Vec<u8>> {
        Some(seq.to_le_bytes().to_vec())
    }

    #[test]
    fn sender_window_backpressures_and_acks_free_it() {
        let mut s = SenderPath::new(cfg());
        for _ in 0..4 {
            assert!(s.admit(0, bytes_for).is_some());
        }
        assert!(s.full());
        assert!(s.admit(0, bytes_for).is_none());
        assert_eq!(s.on_ack(10, 2), 2);
        assert_eq!(s.in_flight(), 2);
        assert!(s.admit(10, bytes_for).is_some());
        // Duplicate and stale acks are no-ops.
        assert_eq!(s.on_ack(11, 2), 0);
        assert_eq!(s.on_ack(11, 0), 0);
    }

    #[test]
    fn ack_beyond_outstanding_is_ignored() {
        let mut s = SenderPath::new(cfg());
        s.admit(0, bytes_for).unwrap();
        assert_eq!(s.on_ack(1, 1000), 0, "forged ack must not free anything");
        assert_eq!(s.in_flight(), 1);
    }

    #[test]
    fn retransmit_fires_after_rto_and_backs_off_to_cap() {
        let mut s = SenderPath::new(cfg());
        s.admit(0, bytes_for).unwrap();
        s.admit(0, bytes_for).unwrap();
        assert!(s.poll_retransmit(99).is_empty(), "before the timeout");
        assert_eq!(s.poll_retransmit(100).len(), 2, "go-back-N resends all");
        assert_eq!(s.rto(), 200);
        assert!(s.poll_retransmit(250).is_empty(), "backoff doubled");
        assert_eq!(s.poll_retransmit(300).len(), 2);
        assert_eq!(s.rto(), 400);
        s.poll_retransmit(700);
        assert_eq!(s.rto(), 400, "backoff capped at rto_max");
        // Progress resets the backoff. Both frames were retransmitted, so
        // Karn's rule leaves the estimator empty and the initial RTO
        // applies.
        s.on_ack(700, 2);
        assert_eq!(s.estimator().samples(), 0, "Karn: no ambiguous samples");
        assert_eq!(s.rto(), 100);
        assert!(s.poll_retransmit(1_000_000).is_empty(), "nothing in flight");
    }

    #[test]
    fn clean_acks_adapt_the_timeout_to_the_observed_rtt() {
        let mut s = SenderPath::new(cfg());
        // Steady 40-tick RTT, no losses: the estimator converges and the
        // armed timeout tracks clamp(srtt + 4·rttvar) instead of the
        // initial 100-tick schedule.
        let mut now = 0;
        for _ in 0..32 {
            s.admit(now, bytes_for).unwrap();
            now += 40;
            assert!(s.on_ack(now, s.next_seq.wrapping_sub(1)) == 1);
        }
        let srtt = s.srtt();
        assert!((20..=80).contains(&srtt), "srtt converged near 40: {srtt}");
        assert!(s.rto() >= 40, "timeout at least the observed RTT");
        assert!(s.rto() < 100, "timeout adapted below the initial schedule");
    }

    #[test]
    fn estimator_follows_rfc6298_shape_and_saturates() {
        let mut e = RttEstimator::new();
        e.observe(100);
        assert_eq!(e.srtt(), 100);
        assert_eq!(e.rttvar(), 50);
        e.observe(100);
        assert_eq!(e.srtt(), 100);
        assert!(e.rttvar() < 50, "constant samples shrink the variance");
        // Pathological samples must not overflow.
        e.observe(u64::MAX);
        e.observe(u64::MAX);
        let cfg = cfg();
        assert_eq!(e.rto(&cfg), cfg.rto_max, "clamped at the cap");
    }

    #[test]
    fn reset_epoch_abandons_the_ring_and_restarts_sequences() {
        let mut s = SenderPath::new(cfg());
        for _ in 0..3 {
            s.admit(0, bytes_for).unwrap();
        }
        assert!(s.has_history());
        assert_eq!(s.reset_epoch(), 3, "in-flight frames reported as failed");
        assert_eq!(s.in_flight(), 0);
        assert!(!s.has_history());
        // The sequence space restarted: the next admit carries seq 1.
        let mut seen = None;
        s.admit(0, |seq| {
            seen = Some(seq);
            bytes_for(seq)
        })
        .unwrap();
        assert_eq!(seen, Some(1));
    }

    #[test]
    fn timer_arms_on_first_admit_not_at_epoch() {
        let mut s = SenderPath::new(cfg());
        s.admit(1_000, bytes_for).unwrap();
        assert!(
            s.poll_retransmit(1_050).is_empty(),
            "idle epoch time must not count toward the stall"
        );
        assert_eq!(s.poll_retransmit(1_100).len(), 1);
    }

    #[test]
    fn receiver_delivers_in_order_and_reassembles() {
        let mut r = ReceiverPath::new(cfg());
        assert_eq!(r.cumulative(), 0);
        // 2 arrives early: parked.
        let out = r.on_data(2, frame(2));
        assert!(out.delivered.is_empty() && !out.duplicate && !out.out_of_window);
        // 1 arrives: both deliver, in order.
        let out = r.on_data(1, frame(1));
        let tags: Vec<u8> = out.delivered.iter().map(|f| f.payload[0]).collect();
        assert_eq!(tags, vec![1, 2]);
        assert_eq!(r.cumulative(), 2);
    }

    #[test]
    fn receiver_drops_duplicates_and_far_future() {
        let mut r = ReceiverPath::new(cfg());
        assert!(!r.on_data(1, frame(1)).duplicate);
        assert!(r.on_data(1, frame(1)).duplicate, "replayed frame");
        assert!(r.on_data(3, frame(3)).delivered.is_empty());
        assert!(r.on_data(3, frame(3)).duplicate, "duplicate parked frame");
        // next_expected = 2; window 4 admits 2..6, rejects ≥ 6.
        assert!(r.on_data(6, frame(6)).out_of_window);
        assert_eq!(r.cumulative(), 1);
    }

    #[test]
    fn receiver_reset_restarts_the_stream() {
        let mut r = ReceiverPath::new(cfg());
        assert_eq!(r.on_data(1, frame(1)).delivered.len(), 1);
        r.on_data(3, frame(3)); // parked
        r.reset();
        assert_eq!(r.cumulative(), 0);
        // The new epoch's sequence 1 delivers; the parked frame from the
        // old epoch is gone (no spurious unblock at seq 3).
        assert_eq!(r.on_data(1, frame(9)).delivered.len(), 1);
        assert_eq!(r.on_data(2, frame(9)).delivered.len(), 1);
        assert_eq!(r.on_data(3, frame(9)).delivered.len(), 1);
        assert_eq!(r.cumulative(), 3);
    }

    #[test]
    fn sequences_survive_wraparound() {
        let big = NetConfig {
            window: 4,
            reorder_window: 4,
            ..cfg()
        };
        let mut s = SenderPath::new(big);
        let mut r = ReceiverPath::new(big);
        // Fast-forward both sides to just below the wrap point.
        s.next_seq = u32::MAX - 1;
        s.cum_acked = u32::MAX - 2;
        r.next_expected = u32::MAX - 1;
        for i in 0..4u8 {
            s.admit(0, bytes_for).unwrap();
            let seq = (u32::MAX - 1).wrapping_add(i as u32);
            let out = r.on_data(seq, frame(i));
            assert_eq!(out.delivered.len(), 1, "frame {i} across the wrap");
            assert_eq!(s.on_ack(0, r.cumulative()), 1);
        }
        // Frames carried sequences MAX-1, MAX, 0, 1 — the cursor wrapped.
        assert_eq!(r.cumulative(), 1, "cursor wrapped cleanly");
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn epoch_comparison_is_wrapping() {
        assert!(epoch_newer(2, 1));
        assert!(!epoch_newer(1, 2));
        assert!(!epoch_newer(5, 5));
        assert!(epoch_newer(0, u16::MAX), "newer across the wrap");
        assert!(!epoch_newer(u16::MAX, 0));
    }

    #[test]
    fn liveness_walks_healthy_suspect_dead_and_readmits() {
        let cfg = NetConfig {
            suspect_strikes: 2,
            dead_strikes: 4,
            ..cfg()
        };
        let mut t = LivenessTracker::new(0);
        assert_eq!(t.state(), PeerLiveness::Healthy);
        assert_eq!(t.on_strike(&cfg), PeerLiveness::Healthy);
        assert_eq!(t.on_strike(&cfg), PeerLiveness::Suspect);
        assert_eq!(t.on_strike(&cfg), PeerLiveness::Suspect);
        assert_eq!(t.on_strike(&cfg), PeerLiveness::Dead);
        assert_eq!(t.on_strike(&cfg), PeerLiveness::Dead, "dead is absorbing");
        // Any valid arrival re-admits.
        assert!(t.on_heard(100, true), "re-admission reported");
        assert_eq!(t.state(), PeerLiveness::Healthy);
        assert_eq!(t.strikes(), 0);
    }

    #[test]
    fn heard_while_in_flight_keeps_retransmit_strikes() {
        // One-way partition shape: the peer talks to us (heard) but never
        // acks our in-flight frames — strikes must keep accumulating.
        let cfg = NetConfig {
            suspect_strikes: 1,
            dead_strikes: 3,
            ..cfg()
        };
        let mut t = LivenessTracker::new(0);
        t.on_strike(&cfg);
        assert_eq!(t.state(), PeerLiveness::Suspect);
        assert!(!t.on_heard(10, false), "not idle: strikes survive");
        assert_eq!(t.state(), PeerLiveness::Suspect);
        assert_eq!(t.strikes(), 1);
        // Ack progress clears everything.
        t.on_progress(20);
        assert_eq!(t.state(), PeerLiveness::Healthy);
        assert_eq!(t.strikes(), 0);
    }

    #[test]
    fn heartbeats_fire_on_idle_silence_and_strike_when_unanswered() {
        let cfg = NetConfig {
            heartbeat_interval: 100,
            suspect_strikes: 1,
            dead_strikes: 2,
            ..cfg()
        };
        let mut t = LivenessTracker::new(0);
        assert!(!t.heartbeat_due(50, &cfg), "not silent long enough");
        assert!(t.heartbeat_due(100, &cfg), "first ping after the interval");
        assert!(!t.heartbeat_due(150, &cfg), "one ping per interval");
        // Unanswered: the next due heartbeat charges a strike first.
        assert!(t.heartbeat_due(200, &cfg));
        assert_eq!(t.state(), PeerLiveness::Suspect);
        // The second unanswered ping exhausts the budget: dead, and no
        // further pings (zero datagram cost).
        assert!(!t.heartbeat_due(300, &cfg));
        assert_eq!(t.state(), PeerLiveness::Dead);
        assert!(!t.heartbeat_due(10_000, &cfg), "dead peers are not pinged");
        // An answered ping never strikes.
        let mut t = LivenessTracker::new(0);
        assert!(t.heartbeat_due(100, &cfg));
        t.on_heard(110, true);
        assert!(t.heartbeat_due(400, &cfg));
        assert_eq!(t.state(), PeerLiveness::Healthy);
    }

    #[test]
    fn clock_sync_estimates_a_symmetric_offset_exactly() {
        let mut c = ClockSync::new();
        assert_eq!(c.offset_ns(), 0);
        assert_eq!(c.samples(), 0);
        // Peer clock runs 1_000_000 ns ahead; 200 ns each way on the wire,
        // 50 ns remote hold. One exchange nails the offset (symmetric
        // path ⇒ zero systematic error).
        let t1 = 10_000;
        let t2 = t1 + 200 + 1_000_000;
        let t3 = t2 + 50;
        let t4 = t1 + 200 + 50 + 200;
        c.probe_sent(t1);
        assert!(c.on_pong(t1, t2, t3, t4));
        assert_eq!(c.offset_ns(), 1_000_000);
        assert_eq!(c.dispersion_ns(), 200, "half the 400 ns round trip");
        assert_eq!(c.samples(), 1);
    }

    #[test]
    fn clock_sync_rejects_unmatched_and_consumed_probes() {
        let mut c = ClockSync::new();
        // No probe outstanding: any pong is stale or forged.
        assert!(!c.on_pong(1, 2, 3, 4));
        c.probe_sent(100);
        // Echoed t1 does not match the outstanding probe.
        assert!(!c.on_pong(99, 200, 210, 300));
        // A re-probe invalidates the earlier stamp (Karn): its late reply
        // must not be accepted even though it once was legitimate.
        c.probe_sent(500);
        assert!(!c.on_pong(100, 200, 210, 300));
        // The matching reply is accepted exactly once.
        assert!(c.on_pong(500, 600, 610, 720));
        assert!(!c.on_pong(500, 600, 610, 720), "duplicate pong rejected");
        assert_eq!(c.samples(), 1);
    }

    #[test]
    fn clock_sync_survives_wraparound_and_rejects_negative_delay() {
        let mut c = ClockSync::new();
        // Stamps straddling the u64 wrap: our clock is just below MAX, the
        // peer's just past zero. True offset is +100, delay 40.
        let t1 = u64::MAX - 10;
        let t2 = t1.wrapping_add(20 + 100);
        let t3 = t2.wrapping_add(5);
        let t4 = t1.wrapping_add(45);
        c.probe_sent(t1);
        assert!(c.on_pong(t1, t2, t3, t4));
        assert_eq!(c.offset_ns(), 100);
        assert_eq!(c.dispersion_ns(), 20);
        // Damaged stamps implying a negative delay are dropped.
        c.probe_sent(1_000);
        assert!(!c.on_pong(1_000, 5_000, 9_000, 1_500));
        assert_eq!(c.samples(), 1);
    }

    #[test]
    fn clock_sync_reset_forgets_estimate_and_pending_probe() {
        let mut c = ClockSync::new();
        c.probe_sent(10);
        assert!(c.on_pong(10, 1_010, 1_020, 40));
        c.probe_sent(2_000);
        c.reset();
        assert_eq!(c.offset_ns(), 0);
        assert_eq!(c.dispersion_ns(), 0);
        assert_eq!(c.samples(), 0);
        assert!(
            !c.on_pong(2_000, 3_000, 3_010, 2_100),
            "probes from before the resync answer a dead incarnation"
        );
    }

    #[test]
    fn disabled_heartbeats_never_ping() {
        let cfg = NetConfig {
            heartbeat_interval: 0,
            ..cfg()
        };
        let mut t = LivenessTracker::new(0);
        assert!(!t.heartbeat_due(1_000_000, &cfg));
        assert_eq!(t.state(), PeerLiveness::Healthy);
    }

    #[test]
    fn credit_grant_clamps_the_sender_window() {
        let mut s = SenderPath::new(cfg()); // window 4
        assert_eq!(s.effective_window(), 4, "optimistic until advertised");
        assert!(!s.on_credit(2, 0), "no drop delta, no clamp");
        assert_eq!(s.effective_window(), 2);
        s.admit(0, bytes_for).unwrap();
        s.admit(0, bytes_for).unwrap();
        assert!(s.full(), "granted credit, not the configured window");
        assert!(s.credit_limited());
        assert!(s.admit(0, bytes_for).is_none());
        // A wider grant than the configured window never exceeds it.
        s.on_credit(1_000, 0);
        assert_eq!(s.effective_window(), 4);
        // A zero grant is clamped to 1: the path can always probe.
        s.on_credit(0, 0);
        assert_eq!(s.effective_window(), 1);
    }

    #[test]
    fn peer_drop_advances_clamp_the_window_once_per_delta() {
        let mut s = SenderPath::new(cfg());
        assert!(
            !s.on_credit(4, 7),
            "first advertisement only sets the baseline"
        );
        assert_eq!(s.effective_window(), 4);
        assert!(s.on_credit(4, 8), "fresh drops clamp below the grant");
        assert_eq!(s.effective_window(), 2);
        assert!(!s.on_credit(4, 8), "same counter, no re-clamp");
        assert_eq!(s.effective_window(), 4);
        // Wraparound-safe: a counter crossing u32::MAX is one small
        // forward delta, and a stale (backward) counter is not a clamp.
        assert!(!s.on_credit(4, u32::MAX));
        assert!(s.on_credit(4, 1), "wrapped forward delta clamps");
        assert!(!s.on_credit(4, 0), "backward (reordered) counter ignored");
        // Epoch reset forgets the grant and the baseline.
        s.reset_epoch();
        assert_eq!(s.effective_window(), 4);
        assert!(!s.on_credit(4, 1_000), "baseline re-established, no clamp");
    }

    #[test]
    fn grantor_shrinks_on_drops_and_regrows_additively() {
        let cfg = NetConfig { window: 8, ..cfg() };
        let mut g = CreditGrantor::new(&cfg);
        assert_eq!(g.window(), 8);
        // A clean round with deliveries holds at the ceiling.
        g.on_delivered(3);
        assert_eq!(g.advertise(), (8, 0, false));
        // Drops halve, repeatedly, down to the floor — never to zero.
        g.on_drop();
        assert_eq!(g.advertise(), (4, 1, true));
        g.on_drop();
        g.on_drop();
        assert_eq!(g.advertise(), (2, 3, true));
        g.on_drop();
        assert_eq!(g.advertise(), (1, 4, true));
        g.on_drop();
        let (w, _, shrank) = g.advertise();
        assert_eq!(w, 1, "floored at one frame");
        assert!(!shrank, "holding the floor is not a shrink");
        // Regrow needs delivery evidence: an idle round holds.
        assert_eq!(g.advertise().0, 1);
        // Then +1 per productive round, back to the ceiling, not past it.
        for want in 2..=8 {
            g.on_delivered(1);
            assert_eq!(g.advertise().0, want);
        }
        g.on_delivered(1);
        assert_eq!(g.advertise().0, 8, "capped at the configured window");
    }

    #[test]
    fn drr_is_free_when_uncontended_and_fair_when_contested() {
        let cfg = NetConfig {
            drr_quantum: 2,
            rto: 100,
            ..cfg()
        };
        let mut a = DrrArbiter::new(&cfg);
        // Alone on the path: endpoint 0 admits without limit.
        for _ in 0..20 {
            assert!(a.request(0, 0, 4));
        }
        // Endpoint 1 hits a full window and registers demand.
        assert!(!a.request(1, 1, 0));
        // Now contested: endpoint 0 gets at most one quantum before it
        // must yield to the waiter.
        let mut granted = 0;
        while a.request(0, 2, 4) {
            granted += 1;
            assert!(granted <= 2, "bulk exceeded its quantum while high waits");
        }
        // The waiter drains its own quantum.
        assert!(a.request(1, 3, 4));
        assert!(a.request(1, 3, 4));
        // Both spent: the round replenishes and both proceed again.
        assert!(a.request(0, 4, 4) || a.request(0, 4, 4));
        assert!(a.request(1, 4, 4) || a.request(1, 4, 4));
    }

    #[test]
    fn drr_stale_demand_expires_and_stops_throttling() {
        let cfg = NetConfig {
            drr_quantum: 1,
            rto: 100,
            ..cfg()
        };
        let mut a = DrrArbiter::new(&cfg);
        // Endpoint 1 is refused once and then never retries (producer
        // gone).
        assert!(!a.request(1, 0, 0));
        // Within the staleness horizon its demand throttles endpoint 0 to
        // quantum-sized rounds (which still make progress).
        assert!(a.request(0, 10, 4));
        // Past the horizon the ghost is forgotten: unlimited again.
        for now in 200..230 {
            assert!(a.request(0, now, 4), "stale waiter must not throttle");
        }
        // Reset clears everything.
        a.reset();
        for _ in 0..10 {
            assert!(a.request(0, 1_000, 4));
        }
    }
}
