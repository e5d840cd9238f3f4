//! The messaging engine: FLIPC's independently executing component.
//!
//! On the Paragon this code runs on the dedicated message coprocessor; here
//! it runs on a dedicated thread (see [`crate::thread`]) or is pumped
//! inline (the paper's run-inside-the-kernel debugging configuration; see
//! [`crate::node::InlineCluster`]). Either way it obeys the controller
//! discipline the paper designs for:
//!
//! * **Non-preemptible event loop with bounded work**: one [`Engine::iterate`]
//!   call performs at most a configured budget of receive deliveries and
//!   send transmissions, then returns — added work cannot starve unrelated
//!   communication.
//! * **Wait-free synchronization, loads and stores only**: all interaction
//!   with application threads goes through the three-pointer endpoint
//!   queues, header words, and two-location counters of `flipc-core`. The
//!   engine performs *no* read-modify-write on communication-buffer memory.
//! * **Optimistic transport**: frames are sent without acknowledgement; an
//!   arrival with no queued receive buffer is discarded and counted. Every
//!   node can therefore always accept from the interconnect, which avoids
//!   deadlock on a reliable fabric.
//! * **Priority-aware scanning at O(work)**: higher-importance send
//!   endpoints are serviced first, so message streams of varying
//!   importance (the distributed real-time requirement) see differentiated
//!   service. The engine keeps a private list of active send endpoints per
//!   importance class and rebuilds it only when a domain's endpoint-table
//!   epoch (`HDR_EP_EPOCH`, bumped by every endpoint allocate and free)
//!   changes, so a pass costs one epoch load per domain plus three record
//!   loads per active sender, not three per slot per class. Each cached
//!   entry is re-validated when used: a stale or corrupt epoch costs a
//!   rebuild, never a wrong send.

use flipc_core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flipc_core::buffer::BufferState;
use flipc_core::checks::{
    validate_backlog, validate_delivery_at, validate_queued_buffer, CheckMode,
};
use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointAddress, EndpointIndex, EndpointType, Importance};
use flipc_core::wait::WaitRegistry;
use flipc_obs::{EngineTelemetry, TraceKind, TraceWriter};

use crate::shaper::{Shaper, TokenBucket};
use crate::transport::Transport;
use crate::wire::Frame;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Validity checking of application-writable state.
    pub check_mode: CheckMode,
    /// Maximum arrivals delivered per iteration.
    pub incoming_budget: u32,
    /// Maximum sends transmitted per iteration.
    pub outgoing_budget: u32,
    /// Maximum frames collected from one send endpoint per drain pass
    /// (the batch the transport may coalesce into one datagram). Bounds
    /// how long one endpoint can hold the scan before equal-importance
    /// neighbours are serviced; the transport sees a `flush` at the end
    /// of every pass regardless. `0` is treated as `1`.
    pub max_batch: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            check_mode: CheckMode::Checked,
            incoming_budget: 64,
            outgoing_budget: 64,
            max_batch: 16,
        }
    }
}

/// Shared engine statistics (readable while the engine runs).
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Frames handed to the transport.
    pub sent: AtomicU64,
    /// Frames delivered into receive buffers.
    pub delivered: AtomicU64,
    /// Frames discarded because the destination endpoint had no buffer.
    pub dropped_no_buffer: AtomicU64,
    /// Frames discarded because the destination endpoint was stale,
    /// inactive, mistyped, or misrouted.
    pub misaddressed: AtomicU64,
    /// Validity-check failures on application-writable state.
    pub check_failures: AtomicU64,
    /// Sends suppressed by a protection domain's destination restriction.
    pub denied: AtomicU64,
    /// Sends failed because the transport's failure detector declared the
    /// destination node dead (the buffer completes and the endpoint's drop
    /// counter records the loss; see `Transport::peer_down`).
    pub peer_down: AtomicU64,
    /// Event-loop iterations executed.
    pub iterations: AtomicU64,
}

impl EngineStats {
    /// The engine is each counter's single writer, so a load plus a store
    /// counts exactly without a read-modify-write.
    fn bump(counter: &AtomicU64) {
        counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Sum of all frames that left the wire (delivered + discarded).
    pub fn total_arrivals(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
            + self.dropped_no_buffer.load(Ordering::Relaxed)
            + self.misaddressed.load(Ordering::Relaxed)
    }
}

/// One protection domain served by an engine: a communication buffer, its
/// wait registry, the node-global endpoint-index base its endpoints are
/// published at, and an optional restriction on where it may send.
///
/// Multiple domains per node are the paper's Future Work item: "Support
/// for multiple communication buffers per node and protection mechanisms
/// that restrict where messages can be sent should be added to support
/// multiple applications that do not trust each other." The engine is the
/// trusted component, so it is where the restriction is enforced.
pub struct Domain {
    /// The domain's communication buffer.
    pub cb: Arc<CommBuffer>,
    /// Wakeup registry for this domain's blocking receivers.
    pub registry: Arc<WaitRegistry>,
    /// Node-global index of this domain's endpoint slot 0. Domains must
    /// occupy disjoint index ranges; applications attach with
    /// [`flipc_core::api::Flipc::attach_at`] using the same base.
    pub index_base: u16,
    /// Destination nodes this domain may address; `None` = unrestricted.
    /// Denied sends are discarded, counted on the engine's `denied` stat
    /// and on the *send* endpoint's drop counter so the application can
    /// observe them.
    pub allowed_destinations: Option<Vec<flipc_core::endpoint::FlipcNodeId>>,
}

impl Domain {
    /// An unrestricted domain at index base 0 (the single-application
    /// configuration).
    pub fn unrestricted(cb: Arc<CommBuffer>, registry: Arc<WaitRegistry>) -> Domain {
        Domain {
            cb,
            registry,
            index_base: 0,
            allowed_destinations: None,
        }
    }

    fn endpoints(&self) -> u16 {
        self.cb.geometry().endpoints
    }

    fn contains_global(&self, global: u16) -> bool {
        global >= self.index_base && global - self.index_base < self.endpoints()
    }

    fn may_send_to(&self, node: flipc_core::endpoint::FlipcNodeId) -> bool {
        match &self.allowed_destinations {
            None => true,
            Some(list) => list.contains(&node),
        }
    }
}

/// The importance class of slot `idx` if it is an active send endpoint.
/// Three record loads: the same check whether a slot is listed or used.
fn send_class(cb: &CommBuffer, idx: EndpointIndex) -> Option<Importance> {
    match (
        cb.endpoint_gen_active(idx),
        cb.endpoint_type(idx),
        cb.endpoint_importance(idx),
    ) {
        (Ok((_, true)), Ok(EndpointType::Send), Ok(imp)) => Some(imp),
        _ => None,
    }
}

/// One cached send endpoint: its flat scan position and where it lives.
#[derive(Clone, Copy)]
struct SendSlot {
    flat: usize,
    dom: usize,
    idx: EndpointIndex,
}

/// The engine's private lists of active send endpoints, one per importance
/// class (indexed by `Importance as usize`), each in flat-position order.
struct ActiveSends {
    /// Each domain's endpoint-table epoch when the lists were built.
    epochs: Vec<u32>,
    lists: [Vec<SendSlot>; 3],
    /// A cached entry failed re-validation: rebuild on the next pass even
    /// if no epoch moved.
    stale: bool,
    /// Endpoint slots across all domains (the flat positions' modulus).
    slots: usize,
}

impl ActiveSends {
    /// Empty lists marked stale, so the first pass builds them. Each list
    /// is sized for every slot, so a rebuild never allocates.
    fn new(domains: &[Domain]) -> ActiveSends {
        let slots = domains.iter().map(|d| usize::from(d.endpoints())).sum();
        ActiveSends {
            epochs: vec![0; domains.len()],
            lists: std::array::from_fn(|_| Vec::with_capacity(slots)),
            stale: true,
            slots,
        }
    }
}

/// The messaging engine for one node.
pub struct Engine {
    domains: Vec<Domain>,
    transport: Box<dyn Transport>,
    cfg: EngineConfig,
    stats: Arc<EngineStats>,
    /// Flat scan position (domain slots laid end to end) where the next
    /// pass starts within each importance class.
    scan_cursor: usize,
    active: ActiveSends,
    shaper: Shaper,
    /// Always-on wait-free histograms (iteration work, per-endpoint
    /// send→deliver latency). The engine is the single recorder.
    telemetry: Arc<EngineTelemetry>,
    /// Optional event trace; the engine is the single producer.
    trace: Option<TraceWriter>,
}

impl Engine {
    /// Builds an engine over a communication buffer and a transport.
    ///
    /// The `registry` must be the one application handles on this node use
    /// for blocking receives.
    pub fn new(
        cb: Arc<CommBuffer>,
        transport: Box<dyn Transport>,
        registry: Arc<WaitRegistry>,
        cfg: EngineConfig,
    ) -> Engine {
        Engine::new_multi(vec![Domain::unrestricted(cb, registry)], transport, cfg)
    }

    /// Builds an engine serving several protection domains (multiple
    /// communication buffers) over one transport.
    ///
    /// # Panics
    ///
    /// Panics if any buffer is uninitialized, a domain's index range runs
    /// past the last node-global endpoint index (65,535), or domain index
    /// ranges overlap.
    pub fn new_multi(
        domains: Vec<Domain>,
        transport: Box<dyn Transport>,
        cfg: EngineConfig,
    ) -> Engine {
        assert!(!domains.is_empty(), "engine needs at least one domain");
        let end = |d: &Domain| usize::from(d.index_base) + usize::from(d.endpoints());
        for d in &domains {
            assert!(d.cb.magic_ok(), "communication buffer not initialized");
            assert!(
                end(d) <= 65_536,
                "endpoint-index range runs past the u16 index space"
            );
        }
        for (i, a) in domains.iter().enumerate() {
            for b in domains.iter().skip(i + 1) {
                assert!(
                    end(a) <= usize::from(b.index_base) || end(b) <= usize::from(a.index_base),
                    "domain endpoint-index ranges overlap"
                );
            }
        }
        // Telemetry spans the node-global endpoint index space so latency
        // samples land on the index applications see in addresses.
        let total_endpoints = domains.iter().map(end).max().unwrap_or(0);
        let active = ActiveSends::new(&domains);
        Engine {
            domains,
            transport,
            cfg,
            stats: Arc::new(EngineStats::default()),
            scan_cursor: 0,
            active,
            shaper: Shaper::new(),
            telemetry: EngineTelemetry::new(total_endpoints),
            trace: None,
        }
    }

    /// Installs a transmit rate limit (capacity control, the paper's
    /// Future Work item 4) on endpoint slot `ep`: at most
    /// `bytes_per_iteration` payload bytes per event-loop pass, with up to
    /// `burst` bytes of accumulated credit. Messages over the limit stay
    /// queued — nothing is dropped.
    /// (`ep` is the node-global endpoint index: domain base + slot.)
    pub fn set_rate_limit(&mut self, ep: EndpointIndex, bytes_per_iteration: u64, burst: u64) {
        self.shaper
            .limit(ep.0, TokenBucket::new(bytes_per_iteration, burst));
    }

    /// Removes a previously installed rate limit.
    pub fn clear_rate_limit(&mut self, ep: EndpointIndex) {
        self.shaper.unlimit(ep.0);
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<EngineStats> {
        self.stats.clone()
    }

    /// Shared telemetry handle: loads-only histogram snapshots of
    /// iteration work and per-endpoint send→deliver latency, readable
    /// while the engine runs (same inspect discipline as
    /// [`flipc_core::inspect`]).
    pub fn telemetry(&self) -> Arc<EngineTelemetry> {
        self.telemetry.clone()
    }

    /// Installs the producer half of a trace ring; subsequent engine
    /// activity emits [`TraceKind`] events into it. The engine never
    /// blocks on a full ring — overflow events are dropped and tallied on
    /// the ring's lost counter.
    pub fn set_trace(&mut self, trace: TraceWriter) {
        self.trace = Some(trace);
    }

    /// Builds a trace ring of `capacity` events, installs its producer
    /// half on this engine, and hands back the consumer half — the
    /// one-call form of [`Engine::set_trace`] used by observers
    /// (`flipc-top`, the stall monitor).
    pub fn install_trace(&mut self, capacity: usize) -> flipc_obs::TraceReader {
        let (w, r) = flipc_obs::trace_ring(capacity);
        self.set_trace(w);
        r
    }

    /// A loads-only snapshot of the transport's reliability state, when
    /// the transport keeps one (`None` for in-process carriers). Observer
    /// surface — never called from the event loop.
    pub fn transport_snapshot(&self) -> Option<flipc_core::inspect::TransportSnapshot> {
        self.transport.snapshot()
    }

    /// The node this engine serves.
    pub fn node(&self) -> flipc_core::endpoint::FlipcNodeId {
        self.transport.local_node()
    }

    /// Runs one bounded event-loop iteration; returns the number of
    /// messages moved (sent + delivered + discarded). Zero means idle.
    pub fn iterate(&mut self) -> u32 {
        EngineStats::bump(&self.stats.iterations);
        self.shaper.tick();
        let mut work = 0;
        work += self.pump_incoming();
        work += self.pump_outgoing();
        // Telemetry rides the loop's tail: one wait-free histogram record
        // of how much this pass moved (the engine's occupancy signal), and
        // a trace event for any reliability-layer retransmissions the
        // transport performed while we pumped it.
        self.telemetry.record_iteration_work(u64::from(work));
        if let Some(t) = self.trace.as_mut() {
            let rexmit = self.transport.retransmits_since_poll();
            if rexmit > 0 {
                t.event(
                    TraceKind::Retransmit,
                    self.transport.local_node().0,
                    u16::MAX,
                    rexmit,
                );
            }
        }
        work
    }

    // ------------------------------------------------------------------
    // Receive path.
    // ------------------------------------------------------------------

    fn pump_incoming(&mut self) -> u32 {
        let mut done = 0;
        while done < self.cfg.incoming_budget {
            let Some(frame) = self.transport.try_recv() else {
                break;
            };
            self.deliver(frame);
            done += 1;
        }
        done
    }

    fn deliver(&mut self, frame: Frame) {
        let local = self.transport.local_node();
        // Route to the protection domain owning the destination index.
        let Some(dom) = self
            .domains
            .iter()
            .position(|d| d.contains_global(frame.dst.index().0))
        else {
            // No domain owns the index: misaddressed at node scope; count
            // it on the first domain's buffer so applications can observe
            // it (there is always at least one domain).
            self.domains[0].cb.misaddressed_engine().increment();
            EngineStats::bump(&self.stats.misaddressed);
            if let Some(t) = self.trace.as_mut() {
                t.event(TraceKind::Misaddressed, local.0, frame.dst.index().0, 0);
            }
            return;
        };
        let domain = &self.domains[dom];
        let cb = &domain.cb;
        let didx = match validate_delivery_at(cb, local, frame.dst, domain.index_base) {
            Ok(i) => i,
            Err(_) => {
                cb.misaddressed_engine().increment();
                EngineStats::bump(&self.stats.misaddressed);
                if let Some(t) = self.trace.as_mut() {
                    t.event(TraceKind::Misaddressed, local.0, frame.dst.index().0, 0);
                }
                return;
            }
        };
        let Ok(q) = cb.engine_queue(didx) else {
            EngineStats::bump(&self.stats.misaddressed);
            return;
        };
        if self.cfg.check_mode == CheckMode::Checked && validate_backlog(&q).is_err() {
            // Corrupted release pointer: treat the endpoint as having no
            // usable buffers; the message is discarded and counted.
            Self::count_drop(&self.stats, &mut self.trace, local.0, cb, didx, &frame);
            EngineStats::bump(&self.stats.check_failures);
            return;
        }
        let Some(buf) = q.peek() else {
            // The defining optimistic-transport move: no receive buffer
            // queued, so the message is discarded and the wait-free drop
            // counter ticks. The application learns via `drops()`.
            Self::count_drop(&self.stats, &mut self.trace, local.0, cb, didx, &frame);
            return;
        };
        if self.cfg.check_mode == CheckMode::Checked && validate_queued_buffer(cb, buf).is_err() {
            // The ring slot held garbage. Skip the slot (bounded: one per
            // arrival) and count both a check failure and a drop.
            q.advance();
            Self::count_drop(&self.stats, &mut self.trace, local.0, cb, didx, &frame);
            EngineStats::bump(&self.stats.check_failures);
            return;
        }
        let n = frame.payload.len().min(cb.payload_size());
        // SAFETY: The engine owns `buf` between `peek` and `advance`; no
        // application thread may access it until the process pointer moves.
        unsafe { cb.payload_write(buf, &frame.payload[..n]) };
        cb.header(buf).store(frame.src, BufferState::Processed);
        q.advance();
        EngineStats::bump(&self.stats.delivered);
        // Send→deliver latency: only frames stamped by an engine whose
        // clock we share (node-local bypass and in-process transports; an
        // off-the-wire decode leaves the stamp 0, because two processes'
        // monotonic clocks are not comparable).
        if frame.stamp_ns != 0 {
            self.telemetry.record_deliver_latency(
                usize::from(frame.dst.index().0),
                flipc_obs::now_ns().saturating_sub(frame.stamp_ns),
            );
        }
        if let Some(t) = self.trace.as_mut() {
            t.event(TraceKind::Deliver, local.0, frame.dst.index().0, n as u32);
        }
        // The `advance` store must be globally visible before the waiter
        // count is read: a blocking receiver raises its count, fences, and
        // re-polls the ring, so with this fence at least one side always
        // sees the other (plain Release/Acquire would let the StoreLoad
        // pair reorder and the wakeup get lost).
        flipc_core::sync::atomic::fence(Ordering::SeqCst);
        // Kernel-wakeup role: only if a thread said it was blocking.
        let waiters = cb.waiters(didx).unwrap_or(0);
        if waiters > 0 {
            domain.registry.wake(didx);
            if let Some(t) = self.trace.as_mut() {
                t.event(TraceKind::Wakeup, local.0, frame.dst.index().0, waiters);
            }
        }
    }

    fn count_drop(
        stats: &EngineStats,
        trace: &mut Option<TraceWriter>,
        node: u16,
        cb: &CommBuffer,
        ep: EndpointIndex,
        frame: &Frame,
    ) {
        if let Ok(c) = cb.drops_engine(ep) {
            c.increment();
        }
        EngineStats::bump(&stats.dropped_no_buffer);
        if let Some(t) = trace.as_mut() {
            t.event(
                TraceKind::Drop,
                node,
                frame.dst.index().0,
                frame.payload.len() as u32,
            );
        }
    }

    // ------------------------------------------------------------------
    // Send path.
    // ------------------------------------------------------------------

    fn pump_outgoing(&mut self) -> u32 {
        self.refresh_active_sends();
        let mut budget = self.cfg.outgoing_budget;
        let mut done = 0;
        // Importance classes high to low across ALL domains; rotate the
        // start within a class so equal-importance endpoints share service
        // fairly. Each class walks its cached list from the first entry at
        // or after the cursor, which is the order a full sweep of the slots
        // from the cursor would visit them in.
        let cursor = self.scan_cursor;
        let mut last_served: Option<usize> = None;
        for importance in [Importance::High, Importance::Normal, Importance::Low] {
            let list = &self.active.lists[importance as usize];
            let len = list.len();
            let start = list.partition_point(|s| s.flat < cursor);
            for k in 0..len {
                if budget == 0 {
                    break;
                }
                let slot = self.active.lists[importance as usize][(start + k) % len];
                if send_class(&self.domains[slot.dom].cb, slot.idx) != Some(importance) {
                    // The slot changed under a stale epoch: skip it and
                    // rebuild the lists on the next pass.
                    self.active.stale = true;
                    continue;
                }
                let moved = self.drain_send_endpoint(slot.dom, slot.idx, &mut budget);
                if moved > 0 {
                    last_served = Some(slot.flat);
                }
                done += moved;
            }
        }
        // True round-robin: the next pass starts just after the endpoint
        // that transmitted last, so equal-importance endpoints share
        // service even under a tight budget.
        let n = self.active.slots;
        self.scan_cursor = match last_served {
            Some(flat) => (flat + 1) % n,
            None => (cursor + 1) % n,
        };
        // End of the drain pass: the batch boundary. A coalescing
        // transport transmits everything staged above; eager transports
        // no-op.
        self.transport.flush();
        done
    }

    /// Rebuilds the active-send lists when any domain's endpoint-table
    /// epoch moved since the last build, or a cached entry failed
    /// re-validation. The epochs are read before the slots, so a change
    /// racing with the rebuild shows up as a new epoch next pass.
    fn refresh_active_sends(&mut self) {
        let mut changed = self.active.stale;
        for (seen, d) in self.active.epochs.iter_mut().zip(&self.domains) {
            let epoch = d.cb.endpoint_epoch();
            if *seen != epoch {
                *seen = epoch;
                changed = true;
            }
        }
        if !changed {
            return;
        }
        self.active.stale = false;
        for list in &mut self.active.lists {
            list.clear();
        }
        let mut flat = 0;
        for (dom, d) in self.domains.iter().enumerate() {
            for i in 0..d.endpoints() {
                let idx = EndpointIndex(i);
                if let Some(imp) = send_class(&d.cb, idx) {
                    self.active.lists[imp as usize].push(SendSlot { flat, dom, idx });
                }
                flat += 1;
            }
        }
    }

    /// Transmits queued messages from one endpoint until it drains, the
    /// per-endpoint batch cap (`max_batch`) is reached, the budget runs
    /// out, or the wire backpressures. The frames collected here form one
    /// batch from the transport's point of view: it may stage them and
    /// coalesce on the end-of-pass [`Transport::flush`].
    fn drain_send_endpoint(&mut self, dom: usize, idx: EndpointIndex, budget: &mut u32) -> u32 {
        let max_batch = self.cfg.max_batch.max(1);
        let mut done = 0;
        let index_base = self.domains[dom].index_base;
        let payload_size = self.domains[dom].cb.payload_size();
        while *budget > 0 && done < max_batch {
            // Borrowed afresh each turn: the borrow ends before the
            // node-local `deliver`, so no refcount RMW is needed.
            let cb: &CommBuffer = &self.domains[dom].cb;
            let Ok(q) = cb.engine_queue(idx) else { break };
            if self.cfg.check_mode == CheckMode::Checked && validate_backlog(&q).is_err() {
                // Corrupted queue: skip the endpoint entirely this pass.
                EngineStats::bump(&self.stats.check_failures);
                break;
            }
            let Some(buf) = q.peek() else { break };
            if self.cfg.check_mode == CheckMode::Checked && validate_queued_buffer(cb, buf).is_err()
            {
                q.advance();
                EngineStats::bump(&self.stats.check_failures);
                *budget -= 1;
                continue;
            }
            let global_idx = index_base + idx.0;
            // Capacity control: if this endpoint's token bucket cannot
            // cover the message, leave it queued and move on.
            if !self.shaper.admit(global_idx, payload_size as u64) {
                break;
            }
            let (dest, _) = cb.header(buf).load();
            let Ok((gen, _)) = cb.endpoint_gen_active(idx) else {
                break;
            };

            // Protection: an untrusting-domain configuration restricts
            // where this buffer's messages may go. Denied messages are
            // discarded (the buffer completes so the application can
            // reclaim it) and counted on the send endpoint's drop counter.
            if !self.domains[dom].may_send_to(dest.node()) {
                cb.header(buf).set_state(BufferState::Processed);
                q.advance();
                if let Ok(c) = cb.drops_engine(idx) {
                    c.increment();
                }
                EngineStats::bump(&self.stats.denied);
                *budget -= 1;
                continue;
            }

            // Peer lifecycle: a destination declared dead by the failure
            // detector fails fast instead of black-holing. The buffer
            // completes (the application reclaims it), the loss lands on
            // the endpoint's drop counter, and the transport spends no
            // datagram. The peer's return re-admits it automatically.
            if dest.node() != self.transport.local_node() && self.transport.peer_down(dest.node()) {
                cb.header(buf).set_state(BufferState::Processed);
                q.advance();
                if let Ok(c) = cb.drops_engine(idx) {
                    c.increment();
                }
                EngineStats::bump(&self.stats.peer_down);
                *budget -= 1;
                continue;
            }

            let src =
                EndpointAddress::new(self.transport.local_node(), EndpointIndex(global_idx), gen);
            let mut payload = vec![0u8; payload_size].into_boxed_slice();
            // SAFETY: The engine owns `buf` between `peek` and `advance`.
            unsafe { cb.payload_read(buf, &mut payload) };
            let frame = Frame {
                src,
                dst: dest,
                payload,
                // Stamped at transmit: the delivery path (here for the
                // node-local bypass, a peer engine sharing our clock for
                // in-process transports) turns this into a send→deliver
                // latency sample.
                stamp_ns: flipc_obs::now_ns(),
            };

            if dest.node() == self.transport.local_node() {
                // Node-local delivery bypasses the interconnect (possibly
                // into another domain on this node). Mark the send
                // complete first (releasing the queue view, since
                // `deliver` needs `&mut self`), then deliver.
                cb.header(buf).set_state(BufferState::Processed);
                q.advance();
                self.deliver(frame);
            } else {
                if !self.transport.try_send(dest.node(), &frame) {
                    // Wire full: leave the buffer queued (do NOT advance)
                    // and retry on a later iteration. Bounded: we stop
                    // this endpoint now.
                    break;
                }
                cb.header(buf).set_state(BufferState::Processed);
                q.advance();
            }
            EngineStats::bump(&self.stats.sent);
            if let Some(t) = self.trace.as_mut() {
                t.event(
                    TraceKind::Send,
                    self.transport.local_node().0,
                    global_idx,
                    payload_size as u32,
                );
            }
            *budget -= 1;
            done += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::fabric;
    use flipc_core::api::Flipc;
    use flipc_core::endpoint::FlipcNodeId;
    use flipc_core::layout::Geometry;

    struct World {
        flipc: Vec<Flipc>,
        engines: Vec<Engine>,
    }

    fn world(n: usize) -> World {
        world_with(n, EngineConfig::default(), Geometry::small())
    }

    fn world_with(n: usize, cfg: EngineConfig, geo: Geometry) -> World {
        let ports = fabric(n, 64);
        let mut flipc = Vec::new();
        let mut engines = Vec::new();
        for (i, port) in ports.into_iter().enumerate() {
            let cb = Arc::new(CommBuffer::new(geo).unwrap());
            let registry = WaitRegistry::new();
            flipc.push(Flipc::attach(
                cb.clone(),
                FlipcNodeId(i as u16),
                registry.clone(),
            ));
            engines.push(Engine::new(cb, Box::new(port), registry, cfg));
        }
        World { flipc, engines }
    }

    impl World {
        fn pump(&mut self) {
            // A few sweeps so sends on node A arrive at node B within one
            // call even with local+remote hops.
            for _ in 0..4 {
                for e in &mut self.engines {
                    e.iterate();
                }
            }
        }
    }

    fn send_bytes(
        f: &Flipc,
        ep: &flipc_core::api::LocalEndpoint,
        dest: EndpointAddress,
        data: &[u8],
    ) {
        let mut t = f.buffer_allocate().unwrap();
        f.payload_mut(&mut t)[..data.len()].copy_from_slice(data);
        f.send(ep, t, dest).unwrap();
    }

    #[test]
    fn end_to_end_delivery_between_nodes() {
        let mut w = world(2);
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        let buf = w.flipc[1].buffer_allocate().unwrap();
        w.flipc[1]
            .provide_receive_buffer(&rx, buf)
            .map_err(|r| r.error)
            .unwrap();

        send_bytes(&w.flipc[0], &tx, dest, b"hello paragon");
        w.pump();

        let got = w.flipc[1].recv(&rx).unwrap().unwrap();
        assert_eq!(&w.flipc[1].payload(&got.token)[..13], b"hello paragon");
        assert_eq!(got.from.node(), FlipcNodeId(0));
        // Sender can reclaim its buffer (step 5).
        let back = w.flipc[0].reclaim_send(&tx).unwrap();
        assert!(back.is_some());
    }

    #[test]
    fn node_local_delivery_bypasses_the_wire() {
        let mut w = world(1);
        let f = &w.flipc[0];
        let tx = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = f
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = f.address(&rx);
        let b = f.buffer_allocate().unwrap();
        f.provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
        send_bytes(f, &tx, dest, b"local");
        w.engines[0].iterate();
        let got = w.flipc[0].recv(&rx).unwrap().unwrap();
        assert_eq!(&w.flipc[0].payload(&got.token)[..5], b"local");
    }

    #[test]
    fn ordering_is_preserved_per_endpoint_pair() {
        let mut w = world(2);
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        for _ in 0..16 {
            let b = w.flipc[1].buffer_allocate().unwrap();
            w.flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        for i in 0..10u8 {
            send_bytes(&w.flipc[0], &tx, dest, &[i]);
            // Reclaim as we go so the send ring never fills.
            let _ = w.flipc[0].reclaim_send(&tx);
            w.pump();
        }
        for i in 0..10u8 {
            let got = w.flipc[1].recv(&rx).unwrap().unwrap();
            assert_eq!(w.flipc[1].payload(&got.token)[0], i, "out of order");
        }
    }

    #[test]
    fn no_receive_buffer_discards_and_counts() {
        let mut w = world(2);
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        for i in 0..5u8 {
            send_bytes(&w.flipc[0], &tx, dest, &[i]);
        }
        w.pump();
        assert_eq!(w.flipc[1].drops_reset(&rx).unwrap(), 5);
        assert!(w.flipc[1].recv(&rx).unwrap().is_none());
        // The sender's buffers still complete: optimistic send never blocks
        // on the receiver.
        let mut reclaimed = 0;
        while w.flipc[0].reclaim_send(&tx).unwrap().is_some() {
            reclaimed += 1;
        }
        assert_eq!(reclaimed, 5);
    }

    #[test]
    fn stale_address_is_misaddressed_not_delivered() {
        let mut w = world(2);
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let stale = w.flipc[1].address(&rx);
        // Free and reallocate the endpoint: the old address's generation is
        // now stale.
        w.flipc[1].endpoint_free(rx).unwrap();
        let rx2 = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let b = w.flipc[1].buffer_allocate().unwrap();
        w.flipc[1]
            .provide_receive_buffer(&rx2, b)
            .map_err(|r| r.error)
            .unwrap();

        send_bytes(&w.flipc[0], &tx, stale, b"ghost");
        w.pump();
        assert!(
            w.flipc[1].recv(&rx2).unwrap().is_none(),
            "stale traffic must not leak"
        );
        assert_eq!(w.flipc[1].misaddressed_reset(), 1);
        assert_eq!(w.engines[1].stats().misaddressed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn high_importance_sends_first() {
        // Queue on a low-importance endpoint first, then a high one; with a
        // tiny outgoing budget the high-importance message must still win.
        let cfg = EngineConfig {
            outgoing_budget: 1,
            ..Default::default()
        };
        let mut w = world_with(2, cfg, Geometry::small());
        let lo = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Low)
            .unwrap();
        let hi = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::High)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        for _ in 0..4 {
            let b = w.flipc[1].buffer_allocate().unwrap();
            w.flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        send_bytes(&w.flipc[0], &lo, dest, b"maintenance");
        send_bytes(&w.flipc[0], &hi, dest, b"missile!");
        // One outgoing slot this iteration: the high-importance endpoint
        // gets it despite being queued later.
        w.engines[0].iterate();
        w.engines[1].iterate();
        let first = w.flipc[1].recv(&rx).unwrap().unwrap();
        assert_eq!(&w.flipc[1].payload(&first.token)[..8], b"missile!");
    }

    #[test]
    fn wire_backpressure_retries_without_loss() {
        // Wire depth 2, but 6 messages queued: the engine must deliver all
        // of them across iterations without losing or reordering any.
        let ports = fabric(2, 2);
        let geo = Geometry::small();
        let mut flipc = Vec::new();
        let mut engines = Vec::new();
        for (i, port) in ports.into_iter().enumerate() {
            let cb = Arc::new(CommBuffer::new(geo).unwrap());
            let registry = WaitRegistry::new();
            flipc.push(Flipc::attach(
                cb.clone(),
                FlipcNodeId(i as u16),
                registry.clone(),
            ));
            engines.push(Engine::new(
                cb,
                Box::new(port),
                registry,
                EngineConfig::default(),
            ));
        }
        let tx = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        for _ in 0..8 {
            let b = flipc[1].buffer_allocate().unwrap();
            flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        for i in 0..6u8 {
            let mut t = flipc[0].buffer_allocate().unwrap();
            flipc[0].payload_mut(&mut t)[0] = i;
            flipc[0].send(&tx, t, dest).unwrap();
        }
        for _ in 0..10 {
            engines[0].iterate();
            engines[1].iterate();
        }
        for i in 0..6u8 {
            let got = flipc[1].recv(&rx).unwrap().unwrap();
            assert_eq!(flipc[1].payload(&got.token)[0], i);
        }
        assert_eq!(flipc[1].drops_reset(&rx).unwrap(), 0);
    }

    #[test]
    fn corrupted_ring_slot_cannot_stall_the_engine() {
        let mut w = world(2);
        let f = &w.flipc[0];
        let tx = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        // Errant application: scribble an out-of-range buffer index into
        // the ring and bump release by smashing raw words.
        let lay = f.commbuf().layout();
        let slot_off = lay.ring_slot(tx.index().0, 0);
        f.commbuf()
            .raw_word(slot_off)
            .store(0xFFFF_FFFF, Ordering::Relaxed);
        let rel_off = lay.endpoint(tx.index().0) + flipc_core::layout::EP_RELEASE;
        f.commbuf().raw_word(rel_off).store(1, Ordering::Relaxed);

        // The engine must complete its iteration, flag the check failure,
        // and keep serving other traffic.
        let stats = w.engines[0].stats();
        w.engines[0].iterate();
        assert!(stats.check_failures.load(Ordering::Relaxed) >= 1);

        // Other endpoints still work end to end.
        let tx2 = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        let b = w.flipc[1].buffer_allocate().unwrap();
        w.flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
        send_bytes(&w.flipc[0], &tx2, dest, b"alive");
        w.pump();
        assert!(w.flipc[1].recv(&rx).unwrap().unwrap().token.index() < 64);
    }

    #[test]
    fn iteration_work_is_bounded_by_budget() {
        let cfg = EngineConfig {
            incoming_budget: 4,
            outgoing_budget: 4,
            ..Default::default()
        };
        let mut w = world_with(
            2,
            cfg,
            Geometry {
                ring_capacity: 32,
                ..Geometry::small()
            },
        );
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        for i in 0..20u8 {
            send_bytes(&w.flipc[0], &tx, dest, &[i]);
        }
        // One iteration can move at most outgoing_budget messages.
        let moved = w.engines[0].iterate();
        assert!(moved <= 4, "engine exceeded its bounded work ({moved})");
        assert_eq!(w.engines[0].stats().sent.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn blocking_receiver_is_woken_by_engine() {
        let mut w = world(2);
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        let b = w.flipc[1].buffer_allocate().unwrap();
        w.flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();

        // Run the receiving app on another thread; pump engines here.
        let replacement = Flipc::attach(
            w.flipc[1].commbuf().clone(),
            FlipcNodeId(1),
            w.flipc[1].registry().clone(),
        );
        let f1 = std::mem::replace(&mut w.flipc[1], replacement);
        let waiter = std::thread::spawn(move || {
            let got = f1
                .recv_blocking(&rx, std::time::Duration::from_secs(10))
                .unwrap();
            f1.payload(&got.token)[0]
        });
        while w.flipc[1].commbuf().waiters(EndpointIndex(0)).unwrap() == 0 {
            std::thread::yield_now();
        }
        send_bytes(&w.flipc[0], &tx, dest, &[42]);
        w.pump();
        assert_eq!(waiter.join().unwrap(), 42);
    }
}

#[cfg(test)]
mod shaping_tests {
    use super::*;
    use crate::loopback::fabric;
    use flipc_core::api::Flipc;
    use flipc_core::endpoint::FlipcNodeId;
    use flipc_core::layout::Geometry;

    /// Capacity control (Future Work item 4): a rate-limited endpoint's
    /// throughput is capped while an unlimited endpoint on the same node
    /// flows freely, and no limited message is ever dropped — it just
    /// waits.
    #[test]
    fn rate_limited_endpoint_is_throttled_not_dropped() {
        let geo = Geometry {
            ring_capacity: 32,
            buffers: 128,
            ..Geometry::small()
        };
        let ports = fabric(2, 256);
        let mut flipc = Vec::new();
        let mut engines = Vec::new();
        for (i, port) in ports.into_iter().enumerate() {
            let cb = Arc::new(CommBuffer::new(geo).unwrap());
            let registry = WaitRegistry::new();
            flipc.push(Flipc::attach(
                cb.clone(),
                FlipcNodeId(i as u16),
                registry.clone(),
            ));
            engines.push(Engine::new(
                cb,
                Box::new(port),
                registry,
                EngineConfig::default(),
            ));
        }
        let limited = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let free = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        for _ in 0..32 {
            let b = flipc[1].buffer_allocate().unwrap();
            flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        // One 120-byte payload per iteration for the limited endpoint.
        let payload = flipc[0].payload_size() as u64;
        engines[0].set_rate_limit(limited.index(), payload, payload);

        for i in 0..8u8 {
            let mut t = flipc[0].buffer_allocate().unwrap();
            flipc[0].payload_mut(&mut t)[0] = i;
            flipc[0].send(&limited, t, dest).unwrap();
            let mut t = flipc[0].buffer_allocate().unwrap();
            flipc[0].payload_mut(&mut t)[0] = 100 + i;
            flipc[0].send(&free, t, dest).unwrap();
        }
        // One iteration: the free endpoint drains entirely; the limited
        // one sends exactly one message (its per-iteration budget).
        engines[0].iterate();
        engines[1].iterate();
        let mut limited_got = 0;
        let mut free_got = 0;
        while let Some(r) = flipc[1].recv(&rx).unwrap() {
            if flipc[1].payload(&r.token)[0] >= 100 {
                free_got += 1;
            } else {
                limited_got += 1;
            }
        }
        assert_eq!(free_got, 8, "unlimited endpoint must drain in one pass");
        assert_eq!(
            limited_got, 1,
            "limited endpoint gets one message per iteration"
        );

        // The rest arrive over subsequent iterations — throttled, never
        // dropped.
        for _ in 0..10 {
            engines[0].iterate();
            engines[1].iterate();
        }
        while let Some(r) = flipc[1].recv(&rx).unwrap() {
            assert!(flipc[1].payload(&r.token)[0] < 100);
            limited_got += 1;
        }
        assert_eq!(limited_got, 8);
        assert_eq!(flipc[1].drops_reset(&rx).unwrap(), 0);
    }

    /// Clearing a limit restores full-speed service.
    #[test]
    fn clear_rate_limit_restores_throughput() {
        let geo = Geometry {
            ring_capacity: 32,
            buffers: 128,
            ..Geometry::small()
        };
        let ports = fabric(2, 256);
        let mut flipc = Vec::new();
        let mut engines = Vec::new();
        for (i, port) in ports.into_iter().enumerate() {
            let cb = Arc::new(CommBuffer::new(geo).unwrap());
            let registry = WaitRegistry::new();
            flipc.push(Flipc::attach(
                cb.clone(),
                FlipcNodeId(i as u16),
                registry.clone(),
            ));
            engines.push(Engine::new(
                cb,
                Box::new(port),
                registry,
                EngineConfig::default(),
            ));
        }
        let tx = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        for _ in 0..16 {
            let b = flipc[1].buffer_allocate().unwrap();
            flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        engines[0].set_rate_limit(tx.index(), 0, 0); // fully blocked
        for _ in 0..4 {
            let t = flipc[0].buffer_allocate().unwrap();
            flipc[0].send(&tx, t, dest).unwrap();
        }
        for _ in 0..5 {
            engines[0].iterate();
            engines[1].iterate();
        }
        assert!(
            flipc[1].recv(&rx).unwrap().is_none(),
            "blocked endpoint leaked"
        );
        engines[0].clear_rate_limit(tx.index());
        for _ in 0..3 {
            engines[0].iterate();
            engines[1].iterate();
        }
        let mut got = 0;
        while flipc[1].recv(&rx).unwrap().is_some() {
            got += 1;
        }
        assert_eq!(got, 4);
    }
}

#[cfg(test)]
mod fairness_tests {
    use super::*;
    use crate::loopback::fabric;
    use flipc_core::api::Flipc;
    use flipc_core::endpoint::FlipcNodeId;
    use flipc_core::layout::Geometry;

    /// Equal-importance endpoints share service round-robin: with a
    /// one-message budget per iteration, busy endpoints alternate rather
    /// than one draining completely first.
    #[test]
    fn equal_importance_endpoints_share_service() {
        let geo = Geometry {
            ring_capacity: 32,
            buffers: 128,
            ..Geometry::small()
        };
        let ports = fabric(2, 256);
        let mut flipc = Vec::new();
        let mut engines = Vec::new();
        let cfg = EngineConfig {
            outgoing_budget: 1,
            ..Default::default()
        };
        for (i, port) in ports.into_iter().enumerate() {
            let cb = Arc::new(CommBuffer::new(geo).unwrap());
            let registry = WaitRegistry::new();
            flipc.push(Flipc::attach(
                cb.clone(),
                FlipcNodeId(i as u16),
                registry.clone(),
            ));
            engines.push(Engine::new(cb, Box::new(port), registry, cfg));
        }
        let ep_a = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let ep_b = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        for _ in 0..16 {
            let b = flipc[1].buffer_allocate().unwrap();
            flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        for i in 0..4u8 {
            for (tag, ep) in [(b'a', &ep_a), (b'b', &ep_b)] {
                let mut t = flipc[0].buffer_allocate().unwrap();
                flipc[0].payload_mut(&mut t)[0] = tag;
                flipc[0].payload_mut(&mut t)[1] = i;
                flipc[0].send(ep, t, dest).unwrap();
            }
        }
        // Eight iterations at one message each: arrivals must alternate
        // a/b rather than aaaa bbbb.
        let mut order = Vec::new();
        for _ in 0..8 {
            engines[0].iterate();
            engines[1].iterate();
            while let Some(r) = flipc[1].recv(&rx).unwrap() {
                order.push(flipc[1].payload(&r.token)[0]);
            }
        }
        assert_eq!(order.len(), 8);
        let max_consecutive = order
            .windows(2)
            .fold((1u32, 1u32), |(max, cur), w| {
                if w[0] == w[1] {
                    (max.max(cur + 1), cur + 1)
                } else {
                    (max, 1)
                }
            })
            .0;
        assert!(
            max_consecutive <= 2,
            "service not shared: arrival order {:?}",
            order.iter().map(|&c| c as char).collect::<String>()
        );
    }
}

#[cfg(test)]
mod lifecycle_tests {
    use super::*;
    use crate::loopback::fabric;
    use flipc_core::api::Flipc;
    use flipc_core::endpoint::FlipcNodeId;
    use flipc_core::layout::Geometry;

    fn pair() -> (Vec<Flipc>, Vec<Engine>) {
        let ports = fabric(2, 64);
        let mut flipc = Vec::new();
        let mut engines = Vec::new();
        for (i, port) in ports.into_iter().enumerate() {
            let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
            let registry = WaitRegistry::new();
            flipc.push(Flipc::attach(
                cb.clone(),
                FlipcNodeId(i as u16),
                registry.clone(),
            ));
            engines.push(Engine::new(
                cb,
                Box::new(port),
                registry,
                EngineConfig::default(),
            ));
        }
        (flipc, engines)
    }

    /// An endpoint freed after its queue drains is skipped by subsequent
    /// scans, and a reallocated slot starts clean for the next tenant.
    #[test]
    fn freed_endpoint_is_skipped_and_slot_reuse_is_clean() {
        let (flipc, mut engines) = pair();
        let tx = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        let b = flipc[1].buffer_allocate().unwrap();
        flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();

        let mut t = flipc[0].buffer_allocate().unwrap();
        flipc[0].payload_mut(&mut t)[0] = 1;
        flipc[0].send(&tx, t, dest).unwrap();
        for _ in 0..6 {
            engines[0].iterate();
            engines[1].iterate();
        }
        assert!(flipc[1].recv(&rx).unwrap().is_some());
        // Drain and free the send endpoint.
        let back = flipc[0].reclaim_send(&tx).unwrap().unwrap();
        flipc[0].buffer_free(back);
        let old_idx = tx.index();
        flipc[0].endpoint_free(tx).unwrap();

        // Engine keeps iterating without touching the freed slot.
        let sent_before = engines[0].stats().sent.load(Ordering::Relaxed);
        for _ in 0..4 {
            engines[0].iterate();
        }
        assert_eq!(engines[0].stats().sent.load(Ordering::Relaxed), sent_before);

        // The slot's next tenant works immediately, with a new generation.
        let tx2 = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        assert_eq!(tx2.index(), old_idx, "first-fit reuse expected");
        let b = flipc[1].buffer_allocate().unwrap();
        flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
        let mut t = flipc[0].buffer_allocate().unwrap();
        flipc[0].payload_mut(&mut t)[0] = 2;
        flipc[0].send(&tx2, t, dest).unwrap();
        for _ in 0..6 {
            engines[0].iterate();
            engines[1].iterate();
        }
        let got = flipc[1].recv(&rx).unwrap().unwrap();
        assert_eq!(flipc[1].payload(&got.token)[0], 2);
        assert_eq!(got.from.index(), old_idx);
    }

    /// Zero engine budgets are legal (fully starved engine): nothing moves
    /// and nothing panics; restoring budgets resumes service.
    #[test]
    fn zero_budget_engine_is_inert_but_sound() {
        let ports = fabric(2, 64);
        let cfg = EngineConfig {
            incoming_budget: 0,
            outgoing_budget: 0,
            ..Default::default()
        };
        let mut flipc = Vec::new();
        let mut engines = Vec::new();
        for (i, port) in ports.into_iter().enumerate() {
            let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
            let registry = WaitRegistry::new();
            flipc.push(Flipc::attach(
                cb.clone(),
                FlipcNodeId(i as u16),
                registry.clone(),
            ));
            engines.push(Engine::new(cb, Box::new(port), registry, cfg));
        }
        let tx = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        let b = flipc[1].buffer_allocate().unwrap();
        flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
        let t = flipc[0].buffer_allocate().unwrap();
        flipc[0].send(&tx, t, dest).unwrap();
        for _ in 0..10 {
            assert_eq!(engines[0].iterate(), 0);
            assert_eq!(engines[1].iterate(), 0);
        }
        assert!(flipc[1].recv(&rx).unwrap().is_none());
    }

    /// A transport whose failure detector reports one node dead. Sends to
    /// it must fail fast onto the endpoint's drop counter — buffer
    /// completed, `peer_down` stat bumped, no frame handed to the wire —
    /// while other destinations keep flowing.
    #[test]
    fn sends_to_a_dead_peer_fail_onto_the_drop_counter() {
        struct DeadPeerPort {
            inner: Box<dyn Transport>,
            dead: FlipcNodeId,
        }
        impl Transport for DeadPeerPort {
            fn try_send(&mut self, dst: FlipcNodeId, frame: &Frame) -> bool {
                self.inner.try_send(dst, frame)
            }
            fn try_recv(&mut self) -> Option<Frame> {
                self.inner.try_recv()
            }
            fn local_node(&self) -> FlipcNodeId {
                self.inner.local_node()
            }
            fn peer_down(&self, dst: FlipcNodeId) -> bool {
                dst == self.dead
            }
        }

        let mut ports = fabric(3, 64).into_iter();
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let registry = WaitRegistry::new();
        let flipc = Flipc::attach(cb.clone(), FlipcNodeId(0), registry.clone());
        let mut engine = Engine::new(
            cb,
            Box::new(DeadPeerPort {
                inner: Box::new(ports.next().unwrap()),
                dead: FlipcNodeId(2),
            }),
            registry,
            EngineConfig::default(),
        );

        let tx = flipc
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let to_dead = EndpointAddress::new(FlipcNodeId(2), EndpointIndex(0), 1);
        let to_live = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
        let t = flipc.buffer_allocate().unwrap();
        flipc.send(&tx, t, to_dead).unwrap();
        let t = flipc.buffer_allocate().unwrap();
        flipc.send(&tx, t, to_live).unwrap();
        for _ in 0..4 {
            engine.iterate();
        }

        let stats = engine.stats();
        assert_eq!(stats.peer_down.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.sent.load(Ordering::Relaxed),
            1,
            "only the live-destination frame reached the wire"
        );
        assert_eq!(
            flipc.drops_reset(&tx).unwrap(),
            1,
            "the failed send lands on the endpoint's drop counter"
        );
        // Both buffers completed: the application reclaims them.
        assert!(flipc.reclaim_send(&tx).unwrap().is_some());
        assert!(flipc.reclaim_send(&tx).unwrap().is_some());
    }

    /// `max_batch` caps how many frames one endpoint may transmit per
    /// drain pass, independent of the (larger) global outgoing budget.
    #[test]
    fn max_batch_bounds_one_endpoints_drain_per_pass() {
        let cfg = EngineConfig {
            max_batch: 2,
            outgoing_budget: 64,
            ..EngineConfig::default()
        };
        let mut ports = fabric(2, 64).into_iter();
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let registry = WaitRegistry::new();
        let flipc = Flipc::attach(cb.clone(), FlipcNodeId(0), registry.clone());
        let mut engine = Engine::new(cb, Box::new(ports.next().unwrap()), registry, cfg);
        let tx = flipc
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let dest = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
        for _ in 0..5 {
            let t = flipc.buffer_allocate().unwrap();
            flipc.send(&tx, t, dest).unwrap();
        }
        let sent = |engine: &Engine| engine.stats().sent.load(Ordering::Relaxed);
        engine.iterate();
        assert_eq!(sent(&engine), 2, "first pass capped at max_batch");
        engine.iterate();
        assert_eq!(sent(&engine), 4, "second pass takes the next batch");
        engine.iterate();
        assert_eq!(sent(&engine), 5, "third pass drains the remainder");
    }

    /// Every outgoing drain pass ends with exactly one
    /// [`Transport::flush`] — the batch boundary a coalescing transport
    /// keys on — and the flush comes after the pass's sends.
    #[test]
    fn every_drain_pass_ends_with_one_transport_flush() {
        use flipc_core::sync::atomic::AtomicU32;

        #[derive(Clone, Default)]
        struct Tally {
            sends: Arc<AtomicU32>,
            flushes: Arc<AtomicU32>,
            sends_seen_at_last_flush: Arc<AtomicU32>,
        }
        struct FlushCountingPort {
            inner: Box<dyn Transport>,
            tally: Tally,
        }
        impl Transport for FlushCountingPort {
            fn try_send(&mut self, dst: FlipcNodeId, frame: &Frame) -> bool {
                self.tally.sends.fetch_add(1, Ordering::Relaxed);
                self.inner.try_send(dst, frame)
            }
            fn try_recv(&mut self) -> Option<Frame> {
                self.inner.try_recv()
            }
            fn local_node(&self) -> FlipcNodeId {
                self.inner.local_node()
            }
            fn flush(&mut self) {
                self.tally.flushes.fetch_add(1, Ordering::Relaxed);
                self.tally
                    .sends_seen_at_last_flush
                    .store(self.tally.sends.load(Ordering::Relaxed), Ordering::Relaxed);
                self.inner.flush();
            }
        }

        let tally = Tally::default();
        let mut ports = fabric(2, 64).into_iter();
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let registry = WaitRegistry::new();
        let flipc = Flipc::attach(cb.clone(), FlipcNodeId(0), registry.clone());
        let mut engine = Engine::new(
            cb,
            Box::new(FlushCountingPort {
                inner: Box::new(ports.next().unwrap()),
                tally: tally.clone(),
            }),
            registry,
            EngineConfig::default(),
        );

        let tx = flipc
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let dest = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
        for _ in 0..3 {
            let t = flipc.buffer_allocate().unwrap();
            flipc.send(&tx, t, dest).unwrap();
        }
        for i in 1..=4u32 {
            engine.iterate();
            assert_eq!(
                tally.flushes.load(Ordering::Relaxed),
                i,
                "one batch boundary per pass, even with nothing to send"
            );
        }
        assert_eq!(tally.sends.load(Ordering::Relaxed), 3);
        assert_eq!(
            tally.sends_seen_at_last_flush.load(Ordering::Relaxed),
            3,
            "the boundary flush trails the pass's sends"
        );
    }
}

#[cfg(test)]
mod active_send_tests {
    use super::*;
    use crate::loopback::fabric;
    use flipc_core::api::{Flipc, LocalEndpoint};
    use flipc_core::endpoint::FlipcNodeId;
    use flipc_core::layout::{Geometry, HDR_EP_EPOCH};

    /// One node (node 0 of a two-port fabric) and its application handle.
    fn node(cfg: EngineConfig) -> (Flipc, Engine) {
        let mut ports = fabric(2, 64).into_iter();
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let registry = WaitRegistry::new();
        let flipc = Flipc::attach(cb.clone(), FlipcNodeId(0), registry.clone());
        let engine = Engine::new(cb, Box::new(ports.next().unwrap()), registry, cfg);
        (flipc, engine)
    }

    fn inbox(f: &Flipc, buffers: usize) -> LocalEndpoint {
        let rx = f
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        for _ in 0..buffers {
            let b = f.buffer_allocate().unwrap();
            f.provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        rx
    }

    fn send_byte(f: &Flipc, ep: &LocalEndpoint, dest: EndpointAddress, byte: u8) {
        let mut t = f.buffer_allocate().unwrap();
        f.payload_mut(&mut t)[0] = byte;
        f.send(ep, t, dest).unwrap();
    }

    fn recv_bytes(f: &Flipc, rx: &LocalEndpoint) -> Vec<u8> {
        let mut got = Vec::new();
        while let Some(r) = f.recv(rx).unwrap() {
            got.push(f.payload(&r.token)[0]);
        }
        got
    }

    fn sent(e: &Engine) -> u64 {
        e.stats().sent.load(Ordering::Relaxed)
    }

    #[test]
    fn endpoint_allocated_after_idle_passes_is_served_next_pass() {
        let (f, mut engine) = node(EngineConfig::default());
        let rx = inbox(&f, 2);
        for _ in 0..3 {
            assert_eq!(engine.iterate(), 0);
        }
        let tx = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        send_byte(&f, &tx, f.address(&rx), 7);
        assert_eq!(
            engine.iterate(),
            1,
            "served on the first pass after allocation"
        );
        assert_eq!(recv_bytes(&f, &rx), vec![7]);
    }

    /// A send slot freed and re-allocated as a receive endpoint holds
    /// queued receive buffers; draining it as a sender would transmit
    /// them. With `corrupt_epoch` the application writes the old epoch
    /// back, so only re-validation of the cached entry stands in the way.
    fn reallocated_as_receive_is_never_drained(corrupt_epoch: bool) {
        let (f, mut engine) = node(EngineConfig::default());
        let cb = f.commbuf().clone();
        let tx = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let remote = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
        send_byte(&f, &tx, remote, 1);
        engine.iterate();
        assert_eq!(sent(&engine), 1);
        let back = f.reclaim_send(&tx).unwrap().unwrap();
        f.buffer_free(back);
        let slot = tx.index();
        let old_epoch = cb.endpoint_epoch();
        f.endpoint_free(tx).unwrap();
        let rx = inbox(&f, 2);
        assert_eq!(rx.index(), slot, "first-fit reuse of the send slot");
        if corrupt_epoch {
            cb.raw_word(HDR_EP_EPOCH)
                .store(old_epoch, Ordering::Relaxed);
        }
        let first = cb.engine_queue(slot).unwrap().peek();
        assert!(first.is_some());
        for _ in 0..4 {
            engine.iterate();
        }
        assert_eq!(sent(&engine), 1, "a receive slot was drained as a sender");
        assert_eq!(
            cb.engine_queue(slot).unwrap().peek(),
            first,
            "receive buffers must stay queued"
        );
    }

    #[test]
    fn send_slot_reallocated_as_receive_is_never_drained() {
        reallocated_as_receive_is_never_drained(false);
    }

    #[test]
    fn corrupt_epoch_costs_a_rebuild_never_a_wrong_send() {
        reallocated_as_receive_is_never_drained(true);
    }

    #[test]
    fn failed_revalidation_forces_a_rebuild_on_the_next_pass() {
        let (f, mut engine) = node(EngineConfig::default());
        let cb = f.commbuf().clone();
        let tx = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = inbox(&f, 2);
        engine.iterate(); // lists built: the slot is a Normal sender
        let old_epoch = cb.endpoint_epoch();
        f.endpoint_free(tx).unwrap();
        let tx = f
            .endpoint_allocate(EndpointType::Send, Importance::High)
            .unwrap();
        cb.raw_word(HDR_EP_EPOCH)
            .store(old_epoch, Ordering::Relaxed);
        send_byte(&f, &tx, f.address(&rx), 9);
        engine.iterate();
        assert!(
            recv_bytes(&f, &rx).is_empty(),
            "the stale Normal entry is skipped"
        );
        engine.iterate();
        assert_eq!(
            recv_bytes(&f, &rx),
            vec![9],
            "rebuilt lists serve it at High"
        );
    }

    #[test]
    fn slot_reallocated_at_high_is_served_before_normal() {
        let cfg = EngineConfig {
            outgoing_budget: 1,
            ..Default::default()
        };
        let (f, mut engine) = node(cfg);
        let normal = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let doomed = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = inbox(&f, 4);
        engine.iterate(); // lists built with both senders at Normal
        let slot = doomed.index();
        f.endpoint_free(doomed).unwrap();
        let high = f
            .endpoint_allocate(EndpointType::Send, Importance::High)
            .unwrap();
        assert_eq!(high.index(), slot);
        let dest = f.address(&rx);
        send_byte(&f, &normal, dest, b'n');
        send_byte(&f, &high, dest, b'h');
        engine.iterate();
        assert_eq!(recv_bytes(&f, &rx), b"h", "one send per pass: High first");
        engine.iterate();
        assert_eq!(recv_bytes(&f, &rx), b"n");
    }

    #[test]
    fn new_multi_lists_every_domains_senders() {
        let mut ports = fabric(2, 64).into_iter();
        let mut domains = Vec::new();
        let mut apps = Vec::new();
        for base in [0u16, 8, 16] {
            let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
            let registry = WaitRegistry::new();
            apps.push(Flipc::attach_at(
                cb.clone(),
                FlipcNodeId(0),
                registry.clone(),
                base,
            ));
            domains.push(Domain {
                cb,
                registry,
                index_base: base,
                allowed_destinations: None,
            });
        }
        let mut engine = Engine::new_multi(
            domains,
            Box::new(ports.next().unwrap()),
            EngineConfig::default(),
        );
        let rx = inbox(&apps[0], 8);
        let dest = apps[0].address(&rx);
        for (i, (app, imp)) in apps
            .iter()
            .zip([Importance::Low, Importance::High, Importance::Normal])
            .enumerate()
        {
            let tx = app.endpoint_allocate(EndpointType::Send, imp).unwrap();
            send_byte(app, &tx, dest, i as u8);
        }
        assert_eq!(engine.iterate(), 3, "one pass serves every domain's sender");
        assert_eq!(
            recv_bytes(&apps[0], &rx),
            vec![1, 2, 0],
            "High, Normal, Low"
        );
    }

    /// Regression: the flat scan position used to be computed in `u16`,
    /// so a cursor past 32,767 overflowed on the next pass (a debug-build
    /// panic; a wrapped index in release). Skipped under
    /// `ownership-checks`, where each of the engine's 32,770 telemetry
    /// histograms registers a 132-field table with the global checker
    /// (about 20 s and 600 MB); the arithmetic is the same either way.
    #[test]
    #[cfg_attr(
        feature = "ownership-checks",
        ignore = "registers 32,770 telemetry histograms with the ownership checker"
    )]
    fn scan_positions_past_u16_half_range_do_not_overflow() {
        let geo = |endpoints| Geometry {
            endpoints,
            ring_capacity: 2,
            buffers: 4,
            msg_size: 128,
        };
        let mut ports = fabric(1, 8).into_iter();
        let mut domains = Vec::new();
        let mut apps = Vec::new();
        for (endpoints, base) in [(32_768, 0), (1, 32_768), (1, 32_769)] {
            let cb = Arc::new(CommBuffer::new(geo(endpoints)).unwrap());
            let registry = WaitRegistry::new();
            apps.push(Flipc::attach_at(
                cb.clone(),
                FlipcNodeId(0),
                registry.clone(),
                base,
            ));
            domains.push(Domain {
                cb,
                registry,
                index_base: base,
                allowed_destinations: None,
            });
        }
        let mut engine = Engine::new_multi(
            domains,
            Box::new(ports.next().unwrap()),
            EngineConfig::default(),
        );
        let tx = apps[1]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = inbox(&apps[2], 2);
        let dest = apps[2].address(&rx);
        send_byte(&apps[1], &tx, dest, 1);
        engine.iterate(); // served from flat slot 32,768: cursor 32,769
        let back = apps[1].reclaim_send(&tx).unwrap().unwrap();
        apps[1].buffer_free(back);
        send_byte(&apps[1], &tx, dest, 2);
        engine.iterate();
        assert_eq!(recv_bytes(&apps[2], &rx), vec![1, 2]);
    }
}
