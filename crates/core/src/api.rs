//! The FLIPC application interface layer.
//!
//! [`Flipc`] is the formal interface that hides the communication-buffer
//! data structures from applications (the paper's "library and header
//! files" component). It implements the five-step transfer protocol of
//! Figure 2:
//!
//! 1. receiver *provides* an empty buffer ([`Flipc::provide_receive_buffer`]),
//! 2. sender *sends* by queueing a full buffer ([`Flipc::send`]),
//! 3. the messaging engine moves the message (crate `flipc-engine`),
//! 4. receiver *receives* by removing it ([`Flipc::recv`]),
//! 5. sender *recovers* its buffer for reuse ([`Flipc::reclaim_send`]).
//!
//! Steps 2–4 are the delivery path; steps 1 and 5 are resource control,
//! which FLIPC deliberately leaves to the application — the paper observes
//! that about half of an application's FLIPC calls end up being buffer
//! management (reproduced by the `call_ratio` bench, which counts the calls
//! its workload makes; the `managed` module is the improved design the
//! paper's Future Work section calls for).
//!
//! Every queue operation exists in a *locked* variant (TAS mutual exclusion
//! among application threads) and an *unlocked* variant for applications
//! that guarantee at most one thread per endpoint — on the Paragon the
//! bus-locked test-and-set was expensive enough that all of the paper's
//! performance results use the unlocked versions.

use crate::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::buffer::{BufferState, BufferToken};
use crate::commbuf::CommBuffer;
use crate::endpoint::{EndpointAddress, EndpointIndex, EndpointType, FlipcNodeId, Importance};
use crate::error::{FlipcError, Result};
use crate::inspect::{LivenessBoard, PeerLiveness};
use crate::wait::{self, WaitCell, WaitRegistry, SPINS_BEFORE_YIELD};

/// A copyable identifier for tracking a specific buffer's completion via
/// its state field (the paper: "allowing an application to determine when
/// processing of a specific buffer is complete").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BufferId(pub u32);

/// An owned handle to a locally allocated endpoint.
///
/// Move-only: freeing consumes it, so handles cannot dangle.
#[derive(Debug)]
pub struct LocalEndpoint {
    idx: EndpointIndex,
    gen: u16,
    ty: EndpointType,
}

impl LocalEndpoint {
    /// The endpoint's slot index.
    pub fn index(&self) -> EndpointIndex {
        self.idx
    }

    /// The endpoint's role.
    pub fn endpoint_type(&self) -> EndpointType {
        self.ty
    }
}

/// A message delivered to the application: the buffer (now owned by the
/// application) and the sender's endpoint address (reply address).
#[derive(Debug)]
pub struct Received {
    /// The buffer holding the message payload.
    pub token: BufferToken,
    /// Source endpoint of the message.
    pub from: EndpointAddress,
}

/// A rejected queueing operation, handing the buffer back to the caller.
#[derive(Debug)]
pub struct Rejected {
    /// Why the operation failed.
    pub error: FlipcError,
    /// The untouched buffer, returned to its owner.
    pub token: BufferToken,
}

/// The per-application FLIPC handle.
pub struct Flipc {
    cb: Arc<CommBuffer>,
    node: FlipcNodeId,
    registry: Arc<WaitRegistry>,
    index_base: u16,
    /// Peer liveness published by the node's transport, if the node has
    /// one. Checked on `send` so a dead destination is rejected with
    /// [`FlipcError::PeerDown`] instead of silently discarded downstream.
    liveness: Option<Arc<LivenessBoard>>,
}

impl Flipc {
    /// Attaches to a communication buffer as an application on `node`.
    ///
    /// The `registry` must be the same one the node's messaging engine
    /// posts wakeups to (see `flipc-engine`'s node builder, which wires
    /// this up).
    pub fn attach(cb: Arc<CommBuffer>, node: FlipcNodeId, registry: Arc<WaitRegistry>) -> Flipc {
        Flipc::attach_at(cb, node, registry, 0)
    }

    /// [`Flipc::attach`] for a communication buffer published at a nonzero
    /// endpoint-index base — the multiple-communication-buffers-per-node
    /// configuration, where each protection domain's endpoints occupy a
    /// distinct slice of the node's index space.
    ///
    /// # Panics
    ///
    /// Panics if the buffer's endpoint slots, placed at `index_base`, run
    /// past the last node-global endpoint index (65,535).
    pub fn attach_at(
        cb: Arc<CommBuffer>,
        node: FlipcNodeId,
        registry: Arc<WaitRegistry>,
        index_base: u16,
    ) -> Flipc {
        assert!(
            usize::from(index_base) + usize::from(cb.geometry().endpoints) <= 65_536,
            "endpoint-index range runs past the u16 index space"
        );
        Flipc {
            cb,
            node,
            registry,
            index_base,
            liveness: None,
        }
    }

    /// Wires in the transport's peer-liveness board so `send` can refuse a
    /// destination the failure detector has declared dead (the board is
    /// exposed by `flipc-net`'s `NetStats::liveness`).
    pub fn set_liveness(&mut self, board: Arc<LivenessBoard>) {
        self.liveness = Some(board);
    }

    /// This node's id.
    pub fn node(&self) -> FlipcNodeId {
        self.node
    }

    /// The underlying communication buffer.
    pub fn commbuf(&self) -> &Arc<CommBuffer> {
        &self.cb
    }

    /// The wait registry used for blocking receives (shared with the
    /// node's messaging engine).
    pub fn registry(&self) -> &Arc<WaitRegistry> {
        &self.registry
    }

    /// Application payload bytes available in each message buffer.
    pub fn payload_size(&self) -> usize {
        self.cb.payload_size()
    }

    // ------------------------------------------------------------------
    // Endpoints.
    // ------------------------------------------------------------------

    /// Allocates an endpoint of the given type and importance class.
    pub fn endpoint_allocate(
        &self,
        ty: EndpointType,
        importance: Importance,
    ) -> Result<LocalEndpoint> {
        let (idx, gen) = self.cb.alloc_endpoint(ty, importance)?;
        Ok(LocalEndpoint { idx, gen, ty })
    }

    /// Frees an endpoint. Its queue must be drained first.
    pub fn endpoint_free(&self, ep: LocalEndpoint) -> Result<()> {
        self.cb.free_endpoint(ep.idx)
    }

    /// The endpoint's opaque address, for handing to senders (FLIPC has no
    /// name service of its own; distribution is up to the application).
    pub fn address(&self, ep: &LocalEndpoint) -> EndpointAddress {
        EndpointAddress::new(self.node, EndpointIndex(self.index_base + ep.idx.0), ep.gen)
    }

    // ------------------------------------------------------------------
    // Buffer management (resource-control half of the API).
    // ------------------------------------------------------------------

    /// Allocates a message buffer (FLIPC internalizes all buffers so
    /// alignment rules hold by construction).
    pub fn buffer_allocate(&self) -> Result<BufferToken> {
        self.cb.alloc_buffer()
    }

    /// Returns a buffer to the pool.
    pub fn buffer_free(&self, token: BufferToken) {
        self.cb.free_buffer(token);
    }

    /// Mutable payload access while the application owns the buffer. The
    /// exclusive borrow of the token guarantees uniqueness.
    pub fn payload_mut<'a>(&'a self, token: &'a mut BufferToken) -> &'a mut [u8] {
        // SAFETY: `token` is the unique handle to this buffer (tokens are
        // move-only and minted once), and the caller holds it exclusively
        // for `'a`, so no other payload reference can exist.
        unsafe { self.cb.payload_mut(token.index()) }
    }

    /// Shared payload access while the application owns the buffer.
    pub fn payload<'a>(&'a self, token: &'a BufferToken) -> &'a [u8] {
        // SAFETY: As in `payload_mut`; the shared borrow prevents
        // concurrent mutation through the token.
        unsafe { &*(self.cb.payload_mut(token.index()) as *mut [u8] as *const [u8]) }
    }

    /// Completion state of a specific buffer by id (wait-free poll).
    pub fn buffer_state(&self, id: BufferId) -> Result<BufferState> {
        if !self.cb.layout().buffer_index_ok(id.0) {
            return Err(FlipcError::BadBuffer);
        }
        Ok(self.cb.header(id.0).state())
    }

    // ------------------------------------------------------------------
    // Send path (steps 2 and 5).
    // ------------------------------------------------------------------

    /// Sends `token`'s payload to `dest`: queues the buffer on the send
    /// endpoint for the engine. Asynchronous one-way delivery; returns a
    /// [`BufferId`] usable for completion polling.
    ///
    /// Takes the endpoint's TAS lock for thread safety.
    pub fn send(
        &self,
        ep: &LocalEndpoint,
        token: BufferToken,
        dest: EndpointAddress,
    ) -> std::result::Result<BufferId, Rejected> {
        let lock = match self.cb.endpoint_lock(ep.idx) {
            Ok(l) => l,
            Err(error) => return Err(Rejected { error, token }),
        };
        let _g = lock.lock();
        self.send_inner(ep, token, dest)
    }

    /// [`Flipc::send`] without the TAS lock, for endpoints accessed by at
    /// most one thread (the variant all of the paper's measurements use).
    /// Calling it from two threads concurrently on one endpoint is safe in
    /// the Rust sense but may lose or reorder messages.
    pub fn send_unlocked(
        &self,
        ep: &LocalEndpoint,
        token: BufferToken,
        dest: EndpointAddress,
    ) -> std::result::Result<BufferId, Rejected> {
        self.send_inner(ep, token, dest)
    }

    fn send_inner(
        &self,
        ep: &LocalEndpoint,
        token: BufferToken,
        dest: EndpointAddress,
    ) -> std::result::Result<BufferId, Rejected> {
        if ep.ty != EndpointType::Send {
            return Err(Rejected {
                error: FlipcError::WrongEndpointType,
                token,
            });
        }
        // A destination the transport has declared dead is refused up
        // front — the application keeps the buffer and gets a real error
        // instead of a silent downstream discard. Node-local delivery
        // never consults the board.
        if dest.node() != self.node {
            if let Some(board) = &self.liveness {
                if board.get(dest.node()) == PeerLiveness::Dead {
                    return Err(Rejected {
                        error: FlipcError::PeerDown(dest.node()),
                        token,
                    });
                }
            }
        }
        let idx = token.index();
        // Address + state are published together with the Release-ordered
        // header store; the payload was written before this call.
        self.cb.header(idx).store(dest, BufferState::Queued);
        let mut q = match self.cb.app_queue(ep.idx) {
            Ok(q) => q,
            Err(error) => return Err(Rejected { error, token }),
        };
        match q.release(idx) {
            Ok(()) => Ok(BufferId(idx)),
            Err(error) => {
                // Undo the state change; the application still owns it.
                self.cb.header(idx).set_state(BufferState::Free);
                Err(Rejected { error, token })
            }
        }
    }

    /// Recovers a transmitted buffer from the send endpoint (step 5), or
    /// `None` if the engine has not finished any new sends.
    pub fn reclaim_send(&self, ep: &LocalEndpoint) -> Result<Option<BufferToken>> {
        let lock = self.cb.endpoint_lock(ep.idx)?;
        let _g = lock.lock();
        self.reclaim_inner(ep)
    }

    /// [`Flipc::reclaim_send`] without the TAS lock.
    pub fn reclaim_send_unlocked(&self, ep: &LocalEndpoint) -> Result<Option<BufferToken>> {
        self.reclaim_inner(ep)
    }

    fn reclaim_inner(&self, ep: &LocalEndpoint) -> Result<Option<BufferToken>> {
        if ep.ty != EndpointType::Send {
            return Err(FlipcError::WrongEndpointType);
        }
        let mut q = self.cb.app_queue(ep.idx)?;
        match q.acquire() {
            Some(idx) => {
                if !self.cb.layout().buffer_index_ok(idx) {
                    // A corrupted ring slot (errant application sharing
                    // the buffer): surface it rather than panicking.
                    return Err(FlipcError::BadBuffer);
                }
                self.cb.header(idx).set_state(BufferState::Free);
                Ok(Some(BufferToken::new(idx)))
            }
            None => Ok(None),
        }
    }

    // ------------------------------------------------------------------
    // Receive path (steps 1 and 4).
    // ------------------------------------------------------------------

    /// Provides an empty buffer for a future message (step 1). Without
    /// queued buffers, arriving messages are *discarded* and counted — the
    /// optimistic transport never blocks the interconnect.
    pub fn provide_receive_buffer(
        &self,
        ep: &LocalEndpoint,
        token: BufferToken,
    ) -> std::result::Result<(), Rejected> {
        let lock = match self.cb.endpoint_lock(ep.idx) {
            Ok(l) => l,
            Err(error) => return Err(Rejected { error, token }),
        };
        let _g = lock.lock();
        self.provide_inner(ep, token)
    }

    /// [`Flipc::provide_receive_buffer`] without the TAS lock.
    pub fn provide_receive_buffer_unlocked(
        &self,
        ep: &LocalEndpoint,
        token: BufferToken,
    ) -> std::result::Result<(), Rejected> {
        self.provide_inner(ep, token)
    }

    fn provide_inner(
        &self,
        ep: &LocalEndpoint,
        token: BufferToken,
    ) -> std::result::Result<(), Rejected> {
        if ep.ty != EndpointType::Receive {
            return Err(Rejected {
                error: FlipcError::WrongEndpointType,
                token,
            });
        }
        let idx = token.index();
        self.cb.header(idx).set_state(BufferState::Queued);
        let mut q = match self.cb.app_queue(ep.idx) {
            Ok(q) => q,
            Err(error) => return Err(Rejected { error, token }),
        };
        match q.release(idx) {
            Ok(()) => Ok(()),
            Err(error) => {
                self.cb.header(idx).set_state(BufferState::Free);
                Err(Rejected { error, token })
            }
        }
    }

    /// Receives the next delivered message (step 4), or `None` if nothing
    /// has arrived.
    pub fn recv(&self, ep: &LocalEndpoint) -> Result<Option<Received>> {
        let lock = self.cb.endpoint_lock(ep.idx)?;
        let _g = lock.lock();
        self.recv_inner(ep)
    }

    /// [`Flipc::recv`] without the TAS lock.
    pub fn recv_unlocked(&self, ep: &LocalEndpoint) -> Result<Option<Received>> {
        self.recv_inner(ep)
    }

    fn recv_inner(&self, ep: &LocalEndpoint) -> Result<Option<Received>> {
        if ep.ty != EndpointType::Receive {
            return Err(FlipcError::WrongEndpointType);
        }
        let mut q = self.cb.app_queue(ep.idx)?;
        match q.acquire() {
            Some(idx) => {
                if !self.cb.layout().buffer_index_ok(idx) {
                    // Corrupted ring slot; see `reclaim_inner`.
                    return Err(FlipcError::BadBuffer);
                }
                let (from, _state) = self.cb.header(idx).load();
                self.cb.header(idx).set_state(BufferState::Free);
                Ok(Some(Received {
                    token: BufferToken::new(idx),
                    from,
                }))
            }
            None => Ok(None),
        }
    }

    /// Blocking receive: returns the next message once it arrives, or
    /// [`FlipcError::Timeout`] after `timeout`.
    ///
    /// The thread first polls the endpoint's ring with loads alone for at
    /// most one measured sleep-and-wake (see [`crate::wait`]); a message
    /// that arrives in that window is returned without entering the
    /// kernel. After it, the thread parks through the wait registry (the
    /// kernel's role) and, on message arrival, is presented back to the
    /// scheduler — no interrupting upcalls.
    pub fn recv_blocking(&self, ep: &LocalEndpoint, timeout: Duration) -> Result<Received> {
        self.idle_ladder(std::slice::from_ref(ep), timeout, || self.recv(ep))
    }

    /// The wait behind both blocking receives: `poll` is the receive that
    /// takes a message from any of the receive endpoints `eps`.
    ///
    /// The poll phase tests each ring's `acquirable` count, which takes no
    /// lock and writes nothing, and calls `poll` only once a count is
    /// nonzero. It spins between its first [`SPINS_BEFORE_YIELD`] polls and
    /// yields between later ones, for at most one estimated sleep-and-wake
    /// per call. After that the thread parks: it registers one wait cell on
    /// every endpoint, raises their waiter counts, fences, re-polls and
    /// only then sleeps, so the engine, which advances, fences and reads
    /// the counts, cannot deliver unseen.
    pub(crate) fn idle_ladder<T>(
        &self,
        eps: &[LocalEndpoint],
        timeout: Duration,
        mut poll: impl FnMut() -> Result<Option<T>>,
    ) -> Result<T> {
        let start = Instant::now();
        let deadline = start + timeout;
        let poll_until = start + wait::poll_bound(timeout);
        loop {
            if let Some(r) = poll()? {
                return Ok(r);
            }
            if self.poll_rings(eps, poll_until)? {
                continue;
            }
            let cell = WaitCell::new();
            for ep in eps {
                self.registry.register(ep.idx, &cell);
                self.cb.adjust_waiters(ep.idx, 1)?;
            }
            // The waiter-count store must be globally visible before the
            // ring re-check below reads the engine's process pointer, and
            // symmetrically on the engine side (advance, fence, read
            // waiters) — otherwise StoreLoad reordering lets both sides
            // miss each other and the wakeup is lost.
            crate::sync::atomic::fence(Ordering::SeqCst);
            // Re-check after raising the waiter count: a message that
            // arrived in between will be found here, and any message after
            // it will see waiters > 0 and post a wake.
            let res = poll()?;
            if res.is_none() {
                let now = Instant::now();
                if now < deadline {
                    wait::observe(cell.wait(deadline - now));
                }
            }
            for ep in eps {
                self.cb.adjust_waiters(ep.idx, -1)?;
                self.registry.unregister(ep.idx, &cell);
            }
            if let Some(r) = res {
                return Ok(r);
            }
            if Instant::now() >= deadline {
                // One last poll so a message that raced the deadline wins.
                if let Some(r) = poll()? {
                    return Ok(r);
                }
                return Err(FlipcError::Timeout);
            }
        }
    }

    /// The poll phase: true as soon as any of `eps` holds a message to
    /// acquire, false once `until` passes with none.
    fn poll_rings(&self, eps: &[LocalEndpoint], until: Instant) -> Result<bool> {
        let mut polls = 0u32;
        while Instant::now() < until {
            for ep in eps {
                if self.cb.app_queue(ep.idx)?.acquirable() != 0 {
                    return Ok(true);
                }
            }
            if polls < SPINS_BEFORE_YIELD {
                polls += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        Ok(false)
    }

    // ------------------------------------------------------------------
    // Drop accounting.
    // ------------------------------------------------------------------

    /// Messages discarded on `ep` since the last reset.
    pub fn drops(&self, ep: &LocalEndpoint) -> Result<u32> {
        Ok(self.cb.drops_app(ep.idx)?.read())
    }

    /// Reads and resets `ep`'s discard counter as one logical wait-free
    /// operation; concurrent drops are never lost.
    pub fn drops_reset(&self, ep: &LocalEndpoint) -> Result<u32> {
        Ok(self.cb.drops_app(ep.idx)?.read_and_reset())
    }

    /// Node-global count of misaddressed messages (stale or invalid
    /// destination endpoints), read-and-reset.
    pub fn misaddressed_reset(&self) -> u32 {
        self.cb.misaddressed_app().read_and_reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Geometry;

    fn flipc() -> Flipc {
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        Flipc::attach(cb, FlipcNodeId(0), WaitRegistry::new())
    }

    /// Drives the engine side of one endpoint by hand (no engine crate
    /// here): processes every queued buffer, marking it Processed.
    fn pump_engine(f: &Flipc, idx: EndpointIndex) {
        let q = f.commbuf().engine_queue(idx).unwrap();
        while let Some(b) = q.peek() {
            f.commbuf().header(b).set_state(BufferState::Processed);
            q.advance();
        }
    }

    #[test]
    fn send_queues_and_reclaim_returns_buffer() {
        let f = flipc();
        let send = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let dest = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
        let mut t = f.buffer_allocate().unwrap();
        f.payload_mut(&mut t)[..3].copy_from_slice(b"abc");
        let id = f.send(&send, t, dest).unwrap();
        assert_eq!(f.buffer_state(id).unwrap(), BufferState::Queued);
        assert!(
            f.reclaim_send(&send).unwrap().is_none(),
            "not processed yet"
        );
        pump_engine(&f, send.index());
        assert_eq!(f.buffer_state(id).unwrap(), BufferState::Processed);
        let back = f.reclaim_send(&send).unwrap().unwrap();
        assert_eq!(back.index(), id.0);
        assert_eq!(&f.payload(&back)[..3], b"abc");
    }

    #[test]
    fn wrong_endpoint_type_is_rejected_with_token_returned() {
        let f = flipc();
        let recv = f
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let t = f.buffer_allocate().unwrap();
        let dest = EndpointAddress::new(FlipcNodeId(0), EndpointIndex(0), 1);
        let rej = f.send(&recv, t, dest).unwrap_err();
        assert_eq!(rej.error, FlipcError::WrongEndpointType);
        // Token handed back; still usable.
        let rej2 = f
            .provide_receive_buffer(&recv, rej.token)
            .map_err(|r| r.error);
        assert!(rej2.is_ok());
        assert!(f.recv(&recv).unwrap().is_none());
        assert_eq!(
            f.reclaim_send(&recv).unwrap_err(),
            FlipcError::WrongEndpointType
        );
    }

    #[test]
    fn queue_full_returns_token_and_restores_state() {
        let f = flipc();
        let send = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let dest = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
        // Ring capacity is 16; the 17th send must bounce.
        for _ in 0..16 {
            let t = f.buffer_allocate().unwrap();
            f.send(&send, t, dest).unwrap();
        }
        let t = f.buffer_allocate().unwrap();
        let tidx = t.index();
        let rej = f.send(&send, t, dest).unwrap_err();
        assert_eq!(rej.error, FlipcError::QueueFull);
        assert_eq!(rej.token.index(), tidx);
        assert_eq!(f.buffer_state(BufferId(tidx)).unwrap(), BufferState::Free);
    }

    #[test]
    fn recv_returns_sender_address() {
        let f = flipc();
        let recv = f
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let t = f.buffer_allocate().unwrap();
        f.provide_receive_buffer(&recv, t)
            .map_err(|r| r.error)
            .unwrap();
        // Hand-deliver a message as the engine would: write payload, set
        // header to (source, Processed), advance.
        let q = f.commbuf().engine_queue(recv.index()).unwrap();
        let b = q.peek().unwrap();
        // SAFETY: Engine owns the buffer between peek and advance.
        unsafe { f.commbuf().payload_write(b, b"ping!") };
        let src = EndpointAddress::new(FlipcNodeId(7), EndpointIndex(3), 9);
        f.commbuf().header(b).store(src, BufferState::Processed);
        q.advance();

        let got = f.recv(&recv).unwrap().unwrap();
        assert_eq!(got.from, src);
        assert_eq!(&f.payload(&got.token)[..5], b"ping!");
    }

    #[test]
    fn recv_blocking_times_out_cleanly() {
        let f = flipc();
        let recv = f
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let err = f
            .recv_blocking(&recv, Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, FlipcError::Timeout);
        // No waiter leaked.
        assert_eq!(f.commbuf().waiters(recv.index()).unwrap(), 0);
    }

    #[test]
    fn recv_blocking_wakes_on_delivery() {
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let registry = WaitRegistry::new();
        let f = Arc::new(Flipc::attach(cb, FlipcNodeId(0), registry.clone()));
        let recv = f
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let t = f.buffer_allocate().unwrap();
        f.provide_receive_buffer(&recv, t)
            .map_err(|r| r.error)
            .unwrap();
        let idx = recv.index();

        let f2 = f.clone();
        let waiter = std::thread::spawn(move || {
            f2.recv_blocking(&recv, Duration::from_secs(5))
                .map(|r| r.from)
        });
        // Give the waiter time to park, then deliver as the engine.
        while f.commbuf().waiters(idx).unwrap() == 0 {
            std::thread::yield_now();
        }
        let q = f.commbuf().engine_queue(idx).unwrap();
        let b = q.peek().unwrap();
        let src = EndpointAddress::new(FlipcNodeId(2), EndpointIndex(1), 1);
        f.commbuf().header(b).store(src, BufferState::Processed);
        q.advance();
        if f.commbuf().waiters(idx).unwrap() > 0 {
            registry.wake(idx);
        }
        assert_eq!(waiter.join().unwrap().unwrap(), src);
    }

    /// A node with one receive endpoint holding one receive buffer.
    fn stocked() -> (Arc<Flipc>, Arc<WaitRegistry>, LocalEndpoint) {
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let registry = WaitRegistry::new();
        let f = Arc::new(Flipc::attach(cb, FlipcNodeId(0), registry.clone()));
        let recv = f
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let t = f.buffer_allocate().unwrap();
        f.provide_receive_buffer(&recv, t)
            .map_err(|r| r.error)
            .unwrap();
        (f, registry, recv)
    }

    /// Delivers one message into `idx` as the engine does, posting the
    /// kernel wake only if a receiver raised the waiter count.
    fn deliver(f: &Flipc, registry: &WaitRegistry, idx: EndpointIndex) -> EndpointAddress {
        let q = f.commbuf().engine_queue(idx).unwrap();
        let b = q.peek().unwrap();
        let src = EndpointAddress::new(FlipcNodeId(2), EndpointIndex(1), 1);
        f.commbuf().header(b).store(src, BufferState::Processed);
        q.advance();
        crate::sync::atomic::fence(Ordering::SeqCst);
        if f.commbuf().waiters(idx).unwrap() > 0 {
            registry.wake(idx);
        }
        src
    }

    #[test]
    fn recv_blocking_takes_a_reply_inside_the_poll_phase_without_parking() {
        let (f, registry, recv) = stocked();
        let idx = recv.index();
        let (started, start) = std::sync::mpsc::channel();
        let f2 = f.clone();
        let waiter = std::thread::spawn(move || {
            let _pin = crate::wait::PinnedBound::new(Duration::from_secs(10));
            started.send(Instant::now()).unwrap();
            let got = f2.recv_blocking(&recv, Duration::from_secs(10));
            (got.map(|r| r.from), Instant::now())
        });
        let began = start.recv().unwrap();
        // The receiver polls; it must not arm the endpoint meanwhile.
        while began.elapsed() < Duration::from_millis(20) {
            assert_eq!(f.commbuf().waiters(idx).unwrap(), 0, "receiver parked");
            assert_eq!(registry.waiter_count(idx), 0, "receiver registered");
            std::thread::yield_now();
        }
        let src = deliver(&f, &registry, idx);
        let (got, done) = waiter.join().unwrap();
        assert_eq!(got.unwrap(), src);
        // A receiver that slept would have needed a wake that never came,
        // and would have returned only at its deadline.
        assert!(done - began < Duration::from_secs(5));
        assert_eq!(f.commbuf().waiters(idx).unwrap(), 0);
        assert_eq!(registry.waiter_count(idx), 0);
    }

    #[test]
    fn recv_blocking_parks_after_the_poll_phase_and_is_woken() {
        let (f, registry, recv) = stocked();
        let idx = recv.index();
        let bound = Duration::from_millis(5);
        let began = Instant::now();
        let f2 = f.clone();
        let waiter = std::thread::spawn(move || {
            let _pin = crate::wait::PinnedBound::new(bound);
            f2.recv_blocking(&recv, Duration::from_secs(10))
                .map(|r| r.from)
        });
        while f.commbuf().waiters(idx).unwrap() == 0 {
            assert!(began.elapsed() < Duration::from_secs(5), "never parked");
            std::thread::yield_now();
        }
        assert!(
            began.elapsed() >= bound,
            "parked before the poll phase ended"
        );
        let src = deliver(&f, &registry, idx);
        assert_eq!(waiter.join().unwrap().unwrap(), src);
        assert_eq!(f.commbuf().waiters(idx).unwrap(), 0);
    }

    #[test]
    fn recv_blocking_times_out_inside_a_longer_poll_phase() {
        let (f, _registry, recv) = stocked();
        let _pin = crate::wait::PinnedBound::new(Duration::from_secs(60));
        let began = Instant::now();
        let err = f
            .recv_blocking(&recv, Duration::from_millis(30))
            .unwrap_err();
        let took = began.elapsed();
        assert_eq!(err, FlipcError::Timeout);
        assert!(took >= Duration::from_millis(30), "{took:?}");
        assert!(took < Duration::from_secs(5), "{took:?}");
        assert_eq!(f.commbuf().waiters(recv.index()).unwrap(), 0);
    }

    #[test]
    fn unlocked_variants_behave_like_locked_single_threaded() {
        let f = flipc();
        let send = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let dest = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
        let t = f.buffer_allocate().unwrap();
        let id = f.send_unlocked(&send, t, dest).unwrap();
        pump_engine(&f, send.index());
        let back = f.reclaim_send_unlocked(&send).unwrap().unwrap();
        assert_eq!(back.index(), id.0);
    }

    #[test]
    fn drop_counter_surface() {
        let f = flipc();
        let recv = f
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        f.commbuf().drops_engine(recv.index()).unwrap().increment();
        f.commbuf().drops_engine(recv.index()).unwrap().increment();
        assert_eq!(f.drops(&recv).unwrap(), 2);
        assert_eq!(f.drops_reset(&recv).unwrap(), 2);
        assert_eq!(f.drops(&recv).unwrap(), 0);
        f.commbuf().misaddressed_engine().increment();
        assert_eq!(f.misaddressed_reset(), 1);
    }

    #[test]
    fn send_to_dead_peer_is_rejected_with_peer_down() {
        let mut f = flipc();
        let board = Arc::new(LivenessBoard::new(4));
        f.set_liveness(board.clone());
        let send = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let dest = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
        board.set(FlipcNodeId(1), PeerLiveness::Dead);
        let t = f.buffer_allocate().unwrap();
        let rej = f.send(&send, t, dest).unwrap_err();
        assert_eq!(rej.error, FlipcError::PeerDown(FlipcNodeId(1)));
        // The buffer came back untouched and is reusable once the peer is
        // re-admitted.
        board.set(FlipcNodeId(1), PeerLiveness::Healthy);
        f.send(&send, rej.token, dest).unwrap();
        // Suspect peers still send (optimism: only Dead refuses), and
        // node-local sends never consult the board.
        board.set(FlipcNodeId(1), PeerLiveness::Suspect);
        let t = f.buffer_allocate().unwrap();
        f.send(&send, t, dest).unwrap();
        board.set(FlipcNodeId(0), PeerLiveness::Dead);
        let local = EndpointAddress::new(FlipcNodeId(0), EndpointIndex(0), 1);
        let t = f.buffer_allocate().unwrap();
        f.send(&send, t, local).unwrap();
    }

    #[test]
    fn endpoint_free_through_api() {
        let f = flipc();
        let ep = f
            .endpoint_allocate(EndpointType::Send, Importance::High)
            .unwrap();
        let addr = f.address(&ep);
        assert_eq!(addr.node(), FlipcNodeId(0));
        f.endpoint_free(ep).unwrap();
    }

    #[test]
    fn index_base_may_end_at_the_last_u16_index() {
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let f = Flipc::attach_at(cb, FlipcNodeId(0), WaitRegistry::new(), 65_528);
        let alloc = || {
            f.endpoint_allocate(EndpointType::Receive, Importance::Normal)
                .unwrap()
        };
        for _ in 0..7 {
            alloc();
        }
        let last = alloc();
        assert_eq!(last.index(), EndpointIndex(7));
        assert_eq!(f.address(&last).index(), EndpointIndex(65_535));
    }

    #[test]
    #[should_panic(expected = "runs past the u16 index space")]
    fn index_base_past_the_u16_index_space_is_rejected() {
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let _ = Flipc::attach_at(cb, FlipcNodeId(0), WaitRegistry::new(), 65_530);
    }
}
