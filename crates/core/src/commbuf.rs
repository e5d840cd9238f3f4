//! The communication buffer: FLIPC's shared focal point.
//!
//! A [`CommBuffer`] is the fixed-size, non-pageable region shared between
//! the messaging engine and all applications on a node. It contains every
//! memory resource used for messaging — endpoint records, buffer-pointer
//! rings, the message-buffer pool and its free list — so the application
//! and the engine interact directly, with the OS kernel off the messaging
//! path.
//!
//! This type exposes *views* (the wait-free queue handles, counter sides,
//! header words, payload access) to the two parties:
//!
//! * the application interface layer ([`crate::api::Flipc`]) uses the
//!   app-side views, and
//! * the messaging engine (crate `flipc-engine`) uses the engine-side views
//!   plus the validity checks in [`crate::checks`].
//!
//! Buffer and endpoint allocation are application-side operations guarded
//! by TAS locks inside the region (the engine never touches the free list),
//! mirroring the paper's placement of all resource control in the
//! application library.

use crate::sync::atomic::{AtomicU32, Ordering};

use crate::buffer::{BufferState, BufferToken, HeaderWord};
use crate::counter::{CounterAppSide, CounterEngineSide};
use crate::endpoint::{EndpointIndex, EndpointType, Importance};
use crate::error::{FlipcError, Result};
use crate::layout::{
    Geometry, Layout, COMMBUF_MAGIC, EP_ACQUIRE, EP_DROPS, EP_DROPS_TAKEN, EP_GEN_ACTIVE,
    EP_IMPORTANCE, EP_LOCK, EP_PROCESS, EP_RELEASE, EP_TYPE, EP_WAITERS, FREE_LOCK, FREE_SLOTS,
    FREE_TOP, HDR_BUFFERS, HDR_ENDPOINTS, HDR_EP_ALLOC_LOCK, HDR_EP_EPOCH, HDR_MAGIC,
    HDR_MISADDR_DROPS, HDR_MISADDR_TAKEN, HDR_MSG_SIZE, HDR_RING_CAP,
};
use crate::lock::TasLock;
use crate::queue::{AppQueue, EngineQueue};
use crate::region::Region;

/// The shared communication buffer of one node.
pub struct CommBuffer {
    region: Region,
    layout: Layout,
}

impl CommBuffer {
    /// Allocates and initializes a communication buffer with the given
    /// geometry (the paper's boot-time configuration step).
    pub fn new(geo: Geometry) -> Result<CommBuffer> {
        let layout = Layout::new(geo)?;
        let region = Region::alloc_zeroed(layout.total_size());
        let cb = CommBuffer { region, layout };
        // Stamp the header.
        cb.region
            .atomic_u32(HDR_MAGIC)
            .store(COMMBUF_MAGIC, Ordering::Relaxed);
        cb.region
            .atomic_u32(HDR_ENDPOINTS)
            .store(geo.endpoints as u32, Ordering::Relaxed);
        cb.region
            .atomic_u32(HDR_RING_CAP)
            .store(geo.ring_capacity, Ordering::Relaxed);
        cb.region
            .atomic_u32(HDR_BUFFERS)
            .store(geo.buffers, Ordering::Relaxed);
        cb.region
            .atomic_u32(HDR_MSG_SIZE)
            .store(geo.msg_size, Ordering::Release);
        // Free list: a stack holding every buffer index.
        let fl = cb.layout.freelist();
        for i in 0..geo.buffers {
            cb.region
                .atomic_u32(fl + FREE_SLOTS + i as usize * 4)
                .store(i, Ordering::Relaxed);
        }
        cb.region
            .atomic_u32(fl + FREE_TOP)
            .store(geo.buffers, Ordering::Release);
        #[cfg(feature = "ownership-checks")]
        crate::ownership::register_region(cb.region.base_addr(), cb.layout.total_size(), cb.layout);
        Ok(cb)
    }

    /// The geometry this buffer was initialized with.
    pub fn geometry(&self) -> Geometry {
        self.layout.geometry()
    }

    /// The computed layout (offsets) — used by the Paragon cache model to
    /// map fields to simulated cache lines.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Application payload capacity of each message buffer.
    pub fn payload_size(&self) -> usize {
        self.geometry().payload_size()
    }

    /// Checks the header magic — the engine runs this before first use.
    pub fn magic_ok(&self) -> bool {
        self.region.atomic_u32(HDR_MAGIC).load(Ordering::Acquire) == COMMBUF_MAGIC
    }

    // ------------------------------------------------------------------
    // Buffer pool (application side; the engine never touches this).
    // ------------------------------------------------------------------

    /// Allocates a message buffer from the pool.
    ///
    /// FLIPC internalizes all message buffers so that alignment rules are
    /// met by construction; applications never hand FLIPC their own memory.
    pub fn alloc_buffer(&self) -> Result<BufferToken> {
        let fl = self.layout.freelist();
        let lock = TasLock::new(self.region.atomic_u32(fl + FREE_LOCK));
        let _g = lock.lock();
        let top_w = self.region.atomic_u32(fl + FREE_TOP);
        let top = top_w.load(Ordering::Relaxed);
        if top == 0 || top > self.geometry().buffers {
            // Empty pool, or a corrupted top word (errant application):
            // never index past the slot array.
            return Err(FlipcError::NoFreeBuffers);
        }
        let idx = self
            .region
            .atomic_u32(fl + FREE_SLOTS + (top - 1) as usize * 4)
            .load(Ordering::Relaxed);
        top_w.store(top - 1, Ordering::Relaxed);
        if !self.layout.buffer_index_ok(idx) {
            // A corrupted free list (errant application). Discard the
            // garbage slot rather than fabricating a buffer.
            return Err(FlipcError::NoFreeBuffers);
        }
        self.header(idx).set_state(BufferState::Free);
        Ok(BufferToken::new(idx))
    }

    /// Returns a buffer to the pool.
    pub fn free_buffer(&self, token: BufferToken) {
        let idx = token.index();
        debug_assert!(self.layout.buffer_index_ok(idx));
        let fl = self.layout.freelist();
        let lock = TasLock::new(self.region.atomic_u32(fl + FREE_LOCK));
        let _g = lock.lock();
        let top_w = self.region.atomic_u32(fl + FREE_TOP);
        let top = top_w.load(Ordering::Relaxed);
        if top >= self.geometry().buffers {
            // Corrupted free-list top (or a double free): there is no slot
            // to return the buffer into; leak it rather than smash memory.
            return;
        }
        self.region
            .atomic_u32(fl + FREE_SLOTS + top as usize * 4)
            .store(idx, Ordering::Relaxed);
        top_w.store(top + 1, Ordering::Relaxed);
    }

    /// Number of buffers currently in the free pool.
    pub fn free_buffers(&self) -> u32 {
        let fl = self.layout.freelist();
        self.region
            .atomic_u32(fl + FREE_TOP)
            .load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Endpoint allocation (application side).
    // ------------------------------------------------------------------

    /// Allocates an endpoint slot of the given type and importance; returns
    /// its index and generation.
    pub fn alloc_endpoint(
        &self,
        ty: EndpointType,
        importance: Importance,
    ) -> Result<(EndpointIndex, u16)> {
        let lock = TasLock::new(self.region.atomic_u32(HDR_EP_ALLOC_LOCK));
        let _g = lock.lock();
        let n = self.geometry().endpoints;
        for i in 0..n {
            let off = self.layout.endpoint(i);
            let ga_w = self.region.atomic_u32(off + EP_GEN_ACTIVE);
            let ga = ga_w.load(Ordering::Relaxed);
            if ga & 1 == 0 {
                // Inactive: claim it with a bumped generation.
                let gen = ((ga >> 1) as u16).wrapping_add(1);
                self.region
                    .atomic_u32(off + EP_TYPE)
                    .store(ty.encode(), Ordering::Relaxed);
                self.region
                    .atomic_u32(off + EP_IMPORTANCE)
                    .store(importance.encode(), Ordering::Relaxed);
                // Publish activation last; the engine's Acquire load of
                // gen_active then sees a fully configured record.
                ga_w.store(((gen as u32) << 1) | 1, Ordering::Release);
                self.bump_endpoint_epoch();
                return Ok((EndpointIndex(i), gen));
            }
        }
        Err(FlipcError::NoFreeEndpoints)
    }

    /// Frees an endpoint slot. The queue must be fully drained (all three
    /// pointers equal): buffers still associated with an endpoint cannot be
    /// reclaimed by deactivating it out from under the engine.
    pub fn free_endpoint(&self, idx: EndpointIndex) -> Result<()> {
        let lock = TasLock::new(self.region.atomic_u32(HDR_EP_ALLOC_LOCK));
        let _g = lock.lock();
        let off = self.endpoint_off_checked(idx)?;
        let ga_w = self.region.atomic_u32(off + EP_GEN_ACTIVE);
        let ga = ga_w.load(Ordering::Relaxed);
        if ga & 1 == 0 {
            return Err(FlipcError::BadEndpoint);
        }
        if !self.app_queue(idx)?.is_empty() {
            return Err(FlipcError::QueueFull);
        }
        ga_w.store(ga & !1, Ordering::Release);
        self.bump_endpoint_epoch();
        Ok(())
    }

    /// Announces an endpoint-table change to the engine. Called with the
    /// allocation lock held, after the slot's records are published, so
    /// the lock makes this a single-writer load plus store.
    fn bump_endpoint_epoch(&self) {
        let w = self.region.atomic_u32(HDR_EP_EPOCH);
        w.store(w.load(Ordering::Relaxed).wrapping_add(1), Ordering::Release);
    }

    /// The endpoint-table epoch: changes whenever an endpoint is allocated
    /// or freed. An Acquire load that sees a new value also sees the
    /// endpoint records published before the bump.
    pub fn endpoint_epoch(&self) -> u32 {
        self.region.atomic_u32(HDR_EP_EPOCH).load(Ordering::Acquire)
    }

    /// Reads an endpoint's (generation, active) pair.
    pub fn endpoint_gen_active(&self, idx: EndpointIndex) -> Result<(u16, bool)> {
        let off = self.endpoint_off_checked(idx)?;
        let ga = self
            .region
            .atomic_u32(off + EP_GEN_ACTIVE)
            .load(Ordering::Acquire);
        Ok((((ga >> 1) as u16), ga & 1 == 1))
    }

    /// Reads an endpoint's type; fails on inactive or corrupt records.
    pub fn endpoint_type(&self, idx: EndpointIndex) -> Result<EndpointType> {
        let off = self.endpoint_off_checked(idx)?;
        EndpointType::decode(
            self.region
                .atomic_u32(off + EP_TYPE)
                .load(Ordering::Acquire),
        )
    }

    /// Reads an endpoint's importance class.
    pub fn endpoint_importance(&self, idx: EndpointIndex) -> Result<Importance> {
        let off = self.endpoint_off_checked(idx)?;
        Ok(Importance::decode(
            self.region
                .atomic_u32(off + EP_IMPORTANCE)
                .load(Ordering::Relaxed),
        ))
    }

    fn endpoint_off_checked(&self, idx: EndpointIndex) -> Result<usize> {
        if idx.0 >= self.geometry().endpoints {
            return Err(FlipcError::BadEndpoint);
        }
        Ok(self.layout.endpoint(idx.0))
    }

    // ------------------------------------------------------------------
    // Queue views.
    // ------------------------------------------------------------------

    fn ring_slots(&self, idx: u16) -> &[AtomicU32] {
        let cap = self.geometry().ring_capacity as usize;
        let base = self.layout.ring_slot(idx, 0);
        // Materialize the ring as a typed slice. The first element is a
        // valid &AtomicU32 (bounds and alignment checked by `atomic_u32`);
        // the last slot's offset is validated too, so the whole range is in
        // bounds.
        let first = self.region.atomic_u32(base);
        let _ = self
            .region
            .atomic_u32(self.layout.ring_slot(idx, cap as u32 - 1));
        // SAFETY: `first` points at `cap` consecutive, 4-byte-aligned,
        // in-bounds u32 words (layout places ring slots contiguously);
        // AtomicU32 has the same layout as u32; the region is zero-
        // initialized and lives as long as `self`.
        unsafe { std::slice::from_raw_parts(first as *const AtomicU32, cap) }
    }

    /// Application-side queue view of endpoint `idx`.
    ///
    /// The returned handle takes `&mut self` for mutating operations; the
    /// caller (API layer) must ensure one application writer at a time per
    /// endpoint — via the endpoint TAS lock or the `*_unlocked` contract.
    pub fn app_queue(&self, idx: EndpointIndex) -> Result<AppQueue<'_>> {
        let off = self.endpoint_off_checked(idx)?;
        Ok(AppQueue::new(
            self.region.atomic_u32(off + EP_RELEASE),
            self.region.atomic_u32(off + EP_PROCESS),
            self.region.atomic_u32(off + EP_ACQUIRE),
            self.ring_slots(idx.0),
        ))
    }

    /// Engine-side queue view of endpoint `idx`.
    pub fn engine_queue(&self, idx: EndpointIndex) -> Result<EngineQueue<'_>> {
        let off = self.endpoint_off_checked(idx)?;
        Ok(EngineQueue::new(
            self.region.atomic_u32(off + EP_RELEASE),
            self.region.atomic_u32(off + EP_PROCESS),
            self.region.atomic_u32(off + EP_ACQUIRE),
            self.ring_slots(idx.0),
        ))
    }

    /// Endpoint TAS lock (application-thread mutual exclusion).
    pub fn endpoint_lock(&self, idx: EndpointIndex) -> Result<TasLock<'_>> {
        let off = self.endpoint_off_checked(idx)?;
        Ok(TasLock::new(self.region.atomic_u32(off + EP_LOCK)))
    }

    // ------------------------------------------------------------------
    // Drop counters and waiter counts.
    // ------------------------------------------------------------------

    /// Application side of endpoint `idx`'s discarded-message counter.
    pub fn drops_app(&self, idx: EndpointIndex) -> Result<CounterAppSide<'_>> {
        let off = self.endpoint_off_checked(idx)?;
        Ok(CounterAppSide::new(
            self.region.atomic_u32(off + EP_DROPS),
            self.region.atomic_u32(off + EP_DROPS_TAKEN),
        ))
    }

    /// Engine side of endpoint `idx`'s discarded-message counter.
    pub fn drops_engine(&self, idx: EndpointIndex) -> Result<CounterEngineSide<'_>> {
        let off = self.endpoint_off_checked(idx)?;
        Ok(CounterEngineSide::new(
            self.region.atomic_u32(off + EP_DROPS),
        ))
    }

    /// Application side of the node-global misaddressed-message counter
    /// (messages whose destination endpoint was inactive, stale, or not a
    /// receive endpoint).
    pub fn misaddressed_app(&self) -> CounterAppSide<'_> {
        CounterAppSide::new(
            self.region.atomic_u32(HDR_MISADDR_DROPS),
            self.region.atomic_u32(HDR_MISADDR_TAKEN),
        )
    }

    /// Engine side of the misaddressed-message counter.
    pub fn misaddressed_engine(&self) -> CounterEngineSide<'_> {
        CounterEngineSide::new(self.region.atomic_u32(HDR_MISADDR_DROPS))
    }

    /// Adjusts the blocked-waiter count of endpoint `idx` (application
    /// side). `delta` is +1 when a thread blocks, -1 when it unblocks.
    pub fn adjust_waiters(&self, idx: EndpointIndex, delta: i32) -> Result<()> {
        let off = self.endpoint_off_checked(idx)?;
        let w = self.region.atomic_u32(off + EP_WAITERS);
        // Multiple app threads may block concurrently; this word is
        // app-written only, so an RMW here is allowed (app threads can use
        // RMW atomics — only the engine cannot).
        w.fetch_add(delta as u32, Ordering::AcqRel);
        Ok(())
    }

    /// Reads the blocked-waiter count (engine side: decides whether message
    /// arrival must also post a kernel wakeup).
    pub fn waiters(&self, idx: EndpointIndex) -> Result<u32> {
        let off = self.endpoint_off_checked(idx)?;
        Ok(self
            .region
            .atomic_u32(off + EP_WAITERS)
            .load(Ordering::Acquire))
    }

    // ------------------------------------------------------------------
    // Message buffer access.
    // ------------------------------------------------------------------

    /// Header word of buffer `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range; engine callers must validate with
    /// [`Layout::buffer_index_ok`] first (see [`crate::checks`]).
    pub fn header(&self, idx: u32) -> HeaderWord<'_> {
        HeaderWord::new(self.region.atomic_u64(self.layout.buffer(idx)))
    }

    /// Mutable access to the payload of an application-owned buffer.
    ///
    /// # Safety
    ///
    /// The caller must be the buffer's current owner (hold its
    /// [`BufferToken`]) and must not create a second live payload reference
    /// to the same buffer. The API layer guarantees this by moving tokens.
    // The `&self -> &mut` shape is the point: the region is shared memory
    // with interior mutability, and exclusivity comes from the ownership
    // protocol in the safety contract, not from a `&mut CommBuffer` (which
    // would serialize unrelated applications).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn payload_mut(&self, idx: u32) -> &mut [u8] {
        let off = self.layout.buffer_payload(idx);
        let len = self.payload_size();
        // SAFETY: `ptr_at` bounds-checks the range and preserves pointer
        // provenance; the exclusivity obligation is forwarded to our caller
        // per the function's contract; u8 has no validity or alignment
        // concerns.
        unsafe { std::slice::from_raw_parts_mut(self.region.ptr_at(off, len), len) }
    }

    /// Copies an owned buffer's payload out (engine send path).
    ///
    /// # Safety
    ///
    /// The engine must currently own the buffer (state `Queued`, index
    /// taken from the endpoint queue between `peek` and `advance`).
    pub unsafe fn payload_read(&self, idx: u32, dst: &mut [u8]) {
        let off = self.layout.buffer_payload(idx);
        assert!(dst.len() <= self.payload_size(), "read past payload");
        // SAFETY: In-bounds; exclusivity forwarded per contract.
        unsafe { self.region.read_bytes(off, dst) }
    }

    /// Copies data into an owned buffer's payload (engine receive path).
    ///
    /// # Safety
    ///
    /// The engine must currently own the buffer (index taken from the
    /// receive endpoint queue between `peek` and `advance`).
    pub unsafe fn payload_write(&self, idx: u32, src: &[u8]) {
        let off = self.layout.buffer_payload(idx);
        assert!(src.len() <= self.payload_size(), "write past payload");
        // SAFETY: In-bounds; exclusivity forwarded per contract.
        unsafe { self.region.write_bytes(off, src) }
    }

    /// Raw word access for fault-injection tests (an "errant application"
    /// scribbling on the communication buffer). Not part of the public API
    /// semantics; kept safe because the word is an atomic.
    pub fn raw_word(&self, offset: usize) -> &AtomicU32 {
        self.region.atomic_u32(offset)
    }
}

#[cfg(feature = "ownership-checks")]
impl Drop for CommBuffer {
    fn drop(&mut self) {
        crate::ownership::unregister_region(self.region.base_addr());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cb() -> CommBuffer {
        CommBuffer::new(Geometry::small()).unwrap()
    }

    #[test]
    fn initializes_with_magic_and_full_pool() {
        let c = cb();
        assert!(c.magic_ok());
        assert_eq!(c.free_buffers(), 64);
        assert_eq!(c.payload_size(), 120);
    }

    #[test]
    fn buffer_alloc_free_cycles_whole_pool() {
        let c = cb();
        let mut tokens = Vec::new();
        for _ in 0..64 {
            tokens.push(c.alloc_buffer().unwrap());
        }
        assert_eq!(c.alloc_buffer().unwrap_err(), FlipcError::NoFreeBuffers);
        // All indices distinct.
        let mut idxs: Vec<u32> = tokens.iter().map(|t| t.index()).collect();
        idxs.sort_unstable();
        idxs.dedup();
        assert_eq!(idxs.len(), 64);
        for t in tokens {
            c.free_buffer(t);
        }
        assert_eq!(c.free_buffers(), 64);
    }

    #[test]
    fn endpoint_allocation_assigns_distinct_slots_and_generations() {
        let c = cb();
        let (a, g1) = c
            .alloc_endpoint(EndpointType::Send, Importance::Normal)
            .unwrap();
        let (b, _) = c
            .alloc_endpoint(EndpointType::Receive, Importance::High)
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(c.endpoint_type(a).unwrap(), EndpointType::Send);
        assert_eq!(c.endpoint_type(b).unwrap(), EndpointType::Receive);
        assert_eq!(c.endpoint_importance(b).unwrap(), Importance::High);
        assert_eq!(c.endpoint_gen_active(a).unwrap(), (g1, true));
        // Freeing and reallocating the slot bumps the generation.
        c.free_endpoint(a).unwrap();
        assert_eq!(c.endpoint_gen_active(a).unwrap(), (g1, false));
        let (a2, g2) = c
            .alloc_endpoint(EndpointType::Send, Importance::Low)
            .unwrap();
        assert_eq!(a2, a, "first free slot is reused");
        assert_eq!(g2, g1.wrapping_add(1));
    }

    #[test]
    fn endpoint_epoch_moves_on_every_table_change() {
        let c = cb();
        let e0 = c.endpoint_epoch();
        let (ep, _) = c
            .alloc_endpoint(EndpointType::Send, Importance::Normal)
            .unwrap();
        let e1 = c.endpoint_epoch();
        assert_ne!(e1, e0, "allocate bumps the epoch");
        c.free_endpoint(ep).unwrap();
        let e2 = c.endpoint_epoch();
        assert_ne!(e2, e1, "free bumps the epoch");
        // Failed calls leave the table, and so the epoch, unchanged.
        assert!(c.free_endpoint(ep).is_err());
        assert_eq!(c.endpoint_epoch(), e2);
        for _ in 0..8 {
            c.alloc_endpoint(EndpointType::Send, Importance::Normal)
                .unwrap();
        }
        let full = c.endpoint_epoch();
        assert!(c
            .alloc_endpoint(EndpointType::Send, Importance::Normal)
            .is_err());
        assert_eq!(c.endpoint_epoch(), full);
    }

    #[test]
    fn endpoint_pool_exhausts() {
        let c = cb();
        for _ in 0..8 {
            c.alloc_endpoint(EndpointType::Send, Importance::Normal)
                .unwrap();
        }
        assert_eq!(
            c.alloc_endpoint(EndpointType::Send, Importance::Normal)
                .unwrap_err(),
            FlipcError::NoFreeEndpoints
        );
    }

    #[test]
    fn free_endpoint_requires_drained_queue() {
        let c = cb();
        let (ep, _) = c
            .alloc_endpoint(EndpointType::Send, Importance::Normal)
            .unwrap();
        let t = c.alloc_buffer().unwrap();
        c.app_queue(ep).unwrap().release(t.index()).unwrap();
        assert_eq!(c.free_endpoint(ep).unwrap_err(), FlipcError::QueueFull);
        // Drain: engine processes, app acquires.
        let eq = c.engine_queue(ep).unwrap();
        eq.peek().unwrap();
        eq.advance();
        assert_eq!(c.app_queue(ep).unwrap().acquire(), Some(t.index()));
        c.free_endpoint(ep).unwrap();
        assert_eq!(c.free_endpoint(ep).unwrap_err(), FlipcError::BadEndpoint);
    }

    #[test]
    fn queue_views_share_state() {
        let c = cb();
        let (ep, _) = c
            .alloc_endpoint(EndpointType::Send, Importance::Normal)
            .unwrap();
        let t = c.alloc_buffer().unwrap();
        let idx = t.index();
        c.app_queue(ep).unwrap().release(idx).unwrap();
        assert_eq!(c.engine_queue(ep).unwrap().peek(), Some(idx));
    }

    #[test]
    fn payload_roundtrip_through_views() {
        let c = cb();
        let t = c.alloc_buffer().unwrap();
        // SAFETY: We hold the only token for this buffer.
        let p = unsafe { c.payload_mut(t.index()) };
        assert_eq!(p.len(), 120);
        p[..5].copy_from_slice(b"hello");
        let mut out = [0u8; 5];
        // SAFETY: Test is single-threaded; we own the buffer.
        unsafe { c.payload_read(t.index(), &mut out) };
        assert_eq!(&out, b"hello");
        // SAFETY: Same.
        unsafe { c.payload_write(t.index(), b"world") };
        // SAFETY: Same.
        let p = unsafe { c.payload_mut(t.index()) };
        assert_eq!(&p[..5], b"world");
    }

    #[test]
    fn waiter_counts_adjust() {
        let c = cb();
        let (ep, _) = c
            .alloc_endpoint(EndpointType::Receive, Importance::Normal)
            .unwrap();
        assert_eq!(c.waiters(ep).unwrap(), 0);
        c.adjust_waiters(ep, 1).unwrap();
        c.adjust_waiters(ep, 1).unwrap();
        assert_eq!(c.waiters(ep).unwrap(), 2);
        c.adjust_waiters(ep, -1).unwrap();
        assert_eq!(c.waiters(ep).unwrap(), 1);
    }

    #[test]
    fn drop_counters_are_per_endpoint() {
        let c = cb();
        let (a, _) = c
            .alloc_endpoint(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let (b, _) = c
            .alloc_endpoint(EndpointType::Receive, Importance::Normal)
            .unwrap();
        c.drops_engine(a).unwrap().increment();
        assert_eq!(c.drops_app(a).unwrap().read(), 1);
        assert_eq!(c.drops_app(b).unwrap().read(), 0);
        c.misaddressed_engine().increment();
        assert_eq!(c.misaddressed_app().read_and_reset(), 1);
        assert_eq!(c.misaddressed_app().read(), 0);
    }

    #[test]
    fn out_of_range_endpoint_is_rejected_everywhere() {
        let c = cb();
        let bad = EndpointIndex(99);
        assert_eq!(c.endpoint_type(bad).unwrap_err(), FlipcError::BadEndpoint);
        assert!(c.app_queue(bad).is_err());
        assert!(c.engine_queue(bad).is_err());
        assert!(c.drops_app(bad).is_err());
        assert!(c.waiters(bad).is_err());
        assert!(c.free_endpoint(bad).is_err());
    }

    #[test]
    fn concurrent_buffer_allocation_is_exact() {
        use std::sync::Arc;
        let c = Arc::new(
            CommBuffer::new(Geometry {
                buffers: 256,
                ..Geometry::small()
            })
            .unwrap(),
        );
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c2 = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..200 {
                    if let Ok(t) = c2.alloc_buffer() {
                        got.push(t.index());
                    }
                }
                for &i in &got {
                    c2.free_buffer(BufferToken::new(i));
                }
                got.len()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.free_buffers(), 256, "pool must be intact after churn");
    }
}
