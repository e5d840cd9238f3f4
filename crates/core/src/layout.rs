//! Memory layout of the communication buffer.
//!
//! The communication buffer is the focal point of FLIPC: a fixed-size,
//! non-pageable region shared between the messaging engine and every
//! application using FLIPC on the node. It contains *all* memory used for
//! messaging — the endpoint table, the per-endpoint pointer rings, and the
//! message buffers — addressed by offsets and indices so the region is
//! position independent (it is mapped by multiple protection domains).
//!
//! Layout rules, both from the paper:
//!
//! * **No concurrent writers in one cache line.** Every control field is
//!   written by exactly one side (application or engine); fields written by
//!   different sides are placed on different cache lines. The paper found
//!   that violating this (false sharing in the Paragon's 32-byte lines)
//!   roughly doubled latency.
//! * **Fixed-size messages.** The message size is chosen once at
//!   initialization; on the Paragon the interconnect DMA requires at least
//!   64 bytes in 32-byte multiples, and 8 of those bytes are the FLIPC
//!   header, so the minimum application payload is 56 bytes.
//!
//! ```text
//!  offset 0 ┌──────────────────────────────────────────────┐
//!           │ header: magic, geometry; endpoint alloc      │
//!           │   lock + epoch; misaddressed pair (4 lines)  │
//!           ├──────────────────────────────────────────────┤
//!           │ free-list: lock line + top + slots  (app-only)│
//!           ├──────────────────────────────────────────────┤
//!           │ endpoint records (4 lines each):             │
//!           │   line 0  config   (written at (re)alloc)    │
//!           │   line 1  app:     release, acquire,         │
//!           │                    drops_taken, waiters      │
//!           │   line 2  engine:  process, drops            │
//!           │   line 3  app:     TAS lock                  │
//!           ├──────────────────────────────────────────────┤
//!           │ rings: per endpoint, ring_cap x u32 slots    │
//!           │        (app-written, engine-read)            │
//!           ├──────────────────────────────────────────────┤
//!           │ message buffers: n_buffers x msg_size        │
//!           │   [0..8)   header word (addr48 | state16)    │
//!           │   [8..)    payload                           │
//!           └──────────────────────────────────────────────┘
//! ```

use crate::error::{FlipcError, Result};

/// Cache line size used for layout padding. The Paragon's i860 lines are 32
/// bytes; modern x86/ARM lines are 64 — we pad to 64, which satisfies both.
pub const CACHE_LINE: usize = 64;

/// Bytes of each message consumed by the FLIPC header (addressing +
/// synchronization), exactly as in the paper.
pub const MSG_HEADER_SIZE: usize = 8;

/// Minimum fixed message size (Paragon DMA constraint).
pub const MIN_MSG_SIZE: usize = 64;

/// Message sizes must be a multiple of this (Paragon DMA constraint).
pub const MSG_SIZE_GRANULE: usize = 32;

/// Magic word identifying an initialized communication buffer.
pub const COMMBUF_MAGIC: u32 = 0xF11B_C001;

/// Boot-time geometry of a communication buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry {
    /// Number of endpoint slots.
    pub endpoints: u16,
    /// Capacity of each endpoint's buffer-pointer ring (power of two).
    pub ring_capacity: u32,
    /// Number of fixed-size message buffers in the pool.
    pub buffers: u32,
    /// Fixed message size in bytes, *including* the 8-byte header.
    pub msg_size: u32,
}

impl Geometry {
    /// A small geometry suitable for examples and tests: 8 endpoints,
    /// 16-slot rings, 64 buffers of 128 bytes.
    pub fn small() -> Self {
        Geometry {
            endpoints: 8,
            ring_capacity: 16,
            buffers: 64,
            msg_size: 128,
        }
    }

    /// Validates the geometry against the platform rules.
    pub fn validate(&self) -> Result<()> {
        if self.endpoints == 0 {
            return Err(FlipcError::BadGeometry("endpoint count must be nonzero"));
        }
        if self.buffers == 0 {
            return Err(FlipcError::BadGeometry("buffer count must be nonzero"));
        }
        if !self.ring_capacity.is_power_of_two() {
            return Err(FlipcError::BadGeometry(
                "ring capacity must be a power of two",
            ));
        }
        if self.ring_capacity < 2 {
            return Err(FlipcError::BadGeometry("ring capacity must be at least 2"));
        }
        if (self.msg_size as usize) < MIN_MSG_SIZE {
            return Err(FlipcError::BadGeometry(
                "message size below platform minimum (64)",
            ));
        }
        if !(self.msg_size as usize).is_multiple_of(MSG_SIZE_GRANULE) {
            return Err(FlipcError::BadGeometry(
                "message size must be a multiple of 32",
            ));
        }
        Ok(())
    }

    /// Application payload bytes per message (message size minus header).
    pub fn payload_size(&self) -> usize {
        self.msg_size as usize - MSG_HEADER_SIZE
    }
}

fn round_line(x: usize) -> usize {
    x.div_ceil(CACHE_LINE) * CACHE_LINE
}

/// Byte offsets of every structure in the region, precomputed from a
/// validated [`Geometry`].
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    geo: Geometry,
    freelist_off: usize,
    endpoints_off: usize,
    rings_off: usize,
    buffers_off: usize,
    total: usize,
}

/// Size of one endpoint record: four cache lines (config / app / engine /
/// lock), per the false-sharing rule.
pub const ENDPOINT_RECORD_SIZE: usize = 4 * CACHE_LINE;

// Offsets within the region header (line 0).
/// Magic word (u32).
pub const HDR_MAGIC: usize = 0;
/// Endpoint count (u32).
pub const HDR_ENDPOINTS: usize = 4;
/// Ring capacity (u32).
pub const HDR_RING_CAP: usize = 8;
/// Buffer count (u32).
pub const HDR_BUFFERS: usize = 12;
/// Message size (u32).
pub const HDR_MSG_SIZE: usize = 16;
/// Line 1 (application-written): TAS lock guarding endpoint allocation.
pub const HDR_EP_ALLOC_LOCK: usize = CACHE_LINE;
/// Line 1: endpoint-table epoch (u32), bumped under the allocation lock by
/// every endpoint allocate and free. The engine rebuilds its cached lists
/// of active send endpoints only when it sees this word change.
pub const HDR_EP_EPOCH: usize = CACHE_LINE + 4;
/// Line 2 (engine-written): counter of messages dropped because their
/// destination endpoint was inactive or stale ("misaddressed"); the
/// engine-written half of a read-and-reset pair.
pub const HDR_MISADDR_DROPS: usize = 2 * CACHE_LINE;
/// Line 3 (application-written): taken snapshot paired with
/// [`HDR_MISADDR_DROPS`].
pub const HDR_MISADDR_TAKEN: usize = 3 * CACHE_LINE;
/// Size of the region header: config line, app lock line, engine counter
/// line, app counter line — one writer per line.
pub const HDR_SIZE: usize = 4 * CACHE_LINE;

// Offsets within the free-list area.
/// TAS lock guarding the free list (u32, app-side only).
pub const FREE_LOCK: usize = 0;
/// Stack top: number of free entries (u32).
pub const FREE_TOP: usize = CACHE_LINE;
/// First stack slot (u32 each), following the top word's line.
pub const FREE_SLOTS: usize = 2 * CACHE_LINE;

// Offsets within an endpoint record.
/// Line 0 (config): endpoint type (u32).
pub const EP_TYPE: usize = 0;
/// Line 0: generation + active flag (u32: gen<<1 | active).
pub const EP_GEN_ACTIVE: usize = 4;
/// Line 0: importance class (u32).
pub const EP_IMPORTANCE: usize = 8;
/// Line 1 (application-written): release pointer (u32 free-running counter).
pub const EP_RELEASE: usize = CACHE_LINE;
/// Line 1: acquire pointer (u32 free-running counter).
pub const EP_ACQUIRE: usize = CACHE_LINE + 4;
/// Line 1: drops-taken snapshot — the application-written half of the
/// wait-free read-and-reset drop counter.
pub const EP_DROPS_TAKEN: usize = CACHE_LINE + 8;
/// Line 1: count of threads blocked on this endpoint (engine reads it to
/// decide whether a kernel wakeup is needed).
pub const EP_WAITERS: usize = CACHE_LINE + 12;
/// Line 2 (engine-written): process pointer (u32 free-running counter).
pub const EP_PROCESS: usize = 2 * CACHE_LINE;
/// Line 2: drop counter — the engine-written half of the read-and-reset
/// pair; incremented each time an arriving message is discarded.
pub const EP_DROPS: usize = 2 * CACHE_LINE + 4;
/// Line 3 (application-written): test-and-set lock for mutual exclusion
/// among application threads. On its own line because on the Paragon a
/// locked RMW bypasses the caches and would otherwise disturb line 1.
pub const EP_LOCK: usize = 3 * CACHE_LINE;

/// The single role allowed to write a shared field — the paper's central
/// layout discipline (see the write-ownership map in `DESIGN.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOwner {
    /// Written only by the application library (possibly under a TAS lock
    /// for app-thread mutual exclusion — still one *role*).
    App,
    /// Written only by the messaging engine.
    Engine,
    /// Ownership alternates over time via the buffer-ownership protocol
    /// (message-buffer header words and payloads): exactly one side may
    /// write at any moment, but which side changes hands, so a static
    /// checker must exempt it.
    Dynamic,
}

/// A classified region offset: which field it falls in and who may write it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldClass {
    /// Human-readable field name, e.g. `endpoint[3].process`.
    pub name: String,
    /// The field's single writer role.
    pub owner: WriteOwner,
}

impl Layout {
    /// Computes the layout for `geo`.
    ///
    /// Fails if the geometry is invalid.
    pub fn new(geo: Geometry) -> Result<Layout> {
        geo.validate()?;
        let freelist_off = HDR_SIZE;
        let freelist_size = round_line(FREE_SLOTS + geo.buffers as usize * 4);
        let endpoints_off = freelist_off + freelist_size;
        let endpoints_size = geo.endpoints as usize * ENDPOINT_RECORD_SIZE;
        let rings_off = endpoints_off + endpoints_size;
        let ring_size = round_line(geo.ring_capacity as usize * 4);
        let rings_size = geo.endpoints as usize * ring_size;
        let buffers_off = rings_off + rings_size;
        let total = buffers_off + geo.buffers as usize * geo.msg_size as usize;
        Ok(Layout {
            geo,
            freelist_off,
            endpoints_off,
            rings_off,
            buffers_off,
            total,
        })
    }

    /// The geometry this layout was computed from.
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// Total region size in bytes.
    pub fn total_size(&self) -> usize {
        self.total
    }

    /// Offset of the free-list area.
    pub fn freelist(&self) -> usize {
        self.freelist_off
    }

    /// Offset of endpoint record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (internal callers validate first).
    pub fn endpoint(&self, i: u16) -> usize {
        assert!(i < self.geo.endpoints, "endpoint index out of range");
        self.endpoints_off + i as usize * ENDPOINT_RECORD_SIZE
    }

    /// Offset of ring slot `slot` of endpoint `i`.
    pub fn ring_slot(&self, i: u16, slot: u32) -> usize {
        assert!(i < self.geo.endpoints, "endpoint index out of range");
        assert!(slot < self.geo.ring_capacity, "ring slot out of range");
        let ring_size = round_line(self.geo.ring_capacity as usize * 4);
        self.rings_off + i as usize * ring_size + slot as usize * 4
    }

    /// Offset of message buffer `b` (its header word).
    pub fn buffer(&self, b: u32) -> usize {
        assert!(b < self.geo.buffers, "buffer index out of range");
        self.buffers_off + b as usize * self.geo.msg_size as usize
    }

    /// Offset of the payload of buffer `b`.
    pub fn buffer_payload(&self, b: u32) -> usize {
        self.buffer(b) + MSG_HEADER_SIZE
    }

    /// Returns `true` if `b` is a valid buffer index — the engine-side
    /// validity check applied to every index read from app-writable memory.
    pub fn buffer_index_ok(&self, b: u32) -> bool {
        b < self.geo.buffers
    }

    /// Classifies a byte offset: which field it falls in and which role is
    /// its single writer. Returns `None` for offsets past the region.
    ///
    /// This is the machine-readable form of the write-ownership map in
    /// `DESIGN.md`, used by the `ownership-checks` runtime checker and by
    /// diagnostics ([`crate::inspect`]).
    pub fn classify(&self, off: usize) -> Option<FieldClass> {
        use WriteOwner::{App, Dynamic, Engine};
        let f = |name: String, owner: WriteOwner| Some(FieldClass { name, owner });
        if off >= self.total {
            return None;
        }
        if off < HDR_SIZE {
            return match off {
                HDR_MAGIC => f("header.magic".into(), App),
                HDR_ENDPOINTS => f("header.endpoints".into(), App),
                HDR_RING_CAP => f("header.ring_cap".into(), App),
                HDR_BUFFERS => f("header.buffers".into(), App),
                HDR_MSG_SIZE => f("header.msg_size".into(), App),
                HDR_EP_ALLOC_LOCK => f("header.ep_alloc_lock".into(), App),
                HDR_EP_EPOCH => f("header.ep_epoch".into(), App),
                HDR_MISADDR_DROPS => f("header.misaddr_drops".into(), Engine),
                HDR_MISADDR_TAKEN => f("header.misaddr_taken".into(), App),
                // Padding inherits its cache line's writer (line 2 is the
                // engine's counter line; the rest are app-written).
                _ if off / CACHE_LINE == HDR_MISADDR_DROPS / CACHE_LINE => {
                    f(format!("header.pad[{off}]"), Engine)
                }
                _ => f(format!("header.pad[{off}]"), App),
            };
        }
        if off < self.endpoints_off {
            // The buffer free list is app-only (the engine never allocates).
            let rel = off - self.freelist_off;
            return match rel {
                FREE_LOCK => f("freelist.lock".into(), App),
                FREE_TOP => f("freelist.top".into(), App),
                _ if rel >= FREE_SLOTS => {
                    f(format!("freelist.slot[{}]", (rel - FREE_SLOTS) / 4), App)
                }
                _ => f(format!("freelist.pad[{rel}]"), App),
            };
        }
        if off < self.rings_off {
            let rel = off - self.endpoints_off;
            let i = rel / ENDPOINT_RECORD_SIZE;
            let within = rel % ENDPOINT_RECORD_SIZE;
            return match within {
                EP_TYPE => f(format!("endpoint[{i}].type"), App),
                EP_GEN_ACTIVE => f(format!("endpoint[{i}].gen_active"), App),
                EP_IMPORTANCE => f(format!("endpoint[{i}].importance"), App),
                EP_RELEASE => f(format!("endpoint[{i}].release"), App),
                EP_ACQUIRE => f(format!("endpoint[{i}].acquire"), App),
                EP_DROPS_TAKEN => f(format!("endpoint[{i}].drops_taken"), App),
                EP_WAITERS => f(format!("endpoint[{i}].waiters"), App),
                EP_PROCESS => f(format!("endpoint[{i}].process"), Engine),
                EP_DROPS => f(format!("endpoint[{i}].drops"), Engine),
                EP_LOCK => f(format!("endpoint[{i}].lock"), App),
                // Padding inherits its line's writer; line 2 is the
                // engine's.
                _ if within / CACHE_LINE == EP_PROCESS / CACHE_LINE => {
                    f(format!("endpoint[{i}].pad[{within}]"), Engine)
                }
                _ => f(format!("endpoint[{i}].pad[{within}]"), App),
            };
        }
        if off < self.buffers_off {
            // Ring slots: app-written, engine-read.
            let rel = off - self.rings_off;
            let ring_size = round_line(self.geo.ring_capacity as usize * 4);
            let i = rel / ring_size;
            let slot = (rel % ring_size) / 4;
            return f(format!("ring[{i}].slot[{slot}]"), App);
        }
        // Message buffers: ownership alternates via the buffer protocol.
        let rel = off - self.buffers_off;
        let b = rel / self.geo.msg_size as usize;
        let within = rel % self.geo.msg_size as usize;
        if within < MSG_HEADER_SIZE {
            f(format!("buffer[{b}].header"), Dynamic)
        } else {
            f(format!("buffer[{b}].payload"), Dynamic)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_geometry_validates() {
        assert!(Geometry::small().validate().is_ok());
    }

    #[test]
    fn geometry_rules_are_enforced() {
        let base = Geometry::small();
        let cases = [
            (
                Geometry {
                    endpoints: 0,
                    ..base
                },
                "endpoint",
            ),
            (Geometry { buffers: 0, ..base }, "buffer"),
            (
                Geometry {
                    ring_capacity: 12,
                    ..base
                },
                "power of two",
            ),
            (
                Geometry {
                    ring_capacity: 1,
                    ..base
                },
                "at least 2",
            ),
            (
                Geometry {
                    msg_size: 32,
                    ..base
                },
                "minimum",
            ),
            (
                Geometry {
                    msg_size: 96 + 8,
                    ..base
                },
                "multiple of 32",
            ),
        ];
        for (geo, needle) in cases {
            match geo.validate() {
                Err(FlipcError::BadGeometry(msg)) => {
                    assert!(msg.contains(needle), "{geo:?}: {msg} !~ {needle}")
                }
                other => panic!("{geo:?} unexpectedly gave {other:?}"),
            }
        }
    }

    #[test]
    fn min_payload_is_56_bytes() {
        let geo = Geometry {
            msg_size: 64,
            ..Geometry::small()
        };
        assert_eq!(geo.payload_size(), 56);
    }

    #[test]
    fn regions_do_not_overlap_and_are_line_aligned() {
        let lay = Layout::new(Geometry::small()).unwrap();
        let geo = lay.geometry();
        assert!(lay.freelist() >= HDR_SIZE);
        assert_eq!(lay.freelist() % CACHE_LINE, 0);
        // Free list ends before first endpoint.
        assert!(lay.freelist() + FREE_SLOTS + geo.buffers as usize * 4 <= lay.endpoint(0));
        assert_eq!(lay.endpoint(0) % CACHE_LINE, 0);
        // Endpoint records are disjoint.
        for i in 1..geo.endpoints {
            assert_eq!(lay.endpoint(i), lay.endpoint(i - 1) + ENDPOINT_RECORD_SIZE);
        }
        // Rings start after last endpoint record and before buffers.
        let last_ep_end = lay.endpoint(geo.endpoints - 1) + ENDPOINT_RECORD_SIZE;
        assert!(lay.ring_slot(0, 0) >= last_ep_end);
        let last_ring = lay.ring_slot(geo.endpoints - 1, geo.ring_capacity - 1);
        assert!(last_ring + 4 <= lay.buffer(0));
        // Buffers are contiguous and fill to the end.
        assert_eq!(lay.buffer(1), lay.buffer(0) + geo.msg_size as usize);
        assert_eq!(
            lay.buffer(geo.buffers - 1) + geo.msg_size as usize,
            lay.total_size()
        );
    }

    #[test]
    fn rings_of_different_endpoints_are_on_distinct_lines() {
        let lay = Layout::new(Geometry::small()).unwrap();
        let a_last = lay.ring_slot(0, 15);
        let b_first = lay.ring_slot(1, 0);
        assert!(b_first / CACHE_LINE > a_last / CACHE_LINE);
    }

    #[test]
    fn app_and_engine_fields_are_on_separate_lines() {
        // The core false-sharing rule: line(app fields) != line(engine
        // fields) within an endpoint record.
        let app = [EP_RELEASE, EP_ACQUIRE, EP_DROPS_TAKEN, EP_WAITERS];
        let engine = [EP_PROCESS, EP_DROPS];
        for a in app {
            for e in engine {
                assert_ne!(
                    a / CACHE_LINE,
                    e / CACHE_LINE,
                    "fields {a} and {e} share a line"
                );
            }
        }
        // The lock is on its own line, away from both.
        for other in app.iter().chain(engine.iter()) {
            assert_ne!(EP_LOCK / CACHE_LINE, other / CACHE_LINE);
        }
        // Config is on yet another line.
        for other in app.iter().chain(engine.iter()) {
            assert_ne!(EP_TYPE / CACHE_LINE, other / CACHE_LINE);
        }
    }

    #[test]
    fn header_writer_lines_are_separate() {
        let lines = [
            HDR_MAGIC / CACHE_LINE,
            HDR_EP_ALLOC_LOCK / CACHE_LINE,
            HDR_MISADDR_DROPS / CACHE_LINE,
            HDR_MISADDR_TAKEN / CACHE_LINE,
        ];
        let mut sorted = lines;
        sorted.sort_unstable();
        sorted.windows(2).for_each(|w| assert_ne!(w[0], w[1]));
        // The epoch is app-written, so it shares the allocation lock's
        // line and stays off the engine's counter line.
        assert_eq!(HDR_EP_EPOCH / CACHE_LINE, HDR_EP_ALLOC_LOCK / CACHE_LINE);
        assert_ne!(HDR_EP_EPOCH, HDR_EP_ALLOC_LOCK);
        const { assert!(HDR_MISADDR_TAKEN + 4 <= HDR_SIZE) };
    }

    #[test]
    fn buffers_are_dma_aligned() {
        let lay = Layout::new(Geometry::small()).unwrap();
        for b in 0..lay.geometry().buffers {
            assert_eq!(lay.buffer(b) % MSG_SIZE_GRANULE, 0, "buffer {b} misaligned");
        }
    }

    #[test]
    fn buffer_index_check() {
        let lay = Layout::new(Geometry::small()).unwrap();
        assert!(lay.buffer_index_ok(0));
        assert!(lay.buffer_index_ok(63));
        assert!(!lay.buffer_index_ok(64));
        assert!(!lay.buffer_index_ok(u32::MAX));
    }

    #[test]
    fn total_size_scales_with_geometry() {
        let small = Layout::new(Geometry::small()).unwrap().total_size();
        let big = Layout::new(Geometry {
            endpoints: 16,
            ring_capacity: 64,
            buffers: 1024,
            msg_size: 256,
        })
        .unwrap()
        .total_size();
        assert!(big > small);
        // 1024 buffers of 256B dominate.
        assert!(big > 1024 * 256);
    }

    #[test]
    fn classify_names_every_control_word_with_its_single_writer() {
        let lay = Layout::new(Geometry::small()).unwrap();
        let cases: &[(usize, &str, WriteOwner)] = &[
            (HDR_MAGIC, "header.magic", WriteOwner::App),
            (HDR_EP_ALLOC_LOCK, "header.ep_alloc_lock", WriteOwner::App),
            (HDR_EP_EPOCH, "header.ep_epoch", WriteOwner::App),
            (
                HDR_MISADDR_DROPS,
                "header.misaddr_drops",
                WriteOwner::Engine,
            ),
            (HDR_MISADDR_TAKEN, "header.misaddr_taken", WriteOwner::App),
            (lay.freelist() + FREE_LOCK, "freelist.lock", WriteOwner::App),
            (lay.freelist() + FREE_TOP, "freelist.top", WriteOwner::App),
            (
                lay.freelist() + FREE_SLOTS + 8,
                "freelist.slot[2]",
                WriteOwner::App,
            ),
            (
                lay.endpoint(0) + EP_RELEASE,
                "endpoint[0].release",
                WriteOwner::App,
            ),
            (
                lay.endpoint(0) + EP_ACQUIRE,
                "endpoint[0].acquire",
                WriteOwner::App,
            ),
            (
                lay.endpoint(3) + EP_PROCESS,
                "endpoint[3].process",
                WriteOwner::Engine,
            ),
            (
                lay.endpoint(3) + EP_DROPS,
                "endpoint[3].drops",
                WriteOwner::Engine,
            ),
            (
                lay.endpoint(1) + EP_DROPS_TAKEN,
                "endpoint[1].drops_taken",
                WriteOwner::App,
            ),
            (
                lay.endpoint(1) + EP_WAITERS,
                "endpoint[1].waiters",
                WriteOwner::App,
            ),
            (
                lay.endpoint(7) + EP_LOCK,
                "endpoint[7].lock",
                WriteOwner::App,
            ),
            (lay.ring_slot(2, 5), "ring[2].slot[5]", WriteOwner::App),
            (lay.buffer(9), "buffer[9].header", WriteOwner::Dynamic),
            (
                lay.buffer_payload(9),
                "buffer[9].payload",
                WriteOwner::Dynamic,
            ),
        ];
        for &(off, name, owner) in cases {
            let fc = lay
                .classify(off)
                .unwrap_or_else(|| panic!("{name} unclassified"));
            assert_eq!(fc.name, name, "at offset {off}");
            assert_eq!(fc.owner, owner, "wrong writer for {name}");
        }
        assert_eq!(lay.classify(lay.total_size()), None);
    }

    #[test]
    fn classify_covers_every_word_in_the_region() {
        let lay = Layout::new(Geometry::small()).unwrap();
        for off in (0..lay.total_size()).step_by(4) {
            assert!(lay.classify(off).is_some(), "offset {off} unclassified");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn endpoint_offset_bounds_checked() {
        let lay = Layout::new(Geometry::small()).unwrap();
        lay.endpoint(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn buffer_offset_bounds_checked() {
        let lay = Layout::new(Geometry::small()).unwrap();
        lay.buffer(64);
    }
}
