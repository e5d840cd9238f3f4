//! The transport contract beneath the messaging engine.
//!
//! FLIPC's engine assumes a *reliable* interconnect that preserves order
//! per (source node, destination node) path — the Paragon mesh's property —
//! and layers nothing on top: no acknowledgements, no retransmission, no
//! end-to-end flow control. The only backpressure is link-level: a full
//! wire makes [`Transport::try_send`] return `false` and the engine retries
//! on its next event-loop iteration without advancing the endpoint queue.
//!
//! Implementations in this workspace:
//!
//! * [`crate::loopback`] — in-process SPSC rings (the "native" engine path
//!   used by tests, examples, and host benchmarks),
//! * `flipc-kkt` — an RPC-per-message transport reproducing the paper's
//!   development platform (and its overhead).

use flipc_core::endpoint::FlipcNodeId;
use flipc_core::inspect::TransportSnapshot;

use crate::wire::Frame;

/// A one-way, reliable, per-path-ordered frame carrier between nodes.
pub trait Transport: Send {
    /// Queues `frame` toward `dst`. Returns `false` if the wire cannot
    /// accept it right now (the engine retries later; the frame is NOT
    /// consumed — the caller keeps it).
    fn try_send(&mut self, dst: FlipcNodeId, frame: &Frame) -> bool;

    /// Polls for the next arrived frame, from any source.
    fn try_recv(&mut self) -> Option<Frame>;

    /// This transport's local node id.
    fn local_node(&self) -> FlipcNodeId;

    /// Data frames this transport retransmitted since the last poll
    /// (telemetry only; the engine forwards the count to its trace ring).
    /// Transports without a reliability layer never retransmit — the
    /// default is a constant 0.
    fn retransmits_since_poll(&mut self) -> u32 {
        0
    }

    /// A loads-only snapshot of this transport's reliability state, for
    /// observers (the metrics exposition, `flipc-top`). Transports without
    /// per-peer state report `None` — the default for in-process carriers
    /// like the loopback fabric.
    fn snapshot(&self) -> Option<TransportSnapshot> {
        None
    }

    /// True when this transport's failure detector has declared `dst`
    /// dead (retransmit budget exhausted). The engine checks this before
    /// draining a frame toward `dst` so the send fails back to the
    /// application's drop counter instead of being black-holed. Transports
    /// without a failure detector never give up on a peer — the default is
    /// a constant `false`.
    fn peer_down(&self, dst: FlipcNodeId) -> bool {
        let _ = dst;
        false
    }

    /// Marks a batch boundary: the engine calls this once at the end of
    /// every outgoing drain pass, after it has offered up to
    /// `max_batch` frames per endpoint via [`Transport::try_send`]. A
    /// coalescing transport transmits whatever it staged during the pass;
    /// transports that send eagerly (the loopback fabric) have nothing to
    /// do — the default is a no-op.
    fn flush(&mut self) {}
}
