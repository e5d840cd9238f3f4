//! The datagram link beneath the reliability layer.
//!
//! [`Link`] is deliberately dumber than [`flipc_engine::transport::Transport`]:
//! best-effort, unordered, unacknowledged datagrams — exactly what UDP
//! gives us. The reliability layer in [`crate::transport`] turns any
//! `Link` into the engine's reliable-ordered contract, which is what lets
//! the robustness tests drive the *identical* protocol code over an
//! in-memory hub ([`MemHub`]) wrapped in a seeded
//! [`crate::fault::FaultInjector`] instead of real sockets.

use std::collections::VecDeque;
use std::sync::Arc;

use flipc_core::endpoint::FlipcNodeId;
use parking_lot::Mutex;

use crate::packet::MAX_DATAGRAM;

/// A best-effort datagram carrier between nodes.
///
/// `send` may silently lose, duplicate, delay, or reorder datagrams; it
/// returns `false` only when the local wire refused the datagram outright
/// (socket buffer full, no address for the peer) — the reliability layer
/// counts that and recovers by retransmission either way.
pub trait Link: Send {
    /// Fires one datagram toward `dst`, best effort.
    fn send(&mut self, dst: FlipcNodeId, bytes: &[u8]) -> bool;

    /// Receives one datagram into `buf`, returning its length, or `None`
    /// when nothing is pending. Never blocks.
    fn recv(&mut self, buf: &mut [u8]) -> Option<usize>;

    /// Binds the *source* of the most recently received datagram to
    /// `node`, for links whose addressing can be learned dynamically (a
    /// UDP peer behind an ephemeral port). No-op by default.
    fn associate(&mut self, node: FlipcNodeId) {
        let _ = node;
    }

    /// Advances any time-based machinery the link carries to `now` (the
    /// transport's clock ticks). The transport calls this once per poll,
    /// before draining the wire. Plain links have none and keep the no-op
    /// default; [`crate::fault::FaultInjector`] overrides it to refill
    /// its token-bucket bandwidth shaper and release queued datagrams.
    fn on_tick(&mut self, now: u64) {
        let _ = now;
    }

    /// Fires a burst of datagrams toward `dst`, returning how many the
    /// wire accepted. The default loops [`Link::send`] and stops at the
    /// first refusal, so a fault injector wrapping the link still sees
    /// (and can fault) each datagram individually.
    fn send_batch(&mut self, dst: FlipcNodeId, datagrams: &[&[u8]]) -> usize {
        let mut accepted = 0;
        for d in datagrams {
            if !self.send(dst, d) {
                break;
            }
            accepted += 1;
        }
        accepted
    }
}

/// Shared state of an in-memory datagram network: one bounded inbox per
/// node. Lossless and FIFO by itself; wrap links in a
/// [`crate::fault::FaultInjector`] to make it misbehave.
pub struct MemHub {
    inboxes: Vec<Mutex<VecDeque<Vec<u8>>>>,
    capacity: usize,
}

impl MemHub {
    /// A hub connecting nodes `0..n`, each with an inbox of `capacity`
    /// datagrams (overflow makes `send` report wire refusal).
    pub fn new(n: usize, capacity: usize) -> Arc<MemHub> {
        Arc::new(MemHub {
            inboxes: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            capacity,
        })
    }

    /// The link endpoint for `node`.
    pub fn link(self: &Arc<MemHub>, node: FlipcNodeId) -> MemLink {
        assert!(
            (node.0 as usize) < self.inboxes.len(),
            "node {} outside hub",
            node.0
        );
        MemLink {
            hub: self.clone(),
            node,
        }
    }
}

/// One node's attachment to a [`MemHub`].
pub struct MemLink {
    hub: Arc<MemHub>,
    node: FlipcNodeId,
}

impl Link for MemLink {
    fn send(&mut self, dst: FlipcNodeId, bytes: &[u8]) -> bool {
        if bytes.len() > MAX_DATAGRAM {
            return false;
        }
        let Some(inbox) = self.hub.inboxes.get(dst.0 as usize) else {
            return false;
        };
        let mut q = inbox.lock();
        if q.len() >= self.hub.capacity {
            return false;
        }
        q.push_back(bytes.to_vec());
        true
    }

    fn recv(&mut self, buf: &mut [u8]) -> Option<usize> {
        let msg = self.hub.inboxes[self.node.0 as usize].lock().pop_front()?;
        let n = msg.len().min(buf.len());
        buf[..n].copy_from_slice(&msg[..n]);
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjector};

    #[test]
    fn hub_routes_between_nodes_fifo() {
        let hub = MemHub::new(2, 8);
        let mut a = hub.link(FlipcNodeId(0));
        let mut b = hub.link(FlipcNodeId(1));
        assert!(a.send(FlipcNodeId(1), b"one"));
        assert!(a.send(FlipcNodeId(1), b"two"));
        let mut buf = [0u8; 16];
        assert_eq!(b.recv(&mut buf), Some(3));
        assert_eq!(&buf[..3], b"one");
        assert_eq!(b.recv(&mut buf), Some(3));
        assert_eq!(&buf[..3], b"two");
        assert_eq!(b.recv(&mut buf), None);
    }

    #[test]
    fn full_inbox_refuses_the_wire() {
        let hub = MemHub::new(2, 1);
        let mut a = hub.link(FlipcNodeId(0));
        assert!(a.send(FlipcNodeId(1), b"x"));
        assert!(!a.send(FlipcNodeId(1), b"y"));
    }

    #[test]
    fn unknown_destination_is_refused() {
        let hub = MemHub::new(1, 4);
        let mut a = hub.link(FlipcNodeId(0));
        assert!(!a.send(FlipcNodeId(7), b"x"));
    }

    #[test]
    fn send_batch_stops_at_the_first_refusal() {
        let burst: [&[u8]; 4] = [b"one", b"two", b"three", b"four"];
        let hub = MemHub::new(2, 2);
        let mut a = hub.link(FlipcNodeId(0));
        let mut b = hub.link(FlipcNodeId(1));
        assert_eq!(a.send_batch(FlipcNodeId(1), &burst), 2);
        let mut buf = [0u8; 16];
        for want in &burst[..2] {
            let n = b.recv(&mut buf).expect("accepted datagram arrives");
            assert_eq!(&buf[..n], *want);
        }
        assert_eq!(b.recv(&mut buf), None, "nothing past the refusal");

        // A wrapping fault injector sees every datagram of the burst.
        let hub = MemHub::new(2, 2);
        let mut lossy = FaultInjector::new(hub.link(FlipcNodeId(0)), FaultConfig::lossy(1.0), 1);
        assert_eq!(lossy.send_batch(FlipcNodeId(1), &burst), 4);
        assert_eq!(lossy.fault_counts().dropped, 4);
    }
}
