//! The real-socket [`Link`]: non-blocking UDP.
//!
//! One socket per node, bound at the address the [`NodeMap`] assigns to
//! the local node id. The kernel is on the messaging path here — that is
//! the unavoidable cost of leaving the box on a commodity host — but it is
//! touched exactly once per datagram in each direction (`sendto` /
//! `recvfrom`, both non-blocking) and never for synchronization, keeping
//! the engine's event loop unblocked, in the spirit of the paper's
//! kernel-off-the-path design.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};

use flipc_core::endpoint::FlipcNodeId;

use crate::link::Link;
use crate::peers::{NodeAddr, NodeMap};

/// A non-blocking UDP socket speaking to peers from a [`NodeMap`].
#[derive(Debug)]
pub struct UdpLink {
    socket: UdpSocket,
    /// Peer addresses by node id (sparse; learned entries overwrite
    /// `Dynamic` slots).
    addrs: Vec<Option<SocketAddr>>,
    /// Source address of the most recently received datagram, pending a
    /// possible [`Link::associate`].
    last_from: Option<SocketAddr>,
}

impl UdpLink {
    /// Binds the local node's socket and loads peer addresses from `map`.
    ///
    /// The local node must appear in the map with a static address (it is
    /// the bind address; port 0 asks the OS for an ephemeral port —
    /// [`UdpLink::local_addr`] reports what was actually bound).
    pub fn bind(map: &NodeMap, local: FlipcNodeId) -> std::io::Result<UdpLink> {
        let bind_addr = map.static_addr(local).ok_or_else(|| {
            std::io::Error::other(format!("node {} has no static bind address", local.0))
        })?;
        let socket = UdpSocket::bind(bind_addr)?;
        socket.set_nonblocking(true)?;
        let max_node = map.nodes().map(|n| n.0).max().unwrap_or(0) as usize;
        let mut addrs = vec![None; max_node + 1];
        for node in map.nodes() {
            if node == local {
                continue;
            }
            if let Some(NodeAddr::Static(a)) = map.addr(node) {
                addrs[node.0 as usize] = Some(a);
            }
        }
        Ok(UdpLink {
            socket,
            addrs,
            last_from: None,
        })
    }

    /// The socket address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

impl Link for UdpLink {
    fn send(&mut self, dst: FlipcNodeId, bytes: &[u8]) -> bool {
        let Some(Some(addr)) = self.addrs.get(dst.0 as usize) else {
            return false; // no address (yet) for this peer
        };
        match self.socket.send_to(bytes, addr) {
            Ok(n) => n == bytes.len(),
            // WouldBlock = socket buffer full; anything else (e.g. a
            // transient ICMP-unreachable surfacing as ECONNREFUSED) is
            // equally just a lost datagram to the reliability layer.
            Err(_) => false,
        }
    }

    fn recv(&mut self, buf: &mut [u8]) -> Option<usize> {
        match self.socket.recv_from(buf) {
            Ok((n, from)) => {
                self.last_from = Some(from);
                Some(n)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => None,
            // Swallow transient errors (ICMP port unreachable bursts on
            // some platforms); the retransmit machinery absorbs the gap.
            Err(_) => None,
        }
    }

    fn associate(&mut self, node: FlipcNodeId) {
        let Some(from) = self.last_from else { return };
        let idx = node.0 as usize;
        if idx >= self.addrs.len() {
            self.addrs.resize(idx + 1, None);
        }
        if self.addrs[idx] != Some(from) {
            self.addrs[idx] = Some(from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peers::NodeMap;

    /// Race-free construction of two links on ephemeral sockets: `b`
    /// (node 1) routes to `a`'s real address statically, while `a`
    /// (node 0) knows node 1 only as `Dynamic` and must learn it from a
    /// first packet + associate — the client-server pattern.
    fn linked_pair() -> (UdpLink, UdpLink) {
        let mut boot = NodeMap::new();
        boot.insert(
            FlipcNodeId(0),
            NodeAddr::Static("127.0.0.1:0".parse().unwrap()),
        )
        .insert(FlipcNodeId(1), NodeAddr::Dynamic);
        let a = UdpLink::bind(&boot, FlipcNodeId(0)).unwrap();
        let mut boot_b = NodeMap::new();
        boot_b
            .insert(
                FlipcNodeId(1),
                NodeAddr::Static("127.0.0.1:0".parse().unwrap()),
            )
            .insert(FlipcNodeId(0), NodeAddr::Static(a.local_addr().unwrap()));
        let b = UdpLink::bind(&boot_b, FlipcNodeId(1)).unwrap();
        (a, b)
    }

    fn recv_with_patience(link: &mut UdpLink, buf: &mut [u8]) -> Option<usize> {
        for _ in 0..1000 {
            if let Some(n) = link.recv(buf) {
                return Some(n);
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        None
    }

    #[test]
    fn datagrams_cross_localhost() {
        let (mut a, mut b) = linked_pair();

        // b -> a: a learns b's address from the packet source.
        assert!(b.send(FlipcNodeId(0), b"ping"));
        let mut buf = [0u8; 64];
        let n = recv_with_patience(&mut a, &mut buf).expect("datagram arrives");
        assert_eq!(&buf[..n], b"ping");
        a.associate(FlipcNodeId(1));

        // a -> b now works through the learned address.
        assert!(a.send(FlipcNodeId(1), b"pong"));
        let n = recv_with_patience(&mut b, &mut buf).expect("reply arrives");
        assert_eq!(&buf[..n], b"pong");
    }

    #[test]
    fn send_without_address_is_refused() {
        let (mut a, _b) = linked_pair();
        assert!(
            !a.send(FlipcNodeId(1), b"x"),
            "dynamic peer not yet learned"
        );
        assert!(!a.send(FlipcNodeId(9), b"x"), "unknown node");
    }

    #[test]
    fn send_batch_crosses_localhost() {
        let (mut a, mut b) = linked_pair();

        let datagrams: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; 32]).collect();
        let refs: Vec<&[u8]> = datagrams.iter().map(|d| d.as_slice()).collect();
        assert_eq!(b.send_batch(FlipcNodeId(0), &refs), 24);
        assert_eq!(
            a.send_batch(FlipcNodeId(1), &refs),
            0,
            "no address for a dynamic peer not yet learned"
        );

        let mut buf = [0u8; 64];
        let mut got = Vec::new();
        while got.len() < datagrams.len() {
            let n = recv_with_patience(&mut a, &mut buf).expect("burst datagram arrives");
            got.push(buf[..n].to_vec());
        }
        got.sort();
        assert_eq!(got, datagrams, "the whole burst crossed the wire");
        a.associate(FlipcNodeId(1));
        assert!(
            a.send(FlipcNodeId(1), b"ack"),
            "associate learned the burst's source address"
        );
    }

    #[test]
    fn bind_requires_a_static_local_address() {
        let mut boot = NodeMap::new();
        boot.insert(FlipcNodeId(0), NodeAddr::Dynamic);
        assert!(UdpLink::bind(&boot, FlipcNodeId(0)).is_err());
        assert!(UdpLink::bind(&boot, FlipcNodeId(5)).is_err());
    }
}
