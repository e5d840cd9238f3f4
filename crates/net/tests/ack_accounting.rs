//! Ack accounting on the engine-paced path, counted datagram by datagram.
//!
//! Two [`NetTransport`]s share a [`MemHub`] under a [`ManualClock`] that
//! never moves, so no timer fires and every datagram on the wire is one
//! the ack policy chose to send. Each node's link is tapped: whatever it
//! puts on the hub is decoded on the way, and its polls are counted.
//! [`Node::pass`] drives a node the way `Engine::iterate` does:
//! `try_recv` until `None`, then `try_send` of what the application
//! queued, then `flush`.

use std::sync::{Arc, Mutex};

use flipc_core::endpoint::{EndpointAddress, EndpointIndex, FlipcNodeId};
use flipc_core::inspect::PathSnapshot;
use flipc_engine::transport::Transport;
use flipc_engine::wire::Frame;
use flipc_net::packet::{self, AckBlock, BatchBuilder, Packet, BATCH_MTU};
use flipc_net::{Link, ManualClock, MemHub, MemLink, NetConfig, NetTransport};

/// What one node's tap saw.
#[derive(Default)]
struct Wire {
    /// Datagrams the node put on the hub, in order.
    sent: Vec<Vec<u8>>,
    /// `recv` calls that found nothing (each one a `recvfrom` on UDP).
    empty_polls: u32,
}

/// A [`MemLink`] that records what crosses it.
struct Tap {
    inner: MemLink,
    wire: Arc<Mutex<Wire>>,
}

impl Link for Tap {
    fn send(&mut self, dst: FlipcNodeId, bytes: &[u8]) -> bool {
        let ok = self.inner.send(dst, bytes);
        if ok {
            self.wire.lock().unwrap().sent.push(bytes.to_vec());
        }
        ok
    }

    fn recv(&mut self, buf: &mut [u8]) -> Option<usize> {
        let n = self.inner.recv(buf);
        if n.is_none() {
            self.wire.lock().unwrap().empty_polls += 1;
        }
        n
    }
}

/// The shape of one datagram, as the tests count them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Data,
    Ack,
    Batch,
    BatchWithAck,
    Other,
}

fn kind(bytes: &[u8]) -> Kind {
    match packet::decode(bytes).expect("the transport sends only valid datagrams") {
        Packet::Data { .. } => Kind::Data,
        Packet::Ack { .. } => Kind::Ack,
        Packet::Batch { ack: None, .. } => Kind::Batch,
        Packet::Batch { ack: Some(_), .. } => Kind::BatchWithAck,
        Packet::Ping { .. } | Packet::Pong { .. } => Kind::Other,
    }
}

struct Node {
    t: NetTransport<Tap, ManualClock>,
    peer: FlipcNodeId,
    wire: Arc<Mutex<Wire>>,
}

impl Node {
    /// One engine pass: drain arrivals, offer `sends`, end the pass.
    fn pass(&mut self, sends: &[Frame]) -> Vec<Frame> {
        let mut got = Vec::new();
        while let Some(f) = self.t.try_recv() {
            got.push(f);
        }
        for f in sends {
            assert!(self.t.try_send(self.peer, f), "window has room");
        }
        self.t.flush();
        got
    }

    /// The kinds of the datagrams sent since the last call.
    fn take_sent(&self) -> Vec<Kind> {
        let sent = std::mem::take(&mut self.wire.lock().unwrap().sent);
        sent.iter().map(|d| kind(d)).collect()
    }

    fn empty_polls(&self) -> u32 {
        self.wire.lock().unwrap().empty_polls
    }

    fn path(&self) -> PathSnapshot {
        self.t.stats().snapshot().paths[0]
    }
}

/// Node `me` of the two on `hub`, peered with the other.
fn node(hub: &Arc<MemHub>, clock: &ManualClock, me: u16) -> Node {
    let (me, peer) = (FlipcNodeId(me), FlipcNodeId(1 - me));
    let wire = Arc::new(Mutex::new(Wire::default()));
    let link = Tap {
        inner: hub.link(me),
        wire: wire.clone(),
    };
    Node {
        t: NetTransport::new(me, &[peer], link, clock.clone(), NetConfig::default()),
        peer,
        wire,
    }
}

fn pair() -> (Node, Node) {
    let hub = MemHub::new(2, 4096);
    let clock = ManualClock::new();
    (node(&hub, &clock, 0), node(&hub, &clock, 1))
}

fn frame(from: u16, tag: u8) -> Frame {
    Frame {
        src: EndpointAddress::new(FlipcNodeId(from), EndpointIndex(0), 1),
        dst: EndpointAddress::new(FlipcNodeId(1 - from), EndpointIndex(0), 1),
        payload: vec![tag; 16].into(),
        stamp_ns: 0,
    }
}

fn tags(frames: &[Frame]) -> Vec<u8> {
    frames.iter().map(|f| f.payload[0]).collect()
}

#[test]
fn steady_ping_pong_is_one_datagram_per_message_and_no_ack() {
    const ROUNDS: u8 = 20;
    let (mut a, mut b) = pair();
    // Engine start: one empty pass each puts both on the paced path.
    a.pass(&[]);
    b.pass(&[]);
    let polls_before = a.empty_polls() + b.empty_polls();
    for k in 0..ROUNDS {
        a.pass(&[frame(0, k)]);
        assert_eq!(tags(&b.pass(&[])), [k], "request {k} arrives");
        // The app replies; the drain pass after the delivery sends it,
        // and the ack for the request rides it.
        b.pass(&[frame(1, k)]);
        assert_eq!(tags(&a.pass(&[])), [k], "reply {k} arrives");
    }
    let (sa, sb) = (a.take_sent(), b.take_sent());
    assert_eq!(sa.len() + sb.len(), 2 * usize::from(ROUNDS), "2N datagrams");
    assert!(
        !sa.contains(&Kind::Ack) && !sb.contains(&Kind::Ack),
        "no Ack"
    );
    // Only the first request had no ack owed; every other message carried
    // one.
    assert_eq!(sa[0], Kind::Data);
    assert!(sa[1..].iter().all(|&k| k == Kind::BatchWithAck), "{sa:?}");
    assert!(sb.iter().all(|&k| k == Kind::BatchWithAck), "{sb:?}");
    // Each reply acked its request, so the requester's ring is empty.
    assert_eq!(a.path().in_flight, 0);
    assert_eq!(b.path().in_flight, 1, "the last reply's ack still waits");
    // One poll per pass, plus the empty read that ends a receiving pass's
    // burst: 2 empty polls per message, not 3.
    let empty = a.empty_polls() + b.empty_polls() - polls_before;
    assert_eq!(empty, 4 * u32::from(ROUNDS));
    // Without reverse data, the held ack leaves standalone at the end of
    // the next pass, and the responder's ring empties.
    a.pass(&[]);
    assert_eq!(a.take_sent(), [Kind::Ack]);
    b.pass(&[]);
    assert_eq!(b.path().in_flight, 0);
}

#[test]
fn a_stream_gets_one_standalone_ack_per_receiving_pass() {
    const PASSES: u8 = 8;
    let (mut a, mut b) = pair();
    a.pass(&[]);
    b.pass(&[]);
    let burst: Vec<Frame> = (0..64).map(|k| frame(0, k)).collect();
    for p in 0..PASSES {
        a.pass(&burst);
        assert!(a.take_sent().iter().all(|&k| k == Kind::Batch));
        assert_eq!(b.pass(&[]).len(), 64, "pass {p} delivers the burst");
        assert_eq!(b.take_sent(), [Kind::Ack], "pass {p}: one ack, at once");
    }
    a.pass(&[]);
    assert_eq!(a.path().in_flight, 0);
    assert_eq!(b.path().delivered, 64 * u32::from(PASSES));
}

#[test]
fn a_lone_frame_is_acked_at_the_end_of_the_following_pass() {
    let (mut a, mut b) = pair();
    a.pass(&[]);
    b.pass(&[]);
    a.pass(&[frame(0, 7)]);
    assert_eq!(a.take_sent(), [Kind::Data]);
    assert_eq!(tags(&b.pass(&[])), [7]);
    assert_eq!(b.take_sent(), [], "the ack waits a pass for reverse data");
    b.pass(&[]);
    assert_eq!(b.take_sent(), [Kind::Ack], "none came: it leaves alone");
    a.pass(&[]);
    assert_eq!(a.path().in_flight, 0, "the sender's ring empties");
}

#[test]
fn a_caller_that_never_flushes_is_acked_at_the_end_of_the_pump() {
    let (mut a, mut b) = pair();
    a.pass(&[frame(0, 3)]);
    // `b` only polls, like the workload harnesses: no hold, no pacing.
    assert_eq!(b.t.try_recv().map(|f| f.payload[0]), Some(3));
    assert_eq!(b.take_sent(), [Kind::Ack]);
    assert!(b.t.try_recv().is_none());
    assert!(b.t.try_recv().is_none());
    assert_eq!(b.empty_polls(), 3, "every empty try_recv polls the link");
    a.pass(&[]);
    assert_eq!(a.path().in_flight, 0);
}

/// `(credit window, credit shrinks, stale-epoch rejections, in flight)`
/// on node 0 after each of three acks for its one frame reaches it by
/// `carry`: a plain grant, a grant whose drop counter advanced, and one
/// naming an epoch node 0 never used.
fn ack_outcomes(carry: impl Fn(u32, &AckBlock) -> Vec<u8>) -> Vec<(u32, u32, u32, u32)> {
    let hub = MemHub::new(2, 4096);
    let mut a = node(&hub, &ManualClock::new(), 0);
    let mut wire = hub.link(FlipcNodeId(1));
    a.pass(&[frame(0, 1)]);
    let blocks = [
        AckBlock {
            cumulative: 1,
            acked_epoch: 1,
            credit: 8,
            recv_drops: 0,
        },
        AckBlock {
            cumulative: 1,
            acked_epoch: 1,
            credit: 8,
            recv_drops: 3,
        },
        AckBlock {
            cumulative: 1,
            acked_epoch: 9,
            credit: 8,
            recv_drops: 3,
        },
    ];
    let mut out = Vec::new();
    for (k, block) in blocks.iter().enumerate() {
        wire.send(FlipcNodeId(0), &carry(k as u32 + 1, block));
        a.pass(&[]);
        let p = a.path();
        out.push((
            p.credit_window,
            p.credit_shrinks,
            p.stale_epoch,
            p.in_flight,
        ));
    }
    out
}

#[test]
fn a_riding_ack_block_is_applied_exactly_as_an_ack() {
    let expect = vec![(8, 0, 0, 0), (4, 1, 0, 0), (8, 1, 1, 0)];
    let via_ack = ack_outcomes(|_, b| {
        packet::encode_ack(
            FlipcNodeId(1),
            b.cumulative,
            1,
            b.acked_epoch,
            b.credit,
            b.recv_drops,
        )
    });
    assert_eq!(via_ack, expect);
    let via_batch = ack_outcomes(|seq, b| {
        let mut builder = BatchBuilder::new(BATCH_MTU);
        assert!(builder.push(seq, &frame(1, seq as u8).encode()));
        builder
            .finish(FlipcNodeId(1), 1, Some(*b))
            .expect("the block fits")
            .to_vec()
    });
    assert_eq!(via_batch, expect);
}
