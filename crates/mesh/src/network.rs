//! Wormhole-routed mesh network timing model.
//!
//! [`Network`] models the Paragon mesh at the granularity the evaluation
//! needs: per-packet latency (`hops * t_hop + bytes * t_byte` when the path
//! is free) and **path occupancy** — a wormhole packet holds every link on
//! its route until its tail flit has drained, so a multi-megabyte
//! single-packet message (SUNMOS-style) blocks crossing traffic for the
//! whole transfer. That blocking is the mechanism behind the paper's
//! real-time responsiveness critique of SUNMOS, reproduced in experiment E8.
//!
//! The model is a state machine over simulated time rather than an event
//! generator: callers pass the current [`SimTime`] and receive the arrival
//! time, which they fold into their own timelines.

use std::collections::HashMap;

use flipc_sim::time::{SimDuration, SimTime};

use crate::topology::{Link, MeshShape, NodeId};

/// Timing parameters of the mesh fabric.
#[derive(Clone, Copy, Debug)]
pub struct MeshTiming {
    /// Per-hop routing/switch latency of the header flit.
    pub hop: SimDuration,
    /// Serialization cost per byte on a link (200 MB/s peak => 5 ns/byte).
    pub ns_per_byte: f64,
}

impl MeshTiming {
    /// The Paragon mesh: ~40ns per hop, 200 MB/s links.
    pub fn paragon() -> Self {
        MeshTiming {
            hop: SimDuration::from_ns(40),
            ns_per_byte: 5.0,
        }
    }

    /// Serialization time of `bytes` on one link.
    pub fn serialize(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ns_f64(self.ns_per_byte * bytes as f64)
    }
}

/// Aggregate traffic statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets transmitted.
    pub packets: u64,
    /// Payload bytes transmitted.
    pub bytes: u64,
    /// Total time packets spent waiting for busy links or a busy source NIC.
    pub blocked_ns: u64,
}

/// The mesh network state: per-link and per-NIC busy horizons.
pub struct Network {
    shape: MeshShape,
    timing: MeshTiming,
    link_busy: HashMap<Link, SimTime>,
    nic_busy: Vec<SimTime>,
    stats: NetStats,
}

impl Network {
    /// Creates an idle network of the given shape and timing.
    pub fn new(shape: MeshShape, timing: MeshTiming) -> Self {
        Network {
            shape,
            timing,
            link_busy: HashMap::new(),
            nic_busy: vec![SimTime::ZERO; shape.len()],
            stats: NetStats::default(),
        }
    }

    /// The mesh shape.
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// The fabric timing parameters.
    pub fn timing(&self) -> MeshTiming {
        self.timing
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Latency of `bytes` from `src` to `dst` on an idle network.
    pub fn uncontended_latency(&self, src: NodeId, dst: NodeId, bytes: u64) -> SimDuration {
        self.timing.hop * self.shape.hops(src, dst) as u64 + self.timing.serialize(bytes)
    }

    /// Transmits one packet of `bytes` from `src` to `dst`, starting no
    /// earlier than `now`; returns the arrival time of the tail flit at the
    /// destination.
    ///
    /// The source NIC streams one packet at a time, the header flit acquires
    /// route links in order (waiting out any that are busy), and every link
    /// on the route is then held until the tail drains — the wormhole
    /// path-occupancy property.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (local delivery never enters the mesh) or if
    /// `bytes` is zero.
    pub fn transmit(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        assert!(src != dst, "mesh transmit to self");
        assert!(bytes > 0, "empty packet");
        let route = self.shape.route(src, dst);
        let serialize = self.timing.serialize(bytes);

        // Wait for the source NIC to finish any earlier packet.
        let start = now.max(self.nic_busy[src.0 as usize]);

        // Header flit acquires each link in order.
        let mut head = start;
        for link in &route {
            let free_at = self.link_busy.get(link).copied().unwrap_or(SimTime::ZERO);
            head = head.max(free_at) + self.timing.hop;
        }
        let arrival = head + serialize;

        // Every link on the path is held until the tail has passed it; the
        // tail clears all links when the last flit reaches the destination.
        for link in route {
            self.link_busy.insert(link, arrival);
        }
        // The source NIC is busy until its last flit leaves, which is the
        // arrival time minus the downstream pipeline depth.
        let hops = self.shape.hops(src, dst) as u64;
        self.nic_busy[src.0 as usize] = SimTime::from_ns(
            arrival
                .as_ns()
                .saturating_sub(self.timing.hop.as_ns() * hops),
        );

        self.stats.packets += 1;
        self.stats.bytes += bytes;
        let ideal = start + self.uncontended_latency(src, dst, bytes);
        self.stats.blocked_ns += arrival.as_ns().saturating_sub(ideal.as_ns())
            + start.as_ns().saturating_sub(now.as_ns());
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(cols: u16, rows: u16) -> Network {
        Network::new(MeshShape::new(cols, rows), MeshTiming::paragon())
    }

    #[test]
    fn idle_latency_is_hops_plus_serialization() {
        let mut n = net(4, 4);
        // (0,0) -> (3,0): 3 hops, 120 bytes at 5ns/B = 600ns.
        let t = n.transmit(SimTime::ZERO, NodeId(0), NodeId(3), 120);
        assert_eq!(t.as_ns(), 3 * 40 + 600);
        assert_eq!(
            n.uncontended_latency(NodeId(0), NodeId(3), 120),
            SimDuration::from_ns(720)
        );
    }

    #[test]
    fn back_to_back_packets_pipeline_at_link_rate() {
        let mut n = net(2, 1);
        let bytes = 512u64;
        let mut last = SimTime::ZERO;
        for i in 0..10 {
            last = n.transmit(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
            // Each packet's head re-acquires the link after the previous
            // tail clears: inter-arrival = serialization + hop.
            let expect = (i + 1) * (bytes * 5 + 40);
            assert_eq!(last.as_ns(), expect, "packet {i}");
        }
        // Effective bandwidth approaches the 200 MB/s link rate.
        let total_bytes = 10 * bytes;
        let mbps = total_bytes as f64 / last.as_ns() as f64 * 1_000.0;
        assert!(mbps > 190.0, "pipelined bandwidth {mbps:.1} MB/s");
    }

    #[test]
    fn long_packet_blocks_crossing_traffic() {
        // A 4MB single packet from (0,1) to (3,1) crosses the column-1 links
        // used by traffic from (1,0) to (1,2) only at... actually XY routing:
        // bulk goes along row 1; the crossing stream (1,0)->(1,2) goes down
        // column 1 and does not share a directed link. Use overlapping rows
        // instead: cross traffic (0,1)->(2,1) shares the row-1 links.
        let mut n = net(4, 3);
        let bulk_src = n.shape().node_at(crate::topology::Coord { x: 0, y: 1 });
        let bulk_dst = n.shape().node_at(crate::topology::Coord { x: 3, y: 1 });
        let small_src = bulk_src;
        let small_dst = n.shape().node_at(crate::topology::Coord { x: 2, y: 1 });

        let bulk_bytes = 4 * 1024 * 1024u64;
        let bulk_arrival = n.transmit(SimTime::ZERO, bulk_src, bulk_dst, bulk_bytes);
        // ~21ms of serialization.
        assert!(bulk_arrival.as_ns() > 20_000_000);

        // A 120-byte message injected right after must wait for the bulk
        // packet's tail to drain the shared links.
        let small = n.transmit(SimTime::from_ns(100), small_src, small_dst, 120);
        assert!(
            small >= bulk_arrival,
            "small packet ({small:?}) must wait for bulk tail ({bulk_arrival:?})"
        );
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut n = net(4, 3);
        // Row 0 traffic and row 2 traffic share nothing.
        let a = n.transmit(SimTime::ZERO, NodeId(0), NodeId(3), 1_000_000);
        let b = n.transmit(SimTime::ZERO, NodeId(8), NodeId(11), 120);
        assert!(b < a);
        assert_eq!(b.as_ns(), 3 * 40 + 600);
    }

    #[test]
    fn nic_serializes_same_source_packets() {
        let mut n = net(3, 1);
        let first = n.transmit(SimTime::ZERO, NodeId(0), NodeId(2), 1_000);
        // Second packet to a different destination still waits for the NIC.
        let second = n.transmit(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        assert!(
            second > SimTime::from_ns(5_000),
            "NIC must serialize injections"
        );
        let _ = first;
    }

    #[test]
    fn per_pair_ordering_is_preserved() {
        let mut n = net(4, 4);
        let mut prev = SimTime::ZERO;
        for _ in 0..50 {
            let t = n.transmit(prev, NodeId(0), NodeId(15), 256);
            assert!(t > prev, "arrivals must be monotone per pair");
            prev = t;
        }
    }

    #[test]
    fn stats_accumulate_and_count_blocking() {
        let mut n = net(2, 1);
        n.transmit(SimTime::ZERO, NodeId(0), NodeId(1), 10_000);
        n.transmit(SimTime::ZERO, NodeId(0), NodeId(1), 10_000);
        let s = n.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.bytes, 20_000);
        assert!(s.blocked_ns > 0, "second packet waited for the NIC");
    }

    #[test]
    #[should_panic(expected = "self")]
    fn self_transmit_panics() {
        net(2, 2).transmit(SimTime::ZERO, NodeId(0), NodeId(0), 64);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_packet_panics() {
        net(2, 2).transmit(SimTime::ZERO, NodeId(0), NodeId(1), 0);
    }
}

#[cfg(test)]
mod contention_tests {
    use super::*;

    #[test]
    fn crossing_traffic_on_disjoint_rows_is_fully_parallel() {
        // Two simultaneous streams on different rows of a 4x2 mesh finish
        // as if each had the machine to itself.
        let shape = MeshShape::new(4, 2);
        let mut both = Network::new(shape, MeshTiming::paragon());
        let a = both.transmit(SimTime::ZERO, NodeId(0), NodeId(3), 4096);
        let b = both.transmit(SimTime::ZERO, NodeId(4), NodeId(7), 4096);

        let mut solo = Network::new(shape, MeshTiming::paragon());
        let a_solo = solo.transmit(SimTime::ZERO, NodeId(0), NodeId(3), 4096);
        assert_eq!(a, a_solo);
        assert_eq!(b, a_solo, "symmetric path must cost the same");
        assert_eq!(both.stats().blocked_ns, 0);
    }

    #[test]
    fn shared_link_serializes_and_counts_blocking() {
        // Both streams need link (1,0)->(2,0).
        let shape = MeshShape::new(4, 1);
        let mut n = Network::new(shape, MeshTiming::paragon());
        let first = n.transmit(SimTime::ZERO, NodeId(0), NodeId(3), 10_000);
        let second = n.transmit(SimTime::ZERO, NodeId(1), NodeId(2), 64);
        assert!(
            second >= first - SimDuration::from_ns(2 * 40),
            "must wait for the tail"
        );
        assert!(n.stats().blocked_ns > 0);
    }

    #[test]
    fn arrival_time_monotone_in_injection_time() {
        let shape = MeshShape::new(2, 1);
        let mut n = Network::new(shape, MeshTiming::paragon());
        let mut prev = SimTime::ZERO;
        for i in 0..20u64 {
            let t = n.transmit(SimTime::from_ns(i * 10_000), NodeId(0), NodeId(1), 256);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn bigger_packets_block_crossing_traffic_longer() {
        let shape = MeshShape::new(4, 1);
        let measure = |bulk_bytes: u64| {
            let mut n = Network::new(shape, MeshTiming::paragon());
            n.transmit(SimTime::ZERO, NodeId(0), NodeId(3), bulk_bytes);
            let t = n.transmit(SimTime::from_ns(10), NodeId(1), NodeId(2), 64);
            t.as_ns()
        };
        let small = measure(1_000);
        let large = measure(1_000_000);
        assert!(large > small * 100, "occupancy must scale with packet size");
    }
}
