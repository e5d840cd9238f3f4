//! `flipc-net`: a real UDP inter-node transport for FLIPC with an
//! optimistic reliability layer.
//!
//! Every other transport in this workspace keeps the bytes inside one
//! process. This crate puts the unmodified messaging engine on real
//! network endpoints: two OS processes, each running
//! [`flipc_engine::engine::Engine`] over a [`NetTransport`], exchange
//! FLIPC messages over non-blocking UDP sockets.
//!
//! The engine's contract ([`flipc_engine::transport::Transport`]) assumes
//! a reliable, per-path-ordered medium — the Paragon mesh's property.
//! UDP is neither, so this crate carries its own reliability layer in the
//! paper's optimistic style (send first, recover rarely, never block the
//! engine loop):
//!
//! * [`reliability`] — per-peer sequence numbers, a bounded go-back-N
//!   retransmit ring with exponential backoff to a cap, a reorder/dedup
//!   window on the receive side, and a per-peer [`ClockSync`] estimator
//!   fed by the NTP-style four-timestamp heartbeat exchange, so two
//!   processes' trace timelines become comparable;
//! * [`packet`] — the versioned datagram header wrapped around the
//!   engine's [`flipc_engine::wire::Frame`] encoding;
//! * [`peers`] — the boot-time node map (node id → socket address, with
//!   `dynamic` entries learned from a peer's first packet);
//! * [`link`] — the best-effort datagram abstraction under the protocol:
//!   real sockets ([`udp::UdpLink`]) or an in-memory hub for tests;
//! * [`fault`] — a seeded fault injector (loss, duplication, reorder,
//!   fixed/jittered delay, per-direction partitions, corruption)
//!   wrapping any link, so robustness tests are deterministic;
//! * [`chaos`] — a scripted scenario harness over the fault injector
//!   that replays whole failure stories (loss bursts, one-way
//!   partitions, crash/restart) against live transports and records a
//!   transcript of every lifecycle transition;
//! * [`stats`] — per-peer two-location counters (frames sent,
//!   retransmitted, dropped, out-of-window) on the same wait-free
//!   discipline as the endpoint drop counters, exposed through
//!   [`flipc_core::inspect`];
//! * [`demo`] — the two-process `--server`/`--client` ping-pong, and
//!   the same node pair bound inside one process
//!   ([`demo::loopback_udp_pair`]).
//!
//! Build one with [`udp_transport`] and hand it to an engine:
//!
//! ```no_run
//! use flipc_core::endpoint::FlipcNodeId;
//! use flipc_net::{udp_transport, NetConfig, NodeMap};
//!
//! let map = NodeMap::parse("0 = 127.0.0.1:7100\n1 = 127.0.0.1:7101")
//!     .map_err(std::io::Error::other)?;
//! let transport = udp_transport(&map, FlipcNodeId(0), NetConfig::default())?;
//! let stats = transport.stats(); // keep for live inspection
//! // Engine::new(cb, Box::new(transport), registry, cfg) ...
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod chaos;
pub mod clock;
pub mod demo;
pub mod fault;
pub mod link;
pub mod packet;
pub mod peers;
pub mod reliability;
pub mod stats;
pub mod transport;
pub mod udp;

pub use chaos::{ChaosTransport, Cluster, Scenario, ScenarioOutcome, ScenarioStep};
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use fault::{FaultConfig, FaultCounts, FaultInjector};
pub use link::{Link, MemHub, MemLink};
pub use peers::{NodeAddr, NodeMap, NodeMapError};
pub use reliability::{ClockSync, NetConfig};
pub use stats::NetStats;
pub use transport::{udp_transport, NetTransport};
pub use udp::UdpLink;
