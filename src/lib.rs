//! FLIPC: a low-latency messaging system for distributed real-time
//! environments.
//!
//! This is a from-scratch Rust reproduction of the system described in
//! Black, Smith, Sears & Dean, *"FLIPC: A Low Latency Messaging System for
//! Distributed Real Time Environments"*, USENIX Annual Technical
//! Conference, 1996. It is a facade crate re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `flipc-core` | communication buffer, wait-free queues and counters, endpoints, groups, the application API, managed-buffer and flow-control layers |
//! | [`engine`] | `flipc-engine` | the messaging engine, transports, SPSC wire rings, node/cluster assembly |
//! | [`kkt`] | `flipc-kkt` | the RPC-per-message development transport |
//! | [`net`] | `flipc-net` | real UDP inter-node transport with the optimistic go-back-N reliability layer, fault injection, per-peer wire stats |
//! | [`obs`] | `flipc-obs` | wait-free trace ring and telemetry recorders plus their consumers: timeline reconstruction, stall analysis, metrics exposition (see also the `flipc-top` binary) |
//! | [`rt`] | `flipc-rt` | priority dispatcher, deadline accounting, workload generators |
//! | [`sim`] | `flipc-sim` | discrete-event kernel, coherent-cache model, cost model, statistics |
//! | [`workloads`] | `flipc-workloads` | composable workloads over the transport: fan-out pub-sub broadcast, replicated ordered log with replay-from-offset, priority-tiered delivery |
//! | [`mesh`] | `flipc-mesh` | Paragon-style wormhole 2D mesh simulator |
//! | [`baselines`] | `flipc-baselines` | NX / PAM / SUNMOS comparator models |
//! | [`paragon`] | `flipc-paragon` | the calibrated FLIPC-on-Paragon model and every paper experiment |
//!
//! The most common types are re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use flipc::{EndpointType, Geometry, Importance};
//! use flipc::engine::{EngineConfig, InlineCluster};
//!
//! // Two nodes with deterministic (inline) engines.
//! let mut cluster = InlineCluster::new(2, Geometry::small(), EngineConfig::default())?;
//! let alice = cluster.node(0).attach();
//! let bob = cluster.node(1).attach();
//!
//! // Bob allocates a receive endpoint and queues a buffer (step 1).
//! let inbox = bob.endpoint_allocate(EndpointType::Receive, Importance::Normal)?;
//! let buf = bob.buffer_allocate()?;
//! bob.provide_receive_buffer(&inbox, buf).map_err(|r| r.error)?;
//! let inbox_addr = bob.address(&inbox); // distributed out of band
//!
//! // Alice sends (step 2); the engines move the message (step 3).
//! let outbox = alice.endpoint_allocate(EndpointType::Send, Importance::High)?;
//! let mut msg = alice.buffer_allocate()?;
//! alice.payload_mut(&mut msg)[..5].copy_from_slice(b"hello");
//! alice.send(&outbox, msg, inbox_addr).map_err(|r| r.error)?;
//! cluster.pump_until_idle(16);
//!
//! // Bob receives (step 4); Alice recovers her buffer (step 5).
//! let received = bob.recv(&inbox)?.expect("delivered");
//! assert_eq!(&bob.payload(&received.token)[..5], b"hello");
//! assert!(alice.reclaim_send(&outbox)?.is_some());
//! # Ok::<(), flipc::FlipcError>(())
//! ```

pub use flipc_baselines as baselines;
pub use flipc_core as core;
pub use flipc_engine as engine;
pub use flipc_kkt as kkt;
pub use flipc_mesh as mesh;
pub use flipc_net as net;
pub use flipc_obs as obs;
pub use flipc_paragon as paragon;
pub use flipc_rt as rt;
pub use flipc_sim as sim;
pub use flipc_workloads as workloads;

pub use flipc_core::{
    BufferId, BufferState, BufferToken, CommBuffer, EndpointAddress, EndpointGroup, EndpointIndex,
    EndpointType, Flipc, FlipcError, FlipcNodeId, Geometry, Importance, LocalEndpoint, Received,
    WaitRegistry,
};
