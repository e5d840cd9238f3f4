//! FLIPC messaging engine: the component that moves messages between nodes.
//!
//! The engine is "an independently executing component of the system",
//! intended for the programmable controller in the communication interface
//! (the Paragon's message coprocessor) but also runnable inside the kernel
//! for debugging. This crate provides:
//!
//! * [`engine`] — the bounded, wait-free event loop itself;
//! * [`transport`] — the reliable per-path-ordered frame contract the
//!   engine layers its optimistic protocol over;
//! * [`spsc`] — a loads-and-stores-only SPSC ring (the in-process wire);
//! * [`loopback`] — a full mesh of those rings standing in for the Paragon
//!   interconnect on the host;
//! * [`thread`] — the dedicated "message coprocessor" thread;
//! * [`node`] — assembled clusters (threaded and inline/deterministic).
//!
//! The KKT RPC-per-message transport (the paper's development platform)
//! lives in the `flipc-kkt` crate.

pub mod engine;
pub mod loopback;
pub mod node;
pub mod shaper;
pub mod spsc;
pub mod thread;
pub mod transport;
pub mod wire;

pub use engine::{Domain, Engine, EngineConfig, EngineStats};
pub use loopback::{fabric, LoopbackPort};
pub use node::{InlineCluster, NodeCore, ThreadedCluster};
pub use shaper::{Shaper, TokenBucket};
pub use thread::{spawn_engine, spawn_engine_traced, EngineHandle};
pub use transport::Transport;
pub use wire::Frame;
