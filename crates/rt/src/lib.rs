//! Real-time support for FLIPC.
//!
//! FLIPC targets event-driven distributed real-time environments: multiple
//! threads *and* message streams of varying importance per node, with
//! explicit resource control. This crate provides the application-side
//! real-time machinery the paper assumes around the messaging system:
//!
//! * [`sched`] — a cooperative priority dispatcher used by the examples to
//!   demonstrate importance-ordered processing;
//! * [`workload`] — seeded generators for the paper's motivating traffic:
//!   medium-sized (50–500 byte) messages on mixed-criticality streams;
//! * [`deadline`] — per-stream deadline accounting (met/missed/overrun),
//!   because real-time systems are judged by deadlines, not means.

pub mod deadline;
pub mod sched;
pub mod workload;

pub use deadline::{DeadlineTracker, StreamStats};
pub use sched::{DispatchRecord, PriorityScheduler, Task, TaskStatus};
pub use workload::{MsgEvent, PeriodicSpec, WorkloadGen, MEDIUM_MAX, MEDIUM_MIN};
