//! FLIPC core: the paper's primary contribution.
//!
//! This crate implements the FLIPC messaging system's node-local half —
//! everything the paper places in the shared communication buffer and the
//! application interface layer:
//!
//! * [`commbuf`] — the fixed-size communication buffer holding *all*
//!   messaging state (endpoints, rings, buffers, free list), shared between
//!   applications and the messaging engine with the OS kernel off the path;
//! * [`queue`] — the three-pointer (release/process/acquire) wait-free
//!   circular buffer queue of Figure 3, synchronized with loads and stores
//!   only;
//! * [`counter`] — the two-location wait-free read-and-reset drop counter;
//! * [`api`] — the application interface layer ([`api::Flipc`]) with the
//!   five-step transfer protocol of Figure 2, in TAS-locked and unlocked
//!   variants;
//! * [`group`] — endpoint groups with library-level receive-any;
//! * [`checks`] — the engine's configurable validity checks;
//! * [`wait`] — blocking-receive support (the kernel's only messaging role);
//! * [`managed`] and [`flow`] — the buffer-management and flow-control
//!   layers the paper's Future Work section calls for.
//!
//! The messaging engine that moves messages between nodes lives in the
//! `flipc-engine` crate and uses the engine-side views exposed here.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use flipc_core::api::Flipc;
//! use flipc_core::commbuf::CommBuffer;
//! use flipc_core::endpoint::{EndpointType, FlipcNodeId, Importance};
//! use flipc_core::layout::Geometry;
//! use flipc_core::wait::WaitRegistry;
//!
//! let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
//! let flipc = Flipc::attach(cb, FlipcNodeId(0), WaitRegistry::new());
//! let ep = flipc
//!     .endpoint_allocate(EndpointType::Receive, Importance::High)
//!     .unwrap();
//! // Step 1 of the transfer protocol: provide a buffer for arrivals.
//! let buf = flipc.buffer_allocate().unwrap();
//! flipc.provide_receive_buffer(&ep, buf).map_err(|r| r.error).unwrap();
//! assert!(flipc.recv(&ep).unwrap().is_none()); // nothing arrived yet
//! ```

pub mod api;
pub mod buffer;
pub mod bulk;
pub mod checks;
pub mod commbuf;
pub mod counter;
pub mod endpoint;
pub mod error;
pub mod flow;
pub mod group;
pub mod hist;
pub mod inspect;
pub mod layout;
pub mod lock;
pub mod managed;
pub mod names;
#[cfg(feature = "ownership-checks")]
pub mod ownership;
pub mod queue;
pub mod region;
pub mod rmem;
pub mod rpc;
pub mod sync;
#[cfg(test)]
pub(crate) mod testutil;
pub mod wait;

pub use api::{BufferId, Flipc, LocalEndpoint, Received, Rejected};
pub use buffer::{BufferState, BufferToken};
pub use commbuf::CommBuffer;
pub use endpoint::{EndpointAddress, EndpointIndex, EndpointType, FlipcNodeId, Importance};
pub use error::{FlipcError, Result};
pub use group::EndpointGroup;
pub use layout::Geometry;
pub use wait::WaitRegistry;
