//! Discrete-event simulation core for the IOctopus reproduction.
//!
//! This crate is domain-agnostic: it knows nothing about NUMA, PCIe, or NICs.
//! It provides the four primitives every substrate in the workspace builds on:
//!
//! * [`Time`] / [`Dur`] — integer **picosecond** simulated time, so that
//!   bandwidth arithmetic (bytes ↔ time on multi-gigabit links) is exact and
//!   runs are bit-for-bit deterministic.
//! * [`EventQueue`] — a time-ordered queue with stable FIFO tie-breaking,
//!   generic over the event payload type.
//! * [`BwLink`] — a *bandwidth server*: a shared conduit (QPI link direction,
//!   DRAM channel, PCIe link, Ethernet wire) on which transfers serialize.
//!   Congestion emerges from queueing at these servers.
//! * [`stats`] — rate meters, histograms and busy meters used to produce
//!   the paper's figures.
//!
//! # Example
//!
//! ```
//! use simcore::{Time, Dur, link::BwLink};
//!
//! // A 100 Gb/s wire with 500 ns propagation delay.
//! let mut wire = BwLink::new("wire", BwLink::gbps(100.0), Dur::from_ns(500));
//! let done = wire.reserve(Time::ZERO, 1500);
//! assert!(done > Time::ZERO + Dur::from_ns(500));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc_count;
pub mod audit;
pub mod campaign;
pub mod faults;
pub mod hash;
pub mod link;
pub mod outbuf;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use audit::{Audit, Violation};
pub use campaign::CampaignConfig;
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use link::BwLink;
pub use outbuf::OutBuf;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{Dur, Time};
