//! Deterministic observability substrate for the IOctopus reproduction.
//!
//! Three pieces, all obeying the DESIGN.md §11 determinism contract (sim
//! time only, no wallclock, no hash-order dependence, zero allocation in
//! steady state):
//!
//! * [`registry`] — the per-run [`Snapshot`] metric table each component
//!   fills from its own counters at harvest time.
//! * [`trace`] — a span/event tracer: fixed-size [`trace::TraceRecord`]s
//!   stamped with simulated time, pushed into pre-sized per-domain
//!   ring buffers ([`trace::TraceRing`]) owned by the component that
//!   emits them. Off by default (a component holds `Option<TraceRing>`,
//!   so the steady-state cost of disabled tracing is one branch per
//!   record site).
//! * [`flight`] — the NUMA-locality flight recorder: a per-flow/per-PF
//!   ledger of local vs. remote DMA bytes, DDIO outcomes and QPI
//!   crossings, pre-sized so steady-state recording never allocates.
//!
//! [`export`] renders a collected [`trace::TraceSet`] as Chrome
//! `trace_event` JSON or the native line format the `telemetry-dump`
//! binary pretty-prints and diffs.
//! Identical seeds produce byte-identical exports, serial or parallel.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod flight;
pub mod registry;
pub mod trace;

pub use flight::{FlightRecorder, LedgerCells, LocalityTable};
pub use registry::Snapshot;
pub use trace::{Domain, TraceKind, TraceRecord, TraceRing, TraceSet};
