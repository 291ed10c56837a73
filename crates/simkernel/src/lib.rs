//! Discrete-event simulation kernel shared by every component of the
//! hybrid-memory manycore simulator.
//!
//! The crate provides the small set of primitives that the rest of the
//! workspace builds on:
//!
//! * [`Cycle`] — a strongly typed simulation time stamp, plus helpers to
//!   convert between cycles and wall-clock time at a given [`Frequency`].
//! * [`EventQueue`] — a deterministic priority queue of timestamped events.
//! * [`stats`] — the [`stats::StatRegistry`] of named counts and values every
//!   layer exports into, plus [`RunningStat`] for min / max / mean streams.
//! * [`rng::SimRng`] — a small, fast, fully deterministic pseudo random
//!   number generator (SplitMix64 seeded xoshiro256**) so simulations are
//!   exactly reproducible without pulling a heavyweight dependency into every
//!   crate.
//! * [`ids`] — shared identifier newtypes ([`CoreId`], [`NodeId`]) used by the
//!   network, memory and coherence crates.
//! * [`mem_units`] — byte-quantity helpers (`KiB`, `MiB`) used by
//!   configuration structures.
//! * [`json`] — a small hand-rolled JSON tree, parser and emitter used by the
//!   experiment reports and the campaign result cache (the workspace builds
//!   offline, so there is no `serde_json`).
//! * [`table`] — aligned-column plain-text table rendering shared by every
//!   report layer.
//! * [`attrib`] — cycle accounting: dense per-core category counters with an
//!   exhaustiveness invariant (categories sum bit-exactly to elapsed
//!   cycles), plus the top-down/JSON renderings `cycle_report` consumes.
//! * [`trace`] — zero-cost-when-disabled structured event tracing: per-core
//!   event rings, a periodic stat-sampling time-series, and Chrome
//!   trace-event / Perfetto JSON export built on [`json`].
//!
//! # Example
//!
//! ```
//! use simkernel::{Cycle, EventQueue};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(Cycle::new(10), "later");
//! queue.schedule(Cycle::new(2), "sooner");
//!
//! let (when, what) = queue.pop().unwrap();
//! assert_eq!(when, Cycle::new(2));
//! assert_eq!(what, "sooner");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attrib;
pub mod cycles;
pub mod events;
pub mod ids;
pub mod json;
pub mod mem_units;
pub mod rng;
pub mod stats;
pub mod table;
pub mod trace;

pub use attrib::{CycleAccount, CycleBreakdown, CycleCategory};
pub use cycles::{Cycle, Frequency};
pub use events::EventQueue;
pub use ids::{CoreId, NodeId};
pub use json::Json;
pub use mem_units::ByteSize;
pub use rng::SimRng;
pub use stats::{RunningStat, StatRegistry};
pub use table::TableBuilder;
pub use trace::{
    CategoryMask, ChromeTrace, EventRing, StatTimeSeries, TraceCategory, TraceEvent, TraceKind,
    TraceSettings, Tracer,
};
