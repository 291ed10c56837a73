//! Simulation-campaign engine: a parallel work-sharing executor and a
//! content-addressed result cache.
//!
//! The paper's evaluation is a parameter-space study (six NAS kernels ×
//! three machine kinds, plus filter/SPM/intensity ablations), and the
//! natural follow-on experiments — sweeping core counts or directory
//! geometries à la Rainbow (Menezo et al.) — multiply the point count
//! further.  This crate turns "run every point, again, on one core" into a
//! campaign, for any point and result type:
//!
//! * [`Executor`] shards points across `N` `std::thread` workers (the
//!   workspace is offline, so no rayon) while keeping results in input
//!   order — serial and parallel campaigns are bit-identical;
//! * [`ResultCache`] stores each result as JSON under a [`CacheKey`] — the
//!   stable FNV-1a hash of the run's complete inputs — so re-running a
//!   campaign only executes new or changed points;
//! * [`run_campaign`] glues the two together and reports how many points
//!   executed vs. hit the cache.
//!
//! The crate sits *below* the `system` crate on purpose and knows nothing
//! about the simulator.  `system::sweep` owns the typed run points
//! (`SweepSpec`, `RunDescriptor`), lowers them to machines, keys them by
//! their lowered inputs and aggregates their results; the report binaries'
//! figures and ablations run those same points through the same executor
//! and cache (`--jobs`, `--cache-dir`).
//!
//! # Example
//!
//! ```
//! use campaign::{run_campaign, CacheKey, Codec, Executor};
//!
//! let points: Vec<u64> = (1..=12).collect();
//!
//! // A toy runner; the real one is `system::sweep::RunContext::run_lowered`.
//! let codec = Codec { encode: |v: &u64| v.to_string(), decode: |s| s.parse().ok() };
//! let report = run_campaign(
//!     &Executor::new(4),
//!     None, // no cache in a doctest
//!     &points,
//!     |p| CacheKey::from_fields([("point", p.to_string())]),
//!     &codec,
//!     |p| p * p,
//! );
//! assert_eq!(report.results[11], 144);
//! assert_eq!(report.executed, points.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod executor;
pub mod hash;
pub mod run;

pub use cache::ResultCache;
pub use executor::Executor;
pub use hash::{fnv1a64, CacheKey};
pub use run::{run_campaign, CampaignReport, Codec, CACHE_FORMAT};
