//! Simulation-campaign engine: declarative parameter sweeps, a parallel
//! work-sharing executor and a content-addressed result cache.
//!
//! The paper's evaluation is a parameter-space study (six NAS kernels ×
//! three machine kinds, plus filter/SPM/intensity ablations), and the
//! natural follow-on experiments — sweeping core counts or directory
//! geometries à la Rainbow (Menezo et al.) — multiply the point count
//! further.  This crate turns "run every point, again, on one core" into a
//! campaign:
//!
//! * [`SweepSpec`] declares the axes and enumerates their cross-product as
//!   [`RunDescriptor`]s — plain-data run recipes with deterministic,
//!   content-derived seeds;
//! * [`Executor`] shards points across `N` `std::thread` workers (the
//!   workspace is offline, so no rayon) while keeping results in input
//!   order — serial and parallel campaigns are bit-identical;
//! * [`ResultCache`] stores each result as JSON under a [`CacheKey`] — the
//!   stable FNV-1a hash of the run's complete inputs — so re-running a
//!   campaign only executes new or changed points;
//! * [`run_campaign`] glues the three together and reports how many points
//!   executed vs. hit the cache;
//! * [`aggregate`] folds the per-point metrics into paper-style summary
//!   tables and CSV/JSON exports.
//!
//! The crate sits *below* the `system` crate on purpose: descriptors are
//! lowered to concrete machine configurations by `system::sweep`, which
//! lets the experiment suite and the report binaries submit their runs
//! through the same executor and cache (`--jobs`, `--cache-dir`).
//!
//! # Example
//!
//! ```
//! use campaign::{run_campaign, Codec, Executor, SweepSpec};
//!
//! let points = SweepSpec::new(&["CG", "IS"]).with_cores(&[8, 16]).points();
//! assert_eq!(points.len(), 2 * 3 * 2);
//!
//! // A toy runner; the real one is `system::sweep::execute_descriptor`.
//! let codec = Codec { encode: |v: &usize| v.to_string(), decode: |s| s.parse().ok() };
//! let report = run_campaign(
//!     &Executor::new(4),
//!     None, // no cache in a doctest
//!     &points,
//!     |p| p.cache_key_fields(),
//!     &codec,
//!     |p| p.benchmark.len() * p.cores,
//! );
//! assert_eq!(report.results.len(), points.len());
//! assert_eq!(report.executed, points.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod cache;
pub mod executor;
pub mod hash;
pub mod run;
pub mod spec;

pub use aggregate::{summarize, CampaignSummary, PointMetrics, PointRecord, SummaryRow};
pub use cache::ResultCache;
pub use executor::Executor;
pub use hash::{fnv1a64, CacheKey};
pub use run::{run_campaign, CampaignReport, Codec, CACHE_FORMAT};
pub use spec::{RunDescriptor, SweepSpec, MACHINE_IDS, NOC_MODEL_IDS, PROTOCOL_IDS};

impl RunDescriptor {
    /// The descriptor's own content-addressed key.
    ///
    /// This keys the *descriptor*; the `system` lowering layer keys the
    /// fully lowered run inputs instead (config + spec + machine), which
    /// also covers parameters a descriptor cannot express.  Use this one
    /// when the descriptor is the whole truth (as in the doctest above).
    pub fn cache_key_fields(&self) -> CacheKey {
        CacheKey::from_fields(self.fields())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_cache_key_tracks_content() {
        let a = RunDescriptor::new("CG", "hybrid-proposed", 8);
        let b = RunDescriptor::new("CG", "hybrid-proposed", 8);
        assert_eq!(a.cache_key_fields(), b.cache_key_fields());
        let c = RunDescriptor::new("CG", "hybrid-ideal", 8);
        assert_ne!(a.cache_key_fields(), c.cache_key_fields());
    }
}
