//! McPAT-like energy and area model.
//!
//! The paper evaluates energy with McPAT at 22 nm and reports, for every
//! benchmark, the energy split between the CPUs, the caches, the NoC, the
//! SPMs, the structures of the proposed coherence protocol, and "others"
//! (cache-coherence directories, DMACs, memory controllers) — Figure 11 —
//! plus the protocol-only overhead of Figure 7 and the <4 % area overhead
//! quoted in §5.3.
//!
//! This crate reproduces that accounting analytically: every hardware model
//! in the workspace exports event counts into a [`simkernel::StatRegistry`]
//! (cache accesses, DRAM accesses, NoC flit-hops, SPM accesses, CAM lookups,
//! executed instructions) and [`EnergyModel::evaluate`] turns those counts
//! into per-component dynamic energy, adds leakage proportional to execution
//! time, and produces an [`EnergyBreakdown`] in the same six groups as the
//! paper.  The per-event energies are CACTI/McPAT-class ballpark figures for
//! a 22 nm process, chosen so the *composition* of the cache-based baseline
//! matches the paper (caches contribute more than 35 % of total energy); all
//! results are reported as ratios, never as absolute joules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod breakdown;
pub mod model;
pub mod params;

pub use area::AreaModel;
pub use breakdown::{Component, EnergyBreakdown};
pub use model::EnergyModel;
pub use params::EnergyParams;
