//! The six-way energy breakdown of Figure 11.

use std::fmt;
use std::ops::{Add, Index};

use serde::{Deserialize, Serialize};

/// The component groups the paper reports energy for (Figure 11 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Component {
    /// The cores (pipelines, register files, branch predictors).
    Cpus,
    /// The cache hierarchy: L1 I/D, L2 and prefetchers.
    Caches,
    /// The on-chip network.
    Noc,
    /// Cache-coherence directory, DMACs and memory controllers.
    Others,
    /// The scratchpad memories.
    Spms,
    /// The structures of the proposed coherence protocol (SPMDirs, filters,
    /// filterDir).
    CohProt,
}

impl Component {
    /// All components in the order used by the paper's figure.
    pub const ALL: [Component; 6] = [
        Component::Cpus,
        Component::Caches,
        Component::Noc,
        Component::Others,
        Component::Spms,
        Component::CohProt,
    ];

    /// Label used in reports (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            Component::Cpus => "CPUs",
            Component::Caches => "Caches",
            Component::Noc => "NoC",
            Component::Others => "Others",
            Component::Spms => "SPMs",
            Component::CohProt => "CohProt",
        }
    }

    /// Stable index of this component in [`Component::ALL`].
    pub fn index(self) -> usize {
        match self {
            Component::Cpus => 0,
            Component::Caches => 1,
            Component::Noc => 2,
            Component::Others => 3,
            Component::Spms => 4,
            Component::CohProt => 5,
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Energy attributed to each [`Component`], in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    joules: [f64; 6],
}

impl EnergyBreakdown {
    /// Creates a zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `joules` to a component.
    pub fn add_energy(&mut self, component: Component, joules: f64) {
        self.joules[component.index()] += joules;
    }

    /// Energy of one component, in joules.
    pub fn component(&self, component: Component) -> f64 {
        self.joules[component.index()]
    }

    /// Total energy, in joules.
    pub fn total(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// Fraction of the total attributed to a component (zero if total is zero).
    pub fn fraction(&self, component: Component) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            0.0
        } else {
            self.component(component) / total
        }
    }

    /// Per-component joules in [`Component::ALL`] order, for serialization.
    pub fn joules_by_component(&self) -> [f64; 6] {
        self.joules
    }

    /// Reconstructs a breakdown from per-component joules in
    /// [`Component::ALL`] order.
    pub fn from_joules(joules: [f64; 6]) -> Self {
        EnergyBreakdown { joules }
    }

    /// This breakdown normalised so that `reference.total()` is 1.0, which is
    /// how the paper's Figure 11 plots bars.
    pub fn normalized_to(&self, reference: &EnergyBreakdown) -> [f64; 6] {
        let denom = reference.total();
        let mut out = [0.0; 6];
        if denom > 0.0 {
            for (o, j) in out.iter_mut().zip(self.joules.iter()) {
                *o = j / denom;
            }
        }
        out
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        let mut out = self;
        for i in 0..6 {
            out.joules[i] += rhs.joules[i];
        }
        out
    }
}

impl Index<Component> for EnergyBreakdown {
    type Output = f64;
    fn index(&self, component: Component) -> &f64 {
        &self.joules[component.index()]
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in Component::ALL {
            writeln!(
                f,
                "{:<8} {:>12.6} J ({:>5.1} %)",
                c.label(),
                self.component(c),
                100.0 * self.fraction(c)
            )?;
        }
        writeln!(f, "total    {:>12.6} J", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_indices() {
        assert_eq!(Component::ALL.len(), 6);
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(Component::CohProt.label(), "CohProt");
        assert_eq!(Component::Cpus.to_string(), "CPUs");
    }

    #[test]
    fn add_component_total_fraction() {
        let mut b = EnergyBreakdown::new();
        b.add_energy(Component::Cpus, 3.0);
        b.add_energy(Component::Caches, 6.0);
        b.add_energy(Component::Caches, 1.0);
        assert_eq!(b.component(Component::Caches), 7.0);
        assert_eq!(b.total(), 10.0);
        assert!((b.fraction(Component::Cpus) - 0.3).abs() < 1e-12);
        assert_eq!(b[Component::Cpus], 3.0);
        assert_eq!(b.fraction(Component::Spms), 0.0);
    }

    #[test]
    fn empty_breakdown_fractions_are_zero() {
        let b = EnergyBreakdown::new();
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.fraction(Component::Noc), 0.0);
    }

    #[test]
    fn normalization_against_reference() {
        let mut cache_based = EnergyBreakdown::new();
        cache_based.add_energy(Component::Cpus, 5.0);
        cache_based.add_energy(Component::Caches, 5.0);
        let mut hybrid = EnergyBreakdown::new();
        hybrid.add_energy(Component::Cpus, 4.0);
        hybrid.add_energy(Component::Spms, 1.0);
        let bars = hybrid.normalized_to(&cache_based);
        assert!((bars[Component::Cpus.index()] - 0.4).abs() < 1e-12);
        assert!((bars[Component::Spms.index()] - 0.1).abs() < 1e-12);
        assert!((bars.iter().sum::<f64>() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn addition_merges_breakdowns() {
        let mut a = EnergyBreakdown::new();
        a.add_energy(Component::Noc, 1.0);
        let mut b = EnergyBreakdown::new();
        b.add_energy(Component::Noc, 2.0);
        b.add_energy(Component::Others, 4.0);
        let c = a + b;
        assert_eq!(c.component(Component::Noc), 3.0);
        assert_eq!(c.component(Component::Others), 4.0);
    }

    #[test]
    fn joules_round_trip() {
        let mut b = EnergyBreakdown::new();
        b.add_energy(Component::Cpus, 1.5);
        b.add_energy(Component::CohProt, 0.25);
        let restored = EnergyBreakdown::from_joules(b.joules_by_component());
        assert_eq!(restored, b);
        assert_eq!(restored.total(), b.total());
    }

    #[test]
    fn display_contains_all_labels() {
        let b = EnergyBreakdown::new();
        let s = b.to_string();
        for c in Component::ALL {
            assert!(s.contains(c.label()));
        }
    }
}
