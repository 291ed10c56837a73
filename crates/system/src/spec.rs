//! Declarative sweep specifications (re-exported by [`crate::sweep`]).
//!
//! A [`SweepSpec`] names the axes of a parameter-space study — benchmarks,
//! machine kinds, core counts, data-set scale multipliers, SPM / filter /
//! directory sizes, NoC models and coherence protocols — and enumerates
//! their cross-product as [`RunDescriptor`]s.  Every axis holds the
//! simulator's own types, so a point can only name a benchmark, machine,
//! model or protocol that exists, and two spellings of one id are one
//! point.  [`crate::sweep::lower_descriptor`] turns a point into the
//! machine run it describes.

use noc::NocModel;
use workloads::nas::NasBenchmark;

use crate::config::{CoherenceProtocol, MachineKind};

/// One point of a campaign: everything needed to reproduce one simulation
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDescriptor {
    /// The benchmark to run.
    pub benchmark: NasBenchmark,
    /// The machine to run it on.
    pub machine: MachineKind,
    /// Number of cores / tiles.
    pub cores: usize,
    /// Extra data-set scale multiplier on top of the benchmark's
    /// recommended scale.
    pub scale_multiplier: f64,
    /// Per-core SPM size override in KiB (`None` = the Table 1 default).
    pub spm_kib: Option<u64>,
    /// Per-core filter entry-count override (`None` = the Table 1 default).
    pub filter_entries: Option<usize>,
    /// filterDir entry-count override (`None` = the Table 1 default).
    pub filterdir_entries: Option<usize>,
    /// NoC model override (`None` = analytic).
    pub noc_model: Option<NocModel>,
    /// Coherence-protocol override (`None` = the paper's filterDir
    /// protocol).
    pub protocol: Option<CoherenceProtocol>,
    /// Use the scaled-down test machine (`SystemConfig::small`) instead of
    /// the Table 1 machine — for quick campaigns, tests and CI.
    pub small_machine: bool,
}

impl RunDescriptor {
    /// A descriptor with the Table 1 defaults for everything but the three
    /// mandatory axes.
    pub fn new(benchmark: NasBenchmark, machine: MachineKind, cores: usize) -> Self {
        RunDescriptor {
            benchmark,
            machine,
            cores,
            scale_multiplier: 1.0,
            spm_kib: None,
            filter_entries: None,
            filterdir_entries: None,
            noc_model: None,
            protocol: None,
            small_machine: false,
        }
    }

    /// A short human-readable label, e.g. `CG/hybrid-proposed/16c`.
    pub fn label(&self) -> String {
        self.label_with(Some(self.machine))
    }

    /// The label without the machine, e.g. `CG/16c`: what the machines
    /// compared in one summary row share.
    pub(crate) fn point_label(&self) -> String {
        self.label_with(None)
    }

    fn label_with(&self, machine: Option<MachineKind>) -> String {
        let mut label = self.benchmark.name().to_owned();
        if let Some(machine) = machine {
            label.push('/');
            label.push_str(machine.id());
        }
        label.push_str(&format!("/{}c", self.cores));
        if self.scale_multiplier != 1.0 {
            label.push_str(&format!("/x{}", self.scale_multiplier));
        }
        if let Some(kib) = self.spm_kib {
            label.push_str(&format!("/spm{kib}K"));
        }
        if let Some(n) = self.filter_entries {
            label.push_str(&format!("/flt{n}"));
        }
        if let Some(n) = self.filterdir_entries {
            label.push_str(&format!("/fdir{n}"));
        }
        if let Some(model) = self.noc_model {
            label.push_str(&format!("/{model}"));
        }
        if let Some(protocol) = self.protocol {
            label.push_str(&format!("/{protocol}"));
        }
        label
    }
}

/// The axes of a campaign; [`SweepSpec::points`] takes their cross-product.
///
/// # Example
///
/// ```
/// use system::sweep::SweepSpec;
/// use system::MachineKind;
/// use workloads::nas::NasBenchmark;
///
/// let spec = SweepSpec::new(&[NasBenchmark::Cg, NasBenchmark::Is])
///     .with_cores(&[8, 16])
///     .with_machines(&[MachineKind::CacheOnly, MachineKind::HybridProposed]);
/// assert_eq!(spec.len(), 2 * 2 * 2);
/// assert_eq!(spec.points()[0].label(), "CG/cache-only/8c");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Benchmarks to sweep.
    pub benchmarks: Vec<NasBenchmark>,
    /// Machine kinds to sweep (defaults to all of [`MachineKind::ALL`]).
    pub machines: Vec<MachineKind>,
    /// Core counts to sweep (defaults to the paper's 64).
    pub core_counts: Vec<usize>,
    /// Data-set scale multipliers to sweep (defaults to 1.0).
    pub scale_multipliers: Vec<f64>,
    /// SPM sizes (KiB) to sweep; `None` entries use the Table 1 default.
    pub spm_kib: Vec<Option<u64>>,
    /// Filter entry counts to sweep; `None` entries use the Table 1 default.
    pub filter_entries: Vec<Option<usize>>,
    /// filterDir entry counts to sweep; `None` uses the Table 1 default.
    pub filterdir_entries: Vec<Option<usize>>,
    /// NoC models to sweep (`None` = analytic).
    pub noc_models: Vec<Option<NocModel>>,
    /// Coherence protocols to sweep (`None` = the paper's filterDir
    /// protocol).
    pub protocols: Vec<Option<CoherenceProtocol>>,
    /// Lower every point onto the scaled-down test machine.
    pub small_machine: bool,
}

impl SweepSpec {
    /// A sweep over `benchmarks` with every other axis at its default.
    pub fn new(benchmarks: &[NasBenchmark]) -> Self {
        SweepSpec {
            benchmarks: benchmarks.to_vec(),
            machines: MachineKind::ALL.to_vec(),
            core_counts: vec![64],
            scale_multipliers: vec![1.0],
            spm_kib: vec![None],
            filter_entries: vec![None],
            filterdir_entries: vec![None],
            noc_models: vec![None],
            protocols: vec![None],
            small_machine: false,
        }
    }

    /// Replaces the machine axis.
    pub fn with_machines(mut self, machines: &[MachineKind]) -> Self {
        self.machines = machines.to_vec();
        self
    }

    /// Replaces the core-count axis.
    pub fn with_cores(mut self, core_counts: &[usize]) -> Self {
        self.core_counts = core_counts.to_vec();
        self
    }

    /// Replaces the scale-multiplier axis.
    pub fn with_scales(mut self, scales: &[f64]) -> Self {
        self.scale_multipliers = scales.to_vec();
        self
    }

    /// Replaces the SPM-size axis (values in KiB).
    pub fn with_spm_kib(mut self, sizes: &[u64]) -> Self {
        self.spm_kib = sizes.iter().map(|&s| Some(s)).collect();
        self
    }

    /// Replaces the filter-size axis.
    pub fn with_filter_entries(mut self, entries: &[usize]) -> Self {
        self.filter_entries = entries.iter().map(|&e| Some(e)).collect();
        self
    }

    /// Replaces the filterDir-size axis.
    pub fn with_filterdir_entries(mut self, entries: &[usize]) -> Self {
        self.filterdir_entries = entries.iter().map(|&e| Some(e)).collect();
        self
    }

    /// Replaces the NoC-model axis.
    pub fn with_noc_models(mut self, models: &[NocModel]) -> Self {
        self.noc_models = models.iter().map(|&m| Some(m)).collect();
        self
    }

    /// Replaces the coherence-protocol axis.
    pub fn with_protocols(mut self, protocols: &[CoherenceProtocol]) -> Self {
        self.protocols = protocols.iter().map(|&p| Some(p)).collect();
        self
    }

    /// Lowers every point onto the scaled-down test machine.
    pub fn small(mut self) -> Self {
        self.small_machine = true;
        self
    }

    /// Number of points the cross-product enumerates.
    pub fn len(&self) -> usize {
        self.benchmarks.len()
            * self.machines.len()
            * self.core_counts.len()
            * self.scale_multipliers.len()
            * self.spm_kib.len()
            * self.filter_entries.len()
            * self.filterdir_entries.len()
            * self.noc_models.len()
            * self.protocols.len()
    }

    /// Returns `true` when the cross-product is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the cross-product, in a deterministic nested order
    /// (benchmark-major, protocol-minor).
    pub fn points(&self) -> Vec<RunDescriptor> {
        let mut points = Vec::with_capacity(self.len());
        for &benchmark in &self.benchmarks {
            for &machine in &self.machines {
                for &cores in &self.core_counts {
                    for &scale in &self.scale_multipliers {
                        for &spm in &self.spm_kib {
                            for &filter in &self.filter_entries {
                                for &filterdir in &self.filterdir_entries {
                                    for &noc_model in &self.noc_models {
                                        for &protocol in &self.protocols {
                                            points.push(RunDescriptor {
                                                benchmark,
                                                machine,
                                                cores,
                                                scale_multiplier: scale,
                                                spm_kib: spm,
                                                filter_entries: filter,
                                                filterdir_entries: filterdir,
                                                noc_model,
                                                protocol,
                                                small_machine: self.small_machine,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MachineKind::{CacheOnly, HybridProposed};
    use NasBenchmark::{Cg, Is};

    #[test]
    fn cross_product_covers_every_combination() {
        let spec = SweepSpec::new(&[Cg, Is])
            .with_cores(&[8, 16, 32])
            .with_machines(&[CacheOnly, HybridProposed])
            .with_scales(&[1.0, 0.5]);
        let points = spec.points();
        assert_eq!(points.len(), spec.len());
        assert_eq!(points.len(), 2 * 2 * 3 * 2);
        assert!(!spec.is_empty());
        // Every combination appears exactly once.
        let mut seen = std::collections::BTreeSet::new();
        for p in &points {
            assert!(seen.insert(p.label()), "duplicate point {}", p.label());
        }
    }

    #[test]
    fn defaults_match_the_paper_machine() {
        let spec = SweepSpec::new(&[Cg]);
        assert_eq!(spec.machines, MachineKind::ALL);
        assert_eq!(spec.core_counts, vec![64]);
        let p = &spec.points()[0];
        assert_eq!(p.cores, 64);
        assert_eq!(p.spm_kib, None);
        assert!(!p.small_machine);
        assert_eq!(p.scale_multiplier, 1.0);
    }

    #[test]
    fn empty_axis_empties_the_sweep() {
        let spec = SweepSpec::new(&[]);
        assert!(spec.is_empty());
        assert!(spec.points().is_empty());
    }

    #[test]
    fn noc_model_axis_multiplies_the_cross_product() {
        let spec = SweepSpec::new(&[Cg])
            .with_cores(&[8])
            .with_machines(&[HybridProposed])
            .with_noc_models(&NocModel::ALL);
        assert_eq!(spec.len(), 2);
        let points = spec.points();
        assert_eq!(points[0].noc_model, Some(NocModel::Analytic));
        assert_eq!(points[1].noc_model, Some(NocModel::DiscreteEvent));
    }

    #[test]
    fn protocol_axis_multiplies_the_cross_product() {
        let spec = SweepSpec::new(&[Cg])
            .with_cores(&[8])
            .with_machines(&[HybridProposed])
            .with_protocols(&CoherenceProtocol::ALL);
        assert_eq!(spec.len(), 2);
        let points = spec.points();
        assert_eq!(points[0].protocol, Some(CoherenceProtocol::FilterDir));
        assert_eq!(points[1].protocol, Some(CoherenceProtocol::Directory));
    }

    #[test]
    fn labels_mention_overrides() {
        let mut d = RunDescriptor::new(Is, HybridProposed, 8);
        assert_eq!(d.label(), "IS/hybrid-proposed/8c");
        assert_eq!(d.point_label(), "IS/8c");
        d.scale_multiplier = 0.25;
        d.spm_kib = Some(16);
        d.filter_entries = Some(48);
        d.filterdir_entries = Some(1024);
        let label = d.label();
        for needle in ["x0.25", "spm16K", "flt48", "fdir1024"] {
            assert!(label.contains(needle), "{label} missing {needle}");
        }
    }
}
