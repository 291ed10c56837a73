//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names the axes of a parameter-space study — core counts,
//! SPM / filter / directory sizes, benchmarks, machine kinds, data-set scale
//! multipliers — and enumerates their cross-product as [`RunDescriptor`]s.
//! A descriptor is plain data: the `system` crate lowers it to a concrete
//! `SystemConfig` + benchmark spec + machine kind, which keeps this crate
//! free of any dependency on the simulator layers above it.

use serde::{Deserialize, Serialize};

use crate::hash::{f64_field, CacheKey};

/// Canonical machine-kind identifiers, in the paper's comparison order.
///
/// These are the strings a descriptor's `machine` field uses; `system`
/// maps them onto its `MachineKind` enum.
pub const MACHINE_IDS: [&str; 3] = ["cache-only", "hybrid-ideal", "hybrid-proposed"];

/// Canonical NoC-model identifiers.
///
/// These are the strings a descriptor's `noc_model` field uses; `system`
/// maps them onto the `noc::NocModel` enum.
pub const NOC_MODEL_IDS: [&str; 2] = ["analytic", "discrete-event"];

/// Canonical coherence-protocol identifiers, the paper's protocol first.
///
/// These are the strings a descriptor's `protocol` field uses; `system` maps
/// them onto its `CoherenceProtocol` enum.  The axis only matters on the
/// `hybrid-proposed` machine — the other machines always run the ideal
/// oracle.
pub const PROTOCOL_IDS: [&str; 2] = ["filterdir", "directory"];

/// One point of a campaign: everything needed to reproduce one simulation
/// run, as plain data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunDescriptor {
    /// Benchmark name (`"CG"`, `"IS"`, …).
    pub benchmark: String,
    /// Machine kind identifier (one of [`MACHINE_IDS`]).
    pub machine: String,
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
    /// NoC model override (one of [`NOC_MODEL_IDS`]; `None` = analytic).
    pub noc_model: Option<String>,
    /// Coherence-protocol override (one of [`PROTOCOL_IDS`]; `None` = the
    /// paper's filterDir protocol).
    pub protocol: Option<String>,
    /// Use the scaled-down test machine (`SystemConfig::small`) instead of
    /// the Table 1 machine — for quick campaigns, tests and CI.
    pub small_machine: bool,
}

impl RunDescriptor {
    /// A descriptor with the Table 1 defaults for everything but the three
    /// mandatory axes.
    pub fn new(benchmark: &str, machine: &str, cores: usize) -> Self {
        RunDescriptor {
            benchmark: benchmark.to_owned(),
            machine: machine.to_owned(),
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

    /// The descriptor's content as canonical `(name, value)` fields.
    ///
    /// This is the substrate for [`RunDescriptor::seed`]; the field *values*
    /// are bit-exact (floats are rendered as their bit patterns), so two
    /// descriptors share fields iff they describe the same run.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        fn opt<T: ToString>(v: &Option<T>) -> String {
            v.as_ref()
                .map_or_else(|| "default".to_owned(), T::to_string)
        }
        vec![
            ("benchmark", self.benchmark.clone()),
            ("machine", self.machine.clone()),
            ("cores", self.cores.to_string()),
            ("scale_multiplier", f64_field(self.scale_multiplier)),
            ("spm_kib", opt(&self.spm_kib)),
            ("filter_entries", opt(&self.filter_entries)),
            ("filterdir_entries", opt(&self.filterdir_entries)),
            ("noc_model", opt(&self.noc_model)),
            ("protocol", opt(&self.protocol)),
            ("small_machine", self.small_machine.to_string()),
        ]
    }

    /// The deterministic per-point seed for the workload address streams.
    ///
    /// Derived purely from the descriptor's content — never from the worker
    /// that happens to execute the point — so serial and parallel campaign
    /// runs are bit-identical.  The machine, NoC-model and protocol axes
    /// are deliberately excluded: the machine kinds (NoC backends, coherence
    /// backends) of one sweep point must stream the *same* addresses for
    /// their comparison (speedup, protocol overhead, analytic-vs-measured
    /// contention, filterDir-vs-directory) to be apples-to-apples, exactly as
    /// the paper runs one workload per machine.
    pub fn seed(&self) -> u64 {
        let fields = self
            .fields()
            .into_iter()
            .filter(|(n, _)| *n != "machine" && *n != "noc_model" && *n != "protocol");
        CacheKey::from_fields(fields).as_u64()
    }

    /// A short human-readable label, e.g. `CG/hybrid-proposed/16c`.
    pub fn label(&self) -> String {
        let mut label = format!("{}/{}/{}c", self.benchmark, self.machine, self.cores);
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
        if let Some(model) = &self.noc_model {
            label.push_str(&format!("/{model}"));
        }
        if let Some(protocol) = &self.protocol {
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
/// use campaign::SweepSpec;
///
/// let spec = SweepSpec::new(&["CG", "IS"])
///     .with_cores(&[8, 16])
///     .with_machines(&["cache-only", "hybrid-proposed"]);
/// assert_eq!(spec.len(), 2 * 2 * 2);
/// assert_eq!(spec.points()[0].label(), "CG/cache-only/8c");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Benchmarks to sweep.
    pub benchmarks: Vec<String>,
    /// Machine kinds to sweep (defaults to all of [`MACHINE_IDS`]).
    pub machines: Vec<String>,
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
    /// NoC models to sweep (one of [`NOC_MODEL_IDS`]; `None` = analytic).
    pub noc_models: Vec<Option<String>>,
    /// Coherence protocols to sweep (one of [`PROTOCOL_IDS`]; `None` = the
    /// paper's filterDir protocol).
    pub protocols: Vec<Option<String>>,
    /// Lower every point onto the scaled-down test machine.
    pub small_machine: bool,
}

impl SweepSpec {
    /// A sweep over `benchmarks` with every other axis at its default.
    pub fn new(benchmarks: &[&str]) -> Self {
        SweepSpec {
            benchmarks: benchmarks.iter().map(|s| s.to_string()).collect(),
            machines: MACHINE_IDS.iter().map(|s| s.to_string()).collect(),
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
    pub fn with_machines(mut self, machines: &[&str]) -> Self {
        self.machines = machines.iter().map(|s| s.to_string()).collect();
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

    /// Replaces the NoC-model axis (identifiers from [`NOC_MODEL_IDS`]).
    pub fn with_noc_models(mut self, models: &[&str]) -> Self {
        self.noc_models = models.iter().map(|m| Some(m.to_string())).collect();
        self
    }

    /// Replaces the coherence-protocol axis (identifiers from
    /// [`PROTOCOL_IDS`]).
    pub fn with_protocols(mut self, protocols: &[&str]) -> Self {
        self.protocols = protocols.iter().map(|p| Some(p.to_string())).collect();
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
        for benchmark in &self.benchmarks {
            for machine in &self.machines {
                for &cores in &self.core_counts {
                    for &scale in &self.scale_multipliers {
                        for &spm in &self.spm_kib {
                            for &filter in &self.filter_entries {
                                for &filterdir in &self.filterdir_entries {
                                    for noc_model in &self.noc_models {
                                        for protocol in &self.protocols {
                                            points.push(RunDescriptor {
                                                benchmark: benchmark.clone(),
                                                machine: machine.clone(),
                                                cores,
                                                scale_multiplier: scale,
                                                spm_kib: spm,
                                                filter_entries: filter,
                                                filterdir_entries: filterdir,
                                                noc_model: noc_model.clone(),
                                                protocol: protocol.clone(),
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

    #[test]
    fn cross_product_covers_every_combination() {
        let spec = SweepSpec::new(&["CG", "IS"])
            .with_cores(&[8, 16, 32])
            .with_machines(&["cache-only", "hybrid-proposed"])
            .with_scales(&[1.0, 0.5]);
        let points = spec.points();
        assert_eq!(points.len(), spec.len());
        assert_eq!(points.len(), 2 * 2 * 3 * 2);
        assert!(!spec.is_empty());
        // Every combination appears exactly once.
        let mut seen = std::collections::BTreeSet::new();
        for p in &points {
            assert!(seen.insert(p.fields()), "duplicate point {}", p.label());
        }
    }

    #[test]
    fn defaults_match_the_paper_machine() {
        let spec = SweepSpec::new(&["CG"]);
        assert_eq!(spec.machines.len(), 3);
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
    fn seed_is_content_derived() {
        let a = RunDescriptor::new("CG", "hybrid-proposed", 16);
        let b = RunDescriptor::new("CG", "hybrid-proposed", 16);
        assert_eq!(a.seed(), b.seed());
        let mut c = a.clone();
        c.scale_multiplier = 0.5;
        assert_ne!(a.seed(), c.seed());
        let mut d = a.clone();
        d.spm_kib = Some(32);
        assert_ne!(a.seed(), d.seed());
    }

    #[test]
    fn noc_models_of_one_point_share_a_seed() {
        // The analytic-vs-measured comparison runs one workload per backend.
        let base = RunDescriptor::new("CG", "hybrid-proposed", 16);
        let mut des = base.clone();
        des.noc_model = Some("discrete-event".into());
        assert_eq!(base.seed(), des.seed());
        // ...but the descriptors remain distinct content.
        assert_ne!(base.fields(), des.fields());
        assert!(des.label().contains("discrete-event"), "{}", des.label());
    }

    #[test]
    fn noc_model_axis_multiplies_the_cross_product() {
        let spec = SweepSpec::new(&["CG"])
            .with_cores(&[8])
            .with_machines(&["hybrid-proposed"])
            .with_noc_models(&NOC_MODEL_IDS);
        assert_eq!(spec.len(), 2);
        let points = spec.points();
        assert_eq!(points[0].noc_model.as_deref(), Some("analytic"));
        assert_eq!(points[1].noc_model.as_deref(), Some("discrete-event"));
    }

    #[test]
    fn protocols_of_one_point_share_a_seed() {
        // The filterDir-vs-directory comparison runs one workload per
        // backend.
        let base = RunDescriptor::new("CG", "hybrid-proposed", 16);
        let mut directory = base.clone();
        directory.protocol = Some("directory".into());
        assert_eq!(base.seed(), directory.seed());
        // ...but the descriptors remain distinct content.
        assert_ne!(base.fields(), directory.fields());
        assert!(
            directory.label().contains("directory"),
            "{}",
            directory.label()
        );
    }

    #[test]
    fn protocol_axis_multiplies_the_cross_product() {
        let spec = SweepSpec::new(&["CG"])
            .with_cores(&[8])
            .with_machines(&["hybrid-proposed"])
            .with_protocols(&PROTOCOL_IDS);
        assert_eq!(spec.len(), 2);
        let points = spec.points();
        assert_eq!(points[0].protocol.as_deref(), Some("filterdir"));
        assert_eq!(points[1].protocol.as_deref(), Some("directory"));
    }

    #[test]
    fn machines_of_one_point_share_a_seed() {
        // The cross-machine comparison runs one workload on each machine.
        let seeds: Vec<u64> = MACHINE_IDS
            .iter()
            .map(|m| RunDescriptor::new("IS", m, 16).seed())
            .collect();
        assert_eq!(seeds[0], seeds[1]);
        assert_eq!(seeds[1], seeds[2]);
        assert_ne!(
            seeds[0],
            RunDescriptor::new("IS", MACHINE_IDS[0], 32).seed()
        );
    }

    #[test]
    fn labels_mention_overrides() {
        let mut d = RunDescriptor::new("IS", "hybrid-proposed", 8);
        assert_eq!(d.label(), "IS/hybrid-proposed/8c");
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
