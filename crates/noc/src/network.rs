//! The network model proper: latency computation and traffic recording.
//!
//! Two backends exist:
//!
//! * [`AnalyticNoc`] — the closed-form model: XY hop count times per-hop
//!   latency plus a utilisation-driven M/M/1-style contention penalty fed by
//!   one hand-set utilisation scalar;
//! * [`DesNoc`] — the discrete-event model: every packet is routed hop by
//!   hop over per-link, per-virtual-channel FIFOs, so contention is
//!   *measured* instead of assumed.
//!
//! [`Noc`] is the facade the memory hierarchy and the coherence protocol
//! talk to; [`NocConfig::model`] selects which backend it instantiates, and
//! every call dispatches to that backend with one `match`.

use serde::{Deserialize, Serialize};
use simkernel::{Cycle, NodeId, StatRegistry};

use crate::des::DesNoc;
use crate::packet::{MessageClass, PacketKind};
use crate::topology::MeshTopology;
use crate::traffic::TrafficAccountant;

/// Largest link utilisation the analytic contention formula accepts.
///
/// The M/M/1-style queueing term `contention_factor · ρ² / (1 − ρ)` diverges
/// as ρ → 1; clamping at this value bounds the per-hop penalty at
/// `contention_factor · 18.05` cycles, which is already far beyond the regime
/// where the closed-form model is trustworthy.  Callers that hit the clamp
/// are counted (see `noc.utilization.clamp_events` in the exported stats) so
/// a saturated analytic model is visible in every report instead of silently
/// under-predicting — the discrete-event backend is the right tool there.
pub const MAX_UTILIZATION: f64 = 0.95;

/// Size of the control response collected by [`Noc::broadcast_collect`].
const CONTROL_RESPONSE_BYTES: u64 = 8;

/// Which network model a [`Noc`] instantiates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NocModel {
    /// Closed-form latency: hops × per-hop latency + serialization + a
    /// global utilisation-driven contention term.  Fast, memoryless, and
    /// blind to hotspots by construction.
    #[default]
    Analytic,
    /// Message-level discrete-event simulation: XY routing over per-link,
    /// per-virtual-channel FIFOs with injection/ejection queues.  Measures
    /// per-link utilisation and per-node queueing instead of assuming them.
    DiscreteEvent,
}

impl NocModel {
    /// Both models, analytic first.
    pub const ALL: [NocModel; 2] = [NocModel::Analytic, NocModel::DiscreteEvent];

    /// Stable identifier used by campaign descriptors and CLI flags.
    pub fn id(self) -> &'static str {
        match self {
            NocModel::Analytic => "analytic",
            NocModel::DiscreteEvent => "discrete-event",
        }
    }

    /// Parses a model identifier (the inverse of [`NocModel::id`]; the
    /// shorthand `des` is accepted for the discrete-event model).
    pub fn from_id(id: &str) -> Option<NocModel> {
        match id {
            "analytic" => Some(NocModel::Analytic),
            "discrete-event" | "des" => Some(NocModel::DiscreteEvent),
            _ => None,
        }
    }
}

impl std::fmt::Display for NocModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// Configuration of the on-chip network.
///
/// The defaults follow Table 1 of the paper: a mesh with 1-cycle links and
/// 1-cycle routers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Mesh topology (8×8 for the 64-core configuration).
    pub topology: MeshTopology,
    /// Cycles to traverse one link.
    pub link_latency: Cycle,
    /// Cycles spent in each router.
    pub router_latency: Cycle,
    /// Strength of the utilisation-driven contention penalty.
    ///
    /// The added queueing delay per hop is
    /// `contention_factor · ρ² / (1 − ρ)` cycles, where ρ is the link
    /// utilisation estimate fed through [`Noc::set_utilization`].  With the
    /// paper's workloads ρ stays low, so the penalty is small — exactly the
    /// behaviour the paper reports ("contention in the filterDir is very
    /// low").  Only the analytic backend uses this knob.
    pub contention_factor: f64,
    /// Which backend a [`Noc`] built from this configuration uses.
    pub model: NocModel,
}

impl NocConfig {
    /// The paper's NoC configuration for a machine with `cores` tiles.
    pub fn isca2015(cores: usize) -> Self {
        NocConfig {
            topology: MeshTopology::square_for(cores),
            link_latency: Cycle::new(1),
            router_latency: Cycle::new(1),
            contention_factor: 4.0,
            model: NocModel::Analytic,
        }
    }

    /// The same configuration with the model replaced.
    pub fn with_model(mut self, model: NocModel) -> Self {
        self.model = model;
        self
    }

    /// Cycles for one hop: one link traversal plus one router traversal.
    pub fn hop_latency(&self) -> u64 {
        self.link_latency.as_u64() + self.router_latency.as_u64()
    }

    /// The latency of a packet on an otherwise idle network.
    ///
    /// `hops × (link + router)` for the head flit plus one cycle per
    /// additional flit of the packet.  Local (same-tile) messages still pay
    /// one hop for the router loopback.  Both backends agree on this value
    /// by construction, which is what the model-equivalence tests pin.
    pub fn zero_load_latency(&self, from: NodeId, to: NodeId, payload_bytes: u64) -> Cycle {
        let hops = self.topology.hops(from, to).max(1);
        let serialization = PacketKind::for_payload(payload_bytes)
            .flits()
            .saturating_sub(1);
        Cycle::new(hops * self.hop_latency() + serialization)
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        Self::isca2015(64)
    }
}

/// The closed-form network model: latency formula plus traffic accounting.
#[derive(Debug, Clone)]
pub struct AnalyticNoc {
    config: NocConfig,
    traffic: TrafficAccountant,
    utilization: f64,
    clamp_events: u64,
}

impl AnalyticNoc {
    /// Creates an analytic network with the given configuration.
    pub fn new(config: NocConfig) -> Self {
        AnalyticNoc {
            config,
            traffic: TrafficAccountant::new(),
            utilization: 0.0,
            clamp_events: 0,
        }
    }

    /// Updates the link-utilisation estimate ρ used by the contention model.
    ///
    /// The value is clamped to `[0, MAX_UTILIZATION]` so the queueing term
    /// stays finite; every call that actually hits the upper clamp is
    /// counted in the `noc.utilization.clamp_events` statistic.
    pub fn set_utilization(&mut self, rho: f64) {
        if rho > MAX_UTILIZATION {
            self.clamp_events += 1;
        }
        self.utilization = rho.clamp(0.0, MAX_UTILIZATION);
    }

    /// Current link-utilisation estimate.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// How many [`AnalyticNoc::set_utilization`] calls saturated the clamp.
    pub fn clamp_events(&self) -> u64 {
        self.clamp_events
    }

    fn contention_delay_per_hop(&self) -> f64 {
        let rho = self.utilization;
        if rho <= 0.0 {
            0.0
        } else {
            self.config.contention_factor * rho * rho / (1.0 - rho)
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Latency of a packet without recording traffic, including the
    /// utilisation-driven contention term.
    pub fn latency(&self, from: NodeId, to: NodeId, payload_bytes: u64) -> Cycle {
        let hops = self.config.topology.hops(from, to).max(1);
        let contention = (self.contention_delay_per_hop() * hops as f64).round() as u64;
        self.config.zero_load_latency(from, to, payload_bytes) + Cycle::new(contention)
    }

    /// Sends one packet and returns its latency, recording the traffic.
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
        payload_bytes: u64,
    ) -> Cycle {
        // Route and classify once; `latency()` would recompute both (and
        // `zero_load_latency` a third time), and the contention term is
        // exactly zero on an idle network, so the f64 path is skipped there.
        let hops = self.config.topology.hops(from, to).max(1);
        let kind = PacketKind::for_payload(payload_bytes);
        self.traffic.record(class, kind, hops);
        let serialization = kind.flits().saturating_sub(1);
        let contention = if self.utilization <= 0.0 {
            0
        } else {
            (self.contention_delay_per_hop() * hops as f64).round() as u64
        };
        Cycle::new(hops * self.config.hop_latency() + serialization + contention)
    }

    /// Read access to the accumulated traffic.
    pub fn traffic(&self) -> &TrafficAccountant {
        &self.traffic
    }

    /// Exports the traffic counters, ρ and the clamp count.
    pub fn export_stats(&self, stats: &mut StatRegistry) {
        self.traffic.export(stats);
        stats.set_value("noc.utilization", self.utilization);
        stats.add_count("noc.utilization.clamp_events", self.clamp_events);
    }
}

/// The backend a [`Noc`] dispatches to.
// One `Noc` exists per `MemorySystem`, never in bulk collections, so the
// size asymmetry between the two backends is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum NocEngine {
    Analytic(AnalyticNoc),
    DiscreteEvent(DesNoc),
}

/// The on-chip network: computes message latencies and accounts traffic.
///
/// A facade over the backend selected by [`NocConfig::model`]; the memory
/// hierarchy and the coherence protocol are oblivious to which model runs
/// underneath.
///
/// # Example
///
/// ```
/// use noc::{MessageClass, Noc, NocConfig, NocModel};
/// use simkernel::NodeId;
///
/// let mut noc = Noc::new(NocConfig::isca2015(16));
/// let lat = noc.send(NodeId::new(0), NodeId::new(15), MessageClass::Write, 64);
/// assert!(lat.as_u64() > 0);
///
/// // The same experiment under the discrete-event backend:
/// let mut des = Noc::new(NocConfig::isca2015(16).with_model(NocModel::DiscreteEvent));
/// let idle = des.send(NodeId::new(0), NodeId::new(15), MessageClass::Write, 64);
/// assert_eq!(idle, lat, "idle DES latency equals the analytic zero-load latency");
/// ```
#[derive(Debug, Clone)]
pub struct Noc {
    engine: NocEngine,
}

impl Noc {
    /// Creates a network with the given configuration, instantiating the
    /// backend named by [`NocConfig::model`].
    pub fn new(config: NocConfig) -> Self {
        let engine = match config.model {
            NocModel::Analytic => NocEngine::Analytic(AnalyticNoc::new(config)),
            NocModel::DiscreteEvent => NocEngine::DiscreteEvent(DesNoc::new(config)),
        };
        Noc { engine }
    }

    /// Returns the network configuration.
    pub fn config(&self) -> &NocConfig {
        match &self.engine {
            NocEngine::Analytic(a) => a.config(),
            NocEngine::DiscreteEvent(d) => d.config(),
        }
    }

    /// The model this network runs.
    pub fn model(&self) -> NocModel {
        self.config().model
    }

    /// Returns the topology.
    pub fn topology(&self) -> &MeshTopology {
        &self.config().topology
    }

    /// The discrete-event backend, when that is the active model.
    ///
    /// Grants access to the measured per-link utilisations and per-node
    /// queueing counters that have no analytic counterpart.
    pub fn des(&self) -> Option<&DesNoc> {
        match &self.engine {
            NocEngine::DiscreteEvent(d) => Some(d),
            NocEngine::Analytic(_) => None,
        }
    }

    /// Mutable access to the discrete-event backend, when that is the
    /// active model — the batch-injection entry point for synthetic
    /// traffic drivers.
    pub fn des_mut(&mut self) -> Option<&mut DesNoc> {
        match &mut self.engine {
            NocEngine::DiscreteEvent(d) => Some(d),
            NocEngine::Analytic(_) => None,
        }
    }

    /// Updates the link-utilisation estimate ρ used by the analytic
    /// contention model.
    ///
    /// The value is clamped to `[0, MAX_UTILIZATION]` so the queueing term
    /// stays finite (saturating calls are counted in the exported
    /// `noc.utilization.clamp_events` statistic).  The discrete-event
    /// backend measures utilisation instead of assuming it, so the call is
    /// a no-op there.
    pub fn set_utilization(&mut self, rho: f64) {
        if let NocEngine::Analytic(a) = &mut self.engine {
            a.set_utilization(rho);
        }
    }

    /// Current link-utilisation estimate: the hand-set ρ under the analytic
    /// model, the measured maximum per-link utilisation under the
    /// discrete-event model.
    pub fn utilization(&self) -> f64 {
        match &self.engine {
            NocEngine::Analytic(a) => a.utilization(),
            NocEngine::DiscreteEvent(d) => d.max_link_utilization(),
        }
    }

    /// Advances the network's notion of the current cycle (monotonic).
    ///
    /// The machine driver calls this with each core's clock before issuing
    /// that core's memory traffic, so discrete-event queueing happens in
    /// simulation time rather than piling every packet onto cycle zero.
    /// The analytic model is memoryless and ignores it.
    pub fn advance_to(&mut self, now: Cycle) {
        if let NocEngine::DiscreteEvent(d) = &mut self.engine {
            d.advance_to(now);
        }
    }

    /// Latency of a packet between two nodes *without* recording traffic.
    ///
    /// Useful for "ideal" oracle models that must not perturb the traffic
    /// statistics; under the discrete-event model this is the zero-load
    /// latency, since an unsent packet occupies no links.
    #[inline]
    pub fn latency(&self, from: NodeId, to: NodeId, payload_bytes: u64) -> Cycle {
        match &self.engine {
            NocEngine::Analytic(a) => a.latency(from, to, payload_bytes),
            NocEngine::DiscreteEvent(d) => d.latency(from, to, payload_bytes),
        }
    }

    /// Sends one packet and returns its latency, recording the traffic.
    ///
    /// `payload_bytes` chooses between control packets (< 32 bytes: requests,
    /// acks, invalidations) and data packets (a cache line).
    #[inline]
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
        payload_bytes: u64,
    ) -> Cycle {
        match &mut self.engine {
            NocEngine::Analytic(a) => a.send(from, to, class, payload_bytes),
            NocEngine::DiscreteEvent(d) => d.send(from, to, class, payload_bytes),
        }
    }

    /// Sends a request/response pair and returns the round-trip latency.
    pub fn round_trip(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
        request_bytes: u64,
        response_bytes: u64,
    ) -> Cycle {
        let there = self.send(from, to, class, request_bytes);
        let back = self.send(to, from, class, response_bytes);
        there + back
    }

    /// Broadcasts a control packet from `from` to every other node and
    /// collects one control response from each.
    ///
    /// Returns the latency until the *last* response arrives (the critical
    /// path of a filterDir broadcast, Figure 6b of the paper).
    pub fn broadcast_collect(
        &mut self,
        from: NodeId,
        class: MessageClass,
        payload_bytes: u64,
    ) -> Cycle {
        let mut worst = Cycle::ZERO;
        for i in 0..self.topology().nodes() {
            let to = NodeId::new(i);
            if to == from {
                continue;
            }
            let out = self.send(from, to, class, payload_bytes);
            let back = self.send(to, from, class, CONTROL_RESPONSE_BYTES);
            worst = worst.max(out + back);
        }
        worst
    }

    /// Read access to the accumulated traffic.
    pub fn traffic(&self) -> &TrafficAccountant {
        match &self.engine {
            NocEngine::Analytic(a) => a.traffic(),
            NocEngine::DiscreteEvent(d) => d.traffic(),
        }
    }

    /// Exports the backend's counters into a [`StatRegistry`].
    pub fn export_stats(&self, stats: &mut StatRegistry) {
        match &self.engine {
            NocEngine::Analytic(a) => a.export_stats(stats),
            NocEngine::DiscreteEvent(d) => d.export_stats(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_match_table1() {
        let c = NocConfig::default();
        assert_eq!(c.topology.nodes(), 64);
        assert_eq!(c.link_latency, Cycle::new(1));
        assert_eq!(c.router_latency, Cycle::new(1));
        assert_eq!(c.model, NocModel::Analytic);
    }

    #[test]
    fn model_ids_round_trip() {
        for model in NocModel::ALL {
            assert_eq!(NocModel::from_id(model.id()), Some(model));
        }
        assert_eq!(NocModel::from_id("des"), Some(NocModel::DiscreteEvent));
        assert_eq!(NocModel::from_id("quantum"), None);
        assert_eq!(NocModel::DiscreteEvent.to_string(), "discrete-event");
        assert_eq!(NocModel::default(), NocModel::Analytic);
    }

    #[test]
    fn with_model_selects_the_backend() {
        let analytic = Noc::new(NocConfig::isca2015(16));
        assert_eq!(analytic.model(), NocModel::Analytic);
        assert!(analytic.des().is_none());
        let des = Noc::new(NocConfig::isca2015(16).with_model(NocModel::DiscreteEvent));
        assert_eq!(des.model(), NocModel::DiscreteEvent);
        assert!(des.des().is_some());
    }

    #[test]
    fn latency_scales_with_distance() {
        let noc = Noc::new(NocConfig::isca2015(64));
        let near = noc.latency(NodeId::new(0), NodeId::new(1), 8);
        let far = noc.latency(NodeId::new(0), NodeId::new(63), 8);
        assert!(far > near);
        // 14 hops * (1+1) cycles for a single-flit control packet.
        assert_eq!(far, Cycle::new(28));
    }

    #[test]
    fn data_packets_add_serialization_latency() {
        let noc = Noc::new(NocConfig::isca2015(64));
        let control = noc.latency(NodeId::new(0), NodeId::new(2), 8);
        let data = noc.latency(NodeId::new(0), NodeId::new(2), 64);
        assert_eq!(
            data - control,
            Cycle::new(4),
            "5-flit data packet adds 4 serialization cycles"
        );
    }

    #[test]
    fn local_messages_still_cost_one_hop() {
        let noc = Noc::new(NocConfig::isca2015(64));
        let lat = noc.latency(NodeId::new(5), NodeId::new(5), 8);
        assert_eq!(lat, Cycle::new(2));
    }

    #[test]
    fn send_records_traffic_latency_does_not() {
        let mut noc = Noc::new(NocConfig::isca2015(16));
        let _ = noc.latency(NodeId::new(0), NodeId::new(3), 64);
        assert_eq!(noc.traffic().total_packets(), 0);
        let _ = noc.send(NodeId::new(0), NodeId::new(3), MessageClass::Read, 64);
        assert_eq!(noc.traffic().total_packets(), 1);
        assert_eq!(noc.traffic().packets(MessageClass::Read), 1);
    }

    #[test]
    fn round_trip_records_two_packets() {
        for model in NocModel::ALL {
            let mut noc = Noc::new(NocConfig::isca2015(16).with_model(model));
            let mut sends = noc.clone();
            let (a, b) = (NodeId::new(1), NodeId::new(2));
            let rt = noc.round_trip(a, b, MessageClass::Dma, 8, 64);
            assert_eq!(noc.traffic().packets(MessageClass::Dma), 2, "{model}");
            let there = sends.send(a, b, MessageClass::Dma, 8);
            let back = sends.send(b, a, MessageClass::Dma, 64);
            assert_eq!(rt, there + back, "{model}");
            assert!(rt > Cycle::ZERO, "{model}");
        }
    }

    #[test]
    fn broadcast_touches_every_other_node() {
        for model in NocModel::ALL {
            let mut noc = Noc::new(NocConfig::isca2015(16).with_model(model));
            let mut sends = noc.clone();
            let from = NodeId::new(0);
            let lat = noc.broadcast_collect(from, MessageClass::CohProt, 8);
            // 15 requests + 15 responses.
            assert_eq!(noc.traffic().packets(MessageClass::CohProt), 30, "{model}");
            let want = (1..16)
                .map(|i| {
                    let to = NodeId::new(i);
                    let out = sends.send(from, to, MessageClass::CohProt, 8);
                    out + sends.send(to, from, MessageClass::CohProt, 8)
                })
                .max()
                .unwrap();
            assert_eq!(lat, want, "{model}");
            assert!(lat >= noc.latency(from, NodeId::new(15), 8) * 2, "{model}");
        }
    }

    #[test]
    fn contention_increases_latency() {
        let mut noc = Noc::new(NocConfig::isca2015(64));
        let idle = noc.latency(NodeId::new(0), NodeId::new(63), 8);
        noc.set_utilization(0.8);
        let busy = noc.latency(NodeId::new(0), NodeId::new(63), 8);
        assert!(busy > idle);
        noc.set_utilization(2.0);
        assert!(noc.utilization() <= MAX_UTILIZATION);
    }

    #[test]
    fn clamped_utilization_is_counted() {
        let mut noc = AnalyticNoc::new(NocConfig::isca2015(16));
        noc.set_utilization(0.5);
        assert_eq!(noc.clamp_events(), 0);
        noc.set_utilization(1.7);
        noc.set_utilization(2.0);
        assert_eq!(noc.clamp_events(), 2);
        assert_eq!(noc.utilization(), MAX_UTILIZATION);
        // Exactly MAX_UTILIZATION is representable, not a saturation.
        noc.set_utilization(MAX_UTILIZATION);
        assert_eq!(noc.clamp_events(), 2);
        let mut stats = StatRegistry::new();
        noc.export_stats(&mut stats);
        assert_eq!(stats.count("noc.utilization.clamp_events"), 2);
    }

    #[test]
    fn export_stats_includes_totals() {
        let mut noc = Noc::new(NocConfig::isca2015(4));
        noc.send(NodeId::new(0), NodeId::new(1), MessageClass::Ifetch, 64);
        let mut stats = StatRegistry::new();
        noc.export_stats(&mut stats);
        assert_eq!(stats.count("noc.total.packets"), 1);
        assert!(stats.contains("noc.utilization"));
    }

    /// `Noc` gives the same round trip and traffic as the backend it wraps,
    /// driven directly.
    #[test]
    fn facade_implements_the_backend_trait() {
        let config = NocConfig::isca2015(4);
        let (a, b) = (NodeId::new(0), NodeId::new(3));
        let mut noc = Noc::new(config);
        let mut analytic = AnalyticNoc::new(config);
        let rt = noc.round_trip(a, b, MessageClass::Read, 8, 64);
        let there = analytic.send(a, b, MessageClass::Read, 8);
        assert_eq!(rt, there + analytic.send(b, a, MessageClass::Read, 64));
        assert_eq!(
            noc.traffic().total_packets(),
            analytic.traffic().total_packets()
        );

        let config = config.with_model(NocModel::DiscreteEvent);
        let mut noc = Noc::new(config);
        let mut des = DesNoc::new(config);
        let rt = noc.round_trip(a, b, MessageClass::Read, 8, 64);
        let there = des.send(a, b, MessageClass::Read, 8);
        assert_eq!(rt, there + des.send(b, a, MessageClass::Read, 64));
        assert_eq!(noc.traffic().total_packets(), des.traffic().total_packets());
        assert_eq!(noc.traffic().total_packets(), 2);
        assert!(rt > Cycle::ZERO);
    }
}
