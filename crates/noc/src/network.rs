//! The network model proper: latency computation and traffic recording.
//!
//! Two backends exist:
//!
//! * [`AnalyticNoc`] — the zero-load model: XY hop count times per-hop
//!   latency plus serialization, with no contention term;
//! * [`DesNoc`] — the discrete-event model: every packet reserves its XY
//!   route over per-link, per-virtual-channel FIFOs, so contention is
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

/// Size of both packets of a [`Noc::fan_out`] leg, the control packet and
/// its ack: an invalidation, a probe or an acknowledgement carries an
/// address and no data, so it fits one flit.
const CONTROL_BYTES: u64 = 8;

/// Which network model a [`Noc`] instantiates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NocModel {
    /// Zero-load latency: hops × per-hop latency + serialization, with no
    /// contention term.  Fast, memoryless, and blind to queueing by
    /// construction.
    #[default]
    Analytic,
    /// Message-level discrete-event simulation: each packet reserves its XY
    /// route over per-link, per-virtual-channel FIFOs with injection and
    /// ejection queues.  Measures per-link utilisation and per-node
    /// queueing instead of assuming them.
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

/// The zero-load network model: latency formula plus traffic accounting.
#[derive(Debug, Clone)]
pub struct AnalyticNoc {
    config: NocConfig,
    traffic: TrafficAccountant,
}

impl AnalyticNoc {
    /// Creates an analytic network with the given configuration.
    pub fn new(config: NocConfig) -> Self {
        AnalyticNoc {
            config,
            traffic: TrafficAccountant::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Sends one packet and returns its latency, recording the traffic.
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
        payload_bytes: u64,
    ) -> Cycle {
        // Route and classify once; `zero_load_latency` would recompute both.
        let hops = self.config.topology.hops(from, to).max(1);
        let kind = PacketKind::for_payload(payload_bytes);
        self.traffic.record(class, kind, hops);
        let serialization = kind.flits().saturating_sub(1);
        Cycle::new(hops * self.config.hop_latency() + serialization)
    }

    /// Read access to the accumulated traffic.
    pub fn traffic(&self) -> &TrafficAccountant {
        &self.traffic
    }

    /// Exports the traffic counters.
    pub fn export_stats(&self, stats: &mut StatRegistry) {
        self.traffic.export(stats);
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
    /// statistics.  This is the zero-load latency under both models: an
    /// unsent packet occupies no links.
    #[inline]
    pub fn latency(&self, from: NodeId, to: NodeId, payload_bytes: u64) -> Cycle {
        self.config().zero_load_latency(from, to, payload_bytes)
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

    /// One control round: sends a control packet from `from` to each of
    /// `targets` and an ack from that target to `ack_to`, in the order
    /// out₁, ack₁, out₂, ack₂, …
    ///
    /// Returns the slowest round trip (zero for no targets): the critical
    /// path of an invalidation round or a filterDir broadcast (Figure 6 of
    /// the paper).  Every multi-target flow of the memory hierarchy and the
    /// coherence protocol sends through here.
    pub fn fan_out(
        &mut self,
        from: NodeId,
        targets: impl IntoIterator<Item = NodeId>,
        ack_to: NodeId,
        class: MessageClass,
    ) -> Cycle {
        let mut worst = Cycle::ZERO;
        for to in targets {
            let out = self.send(from, to, class, CONTROL_BYTES);
            let back = self.send(to, ack_to, class, CONTROL_BYTES);
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
    fn broadcast_touches_every_other_node() {
        for model in NocModel::ALL {
            let mut noc = Noc::new(NocConfig::isca2015(16).with_model(model));
            let mut sends = noc.clone();
            let from = NodeId::new(0);
            let others = (1..16).map(NodeId::new);
            let lat = noc.fan_out(from, others, from, MessageClass::CohProt);
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
    fn fan_out_acks_go_to_the_named_node() {
        let mut noc = Noc::new(NocConfig::isca2015(16));
        let (home, requestor) = (NodeId::new(5), NodeId::new(0));
        let targets = [NodeId::new(3), NodeId::new(15)];
        let lat = noc.fan_out(home, targets, requestor, MessageClass::WbRepl);
        let want = targets
            .iter()
            .map(|&t| noc.latency(home, t, 8) + noc.latency(t, requestor, 8))
            .max()
            .unwrap();
        assert_eq!(lat, want);
        assert_eq!(noc.traffic().packets(MessageClass::WbRepl), 4);
        let none = noc.fan_out(home, [], requestor, MessageClass::WbRepl);
        assert_eq!(none, Cycle::ZERO);
        assert_eq!(noc.traffic().packets(MessageClass::WbRepl), 4);
    }

    #[test]
    fn export_stats_includes_totals() {
        let mut noc = Noc::new(NocConfig::isca2015(4));
        noc.send(NodeId::new(0), NodeId::new(1), MessageClass::Ifetch, 64);
        let mut stats = StatRegistry::new();
        noc.export_stats(&mut stats);
        assert_eq!(stats.count("noc.total.packets"), 1);
    }

    /// `Noc` gives the same latencies and traffic as the backend it wraps,
    /// driven directly.
    #[test]
    fn facade_implements_the_backend_trait() {
        let config = NocConfig::isca2015(4);
        let (a, b) = (NodeId::new(0), NodeId::new(3));
        let mut noc = Noc::new(config);
        let mut analytic = AnalyticNoc::new(config);
        let there = noc.send(a, b, MessageClass::Read, 8);
        assert_eq!(there, analytic.send(a, b, MessageClass::Read, 8));
        let back = noc.send(b, a, MessageClass::Read, 64);
        assert_eq!(back, analytic.send(b, a, MessageClass::Read, 64));
        assert_eq!(
            noc.traffic().total_packets(),
            analytic.traffic().total_packets()
        );

        let config = config.with_model(NocModel::DiscreteEvent);
        let mut noc = Noc::new(config);
        let mut des = DesNoc::new(config);
        let there = noc.send(a, b, MessageClass::Read, 8);
        assert_eq!(there, des.send(a, b, MessageClass::Read, 8));
        let back = noc.send(b, a, MessageClass::Read, 64);
        assert_eq!(back, des.send(b, a, MessageClass::Read, 64));
        assert_eq!(noc.traffic().total_packets(), des.traffic().total_packets());
        assert_eq!(noc.traffic().total_packets(), 2);
        assert!(there + back > Cycle::ZERO);
    }
}
