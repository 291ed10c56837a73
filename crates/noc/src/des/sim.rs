//! Synthetic traffic generation for contention studies.
//!
//! [`run_synthetic`] drives either NoC backend with the same seeded,
//! deterministic packet stream — geometric inter-arrival gaps per node, a
//! fixed request/response/writeback mix, uniform destinations — through the
//! calls a machine run makes: [`Noc::advance_to`] each packet's injection
//! cycle, then [`Noc::send`].  The analytic model answers with the
//! zero-load latency; the discrete-event model reserves each packet's
//! route on the network machine runs use, so the report measures the
//! queueing the zero-load model leaves out.

use simkernel::{Cycle, NodeId, RunningStat, SimRng};

use crate::des::DesNoc;
use crate::network::{Noc, NocModel};
use crate::packet::MessageClass;

/// The packet mix of the synthetic stream, mirroring a directory protocol's
/// request / data-response / writeback split.
const MIX: [(f64, MessageClass, u64); 3] = [
    (0.45, MessageClass::Read, 8),    // control requests
    (0.40, MessageClass::Read, 64),   // data responses
    (0.15, MessageClass::WbRepl, 64), // write-backs
];

/// A seeded synthetic traffic pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTraffic {
    /// Packets injected per node per cycle (each node's Bernoulli rate).
    pub injection_rate: f64,
    /// Length of the injection window in cycles.
    pub duration: u64,
    /// Seed of the per-node address streams.
    pub seed: u64,
}

impl SyntheticTraffic {
    /// Uniform-random traffic at `injection_rate` packets/node/cycle.
    pub fn uniform(injection_rate: f64, duration: u64, seed: u64) -> Self {
        SyntheticTraffic {
            injection_rate,
            duration,
            seed,
        }
    }
}

/// One generated packet of the stream.
struct GeneratedPacket {
    at: Cycle,
    from: NodeId,
    to: NodeId,
    class: MessageClass,
    bytes: u64,
}

/// What a synthetic run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticReport {
    /// The model that ran.
    pub model: NocModel,
    /// Packets injected (= delivered; the run drains completely).
    pub delivered: u64,
    /// Mean packet latency in cycles.
    pub mean_latency: f64,
    /// Worst packet latency in cycles.
    pub max_latency: f64,
    /// Mean zero-load latency of the same stream (the congestion-free
    /// floor both models share, and the analytic model's mean latency).
    pub mean_zero_load_latency: f64,
    /// Largest measured per-link utilisation (discrete-event only; 0 under
    /// the analytic model).
    pub max_link_utilization: f64,
    /// Total cycles packets queued at ejection ports — the aggregate
    /// home-node pressure (discrete-event only; 0 under the analytic
    /// model).
    pub total_eject_wait_cycles: u64,
    /// Worst single node's ejection-queue cycles (discrete-event only; 0
    /// under the analytic model).
    pub max_node_eject_wait_cycles: u64,
    /// The node with that worst ejection queue (0 under the analytic
    /// model).
    pub hottest_node: usize,
}

/// Generates the deterministic packet stream for `noc`'s topology.
fn generate(noc: &Noc, traffic: &SyntheticTraffic) -> Vec<GeneratedPacket> {
    let nodes = noc.topology().nodes();
    let rate = traffic.injection_rate.clamp(0.0, 1.0);
    let mut packets = Vec::new();
    if rate <= 0.0 || traffic.duration == 0 {
        return packets;
    }
    let mut base = SimRng::seed_from_u64(traffic.seed);
    for node in 0..nodes {
        let mut rng = base.fork(node as u64);
        // Geometric inter-arrival gaps realise the per-cycle Bernoulli rate
        // without walking every cycle.
        let mut t = 0u64;
        loop {
            let gap = if rate >= 1.0 {
                1
            } else {
                1 + (rng.next_f64().ln() / (1.0 - rate).ln()).floor() as u64
            };
            t = t.saturating_add(gap);
            if t >= traffic.duration {
                break;
            }
            let to = pick_destination(&mut rng, node, nodes);
            let (class, bytes) = pick_kind(&mut rng);
            packets.push(GeneratedPacket {
                at: Cycle::new(t),
                from: NodeId::new(node),
                to,
                class,
                bytes,
            });
        }
    }
    // Deliver in timestamp order; the per-node generation order breaks ties
    // deterministically.
    packets.sort_by_key(|p| p.at);
    packets
}

fn pick_destination(rng: &mut SimRng, from: usize, nodes: usize) -> NodeId {
    if nodes == 1 {
        return NodeId::new(0);
    }
    // Uniform over every node except the source.
    let pick = rng.next_below(nodes as u64 - 1) as usize;
    NodeId::new(if pick >= from { pick + 1 } else { pick })
}

fn pick_kind(rng: &mut SimRng) -> (MessageClass, u64) {
    let u = rng.next_f64();
    let mut acc = 0.0;
    for &(share, class, bytes) in &MIX {
        acc += share;
        if u < acc {
            return (class, bytes);
        }
    }
    let (_, class, bytes) = MIX[MIX.len() - 1];
    (class, bytes)
}

/// Drives `noc` with the synthetic stream and reports what it measured.
///
/// Pass a freshly constructed [`Noc`]: the discrete-event fields read the
/// backend's cumulative statistics.  The same `traffic` value produces the
/// same packet stream under both models, so their reports are comparable
/// point by point.
pub fn run_synthetic(noc: &mut Noc, traffic: &SyntheticTraffic) -> SyntheticReport {
    let packets = generate(noc, traffic);
    let mut zero_load = RunningStat::new();
    let mut latency = RunningStat::new();
    for p in &packets {
        zero_load.record(
            noc.config()
                .zero_load_latency(p.from, p.to, p.bytes)
                .as_f64(),
        );
        noc.advance_to(p.at);
        latency.record(noc.send(p.from, p.to, p.class, p.bytes).as_f64());
    }
    let des = noc.des();
    let (hottest, max_wait) = des.map_or((NodeId::new(0), 0), DesNoc::hottest_node);
    SyntheticReport {
        model: noc.model(),
        delivered: packets.len() as u64,
        mean_latency: latency.mean(),
        max_latency: latency.max().unwrap_or(0.0),
        mean_zero_load_latency: zero_load.mean(),
        max_link_utilization: des.map_or(0.0, DesNoc::max_link_utilization),
        total_eject_wait_cycles: des.map_or(0, |d| d.eject_wait_cycles().iter().sum()),
        max_node_eject_wait_cycles: max_wait,
        hottest_node: hottest.index(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NocConfig;

    fn noc(cores: usize, model: NocModel) -> Noc {
        Noc::new(NocConfig::isca2015(cores).with_model(model))
    }

    #[test]
    fn same_seed_same_report_on_both_models() {
        for model in NocModel::ALL {
            let traffic = SyntheticTraffic::uniform(0.05, 500, 42);
            let a = run_synthetic(&mut noc(16, model), &traffic);
            let b = run_synthetic(&mut noc(16, model), &traffic);
            assert_eq!(a, b, "{model}");
            assert!(a.delivered > 0, "{model}");
            assert!(a.mean_latency >= a.mean_zero_load_latency, "{model}");
        }
    }

    #[test]
    fn both_models_see_the_same_stream() {
        let traffic = SyntheticTraffic::uniform(0.05, 500, 7);
        let analytic = run_synthetic(&mut noc(16, NocModel::Analytic), &traffic);
        let des = run_synthetic(&mut noc(16, NocModel::DiscreteEvent), &traffic);
        assert_eq!(analytic.delivered, des.delivered);
        assert_eq!(analytic.mean_zero_load_latency, des.mean_zero_load_latency);
    }

    #[test]
    fn des_contention_grows_with_injection_rate() {
        let low = run_synthetic(
            &mut noc(16, NocModel::DiscreteEvent),
            &SyntheticTraffic::uniform(0.01, 2_000, 1),
        );
        let high = run_synthetic(
            &mut noc(16, NocModel::DiscreteEvent),
            &SyntheticTraffic::uniform(0.30, 2_000, 1),
        );
        assert!(high.max_link_utilization > low.max_link_utilization);
        assert!(high.mean_latency > low.mean_latency);
        assert!(high.total_eject_wait_cycles > low.total_eject_wait_cycles);
    }

    #[test]
    fn near_zero_rate_rides_the_zero_load_floor() {
        let report = run_synthetic(
            &mut noc(16, NocModel::DiscreteEvent),
            &SyntheticTraffic::uniform(0.001, 50_000, 3),
        );
        assert!(report.delivered > 0);
        // A handful of collisions are possible, but the mean must sit
        // essentially on the zero-load floor.
        assert!(
            report.mean_latency < report.mean_zero_load_latency * 1.05,
            "{} vs {}",
            report.mean_latency,
            report.mean_zero_load_latency
        );
    }

    #[test]
    fn zero_rate_or_window_injects_nothing() {
        for traffic in [
            SyntheticTraffic::uniform(0.0, 1_000, 1),
            SyntheticTraffic::uniform(0.5, 0, 1),
        ] {
            let report = run_synthetic(&mut noc(16, NocModel::DiscreteEvent), &traffic);
            assert_eq!(report.delivered, 0);
            assert_eq!(report.mean_latency, 0.0);
        }
    }
}
