//! Message-level discrete-event NoC backend.
//!
//! The analytic model is the zero-load network, which makes hotspots — the
//! filterDir home tiles the paper claims see "very low" contention —
//! invisible by construction.  This backend *measures* them: every packet
//! claims its source's injection port, each directed link's
//! per-virtual-channel FIFO slot along its XY route, and its destination's
//! ejection port.  Per-link utilisation and per-node queueing come out as
//! first-class statistics instead of assumptions.
//!
//! There is one entry point, [`DesNoc::send`].  It injects one packet at the
//! engine's current cycle (advanced by [`DesNoc::advance_to`]) and reserves
//! its whole XY route at once, returning the latency synchronously — the
//! same `send(...) → latency` contract the analytic model has.  Callers
//! send in simulated-time order (the machine's min-clock scheduler,
//! [`run_synthetic`] by injection cycle), so a later packet sees every
//! earlier packet's reservations; two packets never interleave hop by hop,
//! and no event queue is needed.
//!
//! On an idle network the latency is exactly the analytic zero-load
//! latency, `hops·(link+router) + flits−1`, which the model-equivalence
//! tests pin.

mod link;
mod sim;

pub use sim::{run_synthetic, SyntheticReport, SyntheticTraffic};

use simkernel::{Cycle, NodeId, RunningStat, StatRegistry};

use crate::network::NocConfig;
use crate::packet::{MessageClass, PacketKind, VirtualChannel, NUM_VIRTUAL_CHANNELS};
use crate::traffic::TrafficAccountant;

use link::{Leg, LinkGrid};

/// The discrete-event network backend.
///
/// # Example
///
/// ```
/// use noc::des::DesNoc;
/// use noc::{MessageClass, NocConfig, NocModel};
/// use simkernel::NodeId;
///
/// let config = NocConfig::isca2015(16).with_model(NocModel::DiscreteEvent);
/// let mut noc = DesNoc::new(config);
/// let idle = noc.send(NodeId::new(0), NodeId::new(15), MessageClass::Read, 8);
/// assert_eq!(idle, config.zero_load_latency(NodeId::new(0), NodeId::new(15), 8));
/// // A burst to one node queues at its ejection port:
/// let busy = noc.send(NodeId::new(3), NodeId::new(15), MessageClass::Read, 8);
/// assert!(busy >= config.zero_load_latency(NodeId::new(3), NodeId::new(15), 8));
/// ```
#[derive(Debug, Clone)]
pub struct DesNoc {
    config: NocConfig,
    now: Cycle,
    /// Latest delivery seen — the denominator of the utilisation figures.
    horizon: Cycle,
    links: LinkGrid,
    inject_free: Vec<[Cycle; NUM_VIRTUAL_CHANNELS]>,
    eject_free: Vec<[Cycle; NUM_VIRTUAL_CHANNELS]>,
    inject_wait: Vec<u64>,
    eject_wait: Vec<u64>,
    delivered: u64,
    latency: RunningStat,
    traffic: TrafficAccountant,
}

impl DesNoc {
    /// Creates an idle discrete-event network.
    pub fn new(config: NocConfig) -> Self {
        let nodes = config.topology.nodes();
        DesNoc {
            config,
            now: Cycle::ZERO,
            horizon: Cycle::ZERO,
            links: LinkGrid::new(config.topology),
            inject_free: vec![[Cycle::ZERO; NUM_VIRTUAL_CHANNELS]; nodes],
            eject_free: vec![[Cycle::ZERO; NUM_VIRTUAL_CHANNELS]; nodes],
            inject_wait: vec![0; nodes],
            eject_wait: vec![0; nodes],
            delivered: 0,
            latency: RunningStat::new(),
            traffic: TrafficAccountant::new(),
        }
    }

    /// The engine's current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    // ------------------------------------------------------- timing rules
    //
    // `send` moves a packet through exactly these three claims, in route
    // order.

    /// A packet asks `src`'s injection port for a slot at `when`; returns
    /// the cycle its head flit enters the source router.
    #[inline]
    fn claim_injection(&mut self, when: Cycle, src: NodeId, vc: usize, flits: u64) -> Cycle {
        let port = &mut self.inject_free[src.index()][vc];
        let start = when.max(*port);
        *port = start + Cycle::new(flits);
        self.inject_wait[src.index()] += (start - when).as_u64();
        start
    }

    /// The head flit, in a router since `when`, crosses the directed link
    /// `link` on channel `vc`; returns the cycle it reaches the next router.
    #[inline]
    fn claim_link(&mut self, when: Cycle, link: usize, vc: usize, flits: u64) -> Cycle {
        let ready = when + self.config.router_latency;
        let state = self.links.state_mut(link);
        let depart = ready.max(state.free_at[vc]);
        state.free_at[vc] = depart + Cycle::new(flits);
        state.busy_cycles += flits;
        state.packets += 1;
        depart + self.config.link_latency
    }

    /// The head flit, at its destination `node` since `arrived`, claims the
    /// ejection port; returns the cycle the tail flit is delivered.
    #[inline]
    fn claim_ejection(
        &mut self,
        arrived: Cycle,
        node: NodeId,
        local: bool,
        vc: usize,
        flits: u64,
    ) -> Cycle {
        // Local (same-tile) packets still loop through their router once,
        // matching the analytic `hops.max(1)`.
        let ready = if local {
            arrived + Cycle::new(self.config.hop_latency())
        } else {
            arrived
        };
        let port = &mut self.eject_free[node.index()][vc];
        let granted = ready.max(*port);
        *port = granted + Cycle::new(flits);
        self.eject_wait[node.index()] += (granted - ready).as_u64();
        let delivered = granted + Cycle::new(flits - 1);
        self.horizon = self.horizon.max(delivered);
        delivered
    }

    // ------------------------------------------------------------- measured

    /// Largest measured utilisation over all directed links.
    pub fn max_link_utilization(&self) -> f64 {
        self.links.utilizations(self.horizon).fold(0.0f64, f64::max)
    }

    /// Mean measured utilisation over the links that physically exist.
    pub fn mean_link_utilization(&self) -> f64 {
        let physical = self.links.physical_links();
        if physical == 0 {
            return 0.0;
        }
        let denom = self.horizon.as_u64().max(1) as f64;
        self.links.total_busy_cycles() as f64 / denom / physical as f64
    }

    /// Cumulative busy cycles of every directed link (index `node × 4 +
    /// direction`; links outside the mesh stay at zero) — the counter the
    /// trace sampler
    /// differentiates into per-link utilisation over time windows.
    pub fn link_busy_cycles(&self) -> Vec<u64> {
        self.links.busy_cycles_per_link().collect()
    }

    /// Cycles packets spent queued at each node's ejection port — the
    /// per-home-node pressure figure for filterDir hotspot analysis.
    pub fn eject_wait_cycles(&self) -> &[u64] {
        &self.eject_wait
    }

    /// Instantaneous home-node queue depth: for each node, how many cycles
    /// past `at` its ejection port is already committed, summed over virtual
    /// channels.  Zero means the port is free — packets arriving at `at`
    /// eject immediately.
    ///
    /// This is the mid-run counterpart of [`DesNoc::eject_wait_cycles`]
    /// (which accumulates to end of run): the stat sampler and the
    /// contention ablation read it while the simulation is still moving to
    /// see *when* a filterDir home tile backs up, not just that it did.
    /// Allocation-free: fills the caller's `depths` scratch buffer (cleared
    /// and resized to the node count) so the per-sample hot path of the
    /// stat time-series reuses one buffer for the whole run.
    pub fn home_queue_depths(&self, at: Cycle, depths: &mut Vec<u64>) {
        depths.clear();
        depths.extend(self.eject_free.iter().map(|ports| {
            ports
                .iter()
                .map(|&free| free.as_u64().saturating_sub(at.as_u64()))
                .sum::<u64>()
        }));
    }

    /// The node with the largest ejection-queue wait, with that wait.
    pub fn hottest_node(&self) -> (NodeId, u64) {
        let (node, wait) = self
            .eject_wait
            .iter()
            .enumerate()
            .max_by_key(|&(i, &w)| (w, std::cmp::Reverse(i)))
            .unwrap_or((0, &0));
        (NodeId::new(node), *wait)
    }

    /// Packets delivered since construction.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The latest delivery cycle observed (the utilisation denominator).
    pub fn horizon(&self) -> Cycle {
        self.horizon
    }

    /// The configuration in use.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Advances the engine's current cycle; later sends inject no earlier.
    ///
    /// Time only moves forward: an earlier cycle is a caller bug, asserted
    /// in debug builds and ignored in release builds.
    pub fn advance_to(&mut self, now: Cycle) {
        // Callers step the network in simulated-time order (the machine's
        // min-clock scheduler, synthetic traffic sorted by cycle), so a
        // backwards call is a bug in the caller.
        debug_assert!(
            now >= self.now,
            "NoC clock ran backwards: {now} < {}",
            self.now
        );
        self.now = self.now.max(now);
    }

    /// Injects one packet at the current cycle, records its traffic and
    /// reserves its whole XY route — injection port, the X leg's links, the
    /// Y leg's links, ejection port — in one pass, returning its latency.
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
        payload_bytes: u64,
    ) -> Cycle {
        let legs = self.links.xy_legs(from, to);
        let hops = legs[0].count + legs[1].count;
        let kind = PacketKind::for_payload(payload_bytes);
        self.traffic.record(class, kind, hops.max(1));
        let vc = VirtualChannel::for_packet(class, kind).index();
        let flits = kind.flits();
        let injected_at = self.now;
        let mut head = self.claim_injection(injected_at, from, vc, flits);
        for link in legs.into_iter().flat_map(Leg::links) {
            head = self.claim_link(head, link, vc, flits);
        }
        let delivered = self.claim_ejection(head, to, hops == 0, vc, flits);
        let latency = delivered - injected_at;
        self.latency.record(latency.as_f64());
        self.delivered += 1;
        latency
    }

    /// Read access to the accumulated traffic.
    pub fn traffic(&self) -> &TrafficAccountant {
        &self.traffic
    }

    /// Exports the traffic counters and the per-link and per-node figures.
    pub fn export_stats(&self, stats: &mut StatRegistry) {
        self.traffic.export(stats);
        stats.set_value("noc.des.links.max_utilization", self.max_link_utilization());
        stats.set_value(
            "noc.des.links.mean_utilization",
            self.mean_link_utilization(),
        );
        stats.add_count("noc.des.links.busy_cycles", self.links.total_busy_cycles());
        stats.add_count(
            "noc.des.links.traversals",
            self.links.total_link_traversals(),
        );
        stats.add_count("noc.des.inject.wait_cycles", self.inject_wait.iter().sum());
        stats.add_count("noc.des.eject.wait_cycles", self.eject_wait.iter().sum());
        let (hottest, wait) = self.hottest_node();
        stats.add_count("noc.des.eject.max_node_wait_cycles", wait);
        stats.set_value("noc.des.eject.hottest_node", hottest.index() as f64);
        stats.add_count("noc.des.packets.delivered", self.delivered);
        stats.set_value("noc.des.latency.mean", self.latency.mean());
        stats.set_value("noc.des.latency.max", self.latency.max().unwrap_or(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Noc, NocModel};

    fn des(cores: usize) -> DesNoc {
        DesNoc::new(NocConfig::isca2015(cores).with_model(NocModel::DiscreteEvent))
    }

    #[test]
    fn idle_latency_equals_analytic_zero_load_for_every_pair() {
        for cores in [4, 6, 9, 16, 64] {
            let config = NocConfig::isca2015(cores).with_model(NocModel::DiscreteEvent);
            let mut noc = DesNoc::new(config);
            let mut epoch = Cycle::ZERO;
            for from in 0..cores {
                for to in 0..cores {
                    for bytes in [8, 64] {
                        // Move far past every queue so each probe sees an
                        // idle network.
                        epoch += Cycle::new(10_000);
                        noc.advance_to(epoch);
                        let got = noc.send(
                            NodeId::new(from),
                            NodeId::new(to),
                            MessageClass::Read,
                            bytes,
                        );
                        let want =
                            config.zero_load_latency(NodeId::new(from), NodeId::new(to), bytes);
                        assert_eq!(got, want, "{cores} cores, {from}->{to}, {bytes}B");
                    }
                }
            }
        }
    }

    #[test]
    fn back_to_back_packets_queue_on_the_shared_link() {
        let mut noc = des(16);
        let first = noc.send(NodeId::new(0), NodeId::new(3), MessageClass::Read, 64);
        // Same instant, same path, same virtual channel: must wait.
        let second = noc.send(NodeId::new(0), NodeId::new(3), MessageClass::Read, 64);
        assert!(second > first, "{second} vs {first}");
    }

    #[test]
    fn virtual_channels_decouple_message_classes() {
        // Saturate the writeback channel on the 0→1 link, then check a
        // request on the same link is unaffected.
        let mut congested = des(16);
        let mut idle = des(16);
        for _ in 0..8 {
            let _ = congested.send(NodeId::new(0), NodeId::new(3), MessageClass::WbRepl, 64);
        }
        let through_congested =
            congested.send(NodeId::new(0), NodeId::new(3), MessageClass::Read, 8);
        let through_idle = idle.send(NodeId::new(0), NodeId::new(3), MessageClass::Read, 8);
        assert_eq!(
            through_congested, through_idle,
            "request channel must not see writeback backlog"
        );
    }

    #[test]
    fn hotspot_destination_accumulates_ejection_wait() {
        let mut noc = des(16);
        let target = NodeId::new(5);
        for src in [0usize, 1, 2, 4, 8, 12] {
            let _ = noc.send(NodeId::new(src), target, MessageClass::Read, 64);
        }
        let waits = noc.eject_wait_cycles();
        assert!(
            waits[target.index()] > 0,
            "converging traffic must queue at the hot ejection port"
        );
        assert_eq!(noc.hottest_node().0, target);
    }

    #[test]
    fn home_queue_snapshot_tracks_instantaneous_backlog() {
        let mut noc = des(16);
        let target = NodeId::new(5);
        for src in [0usize, 1, 2, 4, 8, 12] {
            let _ = noc.send(NodeId::new(src), target, MessageClass::Read, 64);
        }
        // Just after the burst the hot ejection port is still committed into
        // the future; every other node is idle.
        let mut depths = Vec::new();
        noc.home_queue_depths(noc.now(), &mut depths);
        assert!(depths[target.index()] > 0, "hot home must show backlog");
        for (node, &depth) in depths.iter().enumerate() {
            if node != target.index() {
                assert_eq!(depth, 0, "node {node} saw no converging traffic");
            }
        }
        // Far enough in the future the backlog has fully drained.  The
        // scratch form reuses (and clears) the caller's buffer.
        let later = noc.horizon() + Cycle::new(1);
        let mut drained = depths;
        noc.home_queue_depths(later, &mut drained);
        assert!(drained.iter().all(|&d| d == 0));
    }

    #[test]
    fn utilization_is_measured_not_assumed() {
        let mut noc = des(16);
        assert_eq!(noc.max_link_utilization(), 0.0);
        for _ in 0..4 {
            let _ = noc.send(NodeId::new(0), NodeId::new(15), MessageClass::Read, 64);
        }
        assert!(noc.max_link_utilization() > 0.0);
        assert!(noc.mean_link_utilization() <= noc.max_link_utilization());
        assert_eq!(noc.delivered(), 4);
        assert!(noc.latency.mean() > 0.0);
        assert!(noc.horizon() > Cycle::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NoC clock ran backwards")]
    fn backwards_advance_panics_in_debug_builds() {
        let mut noc = des(16);
        noc.advance_to(Cycle::new(1_000));
        noc.advance_to(Cycle::new(10));
    }

    #[test]
    fn advance_to_is_monotonic_and_clears_backlog() {
        let mut noc = des(16);
        let _ = noc.send(NodeId::new(0), NodeId::new(3), MessageClass::Read, 64);
        noc.advance_to(Cycle::new(1_000));
        noc.advance_to(Cycle::new(1_000)); // re-stating the time is fine
        assert_eq!(noc.now(), Cycle::new(1_000));
        let after = noc.send(NodeId::new(0), NodeId::new(3), MessageClass::Read, 64);
        assert_eq!(
            after,
            noc.config
                .zero_load_latency(NodeId::new(0), NodeId::new(3), 64),
            "queues drained long ago"
        );
    }

    #[test]
    fn export_stats_carries_link_and_node_figures() {
        let mut noc = des(16);
        for src in 0..8usize {
            let _ = noc.send(NodeId::new(src), NodeId::new(15), MessageClass::Read, 64);
        }
        let mut stats = StatRegistry::new();
        noc.export_stats(&mut stats);
        assert!(stats.contains("noc.des.links.max_utilization"));
        assert!(stats.value("noc.des.links.max_utilization") > 0.0);
        assert!(stats.count("noc.des.packets.delivered") == 8);
        assert!(stats.contains("noc.des.eject.wait_cycles"));
        assert!(stats.contains("noc.des.eject.hottest_node"));
        assert!(stats.count("noc.total.packets") == 8);
    }

    mod properties {
        use super::*;
        use crate::topology::MeshTopology;
        use proptest::prelude::*;

        /// Mesh shapes, including non-power-of-two column counts (whose
        /// coordinates take the division path) and a single tile.
        const SHAPES: [(usize, usize); 8] = [
            (1, 1),
            (3, 1),
            (3, 3),
            (6, 2),
            (9, 3),
            (12, 2),
            (4, 4),
            (8, 8),
        ];

        /// `(gap before the send, from, to, class, payload bytes)`, with the
        /// node ids reduced modulo the mesh size.
        fn packet() -> impl Strategy<Value = (u64, usize, usize, (usize, u64))> {
            (0u64..4, 0usize..1024, 0usize..1024, (0usize..6, 1u64..=72))
        }

        /// Everything the backend can report about its state.
        fn observe(noc: &DesNoc) -> impl PartialEq + std::fmt::Debug {
            let mut stats = StatRegistry::new();
            noc.export_stats(&mut stats);
            let mut depths = Vec::new();
            noc.home_queue_depths(noc.now(), &mut depths);
            (
                stats,
                noc.link_busy_cycles(),
                depths,
                noc.inject_wait.clone(),
                noc.eject_wait_cycles().to_vec(),
                noc.latency,
                noc.horizon(),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The one-pass leg walk of `send` and a reference that walks
            /// `MeshTopology::route` one hop at a time through the same
            /// three claims are the same timing model: after any history of
            /// earlier sends they agree on the packet's latency and leave
            /// identical state behind.
            #[test]
            fn send_matches_a_hop_by_hop_walk(
                shape in 0usize..SHAPES.len(),
                history in proptest::collection::vec(packet(), 0..48),
                last in packet(),
            ) {
                let (cols, rows) = SHAPES[shape];
                let mut config = NocConfig::isca2015(cols * rows).with_model(NocModel::DiscreteEvent);
                config.topology = MeshTopology::new(cols, rows);
                let nodes = config.topology.nodes();
                let mut noc = DesNoc::new(config);
                let mut now = Cycle::ZERO;
                // Moves the clock by the packet's gap and resolves its fields.
                let mut advance = |noc: &mut DesNoc, (gap, from, to, (class, bytes)): (u64, usize, usize, (usize, u64))| {
                    now += Cycle::new(gap);
                    noc.advance_to(now);
                    (NodeId::new(from % nodes), NodeId::new(to % nodes), MessageClass::ALL[class], bytes)
                };
                for p in history {
                    let (from, to, class, bytes) = advance(&mut noc, p);
                    let _ = noc.send(from, to, class, bytes);
                }
                let (from, to, class, bytes) = advance(&mut noc, last);
                let mut reference = noc.clone();

                let walked = noc.send(from, to, class, bytes);
                let kind = PacketKind::for_payload(bytes);
                reference.traffic.record(class, kind, config.topology.hops(from, to).max(1));
                let vc = VirtualChannel::for_packet(class, kind).index();
                let flits = kind.flits();
                let injected_at = reference.now();
                let mut head = reference.claim_injection(injected_at, from, vc, flits);
                for hop in config.topology.route(from, to).windows(2) {
                    let link = reference.links.index_between(hop[0], hop[1]);
                    head = reference.claim_link(head, link, vc, flits);
                }
                let hopped = reference.claim_ejection(head, to, from == to, vc, flits) - injected_at;
                reference.latency.record(hopped.as_f64());
                reference.delivered += 1;

                prop_assert_eq!(walked, hopped, "{}x{} {}->{}", cols, rows, from, to);
                prop_assert_eq!(observe(&noc), observe(&reference));
            }
        }
    }

    #[test]
    fn facade_runs_the_des_backend() {
        let mut noc = Noc::new(NocConfig::isca2015(16).with_model(NocModel::DiscreteEvent));
        let lat = noc.send(NodeId::new(0), NodeId::new(15), MessageClass::Read, 8);
        assert_eq!(lat, Cycle::new(12));
        assert!(noc.des().is_some());
        assert_eq!(noc.traffic().total_packets(), 1);
    }
}
