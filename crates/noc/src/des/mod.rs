//! Message-level discrete-event NoC backend.
//!
//! The analytic model folds all congestion into one global ρ, which makes
//! hotspots — the filterDir home tiles the paper claims see "very low"
//! contention — invisible by construction.  This backend *measures* them:
//! every packet is XY-routed hop by hop over the mesh, claiming each
//! directed link's per-virtual-channel FIFO slot, with injection and
//! ejection queues at every node.  Per-link utilisation and per-node
//! queueing come out as first-class statistics instead of assumptions.
//!
//! Two entry points share one set of timing rules (the injection-, link-
//! and ejection-claim helpers) and differ only in how they order the claims:
//!
//! * [`DesNoc::send`] — the machine's path.  It injects one packet at the
//!   engine's current cycle (advanced by [`DesNoc::advance_to`]) and
//!   reserves its whole XY route at once, returning the latency
//!   synchronously — the same `send(...) → latency` contract the analytic
//!   model has.  Nothing else is in flight during a send, so the route
//!   order *is* the event order and no event queue is needed; the machine's
//!   min-clock scheduler issues sends in simulated-time order.
//! * [`DesNoc::inject_at`] + [`DesNoc::drain`] — the batch path for
//!   synthetic traffic.  Packets with their own injection cycles interleave
//!   hop by hop through a [`simkernel::EventQueue`].
//!
//! On an idle network the latency is exactly the analytic zero-load
//! latency, `hops·(link+router) + flits−1`, which the model-equivalence
//! tests pin.

mod link;
mod sim;

pub use sim::{run_synthetic, SyntheticReport, SyntheticTraffic};

use simkernel::{Cycle, EventQueue, NodeId, RunningStat, StatRegistry};

use crate::network::NocConfig;
use crate::packet::{MessageClass, PacketKind, VirtualChannel, NUM_VIRTUAL_CHANNELS};
use crate::traffic::TrafficAccountant;

use link::{Leg, LinkGrid};

/// One packet in flight (or delivered) within the current batch.
///
/// No route is stored: XY routing is deterministic, so each event computes
/// the next hop from the packet's current node and `dst`
/// ([`LinkGrid::next_toward`]) instead of walking a materialised `Vec`.
#[derive(Debug, Clone, Copy)]
struct PacketState {
    src: NodeId,
    dst: NodeId,
    vc: usize,
    flits: u64,
    injected_at: Cycle,
    delivered_at: Option<Cycle>,
}

/// A hop-level event of the mesh: a packet's head flit reaches the router at
/// `node` on its XY route.
///
/// Injections are *not* events: pending packets wait in a time-sorted flat
/// list and are merged into the event order by [`DesNoc::run_events`].  That
/// keeps the event heap at the size of the in-flight population (tens of
/// packets) instead of the whole batch (thousands), which is where a
/// binary-heap DES spends its time.
#[derive(Debug, Clone, Copy)]
struct Arrive {
    packet: usize,
    node: NodeId,
}

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
#[derive(Debug)]
pub struct DesNoc {
    config: NocConfig,
    now: Cycle,
    /// Latest delivery seen — the denominator of the utilisation figures.
    horizon: Cycle,
    queue: EventQueue<Arrive>,
    packets: Vec<PacketState>,
    /// Packets injected but not yet granted their source's injection port:
    /// `(injection cycle, packet index)`, in call order.  Sorted stably by
    /// cycle at drain time, which reproduces the exact `(time, seq)` order a
    /// per-packet heap event would give — injections are always scheduled
    /// before the drain starts, so at equal cycles they process ahead of
    /// every arrival, and among themselves in call order.
    pending: Vec<(Cycle, usize)>,
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
            queue: EventQueue::new(),
            packets: Vec::new(),
            pending: Vec::new(),
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

    /// Schedules one packet for injection at cycle `at`, recording its
    /// traffic, and returns its index within the current batch.
    ///
    /// Nothing moves until [`DesNoc::drain`] runs the event queue.  Drain
    /// the batch before the next [`DesNoc::send`]: a send reserves its
    /// route as if nothing else were in flight, so calling it on an
    /// undrained batch panics.
    pub fn inject_at(
        &mut self,
        at: Cycle,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
        payload_bytes: u64,
    ) -> usize {
        let hops = self.config.topology.hops(from, to);
        let (vc, flits) = self.admit(class, payload_bytes, hops);
        let id = self.packets.len();
        self.packets.push(PacketState {
            src: from,
            dst: to,
            vc,
            flits,
            injected_at: at,
            delivered_at: None,
        });
        self.pending.push((at, id));
        id
    }

    /// Records one packet's traffic and returns its virtual channel and
    /// length in flits.
    #[inline]
    fn admit(&mut self, class: MessageClass, payload_bytes: u64, hops: u64) -> (usize, u64) {
        let kind = PacketKind::for_payload(payload_bytes);
        self.traffic.record(class, kind, hops.max(1));
        (
            VirtualChannel::for_packet(class, kind).index(),
            kind.flits(),
        )
    }

    /// Processes every pending injection and in-flight arrival in global
    /// `(cycle, schedule order)` order until the network is empty.
    fn run_events(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        // A stable sort keeps call order among same-cycle injections — the
        // FIFO tie-break the event queue would apply.
        pending.sort_by_key(|&(at, _)| at);
        let mut next = 0;
        loop {
            // Injections were scheduled before any arrival of this drain,
            // so at equal cycles the injection goes first.
            let take_inject = match (pending.get(next), self.queue.peek_time()) {
                (Some(&(at, _)), Some(arrive)) => at <= arrive,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_inject {
                let (at, packet) = pending[next];
                next += 1;
                let p = self.packets[packet];
                let start = self.claim_injection(at, p.src, p.vc, p.flits);
                self.queue.schedule(
                    start,
                    Arrive {
                        packet,
                        node: p.src,
                    },
                );
            } else {
                let (when, event) = self.queue.pop().expect("peeked");
                self.step(when, event);
            }
        }
        pending.clear();
        self.pending = pending;
    }

    /// Runs the event queue until every in-flight packet is delivered,
    /// folds the batch into the cumulative statistics, and returns how many
    /// packets were delivered.
    pub fn drain(&mut self) -> u64 {
        self.run_events();
        let batch = self.packets.len() as u64;
        for p in self.packets.drain(..) {
            let delivered = p
                .delivered_at
                .expect("drained queue leaves no packet in flight");
            self.latency.record((delivered - p.injected_at).as_f64());
        }
        self.delivered += batch;
        batch
    }

    /// One hop-level event of the batch path: the packet's head flit has
    /// reached `node`.
    fn step(&mut self, when: Cycle, Arrive { packet, node }: Arrive) {
        let p = self.packets[packet];
        match self.links.next_toward(node, p.dst) {
            None => {
                let delivered = self.claim_ejection(when, node, node == p.src, p.vc, p.flits);
                self.packets[packet].delivered_at = Some(delivered);
            }
            Some((next, link)) => {
                let arrive = self.claim_link(when, link, p.vc, p.flits);
                self.queue.schedule(arrive, Arrive { packet, node: next });
            }
        }
    }

    // ------------------------------------------------------- timing rules
    //
    // Both paths move a packet through exactly these three claims; only the
    // order they are called in differs.

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

    /// Measured utilisation of every directed link (index `node × 4 +
    /// direction`; links outside the mesh stay at zero).
    pub fn link_utilizations(&self) -> Vec<f64> {
        self.links.utilizations(self.horizon).collect()
    }

    /// Cumulative busy cycles of every directed link (same indexing as
    /// [`DesNoc::link_utilizations`]) — the counter the trace sampler
    /// differentiates into per-link utilisation over time windows.
    pub fn link_busy_cycles(&self) -> Vec<u64> {
        self.links.busy_cycles_per_link().collect()
    }

    /// Cycles packets spent queued at each node's ejection port — the
    /// per-home-node pressure figure for filterDir hotspot analysis.
    pub fn eject_wait_cycles(&self) -> &[u64] {
        &self.eject_wait
    }

    /// Cycles packets spent queued at each node's injection port.
    pub fn inject_wait_cycles(&self) -> &[u64] {
        &self.inject_wait
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

    /// [`DesNoc::home_queue_depths`] at the engine's current cycle, as a
    /// fresh vector (the cold-path convenience form).
    pub fn home_queue_depths_now(&self) -> Vec<u64> {
        let mut depths = Vec::new();
        self.home_queue_depths(self.now, &mut depths);
        depths
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

    /// Running min/mean/max of the delivered packets' latencies.
    pub fn latency_stat(&self) -> RunningStat {
        self.latency
    }

    /// The latest delivery cycle observed (the utilisation denominator).
    pub fn horizon(&self) -> Cycle {
        self.horizon
    }
}

impl Clone for DesNoc {
    /// Clones the network state between batches.
    ///
    /// The event queue is always empty then (every public entry point drains
    /// it before returning), so the clone starts from a fresh queue.
    fn clone(&self) -> Self {
        debug_assert!(
            self.queue.is_empty() && self.pending.is_empty(),
            "clone with packets in flight"
        );
        DesNoc {
            config: self.config,
            now: self.now,
            horizon: self.horizon,
            queue: EventQueue::new(),
            packets: self.packets.clone(),
            pending: Vec::new(),
            links: self.links.clone(),
            inject_free: self.inject_free.clone(),
            eject_free: self.eject_free.clone(),
            inject_wait: self.inject_wait.clone(),
            eject_wait: self.eject_wait.clone(),
            delivered: self.delivered,
            latency: self.latency,
            traffic: self.traffic.clone(),
        }
    }
}

impl DesNoc {
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

    /// Injects one packet at the current cycle and reserves its whole XY
    /// route — injection port, the X leg's links, the Y leg's links,
    /// ejection port — in one pass, returning its latency.
    ///
    /// # Panics
    ///
    /// Panics if an [`DesNoc::inject_at`] batch is still undrained: the
    /// route is reserved as if nothing else were in flight.
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
        payload_bytes: u64,
    ) -> Cycle {
        assert!(
            self.packets.is_empty(),
            "DesNoc::send with an undrained inject_at batch; call drain() first"
        );
        let legs = self.links.xy_legs(from, to);
        let hops = legs[0].count + legs[1].count;
        let (vc, flits) = self.admit(class, payload_bytes, hops);
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

    /// Latency of a packet without recording traffic: the zero-load
    /// latency, since an unsent packet occupies no links.
    pub fn latency(&self, from: NodeId, to: NodeId, payload_bytes: u64) -> Cycle {
        self.config.zero_load_latency(from, to, payload_bytes)
    }

    /// Read access to the accumulated traffic.
    pub fn traffic(&self) -> &TrafficAccountant {
        &self.traffic
    }

    /// Exports the traffic counters and the per-link and per-node figures.
    pub fn export_stats(&self, stats: &mut StatRegistry) {
        self.traffic.export(stats);
        stats.set_value("noc.utilization", self.max_link_utilization());
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
        let depths = noc.home_queue_depths_now();
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
    fn convenience_snapshot_is_a_thin_wrapper_over_the_scratch_form() {
        // `home_queue_depths_now` must never drift from the scratch-buffer
        // path it wraps: both forms read the same `eject_free` books at the
        // same cycle, so the depths are pinned identical — mid-burst (with
        // real backlog) and after advancing the engine's clock.
        let mut noc = des(16);
        for src in [0usize, 1, 2, 3, 6, 9, 12, 15] {
            let _ = noc.send(NodeId::new(src), NodeId::new(5), MessageClass::Read, 64);
            let _ = noc.send(NodeId::new(src), NodeId::new(10), MessageClass::Write, 8);
        }
        let mut scratch = vec![0xdead_beef; 3];
        noc.home_queue_depths(noc.now(), &mut scratch);
        assert_eq!(noc.home_queue_depths_now(), scratch);
        assert!(scratch.iter().any(|&d| d > 0), "the burst left a backlog");

        noc.advance_to(noc.now() + Cycle::new(7));
        noc.home_queue_depths(noc.now(), &mut scratch);
        assert_eq!(noc.home_queue_depths_now(), scratch, "after advancing");
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
        assert!(noc.latency_stat().mean() > 0.0);
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
    fn batch_injection_interleaves_deterministically() {
        let run = || {
            let mut noc = des(16);
            for i in 0..40u64 {
                let from = NodeId::new((i % 16) as usize);
                let to = NodeId::new(((i * 7 + 3) % 16) as usize);
                noc.inject_at(
                    Cycle::new(i / 4),
                    from,
                    to,
                    MessageClass::Read,
                    8 + 56 * (i % 2),
                );
            }
            let delivered = noc.drain();
            (
                delivered,
                noc.latency_stat().sum(),
                noc.max_link_utilization(),
            )
        };
        assert_eq!(run(), run());
        assert_eq!(run().0, 40);
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

    #[test]
    fn clone_preserves_state_with_a_fresh_queue() {
        let mut noc = des(16);
        let _ = noc.send(NodeId::new(0), NodeId::new(15), MessageClass::Read, 64);
        let copy = noc.clone();
        assert_eq!(copy.delivered(), noc.delivered());
        assert_eq!(copy.max_link_utilization(), noc.max_link_utilization());
    }

    #[test]
    #[should_panic(expected = "undrained inject_at batch")]
    fn send_on_an_undrained_batch_panics() {
        let mut noc = des(16);
        noc.inject_at(
            Cycle::ZERO,
            NodeId::new(0),
            NodeId::new(5),
            MessageClass::Read,
            8,
        );
        let _ = noc.send(NodeId::new(1), NodeId::new(5), MessageClass::Read, 8);
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
                noc.inject_wait_cycles().to_vec(),
                noc.eject_wait_cycles().to_vec(),
                noc.latency_stat(),
                noc.horizon(),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The one-pass route walk of `send` and the batch event loop
            /// (`inject_at` at the current cycle, then `drain`) are the same
            /// timing model: after any history of earlier sends they agree
            /// on the packet's latency and leave identical state behind.
            #[test]
            fn send_matches_a_one_packet_batch(
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
                let mut batch = noc.clone();

                let walked = noc.send(from, to, class, bytes);
                let id = batch.inject_at(batch.now(), from, to, class, bytes);
                batch.run_events();
                let queued = batch.packets[id].delivered_at.expect("delivered") - batch.now();
                prop_assert_eq!(batch.drain(), 1);

                prop_assert_eq!(walked, queued, "{}x{} {}->{}", cols, rows, from, to);
                prop_assert_eq!(observe(&noc), observe(&batch));
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
        // set_utilization is a no-op under DES; utilization() is measured.
        noc.set_utilization(0.9);
        assert!(noc.utilization() < 0.9);
    }
}
