//! The common surface both network models expose.
//!
//! [`NocBackend`] is what the rest of the simulator needs from an
//! interconnect: send a packet between two tiles and learn its latency,
//! account the traffic, and export statistics.  Two implementations exist —
//! the closed-form [`AnalyticNoc`](crate::network::AnalyticNoc) and the
//! discrete-event [`DesNoc`](crate::des::DesNoc) — and the
//! [`Noc`](crate::Noc) facade dispatches between them according to
//! [`NocModel`](crate::NocModel), so every experiment can run under either
//! model without code changes.

use simkernel::{Cycle, NodeId, StatRegistry};

use crate::network::NocConfig;
use crate::packet::MessageClass;
use crate::topology::MeshTopology;
use crate::traffic::TrafficAccountant;

/// A network model: latency computation plus traffic accounting.
pub trait NocBackend {
    /// The configuration in use.
    fn config(&self) -> &NocConfig;

    /// The mesh topology.
    fn topology(&self) -> &MeshTopology {
        &self.config().topology
    }

    /// Advances the model's notion of the current cycle.
    ///
    /// The discrete-event backend injects subsequent packets no earlier than
    /// this cycle; the analytic backend is memoryless and ignores it.  Time
    /// only moves forward: passing an earlier cycle is a caller bug, which
    /// the discrete-event backend asserts in debug builds (and ignores in
    /// release builds).
    fn advance_to(&mut self, now: Cycle);

    /// Sends one packet and returns its latency, recording the traffic.
    ///
    /// `payload_bytes` chooses between control packets (< 32 bytes: requests,
    /// acks, invalidations) and data packets (a cache line).
    fn send(&mut self, from: NodeId, to: NodeId, class: MessageClass, payload_bytes: u64) -> Cycle;

    /// Latency of a packet between two nodes *without* recording traffic
    /// or disturbing any queue state.
    ///
    /// Useful for "ideal" oracle models that must not perturb the network.
    /// The analytic backend includes its utilisation-driven contention term;
    /// the discrete-event backend answers with the zero-load latency, since
    /// an unsent packet occupies no links.
    fn latency(&self, from: NodeId, to: NodeId, payload_bytes: u64) -> Cycle;

    /// Read access to the accumulated traffic.
    fn traffic(&self) -> &TrafficAccountant;

    /// Drains the accumulated traffic, leaving the accountant empty.
    fn take_traffic(&mut self) -> TrafficAccountant;

    /// Exports the backend's counters into a [`StatRegistry`].
    fn export_stats(&self, stats: &mut StatRegistry);

    /// Sends a request/response pair and returns the round-trip latency.
    fn round_trip(
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
    fn broadcast_collect(
        &mut self,
        from: NodeId,
        class: MessageClass,
        payload_bytes: u64,
    ) -> Cycle {
        let nodes = self.topology().nodes();
        let mut worst = Cycle::ZERO;
        for i in 0..nodes {
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
}

/// Size of the control response collected by a broadcast.
pub(crate) const CONTROL_RESPONSE_BYTES: u64 = 8;
