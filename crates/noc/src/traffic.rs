//! Per-class traffic accounting.

use std::fmt;

use serde::{Deserialize, Serialize};
use simkernel::StatRegistry;

use crate::packet::{MessageClass, PacketKind};

/// Accumulates packet, flit and hop counts per [`MessageClass`].
///
/// The paper reports NoC traffic as packet counts split into six groups
/// (Figure 10); the energy model additionally needs hop-weighted flit counts
/// because router and link energy scale with how far each flit travels.
///
/// # Example
///
/// ```
/// use noc::{MessageClass, PacketKind, TrafficAccountant};
///
/// let mut t = TrafficAccountant::new();
/// t.record(MessageClass::Read, PacketKind::Control, 3);
/// t.record(MessageClass::Read, PacketKind::Data, 3);
/// assert_eq!(t.packets(MessageClass::Read), 2);
/// assert_eq!(t.total_packets(), 2);
/// assert!(t.flit_hops(MessageClass::Read) > 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficAccountant {
    packets: [u64; 6],
    flits: [u64; 6],
    flit_hops: [u64; 6],
    bytes: [u64; 6],
}

impl TrafficAccountant {
    /// Creates an empty accountant.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one packet of the given class travelling `hops` hops.
    pub fn record(&mut self, class: MessageClass, kind: PacketKind, hops: u64) {
        let i = class.index();
        self.packets[i] += 1;
        self.flits[i] += kind.flits();
        self.flit_hops[i] += kind.flits() * hops.max(1);
        self.bytes[i] += kind.bytes();
    }

    /// Number of packets recorded for a class.
    pub fn packets(&self, class: MessageClass) -> u64 {
        self.packets[class.index()]
    }

    /// Number of flits recorded for a class.
    pub fn flits(&self, class: MessageClass) -> u64 {
        self.flits[class.index()]
    }

    /// Hop-weighted flit count for a class (energy proxy).
    pub fn flit_hops(&self, class: MessageClass) -> u64 {
        self.flit_hops[class.index()]
    }

    /// Bytes injected for a class.
    pub fn bytes(&self, class: MessageClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Total packets over all classes.
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Total flits over all classes.
    pub fn total_flits(&self) -> u64 {
        self.flits.iter().sum()
    }

    /// Total hop-weighted flits over all classes.
    pub fn total_flit_hops(&self) -> u64 {
        self.flit_hops.iter().sum()
    }

    /// Merges the counts of another accountant into this one.
    pub fn merge(&mut self, other: &TrafficAccountant) {
        for i in 0..6 {
            self.packets[i] += other.packets[i];
            self.flits[i] += other.flits[i];
            self.flit_hops[i] += other.flit_hops[i];
            self.bytes[i] += other.bytes[i];
        }
    }

    /// Exports the counts into a [`StatRegistry`] under `noc.<class>.*` names.
    pub fn export(&self, stats: &mut StatRegistry) {
        for class in MessageClass::ALL {
            let i = class.index();
            let label = class.id();
            stats.add_count(&format!("noc.{label}.packets"), self.packets[i]);
            stats.add_count(&format!("noc.{label}.flits"), self.flits[i]);
            stats.add_count(&format!("noc.{label}.flit_hops"), self.flit_hops[i]);
        }
        stats.add_count("noc.total.packets", self.total_packets());
        stats.add_count("noc.total.flits", self.total_flits());
        stats.add_count("noc.total.flit_hops", self.total_flit_hops());
    }

    /// Per-class packet counts in [`MessageClass::ALL`] order.
    pub fn packets_by_class(&self) -> [u64; 6] {
        self.packets
    }

    /// Per-class flit counts in [`MessageClass::ALL`] order.
    pub fn flits_by_class(&self) -> [u64; 6] {
        self.flits
    }

    /// The complete internal state as `[packets, flits, flit_hops, bytes]`
    /// rows (each in [`MessageClass::ALL`] order), for serialization.
    pub fn snapshot(&self) -> [[u64; 6]; 4] {
        [self.packets, self.flits, self.flit_hops, self.bytes]
    }

    /// Reconstructs an accountant from a [`TrafficAccountant::snapshot`].
    pub fn from_snapshot(snapshot: [[u64; 6]; 4]) -> Self {
        let [packets, flits, flit_hops, bytes] = snapshot;
        TrafficAccountant {
            packets,
            flits,
            flit_hops,
            bytes,
        }
    }
}

impl fmt::Display for TrafficAccountant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for class in MessageClass::ALL {
            writeln!(
                f,
                "{:<8} packets={:>12} flits={:>12} flit·hops={:>14}",
                class.label(),
                self.packets(class),
                self.flits(class),
                self.flit_hops(class)
            )?;
        }
        writeln!(f, "total    packets={:>12}", self.total_packets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_class() {
        let mut t = TrafficAccountant::new();
        t.record(MessageClass::Dma, PacketKind::Data, 4);
        t.record(MessageClass::Dma, PacketKind::Control, 4);
        t.record(MessageClass::CohProt, PacketKind::Control, 2);
        assert_eq!(t.packets(MessageClass::Dma), 2);
        assert_eq!(t.packets(MessageClass::CohProt), 1);
        assert_eq!(t.packets(MessageClass::Read), 0);
        assert_eq!(t.flits(MessageClass::Dma), 5 + 1);
        assert_eq!(t.flit_hops(MessageClass::Dma), 5 * 4 + 4);
        assert_eq!(t.bytes(MessageClass::Dma), 72 + 8);
        assert_eq!(t.total_packets(), 3);
        assert_eq!(t.total_flits(), 7);
    }

    #[test]
    fn zero_hop_counts_as_one() {
        // Local (same-tile) transfers still traverse the local router once.
        let mut t = TrafficAccountant::new();
        t.record(MessageClass::Read, PacketKind::Control, 0);
        assert_eq!(t.flit_hops(MessageClass::Read), 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = TrafficAccountant::new();
        a.record(MessageClass::Read, PacketKind::Data, 3);
        let mut b = TrafficAccountant::new();
        b.record(MessageClass::Read, PacketKind::Data, 5);
        b.record(MessageClass::Write, PacketKind::Control, 1);
        a.merge(&b);
        assert_eq!(a.packets(MessageClass::Read), 2);
        assert_eq!(a.packets(MessageClass::Write), 1);
        assert_eq!(a.total_flit_hops(), 5 * 3 + 5 * 5 + 1);
    }

    #[test]
    fn export_to_registry() {
        let mut t = TrafficAccountant::new();
        t.record(MessageClass::WbRepl, PacketKind::Data, 2);
        let mut stats = StatRegistry::new();
        t.export(&mut stats);
        assert_eq!(stats.count("noc.wb_repl.packets"), 1);
        assert_eq!(stats.count("noc.total.packets"), 1);
        assert_eq!(stats.count("noc.wb_repl.flits"), 5);
    }

    #[test]
    fn snapshot_round_trips_all_counts() {
        let mut t = TrafficAccountant::new();
        t.record(MessageClass::Dma, PacketKind::Data, 4);
        t.record(MessageClass::Read, PacketKind::Control, 2);
        let restored = TrafficAccountant::from_snapshot(t.snapshot());
        assert_eq!(restored, t);
        assert_eq!(restored.total_flit_hops(), t.total_flit_hops());
        assert_eq!(
            restored.bytes(MessageClass::Dma),
            t.bytes(MessageClass::Dma)
        );
    }

    #[test]
    fn display_contains_all_classes() {
        let t = TrafficAccountant::new();
        let s = t.to_string();
        for class in MessageClass::ALL {
            assert!(s.contains(class.label()));
        }
    }
}
