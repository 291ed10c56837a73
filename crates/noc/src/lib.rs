//! 2D-mesh network-on-chip model.
//!
//! The paper evaluates a 64-core manycore connected by a mesh with 1-cycle
//! links and 1-cycle routers (Table 1).  The NoC model in this crate provides
//! the three things the rest of the simulator needs from the interconnect:
//!
//! 1. **Latency** — how many cycles a message takes between two tiles, under
//!    one of two interchangeable backends ([`NocModel`]):
//!    * the **analytic** model: the zero-load latency, XY hop count times
//!      per-hop latency plus serialization, with no contention term;
//!    * the **discrete-event** model ([`des`]): every packet reserves its XY
//!      route over per-link, per-virtual-channel FIFOs with injection and
//!      ejection queues, so per-link utilisation and per-home-node queueing
//!      are measured instead of assumed.
//! 2. **Traffic accounting** — packet and flit counts per message class
//!    (instruction fetch, data read, data write, write-back/replacement, DMA
//!    and coherence-protocol traffic), which regenerates the paper's
//!    Figure 10.
//! 3. **Energy hooks** — hop-weighted flit counts that the energy model
//!    converts into router/link energy.
//!
//! # Example
//!
//! ```
//! use noc::{MeshTopology, MessageClass, Noc, NocConfig, NocModel};
//! use simkernel::NodeId;
//!
//! let mut noc = Noc::new(NocConfig::isca2015(64));
//! let lat = noc.send(NodeId::new(0), NodeId::new(63), MessageClass::Read, 8);
//! assert!(lat.as_u64() >= 14, "corner-to-corner on an 8x8 mesh is at least 14 hops");
//! assert_eq!(noc.traffic().packets(MessageClass::Read), 1);
//!
//! // The discrete-event backend answers the same question by simulation:
//! let mut des = Noc::new(NocConfig::isca2015(64).with_model(NocModel::DiscreteEvent));
//! assert_eq!(des.send(NodeId::new(0), NodeId::new(63), MessageClass::Read, 8), lat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod des;
pub mod network;
pub mod packet;
pub mod topology;
pub mod traffic;

pub use des::{run_synthetic, DesNoc, SyntheticReport, SyntheticTraffic};
pub use network::{AnalyticNoc, Noc, NocConfig, NocModel};
pub use packet::{
    MessageClass, PacketKind, VirtualChannel, CONTROL_PACKET_BYTES, DATA_PACKET_BYTES,
    NUM_VIRTUAL_CHANNELS,
};
pub use topology::MeshTopology;
pub use traffic::TrafficAccountant;
