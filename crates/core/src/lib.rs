//! # ocin-core — the on-chip interconnection network
//!
//! This crate implements the network proposed by Dally & Towles in *"Route
//! Packets, Not Wires: On-Chip Interconnection Networks"* (DAC 2001): a
//! flit-level, cycle-accurate model of a tiled chip whose top-level modules
//! communicate only by sending packets over a structured network.
//!
//! The baseline network matches the paper's Section 2 sketch:
//!
//! * a 4×4 **folded 2-D torus** of 3mm tiles (rows/columns cyclically
//!   connected in the order 0, 2, 3, 1),
//! * a **reliable datagram tile interface** with 256-bit flits, a
//!   logarithmic size field, an 8-bit virtual-channel mask, a 16-bit
//!   turn-encoded source route, and per-VC ready (credit) signals,
//! * **virtual-channel routers** with five input and five output
//!   controllers, 8 VCs × 4-flit input buffers, a single staging flit per
//!   input-port connection at every output controller, and credits
//!   piggybacked on reverse links,
//! * **cyclic reservation registers** that give pre-scheduled (static)
//!   traffic contention-free slots while dynamic traffic uses the rest,
//! * **spare-bit steering** to route around faulty link wires.
//!
//! The crate also implements the alternatives the paper discusses as the
//! design space (Section 3): a mesh topology for the power comparison, and
//! dropping and deflection (misrouting) flow control for the buffer-area
//! comparison.
//!
//! ## Quick start
//!
//! ```
//! use ocin_core::{NetworkConfig, TopologySpec, Network, PacketSpec, ServiceClass};
//!
//! # fn main() -> Result<(), ocin_core::Error> {
//! // The paper's baseline: a 4x4 folded torus with 8 VCs x 4-flit buffers.
//! let cfg = NetworkConfig::paper_baseline();
//! let mut net = Network::new(cfg)?;
//!
//! // Send one 256-bit datagram from tile 0 to tile 10.
//! let spec = PacketSpec::new(0.into(), 10.into())
//!     .payload_bits(256)
//!     .class(ServiceClass::Bulk);
//! net.inject(&spec)?;
//!
//! // Step the network until the packet is delivered.
//! let mut delivered = Vec::new();
//! for _ in 0..100 {
//!     net.step();
//!     delivered.extend(net.drain_delivered(10.into()));
//! }
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].src, 0.into());
//! # Ok(())
//! # }
//! ```

pub mod bus;
pub mod config;
pub mod ecc;
pub mod error;
pub mod expand;
pub mod fault;
pub mod flit;
pub mod ids;
pub mod interface;
pub mod journey;
pub mod network;
pub mod probe;
pub mod reservation;
pub mod route;
pub mod router;
pub mod shard;
pub mod telemetry;
pub mod topology;
mod util;

pub use bus::{BusPacket, BusStats, SharedBus};
pub use config::{
    FlowControl, LinkProtection, NetworkConfig, ReservationPolicy, RoutingAlg, TopologySpec, VcPlan,
};
pub use ecc::EccOutcome;
pub use error::Error;
pub use expand::RouteState;
pub use fault::{FaultKind, LinkFault, SteeredLink};
pub use flit::{Flit, FlitKind, FlitMeta, Payload, ServiceClass, SizeCode, VcMask};
pub use ids::{Coord, Cycle, Direction, FlowId, NodeId, PacketId, Port, VcId};
pub use interface::{DeliveredPacket, TileInterface};
pub use journey::{
    DecompositionReport, HopRecord, JourneyCollector, LatencyBreakdown, LinkStall, PacketJourney,
    StageConstants, StageSums,
};
pub use network::{EnergyCounters, LinkLoad, Network, NetworkStats, PacketSpec};
pub use probe::{
    Event, EventKind, EventTrace, MetricsTotals, NetworkMetrics, NetworkProbe, NoProbe,
    PairLatency, PairTable, Probe, ProbeConfig, ProbeEvent, RouterProbe,
};
pub use reservation::{ReservationError, ReservationTable, StaticFlowSpec};
pub use route::{RouteError, SourceRoute, Turn};
pub use shard::{
    replay_logs, BoundaryMsg, CellEnergySnapshot, LogEvent, LogProbe, PhasedProbe, ShardHandle,
};
pub use telemetry::{LinkSpan, QuantileHistogram, TelemetryCollector, TelemetryReport, WindowRow};
pub use topology::{DirVec, FoldedTorus2D, Mesh2D, Ring, Topology};
