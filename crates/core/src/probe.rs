//! Cycle-accurate observability: per-router/per-port/per-VC counters, a
//! bounded event trace, and per-source→destination latency histograms.
//!
//! The paper's arguments (§3–§4) are about *where* cycles and energy go —
//! channel utilization, VC occupancy, blocking at the switch allocator —
//! so the simulator exposes those locations directly instead of only
//! end-to-end aggregates.
//!
//! The design has two halves:
//!
//! * [`Probe`] is the observation interface threaded through
//!   [`crate::network::Network`], the three router cores, and
//!   [`crate::interface::TileInterface`]. It has one method,
//!   [`Probe::record`], which takes one [`Event`]: the workspace's single
//!   list of the 14 things a cycle can report. [`NoProbe`] records
//!   nothing, so an uninstrumented simulation pays one empty call per
//!   event site. Probes observe and never mutate simulation state, which
//!   is what keeps a probed run bit-identical to an unprobed one.
//! * [`NetworkProbe`] is the concrete collector: per-router
//!   [`RouterProbe`] counter blocks, an optional bounded ring-buffer
//!   [`EventTrace`], and the run's one per-(src, dst) latency table of
//!   exact log-linear [`QuantileHistogram`]s. It updates its counters
//!   from each event, then forwards the event to the journey and
//!   telemetry collectors. A finished run is snapshotted
//!   into a [`NetworkMetrics`] value that serializes to deterministic
//!   JSON (`metrics.json`) and to the same versioned text convention the
//!   traffic traces use.
//!
//! ```
//! use ocin_core::{Network, NetworkConfig, PacketSpec};
//! use ocin_core::probe::{NetworkProbe, ProbeConfig};
//!
//! # fn main() -> Result<(), ocin_core::Error> {
//! let mut net = Network::new(NetworkConfig::paper_baseline())?;
//! net.attach_probe(NetworkProbe::for_network(
//!     net.config(),
//!     ProbeConfig::counters().with_trace(256),
//! ));
//! net.inject(&PacketSpec::new(0.into(), 10.into()))?;
//! net.drain(200);
//! let metrics = net.take_probe().expect("attached above").into_metrics(net.cycle());
//! assert_eq!(metrics.totals.packets_delivered, 1);
//! assert_eq!(metrics.totals.flits_forwarded, net.stats().energy.flit_hops);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;

use crate::config::NetworkConfig;
use crate::flit::ServiceClass;
use crate::ids::{Cycle, NodeId, PacketId, Port, VcId};
use crate::journey::{DecompositionReport, JourneyCollector, StageConstants};
use crate::telemetry::{
    QuantileHistogram, TelemetryCollector, TelemetryReport, PAIR_PRECISION_BITS,
};

/// One observable fact of a simulated cycle: the single vocabulary every
/// event source reports in and every collector consumes.
///
/// Each variant names the router or tile it happened at, which is what
/// lets [`crate::shard::replay_logs`] merge a sharded run's per-cell logs
/// back into the sequential stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A packet was accepted at its source tile port.
    Injected {
        src: NodeId,
        dst: NodeId,
        packet: PacketId,
    },
    /// A packet's head left the source queue into the network (the
    /// boundary where source-queue wait ends and network latency
    /// begins).
    Entered {
        node: NodeId,
        packet: PacketId,
        num_flits: u16,
        class: ServiceClass,
    },
    /// A packet's head flit arrived at router `node` through input
    /// `in_port` ([`Port::Tile`] at the source router).
    HeadArrived {
        node: NodeId,
        in_port: Port,
        packet: PacketId,
    },
    /// A flit launched from `node` through output `port` on channel `vc`.
    Forwarded {
        node: NodeId,
        port: Port,
        vc: VcId,
        packet: PacketId,
    },
    /// The waiting head flit of `packet` was granted output virtual
    /// channel `vc`.
    VcAllocated {
        node: NodeId,
        port: Port,
        vc: VcId,
        packet: PacketId,
    },
    /// The head flit of `packet` requested an output VC on `port` and
    /// none was free.
    AllocConflict {
        node: NodeId,
        port: Port,
        packet: PacketId,
    },
    /// A flit of `packet` was ready to traverse the switch but its
    /// output VC had no downstream credit.
    CreditStall {
        node: NodeId,
        port: Port,
        vc: VcId,
        packet: PacketId,
    },
    /// A flit moved through the crossbar into output staging for
    /// `port` on channel `vc`.
    SwitchTraversed {
        node: NodeId,
        port: Port,
        vc: VcId,
        packet: PacketId,
    },
    /// A higher-class flit took the link while the staged lower-class
    /// flit of `packet` sat suspended for the same output (the paper's
    /// §2.2 preemption). Fires once per bypassed flit per cycle.
    Preemption {
        node: NodeId,
        port: Port,
        packet: PacketId,
    },
    /// A packet's head flit reached its destination tile port (the tail
    /// is still serializing behind it).
    HeadEjected { node: NodeId, packet: PacketId },
    /// A packet was dropped at `node` (dropping flow control).
    Dropped { node: NodeId, packet: PacketId },
    /// A flit was deflected out a non-productive port at `node`.
    Misroute { node: NodeId, packet: PacketId },
    /// A packet's tail reached its destination tile port. `num_flits`
    /// is the packet's full flit count and `class` its service class,
    /// so collectors can attribute delivered *flits* and tail latency
    /// per class without tracking per-packet state themselves.
    Delivered {
        src: NodeId,
        dst: NodeId,
        packet: PacketId,
        network_latency: Cycle,
        num_flits: u16,
        class: ServiceClass,
    },
    /// Per-cycle sample of the flits buffered inside `node`'s router.
    BufferSample { node: NodeId, occupancy: usize },
}

impl Event {
    /// The node the event is keyed on: the source for
    /// [`Event::Injected`], the destination for [`Event::Delivered`],
    /// and `node` otherwise. Within one cycle phase the sequential engine
    /// emits events in ascending key order, and every event of one key
    /// comes from the single cell that owns that node.
    pub(crate) fn key(&self) -> NodeId {
        match *self {
            Event::Injected { src, .. } => src,
            Event::Delivered { dst, .. } => dst,
            Event::Entered { node, .. }
            | Event::HeadArrived { node, .. }
            | Event::Forwarded { node, .. }
            | Event::VcAllocated { node, .. }
            | Event::AllocConflict { node, .. }
            | Event::CreditStall { node, .. }
            | Event::SwitchTraversed { node, .. }
            | Event::Preemption { node, .. }
            | Event::HeadEjected { node, .. }
            | Event::Dropped { node, .. }
            | Event::Misroute { node, .. }
            | Event::BufferSample { node, .. } => node,
        }
    }
}

// Sharded probed runs hold every event until replay, so an event must
// stay within three words.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// The observation interface the network and routers report into: one
/// [`Event`] stream.
///
/// Probes must be *passive*: nothing the simulator does may depend on a
/// probe's state, so instrumented and uninstrumented runs of the same
/// seed stay bit-identical.
pub trait Probe {
    /// Observes `event`, which happened at cycle `now`.
    fn record(&mut self, now: Cycle, event: Event);
}

/// The always-disabled probe: every event is a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl Probe for NoProbe {
    fn record(&mut self, _now: Cycle, _event: Event) {}
}

/// What a [`NetworkProbe`] collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Ring-buffer capacity of the event trace (0 disables tracing;
    /// counters and histograms are always collected).
    pub trace_capacity: usize,
    /// Per-packet journey decomposition (see [`crate::journey`]), when
    /// set: the number of full journey records retained (the oldest are
    /// evicted first; stage aggregates are always complete).
    pub journeys: Option<usize>,
    /// Windowed time-series telemetry and exact quantile histograms
    /// (see [`crate::telemetry`]), when set: the window width in cycles.
    pub telemetry: Option<Cycle>,
}

impl ProbeConfig {
    /// Counters and histograms only, no event trace, no journeys.
    pub fn counters() -> ProbeConfig {
        ProbeConfig {
            trace_capacity: 0,
            journeys: None,
            telemetry: None,
        }
    }

    /// Adds a bounded event trace of at most `capacity` records (the
    /// oldest records are evicted first).
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> ProbeConfig {
        self.trace_capacity = capacity;
        self
    }

    /// Enables per-packet journey decomposition, retaining at most
    /// `capacity` full journey records (0 keeps only the stage
    /// aggregates, which are always complete).
    #[must_use]
    pub fn with_journeys(mut self, capacity: usize) -> ProbeConfig {
        self.journeys = Some(capacity);
        self
    }

    /// Enables windowed time-series telemetry and exact quantile
    /// histograms with windows of `window` cycles (0 selects the
    /// default width, [`crate::telemetry::DEFAULT_WINDOW`]).
    #[must_use]
    pub fn with_telemetry(mut self, window: Cycle) -> ProbeConfig {
        self.telemetry = Some(if window == 0 {
            crate::telemetry::DEFAULT_WINDOW
        } else {
            window
        });
        self
    }
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig::counters()
    }
}

/// Counter block for one output port of one router.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Flits launched through this port.
    pub flits_forwarded: u64,
    /// Flits launched per output VC (indexed by VC id).
    pub per_vc_forwarded: Vec<u64>,
    /// Output VCs granted to waiting head flits.
    pub vc_allocations: u64,
    /// VC requests that found every permitted output VC taken.
    pub alloc_conflicts: u64,
    /// Switch-traversal attempts blocked on a missing downstream credit.
    pub credit_stalls: u64,
    /// Link grants that bypassed a staged lower-class flit.
    pub preemptions: u64,
}

/// Counter block for one router.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterProbe {
    /// Per-output-port counters (indexed by [`Port::index`]).
    pub ports: Vec<PortCounters>,
    /// Sum over cycles of flits buffered in this router — divide by the
    /// simulated cycles for the mean buffer occupancy.
    pub occupancy_integral: u64,
    /// Packets dropped here (dropping flow control).
    pub packets_dropped: u64,
    /// Deflections assigned here (deflection flow control).
    pub misroutes: u64,
}

impl RouterProbe {
    fn new(num_vcs: usize) -> RouterProbe {
        RouterProbe {
            ports: (0..Port::COUNT)
                .map(|_| PortCounters {
                    per_vc_forwarded: vec![0; num_vcs],
                    ..PortCounters::default()
                })
                .collect(),
            ..RouterProbe::default()
        }
    }

    /// Total flits launched from this router (all ports).
    pub fn flits_forwarded(&self) -> u64 {
        self.ports.iter().map(|p| p.flits_forwarded).sum()
    }
}

/// The kind of a traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Packet accepted at its source tile port.
    Inject,
    /// Flit launched through a router output port.
    Hop,
    /// Output virtual channel granted.
    VcAlloc,
    /// Packet tail delivered to its destination tile.
    Deliver,
    /// Packet dropped (dropping flow control).
    Drop,
    /// Flit deflected (deflection flow control).
    Misroute,
    /// Head flit denied an output VC this cycle.
    AllocConflict,
    /// Flit blocked on a missing downstream credit this cycle.
    CreditStall,
    /// Staged flit bypassed by a higher class this cycle.
    Preempt,
}

impl EventKind {
    /// One-letter code used by the text serialization.
    pub const fn code(self) -> char {
        match self {
            EventKind::Inject => 'I',
            EventKind::Hop => 'H',
            EventKind::VcAlloc => 'V',
            EventKind::Deliver => 'D',
            EventKind::Drop => 'X',
            EventKind::Misroute => 'M',
            EventKind::AllocConflict => 'A',
            EventKind::CreditStall => 'C',
            EventKind::Preempt => 'P',
        }
    }

    /// Inverse of [`EventKind::code`].
    pub fn from_code(c: char) -> Option<EventKind> {
        Some(match c {
            'I' => EventKind::Inject,
            'H' => EventKind::Hop,
            'V' => EventKind::VcAlloc,
            'D' => EventKind::Deliver,
            'X' => EventKind::Drop,
            'M' => EventKind::Misroute,
            'A' => EventKind::AllocConflict,
            'C' => EventKind::CreditStall,
            'P' => EventKind::Preempt,
            _ => return None,
        })
    }
}

/// One traced event, cycle-stamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Cycle the event occurred.
    pub cycle: Cycle,
    /// Event kind.
    pub kind: EventKind,
    /// Router/tile where the event occurred (the *source* for
    /// [`EventKind::Inject`], the *destination* for
    /// [`EventKind::Deliver`]).
    pub node: u16,
    /// Output port index ([`Port::index`]); 0 where not meaningful.
    pub port: u8,
    /// Virtual channel; 0 where not meaningful.
    pub vc: u8,
    /// Packet the event belongs to; 0 where not meaningful.
    pub packet: u64,
}

impl ProbeEvent {
    /// The trace record of `event` at cycle `now`, or `None` for the
    /// events the trace does not keep (head arrivals and ejections,
    /// queue exits, switch traversals, and buffer samples).
    fn from_event(now: Cycle, event: &Event) -> Option<ProbeEvent> {
        // The node is the event's key; port and VC are 0 where the kind
        // has none.
        let (kind, port, vc, packet) = match *event {
            Event::Injected { packet, .. } => (EventKind::Inject, 0, 0, packet),
            Event::Forwarded {
                port, vc, packet, ..
            } => (EventKind::Hop, port.index(), vc.index(), packet),
            Event::VcAllocated {
                port, vc, packet, ..
            } => (EventKind::VcAlloc, port.index(), vc.index(), packet),
            Event::AllocConflict { port, packet, .. } => {
                (EventKind::AllocConflict, port.index(), 0, packet)
            }
            Event::CreditStall {
                port, vc, packet, ..
            } => (EventKind::CreditStall, port.index(), vc.index(), packet),
            Event::Preemption { port, packet, .. } => (EventKind::Preempt, port.index(), 0, packet),
            Event::Dropped { packet, .. } => (EventKind::Drop, 0, 0, packet),
            Event::Misroute { packet, .. } => (EventKind::Misroute, 0, 0, packet),
            Event::Delivered { packet, .. } => (EventKind::Deliver, Port::Tile.index(), 0, packet),
            Event::Entered { .. }
            | Event::HeadArrived { .. }
            | Event::SwitchTraversed { .. }
            | Event::HeadEjected { .. }
            | Event::BufferSample { .. } => return None,
        };
        Some(ProbeEvent {
            cycle: now,
            kind,
            node: event.key().index() as u16,
            port: port as u8,
            vc: vc as u8,
            packet: packet.0,
        })
    }
}

/// A bounded ring buffer of [`ProbeEvent`]s: pushing beyond capacity
/// evicts the oldest record, so memory stays constant however long the
/// simulation runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventTrace {
    capacity: usize,
    events: VecDeque<ProbeEvent>,
    /// Events observed in total, including those evicted.
    pub recorded: u64,
}

impl EventTrace {
    /// A trace holding at most `capacity` events.
    pub fn new(capacity: usize) -> EventTrace {
        EventTrace {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            recorded: 0,
        }
    }

    /// Appends an event, evicting the oldest when full. No-op when the
    /// capacity is 0.
    pub fn push(&mut self, event: ProbeEvent) {
        if self.capacity == 0 {
            return;
        }
        self.recorded += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ProbeEvent> {
        self.events.iter()
    }

    /// Retained event count (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Serializes to the versioned text form: a header line followed by
    /// one `cycle kind node port vc packet` line per event. Stable across
    /// releases; parse with [`EventTrace::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(24 + self.events.len() * 24);
        out.push_str("ocin-events v1\n");
        for e in &self.events {
            out.push_str(&format!(
                "{} {} {} {} {} {}\n",
                e.cycle,
                e.kind.code(),
                e.node,
                e.port,
                e.vc,
                e.packet
            ));
        }
        out
    }

    /// Parses the text form produced by [`EventTrace::to_text`]. The
    /// resulting trace's capacity equals its event count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line: a missing,
    /// unparsable or trailing field, an unknown kind, a node above
    /// `u16::MAX`, a port at or above [`Port::COUNT`], or a VC at or
    /// above 8 (the width of a [`crate::flit::VcMask`]).
    pub fn from_text(text: &str) -> Result<EventTrace, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("ocin-events v1") => {}
            other => return Err(format!("bad events header: {other:?}")),
        }
        let mut events = VecDeque::new();
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_ascii_whitespace();
            let mut next = |what: &str| {
                fields
                    .next()
                    .ok_or_else(|| format!("line {}: missing {what}", i + 2))
            };
            let parse_num = |s: &str| -> Result<u64, String> {
                s.parse()
                    .map_err(|_| format!("line {}: bad field {s:?}", i + 2))
            };
            let cycle = parse_num(next("cycle")?)?;
            let kind_field = next("kind")?;
            let kind = kind_field
                .chars()
                .next()
                .and_then(EventKind::from_code)
                .filter(|_| kind_field.len() == 1)
                .ok_or_else(|| format!("line {}: bad kind {kind_field:?}", i + 2))?;
            let mut bounded = |what: &str, limit: u64| -> Result<u64, String> {
                let v = parse_num(next(what)?)?;
                if v < limit {
                    Ok(v)
                } else {
                    Err(format!("line {}: {what} {v} out of range", i + 2))
                }
            };
            let node = bounded("node", 1 << u16::BITS)? as u16;
            let port = bounded("port", Port::COUNT as u64)? as u8;
            let vc = bounded("vc", u64::from(u8::BITS))? as u8;
            let packet = parse_num(next("packet")?)?;
            if let Some(extra) = fields.next() {
                return Err(format!("line {}: trailing field {extra:?}", i + 2));
            }
            events.push_back(ProbeEvent {
                cycle,
                kind,
                node,
                port,
                vc,
                packet,
            });
        }
        Ok(EventTrace {
            capacity: events.len(),
            recorded: events.len() as u64,
            events,
        })
    }
}

/// Values keyed by a (source, destination) node pair, index-addressed so
/// that every access is O(1) however many pairs a run touches.
///
/// `rows[src][dst]` holds one plus the index of the pair's value in
/// `values` (0 = absent); rows grow on demand. Iteration and
/// [`PairTable::into_sorted_vec`] walk the keys in ascending
/// `(src, dst)` order, which is what keeps every export built from a
/// pair table deterministic.
#[derive(Debug, Clone)]
pub struct PairTable<V> {
    rows: Vec<Vec<u32>>,
    values: Vec<V>,
}

impl<V> Default for PairTable<V> {
    fn default() -> Self {
        PairTable {
            rows: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<V> PairTable<V> {
    /// An empty table.
    pub fn new() -> PairTable<V> {
        PairTable::default()
    }

    /// The value of `(src, dst)`, inserting `init()` first if absent.
    ///
    /// # Panics
    ///
    /// Panics if the table would hold more than `u32::MAX` pairs.
    pub fn get_or_insert_with(
        &mut self,
        src: NodeId,
        dst: NodeId,
        init: impl FnOnce() -> V,
    ) -> &mut V {
        if self.rows.len() <= src.index() {
            self.rows.resize_with(src.index() + 1, Vec::new);
        }
        let row = &mut self.rows[src.index()];
        if row.len() <= dst.index() {
            row.resize(dst.index() + 1, 0);
        }
        let slot = &mut row[dst.index()];
        if *slot == 0 {
            self.values.push(init());
            *slot = u32::try_from(self.values.len()).expect("fewer than 2^32 pairs");
        }
        &mut self.values[*slot as usize - 1]
    }

    /// Each present key with its value's index, ascending by key.
    fn slots(&self) -> impl Iterator<Item = ((NodeId, NodeId), usize)> + '_ {
        self.rows.iter().enumerate().flat_map(|(src, row)| {
            row.iter().enumerate().filter_map(move |(dst, &slot)| {
                let key = (NodeId::new(src as u16), NodeId::new(dst as u16));
                slot.checked_sub(1).map(|i| (key, i as usize))
            })
        })
    }

    /// The pairs and their values, ascending by `(src, dst)`.
    pub fn iter(&self) -> impl Iterator<Item = ((NodeId, NodeId), &V)> + '_ {
        self.slots().map(|(key, i)| (key, &self.values[i]))
    }

    /// Consumes the table into its pairs, ascending by `(src, dst)`.
    pub fn into_sorted_vec(self) -> Vec<((NodeId, NodeId), V)> {
        let order: Vec<_> = self.slots().collect();
        let mut values: Vec<Option<V>> = self.values.into_iter().map(Some).collect();
        order
            .into_iter()
            // INVARIANT: every present slot indexes a distinct value.
            .map(|(key, i)| (key, values[i].take().expect("one slot per value")))
            .collect()
    }
}

impl<V: Default> PairTable<V> {
    /// The value of `(src, dst)`, inserting the default first if absent.
    pub fn get_or_default(&mut self, src: NodeId, dst: NodeId) -> &mut V {
        self.get_or_insert_with(src, dst, V::default)
    }
}

/// Tables are equal when they hold the same pairs with equal values,
/// whatever order the pairs were inserted in.
impl<V: PartialEq> PartialEq for PairTable<V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<V: Eq> Eq for PairTable<V> {}

/// The concrete probe: per-router counters, per-pair latency histograms,
/// and an optional bounded event trace.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProbe {
    cfg: ProbeConfig,
    /// Per-router counter blocks, indexed by node.
    pub routers: Vec<RouterProbe>,
    /// Network-latency histograms keyed by (source, destination), at
    /// [`PAIR_PRECISION_BITS`]: the run's one per-pair table. Each
    /// delivery updates its pair in O(1); [`NetworkProbe::into_metrics`]
    /// reads the pairs out in ascending key order, so every
    /// serialization of the same run is byte-identical.
    pub pair_latency: PairTable<QuantileHistogram>,
    /// The bounded event trace (empty unless configured).
    pub trace: EventTrace,
    /// Per-packet journey collector (present when
    /// [`ProbeConfig::with_journeys`] enabled it).
    pub journeys: Option<Box<JourneyCollector>>,
    /// Windowed time-series collector (present when
    /// [`ProbeConfig::with_telemetry`] enabled it).
    pub telemetry: Option<Box<TelemetryCollector>>,
    /// Packets accepted at source tile ports.
    pub packets_injected: u64,
    /// Packet tails delivered to destination tiles.
    pub packets_delivered: u64,
}

impl NetworkProbe {
    /// A probe for a network of `nodes` routers with `num_vcs` virtual
    /// channels each. Journey baselines assume the paper-baseline
    /// pipeline constants; use [`NetworkProbe::for_network`] to capture
    /// the real ones.
    pub fn new(nodes: usize, num_vcs: usize, cfg: ProbeConfig) -> NetworkProbe {
        NetworkProbe {
            cfg,
            routers: (0..nodes).map(|_| RouterProbe::new(num_vcs)).collect(),
            pair_latency: PairTable::new(),
            trace: EventTrace::new(cfg.trace_capacity),
            journeys: cfg.journeys.map(|capacity| {
                Box::new(JourneyCollector::new(
                    StageConstants::paper_baseline(),
                    num_vcs,
                    capacity,
                ))
            }),
            telemetry: cfg
                .telemetry
                .map(|window| Box::new(TelemetryCollector::new(window, nodes))),
            packets_injected: 0,
            packets_delivered: 0,
        }
    }

    /// A probe sized for `net_cfg`'s topology and VC plan, with journey
    /// baselines computed from its pipeline constants.
    pub fn for_network(net_cfg: &NetworkConfig, cfg: ProbeConfig) -> NetworkProbe {
        let mut probe = NetworkProbe::new(
            net_cfg.topology.build().num_nodes(),
            net_cfg.vc_plan.num_vcs,
            cfg,
        );
        if let Some(j) = probe.journeys.as_mut() {
            j.set_constants(StageConstants::for_network(net_cfg));
        }
        probe
    }

    /// The configuration this probe was built with.
    pub fn config(&self) -> ProbeConfig {
        self.cfg
    }

    /// Total flits forwarded network-wide (all routers, all ports).
    pub fn total_forwarded(&self) -> u64 {
        self.routers.iter().map(RouterProbe::flits_forwarded).sum()
    }

    /// Consumes the probe into a serializable [`NetworkMetrics`]
    /// snapshot; `cycles` is the simulated-cycle count the occupancy
    /// integral and utilizations are normalized by.
    pub fn into_metrics(self, cycles: Cycle) -> NetworkMetrics {
        NetworkMetrics::from_probe(self, cycles)
    }
}

impl Probe for NetworkProbe {
    fn record(&mut self, now: Cycle, event: Event) {
        let router = &mut self.routers[event.key().index()];
        match event {
            Event::Injected { .. } => self.packets_injected += 1,
            Event::Forwarded { port, vc, .. } => {
                let pc = &mut router.ports[port.index()];
                pc.flits_forwarded += 1;
                if let Some(slot) = pc.per_vc_forwarded.get_mut(vc.index()) {
                    *slot += 1;
                }
            }
            Event::VcAllocated { port, .. } => router.ports[port.index()].vc_allocations += 1,
            Event::AllocConflict { port, .. } => router.ports[port.index()].alloc_conflicts += 1,
            Event::CreditStall { port, .. } => router.ports[port.index()].credit_stalls += 1,
            Event::Preemption { port, .. } => router.ports[port.index()].preemptions += 1,
            Event::Dropped { .. } => router.packets_dropped += 1,
            Event::Misroute { .. } => router.misroutes += 1,
            Event::Delivered {
                src,
                dst,
                network_latency,
                ..
            } => {
                self.packets_delivered += 1;
                self.pair_latency
                    .get_or_insert_with(src, dst, || QuantileHistogram::new(PAIR_PRECISION_BITS))
                    .record(network_latency);
            }
            Event::BufferSample { occupancy, .. } => {
                router.occupancy_integral += occupancy as u64;
            }
            Event::Entered { .. }
            | Event::HeadArrived { .. }
            | Event::SwitchTraversed { .. }
            | Event::HeadEjected { .. } => {}
        }
        if let Some(e) = ProbeEvent::from_event(now, &event) {
            self.trace.push(e);
        }
        if let Some(j) = self.journeys.as_mut() {
            j.record(now, &event);
        }
        if let Some(t) = self.telemetry.as_mut() {
            t.record(now, &event);
        }
    }
}

/// Network-wide counter totals (sums of the per-router blocks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsTotals {
    /// Flits launched through router output ports.
    pub flits_forwarded: u64,
    /// Output VCs granted.
    pub vc_allocations: u64,
    /// VC requests denied for lack of a free output VC.
    pub alloc_conflicts: u64,
    /// Switch traversals blocked on downstream credits.
    pub credit_stalls: u64,
    /// Link grants that bypassed a staged lower-class flit.
    pub preemptions: u64,
    /// Packets dropped (dropping flow control).
    pub packets_dropped: u64,
    /// Deflections (deflection flow control).
    pub misroutes: u64,
    /// Packets accepted at source tile ports.
    pub packets_injected: u64,
    /// Packet tails delivered.
    pub packets_delivered: u64,
    /// Sum over cycles and routers of buffered flits.
    pub occupancy_integral: u64,
}

/// Latency summary for one (source, destination) pair, derived from its
/// [`QuantileHistogram`] (exact below `2^(PAIR_PRECISION_BITS + 1)`
/// cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairLatency {
    /// Source tile.
    pub src: u16,
    /// Destination tile.
    pub dst: u16,
    /// Packets measured.
    pub count: u64,
    /// Exact mean latency, cycles.
    pub mean: f64,
    /// Minimum latency, cycles.
    pub min: u64,
    /// Maximum latency, cycles.
    pub max: u64,
    /// Median, cycles.
    pub p50: u64,
    /// 99th percentile, cycles.
    pub p99: u64,
}

/// A finished run's observability snapshot: totals, per-router counter
/// blocks, per-pair latency summaries, and the event-trace size.
///
/// Serializes to deterministic JSON with [`NetworkMetrics::to_json`] —
/// same run, same bytes — which is what the CI golden-trace gate diffs.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkMetrics {
    /// Cycles the probed network simulated.
    pub cycles: Cycle,
    /// Router count.
    pub nodes: usize,
    /// Network-wide totals.
    pub totals: MetricsTotals,
    /// Per-router counter blocks, indexed by node.
    pub routers: Vec<RouterProbe>,
    /// Per-(src, dst) latency summaries, sorted by (src, dst).
    pub pairs: Vec<PairLatency>,
    /// Full per-pair histograms, sorted by (src, dst).
    pub pair_histograms: Vec<((NodeId, NodeId), QuantileHistogram)>,
    /// Events the trace observed in total (including evicted records).
    pub trace_recorded: u64,
    /// The retained event trace.
    pub trace: EventTrace,
    /// Per-packet latency decomposition (present when journeys were
    /// enabled; see [`crate::journey`]). Not part of
    /// [`NetworkMetrics::to_json`] — it has its own exporters.
    pub decomposition: Option<DecompositionReport>,
    /// Windowed time series, quantile histograms, and transient
    /// detections (present when telemetry was enabled; see
    /// [`crate::telemetry`]). Like the decomposition, not part of
    /// [`NetworkMetrics::to_json`] — it has its own exporters.
    pub telemetry: Option<TelemetryReport>,
}

impl NetworkMetrics {
    fn from_probe(probe: NetworkProbe, cycles: Cycle) -> NetworkMetrics {
        let mut totals = MetricsTotals {
            packets_injected: probe.packets_injected,
            packets_delivered: probe.packets_delivered,
            ..MetricsTotals::default()
        };
        for r in &probe.routers {
            for p in &r.ports {
                totals.flits_forwarded += p.flits_forwarded;
                totals.vc_allocations += p.vc_allocations;
                totals.alloc_conflicts += p.alloc_conflicts;
                totals.credit_stalls += p.credit_stalls;
                totals.preemptions += p.preemptions;
            }
            totals.packets_dropped += r.packets_dropped;
            totals.misroutes += r.misroutes;
            totals.occupancy_integral += r.occupancy_integral;
        }
        let pairs = probe
            .pair_latency
            .iter()
            .map(|((src, dst), h)| PairLatency {
                src: src.index() as u16,
                dst: dst.index() as u16,
                count: h.count,
                mean: h.mean(),
                min: if h.count == 0 { 0 } else { h.min },
                max: h.max,
                p50: h.percentile(50.0),
                p99: h.percentile(99.0),
            })
            .collect();
        NetworkMetrics {
            cycles,
            nodes: probe.routers.len(),
            totals,
            routers: probe.routers,
            pairs,
            pair_histograms: probe.pair_latency.into_sorted_vec(),
            trace_recorded: probe.trace.recorded,
            trace: probe.trace,
            decomposition: probe.journeys.map(|j| j.freeze()),
            telemetry: probe.telemetry.map(|t| t.freeze(cycles)),
        }
    }

    /// Latency histogram aggregated over every (src, dst) pair.
    pub fn aggregate_latency(&self) -> QuantileHistogram {
        let mut all = QuantileHistogram::new(PAIR_PRECISION_BITS);
        for (_, h) in &self.pair_histograms {
            all.merge(h);
        }
        all
    }

    /// Measured utilization (flits/cycle) of the link leaving `node`
    /// through direction-port index `port` (`None` if out of range).
    pub fn link_utilization(&self, node: usize, port: usize) -> Option<f64> {
        let cycles = self.cycles.max(1) as f64;
        self.routers
            .get(node)
            .and_then(|r| r.ports.get(port))
            .map(|p| p.flits_forwarded as f64 / cycles)
    }

    /// Serializes to deterministic JSON: fixed key order, sorted pairs,
    /// no floating-point noise (`mean` is printed with 6 decimals). Two
    /// identical runs serialize to identical bytes — the property the CI
    /// determinism gate checks.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(4096);
        let t = &self.totals;
        let _ = write!(
            s,
            "{{\n  \"version\": 1,\n  \"cycles\": {},\n  \"nodes\": {},\n  \"totals\": {{\
             \"flits_forwarded\": {}, \"vc_allocations\": {}, \"alloc_conflicts\": {}, \
             \"credit_stalls\": {}, \"preemptions\": {}, \"packets_dropped\": {}, \
             \"misroutes\": {}, \"packets_injected\": {}, \"packets_delivered\": {}, \
             \"occupancy_integral\": {}}},\n  \"routers\": [",
            self.cycles,
            self.nodes,
            t.flits_forwarded,
            t.vc_allocations,
            t.alloc_conflicts,
            t.credit_stalls,
            t.preemptions,
            t.packets_dropped,
            t.misroutes,
            t.packets_injected,
            t.packets_delivered,
            t.occupancy_integral,
        );
        for (i, r) in self.routers.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let per_port: Vec<String> = r
                .ports
                .iter()
                .map(|p| p.flits_forwarded.to_string())
                .collect();
            let per_vc = r.ports.iter().fold(
                vec![0u64; r.ports.first().map_or(0, |p| p.per_vc_forwarded.len())],
                |mut acc, p| {
                    for (a, b) in acc.iter_mut().zip(p.per_vc_forwarded.iter()) {
                        *a += b;
                    }
                    acc
                },
            );
            let per_vc: Vec<String> = per_vc.iter().map(u64::to_string).collect();
            let _ = write!(
                s,
                "{sep}\n    {{\"node\": {i}, \"forwarded_per_port\": [{}], \
                 \"forwarded_per_vc\": [{}], \"vc_allocations\": {}, \"alloc_conflicts\": {}, \
                 \"credit_stalls\": {}, \"preemptions\": {}, \"drops\": {}, \"misroutes\": {}, \
                 \"occupancy_integral\": {}}}",
                per_port.join(", "),
                per_vc.join(", "),
                r.ports.iter().map(|p| p.vc_allocations).sum::<u64>(),
                r.ports.iter().map(|p| p.alloc_conflicts).sum::<u64>(),
                r.ports.iter().map(|p| p.credit_stalls).sum::<u64>(),
                r.ports.iter().map(|p| p.preemptions).sum::<u64>(),
                r.packets_dropped,
                r.misroutes,
                r.occupancy_integral,
            );
        }
        s.push_str("\n  ],\n  \"pairs\": [");
        for (i, p) in self.pairs.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"src\": {}, \"dst\": {}, \"count\": {}, \"mean\": {:.6}, \
                 \"min\": {}, \"max\": {}, \"p50\": {}, \"p99\": {}}}",
                p.src, p.dst, p.count, p.mean, p.min, p.max, p.p50, p.p99,
            );
        }
        let _ = write!(
            s,
            "\n  ],\n  \"trace_recorded\": {},\n  \"trace_retained\": {}\n}}\n",
            self.trace_recorded,
            self.trace.len(),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(cycle: Cycle, kind: EventKind, packet: u64) -> ProbeEvent {
        ProbeEvent {
            cycle,
            kind,
            node: 3,
            port: 1,
            vc: 2,
            packet,
        }
    }

    #[test]
    fn no_probe_is_inert() {
        let mut p = NoProbe;
        for (now, e) in sample_events() {
            p.record(now, e);
        }
    }

    /// One event of every variant, in a plausible cycle order: node 0
    /// injects packet 1 to node 3, which is delivered; packet 9 is
    /// dropped at node 2 and deflected at node 3.
    fn sample_events() -> Vec<(Cycle, Event)> {
        let (src, dst, packet) = (NodeId::new(0), NodeId::new(3), PacketId(1));
        let (node, east, tile) = (src, Port::Dir(crate::ids::Direction::East), Port::Tile);
        let vc = VcId::new(2);
        let (n1, n2, other) = (NodeId::new(1), NodeId::new(2), PacketId(2));
        let class = ServiceClass::Bulk;
        let (in_port, num_flits) = (tile, 2);
        vec![
            (0, Event::Injected { src, dst, packet }),
            (
                0,
                Event::Entered {
                    node,
                    packet,
                    num_flits,
                    class,
                },
            ),
            (
                1,
                Event::HeadArrived {
                    node,
                    in_port,
                    packet,
                },
            ),
            (
                1,
                Event::VcAllocated {
                    node,
                    port: tile,
                    vc: VcId::new(0),
                    packet,
                },
            ),
            (
                1,
                Event::SwitchTraversed {
                    node,
                    port: east,
                    vc,
                    packet,
                },
            ),
            (
                1,
                Event::Forwarded {
                    node,
                    port: east,
                    vc,
                    packet,
                },
            ),
            (
                1,
                Event::AllocConflict {
                    node: n1,
                    port: tile,
                    packet: other,
                },
            ),
            (
                1,
                Event::CreditStall {
                    node: n1,
                    port: tile,
                    vc: VcId::new(0),
                    packet: other,
                },
            ),
            (
                1,
                Event::Preemption {
                    node: n2,
                    port: tile,
                    packet: other,
                },
            ),
            (
                2,
                Event::Forwarded {
                    node,
                    port: tile,
                    vc: VcId::new(0),
                    packet,
                },
            ),
            (
                3,
                Event::Dropped {
                    node: n2,
                    packet: PacketId(9),
                },
            ),
            (
                3,
                Event::Misroute {
                    node: dst,
                    packet: PacketId(9),
                },
            ),
            (8, Event::HeadEjected { node: dst, packet }),
            (
                9,
                Event::Delivered {
                    src,
                    dst,
                    packet,
                    network_latency: 8,
                    num_flits,
                    class,
                },
            ),
            (9, Event::BufferSample { node, occupancy: 4 }),
            (10, Event::BufferSample { node, occupancy: 2 }),
        ]
    }

    #[test]
    fn events_key_on_their_owning_node() {
        let keys: Vec<u16> = sample_events()
            .iter()
            .map(|(_, e)| e.key().index() as u16)
            .collect();
        // Injection keys on the source, delivery on the destination.
        assert_eq!(keys, [0, 0, 0, 0, 0, 0, 1, 1, 2, 0, 2, 3, 3, 3, 0, 0]);
    }

    /// The trace keeps nine of the fourteen event kinds, with the port
    /// and VC zeroed where the kind has none.
    #[test]
    fn trace_maps_the_nine_traced_kinds() {
        let traced: Vec<String> = sample_events()
            .iter()
            .filter_map(|(now, e)| ProbeEvent::from_event(*now, e))
            .map(|e| {
                format!(
                    "{} {} {} {} {} {}",
                    e.cycle,
                    e.kind.code(),
                    e.node,
                    e.port,
                    e.vc,
                    e.packet
                )
            })
            .collect();
        assert_eq!(
            traced,
            [
                "0 I 0 0 0 1",
                "1 V 0 4 0 1",
                "1 H 0 1 2 1",
                "1 A 1 4 0 2",
                "1 C 1 4 0 2",
                "1 P 2 4 0 2",
                "2 H 0 4 0 1",
                "3 X 2 0 0 9",
                "3 M 3 0 0 9",
                "9 D 3 4 0 1",
            ]
        );
    }

    #[test]
    fn event_ring_is_bounded_and_evicts_oldest() {
        let mut t = EventTrace::new(3);
        for i in 0..10 {
            t.push(event(i, EventKind::Hop, i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.recorded, 10);
        let cycles: Vec<Cycle> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
        // Capacity 0 records nothing.
        let mut z = EventTrace::new(0);
        z.push(event(0, EventKind::Hop, 0));
        assert!(z.is_empty());
        assert_eq!(z.recorded, 0);
    }

    #[test]
    fn event_text_round_trips() {
        let mut t = EventTrace::new(8);
        t.push(event(1, EventKind::Inject, 10));
        t.push(event(2, EventKind::Hop, 10));
        t.push(event(3, EventKind::VcAlloc, 0));
        t.push(event(9, EventKind::Deliver, 10));
        let text = t.to_text();
        assert!(text.starts_with("ocin-events v1\n"));
        let back = EventTrace::from_text(&text).unwrap();
        assert_eq!(
            back.events().copied().collect::<Vec<_>>(),
            t.events().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn malformed_event_text_is_rejected() {
        assert!(EventTrace::from_text("").is_err());
        assert!(EventTrace::from_text("nope\n").is_err());
        assert!(EventTrace::from_text("ocin-events v1\n1 Q 0 0 0 0\n").is_err());
        assert!(EventTrace::from_text("ocin-events v1\n1 H 0 0\n").is_err());
        assert!(EventTrace::from_text("ocin-events v1\n1 H x 0 0 0\n").is_err());
    }

    /// Out-of-range fields and trailing fields are rejected, not
    /// truncated or ignored.
    #[test]
    fn event_text_rejects_out_of_range_and_trailing_fields() {
        let parse = |line: &str| EventTrace::from_text(&format!("ocin-events v1\n{line}\n"));
        for bad in [
            "5 H 70000 300 9 1 extra",
            "5 H 70000 0 0 1",
            "5 H 65536 0 0 1",
            "5 H 3 5 0 1",
            "5 H 3 300 0 1",
            "5 H 3 1 8 1",
            "5 H 3 1 9 1",
            "5 H 3 1 2 1 extra",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = parse("5 H 70000 300 9 1 extra").unwrap_err();
        assert!(err.contains("node 70000 out of range"), "{err}");
        let err = parse("5 H 3 1 2 1 extra").unwrap_err();
        assert!(err.contains("trailing field"), "{err}");
        // The largest legal values still parse, unchanged.
        let t = parse("5 H 65535 4 7 1").expect("in range");
        let e = t.events().next().expect("one event");
        assert_eq!((e.node, e.port, e.vc, e.packet), (65_535, 4, 7, 1));
    }

    #[test]
    fn event_codes_round_trip() {
        for k in [
            EventKind::Inject,
            EventKind::Hop,
            EventKind::VcAlloc,
            EventKind::Deliver,
            EventKind::Drop,
            EventKind::Misroute,
            EventKind::AllocConflict,
            EventKind::CreditStall,
            EventKind::Preempt,
        ] {
            assert_eq!(EventKind::from_code(k.code()), Some(k));
        }
        assert_eq!(EventKind::from_code('Z'), None);
    }

    #[test]
    fn pair_table_walks_keys_in_ascending_order() {
        let keys = [(5u16, 1u16), (0, 9), (5, 0), (2, 2), (0, 3), (9, 9)];
        let mut a: PairTable<u64> = PairTable::new();
        for (i, &(s, d)) in keys.iter().enumerate() {
            *a.get_or_default(s.into(), d.into()) += i as u64 + 1;
        }
        *a.get_or_insert_with(0.into(), 9.into(), || unreachable!()) += 10;
        let want: Vec<((NodeId, NodeId), u64)> = [
            ((0, 3), 5),
            ((0, 9), 12),
            ((2, 2), 4),
            ((5, 0), 3),
            ((5, 1), 1),
            ((9, 9), 6),
        ]
        .iter()
        .map(|&((s, d), v)| ((s.into(), d.into()), v))
        .collect();
        let walked: Vec<_> = a.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(walked, want);
        // Equality ignores insertion order.
        let mut b: PairTable<u64> = PairTable::new();
        for &(k, v) in want.iter().rev() {
            *b.get_or_default(k.0, k.1) = v;
        }
        assert_eq!(a, b);
        assert_ne!(a, PairTable::new());
        assert_eq!(a.into_sorted_vec(), want);
    }

    #[test]
    fn probe_counters_accumulate() {
        let mut p = NetworkProbe::new(4, 8, ProbeConfig::counters().with_trace(16));
        for (now, e) in sample_events() {
            p.record(now, e);
        }

        assert_eq!(p.total_forwarded(), 2);
        let m = p.into_metrics(10);
        assert_eq!(m.totals.flits_forwarded, 2);
        assert_eq!(m.totals.vc_allocations, 1);
        assert_eq!(m.totals.alloc_conflicts, 1);
        assert_eq!(m.totals.credit_stalls, 1);
        assert_eq!(m.totals.preemptions, 1);
        assert_eq!(m.totals.packets_dropped, 1);
        assert_eq!(m.totals.misroutes, 1);
        assert_eq!(m.totals.packets_injected, 1);
        assert_eq!(m.totals.packets_delivered, 1);
        assert_eq!(m.totals.occupancy_integral, 6);
        assert_eq!(m.pairs.len(), 1);
        assert_eq!(m.pairs[0].count, 1);
        assert_eq!(m.pairs[0].mean, 8.0);
        // inject, 2 hops, vcalloc, conflict, stall, preempt, drop,
        // misroute, deliver — the stall kinds are traced (cycle-stamped)
        // like every other event.
        assert_eq!(m.trace.len(), 10);
        assert_eq!(m.link_utilization(0, 1), Some(0.1));
        assert_eq!(m.link_utilization(9, 0), None);
    }

    #[test]
    fn metrics_json_is_deterministic_and_structured() {
        let build = || {
            let mut p = NetworkProbe::new(2, 4, ProbeConfig::counters());
            let (src, dst, packet) = (NodeId::new(0), NodeId::new(1), PacketId(0));
            let (port, vc) = (Port::Tile, VcId::new(1));
            p.record(0, Event::Injected { src, dst, packet });
            p.record(
                1,
                Event::Forwarded {
                    node: src,
                    port,
                    vc,
                    packet,
                },
            );
            let class = ServiceClass::Bulk;
            let network_latency = 5;
            let num_flits = 1;
            p.record(
                5,
                Event::Delivered {
                    src,
                    dst,
                    packet,
                    network_latency,
                    num_flits,
                    class,
                },
            );
            p.into_metrics(6).to_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.starts_with("{\n  \"version\": 1"));
        assert!(a.contains("\"pairs\": ["));
        assert!(a.contains("\"mean\": 5.000000"));
        assert!(a.trim_end().ends_with('}'));
    }
}
