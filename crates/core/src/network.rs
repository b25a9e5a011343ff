//! The complete on-chip network: routers, channels, tile interfaces,
//! reservation registers, and the fault model, advanced cycle by cycle.
//!
//! [`Network`] is fully deterministic: the same configuration, injections,
//! and seed produce bit-identical behaviour. All timing is synchronous;
//! channels are modelled as latency pipes (a flit launched at cycle *t*
//! arrives `channel_latency + router_delay` cycles later, and credits
//! travel back with `credit_latency`).
//!
//! Internally the network is one [`crate::shard`] cell owning every
//! router, interface, pipe and channel half, plus its activity sets and
//! calendars; [`Network::step`] steps it through
//! [`crate::ShardHandle::step_cycle`]'s phase sequence. Only the
//! windowed driver cuts it into more, through
//! [`Network::shard_handles`]; the next `step` merges them back.
//! Results are bit-identical at any cell count (the shard-equivalence
//! suite asserts it).

use crate::config::{FlowControl, LinkProtection, NetworkConfig};
use crate::error::Error;
use crate::expand::TierTable;
use crate::fault::{LinkFault, SteeredLink};
use crate::flit::{Payload, ServiceClass, FLIT_DATA_BITS};
use crate::ids::{Cycle, Direction, FlowId, NodeId, PacketId, Port};
use crate::interface::{DeliveredPacket, TileInterface};
use crate::probe::{NetworkProbe, NoProbe, Probe};
use crate::reservation::ReservationTable;
use crate::router::{DeflectionRouter, DroppingRouter, RouterCore, VcRouter};
use crate::shard::{
    build_cells, stream_seed, CellStats, GlobalState, NetShared, RxMeta, ShardCell, ShardHandle,
    TxMeta,
};
use crate::topology::Topology;
use crate::util::XorShift64;

/// Description of a packet to inject.
///
/// ```
/// use ocin_core::{PacketSpec, ServiceClass};
/// let spec = PacketSpec::new(0.into(), 5.into())
///     .payload_bits(512)            // two flits
///     .class(ServiceClass::Priority);
/// assert_eq!(spec.num_flits(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PacketSpec {
    /// Source tile.
    pub src: NodeId,
    /// Destination tile.
    pub dst: NodeId,
    /// Valid payload bits (flit count = ⌈bits / 256⌉).
    pub payload_bits: usize,
    /// Service class.
    pub class: ServiceClass,
    /// Optional payload contents, one entry per flit (defaults to a
    /// packet-id pattern).
    pub data: Option<Vec<Payload>>,
    /// Pre-scheduled flow this packet belongs to, if any.
    pub flow: Option<FlowId>,
}

impl PacketSpec {
    /// Creates a one-flit, 256-bit, bulk-class spec.
    pub fn new(src: NodeId, dst: NodeId) -> PacketSpec {
        PacketSpec {
            src,
            dst,
            payload_bits: FLIT_DATA_BITS,
            class: ServiceClass::Bulk,
            data: None,
            flow: None,
        }
    }

    /// Sets the payload size in bits.
    pub fn payload_bits(mut self, bits: usize) -> Self {
        self.payload_bits = bits;
        self
    }

    /// Sets the service class.
    pub fn class(mut self, class: ServiceClass) -> Self {
        self.class = class;
        self
    }

    /// Sets explicit payload data (one [`Payload`] per flit).
    pub fn data(mut self, data: Vec<Payload>) -> Self {
        self.data = Some(data);
        self
    }

    /// Marks the packet as belonging to a pre-scheduled flow.
    pub fn flow(mut self, flow: FlowId) -> Self {
        self.flow = Some(flow);
        self.class = ServiceClass::Reserved;
        self
    }

    /// Number of flits this spec produces.
    pub fn num_flits(&self) -> usize {
        self.payload_bits.max(1).div_ceil(FLIT_DATA_BITS)
    }
}

/// Per-link load statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLoad {
    /// Source router of the link.
    pub node: NodeId,
    /// Link direction.
    pub dir: Direction,
    /// Flits carried per cycle (0–1).
    pub utilization: f64,
    /// Total flits carried.
    pub flits: u64,
    /// Physical length in tile pitches.
    pub length_pitches: f64,
}

/// Raw energy event counters; `ocin-phys` converts them to joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyCounters {
    /// Router traversals (one per flit per router, including ejection).
    pub flit_hops: u64,
    /// Active bits summed over router traversals.
    pub hop_bits: u64,
    /// Flits carried over inter-tile links.
    pub link_flits: u64,
    /// Active bits × link length (in tile pitches) over all link
    /// traversals — the "wire distance traveled" of §3.1.
    pub link_bit_pitches: f64,
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetworkStats {
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Packets accepted for injection.
    pub packets_injected: u64,
    /// Flits that entered the network.
    pub flits_injected: u64,
    /// Packets fully delivered.
    pub packets_delivered: u64,
    /// Packets dropped by dropping flow control.
    pub packets_dropped: u64,
    /// Flits discarded by dropping flow control.
    pub flits_dropped: u64,
    /// Deflections (misroutes) under deflection flow control.
    pub deflections: u64,
    /// Single-bit link errors repaired by SEC-DED.
    pub ecc_corrections: u64,
    /// Multi-bit link errors SEC-DED detected but could not repair.
    pub ecc_uncorrectable: u64,
    /// Energy event counters.
    pub energy: EnergyCounters,
}

/// The paper's on-chip interconnection network.
///
/// See the [crate-level documentation](crate) for a usage example.
pub struct Network {
    shared: NetShared,
    cells: Vec<ShardCell>,
    cycle: Cycle,
    /// Attached observability collector; `None` costs only the check.
    probe: Option<Box<NetworkProbe>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.shared.topo.name())
            .field("cycle", &self.cycle)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds a network from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for invalid parameters and
    /// [`Error::Reservation`] if the static flows cannot all be admitted.
    pub fn new(cfg: NetworkConfig) -> Result<Network, Error> {
        cfg.validate()?;
        let topo = cfg.topology.build();
        let n = topo.num_nodes();
        let tiers = TierTable::new(&cfg.vc_plan, cfg.topology.has_wraparound());
        let seed = cfg.seed;

        // Transmit halves in the historical `topo.channels()` order
        // (ascending (src, dir)); receive halves re-sorted by
        // (dst, in_port) so each owning cell's halves are contiguous.
        let mut tx_meta = Vec::new();
        let mut ends: Vec<(NodeId, bool)> = Vec::new();
        for (node, dir) in topo.channels() {
            let dst = topo.neighbor(node, dir).expect("listed channel exists");
            ends.push((dst, topo.is_dateline(node, dir)));
            tx_meta.push(TxMeta {
                src: node,
                dir,
                length_pitches: topo.link_length_pitches(node, dir),
                rx: usize::MAX,
            });
        }
        let mut rx_order: Vec<usize> = (0..tx_meta.len()).collect();
        rx_order.sort_by_key(|&t| (ends[t].0.index(), tx_meta[t].dir.opposite().index()));
        let mut rx_meta = Vec::with_capacity(tx_meta.len());
        for (r, &t) in rx_order.iter().enumerate() {
            tx_meta[t].rx = r;
            rx_meta.push(RxMeta {
                dst: ends[t].0,
                in_port: Port::Dir(tx_meta[t].dir.opposite()),
                dateline: ends[t].1,
            });
        }

        let routers: Vec<RouterCore> = (0..n)
            .map(|i| {
                let node = NodeId::new(i as u16);
                match cfg.flow_control {
                    FlowControl::VirtualChannel => RouterCore::Vc(Box::new(VcRouter::new(
                        node,
                        cfg.vc_plan.num_vcs,
                        tiers,
                        cfg.buf_depth,
                        cfg.eject_capacity as u64,
                        cfg.channel_phits,
                    ))),
                    FlowControl::Dropping => RouterCore::Dropping(DroppingRouter::new(node)),
                    FlowControl::Deflection => RouterCore::Deflection(DeflectionRouter::new(node)),
                }
            })
            .collect();

        let credit_gated = cfg.flow_control == FlowControl::VirtualChannel;
        let interfaces = (0..n)
            .map(|i| {
                TileInterface::new(
                    NodeId::new(i as u16),
                    cfg.vc_plan.num_vcs,
                    cfg.inject_queue_flits,
                    cfg.buf_depth as u64,
                    credit_gated,
                )
            })
            .collect();

        let secded = cfg.link_protection == LinkProtection::Secded;
        // SEC-DED decode costs one extra cycle per link traversal, and a
        // serialized flit finishes arriving phits-1 cycles later.
        let flit_latency =
            cfg.channel_latency + cfg.router_delay + u64::from(secded) + (cfg.channel_phits - 1);
        let inject_latency = cfg.channel_latency + cfg.router_delay + (cfg.channel_phits - 1);

        let reservations = if cfg.static_flows.is_empty() {
            None
        } else {
            Some(ReservationTable::build(
                topo.as_ref(),
                cfg.reservation_period,
                flit_latency - (cfg.channel_phits - 1),
                flit_latency - (cfg.channel_phits - 1),
                &cfg.static_flows,
            )?)
        };

        let num_rx = rx_meta.len();
        let num_tx = tx_meta.len();
        let mut shared = NetShared {
            cfg,
            topo,
            tiers,
            reservations,
            transient_rate: 0.0,
            rx_meta,
            tx_meta,
            port_links: Vec::new(),
            node_starts: Vec::new(),
            rx_starts: Vec::new(),
            tx_starts: Vec::new(),
            cell_of_node: Vec::new(),
            flit_latency,
            inject_latency,
            secded,
        };
        shared.set_partition(1);

        let state = GlobalState {
            routers,
            interfaces,
            pipes: Vec::new(),
            rx_links: (0..num_rx)
                .map(|_| SteeredLink::new(FLIT_DATA_BITS, 1))
                .collect(),
            rx: Vec::new(),
            rx_rng: (0..num_rx)
                .map(|r| XorShift64::new(stream_seed(seed, 2, r as u64)))
                .collect(),
            tx: Vec::new(),
            tx_flits_carried: vec![0; num_tx],
            tx_bit_pitches: vec![0.0; num_tx],
            next_seq: vec![0; n],
            route_rng: (0..n)
                .map(|i| XorShift64::new(stream_seed(seed, 1, i as u64)))
                .collect(),
            stats: CellStats::default(),
        };
        let cells = build_cells(&shared, state, 0);
        Ok(Network {
            shared,
            cells,
            cycle: 0,
            probe: None,
        })
    }

    /// Re-cuts the network state into `shards` contiguous tile-region
    /// cells (clamped to `1..=num_nodes`). May be called at any cycle
    /// boundary, mid-run included: the component state is gathered in
    /// global order and re-split, and every cell's wake bookkeeping is
    /// rebuilt exactly, so behaviour is bit-identical at any cell count.
    fn set_shards(&mut self, shards: usize) {
        assert!(
            self.cells.iter().all(|c| c.outbox.is_empty()),
            "exchange boundary messages before re-sharding"
        );
        if shards.clamp(1, self.shared.topo.num_nodes().max(1)) == self.cells.len() {
            return;
        }
        let mut state = GlobalState::default();
        let next = self.cycle;
        for mut cell in self.cells.drain(..) {
            state.routers.append(&mut cell.routers);
            state.interfaces.append(&mut cell.interfaces);
            cell.pipes
                .pending_into(next, 2 * cell.node_base, &mut state.pipes);
            state.rx_links.append(&mut cell.rx_links);
            cell.rx.pending_into(next, cell.rx_base, &mut state.rx);
            state.rx_rng.append(&mut cell.rx_rng);
            cell.tx.pending_into(next, cell.tx_base, &mut state.tx);
            state.tx_flits_carried.append(&mut cell.tx_flits_carried);
            state.tx_bit_pitches.append(&mut cell.tx_bit_pitches);
            state.next_seq.append(&mut cell.next_seq);
            state.route_rng.append(&mut cell.route_rng);
            state.stats.add(cell.stats);
        }
        self.shared.set_partition(shards);
        self.cells = build_cells(&self.shared, state, self.cycle);
    }

    /// The conservative-synchronization window: how many cycles shards
    /// may step between boundary exchanges (the minimum channel flit or
    /// credit latency, at least 1).
    pub fn lookahead_window(&self) -> u64 {
        self.shared.lookahead_window()
    }

    /// Cuts the network into `shards` contiguous tile-region cells
    /// (clamped to `1..=num_nodes`) and returns an exclusive handle per
    /// cell, for a windowed runner. The cut may happen at any cycle
    /// boundary, mid-run included, and is invisible to the results.
    /// Each handle steps its cell independently for up to
    /// [`Self::lookahead_window`] cycles; boundary messages routed from
    /// one handle must be applied to their destination cell before any
    /// cell steps past the window. The cells stay cut until the next
    /// [`Self::step`] merges them back.
    pub fn shard_handles(&mut self, shards: usize) -> Vec<ShardHandle<'_>> {
        self.set_shards(shards);
        let shared = &self.shared;
        self.cells
            .iter_mut()
            .map(|cell| ShardHandle { shared, cell })
            .collect()
    }

    /// Records the cycle an external (threaded) shard run advanced the
    /// cells to, so `stats()`, `cycle()`, and probe finalization see it.
    pub fn finish_sharded_run(&mut self, cycle: Cycle) {
        debug_assert!(
            self.cells.iter().all(|c| c.outbox.is_empty()),
            "boundary messages left unapplied"
        );
        self.cycle = cycle;
    }

    /// Attaches an observability probe; subsequent cycles report into it.
    /// Replaces any previously attached probe. Probes are purely
    /// observational: attaching one never changes simulation behaviour.
    pub fn attach_probe(&mut self, probe: NetworkProbe) {
        self.probe = Some(Box::new(probe));
    }

    /// Detaches and returns the probe, if one is attached.
    pub fn take_probe(&mut self) -> Option<NetworkProbe> {
        self.probe.take().map(|b| *b)
    }

    /// The attached probe, if any.
    pub fn probe(&self) -> Option<&NetworkProbe> {
        self.probe.as_deref()
    }

    /// The active configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.shared.cfg
    }

    /// The topology.
    pub fn topology(&self) -> &dyn Topology {
        self.shared.topo.as_ref()
    }

    /// The admitted reservation table, if static flows were configured.
    pub fn reservation_table(&self) -> Option<&ReservationTable> {
        self.shared.reservations.as_ref()
    }

    /// The current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> NetworkStats {
        let mut acc = CellStats::default();
        for c in &self.cells {
            acc.add(c.stats);
        }
        let mut s = NetworkStats {
            cycles: self.cycle,
            packets_injected: acc.packets_injected,
            ecc_corrections: acc.ecc_corrections,
            ecc_uncorrectable: acc.ecc_uncorrectable,
            ..NetworkStats::default()
        };
        s.energy.flit_hops = acc.flit_hops;
        s.energy.hop_bits = acc.hop_bits;
        for cell in &self.cells {
            for i in &cell.interfaces {
                s.packets_delivered += i.packets_delivered;
                s.flits_injected += i.flits_injected;
            }
            for r in &cell.routers {
                match r {
                    RouterCore::Dropping(d) => {
                        s.packets_dropped += d.packets_dropped;
                        s.flits_dropped += d.flits_discarded;
                    }
                    RouterCore::Deflection(d) => s.deflections += d.deflections,
                    RouterCore::Vc(_) => {}
                }
            }
            // One flat accumulation in global tx order: the float-sum
            // order is fixed by entity order, not by the cell cut.
            for &f in &cell.tx_flits_carried {
                s.energy.link_flits += f;
            }
            for &bp in &cell.tx_bit_pitches {
                s.energy.link_bit_pitches += bp;
            }
        }
        s
    }

    /// Per-link loads (utilization requires `cycles > 0`).
    pub fn link_loads(&self) -> Vec<LinkLoad> {
        let cycles = self.cycle.max(1) as f64;
        let mut out = Vec::with_capacity(self.shared.tx_meta.len());
        for cell in &self.cells {
            for (i, &flits) in cell.tx_flits_carried.iter().enumerate() {
                let meta = &self.shared.tx_meta[cell.tx_base + i];
                out.push(LinkLoad {
                    node: meta.src,
                    dir: meta.dir,
                    utilization: flits as f64 / cycles,
                    flits,
                    length_pitches: meta.length_pitches,
                });
            }
        }
        out
    }

    /// Injects a fault into the link leaving `node` toward `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if no such link exists.
    pub fn inject_link_fault(
        &mut self,
        node: NodeId,
        dir: Direction,
        fault: LinkFault,
    ) -> Result<(), Error> {
        let link = self
            .shared
            .port_links
            .get(node.index())
            .and_then(|ports| ports[dir.index()].out)
            .ok_or_else(|| Error::Config(format!("no channel at {node}:{dir}")))?;
        let cell = &mut self.cells[link.to_cell as usize];
        let rx = &mut cell.rx_links[link.rx as usize - cell.rx_base];
        let was_healthy = rx.fault_count() == 0;
        rx.inject_fault(fault);
        // INVARIANT: `faulty_rx_links` counts the cell's receive halves
        // with a fault; this link just gained its first.
        if was_healthy {
            cell.faulty_rx_links += 1;
        }
        Ok(())
    }

    /// Enables or disables bit steering on every link.
    pub fn set_steering(&mut self, on: bool) {
        for cell in &mut self.cells {
            for link in &mut cell.rx_links {
                link.set_steering(on);
            }
        }
    }

    /// Sets the probability that a link traversal suffers a transient
    /// single-bit upset (paper §2.5's motivation for link-level ECC or
    /// end-to-end checking with retry). Deterministic given the seed.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `0.0..=1.0`.
    pub fn set_transient_fault_rate(&mut self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.shared.transient_rate = rate;
    }

    /// Offers a packet to its source tile's input port.
    ///
    /// # Errors
    ///
    /// * [`Error::NodeOutOfRange`] for invalid endpoints.
    /// * [`Error::Route`] for unroutable specs (including `src == dst`,
    ///   which never enters the network, and routes too long for the
    ///   paper's 16-bit field when that check is enabled).
    /// * [`Error::InjectionBackpressure`] when the tile port queues lack
    ///   space — nothing is enqueued, so the caller can retry later.
    /// * [`Error::Config`] for multi-flit packets under deflection flow
    ///   control, and for packets longer than the injection queue (or
    ///   than 65535 flits), which no amount of waiting lets in.
    pub fn inject(&mut self, spec: &PacketSpec) -> Result<PacketId, Error> {
        let n = self.shared.topo.num_nodes();
        for node in [spec.src, spec.dst] {
            if node.index() >= n {
                return Err(Error::NodeOutOfRange { node, nodes: n });
            }
        }
        let ci = self.shared.cell_of_node[spec.src.index()];
        let mut noop = NoProbe;
        let probe: &mut dyn Probe = match self.probe.as_deref_mut() {
            Some(p) => p,
            None => &mut noop,
        };
        self.cells[ci].inject(&self.shared, spec, self.cycle, probe)
    }

    /// Removes and returns packets delivered to `node`.
    pub fn drain_delivered(&mut self, node: NodeId) -> Vec<DeliveredPacket> {
        let cell = &mut self.cells[self.shared.cell_of_node[node.index()]];
        cell.interfaces[node.index() - cell.node_base].drain_delivered()
    }

    /// Advances the network one cycle.
    ///
    /// The cycle runs in phases — channel flit deliveries, credit
    /// deliveries, tile-pipe deliveries, push-mode injection, router
    /// evaluation — and each phase visits only awake entities, in
    /// ascending index order ([`crate::ShardHandle::step_cycle`]). Cells
    /// a windowed run left behind are merged back into one first.
    pub fn step(&mut self) {
        if self.cells.len() > 1 {
            self.set_shards(1);
        }
        let now = self.cycle;
        let cell = &mut self.cells[0];
        // The per-cycle buffer-occupancy samples are taken only when a
        // probe is attached, so unprobed runs skip that router walk.
        match self.probe.as_deref_mut() {
            Some(probe) => cell.step_cycle(&self.shared, now, probe, true),
            None => cell.step_cycle(&self.shared, now, &mut NoProbe, false),
        }
        self.cycle = now + 1;
    }

    /// Runs `cycles` steps.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Steps until every queue, buffer, and pipe is empty or `max_cycles`
    /// elapse; returns `true` if the network drained.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_quiescent() {
                return true;
            }
            self.step();
        }
        self.is_quiescent()
    }

    /// Whether no flit is queued, buffered, or in flight anywhere.
    ///
    /// Routers are asked via [`RouterCore::is_quiescent`], the
    /// evaluation-skip predicate, which is O(1) for every core.
    pub fn is_quiescent(&self) -> bool {
        self.cells.iter().all(|c| {
            c.interfaces.iter().all(|i| i.pending_flits() == 0)
                && c.routers.iter().all(RouterCore::is_quiescent)
                && c.rx.is_empty()
                && c.pipes.is_empty()
        })
    }

    /// Flits currently inside the network (buffers, staging, and pipes).
    pub fn flits_in_flight(&self) -> usize {
        self.cells
            .iter()
            .map(|c| {
                c.routers.iter().map(RouterCore::occupancy).sum::<usize>()
                    + c.rx.len()
                    + c.pipes.len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologySpec;
    use crate::route::RouteError;

    fn baseline() -> Network {
        Network::new(NetworkConfig::paper_baseline()).expect("valid baseline")
    }

    /// Steps `net` one cycle on `cells` cells through shard handles, the
    /// boundary messages routed to their cells at the cycle's end as a
    /// windowed runner would.
    fn step_on_cells(net: &mut Network, cells: usize) {
        let now = net.cycle;
        let mut handles = net.shard_handles(cells);
        let mut by_cell = vec![Vec::new(); handles.len()];
        for h in &mut handles {
            h.step_cycle(now, &mut NoProbe, false);
            h.route_outbox(&mut by_cell);
        }
        for (h, msgs) in handles.iter_mut().zip(by_cell) {
            h.apply_boundary(msgs, now);
        }
        net.finish_sharded_run(now + 1);
    }

    #[test]
    fn single_packet_crosses_the_torus() {
        let mut net = baseline();
        let id = net.inject(&PacketSpec::new(0.into(), 10.into())).unwrap();
        assert!(net.drain(200));
        let d = net.drain_delivered(10.into());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].id, id);
        assert_eq!(d[0].src, NodeId::new(0));
        assert!(!d[0].corrupted);
        assert!(d[0].network_latency() > 0);
    }

    #[test]
    fn multi_flit_packet_arrives_complete_and_ordered() {
        let mut net = baseline();
        let data: Vec<Payload> = (0..4).map(|i| Payload::from_u64(0xA0 + i)).collect();
        net.inject(
            &PacketSpec::new(3.into(), 12.into())
                .payload_bits(1024)
                .data(data.clone()),
        )
        .unwrap();
        assert!(net.drain(300));
        let d = net.drain_delivered(12.into());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].num_flits, 4);
        assert_eq!(d[0].payloads, data);
    }

    #[test]
    fn self_send_is_rejected() {
        let mut net = baseline();
        let err = net
            .inject(&PacketSpec::new(5.into(), 5.into()))
            .unwrap_err();
        assert!(matches!(err, Error::Route(RouteError::Empty)));
    }

    #[test]
    fn out_of_range_node_is_rejected() {
        let mut net = baseline();
        let err = net
            .inject(&PacketSpec::new(0.into(), 99.into()))
            .unwrap_err();
        assert!(matches!(err, Error::NodeOutOfRange { .. }));
    }

    #[test]
    fn zero_load_latency_matches_hop_model() {
        // At zero load: inject pipe + per-hop latency + ejection, no
        // queueing. hop latency = channel(1)+router(1) = 2.
        let mut net = baseline();
        // 0 -> 1 is one hop on the 4-torus.
        net.inject(&PacketSpec::new(0.into(), 1.into())).unwrap();
        assert!(net.drain(100));
        let d = net.drain_delivered(1.into());
        // inject pipe (2) + source router launch + 1 hop (2) + eject (1).
        assert_eq!(d[0].network_latency(), 5);
    }

    #[test]
    fn all_pairs_deliver_on_all_topologies() {
        for spec in [
            TopologySpec::FoldedTorus { k: 4 },
            TopologySpec::Mesh { k: 4 },
            TopologySpec::Ring { k: 8 },
        ] {
            let cfg = NetworkConfig::paper_baseline().with_topology(spec);
            let mut net = Network::new(cfg).unwrap();
            let n = net.topology().num_nodes() as u16;
            let mut expected = 0;
            for s in 0..n {
                for d in 0..n {
                    if s != d {
                        net.inject(&PacketSpec::new(s.into(), d.into()).payload_bits(64))
                            .unwrap();
                        expected += 1;
                    }
                }
            }
            assert!(net.drain(5_000), "{spec:?} failed to drain");
            let delivered: usize = (0..n).map(|d| net.drain_delivered(d.into()).len()).sum();
            assert_eq!(delivered, expected, "{spec:?}");
        }
    }

    #[test]
    fn determinism_same_seed_same_stats() {
        let run = || {
            let mut net = baseline();
            for i in 0..50u16 {
                let s = i % 16;
                let d = (i * 7 + 3) % 16;
                if s != d {
                    let _ = net.inject(&PacketSpec::new(s.into(), d.into()));
                }
                net.step();
            }
            net.drain(1_000);
            net.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn energy_counters_accumulate() {
        let mut net = baseline();
        net.inject(&PacketSpec::new(0.into(), 2.into())).unwrap();
        net.drain(100);
        let s = net.stats();
        assert!(s.energy.flit_hops >= 2);
        assert!(s.energy.link_bit_pitches > 0.0);
        assert_eq!(s.packets_delivered, 1);
    }

    #[test]
    fn link_loads_reflect_traffic() {
        let mut net = baseline();
        for _ in 0..5 {
            net.inject(&PacketSpec::new(0.into(), 1.into()).payload_bits(64))
                .unwrap();
            net.run(4);
        }
        net.drain(200);
        let loads = net.link_loads();
        assert!(loads.iter().any(|l| l.flits > 0));
        assert!(loads.iter().all(|l| l.utilization <= 1.0));
    }

    #[test]
    fn masked_fault_keeps_data_intact() {
        let mut net = baseline();
        let dir = net.topology().route_dirs(0.into(), 1.into())[0];
        net.inject_link_fault(
            0.into(),
            dir,
            LinkFault {
                wire: 42,
                kind: crate::fault::FaultKind::StuckAtOne,
            },
        )
        .unwrap();
        let data = vec![Payload::from_u64(0x1234_5678)];
        net.inject(&PacketSpec::new(0.into(), 1.into()).data(data.clone()))
            .unwrap();
        net.drain(100);
        let d = net.drain_delivered(1.into());
        assert!(!d[0].corrupted);
        assert_eq!(d[0].payloads, data);
    }

    #[test]
    fn unmasked_fault_corrupts_and_is_flagged() {
        let mut net = baseline();
        net.set_steering(false);
        let dir = net.topology().route_dirs(0.into(), 1.into())[0];
        net.inject_link_fault(
            0.into(),
            dir,
            LinkFault {
                wire: 3,
                kind: crate::fault::FaultKind::StuckAtOne,
            },
        )
        .unwrap();
        // Payload with bit 3 = 0 so the stuck-at-1 shows.
        let data = vec![Payload::ZERO];
        net.inject(&PacketSpec::new(0.into(), 1.into()).data(data))
            .unwrap();
        net.drain(100);
        let d = net.drain_delivered(1.into());
        assert!(d[0].corrupted);
        assert!(d[0].payloads[0].bit(3));
    }

    /// Every port's link-table entry equals what the lookup chain it
    /// replaces computes: the channel's position in `topo.channels()`,
    /// its paired receive half, and the cells of both ends, with the
    /// upstream router found by `topo.neighbor`. Ports without a channel
    /// are absent.
    #[test]
    fn port_links_match_the_channel_lookup_chain() {
        use crate::shard::{InLink, OutLink, PortLink};
        for spec in [
            TopologySpec::Mesh { k: 4 },
            TopologySpec::FoldedTorus { k: 4 },
            TopologySpec::FoldedTorus { k: 5 },
            TopologySpec::Ring { k: 8 },
        ] {
            let mut net =
                Network::new(NetworkConfig::paper_baseline().with_topology(spec)).unwrap();
            for shards in [1, 2, 3, 7] {
                net.set_shards(shards);
                let sh = &net.shared;
                let channels = sh.topo.channels();
                let tx_of = |node: NodeId, dir: Direction| {
                    channels.iter().position(|&c| c == (node, dir)).unwrap()
                };
                let mut present = 0;
                for n in 0..sh.topo.num_nodes() {
                    let node = NodeId::new(n as u16);
                    for dir in Direction::ALL {
                        let out = sh.topo.neighbor(node, dir).map(|_| {
                            let t = tx_of(node, dir);
                            let rx = sh.tx_meta[t].rx;
                            OutLink {
                                tx: t as u32,
                                rx: rx as u32,
                                to_cell: sh.cell_of_node[sh.rx_meta[rx].dst.index()] as u32,
                                length_pitches: sh.tx_meta[t].length_pitches,
                            }
                        });
                        let inc = sh.topo.neighbor(node, dir).map(|up| InLink {
                            up_tx: tx_of(up, dir.opposite()) as u32,
                            up_cell: sh.cell_of_node[up.index()] as u32,
                        });
                        present += usize::from(out.is_some());
                        assert_eq!(
                            sh.port_links[n][dir.index()],
                            PortLink { out, inc },
                            "{spec:?} shards {shards} node {n} {dir}"
                        );
                    }
                }
                assert_eq!(present, channels.len(), "{spec:?}");
            }
        }
    }

    #[test]
    fn faults_need_an_existing_channel_and_land_at_any_shard_count() {
        let fault = LinkFault {
            wire: 3,
            kind: crate::fault::FaultKind::StuckAtOne,
        };
        let mut mesh = Network::new(
            NetworkConfig::paper_baseline().with_topology(TopologySpec::Mesh { k: 4 }),
        )
        .unwrap();
        for shards in [1, 3] {
            mesh.set_shards(shards);
            for (node, dir) in [
                (0, Direction::West),
                (15, Direction::North),
                (99, Direction::East),
            ] {
                let err = mesh.inject_link_fault(node.into(), dir, fault).unwrap_err();
                assert!(matches!(err, Error::Config(_)), "{node}:{dir}");
            }
        }
        // An unmasked fault corrupts the packet crossing it, with the
        // cells stepped as cut. Nodes 7 and 11 are neighbors that fall in
        // different cells at 2, 3 and 7 shards.
        for shards in [1, 2, 3, 7] {
            let mut net = baseline();
            net.set_shards(shards);
            net.set_steering(false);
            let (src, dst) = (7.into(), 11.into());
            let dirs = net.topology().route_dirs(src, dst);
            assert_eq!(dirs.len(), 1, "one-hop neighbors");
            let dir = dirs[0];
            net.inject_link_fault(src, dir, fault).unwrap();
            net.inject(&PacketSpec::new(src, dst).data(vec![Payload::ZERO]))
                .unwrap();
            for _ in 0..100 {
                if net.is_quiescent() {
                    break;
                }
                step_on_cells(&mut net, shards);
            }
            let d = net.drain_delivered(dst);
            assert!(d[0].corrupted && d[0].payloads[0].bit(3), "shards {shards}");
        }
    }

    /// A link fault injected mid-run, after the network has stepped as
    /// 2 cells, reaches the owning cell's count of faulty receive
    /// halves: the corrupted deliveries and SEC-DED counters equal the
    /// 1-cell run's, and stay equal when the faulty network is re-cut
    /// into 1 cell later on. One fault lands in each cell (links 5→6
    /// and 10→14); the single stuck wire is repaired, the double one is
    /// not.
    #[test]
    fn mid_run_fault_on_two_cells_matches_one_cell() {
        use crate::config::LinkProtection;
        use crate::fault::FaultKind;
        let run = |cells_at: fn(u64) -> usize| {
            let cfg = NetworkConfig::paper_baseline().with_link_protection(LinkProtection::Secded);
            let mut net = Network::new(cfg).unwrap();
            net.set_steering(false);
            let mut corrupted = Vec::new();
            for now in 0..600u64 {
                if now == 200 {
                    let stuck = |wire, kind| LinkFault { wire, kind };
                    let faults = [
                        (5, Direction::East, stuck(3, FaultKind::StuckAtOne)),
                        (10, Direction::North, stuck(1, FaultKind::StuckAtOne)),
                        (10, Direction::North, stuck(2, FaultKind::StuckAtZero)),
                    ];
                    for (node, dir, fault) in faults {
                        net.inject_link_fault(NodeId::new(node), dir, fault)
                            .unwrap();
                    }
                }
                if now < 400 {
                    // Every ordered pair within 240 cycles; a full
                    // source queue just skips one.
                    let (src, dst) = (now % 16, (now + 1 + now / 16 % 15) % 16);
                    let (src, dst) = (NodeId::new(src as u16), NodeId::new(dst as u16));
                    let data = vec![Payload::from_u64(now.wrapping_mul(0x9E37_79B9_7F4A_7C15))];
                    let _ = net.inject(&PacketSpec::new(src, dst).data(data));
                }
                match cells_at(now) {
                    1 => net.step(),
                    cells => step_on_cells(&mut net, cells),
                }
                for n in 0..16u16 {
                    for d in net.drain_delivered(n.into()) {
                        if d.corrupted {
                            corrupted.push(d.id);
                        }
                    }
                }
            }
            let stats = net.stats();
            (corrupted, stats.ecc_corrections, stats.ecc_uncorrectable)
        };
        let one = run(|_| 1);
        assert!(
            !one.0.is_empty() && one.1 > 0 && one.2 > 0,
            "the faults must corrupt, and SEC-DED correct, some flits: {one:?}"
        );
        assert_eq!(run(|_| 2), one, "2 cells");
        assert_eq!(
            run(|now| if now < 300 { 2 } else { 1 }),
            one,
            "2 cells, then 1"
        );
    }

    #[test]
    fn phit_serialization_trades_latency_for_width() {
        let latency = |phits: u64| {
            let cfg = NetworkConfig::paper_baseline().with_channel_phits(phits);
            let mut net = Network::new(cfg).unwrap();
            net.inject(&PacketSpec::new(0.into(), 2.into())).unwrap();
            assert!(net.drain(500));
            net.drain_delivered(2.into())[0].network_latency()
        };
        let wide = latency(1);
        let narrow = latency(8);
        // 0 -> 2 is two links plus the tile port: each adds phits-1.
        assert!(narrow > wide + 2 * 7, "narrow {narrow} vs wide {wide}");
        // Throughput halves (and worse) with serialization under load.
        let accepted = |phits: u64| {
            let cfg = NetworkConfig::paper_baseline().with_channel_phits(phits);
            let mut net = Network::new(cfg).unwrap();
            let mut delivered = 0u64;
            for now in 0..2_000u64 {
                let src = (now % 16) as u16;
                let dst = ((now * 7 + 1) % 16) as u16;
                if src != dst {
                    let _ = net.inject(&PacketSpec::new(src.into(), dst.into()));
                }
                net.step();
                for n in 0..16u16 {
                    delivered += net.drain_delivered(n.into()).len() as u64;
                }
            }
            delivered
        };
        let d1 = accepted(1);
        let d4 = accepted(4);
        assert!(d4 < d1, "serialized channels must carry less: {d4} vs {d1}");
    }

    #[test]
    fn phit_config_is_validated() {
        let cfg = NetworkConfig::paper_baseline().with_channel_phits(0);
        assert!(Network::new(cfg).is_err());
        let cfg = NetworkConfig::paper_baseline()
            .with_flow_control(FlowControl::Deflection)
            .with_channel_phits(4);
        assert!(Network::new(cfg).is_err());
    }

    #[test]
    fn secded_repairs_transient_upsets() {
        use crate::config::LinkProtection;
        let run = |protection: LinkProtection| {
            let cfg = NetworkConfig::paper_baseline().with_link_protection(protection);
            let mut net = Network::new(cfg).unwrap();
            net.set_transient_fault_rate(0.3);
            let data = vec![Payload::from_u64(0xFACE_FEED)];
            for _ in 0..20 {
                net.inject(&PacketSpec::new(0.into(), 10.into()).data(data.clone()))
                    .unwrap();
                net.run(4);
            }
            assert!(net.drain(2_000));
            let mut corrupted = 0;
            for pkt in net.drain_delivered(10.into()) {
                if pkt.corrupted || pkt.payloads[0] != data[0] {
                    corrupted += 1;
                }
            }
            (corrupted, net.stats())
        };
        let (raw_corrupted, _) = run(LinkProtection::None);
        assert!(
            raw_corrupted > 0,
            "30% upsets must corrupt unprotected links"
        );
        let (ecc_corrupted, stats) = run(LinkProtection::Secded);
        assert_eq!(ecc_corrupted, 0, "SEC-DED repairs single upsets per hop");
        assert!(stats.ecc_corrections > 0);
    }

    #[test]
    fn secded_costs_one_cycle_per_hop() {
        use crate::config::LinkProtection;
        let latency = |protection: LinkProtection| {
            let cfg = NetworkConfig::paper_baseline().with_link_protection(protection);
            let mut net = Network::new(cfg).unwrap();
            net.inject(&PacketSpec::new(0.into(), 2.into())).unwrap();
            assert!(net.drain(200));
            net.drain_delivered(2.into())[0].network_latency()
        };
        let raw = latency(LinkProtection::None);
        let ecc = latency(LinkProtection::Secded);
        // 0 -> 2 is two hops: two extra decode cycles.
        assert_eq!(ecc, raw + 2);
    }

    #[test]
    fn backpressure_is_reported_not_dropped() {
        let mut cfg = NetworkConfig::paper_baseline();
        cfg.inject_queue_flits = 2;
        let mut net = Network::new(cfg).unwrap();
        // Bulk injection on the torus uses the 2 class-0 VCs x 2 slots.
        let mut accepted = 0;
        let mut rejected = 0;
        for _ in 0..20 {
            match net.inject(&PacketSpec::new(0.into(), 5.into()).payload_bits(512)) {
                Ok(_) => accepted += 1,
                Err(Error::InjectionBackpressure { .. }) => rejected += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(accepted >= 2);
        assert!(rejected > 0);
        assert!(net.drain(1_000));
    }

    /// A packet the injection queue can never hold is a configuration
    /// error, not transient backpressure: retrying cannot help. The
    /// paper baseline's queues hold 64 flits, and a flit count must fit
    /// 16 bits even when the queue is deeper.
    #[test]
    fn packet_longer_than_the_injection_queue_is_rejected() {
        let mut net = baseline();
        let spec = |flits: usize| PacketSpec::new(0.into(), 5.into()).payload_bits(flits * 256);
        let err = net.inject(&spec(65)).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        // Bulk injection uses two VCs: each takes one full queue's worth,
        // and only then does a third packet meet backpressure.
        for _ in 0..2 {
            net.inject(&spec(64)).expect("a full queue's worth fits");
        }
        assert!(matches!(
            net.inject(&spec(64)).unwrap_err(),
            Error::InjectionBackpressure { .. }
        ));

        let mut cfg = NetworkConfig::paper_baseline();
        cfg.inject_queue_flits = 1 << 17;
        let mut deep = Network::new(cfg).unwrap();
        let err = deep.inject(&spec(usize::from(u16::MAX) + 1)).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        assert_eq!(deep.stats().packets_injected, 0);
    }

    /// Re-cutting the network into cells mid-run must be invisible: the
    /// same traffic stepped through shard handles at any cell count —
    /// including flips in the middle of a run, and back to
    /// `Network::step` on one cell — produces bit-identical stats. With
    /// the slowest sampled links every re-cut moves flits and credits
    /// filed up to six cycles ahead into the new cells' calendars.
    #[test]
    fn in_process_shards_are_bit_identical() {
        let mut slow = NetworkConfig::paper_baseline()
            .with_channel_phits(2)
            .with_link_protection(LinkProtection::Secded);
        slow.channel_latency = 3;
        slow.credit_latency = 4;
        for cfg in [NetworkConfig::paper_baseline(), slow] {
            let drive = |shard_plan: &[(u64, usize)]| {
                let mut net = Network::new(cfg.clone()).unwrap();
                let mut plan = shard_plan.iter().peekable();
                let mut cells = 1;
                for now in 0..400u64 {
                    if let Some(&&(at, s)) = plan.peek() {
                        if now == at {
                            if at > 0 {
                                let filed = |f: fn(&ShardCell) -> usize| {
                                    net.cells.iter().map(f).sum::<usize>()
                                };
                                assert!(filed(|c| c.rx.len()) > 0, "no flit in flight at {at}");
                                assert!(filed(|c| c.tx.len()) > 0, "no credit in flight at {at}");
                            }
                            cells = s;
                            plan.next();
                        }
                    }
                    let s = (now % 16) as u16;
                    let d = ((now * 11 + 5) % 16) as u16;
                    if s != d {
                        let _ = net.inject(&PacketSpec::new(s.into(), d.into()).payload_bits(512));
                    }
                    if cells == 1 {
                        net.step();
                    } else {
                        step_on_cells(&mut net, cells);
                    }
                }
                net.drain(2_000);
                (net.stats(), net.link_loads())
            };
            let reference = drive(&[]);
            for plan in [
                &[(0, 4)][..],
                &[(0, 16)][..],
                &[(100, 2), (200, 8), (300, 1)][..],
            ] {
                assert_eq!(drive(plan), reference, "plan {plan:?}");
            }
        }
    }
}
