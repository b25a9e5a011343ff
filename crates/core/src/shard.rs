//! Sharded execution internals: the network's state partitioned into
//! contiguous tile-region cells, the boundary messages exchanged
//! between them, and the one cycle stepper, `ShardCell::step_cycle`,
//! that both [`crate::Network::step`] (on its one cell) and the
//! windowed driver's workers (`ocin-sim`'s `run_windowed`, through
//! [`ShardHandle`]) call.
//!
//! # Why sharding preserves bit-identity (DESIGN.md §3.15)
//!
//! Every structure a cycle phase mutates is owned by exactly one cell:
//! routers, tile interfaces, and tile pipes by the cell owning their
//! node; a channel's *receive* half (flit calendar, fault state) by the
//! cell owning its destination; its *transmit* half (credit calendar,
//! load counters) by the cell owning its source. The only cross-cell
//! operations are *pushes* of future events — a flit launch lands
//! `flit_latency ≥ 1` cycles ahead, a credit return `credit_latency ≥
//! 1` cycles ahead — so a cell stepping cycle `t` can never observe a
//! same-cycle effect from another cell. Deferring those pushes to a
//! barrier at the end of a lookahead window of
//! `min(flit_latency, credit_latency)` cycles is therefore invisible:
//! the events are applied before the first cycle that could deliver
//! them, and each lands in the calendar slot of its due cycle, the slot
//! a direct push would have used. Within each cell, phases visit
//! entities in ascending global index order, exactly as the single-cell
//! engine does.
//!
//! Every in-flight flit and credit lives in a `Calendar` cell keyed by
//! (due cycle, index): a delivery phase takes the slot for `now` and
//! nothing else, so no per-channel queue or due tracker exists.

use crate::config::{FlowControl, NetworkConfig, RoutingAlg};
use crate::error::Error;
use crate::expand::{RouteState, TierTable};
use crate::fault::SteeredLink;
use crate::flit::{
    Flit, FlitKind, FlitMeta, Payload, ServiceClass, SizeCode, VcMask, FLIT_DATA_BITS,
};
use crate::ids::{Cycle, Direction, NodeId, PacketId, Port, VcId};
use crate::interface::{DeliveredPacket, TileInterface};
use crate::network::PacketSpec;
use crate::probe::{Event, NetworkProbe, NoProbe, Probe};
use crate::reservation::ReservationTable;
use crate::route::{RouteError, SourceRoute};
use crate::router::{EvalEnv, RouterCore, RouterOutput};
use crate::topology::Topology;
use crate::util::{ActiveSet, Calendar, XorShift64};

/// Receive half of a directed channel: everything touched when a flit
/// *arrives* at the channel's destination router. Owned by the cell of
/// `dst`.
#[derive(Debug)]
pub(crate) struct RxMeta {
    /// Destination router.
    pub dst: NodeId,
    /// Input port at the destination (`Port::Dir(dir.opposite())`).
    pub in_port: Port,
    /// Whether this link crosses the dateline.
    pub dateline: bool,
}

/// Transmit half of a directed channel: everything touched when a flit
/// is *launched* or a credit *returns* to the channel's source router.
/// Owned by the cell of `src`.
#[derive(Debug)]
pub(crate) struct TxMeta {
    /// Source router.
    pub src: NodeId,
    /// Link direction out of `src`.
    pub dir: Direction,
    /// Physical length in tile pitches.
    pub length_pitches: f64,
    /// Global index of the paired receive half.
    pub rx: usize,
}

/// The channel leaving a node through one port, as a launch needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OutLink {
    /// Global transmit-half index (owned by the launching node's cell).
    pub tx: u32,
    /// Global receive-half index.
    pub rx: u32,
    /// Cell owning the channel's destination router.
    pub to_cell: u32,
    /// Physical length in tile pitches.
    pub length_pitches: f64,
}

/// The channel arriving at a node through one port, as a returned
/// credit needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InLink {
    /// Global index of the upstream router's transmit half.
    pub up_tx: u32,
    /// Cell owning the upstream router.
    pub up_cell: u32,
}

/// Both channels at one router port; `None` where the topology has no
/// channel (a mesh edge, a ring's vertical ports).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct PortLink {
    pub out: Option<OutLink>,
    pub inc: Option<InLink>,
}

/// Immutable (during stepping) network state shared by every cell.
pub(crate) struct NetShared {
    pub cfg: NetworkConfig,
    pub topo: Box<dyn Topology>,
    /// The VC plan's tier masks on this topology.
    pub tiers: TierTable,
    pub reservations: Option<ReservationTable>,
    /// Per-link-traversal probability of a transient single-bit upset.
    pub transient_rate: f64,
    /// Receive halves in global order: ascending `(dst, in_port)`.
    pub rx_meta: Vec<RxMeta>,
    /// Transmit halves in global order: ascending `(src, dir)` — the
    /// historical `topo.channels()` order.
    pub tx_meta: Vec<TxMeta>,
    /// `[node][dir]`: the channels leaving and entering `node` through
    /// port `dir`, with the cells that own their far ends. Rebuilt by
    /// `set_partition`, so a launch or credit return is one lookup.
    pub port_links: Vec<[PortLink; 4]>,
    /// Cell boundaries in node space: `num_cells() + 1` ascending entries.
    pub node_starts: Vec<usize>,
    /// First global rx index per cell (plus the total as a sentinel).
    pub rx_starts: Vec<usize>,
    /// First global tx index per cell (plus the total as a sentinel).
    pub tx_starts: Vec<usize>,
    /// Owning cell per node.
    pub cell_of_node: Vec<usize>,
    /// Launch-to-delivery latency of a link traversal.
    pub flit_latency: u64,
    /// Tile-port inject-pipe latency.
    pub inject_latency: u64,
    /// Whether links carry SEC-DED check bits.
    pub secded: bool,
}

impl NetShared {
    pub(crate) fn num_cells(&self) -> usize {
        self.node_starts.len() - 1
    }

    /// The conservative-synchronization window: the minimum latency of
    /// any event that can cross a cell boundary. Channel flits and
    /// credits are the only cross-cell events (tile pipes are
    /// node-local), so shards may step this many cycles between
    /// boundary exchanges without observing a stale neighbor.
    pub(crate) fn lookahead_window(&self) -> u64 {
        self.flit_latency.min(self.cfg.credit_latency).max(1)
    }

    /// Recomputes the cell boundaries for `shards` cells (clamped to
    /// `1..=num_nodes`).
    pub(crate) fn set_partition(&mut self, shards: usize) {
        let n = self.topo.num_nodes();
        let s = shards.clamp(1, n.max(1));
        self.node_starts = (0..=s).map(|i| i * n / s).collect();
        self.cell_of_node = vec![0; n];
        for c in 0..s {
            for node in self.node_starts[c]..self.node_starts[c + 1] {
                self.cell_of_node[node] = c;
            }
        }
        // rx is sorted by dst and tx by src, so each cell's halves are
        // one contiguous run.
        self.rx_starts = self
            .node_starts
            .iter()
            .map(|&start| self.rx_meta.partition_point(|m| m.dst.index() < start))
            .collect();
        self.tx_starts = self
            .node_starts
            .iter()
            .map(|&start| self.tx_meta.partition_point(|m| m.src.index() < start))
            .collect();
        // Indices and cells fit u32: `NetworkConfig::validate` bounds a
        // network to a few thousand nodes and four channels each.
        self.port_links = vec![[PortLink::default(); 4]; n];
        for (t, meta) in self.tx_meta.iter().enumerate() {
            let dst = self.rx_meta[meta.rx].dst;
            self.port_links[meta.src.index()][meta.dir.index()].out = Some(OutLink {
                tx: t as u32,
                rx: meta.rx as u32,
                to_cell: self.cell_of_node[dst.index()] as u32,
                length_pitches: meta.length_pitches,
            });
            self.port_links[dst.index()][meta.dir.opposite().index()].inc = Some(InLink {
                up_tx: t as u32,
                up_cell: self.cell_of_node[meta.src.index()] as u32,
            });
        }
    }
}

/// SplitMix64 over `(base, stream, idx)`: decorrelated per-entity seeds
/// so every RNG consumer (per-node routing, per-link faults) owns a
/// private deterministic stream regardless of how cells are cut.
pub(crate) fn stream_seed(base: u64, stream: u64, idx: u64) -> u64 {
    let mut z =
        base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ idx.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Saturation-free counters a cell accumulates privately; `Network`
/// sums them on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CellStats {
    pub packets_injected: u64,
    pub ecc_corrections: u64,
    pub ecc_uncorrectable: u64,
    pub flit_hops: u64,
    pub hop_bits: u64,
}

impl CellStats {
    pub(crate) fn add(&mut self, other: CellStats) {
        self.packets_injected += other.packets_injected;
        self.ecc_corrections += other.ecc_corrections;
        self.ecc_uncorrectable += other.ecc_uncorrectable;
        self.flit_hops += other.flit_hops;
        self.hop_bits += other.hop_bits;
    }
}

/// A future event crossing a cell boundary: applied by the owning cell
/// at the next exchange, strictly before any cycle that could deliver
/// it.
#[derive(Debug, Clone)]
pub struct BoundaryMsg {
    pub(crate) to_cell: usize,
    pub(crate) kind: MsgKind,
}

#[derive(Debug, Clone)]
pub(crate) enum MsgKind {
    /// A flit launched into global rx half `rx`, due at `due`.
    Flit { rx: usize, due: Cycle, flit: Flit },
    /// A credit returned to global tx half `tx`, due at `due`.
    Credit { tx: usize, due: Cycle, vc: VcId },
}

impl BoundaryMsg {
    /// The cell that must apply this message.
    pub fn dest_cell(&self) -> usize {
        self.to_cell
    }
}

/// One contiguous tile region's complete mutable simulation state.
#[derive(Debug)]
pub(crate) struct ShardCell {
    pub index: usize,
    pub node_base: usize,
    pub node_end: usize,
    pub rx_base: usize,
    pub tx_base: usize,
    pub routers: Vec<RouterCore>,
    pub interfaces: Vec<TileInterface>,
    /// Tile pipes by local pipe index: `2 * node` is the node's inject
    /// pipe and `2 * node + 1` its eject pipe, so an ascending drain
    /// delivers node by node, inject before eject.
    pub pipes: Calendar<Flit>,
    pub rx_links: Vec<SteeredLink>,
    /// How many of `rx_links` have at least one fault. While it is zero
    /// every link's `transmit` is the identity, so delivery skips it.
    pub faulty_rx_links: usize,
    /// Flits in flight on the owned receive halves.
    pub rx: Calendar<Flit>,
    /// Per-receive-half transient-fault RNG: fault draws stay on a
    /// private stream per link, whatever the cell cut.
    pub rx_rng: Vec<XorShift64>,
    /// Credits in flight back to the owned transmit halves.
    pub tx: Calendar<VcId>,
    pub tx_flits_carried: Vec<u64>,
    pub tx_bit_pitches: Vec<f64>,
    /// Per-node packet sequence numbers (`PacketId` = seq ≪ 16 | node).
    pub next_seq: Vec<u64>,
    /// Per-node Valiant intermediate-pick RNG.
    pub route_rng: Vec<XorShift64>,
    pub active_routers: ActiveSet,
    pub inject_pending: ActiveSet,
    pub stats: CellStats,
    pub idx_scratch: Vec<usize>,
    pub out_scratch: RouterOutput,
    /// Cross-cell pushes generated this window, in creation order.
    pub outbox: Vec<BoundaryMsg>,
}

// A calendar cell holds `Option<Flit>`; the flit's kind leaves a niche
// for `None`, so a cell is exactly one 128-byte flit.
const _: () = assert!(std::mem::size_of::<Option<Flit>>() == 128);

/// In-flight entries of one delay line, as `(global index, due, value)`.
pub(crate) type Pending<T> = Vec<(usize, Cycle, T)>;

/// The global (concatenated) component state of a network, independent
/// of any particular cell cut. `Network::new` builds a fresh one;
/// `set_shards` gathers one from the old cells and re-splits it.
#[derive(Debug, Default)]
pub(crate) struct GlobalState {
    pub routers: Vec<RouterCore>,
    pub interfaces: Vec<TileInterface>,
    /// Pipe index `2 * node` (inject) or `2 * node + 1` (eject).
    pub pipes: Pending<Flit>,
    pub rx_links: Vec<SteeredLink>,
    pub rx: Pending<Flit>,
    pub rx_rng: Vec<XorShift64>,
    pub tx: Pending<VcId>,
    pub tx_flits_carried: Vec<u64>,
    pub tx_bit_pitches: Vec<f64>,
    pub next_seq: Vec<u64>,
    pub route_rng: Vec<XorShift64>,
    pub stats: CellStats,
}

/// Splits global component state into cells along `shared`'s current
/// partition, rebuilding each cell's wake bookkeeping from scratch.
///
/// The rebuild is exact, not approximate: between steps the gated
/// engine's invariants pin every derived structure — a router's active
/// bit is set iff it is non-quiescent, a tile's injection bit iff its
/// queues are non-empty — and every in-flight entry is re-filed in the
/// calendar slot of its due cycle. So a settled network can be re-cut
/// into any number of cells without perturbing behaviour.
pub(crate) fn build_cells(
    shared: &NetShared,
    mut state: GlobalState,
    cycle: Cycle,
) -> Vec<ShardCell> {
    let cells = shared.num_cells();
    let cfg = &shared.cfg;
    let mut out: Vec<ShardCell> = Vec::with_capacity(cells);
    for index in (0..cells).rev() {
        let node_base = shared.node_starts[index];
        let node_end = shared.node_starts[index + 1];
        let rx_base = shared.rx_starts[index];
        let tx_base = shared.tx_starts[index];
        let n_local = node_end - node_base;
        let rx_local = shared.rx_starts[index + 1] - rx_base;
        let tx_local = shared.tx_starts[index + 1] - tx_base;

        let routers = state.routers.split_off(node_base);
        let interfaces = state.interfaces.split_off(node_base);
        let next_seq = state.next_seq.split_off(node_base);
        let route_rng = state.route_rng.split_off(node_base);
        let rx_links = state.rx_links.split_off(rx_base);
        let faulty_rx_links = rx_links.iter().filter(|l| l.fault_count() > 0).count();
        let rx_rng = state.rx_rng.split_off(rx_base);
        let tx_flits_carried = state.tx_flits_carried.split_off(tx_base);
        let tx_bit_pitches = state.tx_bit_pitches.split_off(tx_base);

        let mut active_routers = ActiveSet::new(n_local);
        let mut inject_pending = ActiveSet::new(n_local);
        for (i, r) in routers.iter().enumerate() {
            if !r.is_quiescent() {
                // INVARIANT: wake-rule (routers) — between steps the
                // active bit is set iff the router is non-quiescent, so
                // rebuilding from `is_quiescent()` reproduces the set
                // exactly (see `wake_router`).
                active_routers.set(i);
            }
        }
        for (i, iface) in interfaces.iter().enumerate() {
            if iface.injection_pending() {
                // INVARIANT: wake-rule (injection) — the bit is set iff
                // the tile has queued flits (see `wake_injector`).
                inject_pending.set(i);
            }
        }

        out.push(ShardCell {
            index,
            node_base,
            node_end,
            rx_base,
            tx_base,
            routers,
            interfaces,
            pipes: Calendar::new(shared.inject_latency.max(cfg.channel_latency), 2 * n_local),
            rx_links,
            faulty_rx_links,
            rx: Calendar::new(shared.flit_latency, rx_local),
            rx_rng,
            tx: Calendar::new(cfg.credit_latency, tx_local),
            tx_flits_carried,
            tx_bit_pitches,
            next_seq,
            route_rng,
            active_routers,
            inject_pending,
            stats: if index == 0 {
                state.stats
            } else {
                CellStats::default()
            },
            idx_scratch: Vec::with_capacity(rx_local.max(2 * n_local)),
            out_scratch: RouterOutput::default(),
            outbox: Vec::new(),
        });
    }
    out.reverse();

    // Every pending entry is due in `cycle..cycle + horizon`, so it can
    // be re-filed as seen from the last executed cycle; a slot is a
    // function of the due cycle alone, so it lands where it was.
    let now = cycle.saturating_sub(1);
    let owner = |starts: &[usize], g: usize| starts.partition_point(|&s| s <= g) - 1;
    for (g, due, flit) in state.rx {
        let cell = &mut out[owner(&shared.rx_starts, g)];
        // INVARIANT: wake-rule (channels) — each (index, due) pair held
        // one entry before the re-cut, so its cell is still free.
        cell.rx.schedule(g - cell.rx_base, due, now, flit);
    }
    for (g, due, vc) in state.tx {
        let cell = &mut out[owner(&shared.tx_starts, g)];
        // INVARIANT: wake-rule (channels) — as above, one credit per
        // (index, due) pair.
        cell.tx.schedule(g - cell.tx_base, due, now, vc);
    }
    for (g, due, flit) in state.pipes {
        let cell = &mut out[shared.cell_of_node[g / 2]];
        // INVARIANT: wake-rule (pipes) — as above, one flit per
        // (index, due) pair.
        cell.pipes.schedule(g - 2 * cell.node_base, due, now, flit);
    }
    out
}

// ── Wake helpers ──────────────────────────────────────────────────────
//
// The activity-gated engine's determinism rests on two rules (see
// DESIGN.md §3.13): (a) every event that can make an entity's next
// phase visit a non-no-op must wake it through one of these helpers,
// and (b) the sets are fixed-order bitsets iterated in ascending index
// order, so the order wake-ups fire in can never influence the order
// entities are processed in. Channels and pipes need no helper: an
// entry filed with `Calendar::schedule` is its own wake-up.

impl ShardCell {
    /// Marks local router `i` for the next evaluation sweep.
    // INVARIANT: wake-rule (routers) — called on every flit receive and
    // credit arrival, and re-asserted after evaluation while the router
    // is non-quiescent; cleared only when `is_quiescent()` holds, where
    // evaluation is a guaranteed no-op.
    #[inline]
    fn wake_router(&mut self, i: usize) {
        self.active_routers.set(i);
    }

    /// Marks local tile `i` as having flits queued for injection.
    // INVARIANT: wake-rule (injection) — set whenever a packet is
    // enqueued; cleared only when the tile's pending count returns to
    // zero, so an offer is made every eligible cycle until the queues
    // drain.
    #[inline]
    fn wake_injector(&mut self, i: usize) {
        self.inject_pending.set(i);
    }

    /// Files a flit on local receive half `rl` (a push from this or
    /// another cell's launch).
    fn push_rx(&mut self, rl: usize, due: Cycle, flit: Flit, now: Cycle) {
        // INVARIANT: wake-rule (channels) — a link launches at most one
        // flit per cycle (VC link arbitration, the dropping router's
        // `used[]`, the deflection router's one launch per output) with a
        // fixed latency, so each (half, due) cell takes one flit. A
        // boundary message applied later at the window barrier names the
        // same due cycle, hence the same slot.
        self.rx.schedule(rl, due, now, flit);
    }

    /// Files a credit on local transmit half `tl`.
    fn push_tx(&mut self, tl: usize, due: Cycle, vc: VcId, now: Cycle) {
        // INVARIANT: wake-rule (channels) — an input port frees at most
        // one buffer slot per cycle, so it returns at most one credit per
        // cycle and each (half, due) cell takes one credit.
        self.tx.schedule(tl, due, now, vc);
    }

    /// Applies one boundary message from another cell. `now` is any
    /// cycle in `[creation cycle, due)`; the due cycle's slot is the
    /// same either way, so deferred application is state-identical to a
    /// direct push.
    pub(crate) fn apply_boundary(&mut self, msg: &BoundaryMsg, now: Cycle) {
        debug_assert_eq!(msg.to_cell, self.index);
        match msg.kind {
            MsgKind::Flit { rx, due, flit } => self.push_rx(rx - self.rx_base, due, flit, now),
            MsgKind::Credit { tx, due, vc } => self.push_tx(tx - self.tx_base, due, vc, now),
        }
    }

    // ── Injection ─────────────────────────────────────────────────────

    /// Offers a packet to an owned source tile. Mirrors the historical
    /// `Network::inject` exactly; node-range validation happens at the
    /// caller (which needs it to find the owning cell).
    pub(crate) fn inject(
        &mut self,
        shared: &NetShared,
        spec: &PacketSpec,
        now: Cycle,
        probe: &mut dyn Probe,
    ) -> Result<PacketId, Error> {
        debug_assert!((self.node_base..self.node_end).contains(&spec.src.index()));
        if spec.src == spec.dst {
            return Err(Error::Route(RouteError::Empty));
        }
        let num_flits = spec.num_flits();
        if shared.cfg.flow_control == FlowControl::Deflection && num_flits != 1 {
            return Err(Error::Config(
                "deflection flow control carries single-flit packets only".into(),
            ));
        }
        // A packet the injection queue can never hold is not transient
        // backpressure: no amount of waiting lets it in.
        let max_flits = shared.cfg.inject_queue_flits.min(usize::from(u16::MAX));
        if num_flits > max_flits {
            return Err(Error::Config(format!(
                "a {num_flits}-flit packet exceeds the {max_flits}-flit limit \
                 (the injection queue depth, at most 65535)"
            )));
        }

        let (route, valiant_boundary) =
            self.compute_route(shared, spec.src, spec.dst, spec.class)?;
        if shared.cfg.require_paper_route_field && !route.fits_paper_field() {
            return Err(Error::Route(RouteError::TooLong {
                entries: route.num_entries(),
                limit: SourceRoute::PAPER_FIELD_ENTRIES,
            }));
        }

        if let Some(d) = &spec.data {
            debug_assert_eq!(d.len(), num_flits, "one payload entry per flit");
        }
        // The packet's VC-mask field covers both dateline halves of its
        // class; each router intersects it with its route state's tier.
        // Injection itself happens on the state's first tier.
        let state = RouteState::at_injection(spec.class, valiant_boundary);
        let inject_mask = shared.tiers.mask(state.tier());
        let packet_mask = shared.tiers.packet_mask(spec.class);
        if inject_mask.is_empty() {
            return Err(Error::EmptyVcMask {
                mask: inject_mask.bits(),
            });
        }

        let local = spec.src.index() - self.node_base;
        let iface = &mut self.interfaces[local];
        let vc = iface.choose_vc(inject_mask.iter(), num_flits).ok_or({
            Error::InjectionBackpressure {
                node: spec.src,
                vc: inject_mask.iter().next().expect("non-empty mask"),
            }
        })?;

        // Packet ids are namespaced per source node so concurrent cells
        // allocate without coordination (the layout lives in `PacketId`).
        let id = PacketId::new(spec.src, self.next_seq[local]);
        self.next_seq[local] += 1;
        let flits = flitize(spec, id, route, now, packet_mask, state);
        // INVARIANT: `choose_vc` picked a queue with room for every flit.
        iface.enqueue_packet(vc, flits).expect("space was checked");
        // INVARIANT: wake — a tile with queued flits must stay in the
        // injection set until its queues drain; the bit is cleared only
        // when pending_flits() returns to zero.
        self.wake_injector(local);
        self.stats.packets_injected += 1;
        let (src, dst, packet) = (spec.src, spec.dst, id);
        probe.record(now, Event::Injected { src, dst, packet });
        Ok(id)
    }

    /// Compiles the source route for a packet, returning it and the
    /// length of the first Valiant segment (0 for minimal routes).
    fn compute_route(
        &mut self,
        shared: &NetShared,
        src: NodeId,
        dst: NodeId,
        class: ServiceClass,
    ) -> Result<(SourceRoute, u8), RouteError> {
        // Only bulk traffic is randomized: priority and reserved classes
        // have a single dateline VC pair each, which is only sufficient
        // for single-segment (minimal) routes.
        if shared.cfg.routing == RoutingAlg::DimensionOrder || class != ServiceClass::Bulk {
            return Ok((shared.topo.source_route(src, dst)?, 0));
        }
        // Valiant: src -> random intermediate -> dst. The relative-turn
        // encoding cannot express a reversal at the junction, so resample
        // a few times and fall back to the direct route. The draw stream
        // is per source node, so the pick sequence is independent of the
        // cell cut.
        let n = shared.topo.num_nodes() as u64;
        let rng = &mut self.route_rng[src.index() - self.node_base];
        for _ in 0..16 {
            let mid = NodeId::new(rng.below(n) as u16);
            if mid == src || mid == dst {
                continue;
            }
            let mut dirs = shared.topo.route_dirs(src, mid);
            let seg1_len = dirs.len();
            dirs.extend(shared.topo.route_dirs(mid, dst));
            if dirs.len() > u8::MAX as usize {
                continue;
            }
            if let Ok(route) = SourceRoute::compile(&dirs) {
                return Ok((route, seg1_len as u8));
            }
        }
        // Fallback: the direct route, still carried on the two-segment
        // VC tiers. A boundary of 0 would put this packet on the plain
        // bulk masks, which share VCs with the Valiant segment-0 tier —
        // mixing the two reintroduces the wrap-around cycles the tiers
        // exist to break. Splitting at the dimension-order corner (or
        // the midpoint of a one-dimension run) keeps every fallback
        // packet inside the same monotone tier discipline, and each
        // half is itself a minimal dimension-order route.
        let dirs = shared.topo.route_dirs(src, dst);
        let boundary = match dirs.len() {
            0 | 1 => 0,
            n => {
                let corner = dirs
                    .windows(2)
                    .position(|w| w[0].axis() != w[1].axis())
                    .map(|i| i + 1);
                corner.unwrap_or(n / 2) as u8
            }
        };
        Ok((SourceRoute::compile(&dirs)?, boundary))
    }

    // ── Cycle phases ──────────────────────────────────────────────────

    /// Steps this cell through one cycle — the one place the phase
    /// order is written: channel flits, credits, tile pipes, push-mode
    /// injection at the serialization cadence, router evaluation, then
    /// (when `sample`) the probe-only occupancy samples. Each phase
    /// visits only the entities with work at `now`, in ascending index
    /// order, and debug builds audit that the skipped ones had none.
    pub(crate) fn step_cycle<P: PhasedProbe>(
        &mut self,
        shared: &NetShared,
        now: Cycle,
        probe: &mut P,
        sample: bool,
    ) {
        probe.set_phase(now, 1);
        self.phase_rx(shared, now, probe);
        probe.set_phase(now, 2);
        self.phase_tx(shared, now);
        probe.set_phase(now, 3);
        self.phase_pipes(now, probe);
        #[cfg(debug_assertions)]
        self.audit_delivered(now);
        // Push-mode injection: a serialized tile port accepts one flit
        // per `channel_phits` cycles.
        if now.is_multiple_of(shared.cfg.channel_phits) {
            probe.set_phase(now, 4);
            self.phase_inject(shared, now, probe);
        }
        probe.set_phase(now, 5);
        self.phase_eval(shared, now, probe);
        if sample {
            probe.set_phase(now, 6);
            self.phase_sample(now, probe);
        }
    }

    /// Phase 1: deliver due flits on owned receive halves, ascending.
    fn phase_rx(&mut self, shared: &NetShared, now: Cycle, probe: &mut dyn Probe) {
        let mut idx = std::mem::take(&mut self.idx_scratch);
        idx.clear();
        self.rx.due_into(now, &mut idx);
        for &r in &idx {
            if let Some(flit) = self.rx.take(now, r) {
                self.deliver_rx(shared, r, flit, now, probe);
            }
        }
        self.idx_scratch = idx;
    }

    /// Delivers one flit arriving on local receive half `r`.
    fn deliver_rx(
        &mut self,
        shared: &NetShared,
        r: usize,
        mut flit: Flit,
        now: Cycle,
        probe: &mut dyn Probe,
    ) {
        let meta = &shared.rx_meta[self.rx_base + r];
        let mut hop_corrupt = false;
        if self.faulty_rx_links > 0 {
            let (payload, steering_hit) = self.rx_links[r].transmit(&flit.payload);
            flit.payload = payload;
            hop_corrupt = steering_hit;
        }
        flit.meta.route_state.delivered_over(meta.dateline);
        let (dst, port) = (meta.dst, meta.in_port);
        let rng = &mut self.rx_rng[r];
        if shared.transient_rate > 0.0
            && (rng.next_u64() as f64 / u64::MAX as f64) < shared.transient_rate
        {
            flit.payload.flip_bit(rng.below(256) as usize);
            hop_corrupt = true;
        }
        // Link-level SEC-DED repairs single-bit damage at the
        // receiving router (paper §2.5's alternative protocol).
        if hop_corrupt && shared.secded {
            match crate::ecc::decode(&mut flit.payload, flit.meta.ecc) {
                crate::ecc::EccOutcome::Corrected { .. } => {
                    hop_corrupt = false;
                    self.stats.ecc_corrections += 1;
                }
                crate::ecc::EccOutcome::Uncorrectable => {
                    self.stats.ecc_uncorrectable += 1;
                }
                crate::ecc::EccOutcome::Clean => {}
            }
        }
        flit.meta.corrupted |= hop_corrupt;
        if flit.kind.is_head() {
            probe.record(
                now,
                Event::HeadArrived {
                    node: dst,
                    in_port: port,
                    packet: flit.meta.packet,
                },
            );
        }
        let local = dst.index() - self.node_base;
        self.routers[local].receive(port, flit);
        // INVARIANT: wake — the receive above gave the router work.
        self.wake_router(local);
    }

    /// Phase 2: deliver due credits on owned transmit halves, ascending.
    fn phase_tx(&mut self, shared: &NetShared, now: Cycle) {
        let mut idx = std::mem::take(&mut self.idx_scratch);
        idx.clear();
        self.tx.due_into(now, &mut idx);
        for &t in &idx {
            let Some(vc) = self.tx.take(now, t) else {
                continue;
            };
            // A credit returns to the channel's source router.
            let meta = &shared.tx_meta[self.tx_base + t];
            let local = meta.src.index() - self.node_base;
            self.routers[local].credit_arrived(Port::Dir(meta.dir), vc);
            if !self.routers[local].is_quiescent() {
                // INVARIANT: wake — a fresh credit can unblock a
                // credit-stalled flit at the source router. A quiescent
                // router has nothing to send, so a credit alone cannot
                // make its evaluation a non-no-op and needs no wake.
                self.wake_router(local);
            }
        }
        self.idx_scratch = idx;
    }

    /// Phase 3: deliver due tile-pipe flits for owned nodes, ascending
    /// (node by node, inject pipe before eject pipe).
    fn phase_pipes(&mut self, now: Cycle, probe: &mut dyn Probe) {
        let mut idx = std::mem::take(&mut self.idx_scratch);
        idx.clear();
        self.pipes.due_into(now, &mut idx);
        for &p in &idx {
            if let Some(flit) = self.pipes.take(now, p) {
                self.deliver_pipe(p, flit, now, probe);
            }
        }
        self.idx_scratch = idx;
    }

    /// Delivers one flit leaving local pipe `p`: an inject-pipe flit to
    /// its router, an eject-pipe flit to its tile interface.
    fn deliver_pipe(&mut self, p: usize, flit: Flit, now: Cycle, probe: &mut dyn Probe) {
        let i = p / 2;
        let node = NodeId::new((self.node_base + i) as u16);
        let packet = flit.meta.packet;
        if p.is_multiple_of(2) {
            if flit.kind.is_head() {
                let in_port = Port::Tile;
                probe.record(
                    now,
                    Event::HeadArrived {
                        node,
                        in_port,
                        packet,
                    },
                );
            }
            self.routers[i].receive(Port::Tile, flit);
            // INVARIANT: wake — the receive above gave the router work.
            self.wake_router(i);
        } else {
            let vc = flit.link_vc;
            if flit.kind.is_head() {
                probe.record(now, Event::HeadEjected { node, packet });
            }
            self.interfaces[i].receive(flit, now, probe);
            self.routers[i].credit_arrived(Port::Tile, vc);
            if !self.routers[i].is_quiescent() {
                // INVARIANT: wake — the tile-port credit can unblock a
                // credit-stalled ejection at this router. As above, a
                // quiescent router cannot use a credit this cycle.
                self.wake_router(i);
            }
        }
    }

    /// Phase 4: push-mode injection for owned tiles with queued flits.
    /// The caller gates on the serialization cadence
    /// (`now % channel_phits == 0`).
    fn phase_inject(&mut self, shared: &NetShared, now: Cycle, probe: &mut dyn Probe) {
        let mut idx = std::mem::take(&mut self.idx_scratch);
        idx.clear();
        self.inject_pending.collect_into(&mut idx);
        #[cfg(debug_assertions)]
        audit_asleep(&idx, self.interfaces.len(), |i| {
            assert!(
                !self.interfaces[i].injection_pending(),
                "tile {} has flits queued but is asleep at {now}",
                self.node_base + i
            );
        });
        for &i in &idx {
            self.push_injection(shared, i, now, probe);
        }
        self.idx_scratch = idx;
    }

    /// Offers local node `i`'s tile port one push-mode injection slot.
    fn push_injection(&mut self, shared: &NetShared, i: usize, now: Cycle, probe: &mut dyn Probe) {
        if self.routers[i].pulls_injection() {
            return;
        }
        if let Some(flit) = self.interfaces[i].pick_injection(now) {
            if flit.kind.is_head() {
                probe.record(
                    now,
                    Event::Entered {
                        node: NodeId::new((self.node_base + i) as u16),
                        packet: flit.meta.packet,
                        num_flits: flit.meta.packet_len,
                        class: flit.meta.class,
                    },
                );
            }
            // INVARIANT: wake-rule (pipes) — a tile injects at most one
            // flit per cycle, so its inject pipe's (node, due) cell is
            // free; the entry is delivered when the pipe latency elapses.
            self.pipes
                .schedule(2 * i, now + shared.inject_latency, now, flit);
            if !self.interfaces[i].injection_pending() {
                // INVARIANT: the injection bit is cleared only when the
                // tile's queues are empty; the next enqueue re-sets it.
                self.inject_pending.clear(i);
            }
        }
    }

    /// Phase 5: evaluate awake owned routers, ascending. A pull-mode
    /// (deflection) router is also awake while its tile has an offer.
    fn phase_eval(&mut self, shared: &NetShared, now: Cycle, probe: &mut dyn Probe) {
        let mut idx = std::mem::take(&mut self.idx_scratch);
        idx.clear();
        if shared.cfg.flow_control == FlowControl::Deflection {
            self.active_routers
                .collect_union_into(&self.inject_pending, &mut idx);
        } else {
            self.active_routers.collect_into(&mut idx);
        }
        #[cfg(debug_assertions)]
        audit_asleep(&idx, self.routers.len(), |i| {
            let r = &self.routers[i];
            let offer = r.pulls_injection() && self.interfaces[i].injection_pending();
            assert!(
                r.is_quiescent() && !offer,
                "router {} busy but asleep at {now}",
                self.node_base + i
            );
        });
        for &i in &idx {
            self.evaluate_router(shared, i, now, probe);
        }
        self.idx_scratch = idx;
    }

    /// Evaluates local router `i` for this cycle and applies its output.
    fn evaluate_router(&mut self, shared: &NetShared, i: usize, now: Cycle, probe: &mut dyn Probe) {
        // Pull-mode cores are offered a *reference* to the next queued
        // flit, gated on the O(1) pending check; the 256-bit payload is
        // only copied if the router consumes the offer.
        let offered = if self.routers[i].pulls_injection() && self.interfaces[i].injection_pending()
        {
            self.interfaces[i].peek_injection()
        } else {
            None
        };
        let offered_head = offered.map(|f| (f.meta.packet, f.meta.packet_len, f.meta.class));
        let env = EvalEnv {
            now,
            reservations: shared
                .reservations
                .as_ref()
                .map(|t| (t, shared.cfg.reservation_policy)),
            topo: shared.topo.as_ref(),
        };
        self.out_scratch.clear();
        let consumed = self.routers[i].evaluate(&env, offered, &mut self.out_scratch, probe);
        if consumed {
            // The router copied the peeked flit; remove the original from
            // the interface queue. Pull-mode injection enters the network
            // and arrives at the source router in the same cycle (no
            // inject pipe).
            if let Some((packet, num_flits, class)) = offered_head {
                let node = NodeId::new((self.node_base + i) as u16);
                probe.record(
                    now,
                    Event::Entered {
                        node,
                        packet,
                        num_flits,
                        class,
                    },
                );
                probe.record(
                    now,
                    Event::HeadArrived {
                        node,
                        in_port: Port::Tile,
                        packet,
                    },
                );
            }
            self.interfaces[i]
                .pick_injection(now)
                .expect("peeked flit still queued");
            if !self.interfaces[i].injection_pending() {
                // INVARIANT: the injection bit is cleared only when the
                // tile's queues are empty; the next enqueue re-sets it.
                self.inject_pending.clear(i);
            }
        }
        self.apply_router_output(shared, i, now, probe);
        if self.routers[i].is_quiescent() {
            // INVARIANT: quiescence makes the next evaluation a no-op by
            // the `RouterCore::is_quiescent` contract, so dropping the
            // router from the active set cannot change any result; any
            // later receive/credit re-wakes it.
            self.active_routers.clear(i);
        } else {
            // INVARIANT: wake — buffered or staged flits remain, so the
            // router must be evaluated again next cycle.
            self.wake_router(i);
        }
    }

    /// Drains the launch/credit scratch local router `i` just wrote.
    /// Pushes targeting this cell land directly; pushes crossing a cell
    /// boundary are queued as [`BoundaryMsg`]s (both carry future due
    /// cycles, so timing is identical either way).
    fn apply_router_output(
        &mut self,
        shared: &NetShared,
        i: usize,
        now: Cycle,
        probe: &mut dyn Probe,
    ) {
        let node = self.node_base + i;
        let node_id = NodeId::new(node as u16);
        let links = &shared.port_links[node];
        // The scratch moves out of `self` for the drain so the push
        // helpers can borrow the cell; it is handed back below.
        let mut out = std::mem::take(&mut self.out_scratch);
        for (port, mut flit) in out.launches.drain() {
            if shared.secded && matches!(port, Port::Dir(_)) {
                flit.meta.ecc = crate::ecc::encode(&flit.payload);
            }
            let bits = flit.active_bits() as u64;
            self.stats.flit_hops += 1;
            self.stats.hop_bits += bits;
            probe.record(
                now,
                Event::Forwarded {
                    node: node_id,
                    port,
                    vc: flit.link_vc,
                    packet: flit.meta.packet,
                },
            );
            match port {
                Port::Dir(d) => {
                    // INVARIANT: routes only name existing channels.
                    let link = links[d.index()]
                        .out
                        .expect("router launched into an existing channel");
                    // The transmit half of an owned node's outgoing
                    // channel is always owned here.
                    let tl = link.tx as usize - self.tx_base;
                    self.tx_flits_carried[tl] += 1;
                    self.tx_bit_pitches[tl] += bits as f64 * link.length_pitches;
                    let (rx, to_cell) = (link.rx as usize, link.to_cell as usize);
                    let due = now + shared.flit_latency;
                    if to_cell == self.index {
                        self.push_rx(rx - self.rx_base, due, flit, now);
                    } else {
                        self.outbox.push(BoundaryMsg {
                            to_cell,
                            kind: MsgKind::Flit { rx, due, flit },
                        });
                    }
                }
                Port::Tile => {
                    let due = now + shared.cfg.channel_latency;
                    // INVARIANT: wake-rule (pipes) — a router ejects at
                    // most one flit per cycle (the tile port is one output
                    // link), so its eject pipe's (node, due) cell is free.
                    self.pipes.schedule(2 * i + 1, due, now, flit);
                }
            }
        }
        for (port, vc) in out.credits.drain() {
            match port {
                Port::Dir(q) => {
                    // INVARIANT: a credit frees a slot a flit filled,
                    // and flits only arrive on existing channels.
                    let link = links[q.index()]
                        .inc
                        .expect("credit for an existing channel");
                    let (t, to_cell) = (link.up_tx as usize, link.up_cell as usize);
                    let due = now + shared.cfg.credit_latency;
                    if to_cell == self.index {
                        self.push_tx(t - self.tx_base, due, vc, now);
                    } else {
                        self.outbox.push(BoundaryMsg {
                            to_cell,
                            kind: MsgKind::Credit { tx: t, due, vc },
                        });
                    }
                }
                Port::Tile => self.interfaces[i].credit_return(vc),
            }
        }
        self.out_scratch = out;
    }

    /// Phase 6: per-cycle buffer-occupancy samples for owned routers.
    fn phase_sample(&mut self, now: Cycle, probe: &mut dyn Probe) {
        for (i, r) in self.routers.iter().enumerate() {
            let node = NodeId::new((self.node_base + i) as u16);
            let occupancy = r.occupancy();
            probe.record(now, Event::BufferSample { node, occupancy });
        }
    }

    /// Wake audit, after the delivery phases: every flit and credit due
    /// at `now` was delivered, and none was filed into the slot just
    /// taken.
    #[cfg(debug_assertions)]
    fn audit_delivered(&mut self, now: Cycle) {
        let mut idx = std::mem::take(&mut self.idx_scratch);
        idx.clear();
        self.rx.due_into(now, &mut idx);
        self.tx.due_into(now, &mut idx);
        self.pipes.due_into(now, &mut idx);
        assert!(
            idx.is_empty(),
            "cell {}: entries left due at {now}",
            self.index
        );
        self.idx_scratch = idx;
    }
}

/// Wake audit (debug builds, DESIGN.md §3.13): runs `check` on every
/// index in `0..n` that the ascending visit list `awake` skips — the
/// entities a phase takes to have nothing to do.
#[cfg(debug_assertions)]
fn audit_asleep(awake: &[usize], n: usize, mut check: impl FnMut(usize)) {
    let mut awake = awake.iter().peekable();
    for i in 0..n {
        if awake.next_if_eq(&&i).is_none() {
            check(i);
        }
    }
}

/// The flit sequence of a packet, generated as the interface queue
/// takes it. `inject` bounds `spec.num_flits()` to `u16::MAX`.
pub(crate) fn flitize(
    spec: &PacketSpec,
    id: PacketId,
    route: SourceRoute,
    now: Cycle,
    vc_mask: VcMask,
    route_state: RouteState,
) -> impl ExactSizeIterator<Item = Flit> + '_ {
    let num_flits = spec.num_flits();
    let packet_len = u16::try_from(num_flits).expect("inject bounds the flit count");
    let payload_bits = spec.payload_bits.max(1);
    (0..num_flits).map(move |i| {
        let bits = (payload_bits - i * FLIT_DATA_BITS).min(FLIT_DATA_BITS);
        let kind = match (i == 0, i == num_flits - 1) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        };
        let payload = spec
            .data
            .as_ref()
            .and_then(|d| d.get(i).copied())
            .unwrap_or_else(|| Payload::from_u64(id.0 << 8 | i as u64));
        Flit {
            kind,
            size: SizeCode::for_bits(bits).expect("1..=256 bits per flit"),
            vc_mask,
            route,
            payload,
            link_vc: VcId::new(0),
            resolved_port: None,
            meta: FlitMeta {
                packet: id,
                src: spec.src,
                dst: spec.dst,
                flit_index: i as u16,
                packet_len,
                created_at: now,
                injected_at: now,
                class: spec.class,
                flow: spec.flow,
                route_state,
                ecc: 0,
                corrupted: false,
            },
        }
    })
}

// ── Threaded-runner surface ───────────────────────────────────────────

/// An exclusive handle on one cell, borrowing the shared state
/// immutably: the disjoint-ownership seam the threaded shard runner
/// steps cells through in parallel. Obtained from
/// [`crate::Network::shard_handles`].
pub struct ShardHandle<'a> {
    pub(crate) shared: &'a NetShared,
    pub(crate) cell: &'a mut ShardCell,
}

impl ShardHandle<'_> {
    /// This cell's index.
    pub fn cell_index(&self) -> usize {
        self.cell.index
    }

    /// The global node range this cell owns.
    pub fn nodes(&self) -> std::ops::Range<usize> {
        self.cell.node_base..self.cell.node_end
    }

    /// Offers a packet to an owned source tile, exactly as
    /// [`crate::Network::inject`] would.
    ///
    /// # Errors
    ///
    /// As [`crate::Network::inject`].
    ///
    /// # Panics
    ///
    /// Panics if `spec.src` is in range but not owned by this cell.
    pub fn inject(
        &mut self,
        spec: &PacketSpec,
        now: Cycle,
        probe: &mut dyn Probe,
    ) -> Result<PacketId, Error> {
        let n = self.shared.topo.num_nodes();
        for node in [spec.src, spec.dst] {
            if node.index() >= n {
                return Err(Error::NodeOutOfRange { node, nodes: n });
            }
        }
        assert!(
            self.nodes().contains(&spec.src.index()),
            "inject through the owning cell's handle"
        );
        self.cell.inject(self.shared, spec, now, probe)
    }

    /// Steps this cell through one cycle's phases. `sample` controls
    /// the probe-only buffer-occupancy sweep (phase 6).
    pub fn step_cycle<P: PhasedProbe>(&mut self, now: Cycle, probe: &mut P, sample: bool) {
        self.cell.step_cycle(self.shared, now, probe, sample);
    }

    /// Moves the boundary messages generated since the last call into
    /// `by_cell[dest_cell()]`, in creation order. Route them before any
    /// cell steps past the current lookahead window. The outbox keeps
    /// its allocation, so a runner that routes every window allocates
    /// nothing for it.
    pub fn route_outbox(&mut self, by_cell: &mut [Vec<BoundaryMsg>]) {
        for m in self.cell.outbox.drain(..) {
            by_cell[m.dest_cell()].push(m);
        }
    }

    /// Applies boundary messages addressed to this cell. `now` must be
    /// the last cycle this cell has executed.
    pub fn apply_boundary(&mut self, msgs: impl IntoIterator<Item = BoundaryMsg>, now: Cycle) {
        for m in msgs {
            self.cell.apply_boundary(&m, now);
        }
    }

    /// Moves the packets delivered to owned node `node` onto the end of
    /// `out`, in delivery order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not owned by this cell.
    pub fn drain_delivered_into(&mut self, node: NodeId, out: &mut Vec<DeliveredPacket>) {
        assert!(self.nodes().contains(&node.index()), "drain an owned node");
        self.cell.interfaces[node.index() - self.cell.node_base].drain_delivered_into(out);
    }

    /// Snapshot of this cell's energy-counter contributions. Summing
    /// the integer fields and left-folding the per-link `bit_pitches`
    /// vectors in cell order reproduces the sequential
    /// `NetworkStats::energy` bit-for-bit (same additions, same order).
    pub fn energy_snapshot(&self) -> CellEnergySnapshot {
        CellEnergySnapshot {
            flit_hops: self.cell.stats.flit_hops,
            hop_bits: self.cell.stats.hop_bits,
            link_flits: self.cell.tx_flits_carried.iter().sum(),
            bit_pitches: self.cell.tx_bit_pitches.clone(),
        }
    }
}

/// One cell's contribution to [`crate::network::EnergyCounters`] at a
/// landmark cycle.
#[derive(Debug, Clone)]
pub struct CellEnergySnapshot {
    /// Router traversals in this cell.
    pub flit_hops: u64,
    /// Active bits over those traversals.
    pub hop_bits: u64,
    /// Flits carried by this cell's transmit halves.
    pub link_flits: u64,
    /// Per-transmit-half bit×pitch accumulators, in global tx order.
    pub bit_pitches: Vec<f64>,
}

// ── Deterministic probe log ───────────────────────────────────────────

/// A [`Probe`] that also accepts a `(cycle, phase)` context so threaded
/// shards can tag events for deterministic merging.
pub trait PhasedProbe: Probe {
    /// Sets the context stamped onto subsequent events.
    fn set_phase(&mut self, now: Cycle, phase: u8);
}

impl PhasedProbe for NoProbe {
    fn set_phase(&mut self, _now: Cycle, _phase: u8) {}
}

/// A network's own probe sees events in the order one cell records
/// them, so it needs no phase tags.
impl PhasedProbe for NetworkProbe {
    fn set_phase(&mut self, _now: Cycle, _phase: u8) {}
}

/// One recorded event, tagged with the phase it was emitted in.
#[derive(Debug, Clone)]
pub struct LogEvent {
    pub(crate) cycle: Cycle,
    pub(crate) phase: u8,
    /// `event.key()`: within one `(cycle, phase)` the sequential engine
    /// emits events in ascending key order, and all events of one key
    /// come from a single cell.
    pub(crate) key: NodeId,
    pub(crate) event: Event,
}

// Every event of a probed windowed run waits in a log until its
// hand-off is replayed.
const _: () = assert!(std::mem::size_of::<LogEvent>() <= 40);

/// Records every event as a [`LogEvent`] tagged with the current
/// phase. A threaded shard runner gives each worker its own
/// `LogProbe`; [`replay_logs`] then merges the per-worker logs into the
/// sequential event order and replays them into a real
/// [`crate::NetworkProbe`], reproducing its metrics bit-for-bit.
#[derive(Debug, Default)]
pub struct LogProbe {
    phase: u8,
    events: Vec<LogEvent>,
}

impl LogProbe {
    /// The recorded events (sorted by `(cycle, phase, key)` within this
    /// log by construction).
    pub fn into_events(self) -> Vec<LogEvent> {
        self.events
    }

    /// Events recorded since the last [`Self::swap_events`].
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event was recorded since the last
    /// [`Self::swap_events`].
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Exchanges the recorded events with `buf`: a streaming runner
    /// hands the log off at a window boundary and keeps recording into
    /// the (emptied) buffer it got back.
    pub fn swap_events(&mut self, buf: &mut Vec<LogEvent>) {
        std::mem::swap(&mut self.events, buf);
    }
}

impl PhasedProbe for LogProbe {
    fn set_phase(&mut self, _now: Cycle, phase: u8) {
        self.phase = phase;
    }
}

impl Probe for LogProbe {
    fn record(&mut self, now: Cycle, event: Event) {
        self.events.push(LogEvent {
            cycle: now,
            phase: self.phase,
            key: event.key(),
            event,
        });
    }
}

/// Merges per-worker event logs into the sequential engine's event
/// order and replays them into `probe`.
///
/// Each log is sorted by `(cycle, phase, key)` (workers visit their
/// owned entities in ascending order within each phase), and within one
/// `(cycle, phase)` all events of a given key come from exactly one
/// worker, so a stable k-way merge on `(cycle, phase, key, worker)`
/// reproduces the order a single-cell run would have emitted.
///
/// The logs may cover any stretch of cycles, provided every log stops
/// at the same cycle boundary: replaying consecutive stretches one
/// after another then gives the whole run's order.
pub fn replay_logs<L: AsRef<[LogEvent]>>(logs: &[L], probe: &mut dyn Probe) {
    if let [log] = logs {
        for e in log.as_ref() {
            probe.record(e.cycle, e.event);
        }
        return;
    }
    let mut pos = vec![0usize; logs.len()];
    loop {
        let mut best: Option<(u64, u8, NodeId, usize)> = None;
        for (w, log) in logs.iter().enumerate() {
            if let Some(e) = log.as_ref().get(pos[w]) {
                let key = (e.cycle, e.phase, e.key, w);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let Some((_, _, _, w)) = best else { break };
        let e = &logs[w].as_ref()[pos[w]];
        probe.record(e.cycle, e.event);
        pos[w] += 1;
    }
}
