//! Per-packet latency decomposition: journey records, stage breakdowns,
//! bottleneck attribution, and deterministic exporters.
//!
//! The paper's central quantitative claim (§3) is the latency equation
//! `T = H·t_r + L/b` plus contention. The aggregate counters and
//! histograms in [`crate::probe`] show *that* latency grows near
//! saturation; this module shows *where* the cycles go. A
//! [`JourneyCollector`] rides inside [`crate::probe::NetworkProbe`]
//! (enabled with [`crate::probe::ProbeConfig::with_journeys`]) and
//! timestamps every waypoint of every packet's life:
//!
//! ```text
//! created ── source queue ──▶ entered ── inject pipe ──▶ arrive(1)
//!   arrive(k) ─ VC alloc ─▶ grant(k) ─ switch ─▶ stage(k) ─ link ─▶ forward(k)
//!   forward(k) ── channel ──▶ arrive(k+1) … forward(H) ──▶ head eject
//!   head eject ── serialization (L/b tail-following) ──▶ delivered
//! ```
//!
//! Because the stages are differences of consecutive waypoints, the
//! per-packet [`LatencyBreakdown`] telescopes: its components sum to the
//! measured network latency *exactly*, cycle for cycle (the
//! reconciliation invariant, enforced by `tests/journey.rs`). Contention
//! sub-stages (VC-allocation conflicts, credit stalls, preemption
//! suspensions) are carved out of their enclosing pipeline stage from the
//! per-cycle stall events the routers already report, so the partition
//! stays exact.
//!
//! Every event costs the collector O(1), not a search: in-flight
//! journeys sit in per-source windows indexed by the sequence number
//! packed into each [`PacketId`] (see [`PacketId::new`]), links in a
//! dense table indexed `node · Port::COUNT + port`, and stage sums in a
//! class-indexed vector and a [`PairTable`]. Freezing walks each table
//! in ascending key order, so reports and exports do not depend on
//! that layout.
//!
//! A finished run freezes into a [`DecompositionReport`]: per-class and
//! per-(src, dst) stage shares, the analytic zero-load baseline
//! `H·t_r + L/b` against the measurement, per-link stall attribution
//! ([`DecompositionReport::bottlenecks`]), and two deterministic
//! exporters — the `ocin-journeys v1` text format and Chrome
//! `trace_event` JSON that loads in Perfetto (one track per router
//! input port, one async span per packet journey).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

use crate::config::{FlowControl, LinkProtection, NetworkConfig};
use crate::ids::{Cycle, NodeId, PacketId, Port, VcId};
use crate::probe::{Event, PairTable};

/// Pipeline constants a zero-load journey is made of, captured from the
/// [`NetworkConfig`] so the analytic baseline `H·t_r + L/b` can be
/// computed per packet from its actual hop and flit counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageConstants {
    /// Cycles a flit spends on a channel wire.
    pub channel_latency: u64,
    /// Cycles of routing/arbitration pipeline per router.
    pub router_delay: u64,
    /// Whether SEC-DED adds a decode cycle per channel traversal.
    pub secded: bool,
    /// Phits per flit: a link accepts one flit every `channel_phits`
    /// cycles, so a flit's last phit trails its first by
    /// `channel_phits − 1`.
    pub channel_phits: u64,
    /// Deflection routers pull injections combinationally (no inject
    /// pipe); the other cores push through a tile-out pipeline stage.
    pub pull_injection: bool,
}

impl StageConstants {
    /// The paper-baseline pipeline: unit channel and router latency,
    /// one phit per flit, no SEC-DED, pushed injection.
    pub fn paper_baseline() -> StageConstants {
        StageConstants {
            channel_latency: 1,
            router_delay: 1,
            secded: false,
            channel_phits: 1,
            pull_injection: false,
        }
    }

    /// Constants for `cfg`'s pipeline.
    pub fn for_network(cfg: &NetworkConfig) -> StageConstants {
        StageConstants {
            channel_latency: cfg.channel_latency,
            router_delay: cfg.router_delay,
            secded: cfg.link_protection == LinkProtection::Secded,
            channel_phits: cfg.channel_phits,
            pull_injection: cfg.flow_control == FlowControl::Deflection,
        }
    }

    /// Head latency of one inter-router channel traversal: wire, route
    /// computation, optional SEC-DED decode, and phit serialization of
    /// the flit itself.
    pub fn link_latency(&self) -> u64 {
        self.channel_latency + self.router_delay + u64::from(self.secded) + (self.channel_phits - 1)
    }

    /// Head latency from leaving the source queue to arriving at the
    /// source router (0 for pull-mode injection).
    pub fn inject_latency(&self) -> u64 {
        if self.pull_injection {
            0
        } else {
            self.channel_latency + self.router_delay + (self.channel_phits - 1)
        }
    }

    /// The paper's zero-load latency `H·t_r + L/b` for a packet that
    /// visited `routers_visited` routers and carried `flits` flits:
    /// inject pipe, `H − 1` channel traversals, the ejection wire, and
    /// the tail trailing the head by `(F − 1)` link-service times.
    pub fn zero_load_latency(&self, routers_visited: u64, flits: u64) -> u64 {
        self.inject_latency()
            + routers_visited.saturating_sub(1) * self.link_latency()
            + self.channel_latency
            + flits.saturating_sub(1) * self.channel_phits
    }
}

/// Where a delivered packet's cycles went, as an exact partition of its
/// measured network latency (entered → delivered). Every field is a
/// difference of consecutive waypoint timestamps, so
/// [`LatencyBreakdown::network_total`] telescopes back to the
/// end-to-end measurement cycle-for-cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Cycles queued at the source tile before entering the network
    /// (created → entered). *Not* part of the network latency; add it
    /// for the total (created → delivered) latency.
    pub source_queue: u64,
    /// Tile-out pipeline at the source (entered → first arrival).
    pub inject_pipe: u64,
    /// Waiting for an output VC grant, summed over hops (arrive →
    /// grant).
    pub vc_alloc: u64,
    /// Waiting for the switch after the grant, minus credit stalls
    /// (grant → stage).
    pub switch_wait: u64,
    /// Cycles the granted output VC had no downstream credit (carved
    /// out of grant → stage).
    pub credit_stall: u64,
    /// Cycles a staged flit was bypassed by a higher class (carved out
    /// of stage → forward).
    pub preempt: u64,
    /// Waiting staged for the output link, minus preemptions (stage →
    /// forward).
    pub link_wait: u64,
    /// Wire, route-computation, and SEC-DED pipeline cycles (forward →
    /// next arrival, plus the ejection wire).
    pub channel: u64,
    /// Tail trailing the head at the destination (head eject →
    /// delivered): the paper's `L/b` term, plus any body-flit stalls.
    pub serialization: u64,
}

impl LatencyBreakdown {
    /// Sum of the network stages: equals the measured network latency
    /// (entered → delivered) for every consistent journey.
    pub fn network_total(&self) -> u64 {
        self.inject_pipe
            + self.vc_alloc
            + self.switch_wait
            + self.credit_stall
            + self.preempt
            + self.link_wait
            + self.channel
            + self.serialization
    }

    /// The contention stages (everything a zero-load packet never
    /// waits on): VC allocation, switch, credit, preemption, and link
    /// waits.
    pub fn contention(&self) -> u64 {
        self.vc_alloc + self.switch_wait + self.credit_stall + self.preempt + self.link_wait
    }

    /// Stage names and values, in waypoint order, for rendering.
    pub fn stages(&self) -> [(&'static str, u64); 9] {
        [
            ("source_queue", self.source_queue),
            ("inject_pipe", self.inject_pipe),
            ("vc_alloc", self.vc_alloc),
            ("switch_wait", self.switch_wait),
            ("credit_stall", self.credit_stall),
            ("preempt", self.preempt),
            ("link_wait", self.link_wait),
            ("channel", self.channel),
            ("serialization", self.serialization),
        ]
    }
}

/// One router visit of one packet's head flit: the per-hop pipeline
/// waypoints and the stall cycles observed between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// The router visited.
    pub node: NodeId,
    /// Input port the head arrived on ([`Port::Tile`] at the source).
    pub in_port: Port,
    /// Output port the hop left through (`None` until granted/launched).
    pub out_port: Option<Port>,
    /// Output VC the hop was granted (`None` for cores without VCs).
    pub out_vc: Option<VcId>,
    /// Cycle the head arrived at this router.
    pub arrived: Cycle,
    /// Cycle the output VC was granted (VC flow control only).
    pub granted: Option<Cycle>,
    /// Cycle the head traversed the switch into output staging.
    pub staged: Option<Cycle>,
    /// Cycle the head launched onto the output link.
    pub forwarded: Option<Cycle>,
    /// Cycles the head's VC request was denied here.
    pub vc_conflict_cycles: u64,
    /// Cycles the head sat granted but creditless here.
    pub credit_stall_cycles: u64,
    /// Cycles the staged head was bypassed by a higher class here.
    pub preempt_cycles: u64,
}

impl HopRecord {
    fn new(node: NodeId, in_port: Port, arrived: Cycle) -> HopRecord {
        HopRecord {
            node,
            in_port,
            out_port: None,
            out_vc: None,
            arrived,
            granted: None,
            staged: None,
            forwarded: None,
            vc_conflict_cycles: 0,
            credit_stall_cycles: 0,
            preempt_cycles: 0,
        }
    }

    /// Head residency at this router (arrival → launch); 0 at zero load.
    pub fn residency(&self) -> u64 {
        self.forwarded.map_or(0, |f| f - self.arrived)
    }
}

/// A delivered packet's full life, with its exact stage breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketJourney {
    /// The packet.
    pub packet: PacketId,
    /// Source tile.
    pub src: NodeId,
    /// Destination tile.
    pub dst: NodeId,
    /// Service-class arbitration priority (0 = bulk, 2 = reserved).
    pub class: u8,
    /// Flits the packet serialized into.
    pub flits: u16,
    /// Cycle the packet was offered at its source tile port.
    pub created_at: Cycle,
    /// Cycle the head left the source queue into the network.
    pub entered_at: Cycle,
    /// Cycle the head reached the destination tile port.
    pub head_ejected_at: Cycle,
    /// Cycle the tail reached the destination tile port.
    pub delivered_at: Cycle,
    /// Router visits, in order (Valiant routes may revisit a node).
    pub hops: Vec<HopRecord>,
    /// The exact stage partition of the network latency.
    pub breakdown: LatencyBreakdown,
    /// Analytic zero-load latency `H·t_r + L/b` for this packet's
    /// actual hop and flit counts.
    pub baseline: u64,
    /// Whether the waypoints were monotone and the breakdown reconciled
    /// exactly with the measured latency (always true in practice; a
    /// false value is a collector bug surfaced rather than hidden).
    pub consistent: bool,
}

impl PacketJourney {
    /// Measured network latency (entered → delivered).
    pub fn network_latency(&self) -> u64 {
        self.delivered_at - self.entered_at
    }

    /// Measured latency above the analytic zero-load baseline.
    pub fn contention_surplus(&self) -> u64 {
        self.network_latency().saturating_sub(self.baseline)
    }
}

/// Stage-cycle sums over a population of journeys (everything needed
/// for stage *shares* without storing the journeys themselves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSums {
    /// Journeys accumulated.
    pub count: u64,
    /// Σ measured network latency.
    pub measured: u64,
    /// Σ analytic zero-load baseline.
    pub baseline: u64,
    /// Σ per-stage cycles, same partition as [`LatencyBreakdown`].
    pub stages: LatencyBreakdown,
}

impl StageSums {
    fn add(&mut self, j: &PacketJourney) {
        self.count += 1;
        self.measured += j.network_latency();
        self.baseline += j.baseline;
        let b = &j.breakdown;
        let s = &mut self.stages;
        s.source_queue += b.source_queue;
        s.inject_pipe += b.inject_pipe;
        s.vc_alloc += b.vc_alloc;
        s.switch_wait += b.switch_wait;
        s.credit_stall += b.credit_stall;
        s.preempt += b.preempt;
        s.link_wait += b.link_wait;
        s.channel += b.channel;
        s.serialization += b.serialization;
    }

    /// Mean measured network latency (0 when empty).
    pub fn mean_measured(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.measured as f64 / self.count as f64
        }
    }

    /// Mean analytic zero-load baseline (0 when empty).
    pub fn mean_baseline(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.baseline as f64 / self.count as f64
        }
    }

    /// Σ measured − Σ baseline: the population's contention surplus.
    pub fn contention_surplus(&self) -> u64 {
        self.measured.saturating_sub(self.baseline)
    }

    /// A stage's share of the summed measured latency, in `[0, 1]`.
    pub fn share(&self, stage_cycles: u64) -> f64 {
        if self.measured == 0 {
            0.0
        } else {
            stage_cycles as f64 / self.measured as f64
        }
    }
}

/// Stall attribution for one router output link, for bottleneck
/// ranking: which links burn the most waiting cycles, and whose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStall {
    /// Router the link leaves.
    pub node: u16,
    /// Output-port index ([`Port::index`]).
    pub port: u8,
    /// Head-flit cycles denied an output VC here.
    pub vc_conflicts: u64,
    /// Flit cycles blocked on a missing downstream credit here.
    pub credit_stalls: u64,
    /// Staged-flit cycles bypassed by a higher class here.
    pub preemptions: u64,
    /// Stall cycles by service-class priority (bulk, priority,
    /// reserved) of the stalled packet.
    pub per_class: [u64; 3],
    /// Credit-stall cycles per output VC (the only stall kind the
    /// routers report per VC).
    pub per_vc_credit: Vec<u64>,
    /// Σ head residency (arrival → launch) of delivered packets that
    /// left through this port; 0 everywhere at zero load.
    pub residency: u64,
}

impl LinkStall {
    fn new(node: u16, port: u8, num_vcs: usize) -> LinkStall {
        LinkStall {
            node,
            port,
            vc_conflicts: 0,
            credit_stalls: 0,
            preemptions: 0,
            per_class: [0; 3],
            per_vc_credit: vec![0; num_vcs],
            residency: 0,
        }
    }

    /// Total stall cycles attributed to this link (the ranking key of
    /// [`DecompositionReport::bottlenecks`]).
    pub fn stall_cycles(&self) -> u64 {
        self.vc_conflicts + self.credit_stalls + self.preemptions
    }
}

/// A pending (in-flight) journey under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PendingJourney {
    src: NodeId,
    dst: NodeId,
    class: u8,
    flits: u16,
    created_at: Cycle,
    entered_at: Option<Cycle>,
    head_ejected_at: Option<Cycle>,
    hops: Vec<HopRecord>,
}

/// How far past the end of its source's window a new packet's sequence
/// number may land and still be stored there (the gap is filled with
/// empty slots).
const WINDOW_GAP_LIMIT: u64 = 1024;

/// The in-flight journeys of one source node, indexed by sequence
/// number: `slots[i]` holds packet `base + i`. Finished slots are
/// trimmed from the front, so the window starts at the source's oldest
/// in-flight packet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SourceWindow {
    base: u64,
    slots: VecDeque<Option<PendingJourney>>,
    live: usize,
}

impl SourceWindow {
    fn slot(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.base)?).ok()
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut PendingJourney> {
        let i = self.slot(seq)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Stores `journey` as packet `seq`, replacing any journey already
    /// there; hands it back when `seq` lies before the window or too far
    /// past its end.
    fn insert(&mut self, seq: u64, journey: PendingJourney) -> Result<(), PendingJourney> {
        if self.slots.is_empty() {
            self.base = seq;
        }
        let i = match seq.checked_sub(self.base) {
            Some(i) if i <= self.slots.len() as u64 + WINDOW_GAP_LIMIT => i as usize,
            _ => return Err(journey),
        };
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].replace(journey).is_none() {
            self.live += 1;
        }
        Ok(())
    }

    fn remove(&mut self, seq: u64) -> Option<PendingJourney> {
        let i = self.slot(seq)?;
        let journey = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(journey)
    }
}

/// The in-flight journeys, addressed by packet id in O(1): one
/// [`SourceWindow`] per source node ([`PacketId::source`]), indexed by
/// sequence number ([`PacketId::seq`]). The network offers each
/// source's ids in ascending order, so a window grows only at its end
/// and spans only that source's in-flight packets. A hand-made id that
/// does not fit its source's window is kept in `stray` instead; in a
/// network-driven run `stray` stays empty and is never searched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PendingJourneys {
    windows: Vec<SourceWindow>,
    stray: BTreeMap<u64, PendingJourney>,
}

impl PendingJourneys {
    fn insert(&mut self, packet: PacketId, journey: PendingJourney) {
        if !self.stray.is_empty() {
            self.stray.remove(&packet.0);
        }
        let src = packet.source().index();
        if self.windows.len() <= src {
            self.windows.resize_with(src + 1, SourceWindow::default);
        }
        if let Err(journey) = self.windows[src].insert(packet.seq(), journey) {
            self.stray.insert(packet.0, journey);
        }
    }

    fn get_mut(&mut self, packet: PacketId) -> Option<&mut PendingJourney> {
        let window = self.windows.get_mut(packet.source().index());
        match window.and_then(|w| w.get_mut(packet.seq())) {
            Some(journey) => Some(journey),
            None if self.stray.is_empty() => None,
            None => self.stray.get_mut(&packet.0),
        }
    }

    fn remove(&mut self, packet: PacketId) -> Option<PendingJourney> {
        let window = self.windows.get_mut(packet.source().index());
        match window.and_then(|w| w.remove(packet.seq())) {
            Some(journey) => Some(journey),
            None if self.stray.is_empty() => None,
            None => self.stray.remove(&packet.0),
        }
    }

    fn len(&self) -> usize {
        self.windows.iter().map(|w| w.live).sum::<usize>() + self.stray.len()
    }
}

/// Collects per-packet journeys from probe events. Lives inside
/// [`crate::probe::NetworkProbe`] when journeys are enabled; passive
/// like every probe — the simulation never reads it.
///
/// Every per-event update costs O(1): in-flight journeys sit in
/// per-source windows indexed by sequence number, links in a dense
/// table indexed `node · Port::COUNT + port`, stage sums in a
/// class-indexed vector and a [`PairTable`]. [`JourneyCollector::freeze`]
/// reads the tables out in ascending key order.
#[derive(Debug, Clone, PartialEq)]
pub struct JourneyCollector {
    constants: StageConstants,
    num_vcs: usize,
    /// Retained-journey ring capacity (aggregates are always complete;
    /// only the per-journey records are bounded).
    capacity: usize,
    pending: PendingJourneys,
    /// Emptied hop buffers of finished journeys, reused by the next
    /// injected packet.
    spare_hops: Vec<Vec<HopRecord>>,
    journeys: VecDeque<PacketJourney>,
    totals: StageSums,
    /// Stage sums indexed by class; a class no journey had is all zero.
    per_class: Vec<StageSums>,
    per_pair: PairTable<StageSums>,
    /// Link attribution indexed `node · Port::COUNT + port`.
    links: Vec<Option<LinkStall>>,
    dropped: u64,
    incomplete: u64,
    inconsistent: u64,
    recorded: u64,
}

impl JourneyCollector {
    /// A collector retaining at most `capacity` full journey records.
    pub fn new(constants: StageConstants, num_vcs: usize, capacity: usize) -> JourneyCollector {
        JourneyCollector {
            constants,
            num_vcs,
            capacity,
            pending: PendingJourneys::default(),
            spare_hops: Vec::new(),
            journeys: VecDeque::new(),
            totals: StageSums::default(),
            per_class: Vec::new(),
            per_pair: PairTable::new(),
            links: Vec::new(),
            dropped: 0,
            incomplete: 0,
            inconsistent: 0,
            recorded: 0,
        }
    }

    /// Replaces the pipeline constants (used by
    /// [`crate::probe::NetworkProbe::for_network`] once the real
    /// [`NetworkConfig`] is known).
    pub fn set_constants(&mut self, constants: StageConstants) {
        self.constants = constants;
    }

    fn link(&mut self, node: NodeId, port: Port) -> &mut LinkStall {
        let i = node.index() * Port::COUNT + port.index();
        if self.links.len() <= i {
            self.links.resize_with(i + 1, || None);
        }
        let num_vcs = self.num_vcs;
        self.links[i]
            .get_or_insert_with(|| LinkStall::new(node.index() as u16, port.index() as u8, num_vcs))
    }

    /// Applies `update` to the last hop of `packet` at `node` for which
    /// `open` holds — Valiant routes can revisit a node, so matching
    /// must start from the most recent visit — and returns the packet's
    /// class (0 when the packet is unknown). One lookup per event.
    fn update_hop(
        &mut self,
        packet: PacketId,
        node: NodeId,
        open: impl Fn(&HopRecord) -> bool,
        update: impl FnOnce(&mut HopRecord),
    ) -> u8 {
        let Some(p) = self.pending.get_mut(packet) else {
            return 0;
        };
        if let Some(h) = p.hops.iter_mut().rev().find(|h| h.node == node && open(h)) {
            update(h);
        }
        p.class
    }

    /// Returns a finished journey's hop buffer for reuse.
    fn recycle(&mut self, mut hops: Vec<HopRecord>) {
        hops.clear();
        self.spare_hops.push(hops);
    }

    /// Consumes one event of the probe stream. Queue exits, arrivals,
    /// grants, staging, launches and ejections timestamp the packet's
    /// pending journey; stall events also charge the link; delivery
    /// finalizes the journey; drops discard it.
    pub fn record(&mut self, now: Cycle, event: &Event) {
        match *event {
            Event::Injected { src, dst, packet } => {
                let hops = self.spare_hops.pop().unwrap_or_default();
                self.pending.insert(
                    packet,
                    PendingJourney {
                        src,
                        dst,
                        class: 0,
                        flits: 1,
                        created_at: now,
                        entered_at: None,
                        head_ejected_at: None,
                        hops,
                    },
                );
            }
            Event::Entered {
                packet,
                num_flits,
                class,
                ..
            } => {
                if let Some(p) = self.pending.get_mut(packet) {
                    p.entered_at = Some(now);
                    p.flits = num_flits;
                    p.class = class.priority();
                }
            }
            Event::HeadArrived {
                node,
                in_port,
                packet,
            } => {
                if let Some(p) = self.pending.get_mut(packet) {
                    p.hops.push(HopRecord::new(node, in_port, now));
                }
            }
            Event::VcAllocated {
                node,
                port,
                vc,
                packet,
            } => {
                self.update_hop(
                    packet,
                    node,
                    |h| h.granted.is_none(),
                    |h| {
                        h.granted = Some(now);
                        h.out_port = Some(port);
                        h.out_vc = Some(vc);
                    },
                );
            }
            Event::AllocConflict { node, port, packet } => {
                let class = self.update_hop(
                    packet,
                    node,
                    |h| h.granted.is_none(),
                    |h| h.vc_conflict_cycles += 1,
                );
                let link = self.link(node, port);
                link.vc_conflicts += 1;
                link.per_class[usize::from(class.min(2))] += 1;
            }
            // Head stalls land in the hop's credit window; body-flit
            // stalls surface in the tail's serialization stage and are
            // attributed to the link only.
            Event::CreditStall {
                node,
                port,
                vc,
                packet,
            } => {
                let class = self.update_hop(
                    packet,
                    node,
                    |h| h.staged.is_none(),
                    |h| h.credit_stall_cycles += 1,
                );
                let link = self.link(node, port);
                link.credit_stalls += 1;
                link.per_class[usize::from(class.min(2))] += 1;
                if let Some(slot) = link.per_vc_credit.get_mut(vc.index()) {
                    *slot += 1;
                }
            }
            Event::SwitchTraversed {
                node,
                port,
                vc,
                packet,
            } => {
                self.update_hop(
                    packet,
                    node,
                    |h| h.staged.is_none(),
                    |h| {
                        h.staged = Some(now);
                        if h.out_port.is_none() {
                            h.out_port = Some(port);
                            h.out_vc = Some(vc);
                        }
                    },
                );
            }
            // Head suspensions land in the hop's preempt window; body-flit
            // suspensions surface in serialization and are attributed to
            // the link only.
            Event::Preemption { node, port, packet } => {
                let class = self.update_hop(
                    packet,
                    node,
                    |h| h.staged.is_some() && h.forwarded.is_none(),
                    |h| h.preempt_cycles += 1,
                );
                let link = self.link(node, port);
                link.preemptions += 1;
                link.per_class[usize::from(class.min(2))] += 1;
            }
            Event::Forwarded {
                node,
                port,
                vc,
                packet,
            } => {
                self.update_hop(
                    packet,
                    node,
                    |h| h.forwarded.is_none(),
                    |h| {
                        h.forwarded = Some(now);
                        if h.out_port.is_none() {
                            h.out_port = Some(port);
                            h.out_vc = Some(vc);
                        }
                    },
                );
            }
            Event::HeadEjected { packet, .. } => {
                if let Some(p) = self.pending.get_mut(packet) {
                    p.head_ejected_at = Some(now);
                }
            }
            Event::Dropped { packet, .. } => {
                if let Some(p) = self.pending.remove(packet) {
                    self.dropped += 1;
                    self.recycle(p.hops);
                }
            }
            Event::Delivered { packet, .. } => self.delivered(now, packet),
            Event::Misroute { .. } | Event::BufferSample { .. } => {}
        }
    }

    /// The tail reached the destination: finalize the journey.
    fn delivered(&mut self, now: Cycle, packet: PacketId) {
        let Some(p) = self.pending.remove(packet) else {
            self.incomplete += 1;
            return;
        };
        let (Some(entered_at), Some(head_ejected_at)) = (p.entered_at, p.head_ejected_at) else {
            self.incomplete += 1;
            self.recycle(p.hops);
            return;
        };
        if p.hops.is_empty() || p.hops.iter().any(|h| h.forwarded.is_none()) {
            self.incomplete += 1;
            self.recycle(p.hops);
            return;
        }

        let (mut breakdown, consistent) = decompose(&p.hops, entered_at, head_ejected_at, now);
        breakdown.source_queue = entered_at.saturating_sub(p.created_at);
        let consistent = consistent
            && entered_at >= p.created_at
            && breakdown.network_total() == now - entered_at;
        debug_assert!(
            consistent,
            "journey breakdown does not reconcile for {packet:?}: {breakdown:?}"
        );

        let journey = PacketJourney {
            packet,
            src: p.src,
            dst: p.dst,
            class: p.class,
            flits: p.flits,
            created_at: p.created_at,
            entered_at,
            head_ejected_at,
            delivered_at: now,
            baseline: self
                .constants
                .zero_load_latency(p.hops.len() as u64, u64::from(p.flits)),
            hops: p.hops,
            breakdown,
            consistent,
        };

        self.totals.add(&journey);
        let class = usize::from(journey.class);
        if self.per_class.len() <= class {
            self.per_class.resize_with(class + 1, StageSums::default);
        }
        self.per_class[class].add(&journey);
        self.per_pair
            .get_or_default(journey.src, journey.dst)
            .add(&journey);
        for h in &journey.hops {
            if let Some(out) = h.out_port {
                self.link(h.node, out).residency += h.residency();
            }
        }
        if !journey.consistent {
            self.inconsistent += 1;
        }

        self.recorded += 1;
        if self.capacity == 0 {
            self.recycle(journey.hops);
            return;
        }
        if self.journeys.len() == self.capacity {
            if let Some(evicted) = self.journeys.pop_front() {
                self.recycle(evicted.hops);
            }
        }
        self.journeys.push_back(journey);
    }

    /// Freezes the collector into a [`DecompositionReport`].
    pub fn freeze(self) -> DecompositionReport {
        DecompositionReport {
            constants: self.constants,
            packets: self.totals.count,
            in_flight: self.pending.len() as u64,
            dropped: self.dropped,
            incomplete: self.incomplete,
            inconsistent: self.inconsistent,
            journeys_recorded: self.recorded,
            totals: self.totals,
            per_class: (0..=u8::MAX)
                .zip(self.per_class)
                .filter(|(_, sums)| sums.count > 0)
                .collect(),
            per_pair: self
                .per_pair
                .into_sorted_vec()
                .into_iter()
                .map(|((src, dst), sums)| ((src.index() as u16, dst.index() as u16), sums))
                .collect(),
            links: self.links.into_iter().flatten().collect(),
            journeys: self.journeys.into_iter().collect(),
        }
    }
}

/// Telescopes the hop waypoints into a stage partition. Returns the
/// breakdown and whether every waypoint was monotone (subtraction never
/// wrapped).
fn decompose(
    hops: &[HopRecord],
    entered_at: Cycle,
    head_ejected_at: Cycle,
    delivered_at: Cycle,
) -> (LatencyBreakdown, bool) {
    let mut b = LatencyBreakdown::default();
    let mut ok = true;
    let mut sub = |hi: Cycle, lo: Cycle| -> u64 {
        ok &= hi >= lo;
        hi.saturating_sub(lo)
    };

    b.inject_pipe = sub(hops[0].arrived, entered_at);
    let mut prev_forwarded = None;
    for h in hops {
        // INVARIANT: finalize rejects journeys with an unforwarded hop.
        let f = h.forwarded.expect("finalized hop has launched");
        // Cores without VC allocation (dropping, deflection) collapse
        // the grant/stage waypoints onto their neighbours.
        let g = h.granted.unwrap_or(h.arrived);
        let s = h.staged.unwrap_or(g);
        if let Some(pf) = prev_forwarded {
            b.channel += sub(h.arrived, pf);
        }
        b.vc_alloc += sub(g, h.arrived);
        let grant_to_stage = sub(s, g);
        let credit = h.credit_stall_cycles.min(grant_to_stage);
        b.credit_stall += credit;
        b.switch_wait += grant_to_stage - credit;
        let stage_to_launch = sub(f, s);
        let preempt = h.preempt_cycles.min(stage_to_launch);
        b.preempt += preempt;
        b.link_wait += stage_to_launch - preempt;
        prev_forwarded = Some(f);
    }
    // INVARIANT: the hop slice is non-empty (checked by finalize).
    b.channel += sub(head_ejected_at, prev_forwarded.expect("at least one hop"));
    b.serialization = sub(delivered_at, head_ejected_at);
    (b, ok)
}

/// The frozen decomposition of one probed run: population stage sums,
/// per-class and per-pair shares, link stall attribution, and the
/// retained journeys, with two deterministic exporters.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompositionReport {
    /// Pipeline constants the baselines were computed with.
    pub constants: StageConstants,
    /// Delivered packets decomposed.
    pub packets: u64,
    /// Packets still in flight when the probe was frozen.
    pub in_flight: u64,
    /// Packets dropped before delivery.
    pub dropped: u64,
    /// Deliveries whose journey could not be assembled (e.g. injected
    /// before the probe attached).
    pub incomplete: u64,
    /// Journeys whose breakdown failed to reconcile (collector bugs
    /// surfaced, not hidden; 0 in a correct build).
    pub inconsistent: u64,
    /// Journeys decomposed in total, including those evicted from the
    /// retained ring.
    pub journeys_recorded: u64,
    /// Stage sums over every decomposed journey.
    pub totals: StageSums,
    /// Stage sums by service-class priority.
    pub per_class: BTreeMap<u8, StageSums>,
    /// Stage sums by (source, destination) pair.
    pub per_pair: BTreeMap<(u16, u16), StageSums>,
    /// Per-output-link stall attribution, sorted by (node, port).
    pub links: Vec<LinkStall>,
    /// The retained journey ring, oldest first.
    pub journeys: Vec<PacketJourney>,
}

impl DecompositionReport {
    /// The `k` hottest links by attributed stall cycles, hottest first;
    /// ties break toward the lower (node, port) so the ranking is
    /// deterministic. Links with zero stalls are omitted.
    pub fn bottlenecks(&self, k: usize) -> Vec<&LinkStall> {
        let mut ranked: Vec<&LinkStall> =
            self.links.iter().filter(|l| l.stall_cycles() > 0).collect();
        ranked.sort_by_key(|l| (std::cmp::Reverse(l.stall_cycles()), l.node, l.port));
        ranked.truncate(k);
        ranked
    }

    /// Mean contention surplus (measured − baseline) per packet.
    pub fn mean_contention_surplus(&self) -> f64 {
        if self.totals.count == 0 {
            0.0
        } else {
            self.totals.contention_surplus() as f64 / self.totals.count as f64
        }
    }

    /// Serializes the retained journeys to the versioned `ocin-journeys
    /// v1` text form: a header, the pipeline constants, then one `J`
    /// line per journey followed by one `H` line per hop. Two identical
    /// runs produce identical bytes.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(256 + self.journeys.len() * 160);
        out.push_str("ocin-journeys v1\n");
        let _ = writeln!(
            out,
            "packets {} in_flight {} dropped {} incomplete {} inconsistent {} recorded {}",
            self.packets,
            self.in_flight,
            self.dropped,
            self.incomplete,
            self.inconsistent,
            self.journeys_recorded,
        );
        let c = &self.constants;
        let _ = writeln!(
            out,
            "constants channel_latency {} router_delay {} secded {} channel_phits {} pull_injection {}",
            c.channel_latency,
            c.router_delay,
            u8::from(c.secded),
            c.channel_phits,
            u8::from(c.pull_injection),
        );
        for j in &self.journeys {
            let b = &j.breakdown;
            let _ = writeln!(
                out,
                "J {} src {} dst {} class {} flits {} created {} entered {} ejected {} \
                 delivered {} net {} base {} | sq {} inj {} vca {} sw {} cr {} pre {} \
                 link {} chan {} ser {}",
                j.packet.0,
                j.src,
                j.dst,
                j.class,
                j.flits,
                j.created_at,
                j.entered_at,
                j.head_ejected_at,
                j.delivered_at,
                j.network_latency(),
                j.baseline,
                b.source_queue,
                b.inject_pipe,
                b.vc_alloc,
                b.switch_wait,
                b.credit_stall,
                b.preempt,
                b.link_wait,
                b.channel,
                b.serialization,
            );
            for (k, h) in j.hops.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "H {} {} node {} in {} out {} vc {} arr {} grant {} stage {} fwd {}",
                    j.packet.0,
                    k,
                    h.node,
                    h.in_port.index(),
                    h.out_port.map_or(-1, |p| p.index() as i64),
                    h.out_vc.map_or(-1, |v| v.index() as i64),
                    h.arrived,
                    h.granted.map_or(-1, |t| t as i64),
                    h.staged.map_or(-1, |t| t as i64),
                    h.forwarded.map_or(-1, |t| t as i64),
                );
            }
        }
        out
    }

    /// Serializes the retained journeys to Chrome `trace_event` JSON,
    /// viewable in Perfetto or `chrome://tracing`: one process per
    /// router (tracks per input port) holding complete (`"X"`) events
    /// for each head-flit residency, plus an async span (`"b"`/`"e"`)
    /// per packet journey under a synthetic "packet journeys" process
    /// keyed by service class. Cycles map 1:1 to microseconds. Output
    /// is deterministic: same run, same bytes.
    pub fn to_trace_json(&self) -> String {
        const JOURNEY_PID: u32 = 65_535;
        let mut out = String::with_capacity(512 + self.journeys.len() * 480);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        let mut first = true;
        let mut push = |out: &mut String, event: String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
            out.push_str("\n  ");
            out.push_str(&event);
        };

        // Track metadata, sorted: one process per router seen, one
        // thread per input port used.
        let mut tracks: BTreeSet<(u16, u8)> = BTreeSet::new();
        for j in &self.journeys {
            for h in &j.hops {
                tracks.insert((h.node.index() as u16, h.in_port.index() as u8));
            }
        }
        let nodes: BTreeSet<u16> = tracks.iter().map(|&(n, _)| n).collect();
        for &node in &nodes {
            push(
                &mut out,
                format!(
                    "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {node}, \
                     \"tid\": 0, \"args\": {{\"name\": \"router {node}\"}}}}"
                ),
            );
        }
        for &(node, port) in &tracks {
            let pname = Port::from_index(usize::from(port));
            push(
                &mut out,
                format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {node}, \
                     \"tid\": {port}, \"args\": {{\"name\": \"in {pname}\"}}}}"
                ),
            );
        }
        push(
            &mut out,
            format!(
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {JOURNEY_PID}, \
                 \"tid\": 0, \"args\": {{\"name\": \"packet journeys\"}}}}"
            ),
        );

        for j in &self.journeys {
            let name = format!("p{} {}->{}", j.packet.0, j.src, j.dst);
            push(
                &mut out,
                format!(
                    "{{\"name\": \"{name}\", \"cat\": \"journey\", \"ph\": \"b\", \
                     \"id\": {}, \"pid\": {JOURNEY_PID}, \"tid\": {}, \"ts\": {}}}",
                    j.packet.0, j.class, j.entered_at,
                ),
            );
            for h in &j.hops {
                let out_port = h.out_port.map_or(-1, |p| p.index() as i64);
                let out_vc = h.out_vc.map_or(-1, |v| v.index() as i64);
                push(
                    &mut out,
                    format!(
                        "{{\"name\": \"{name}\", \"cat\": \"hop\", \"ph\": \"X\", \
                         \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}, \
                         \"args\": {{\"out_port\": {out_port}, \"vc\": {out_vc}}}}}",
                        h.arrived,
                        h.residency(),
                        h.node.index(),
                        h.in_port.index(),
                    ),
                );
            }
            let b = &j.breakdown;
            push(
                &mut out,
                format!(
                    "{{\"name\": \"{name}\", \"cat\": \"journey\", \"ph\": \"e\", \
                     \"id\": {}, \"pid\": {JOURNEY_PID}, \"tid\": {}, \"ts\": {}, \
                     \"args\": {{\"net\": {}, \"baseline\": {}, \"vc_alloc\": {}, \
                     \"switch_wait\": {}, \"credit_stall\": {}, \"preempt\": {}, \
                     \"link_wait\": {}, \"channel\": {}, \"serialization\": {}}}}}",
                    j.packet.0,
                    j.class,
                    j.delivered_at,
                    j.network_latency(),
                    j.baseline,
                    b.vc_alloc,
                    b.switch_wait,
                    b.credit_stall,
                    b.preempt,
                    b.link_wait,
                    b.channel,
                    b.serialization,
                ),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::ServiceClass;

    fn constants() -> StageConstants {
        StageConstants::paper_baseline()
    }

    const EAST: Port = Port::Dir(crate::ids::Direction::East);
    const WEST: Port = Port::Dir(crate::ids::Direction::West);

    /// A one-flit bulk packet's queue exit.
    fn entered(node: NodeId, packet: PacketId) -> Event {
        Event::Entered {
            node,
            packet,
            num_flits: 1,
            class: ServiceClass::Bulk,
        }
    }

    /// A delivery; the collector reads only the packet id from it.
    fn delivered(packet: PacketId) -> Event {
        Event::Delivered {
            src: NodeId::new(0),
            dst: NodeId::new(0),
            packet,
            network_latency: 0,
            num_flits: 1,
            class: ServiceClass::Bulk,
        }
    }

    fn forwarded(node: NodeId, port: Port, packet: PacketId) -> Event {
        Event::Forwarded {
            node,
            port,
            vc: VcId::new(0),
            packet,
        }
    }

    /// Drives one synthetic two-router journey through the collector.
    fn one_journey(capacity: usize) -> DecompositionReport {
        let mut c = JourneyCollector::new(constants(), 8, capacity);
        let packet = PacketId(7);
        let (src, dst) = (NodeId::new(0), NodeId::new(1));
        let (vc3, vc0) = (VcId::new(3), VcId::new(0));
        let (node, port, vc) = (src, EAST, vc3);
        let events = [
            (0, Event::Injected { src, dst, packet }),
            (
                2,
                Event::Entered {
                    node,
                    packet,
                    num_flits: 2,
                    class: ServiceClass::Bulk,
                },
            ),
            (
                4,
                Event::HeadArrived {
                    node,
                    in_port: Port::Tile,
                    packet,
                },
            ),
            (4, Event::AllocConflict { node, port, packet }),
            (
                5,
                Event::VcAllocated {
                    node,
                    port,
                    vc,
                    packet,
                },
            ),
            (
                5,
                Event::CreditStall {
                    node,
                    port,
                    vc,
                    packet,
                },
            ),
            (
                6,
                Event::SwitchTraversed {
                    node,
                    port,
                    vc,
                    packet,
                },
            ),
            (6, Event::Preemption { node, port, packet }),
            (8, forwarded(src, EAST, packet)),
        ];
        let (node, port, vc) = (dst, Port::Tile, vc0);
        let tail = [
            (
                10,
                Event::HeadArrived {
                    node,
                    in_port: WEST,
                    packet,
                },
            ),
            (
                10,
                Event::VcAllocated {
                    node,
                    port,
                    vc,
                    packet,
                },
            ),
            (
                10,
                Event::SwitchTraversed {
                    node,
                    port,
                    vc,
                    packet,
                },
            ),
            (10, forwarded(dst, Port::Tile, packet)),
            (11, Event::HeadEjected { node, packet }),
            (
                12,
                Event::Delivered {
                    src,
                    dst,
                    packet,
                    network_latency: 10,
                    num_flits: 2,
                    class: ServiceClass::Bulk,
                },
            ),
        ];
        for (now, e) in events.iter().chain(&tail) {
            c.record(*now, e);
        }
        c.freeze()
    }

    #[test]
    fn breakdown_telescopes_exactly() {
        let r = one_journey(16);
        assert_eq!(r.packets, 1);
        assert_eq!(r.inconsistent, 0);
        let j = &r.journeys[0];
        assert!(j.consistent);
        assert_eq!(j.network_latency(), 10);
        assert_eq!(j.breakdown.network_total(), 10);
        let b = &j.breakdown;
        assert_eq!(b.source_queue, 2);
        assert_eq!(b.inject_pipe, 2);
        assert_eq!(b.vc_alloc, 1);
        assert_eq!(b.credit_stall, 1);
        assert_eq!(b.switch_wait, 0);
        assert_eq!(b.preempt, 1);
        assert_eq!(b.link_wait, 1);
        assert_eq!(b.channel, 3);
        assert_eq!(b.serialization, 1);
        // Baseline for 2 routers, 2 flits: inject 2 + 1·link 2 + eject 1 + tail 1 = 6.
        assert_eq!(j.baseline, 6);
        assert_eq!(j.contention_surplus(), 4);
    }

    #[test]
    fn link_attribution_counts_stall_kinds() {
        let r = one_journey(16);
        let top = r.bottlenecks(4);
        assert_eq!(top.len(), 1);
        let l = top[0];
        assert_eq!(
            (l.node, l.port),
            (0, Port::Dir(crate::ids::Direction::East).index() as u8)
        );
        assert_eq!(l.vc_conflicts, 1);
        assert_eq!(l.credit_stalls, 1);
        assert_eq!(l.preemptions, 1);
        assert_eq!(l.stall_cycles(), 3);
        assert_eq!(l.per_class, [3, 0, 0]);
        assert_eq!(l.per_vc_credit[3], 1);
        // Residency of the source hop (4 → 8) lands on the east link;
        // the destination hop (10 → 10) adds zero to the tile port.
        assert_eq!(l.residency, 4);
    }

    #[test]
    fn retained_ring_is_bounded_but_aggregates_are_not() {
        let mut c = JourneyCollector::new(constants(), 8, 2);
        for i in 0..5u64 {
            let p = PacketId(i);
            let (src, dst) = (NodeId::new(0), NodeId::new(1));
            c.record(
                0,
                &Event::Injected {
                    src,
                    dst,
                    packet: p,
                },
            );
            c.record(0, &entered(src, p));
            let in_port = Port::Tile;
            c.record(
                1,
                &Event::HeadArrived {
                    node: src,
                    in_port,
                    packet: p,
                },
            );
            c.record(1, &forwarded(src, Port::Tile, p));
            c.record(
                2,
                &Event::HeadEjected {
                    node: dst,
                    packet: p,
                },
            );
            c.record(2, &delivered(p));
        }
        let r = c.freeze();
        assert_eq!(r.packets, 5);
        assert_eq!(r.journeys_recorded, 5);
        assert_eq!(r.journeys.len(), 2);
        assert_eq!(r.journeys[0].packet, PacketId(3));
        assert_eq!(r.totals.count, 5);
    }

    #[test]
    fn dropped_and_unknown_packets_are_accounted() {
        let mut c = JourneyCollector::new(constants(), 8, 4);
        let (src, dst, packet) = (NodeId::new(0), NodeId::new(2), PacketId(1));
        c.record(0, &Event::Injected { src, dst, packet });
        c.record(1, &Event::Dropped { node: src, packet });
        // A delivery the collector never saw injected.
        c.record(9, &delivered(PacketId(99)));
        let r = c.freeze();
        assert_eq!(r.dropped, 1);
        assert_eq!(r.incomplete, 1);
        assert_eq!(r.packets, 0);
    }

    /// Walks `p` from `src` to `dst` over one channel, up to (but not
    /// including) delivery: offered at `t`, head ejected at `t + 4`.
    fn walk(c: &mut JourneyCollector, p: PacketId, src: NodeId, dst: NodeId, t: Cycle) {
        let arrived = |node, in_port| Event::HeadArrived {
            node,
            in_port,
            packet: p,
        };
        c.record(
            t,
            &Event::Injected {
                src,
                dst,
                packet: p,
            },
        );
        c.record(t, &entered(src, p));
        c.record(t + 1, &arrived(src, Port::Tile));
        c.record(t + 2, &forwarded(src, EAST, p));
        c.record(t + 3, &arrived(dst, WEST));
        c.record(t + 3, &forwarded(dst, Port::Tile, p));
        c.record(
            t + 4,
            &Event::HeadEjected {
                node: dst,
                packet: p,
            },
        );
    }

    /// The per-source pending windows: deliveries out of order, a drop
    /// in the middle of a window, unknown and repeated deliveries, and
    /// two sources' packets interleaved all resolve to the right
    /// journey.
    #[test]
    fn pending_windows_resolve_ids_in_any_order() {
        let mut c = JourneyCollector::new(constants(), 8, 16);
        let (a, b) = (NodeId::new(3), NodeId::new(7));
        let pa = |seq| PacketId::new(a, seq);
        let pb = |seq| PacketId::new(b, seq);
        for seq in 0..3 {
            walk(&mut c, pa(seq), a, NodeId::new(10 + seq as u16), 10 * seq);
            walk(
                &mut c,
                pb(seq),
                b,
                NodeId::new(20 + seq as u16),
                10 * seq + 1,
            );
        }
        c.record(40, &delivered(pa(2)));
        c.record(41, &delivered(pb(0)));
        c.record(
            41,
            &Event::Dropped {
                node: a,
                packet: pa(1),
            },
        );
        c.record(42, &delivered(pa(0)));
        // Never offered: past a's window, and on a source with no window.
        c.record(43, &delivered(pa(9)));
        c.record(43, &delivered(PacketId::new(NodeId::new(40), 0)));
        // Delivered twice.
        c.record(44, &delivered(pa(2)));
        // a's window is empty now; a later packet opens it afresh.
        walk(&mut c, pa(3), a, NodeId::new(13), 50);
        c.record(55, &delivered(pa(3)));

        let r = c.freeze();
        assert_eq!(r.packets, 4);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.incomplete, 3);
        assert_eq!(r.in_flight, 2, "b's packets 1 and 2 are still in flight");
        let got: Vec<_> = r
            .journeys
            .iter()
            .map(|j| (j.packet, j.src, j.dst, j.created_at, j.delivered_at))
            .collect();
        assert_eq!(
            got,
            vec![
                (pa(2), a, NodeId::new(12), 20, 40),
                (pb(0), b, NodeId::new(20), 1, 41),
                (pa(0), a, NodeId::new(10), 0, 42),
                (pa(3), a, NodeId::new(13), 50, 55),
            ]
        );
        assert!(r.journeys.iter().all(|j| j.consistent && j.hops.len() == 2));
    }

    /// Ids far from their source's window (which the network never
    /// mints) are still tracked exactly, as are gaps inside a window.
    #[test]
    fn far_and_gapped_ids_are_tracked() {
        let mut c = JourneyCollector::new(constants(), 8, 0);
        let a = NodeId::new(1);
        let ids = [
            PacketId::new(a, 5),
            PacketId::new(a, 0),
            PacketId::new(a, 9),
            PacketId::new(a, 1 << 40),
            PacketId(u64::MAX),
            PacketId::new(a, 2),
        ];
        for (t, &p) in (0..).step_by(10).zip(&ids) {
            walk(&mut c, p, a, NodeId::new(2), t);
        }
        for (t, &p) in (100..).zip(ids.iter().rev()) {
            c.record(t, &delivered(p));
        }
        let r = c.freeze();
        assert_eq!(r.packets, ids.len() as u64);
        assert_eq!((r.in_flight, r.incomplete, r.inconsistent), (0, 0, 0));
        assert!(r.journeys.is_empty(), "capacity 0 retains nothing");
        assert_eq!(r.per_pair.len(), 1);
        assert_eq!(r.per_pair[&(1, 2)].count, ids.len() as u64);
    }

    #[test]
    fn zero_load_formula_matches_known_cases() {
        // Paper baseline, one hop, one flit: 5 cycles.
        assert_eq!(constants().zero_load_latency(2, 1), 5);
        // Four flits serialize three extra cycles.
        assert_eq!(constants().zero_load_latency(2, 4), 8);
        // SEC-DED adds one cycle per inter-router channel.
        let secded = StageConstants {
            secded: true,
            ..constants()
        };
        assert_eq!(secded.zero_load_latency(2, 1), 6);
        // Deflection: no inject pipe.
        let pull = StageConstants {
            pull_injection: true,
            ..constants()
        };
        assert_eq!(pull.zero_load_latency(2, 1), 3);
    }

    #[test]
    fn exporters_are_deterministic_and_versioned() {
        let a = one_journey(16);
        let b = one_journey(16);
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.to_trace_json(), b.to_trace_json());
        assert!(a.to_text().starts_with("ocin-journeys v1\n"));
        let json = a.to_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"b\""));
        assert!(json.contains("\"ph\": \"e\""));
    }
}
