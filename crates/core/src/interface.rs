//! The tile interface: the paper's "simple reliable datagram" port (§2.1).
//!
//! Each tile talks to the network through an input port (packets into the
//! network) and an output port (packets delivered to the tile). The input
//! port carries the 256-bit data field plus type/size/VC-mask/route
//! subfields, and receives per-VC *ready* signals back from the network —
//! realized here as credit counters against the router's tile input
//! buffers.
//!
//! Because each virtual channel has its own queue and the port arbitrates
//! by service class every cycle, "the injection of a long, low priority
//! packet may be interrupted to inject a short, high-priority packet and
//! then resumed" exactly as the paper describes.

use std::collections::VecDeque;

use crate::error::Error;
use crate::flit::{Flit, FlitMeta, Payload, ServiceClass};
use crate::ids::{Cycle, FlowId, NodeId, PacketId, VcId};
use crate::probe::{Event, Probe};

/// A packet delivered by the network to a tile's output port.
#[derive(Debug, Clone)]
pub struct DeliveredPacket {
    /// Packet identity.
    pub id: PacketId,
    /// Injecting tile.
    pub src: NodeId,
    /// Destination tile (this tile).
    pub dst: NodeId,
    /// Service class.
    pub class: ServiceClass,
    /// Pre-scheduled flow, if any.
    pub flow: Option<FlowId>,
    /// Cycle the packet was offered to the source tile port.
    pub created_at: Cycle,
    /// Cycle the head flit entered the network.
    pub injected_at: Cycle,
    /// Cycle the tail flit arrived at this tile's output port.
    pub delivered_at: Cycle,
    /// Number of flits.
    pub num_flits: usize,
    /// Reassembled payload, one entry per flit.
    pub payloads: Vec<Payload>,
    /// Whether any flit was altered by an unmasked link fault.
    pub corrupted: bool,
}

impl DeliveredPacket {
    /// Total latency from offering the packet to the port until the tail
    /// arrives (queueing + network).
    pub fn total_latency(&self) -> Cycle {
        self.delivered_at - self.created_at
    }

    /// Network latency: head injection to tail delivery.
    pub fn network_latency(&self) -> Cycle {
        self.delivered_at - self.injected_at
    }
}

/// A packet being reassembled: its head's metadata and the payloads
/// received so far.
#[derive(Debug, Clone)]
struct Reassembly {
    head: FlitMeta,
    payloads: Vec<Payload>,
    corrupted: bool,
}

/// Per-tile injection and ejection logic.
#[derive(Debug)]
pub struct TileInterface {
    node: NodeId,
    num_vcs: usize,
    queue_capacity: usize,
    inject_queues: Vec<VecDeque<Flit>>,
    /// Bit `v` set iff `inject_queues[v]` is non-empty, so `next_vc`
    /// visits only VCs with a flit waiting.
    queued: u64,
    credits: Vec<u64>,
    credit_gated: bool,
    rr: usize,
    /// Without credits, the VC whose packet is part-way onto the tile
    /// link: its flits go out back to back until the tail, because a
    /// dropping router tracks one packet per input.
    open: Option<usize>,
    reassembly: Vec<Option<Reassembly>>,
    delivered: VecDeque<DeliveredPacket>,
    /// Flits waiting across all injection queues, maintained
    /// incrementally so the network's hot path can ask "anything
    /// pending?" without scanning per-VC queues.
    pending: usize,
    /// Total flits injected into the network.
    pub flits_injected: u64,
    /// Total packets fully delivered to this tile.
    pub packets_delivered: u64,
}

impl TileInterface {
    /// Creates the interface for `node`.
    ///
    /// `initial_credits` is the router's per-VC tile-input buffer depth;
    /// `credit_gated` is false for flow-control methods without credits
    /// (dropping, deflection).
    ///
    /// # Panics
    ///
    /// Panics if `num_vcs` is 0 or above 64.
    pub fn new(
        node: NodeId,
        num_vcs: usize,
        queue_capacity: usize,
        initial_credits: u64,
        credit_gated: bool,
    ) -> TileInterface {
        assert!(
            (1..=64).contains(&num_vcs),
            "tile {node}: {num_vcs} VCs do not fit the queue mask"
        );
        TileInterface {
            node,
            num_vcs,
            queue_capacity,
            inject_queues: (0..num_vcs).map(|_| VecDeque::new()).collect(),
            queued: 0,
            credits: vec![initial_credits; num_vcs],
            credit_gated,
            rr: 0,
            open: None,
            reassembly: (0..num_vcs).map(|_| None).collect(),
            delivered: VecDeque::new(),
            pending: 0,
            flits_injected: 0,
            packets_delivered: 0,
        }
    }

    /// The tile this interface serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Free queue slots (flits) on `vc`.
    pub fn queue_space(&self, vc: VcId) -> usize {
        self.queue_capacity - self.inject_queues[vc.index()].len()
    }

    /// Among `allowed` VCs, the one with the most queue space (ties to the
    /// lowest id), or `None` if every allowed queue lacks `need` slots.
    pub fn choose_vc(&self, allowed: impl Iterator<Item = VcId>, need: usize) -> Option<VcId> {
        allowed
            .filter(|vc| vc.index() < self.num_vcs)
            .map(|vc| (self.queue_space(vc), vc))
            .filter(|(space, _)| *space >= need)
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(_, vc)| vc)
    }

    /// Queues a flitized packet on `vc`.
    ///
    /// # Errors
    ///
    /// [`Error::InjectionBackpressure`] if the queue lacks space for the
    /// whole packet; nothing is enqueued in that case.
    pub fn enqueue_packet<I>(&mut self, vc: VcId, flits: I) -> Result<(), Error>
    where
        I: IntoIterator<Item = Flit>,
        I::IntoIter: ExactSizeIterator,
    {
        let flits = flits.into_iter();
        if self.queue_space(vc) < flits.len() {
            return Err(Error::InjectionBackpressure {
                node: self.node,
                vc,
            });
        }
        let q = &mut self.inject_queues[vc.index()];
        self.pending += flits.len();
        for mut f in flits {
            f.link_vc = vc;
            q.push_back(f);
        }
        if !q.is_empty() {
            self.queued |= 1 << vc.index();
        }
        Ok(())
    }

    /// The VC to inject from this cycle: an open packet's VC without
    /// credits, otherwise the highest-class VC with a flit at its head
    /// and a credit available, round-robin among equals.
    fn next_vc(&self) -> Option<usize> {
        if self.open.is_some() {
            return self.open;
        }
        // Candidates in round-robin order from `rr`: queued VCs at or
        // above it, then those below.
        let below = self.queued & ((1 << self.rr) - 1);
        let mut best: Option<(u8, usize)> = None; // (priority, vc index)
        for mut m in [self.queued ^ below, below] {
            while m != 0 {
                let v = m.trailing_zeros() as usize;
                m &= m - 1;
                if self.credit_gated && self.credits[v] == 0 {
                    continue;
                }
                // INVARIANT: bit `v` of `queued` is set iff queue `v`
                // is non-empty.
                let front = self.inject_queues[v].front().expect("queued VC");
                let pri = front.meta.class.priority();
                if best.is_none_or(|(bp, _)| pri > bp) {
                    best = Some((pri, v));
                }
            }
        }
        best.map(|(_, v)| v)
    }

    /// Selects and removes the flit to inject this cycle (see
    /// `next_vc`). Returns `None` on an idle cycle.
    pub fn pick_injection(&mut self, now: Cycle) -> Option<Flit> {
        let v = self.next_vc()?;
        // INVARIANT: a packet is queued whole, so an open packet's VC
        // still holds its remaining flits.
        let q = &mut self.inject_queues[v];
        let mut flit = q.pop_front().expect("non-empty");
        if q.is_empty() {
            self.queued &= !(1 << v);
        }
        // INVARIANT: `pending` counts exactly the flits across the
        // injection queues; the pop above removed one.
        self.pending -= 1;
        if self.credit_gated {
            self.credits[v] -= 1;
        } else {
            self.open = (!flit.kind.is_tail()).then_some(v);
        }
        flit.meta.injected_at = now;
        self.flits_injected += 1;
        self.rr = if v + 1 == self.num_vcs { 0 } else { v + 1 };
        Some(flit)
    }

    /// Peeks at the flit [`Self::pick_injection`] would return, without
    /// removing it (used by deflection routers, which pull injections).
    pub fn peek_injection(&self) -> Option<&Flit> {
        self.next_vc()
            .map(|v| self.inject_queues[v].front().expect("non-empty"))
    }

    /// Returns one credit for `vc` (the router dequeued a tile-input flit).
    pub fn credit_return(&mut self, vc: VcId) {
        self.credits[vc.index()] += 1;
    }

    /// Accepts a flit from the tile output port, reassembling packets per
    /// virtual channel. Completed packets are reported to `probe`.
    ///
    /// # Panics
    ///
    /// Panics on protocol violations (body flit with no open packet),
    /// which indicate a router bug.
    pub fn receive(&mut self, flit: Flit, now: Cycle, probe: &mut dyn Probe) {
        let v = flit.link_vc.index();
        if flit.kind.is_head() {
            assert!(
                self.reassembly[v].is_none(),
                "tile {}: head flit on vc{} while a packet is open",
                self.node,
                v
            );
            self.reassembly[v] = Some(Reassembly {
                head: flit.meta,
                payloads: Vec::with_capacity(usize::from(flit.meta.packet_len)),
                corrupted: false,
            });
        }
        let slot = self.reassembly[v]
            .as_mut()
            .unwrap_or_else(|| panic!("tile {}: flit on vc{} with no open packet", self.node, v));
        slot.payloads.push(flit.payload);
        slot.corrupted |= flit.meta.corrupted;
        if flit.kind.is_tail() {
            let Reassembly {
                head,
                payloads,
                corrupted,
            } = self.reassembly[v].take().expect("open packet");
            probe.record(
                now,
                Event::Delivered {
                    src: head.src,
                    dst: self.node,
                    packet: head.packet,
                    network_latency: now - head.injected_at,
                    num_flits: payloads.len() as u16,
                    class: head.class,
                },
            );
            self.delivered.push_back(DeliveredPacket {
                id: head.packet,
                src: head.src,
                dst: self.node,
                class: head.class,
                flow: head.flow,
                created_at: head.created_at,
                injected_at: head.injected_at,
                delivered_at: now,
                num_flits: payloads.len(),
                payloads,
                corrupted,
            });
            self.packets_delivered += 1;
        }
    }

    /// Removes and returns all packets delivered so far.
    pub fn drain_delivered(&mut self) -> Vec<DeliveredPacket> {
        self.delivered.drain(..).collect()
    }

    /// Moves all packets delivered so far onto the end of `out`.
    pub fn drain_delivered_into(&mut self, out: &mut Vec<DeliveredPacket>) {
        out.extend(self.delivered.drain(..));
    }

    /// Number of flits waiting in the injection queues. O(1): maintained
    /// incrementally by `enqueue_packet` / `pick_injection`.
    pub fn pending_flits(&self) -> usize {
        debug_assert_eq!(
            self.pending,
            self.inject_queues.iter().map(VecDeque::len).sum::<usize>(),
            "tile {}: pending counter out of sync",
            self.node
        );
        debug_assert!(
            self.inject_queues
                .iter()
                .enumerate()
                .all(|(v, q)| (self.queued >> v & 1 == 1) != q.is_empty()),
            "tile {}: queued mask out of sync",
            self.node
        );
        self.pending
    }

    /// Whether any flit is waiting to inject (cheap gate for the
    /// pull-mode peek: the full priority scan and flit copy only happen
    /// when this is true).
    pub fn injection_pending(&self) -> bool {
        self.pending > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::RouteState;
    use crate::flit::{FlitKind, FlitMeta, SizeCode, VcMask};
    use crate::ids::Direction;
    use crate::probe::NoProbe;
    use crate::route::SourceRoute;

    fn flit(kind: FlitKind, class: ServiceClass, packet: u64, idx: u16) -> Flit {
        Flit {
            kind,
            size: SizeCode::MAX,
            vc_mask: VcMask::ALL,
            route: SourceRoute::compile(&[Direction::East]).unwrap(),
            payload: Payload::from_u64(packet * 100 + idx as u64),
            link_vc: VcId::new(0),
            resolved_port: None,
            meta: FlitMeta {
                packet: PacketId(packet),
                src: NodeId::new(0),
                dst: NodeId::new(1),
                flit_index: idx,
                packet_len: 1,
                created_at: 0,
                injected_at: 0,
                class,
                flow: None,
                route_state: RouteState::at_injection(class, 0),
                ecc: 0,
                corrupted: false,
            },
        }
    }

    fn iface() -> TileInterface {
        TileInterface::new(NodeId::new(0), 8, 16, 4, true)
    }

    #[test]
    fn enqueue_respects_capacity() {
        let mut i = TileInterface::new(NodeId::new(0), 8, 2, 4, true);
        let f = flit(FlitKind::HeadTail, ServiceClass::Bulk, 1, 0);
        i.enqueue_packet(VcId::new(0), vec![f, f, f]).unwrap_err();
        i.enqueue_packet(VcId::new(0), vec![f, f]).unwrap();
        assert_eq!(i.queue_space(VcId::new(0)), 0);
    }

    #[test]
    fn priority_vc_preempts_bulk_injection() {
        let mut i = iface();
        // A 3-flit bulk packet on VC 0.
        let bulk = vec![
            flit(FlitKind::Head, ServiceClass::Bulk, 1, 0),
            flit(FlitKind::Body, ServiceClass::Bulk, 1, 1),
            flit(FlitKind::Tail, ServiceClass::Bulk, 1, 2),
        ];
        i.enqueue_packet(VcId::new(0), bulk).unwrap();
        // First bulk flit goes out.
        let f = i.pick_injection(10).unwrap();
        assert_eq!(f.meta.class, ServiceClass::Bulk);
        // A high-priority single-flit packet arrives on VC 4.
        let hp = vec![flit(FlitKind::HeadTail, ServiceClass::Priority, 2, 0)];
        i.enqueue_packet(VcId::new(4), hp).unwrap();
        // It preempts the remaining bulk flits...
        let f = i.pick_injection(11).unwrap();
        assert_eq!(f.meta.class, ServiceClass::Priority);
        // ...and the bulk packet resumes.
        let f = i.pick_injection(12).unwrap();
        assert_eq!(f.meta.class, ServiceClass::Bulk);
        assert_eq!(f.meta.flit_index, 1);
    }

    #[test]
    fn credits_gate_injection() {
        let mut i = TileInterface::new(NodeId::new(0), 8, 16, 1, true);
        let p = vec![
            flit(FlitKind::Head, ServiceClass::Bulk, 1, 0),
            flit(FlitKind::Tail, ServiceClass::Bulk, 1, 1),
        ];
        i.enqueue_packet(VcId::new(0), p).unwrap();
        assert!(i.pick_injection(0).is_some());
        // Credit exhausted.
        assert!(i.pick_injection(1).is_none());
        i.credit_return(VcId::new(0));
        assert!(i.pick_injection(2).is_some());
    }

    #[test]
    fn ungated_interface_ignores_credits() {
        let mut i = TileInterface::new(NodeId::new(0), 8, 16, 0, false);
        let p = vec![flit(FlitKind::HeadTail, ServiceClass::Bulk, 1, 0)];
        i.enqueue_packet(VcId::new(0), p).unwrap();
        assert!(i.pick_injection(0).is_some());
    }

    #[test]
    fn reassembly_per_vc_interleaves_packets() {
        let mut i = iface();
        // Packet 1 on vc0, packet 2 on vc1, flits interleaved.
        let mut h1 = flit(FlitKind::Head, ServiceClass::Bulk, 1, 0);
        h1.link_vc = VcId::new(0);
        let mut t1 = flit(FlitKind::Tail, ServiceClass::Bulk, 1, 1);
        t1.link_vc = VcId::new(0);
        let mut h2 = flit(FlitKind::Head, ServiceClass::Bulk, 2, 0);
        h2.link_vc = VcId::new(1);
        let mut t2 = flit(FlitKind::Tail, ServiceClass::Bulk, 2, 1);
        t2.link_vc = VcId::new(1);
        i.receive(h1, 10, &mut NoProbe);
        i.receive(h2, 11, &mut NoProbe);
        i.receive(t2, 12, &mut NoProbe);
        i.receive(t1, 13, &mut NoProbe);
        let d = i.drain_delivered();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].id, PacketId(2));
        assert_eq!(d[0].delivered_at, 12);
        assert_eq!(d[1].id, PacketId(1));
        assert_eq!(d[1].num_flits, 2);
    }

    #[test]
    fn corruption_flag_propagates() {
        let mut i = iface();
        let mut h = flit(FlitKind::Head, ServiceClass::Bulk, 1, 0);
        h.meta.corrupted = true;
        let t = flit(FlitKind::Tail, ServiceClass::Bulk, 1, 1);
        i.receive(h, 0, &mut NoProbe);
        i.receive(t, 1, &mut NoProbe);
        assert!(i.drain_delivered()[0].corrupted);
    }

    #[test]
    fn peek_matches_pick() {
        let mut i = iface();
        let p = vec![flit(FlitKind::HeadTail, ServiceClass::Bulk, 7, 0)];
        i.enqueue_packet(VcId::new(2), p).unwrap();
        let peeked = *i.peek_injection().unwrap();
        let picked = i.pick_injection(0).unwrap();
        assert_eq!(peeked.meta.packet, picked.meta.packet);
        assert!(i.peek_injection().is_none());
    }

    #[test]
    fn choose_vc_prefers_space() {
        let mut i = iface();
        let p = vec![flit(FlitKind::HeadTail, ServiceClass::Bulk, 1, 0)];
        i.enqueue_packet(VcId::new(0), p).unwrap();
        let allowed = VcMask::new(0b0011);
        let vc = i.choose_vc(allowed.iter(), 1).unwrap();
        assert_eq!(vc, VcId::new(1)); // vc0 has one flit queued
                                      // Demand more space than any queue has.
        assert!(i.choose_vc(allowed.iter(), 100).is_none());
    }

    /// The injection arbiter before the queue mask: every VC probed in
    /// round-robin order with a `%` each. A reference for the
    /// equivalence test only.
    struct ReferenceArbiter {
        queues: Vec<VecDeque<Flit>>,
        credits: Vec<u64>,
        gated: bool,
        rr: usize,
        open: Option<usize>,
    }

    impl ReferenceArbiter {
        fn next_vc(&self) -> Option<usize> {
            if self.open.is_some() {
                return self.open;
            }
            let n = self.queues.len();
            let mut best: Option<(u8, usize)> = None;
            for off in 0..n {
                let v = (self.rr + off) % n;
                let Some(front) = self.queues[v].front() else {
                    continue;
                };
                if self.gated && self.credits[v] == 0 {
                    continue;
                }
                let pri = front.meta.class.priority();
                if best.is_none_or(|(bp, _)| pri > bp) {
                    best = Some((pri, v));
                }
            }
            best.map(|(_, v)| v)
        }

        fn pick(&mut self, now: Cycle) -> Option<Flit> {
            let v = self.next_vc()?;
            let mut flit = self.queues[v].pop_front().unwrap();
            if self.gated {
                self.credits[v] -= 1;
            } else {
                self.open = (!flit.kind.is_tail()).then_some(v);
            }
            flit.meta.injected_at = now;
            self.rr = (v + 1) % self.queues.len();
            Some(flit)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The mask walk picks the same flit sequence as the probe-every-
        /// VC reference over random enqueue, peek, pick and credit
        /// sequences on 8 VCs: credit-gated (credits running out and
        /// returning) and ungated (multi-flit packets held open to the
        /// tail), with all three service classes competing.
        #[test]
        fn mask_walk_matches_the_probing_reference(
            gated in proptest::prelude::any::<bool>(),
            credits in 0u64..3,
            ops in proptest::collection::vec((0u8..4, 0usize..8, 1u16..4, 0u8..3), 0..80),
        ) {
            let mut i = TileInterface::new(NodeId::new(0), 8, 6, credits, gated);
            let mut r = ReferenceArbiter {
                queues: (0..8).map(|_| VecDeque::new()).collect(),
                credits: vec![credits; 8],
                gated,
                rr: 0,
                open: None,
            };
            for (now, &(op, vc, len, class)) in ops.iter().enumerate() {
                let now = now as Cycle;
                match op {
                    0 => {
                        let class = [ServiceClass::Bulk, ServiceClass::Priority, ServiceClass::Reserved]
                            [usize::from(class)];
                        let packet: Vec<Flit> = (0..len)
                            .map(|idx| {
                                let kind = match (idx == 0, idx + 1 == len) {
                                    (true, true) => FlitKind::HeadTail,
                                    (true, false) => FlitKind::Head,
                                    (false, true) => FlitKind::Tail,
                                    (false, false) => FlitKind::Body,
                                };
                                flit(kind, class, now, idx)
                            })
                            .collect();
                        let vc = VcId::new(vc as u8);
                        if i.enqueue_packet(vc, packet.iter().copied()).is_ok() {
                            r.queues[vc.index()].extend(packet.into_iter().map(|mut f| {
                                f.link_vc = vc;
                                f
                            }));
                        }
                    }
                    1 => {
                        let want = r.next_vc().map(|v| *r.queues[v].front().unwrap());
                        proptest::prelude::prop_assert_eq!(i.peek_injection().copied(), want);
                    }
                    2 => proptest::prelude::prop_assert_eq!(i.pick_injection(now), r.pick(now)),
                    _ => {
                        i.credit_return(VcId::new(vc as u8));
                        r.credits[vc] += 1;
                    }
                }
                proptest::prelude::prop_assert_eq!(
                    i.pending_flits(),
                    r.queues.iter().map(VecDeque::len).sum::<usize>()
                );
            }
        }
    }
}
