//! Drop-on-contention flow control (paper §3.2).
//!
//! "If packets are dropped ... when they encounter contention very little
//! buffering is required. However, dropping ... protocols reduce
//! performance and increase wire loading and hence power dissipation."
//!
//! This router holds at most one flit per input. A head flit either locks
//! its output link immediately or the whole packet is dropped — nothing
//! ever waits, so depth-1 buffers suffice. Reliability is recovered by the
//! end-to-end retry layer in `ocin-services`.

use crate::flit::Flit;
use crate::ids::{NodeId, PacketId, Port};
use crate::probe::{Event, Probe};

use super::{resolve_route, EvalEnv, RouterOutput};

#[derive(Debug, Default)]
struct DropIn {
    /// The single buffered flit (cleared every evaluation).
    buf: Option<Flit>,
    /// Packet currently being discarded (its head was dropped).
    dropping: Option<PacketId>,
    /// Output this input's live packet has locked.
    current_out: Option<Port>,
}

#[derive(Debug, Default)]
struct DropOut {
    /// Packet holding this output from head to tail.
    locked: Option<PacketId>,
}

/// A minimal-buffer router that drops packets on contention.
#[derive(Debug)]
pub struct DroppingRouter {
    node: NodeId,
    inputs: [DropIn; Port::COUNT],
    outputs: [DropOut; Port::COUNT],
    /// Running count of packets dropped here.
    pub packets_dropped: u64,
    /// Running count of flits discarded here.
    pub flits_discarded: u64,
}

impl DroppingRouter {
    /// Creates the router for `node`.
    pub fn new(node: NodeId) -> DroppingRouter {
        DroppingRouter {
            node,
            inputs: Default::default(),
            outputs: Default::default(),
            packets_dropped: 0,
            flits_discarded: 0,
        }
    }

    /// Accepts an arriving flit.
    ///
    /// Flits of a packet whose head was dropped here are discarded on
    /// sight; the tail closes the discard window.
    ///
    /// # Panics
    ///
    /// Panics if a flit arrives while the input slot is full — upstream
    /// sends at most one flit per cycle and the slot drains every cycle,
    /// so this indicates a scheduling bug.
    pub fn receive(&mut self, port: Port, mut flit: Flit) {
        let input = &mut self.inputs[port.index()];
        if let Some(pid) = input.dropping {
            if flit.meta.packet == pid {
                self.flits_discarded += 1;
                if flit.kind.is_tail() {
                    input.dropping = None;
                }
                return;
            }
        }
        if flit.kind.is_head() {
            resolve_route(&mut flit, port);
        }
        // INVARIANT: upstream sends at most one flit per cycle and
        // evaluate() drains the slot every cycle, so it is free here.
        assert!(
            input.buf.is_none(),
            "router {}: dropping-mode input {port} overrun",
            self.node
        );
        input.buf = Some(flit);
    }

    /// Flits currently buffered.
    pub fn occupancy(&self) -> usize {
        self.inputs.iter().filter(|i| i.buf.is_some()).count()
    }

    /// Evaluates one cycle: every buffered flit either launches or (heads
    /// only) is dropped; nothing waits. Drops are reported to `probe`.
    ///
    /// With all five input slots empty this is a no-op even when outputs
    /// are still head-to-tail locked, so `occupancy() == 0` is a safe
    /// quiescence predicate (the body flits that will unlock the output
    /// wake the router when they arrive).
    pub fn evaluate(&mut self, env: &EvalEnv<'_>, out: &mut RouterOutput, probe: &mut dyn Probe) {
        // Outputs driven this cycle: a link carries one flit per cycle,
        // so a head contending with a single-flit packet that launched
        // earlier this cycle (and thus holds no head-to-tail lock) is
        // dropped just like one contending with a locked output.
        let mut used = [false; Port::COUNT];
        for i in 0..Port::COUNT {
            let Some(flit) = self.inputs[i].buf.take() else {
                continue;
            };
            if flit.kind.is_head() {
                // INVARIANT: receive() resolves every head's route.
                let op = flit.resolved_port.expect("resolved at receive");
                if self.outputs[op.index()].locked.is_some() || used[op.index()] {
                    // Contention: drop the packet.
                    self.packets_dropped += 1;
                    self.flits_discarded += 1;
                    let (node, packet) = (self.node, flit.meta.packet);
                    probe.record(env.now, Event::Dropped { node, packet });
                    out.dropped_packets.push(flit.meta.packet);
                    out.dropped_flits += 1;
                    if !flit.kind.is_tail() {
                        self.inputs[i].dropping = Some(flit.meta.packet);
                    }
                    continue;
                }
                if !flit.kind.is_tail() {
                    self.outputs[op.index()].locked = Some(flit.meta.packet);
                    self.inputs[i].current_out = Some(op);
                }
                used[op.index()] = true;
                out.launches.push((op, flit));
            } else {
                // INVARIANT: links preserve flit order, so a surviving
                // body flit's head locked an output before it arrived.
                let op = self.inputs[i]
                    .current_out
                    .expect("body flit follows a locked head");
                if flit.kind.is_tail() {
                    self.outputs[op.index()].locked = None;
                    self.inputs[i].current_out = None;
                }
                used[op.index()] = true;
                out.launches.push((op, flit));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;
    use crate::ids::Direction;
    use crate::probe::NoProbe;
    use crate::router::tests::test_flit;
    use crate::topology::{FoldedTorus2D, Topology};

    fn env<'a>(topo: &'a dyn Topology) -> EvalEnv<'a> {
        EvalEnv {
            now: 0,
            reservations: None,
            topo,
        }
    }

    fn eval(r: &mut DroppingRouter, env: &EvalEnv<'_>) -> RouterOutput {
        let mut out = RouterOutput::default();
        r.evaluate(env, &mut out, &mut NoProbe);
        out
    }

    #[test]
    fn uncontended_packet_passes() {
        let topo = FoldedTorus2D::new(4);
        let mut r = DroppingRouter::new(NodeId::new(0));
        r.receive(
            Port::Tile,
            test_flit(FlitKind::HeadTail, &[Direction::East]),
        );
        let out = eval(&mut r, &env(&topo));
        assert_eq!(out.launches.len(), 1);
        assert_eq!(out.launches[0].0, Port::Dir(Direction::East));
        assert_eq!(r.packets_dropped, 0);
    }

    #[test]
    fn contending_head_is_dropped() {
        let topo = FoldedTorus2D::new(4);
        let mut r = DroppingRouter::new(NodeId::new(0));
        // A multi-flit packet locks East.
        let mut h = test_flit(FlitKind::Head, &[Direction::East]);
        h.meta.packet = PacketId(1);
        r.receive(Port::Tile, h);
        let out = eval(&mut r, &env(&topo));
        assert_eq!(out.launches.len(), 1);
        // A second head for East arrives on another input: dropped.
        let mut h2 = test_flit(FlitKind::HeadTail, &[Direction::East, Direction::East]);
        h2.meta.packet = PacketId(2);
        // It arrives heading East from the West side; craft a straight
        // route remainder.
        let mut f = h2;
        f.route = crate::route::SourceRoute::compile(&[Direction::East, Direction::East])
            .unwrap()
            .strip_first_hop()
            .unwrap()
            .1;
        f.meta.route_state.take_hop(Direction::East);
        r.receive(Port::Dir(Direction::West), f);
        let out = eval(&mut r, &env(&topo));
        assert!(out.launches.is_empty());
        assert!(out.dropped_packets.iter().copied().eq([PacketId(2)]));
        assert_eq!(r.packets_dropped, 1);
        // The first packet's tail unlocks East.
        let mut t = test_flit(FlitKind::Tail, &[Direction::East]);
        t.meta.packet = PacketId(1);
        r.receive(Port::Tile, t);
        let out = eval(&mut r, &env(&topo));
        assert_eq!(out.launches.len(), 1);
        // Now East is free again.
        let mut h3 = test_flit(FlitKind::HeadTail, &[Direction::East]);
        h3.meta.packet = PacketId(3);
        r.receive(Port::Tile, h3);
        let out = eval(&mut r, &env(&topo));
        assert_eq!(out.launches.len(), 1);
    }

    #[test]
    fn body_flits_of_dropped_packet_are_discarded() {
        let topo = FoldedTorus2D::new(4);
        let mut r = DroppingRouter::new(NodeId::new(0));
        // Lock East with packet 1.
        let mut h = test_flit(FlitKind::Head, &[Direction::East]);
        h.meta.packet = PacketId(1);
        r.receive(Port::Tile, h);
        eval(&mut r, &env(&topo));
        // Packet 2 (3 flits) arrives on the West input wanting East.
        let straight = crate::route::SourceRoute::compile(&[Direction::East, Direction::East])
            .unwrap()
            .strip_first_hop()
            .unwrap()
            .1;
        let mut h2 = test_flit(FlitKind::Head, &[Direction::East]);
        h2.meta.packet = PacketId(2);
        h2.route = straight;
        h2.meta.route_state.take_hop(Direction::East);
        r.receive(Port::Dir(Direction::West), h2);
        eval(&mut r, &env(&topo));
        assert_eq!(r.packets_dropped, 1);
        // Its body and tail are silently discarded.
        let mut b = test_flit(FlitKind::Body, &[Direction::East]);
        b.meta.packet = PacketId(2);
        r.receive(Port::Dir(Direction::West), b);
        let out = eval(&mut r, &env(&topo));
        assert!(out.launches.is_empty());
        let mut t = test_flit(FlitKind::Tail, &[Direction::East]);
        t.meta.packet = PacketId(2);
        r.receive(Port::Dir(Direction::West), t);
        eval(&mut r, &env(&topo));
        assert_eq!(r.flits_discarded, 3);
        // The discard window closed with the tail.
        assert!(r.inputs[Port::Dir(Direction::West).index()]
            .dropping
            .is_none());
    }
}
