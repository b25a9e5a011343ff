//! Router microarchitecture (paper §2.3, Figure 3).
//!
//! Every tile has a router of five input controllers and five output
//! controllers (N/E/S/W/Tile). Three cores implement the flow-control
//! methods the paper discusses:
//!
//! * [`VcRouter`] — the baseline: credit-based virtual-channel flow
//!   control with per-VC input buffers, VC allocation in parallel with
//!   switch arbitration, and a single staging flit per input-port
//!   connection at each output controller.
//! * [`DroppingRouter`] — §3.2's minimal-buffer alternative: packets that
//!   encounter contention are dropped.
//! * [`DeflectionRouter`] — §3.2's misrouting alternative: contending
//!   flits are sent out a non-preferred port instead of waiting.

mod deflection;
mod dropping;
mod vc;

pub use deflection::DeflectionRouter;
pub use dropping::DroppingRouter;
pub use vc::VcRouter;

use crate::config::ReservationPolicy;
use crate::flit::Flit;
use crate::ids::{Cycle, PacketId, Port, VcId};
use crate::probe::Probe;
use crate::reservation::ReservationTable;
use crate::route::Turn;
use crate::topology::Topology;

/// Everything a router consults while evaluating a cycle.
pub struct EvalEnv<'a> {
    /// Current cycle.
    pub now: Cycle,
    /// Reservation registers and slot policy, when static flows exist.
    pub reservations: Option<(&'a ReservationTable, ReservationPolicy)>,
    /// The topology (used by deflection routing to find productive ports).
    pub topo: &'a dyn Topology,
}

/// A fixed-capacity inline vector holding at most one entry per router
/// port. The per-cycle router outputs are bounded by the five ports, so
/// this never touches the heap: [`crate::network::Network`] owns one
/// [`RouterOutput`] as reusable scratch that is cleared, never
/// reallocated, between router evaluations.
#[derive(Debug)]
pub struct PortVec<T> {
    slots: [Option<T>; Port::COUNT],
    len: usize,
}

impl<T> PortVec<T> {
    /// An empty vector.
    pub const fn new() -> PortVec<T> {
        PortVec {
            slots: [None, None, None, None, None],
            len: 0,
        }
    }

    /// Appends `value`.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    #[inline]
    pub fn push(&mut self, value: T) {
        // INVARIANT: every router core emits at most one launch, credit,
        // and drop per port per cycle, so Port::COUNT slots suffice.
        assert!(self.len < Port::COUNT, "PortVec overflow");
        self.slots[self.len] = Some(value);
        self.len += 1;
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        // INVARIANT: push() fills slots densely from the front, so every
        // slot below `len` is occupied.
        self.slots[..self.len]
            .iter()
            .map(|s| s.as_ref().expect("slot below len is occupied"))
    }

    /// Removes and yields the entries in insertion order, leaving the
    /// vector empty (capacity is inline; nothing is freed).
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        let n = self.len;
        self.len = 0;
        // INVARIANT: push() fills slots densely from the front, so every
        // slot below the pre-drain `len` is occupied.
        self.slots[..n]
            .iter_mut()
            .map(|s| s.take().expect("slot below len is occupied"))
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        for s in &mut self.slots[..self.len] {
            *s = None;
        }
        self.len = 0;
    }
}

impl<T> Default for PortVec<T> {
    fn default() -> PortVec<T> {
        PortVec::new()
    }
}

impl<T> std::ops::Index<usize> for PortVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        // INVARIANT: indexing below `len` hits a slot push() filled.
        assert!(i < self.len, "PortVec index {i} out of bounds");
        self.slots[i].as_ref().expect("slot below len is occupied")
    }
}

/// What a router did in one cycle.
///
/// Owned by the network as reusable scratch: `evaluate` writes into it
/// by `&mut`, the network drains it, and [`RouterOutput::clear`] resets
/// it without ever touching the allocator.
#[derive(Debug, Default)]
pub struct RouterOutput {
    /// Flits leaving through each output port.
    pub launches: PortVec<(Port, Flit)>,
    /// Credits to return upstream, keyed by the *input* port whose buffer
    /// freed a slot.
    pub credits: PortVec<(Port, VcId)>,
    /// Packets dropped this cycle (dropping flow control only).
    pub dropped_packets: PortVec<PacketId>,
    /// Flits discarded this cycle (members of dropped packets).
    pub dropped_flits: u64,
}

impl RouterOutput {
    /// Resets the scratch for the next router evaluation.
    pub fn clear(&mut self) {
        self.launches.clear();
        self.credits.clear();
        self.dropped_packets.clear();
        self.dropped_flits = 0;
    }
}

/// Resolves a head flit's next output port, consuming one route entry
/// and taking the hop in the flit's [`crate::expand::RouteState`].
///
/// At the source router the flit arrives on the tile port and the entry is
/// an absolute direction; elsewhere it is a turn relative to the current
/// heading (see [`crate::route`]).
///
/// # Panics
///
/// Panics if the route is exhausted — a malformed route that should have
/// been caught at compile time.
pub(crate) fn resolve_route(flit: &mut Flit, in_port: Port) {
    debug_assert!(flit.kind.is_head(), "only head flits carry routes");
    let (dir, rest) = match in_port {
        // INVARIANT: route compilation rejects empty routes, so a head
        // entering at its source always has a first hop.
        Port::Tile => flit
            .route
            .strip_first_hop()
            .expect("head flit with exhausted route at source"),
        Port::Dir(_) => {
            // INVARIANT: every compiled route ends in an Extract turn,
            // so a flit still in flight has entries left to consume.
            let (turn, rest) = flit
                .route
                .strip_turn()
                .expect("head flit with exhausted route in flight");
            if turn == Turn::Extract {
                flit.route = rest;
                flit.resolved_port = Some(Port::Tile);
                return;
            }
            // INVARIANT: the source router took the first hop, so a
            // flit arriving on a direction port has a heading.
            let heading = flit.meta.route_state.heading();
            (
                turn.apply(heading.expect("in-flight head flit has a heading")),
                rest,
            )
        }
    };
    flit.route = rest;
    flit.resolved_port = Some(Port::Dir(dir));
    flit.meta.route_state.take_hop(dir);
}

/// A router core: one of the three flow-control implementations.
///
/// The VC router is boxed: it carries per-VC buffers and credit state and
/// is far larger than the bufferless cores. The remaining size spread
/// (the dropping core inlines one flit slot per port) is intentional —
/// routers are constructed once per node, not moved around.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum RouterCore {
    /// Credit-based virtual-channel router (baseline).
    Vc(Box<VcRouter>),
    /// Drop-on-contention router.
    Dropping(DroppingRouter),
    /// Deflection (misrouting) router.
    Deflection(DeflectionRouter),
}

impl RouterCore {
    /// Accepts a flit arriving on `port`.
    pub fn receive(&mut self, port: Port, flit: Flit) {
        match self {
            RouterCore::Vc(r) => r.receive(port, flit),
            RouterCore::Dropping(r) => r.receive(port, flit),
            RouterCore::Deflection(r) => r.receive(port, flit),
        }
    }

    /// Applies a credit arriving for output `port`, channel `vc`.
    pub fn credit_arrived(&mut self, port: Port, vc: VcId) {
        match self {
            RouterCore::Vc(r) => r.credit_arrived(port, vc),
            // Dropping and deflection flow control use no credits.
            RouterCore::Dropping(_) | RouterCore::Deflection(_) => {}
        }
    }

    /// Evaluates one cycle, writing launches/credits/drops into the
    /// caller-owned `out` scratch (which must arrive cleared). `inject`
    /// offers a *reference* to the tile's next flit to cores that pull
    /// injections (deflection); the flit is only copied out of the
    /// interface queue if the router can actually consume it, and the
    /// returned `bool` reports whether it did. Allocation, stall, drop,
    /// and misroute events are reported to `probe`
    /// ([`crate::probe::NoProbe`] when disabled).
    pub fn evaluate(
        &mut self,
        env: &EvalEnv<'_>,
        inject: Option<&Flit>,
        out: &mut RouterOutput,
        probe: &mut dyn Probe,
    ) -> bool {
        match self {
            RouterCore::Vc(r) => {
                r.evaluate(env, out, probe);
                false
            }
            RouterCore::Dropping(r) => {
                r.evaluate(env, out, probe);
                false
            }
            RouterCore::Deflection(r) => r.evaluate(env, inject, out, probe),
        }
    }

    /// Whether evaluating this router right now would be a guaranteed
    /// no-op: no buffered or staged flits anywhere. O(1) or a bounded
    /// five-slot walk per core — never a per-VC scan.
    ///
    /// This is the activity-gated engine's skip predicate. The contract
    /// (checked per core by this module's quiescence-contract test) is:
    /// if `is_quiescent()` holds, `evaluate` produces an empty
    /// [`RouterOutput`], consumes no injection offer, emits no probe
    /// events, and leaves every piece of router state — including
    /// round-robin pointers, credit counters, VC ownership, and
    /// link-busy deadlines — bit-identical.
    pub fn is_quiescent(&self) -> bool {
        match self {
            RouterCore::Vc(r) => r.is_quiescent(),
            RouterCore::Dropping(r) => r.occupancy() == 0,
            RouterCore::Deflection(r) => r.occupancy() == 0,
        }
    }

    /// Flits currently buffered in this router (occupancy statistic).
    pub fn occupancy(&self) -> usize {
        match self {
            RouterCore::Vc(r) => r.occupancy(),
            RouterCore::Dropping(r) => r.occupancy(),
            RouterCore::Deflection(r) => r.occupancy(),
        }
    }

    /// Whether this core pulls injections during evaluation instead of
    /// accepting pushed tile-port flits.
    pub fn pulls_injection(&self) -> bool {
        matches!(self, RouterCore::Deflection(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlowControl, NetworkConfig};
    use crate::expand::RouteState;
    use crate::flit::{FlitKind, FlitMeta, Payload, ServiceClass, SizeCode, VcMask};
    use crate::ids::{Direction, NodeId};
    use crate::network::{Network, PacketSpec};
    use crate::probe::Event;
    use crate::reservation::StaticFlowSpec;
    use crate::route::SourceRoute;

    pub(crate) fn test_flit(kind: FlitKind, hops: &[Direction]) -> Flit {
        Flit {
            kind,
            size: SizeCode::MAX,
            vc_mask: VcMask::ALL,
            route: SourceRoute::compile(hops).unwrap(),
            payload: Payload::ZERO,
            link_vc: VcId::new(0),
            resolved_port: None,
            meta: FlitMeta {
                packet: PacketId(1),
                src: NodeId::new(0),
                dst: NodeId::new(1),
                flit_index: 0,
                packet_len: 1,
                created_at: 0,
                injected_at: 0,
                class: ServiceClass::Bulk,
                flow: None,
                route_state: RouteState::at_injection(ServiceClass::Bulk, 0),
                ecc: 0,
                corrupted: false,
            },
        }
    }

    #[test]
    fn resolve_at_source_uses_absolute_direction() {
        let mut f = test_flit(FlitKind::HeadTail, &[Direction::North, Direction::North]);
        resolve_route(&mut f, Port::Tile);
        assert_eq!(f.resolved_port, Some(Port::Dir(Direction::North)));
        assert_eq!(f.meta.route_state.heading(), Some(Direction::North));
    }

    #[test]
    fn resolve_in_flight_uses_turns() {
        let mut f = test_flit(FlitKind::HeadTail, &[Direction::East, Direction::North]);
        resolve_route(&mut f, Port::Tile);
        assert_eq!(f.resolved_port, Some(Port::Dir(Direction::East)));
        resolve_route(&mut f, Port::Dir(Direction::West));
        assert_eq!(f.resolved_port, Some(Port::Dir(Direction::North)));
        // Final entry extracts.
        resolve_route(&mut f, Port::Dir(Direction::South));
        assert_eq!(f.resolved_port, Some(Port::Tile));
    }

    /// Counts the events recorded into it.
    #[derive(Default)]
    struct Count(usize);

    impl Probe for Count {
        fn record(&mut self, _now: Cycle, _event: Event) {
            self.0 += 1;
        }
    }

    /// The skip contract of [`RouterCore::is_quiescent`], checked
    /// directly on every core: whenever a router of a loaded network is
    /// quiescent between cycles, evaluating it gives an empty output,
    /// consumes no offer, records no event and leaves its `{:?}` — every
    /// field, locks, pointers and credit counts included — unchanged. A
    /// pull-mode core is offered nothing, as the engine offers only the
    /// routers it visits; a push-mode core is offered a flit it must
    /// ignore. Two-flit packets leave dropping routers quiescent while
    /// they hold a head-to-tail lock.
    #[test]
    fn quiescent_routers_evaluate_as_no_ops() {
        let reserved = NetworkConfig::paper_baseline()
            .with_channel_phits(2)
            .with_reservation_period(8)
            .with_static_flow(StaticFlowSpec::new(0.into(), 5.into(), 1, 64));
        let cores = [
            NetworkConfig::paper_baseline(),
            reserved,
            NetworkConfig::paper_baseline().with_flow_control(FlowControl::Dropping),
            NetworkConfig::paper_baseline().with_flow_control(FlowControl::Deflection),
        ];
        let offer = test_flit(FlitKind::HeadTail, &[Direction::East]);
        for cfg in cores {
            let fc = cfg.flow_control;
            let bits = if fc == FlowControl::Deflection {
                256
            } else {
                512
            };
            let mut net = Network::new(cfg).expect("valid config");
            let (mut checked, mut held_lock) = (0, false);
            for now in 0..300u64 {
                let src = (now % 16) as u16;
                let dst = ((now * 7 + 3) % 16) as u16;
                if src != dst && now < 200 {
                    let _ = net.inject(&PacketSpec::new(src.into(), dst.into()).payload_bits(bits));
                }
                net.step();
                let now = net.cycle();
                let mut handles = net.shard_handles(1);
                let h = &mut handles[0];
                let env = EvalEnv {
                    now,
                    reservations: h
                        .shared
                        .reservations
                        .as_ref()
                        .map(|t| (t, h.shared.cfg.reservation_policy)),
                    topo: h.shared.topo.as_ref(),
                };
                for r in h.cell.routers.iter_mut().filter(|r| r.is_quiescent()) {
                    let before = format!("{r:?}");
                    held_lock |= before.contains("locked: Some");
                    let mut out = RouterOutput::default();
                    let mut events = Count::default();
                    let inject = (!r.pulls_injection()).then_some(&offer);
                    let consumed = r.evaluate(&env, inject, &mut out, &mut events);
                    let at = format!("{fc:?} at {now}");
                    assert!(out.launches.is_empty() && out.credits.is_empty(), "{at}");
                    assert!(
                        out.dropped_packets.is_empty() && out.dropped_flits == 0,
                        "{at}"
                    );
                    assert!(!consumed, "{at}: consumed an offer");
                    assert_eq!(events.0, 0, "{at}: recorded events");
                    assert_eq!(format!("{r:?}"), before, "{at}: state changed");
                    checked += 1;
                }
            }
            assert!(checked > 1_000, "{fc:?}: only {checked} quiescent routers");
            if fc == FlowControl::Dropping {
                assert!(held_lock, "no quiescent dropping router held a lock");
            }
        }
    }
}
