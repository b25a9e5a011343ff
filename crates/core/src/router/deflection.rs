//! Deflection (misrouting / hot-potato) flow control (paper §3.2).
//!
//! Flits are never buffered and never dropped: every arriving flit leaves
//! on *some* output in the same cycle. A flit that loses arbitration for a
//! productive direction is deflected out a free non-productive one and
//! works its way back. Only single-flit packets are supported — the
//! classic regime for deflection routing — and routing is recomputed from
//! the destination at every hop (a deflected flit has left its source
//! route, so the route field is ignored).
//!
//! Age-based arbitration (oldest flit first) guarantees livelock freedom
//! in practice: the oldest flit in the network always takes a productive
//! port.

use crate::flit::Flit;
use crate::ids::{Direction, NodeId, PacketId, Port};
use crate::probe::{Event, Probe};

use super::{EvalEnv, RouterOutput};

/// A bufferless router that misroutes on contention.
#[derive(Debug)]
pub struct DeflectionRouter {
    node: NodeId,
    /// Flits that arrived since the last evaluation.
    arrivals: Vec<Flit>,
    /// Running count of deflections (non-productive assignments).
    pub deflections: u64,
    /// Running count of flits forwarded.
    pub forwarded: u64,
}

impl DeflectionRouter {
    /// Creates the router for `node`.
    pub fn new(node: NodeId) -> DeflectionRouter {
        DeflectionRouter {
            node,
            arrivals: Vec::with_capacity(Port::COUNT),
            deflections: 0,
            forwarded: 0,
        }
    }

    /// Accepts an arriving flit.
    ///
    /// # Panics
    ///
    /// Panics on multi-flit packets (deflection supports single-flit
    /// packets only) or if more flits arrive than the router has inputs.
    pub fn receive(&mut self, _port: Port, flit: Flit) {
        // INVARIANT: the interface fragments every message into
        // single-flit packets under deflection flow control.
        assert!(
            flit.kind.is_head() && flit.kind.is_tail(),
            "router {}: deflection requires single-flit packets",
            self.node
        );
        // INVARIANT: each of the four neighbour links delivers at most
        // one flit per cycle, and evaluate() drains all arrivals.
        assert!(
            self.arrivals.len() < 4,
            "router {}: more arrivals than inputs",
            self.node
        );
        self.arrivals.push(flit);
    }

    /// Flits awaiting this cycle's evaluation.
    pub fn occupancy(&self) -> usize {
        self.arrivals.len()
    }

    /// Evaluates one cycle: ejects at most one local flit, matches the
    /// rest (oldest first) to outputs, and pulls in an injection if an
    /// output remains free. Launches/ejects are written into `out` (the
    /// eject, if any, always first); returns whether the offered
    /// injection was consumed. Deflections are reported to `probe`.
    ///
    /// With no arrivals and no offer this is a no-op (the router holds no
    /// cross-cycle flit state at all), so `occupancy() == 0` is a safe
    /// quiescence predicate; a pending injection keeps the router in the
    /// evaluation set independently.
    pub fn evaluate(
        &mut self,
        env: &EvalEnv<'_>,
        inject: Option<&Flit>,
        out: &mut RouterOutput,
        probe: &mut dyn Probe,
    ) -> bool {
        // Oldest first; ties by packet id, then arrival order: an
        // insertion sort of at most 4 indices, so each flit is read in
        // place and copied once, into its launch.
        let n = self.arrivals.len();
        let key = |f: &Flit| (f.meta.injected_at, f.meta.packet);
        let mut order = [0usize, 1, 2, 3];
        for i in 1..n {
            let mut j = i;
            while j > 0 && key(&self.arrivals[order[j - 1]]) > key(&self.arrivals[order[i]]) {
                j -= 1;
            }
            order[j..=i].rotate_right(1);
        }
        let order = &order[..n];
        // Eject at most one local flit — the oldest. Pushed before any
        // transit launch so the launch order the network (and its probe
        // stream) sees is eject first, then transit in age order.
        let eject = order
            .iter()
            .position(|&i| self.arrivals[i].meta.dst == self.node);
        if let Some(k) = eject {
            out.launches.push((Port::Tile, self.arrivals[order[k]]));
        }
        let transit = n - usize::from(eject.is_some());
        let consumed = transit < 4 && inject.is_some();
        let mut free = [true; 4]; // direction outputs
        for (rank, &i) in order.iter().enumerate() {
            if Some(rank) != eject {
                let meta = &self.arrivals[i].meta;
                let d = self.route_one(env, &mut free, meta.dst, meta.packet, probe);
                out.launches.push((Port::Dir(d), self.arrivals[i]));
            }
        }
        if consumed {
            // The offered flit is copied out of the interface queue only
            // here, on the consuming path; its injection timestamp is the
            // cycle it actually entered the network.
            // INVARIANT: `consumed` is only true when `inject` is Some.
            let mut f = *inject.expect("consumed implies an offer");
            f.meta.injected_at = env.now;
            let d = self.route_one(env, &mut free, f.meta.dst, f.meta.packet, probe);
            out.launches.push((Port::Dir(d), f));
        }
        // The buffer keeps its capacity across cycles (no per-cycle
        // allocation).
        self.arrivals.clear();
        consumed
    }

    /// Picks the output for one transit (or just-injected) flit bound
    /// for `dst`: a free productive direction if one exists, otherwise a
    /// free non-productive one (a deflection). Marks it taken.
    fn route_one(
        &mut self,
        env: &EvalEnv<'_>,
        free: &mut [bool; 4],
        dst: NodeId,
        packet: PacketId,
        probe: &mut dyn Probe,
    ) -> Direction {
        let productive = env.topo.productive_dirs(self.node, dst);
        let chosen = productive
            .iter()
            .find(|d| free[d.index()])
            .or_else(|| Direction::ALL.iter().copied().find(|d| free[d.index()]));
        // INVARIANT: at most 4 flits reach routing (one ejected,
        // injection gated on a free slot), so a free output exists.
        let d = chosen.expect("outputs cannot be exhausted: at most 4 flits routed");
        if !productive.contains(d) {
            self.deflections += 1;
            let node = self.node;
            probe.record(env.now, Event::Misroute { node, packet });
        }
        free[d.index()] = false;
        self.forwarded += 1;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;
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

    fn eval(
        r: &mut DeflectionRouter,
        env: &EvalEnv<'_>,
        inject: Option<&Flit>,
    ) -> (RouterOutput, bool) {
        let mut out = RouterOutput::default();
        let consumed = r.evaluate(env, inject, &mut out, &mut NoProbe);
        (out, consumed)
    }

    fn flit_to(dst: u16, packet: u64, age: u64) -> Flit {
        let mut f = test_flit(FlitKind::HeadTail, &[Direction::East]);
        f.meta.dst = NodeId::new(dst);
        f.meta.packet = PacketId(packet);
        f.meta.injected_at = age;
        f
    }

    #[test]
    fn local_flit_ejects() {
        let topo = FoldedTorus2D::new(4);
        let mut r = DeflectionRouter::new(NodeId::new(5));
        r.receive(Port::Dir(Direction::West), flit_to(5, 1, 0));
        let (out, _) = eval(&mut r, &env(&topo), None);
        assert_eq!(out.launches.len(), 1);
        assert_eq!(out.launches[0].0, Port::Tile);
    }

    #[test]
    fn uncontended_flit_goes_productive() {
        let topo = FoldedTorus2D::new(4);
        let mut r = DeflectionRouter::new(NodeId::new(0));
        // Node 1 is one hop east of node 0.
        r.receive(Port::Dir(Direction::West), flit_to(1, 1, 0));
        let (out, _) = eval(&mut r, &env(&topo), None);
        assert_eq!(out.launches.len(), 1);
        assert_eq!(out.launches[0].0, Port::Dir(Direction::East));
        assert_eq!(r.deflections, 0);
    }

    #[test]
    fn contention_deflects_the_younger_flit() {
        let topo = FoldedTorus2D::new(4);
        let mut r = DeflectionRouter::new(NodeId::new(0));
        // Both want East (dst = 1); only one productive direction exists.
        r.receive(Port::Dir(Direction::West), flit_to(1, 1, 5)); // younger
        r.receive(Port::Dir(Direction::North), flit_to(1, 2, 1)); // older
        let (out, _) = eval(&mut r, &env(&topo), None);
        assert_eq!(out.launches.len(), 2);
        // The older flit (packet 2) gets East.
        let east = out
            .launches
            .iter()
            .find(|(p, _)| *p == Port::Dir(Direction::East))
            .unwrap();
        assert_eq!(east.1.meta.packet, PacketId(2));
        assert_eq!(r.deflections, 1);
    }

    #[test]
    fn injection_needs_a_free_output() {
        let topo = FoldedTorus2D::new(4);
        let mut r = DeflectionRouter::new(NodeId::new(0));
        for p in 0..4 {
            r.receive(Port::Dir(Direction::ALL[p as usize]), flit_to(2, p, 0));
        }
        let (out, consumed) = eval(&mut r, &env(&topo), Some(&flit_to(3, 99, 0)));
        assert!(!consumed, "all outputs taken by transit flits");
        assert_eq!(out.launches.len(), 4);
        // Next cycle is empty: injection succeeds.
        let (out, consumed) = eval(&mut r, &env(&topo), Some(&flit_to(3, 99, 0)));
        assert!(consumed);
        assert_eq!(out.launches.len(), 1);
    }

    #[test]
    fn never_drops() {
        let topo = FoldedTorus2D::new(4);
        let mut r = DeflectionRouter::new(NodeId::new(0));
        for p in 0..4u64 {
            r.receive(Port::Dir(Direction::ALL[p as usize]), flit_to(1, p, p));
        }
        let (out, _) = eval(&mut r, &env(&topo), None);
        // All four leave on four distinct outputs.
        assert_eq!(out.launches.len(), 4);
        let mut ports: Vec<usize> = out.launches.iter().map(|(p, _)| p.index()).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4);
        assert!(out.dropped_packets.is_empty());
    }

    /// The evaluation before arrivals were ordered by index: a stable
    /// sort of the flits by `(injected_at, packet)`, the local flit
    /// removed, the rest drained. A reference for the equivalence test
    /// only. Returns the launches, whether the offer was consumed, and
    /// the deflections.
    fn reference_evaluate(
        node: NodeId,
        mut flits: Vec<Flit>,
        env: &EvalEnv<'_>,
        inject: Option<&Flit>,
    ) -> (Vec<(Port, Flit)>, bool, u64) {
        let mut launches = Vec::new();
        let mut deflections = 0;
        let mut route = |free: &mut [bool; 4], f: Flit| {
            let productive = env.topo.productive_dirs(node, f.meta.dst);
            let d = productive
                .iter()
                .find(|d| free[d.index()])
                .or_else(|| Direction::ALL.iter().copied().find(|d| free[d.index()]))
                .unwrap();
            if !productive.contains(d) {
                deflections += 1;
            }
            free[d.index()] = false;
            launches.push((Port::Dir(d), f));
        };
        flits.sort_by_key(|f| (f.meta.injected_at, f.meta.packet));
        let mut eject = None;
        if let Some(k) = flits.iter().position(|f| f.meta.dst == node) {
            eject = Some(flits.remove(k));
        }
        let consumed = flits.len() < 4 && inject.is_some();
        let mut free = [true; 4];
        for f in flits.drain(..) {
            route(&mut free, f);
        }
        if consumed {
            let mut f = *inject.unwrap();
            f.meta.injected_at = env.now;
            route(&mut free, f);
        }
        if let Some(f) = eject {
            launches.insert(0, (Port::Tile, f));
        }
        (launches, consumed, deflections)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Ordering arrivals by index launches the same flits, in the
        /// same order and on the same ports, consumes the same offer and
        /// counts the same deflections as the sort-and-remove reference:
        /// up to 4 arrivals with colliding ages and packet ids (ties
        /// broken by arrival order), local destinations included, with
        /// and without an offered injection.
        #[test]
        fn index_order_matches_the_sorting_reference(
            node in 0u16..16,
            arrivals in proptest::collection::vec((0u64..4, 0u64..4, 0u16..16), 0..5),
            offer in proptest::prelude::any::<bool>(),
            offer_dst in 0u16..16,
        ) {
            let topo = FoldedTorus2D::new(4);
            let env = EvalEnv { now: 9, reservations: None, topo: &topo };
            let node = NodeId::new(node);
            let flits: Vec<Flit> = arrivals
                .iter()
                .enumerate()
                .map(|(i, &(age, packet, dst))| {
                    let mut f = flit_to(dst, packet, age);
                    // Tell equal-keyed flits apart by arrival order.
                    f.meta.flit_index = i as u16;
                    f
                })
                .collect();
            let offered = flit_to(offer_dst, 100, 0);
            let inject = offer.then_some(&offered);
            let mut r = DeflectionRouter::new(node);
            for (i, &f) in flits.iter().enumerate() {
                r.receive(Port::Dir(Direction::ALL[i]), f);
            }
            let (out, consumed) = eval(&mut r, &env, inject);
            let launches: Vec<(Port, Flit)> = out.launches.iter().copied().collect();
            let want = reference_evaluate(node, flits, &env, inject);
            proptest::prelude::prop_assert_eq!((launches, consumed, r.deflections), want);
            proptest::prelude::prop_assert_eq!(r.occupancy(), 0);
        }
    }
}
