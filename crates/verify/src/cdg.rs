//! Channel dependency graph construction and cycle detection.
//!
//! Dally & Seitz: a wormhole network is deadlock-free iff the directed
//! graph whose vertices are the network's `(channel, virtual channel)`
//! resources and whose edges connect each resource a route may hold to
//! the resource it waits for next is acyclic. This module enumerates
//! that graph from the *actual* routing functions — the same
//! `Topology::route_dirs` tables the simulator compiles into
//! `SourceRoute`s and the same `VcPlan` tier masks its VC allocator
//! consults, replayed through [`ocin_core::expand::RouteState`] — then
//! runs an iterative Tarjan SCC pass over it.
//!
//! Edges are deduplicated at the *(channel pair, state pair)* level
//! before being materialized per VC: a routing state (dateline class ×
//! Valiant segment × service class) fixes the VC tier mask, so a walk
//! only records one bit per transition and the cross product of tier
//! masks is expanded once at the end. This keeps the k = 32 matrix
//! (1024-node networks, ~10⁶ routes per point) inside a few hundred
//! kilobytes of working state.
//!
//! Two-segment (Valiant) routing is enumerated *decomposed*: segment A
//! over all `(src, mid)` pairs, segment B over all `(mid, dst)` pairs,
//! plus junction edges at every `mid` joining each incoming final
//! channel to each outgoing first channel that is not a reversal (a
//! reversal cannot compile into the turn encoding, so the simulator
//! resamples it away). The union over mids is a sound over-approximation
//! of the O(n³) route set at O(n²) cost.
//!
//! The `Reserved` service class is deliberately excluded: reserved VCs
//! carry pre-scheduled flows in admission-controlled TDM slots (paper
//! §2.6), which guarantee forward progress by construction rather than
//! by acyclic ordering.

use std::collections::BTreeMap;

use ocin_core::expand::{RouteState, TierTable, DYNAMIC_TIERS};
use ocin_core::{
    Direction, NodeId, RoutingAlg, ServiceClass, Topology, TopologySpec, Turn, VcPlan,
};

/// Tiers a walk can record: every dynamic tier (the reserved pair is
/// excluded, see the module docs). A tier set fits a `u8`, a tier pair
/// a bit of a `u64`.
const NUM_STATES: usize = DYNAMIC_TIERS;

/// One directed network channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// Node the channel leaves.
    pub from: NodeId,
    /// Direction it points.
    pub dir: Direction,
    /// Node whose input buffers back it.
    pub to: NodeId,
}

/// Route-conformance tallies gathered while enumerating routes. All
/// violation counters are zero for a well-formed configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Facts {
    /// Routes (or route segments) walked.
    pub routes_checked: u64,
    /// Total hops expanded across all routes.
    pub hops_checked: u64,
    /// Longest single route or segment seen.
    pub max_route_hops: usize,
    /// Minimal walks whose length disagrees with the per-axis wrap
    /// distance computed independently from coordinates.
    pub distance_mismatches: u64,
    /// Consecutive hop pairs `Turn::between` cannot encode (reversals).
    pub illegal_turns: u64,
    /// Hops where the VC tier rank decreased without the route turning
    /// onto the other axis (the only point the dateline class resets).
    pub tier_regressions: u64,
    /// Hops whose effective VC mask is empty — the packet could never
    /// be allocated and the route is unusable.
    pub empty_masks: u64,
    /// Service classes whose post-dateline (escape) mask is empty on a
    /// wraparound topology.
    pub escape_gaps: u64,
}

impl Facts {
    /// True when every conformance check passed.
    pub fn all_ok(&self) -> bool {
        self.distance_mismatches == 0
            && self.illegal_turns == 0
            && self.tier_regressions == 0
            && self.empty_masks == 0
            && self.escape_gaps == 0
    }
}

/// Where a witness edge's exemplar route came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exemplar {
    /// A minimal dimension-order route `src -> dst` of `class`.
    Minimal {
        class: ServiceClass,
        src: u16,
        dst: u16,
    },
    /// The first Valiant segment `src -> mid`.
    SegmentA { src: u16, mid: u16 },
    /// The second Valiant segment `mid -> dst`.
    SegmentB { mid: u16, dst: u16 },
    /// The junction hop pair of `src -> mid -> dst`.
    Junction { src: u16, mid: u16, dst: u16 },
}

impl Exemplar {
    /// Relabels a minimal exemplar's service class (the bulk and
    /// priority tier families share one hop walk); Valiant exemplars
    /// are returned unchanged.
    fn with_class(self, class: ServiceClass) -> Exemplar {
        match self {
            Exemplar::Minimal { src, dst, .. } => Exemplar::Minimal { class, src, dst },
            other => other,
        }
    }

    fn render(&self) -> String {
        match *self {
            Exemplar::Minimal { class, src, dst } => {
                let c = match class {
                    ServiceClass::Bulk => "bulk",
                    ServiceClass::Priority => "priority",
                    ServiceClass::Reserved => "reserved",
                };
                format!("dimension-order {c} {src}->{dst}")
            }
            Exemplar::SegmentA { src, mid } => format!("valiant segment A {src}->{mid}"),
            Exemplar::SegmentB { mid, dst } => format!("valiant segment B {mid}->{dst}"),
            Exemplar::Junction { src, mid, dst } => format!("valiant junction {src}->{mid}->{dst}"),
        }
    }
}

/// One `(channel, VC)` resource of a witness cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessResource {
    /// The channel.
    pub channel: Channel,
    /// The virtual channel held on it.
    pub vc: u8,
}

/// One waits-for edge of a witness cycle, with a concrete route that
/// induces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessEdge {
    /// Index into the cycle's resource list.
    pub from: usize,
    /// Index of the waited-for resource (the next cycle entry).
    pub to: usize,
    /// A human-readable route exemplar inducing this dependency.
    pub route: String,
}

/// A minimal cyclic dependency: proof that the configuration can
/// deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessCycle {
    /// Stable content hash of the cycle (FNV-1a over its rendering).
    pub id: String,
    /// The resources, starting from the smallest, in waits-for order.
    pub resources: Vec<WitnessResource>,
    /// One edge per consecutive resource pair (wrapping).
    pub edges: Vec<WitnessEdge>,
}

/// The enumerated channel dependency graph of one configuration point.
pub struct Cdg {
    topo: Box<dyn Topology>,
    num_vcs: usize,
    dateline_aware: bool,
    channels: Vec<Channel>,
    /// `node.index() * 4 + dir.index()` → channel index (or `u32::MAX`).
    ch_lookup: Vec<u32>,
    /// Per channel, bitmap of tiers observed on it.
    seen_states: Vec<u8>,
    /// Per `(channel, out dir)` pair, bitmap over (tier, tier).
    trans: Vec<u64>,
    /// First route observed setting each transition bit.
    exemplars: BTreeMap<(u32, u8, u8), Exemplar>,
    /// The plan's tier masks. A tier's mask is already the effective
    /// mask: the packet's own mask is a superset of every tier it can
    /// occupy.
    tiers: TierTable,
    /// Conformance tallies.
    pub facts: Facts,
    /// Materialized adjacency over `channel * num_vcs + vc` resources.
    adj: Vec<Vec<u32>>,
    edge_count: u64,
}

impl Cdg {
    /// Enumerates the CDG for `spec` × `routing` under `plan`.
    ///
    /// `dateline_aware` normally mirrors
    /// [`TopologySpec::has_wraparound`]; passing `false` on a wraparound
    /// topology models a (deliberately broken) network without dateline
    /// classes.
    pub fn build(
        spec: TopologySpec,
        routing: RoutingAlg,
        plan: &VcPlan,
        dateline_aware: bool,
    ) -> Cdg {
        let topo = spec.build();
        let num_nodes = topo.num_nodes();
        let raw = topo.channels();
        let mut channels = Vec::with_capacity(raw.len());
        let mut ch_lookup = vec![u32::MAX; num_nodes * 4];
        for (from, dir) in raw {
            let to = topo
                .neighbor(from, dir)
                .expect("channels() lists real links");
            ch_lookup[from.index() * 4 + dir.index()] = channels.len() as u32;
            channels.push(Channel { from, dir, to });
        }
        let n_ch = channels.len();
        let mut cdg = Cdg {
            topo,
            num_vcs: plan.num_vcs,
            dateline_aware,
            channels,
            ch_lookup,
            seen_states: vec![0; n_ch],
            trans: vec![0; n_ch * 4],
            exemplars: BTreeMap::new(),
            tiers: TierTable::new(plan, dateline_aware),
            facts: Facts::default(),
            adj: Vec::new(),
            edge_count: 0,
        };
        cdg.check_escape_masks(spec, routing);
        cdg.enumerate(spec, routing);
        cdg.materialize();
        cdg
    }

    /// Escape-VC reachability: on a dateline-aware wraparound topology,
    /// every class in play must have a non-empty post-dateline mask.
    fn check_escape_masks(&mut self, spec: TopologySpec, routing: RoutingAlg) {
        if !(self.dateline_aware && spec.has_wraparound()) {
            return;
        }
        // The escape tier of each family: its first tier, delivered over
        // a dateline.
        let mut starts = vec![
            RouteState::at_injection(ServiceClass::Priority, 0),
            RouteState::at_injection(ServiceClass::Bulk, 0),
        ];
        if routing == RoutingAlg::Valiant {
            starts.push(RouteState::at_injection(ServiceClass::Bulk, 1));
            starts.push(RouteState::at_segment_two());
        }
        for mut st in starts {
            st.delivered_over(true);
            if self.tiers.mask(st.tier()).is_empty() {
                self.facts.escape_gaps += 1;
            }
        }
    }

    /// Walks every route the routing algorithm can produce.
    fn enumerate(&mut self, spec: TopologySpec, routing: RoutingAlg) {
        let n = self.topo.num_nodes() as u16;
        match routing {
            RoutingAlg::DimensionOrder => {
                // Bulk and priority share the hop walk; both tier
                // families are recorded per hop.
                for src in 0..n {
                    for dst in 0..n {
                        if src == dst {
                            continue;
                        }
                        let dirs = self.topo.route_dirs(NodeId::new(src), NodeId::new(dst));
                        self.check_minimal_distance(spec, src, dst, dirs.len());
                        self.walk_minimal(src, dst, &dirs, true);
                    }
                }
            }
            RoutingAlg::Valiant => {
                // Priority traffic stays minimal under Valiant routing.
                // Bulk traffic is two-segment; the compute_route
                // fallback splits even direct routes at the
                // dimension-order corner, so every multi-hop bulk route
                // is covered by the segment decomposition. Single-hop
                // bulk routes (no valid split) occupy one plain-mask
                // resource and contribute no edges.
                let mut junction_in: BTreeMap<(u32, u8), u16> = BTreeMap::new();
                let mut junction_out: BTreeMap<(u16, u8), u16> = BTreeMap::new();
                for a in 0..n {
                    for b in 0..n {
                        if a == b {
                            continue;
                        }
                        let dirs = self.topo.route_dirs(NodeId::new(a), NodeId::new(b));
                        self.check_minimal_distance(spec, a, b, dirs.len());
                        self.walk_minimal(a, b, &dirs, false);
                        if dirs.len() == 1 {
                            let ch = self.channel_at(NodeId::new(a), dirs[0]);
                            let bulk = RouteState::at_injection(ServiceClass::Bulk, 0);
                            self.seen_states[ch as usize] |= 1 << bulk.tier();
                        }
                        // Segment A: a -> b as intermediate.
                        let boundary = dirs.len().min(u8::MAX as usize) as u8;
                        if let Some((last_ch, last_s)) = self.walk(
                            a,
                            &dirs,
                            RouteState::at_injection(ServiceClass::Bulk, boundary),
                            None,
                            Exemplar::SegmentA { src: a, mid: b },
                        ) {
                            junction_in.entry((last_ch, last_s)).or_insert(a);
                        }
                        // Segment B: a as intermediate -> b.
                        if self
                            .walk(
                                a,
                                &dirs,
                                RouteState::at_segment_two(),
                                None,
                                Exemplar::SegmentB { mid: a, dst: b },
                            )
                            .is_some()
                        {
                            junction_out.entry((a, dirs[0].index() as u8)).or_insert(b);
                        }
                    }
                }
                // Junction edges: each incoming final channel waits on
                // each non-reversal outgoing first channel, entering
                // segment 1 with a fresh dateline class.
                let seg_two = RouteState::at_segment_two().tier();
                for (&(ch, s), &src) in &junction_in {
                    let mid = self.channels[ch as usize].to;
                    let in_dir = self.channels[ch as usize].dir;
                    for dir in Direction::ALL {
                        if dir == in_dir.opposite() {
                            continue;
                        }
                        if let Some(&dst) =
                            junction_out.get(&(mid.index() as u16, dir.index() as u8))
                        {
                            self.add_edge(
                                ch,
                                dir,
                                s,
                                seg_two,
                                Exemplar::Junction {
                                    src,
                                    mid: mid.index() as u16,
                                    dst,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    /// Compares a minimal walk's length against the per-axis wrap
    /// distance computed independently from coordinates.
    fn check_minimal_distance(&mut self, spec: TopologySpec, src: u16, dst: u16, len: usize) {
        let a = self.topo.coord(NodeId::new(src));
        let b = self.topo.coord(NodeId::new(dst));
        let k = spec.radix() as i32;
        let axis = |p: u8, q: u8| -> usize {
            let d = (i32::from(p) - i32::from(q)).abs();
            if spec.has_wraparound() {
                d.min(k - d) as usize
            } else {
                d as usize
            }
        };
        let expect = match spec {
            TopologySpec::Ring { .. } => axis(a.x, b.x),
            TopologySpec::Mesh { .. } | TopologySpec::FoldedTorus { .. } => {
                axis(a.x, b.x) + axis(a.y, b.y)
            }
        };
        if len != expect {
            self.facts.distance_mismatches += 1;
        }
    }

    /// Walks one minimal route on the priority tiers and, when
    /// `include_bulk`, on the bulk tiers too.
    fn walk_minimal(&mut self, src: u16, dst: u16, dirs: &[Direction], include_bulk: bool) {
        self.walk(
            src,
            dirs,
            RouteState::at_injection(ServiceClass::Priority, 0),
            include_bulk.then(|| RouteState::at_injection(ServiceClass::Bulk, 0)),
            Exemplar::Minimal {
                class: ServiceClass::Priority,
                src,
                dst,
            },
        );
    }

    /// The shared hop loop: advances `st` — and `bulk`, a minimal
    /// route's bulk tiers, in lockstep — through the route-state machine
    /// the simulator's head flits run, records each resource and each
    /// consecutive-hop transition, and tallies conformance facts on `st`.
    /// Returns the final `(channel, tier)`, which stitches a Valiant
    /// segment to its junction.
    fn walk(
        &mut self,
        src: u16,
        dirs: &[Direction],
        mut st: RouteState,
        mut bulk: Option<RouteState>,
        ex: Exemplar,
    ) -> Option<(u32, u8)> {
        if dirs.is_empty() {
            return None;
        }
        self.facts.routes_checked += 1;
        self.facts.hops_checked += dirs.len() as u64;
        self.facts.max_route_hops = self.facts.max_route_hops.max(dirs.len());
        for w in dirs.windows(2) {
            if Turn::between(w[0], w[1]).is_none() {
                self.facts.illegal_turns += 1;
            }
        }
        let mut node = NodeId::new(src);
        let mut prev: Option<(u32, u8, Option<u8>, Direction)> = None;
        for &dir in dirs {
            st.take_hop(dir);
            let ch = self.channel_at(node, dir);
            let s = st.tier();
            if self.tiers.mask(s).is_empty() {
                self.facts.empty_masks += 1;
            }
            self.seen_states[ch as usize] |= 1 << s;
            let b = bulk.as_mut().map(|b| {
                b.take_hop(dir);
                b.tier()
            });
            if let Some(b) = b {
                self.seen_states[ch as usize] |= 1 << b;
            }
            if let Some((pch, ps, pb, pdir)) = prev {
                // A route's tiers are one family, ascending: the tier
                // may only fall where a turn resets the dateline class.
                if s < ps && pdir.axis() == dir.axis() {
                    self.facts.tier_regressions += 1;
                }
                self.add_edge(pch, dir, ps, s, ex);
                if let (Some(pb), Some(b)) = (pb, b) {
                    self.add_edge(pch, dir, pb, b, ex.with_class(ServiceClass::Bulk));
                }
            }
            let dateline = self.topo.is_dateline(node, dir);
            st.delivered_over(dateline);
            if let Some(b) = &mut bulk {
                b.delivered_over(dateline);
            }
            node = self.channels[ch as usize].to;
            prev = Some((ch, s, b, dir));
        }
        prev.map(|(ch, s, _, _)| (ch, s))
    }

    fn channel_at(&self, node: NodeId, dir: Direction) -> u32 {
        let ch = self.ch_lookup[node.index() * 4 + dir.index()];
        assert!(ch != u32::MAX, "route walks a missing channel");
        ch
    }

    fn add_edge(&mut self, ch: u32, out_dir: Direction, s_from: u8, s_to: u8, ex: Exemplar) {
        let pair = ch as usize * 4 + out_dir.index();
        let bit = 1u64 << (s_from * 8 + s_to);
        if self.trans[pair] & bit == 0 {
            self.trans[pair] |= bit;
            self.exemplars.insert((pair as u32, s_from, s_to), ex);
        }
    }

    /// Expands the state-level transition bitmaps into the concrete
    /// `(channel, vc)` adjacency the SCC pass runs over.
    fn materialize(&mut self) {
        let nv = self.num_vcs;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); self.channels.len() * nv];
        for pair in 0..self.trans.len() {
            let bits = self.trans[pair];
            if bits == 0 {
                continue;
            }
            let ch_i = (pair / 4) as u32;
            let dir = Direction::from_index(pair % 4);
            let ch_j = self.channel_at(self.channels[ch_i as usize].to, dir);
            for s_i in 0..NUM_STATES {
                for s_j in 0..NUM_STATES {
                    if bits & (1u64 << (s_i * 8 + s_j)) == 0 {
                        continue;
                    }
                    for vi in self.tiers.mask(s_i as u8).iter() {
                        for vj in self.tiers.mask(s_j as u8).iter() {
                            adj[ch_i as usize * nv + vi.index()]
                                .push(ch_j * nv as u32 + vj.index() as u32);
                        }
                    }
                }
            }
        }
        let mut edges = 0u64;
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
            edges += a.len() as u64;
        }
        self.adj = adj;
        self.edge_count = edges;
    }

    /// Number of directed network channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of `(channel, vc)` resources some route can occupy.
    pub fn num_resources(&self) -> usize {
        let nv = self.num_vcs;
        (0..self.channels.len() * nv)
            .filter(|&r| self.resource_in_use(r))
            .count()
    }

    /// Total deduplicated waits-for edges.
    pub fn num_edges(&self) -> u64 {
        self.edge_count
    }

    fn resource_in_use(&self, r: usize) -> bool {
        let nv = self.num_vcs;
        let (ch, vc) = (r / nv, r % nv);
        let states = self.seen_states[ch];
        (0..NUM_STATES).any(|s| {
            states & (1 << s) != 0
                && self
                    .tiers
                    .mask(s as u8)
                    .allows(ocin_core::VcId::new(vc as u8))
        })
    }

    /// Whether a simulated allocation of `vc` on the channel leaving
    /// `node` toward `dir` is one the static enumeration predicted.
    pub fn allows_acquisition(&self, node: NodeId, dir: Direction, vc: u8) -> bool {
        let ch = self.ch_lookup[node.index() * 4 + dir.index()];
        if ch == u32::MAX {
            return false;
        }
        self.resource_in_use(ch as usize * self.num_vcs + vc as usize)
    }

    /// Whether holding `(from_node → from_dir, from_vc)` while waiting
    /// for `(to_node → to_dir, to_vc)` is an enumerated dependency.
    pub fn has_edge(&self, from: (NodeId, Direction, u8), to: (NodeId, Direction, u8)) -> bool {
        let nv = self.num_vcs;
        let ch_a = self.ch_lookup[from.0.index() * 4 + from.1.index()];
        let ch_b = self.ch_lookup[to.0.index() * 4 + to.1.index()];
        if ch_a == u32::MAX || ch_b == u32::MAX {
            return false;
        }
        let a = ch_a as usize * nv + from.2 as usize;
        let b = ch_b * nv as u32 + u32::from(to.2);
        self.adj[a].binary_search(&b).is_ok()
    }

    /// Runs Tarjan SCC and, if any non-trivial component exists,
    /// extracts the deterministic minimal witness cycle.
    pub fn find_cycle(&self) -> Option<WitnessCycle> {
        let sccs = self.tarjan();
        let cyclic: Vec<&Vec<u32>> = sccs.iter().filter(|c| c.len() >= 2).collect();
        // A channel never depends on itself (consecutive hops use
        // distinct channels), so size-1 components are acyclic.
        let comp = cyclic
            .into_iter()
            .min_by_key(|c| *c.iter().min().expect("non-empty SCC"))?;
        let cycle = self.shortest_cycle_through_min(comp);
        Some(self.render_cycle(&cycle))
    }

    /// Iterative Tarjan over the materialized resource graph. Returns
    /// every strongly connected component, each sorted ascending.
    fn tarjan(&self) -> Vec<Vec<u32>> {
        let n = self.adj.len();
        const UNSEEN: u32 = u32::MAX;
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs: Vec<Vec<u32>> = Vec::new();
        // Explicit DFS frames: (node, next child position).
        let mut frames: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index[root as usize] != UNSEEN {
                continue;
            }
            frames.push((root, 0));
            while let Some(&mut (v, ref mut child)) = frames.last_mut() {
                let vi = v as usize;
                if *child == 0 {
                    index[vi] = next_index;
                    low[vi] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[vi] = true;
                }
                if let Some(&w) = self.adj[vi].get(*child) {
                    *child += 1;
                    let wi = w as usize;
                    if index[wi] == UNSEEN {
                        frames.push((w, 0));
                    } else if on_stack[wi] {
                        low[vi] = low[vi].min(index[wi]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(p, _)) = frames.last() {
                        low[p as usize] = low[p as usize].min(low[vi]);
                    }
                    if low[vi] == index[vi] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        sccs.push(comp);
                    }
                }
            }
        }
        sccs
    }

    /// Shortest cycle through the smallest resource of `comp`, found by
    /// BFS restricted to the component. Sorted adjacency plus FIFO
    /// order make the result deterministic.
    fn shortest_cycle_through_min(&self, comp: &[u32]) -> Vec<u32> {
        let start = *comp.iter().min().expect("non-empty SCC");
        let mut member = vec![false; self.adj.len()];
        for &c in comp {
            member[c as usize] = true;
        }
        let mut parent: Vec<u32> = vec![u32::MAX; self.adj.len()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &w in &self.adj[u as usize] {
                if w == start {
                    // Reconstruct start -> ... -> u, then wrap.
                    let mut path = vec![u];
                    let mut at = u;
                    while at != start {
                        at = parent[at as usize];
                        path.push(at);
                    }
                    path.reverse();
                    return path;
                }
                if member[w as usize] && parent[w as usize] == u32::MAX && w != start {
                    parent[w as usize] = u;
                    queue.push_back(w);
                }
            }
        }
        unreachable!("SCC of size >= 2 must contain a cycle through every member")
    }

    /// Renders a resource-id cycle into the stable witness form.
    fn render_cycle(&self, cycle: &[u32]) -> WitnessCycle {
        let nv = self.num_vcs;
        let resources: Vec<WitnessResource> = cycle
            .iter()
            .map(|&r| WitnessResource {
                channel: self.channels[r as usize / nv],
                vc: (r as usize % nv) as u8,
            })
            .collect();
        let mut edges = Vec::with_capacity(cycle.len());
        for i in 0..cycle.len() {
            let j = (i + 1) % cycle.len();
            edges.push(WitnessEdge {
                from: i,
                to: j,
                route: self.edge_exemplar(cycle[i], cycle[j]),
            });
        }
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &resources {
            for b in format!(
                "{}>{}:{} v{};",
                r.channel.from, r.channel.to, r.channel.dir, r.vc
            )
            .bytes()
            {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x1_0000_01b3);
            }
        }
        WitnessCycle {
            id: format!("{hash:016x}"),
            resources,
            edges,
        }
    }

    /// The first-recorded route exemplar inducing the materialized edge
    /// `a → b`.
    fn edge_exemplar(&self, a: u32, b: u32) -> String {
        let nv = self.num_vcs;
        let (ch_a, vc_a) = (a as usize / nv, (a as usize % nv) as u8);
        let (ch_b, vc_b) = (b as usize / nv, (b as usize % nv) as u8);
        let pair = (ch_a * 4 + self.channels[ch_b].dir.index()) as u32;
        for s_i in 0..NUM_STATES as u8 {
            if !self.tiers.mask(s_i).allows(ocin_core::VcId::new(vc_a)) {
                continue;
            }
            for s_j in 0..NUM_STATES as u8 {
                if !self.tiers.mask(s_j).allows(ocin_core::VcId::new(vc_b)) {
                    continue;
                }
                if let Some(ex) = self.exemplars.get(&(pair, s_i, s_j)) {
                    return ex.render();
                }
            }
        }
        "(no exemplar recorded)".to_string()
    }
}
