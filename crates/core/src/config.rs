//! Network configuration: topology, flow control, virtual-channel plan,
//! buffer sizing, and timing.

use crate::error::Error;
use crate::flit::VcMask;
use crate::ids::VcId;
use crate::reservation::StaticFlowSpec;
use crate::route::SourceRoute;
use crate::router::VcRouter;
use crate::topology::{FoldedTorus2D, Mesh2D, Ring, Topology};

/// Which topology to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// The paper's baseline folded 2-D torus of radix `k`.
    FoldedTorus {
        /// Nodes per dimension.
        k: usize,
    },
    /// A 2-D mesh of radix `k` (the §3.1 comparison point).
    Mesh {
        /// Nodes per dimension.
        k: usize,
    },
    /// A 1-D folded ring of `k` nodes.
    Ring {
        /// Node count.
        k: usize,
    },
}

impl TopologySpec {
    /// Instantiates the topology.
    pub fn build(&self) -> Box<dyn Topology> {
        match *self {
            TopologySpec::FoldedTorus { k } => Box::new(FoldedTorus2D::new(k)),
            TopologySpec::Mesh { k } => Box::new(Mesh2D::new(k)),
            TopologySpec::Ring { k } => Box::new(Ring::new(k)),
        }
    }

    /// Whether minimal routes can wrap around (and therefore need dateline
    /// virtual-channel classes to stay deadlock-free).
    pub fn has_wraparound(&self) -> bool {
        !matches!(self, TopologySpec::Mesh { .. })
    }

    /// The radix `k`: nodes per dimension (total nodes, for a ring).
    pub fn radix(&self) -> usize {
        let (TopologySpec::Mesh { k } | TopologySpec::FoldedTorus { k } | TopologySpec::Ring { k }) =
            *self;
        k
    }

    /// Hops on the longest minimal route (the network diameter):
    /// `2(k − 1)` on a mesh, `2⌊k/2⌋` on a folded torus, `⌊k/2⌋` on a
    /// ring.
    fn diameter(&self) -> usize {
        match *self {
            TopologySpec::Mesh { k } => k.saturating_sub(1).saturating_mul(2),
            TopologySpec::FoldedTorus { k } => k / 2 * 2,
            TopologySpec::Ring { k } => k / 2,
        }
    }

    /// Checks that the topology can be built and that every minimal
    /// route fits a source route.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the radix is below 2 or the
    /// diameter route needs more than [`SourceRoute::MAX_ENTRIES`]
    /// entries. The route bound also keeps every node id within u16.
    fn validate(&self) -> Result<(), Error> {
        let k = self.radix();
        if k < 2 {
            return Err(Error::Config(format!(
                "{self:?}: the radix must be at least 2"
            )));
        }
        // One entry per hop plus the final extract.
        let entries = self.diameter().saturating_add(1);
        if entries > SourceRoute::MAX_ENTRIES {
            return Err(Error::Config(format!(
                "{self:?}: its longest route needs {entries} entries, more than the {} a source \
                 route holds",
                SourceRoute::MAX_ENTRIES
            )));
        }
        Ok(())
    }

    /// Total node count: `k²` for the 2-D topologies, `k` for a ring.
    pub fn num_nodes(&self) -> usize {
        match *self {
            TopologySpec::FoldedTorus { k } | TopologySpec::Mesh { k } => k * k,
            TopologySpec::Ring { k } => k,
        }
    }
}

/// The flow-control method (paper §2.3 baseline and §3.2 alternatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowControl {
    /// Credit-based virtual-channel flow control — the paper's baseline.
    /// Needs `vcs × buf_depth` flits of buffering per input controller.
    #[default]
    VirtualChannel,
    /// Packets that encounter contention are dropped; requires almost no
    /// buffering but loses packets (pair with an end-to-end retry layer)
    /// and wastes the wire energy of dropped partial traversals.
    Dropping,
    /// Misrouting (hot-potato/deflection): contending flits are sent out a
    /// non-preferred port instead of buffering. Only single-flit packets.
    Deflection,
}

/// Link-level error protection (paper §2.5's alternative to end-to-end
/// checking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkProtection {
    /// Raw links; transient upsets reach the destination (pair with the
    /// end-to-end retry service).
    #[default]
    None,
    /// SEC-DED over each flit payload: single-bit upsets are corrected at
    /// the receiving router "with the cost of additional delay" — one
    /// extra cycle of channel latency.
    Secded,
}
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingAlg {
    /// Minimal dimension-order (X then Y) source routes.
    #[default]
    DimensionOrder,
    /// Valiant randomized routing: route minimally to a random
    /// intermediate node, then minimally to the destination. Balances
    /// adversarial patterns at the cost of doubled average distance.
    Valiant,
}

/// What happens to a link slot that is reserved for a static flow when the
/// flow has nothing to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReservationPolicy {
    /// Dynamic traffic may use an unused reserved slot (higher link
    /// utilization; reserved traffic still never waits).
    #[default]
    WorkConserving,
    /// The slot idles (a strict TDM circuit).
    Strict,
}

/// Assignment of the eight virtual channels to service classes and
/// dateline classes.
///
/// The default plan mirrors the paper's structure: dynamic bulk traffic on
/// VCs 0–3, high-priority dynamic traffic on VCs 4–5, VC 6 spare, and VC 7
/// dedicated to pre-scheduled traffic (§2.6). On wraparound topologies
/// each dynamic class is split into a *dateline pair*: packets that have
/// crossed a wrap link may only use the upper half, which breaks the
/// cyclic channel dependency of ring routes and keeps the torus
/// deadlock-free. [`crate::expand::TierTable`] derives from a plan the
/// mask each routing state is allocated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcPlan {
    /// Number of virtual channels (≤ 8, the width of the VC mask field).
    pub num_vcs: usize,
    /// Bulk VCs usable before crossing a dateline.
    pub bulk_class0: VcMask,
    /// Bulk VCs usable after crossing a dateline.
    pub bulk_class1: VcMask,
    /// Priority VCs before the dateline.
    pub priority_class0: VcMask,
    /// Priority VCs after the dateline.
    pub priority_class1: VcMask,
    /// The reserved VC(s) for pre-scheduled flows.
    pub reserved: VcMask,
}

impl VcPlan {
    /// The paper's 8-VC plan (see type-level docs).
    pub const fn paper_baseline() -> VcPlan {
        VcPlan {
            num_vcs: 8,
            bulk_class0: VcMask::new(0b0000_0011), // VCs 0,1
            bulk_class1: VcMask::new(0b0000_1100), // VCs 2,3
            priority_class0: VcMask::new(0b0001_0000), // VC 4
            priority_class1: VcMask::new(0b0010_0000), // VC 5
            reserved: VcMask::new(0b1000_0000),    // VC 7
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if any class mask is empty, exceeds
    /// `num_vcs`, or overlaps the reserved mask.
    pub fn validate(&self) -> Result<(), Error> {
        if self.num_vcs == 0 || self.num_vcs > 8 {
            return Err(Error::Config(format!(
                "num_vcs must be 1..=8, got {}",
                self.num_vcs
            )));
        }
        let limit = if self.num_vcs == 8 {
            0xFF
        } else {
            (1u8 << self.num_vcs) - 1
        };
        let masks = [
            ("bulk_class0", self.bulk_class0),
            ("bulk_class1", self.bulk_class1),
            ("priority_class0", self.priority_class0),
            ("priority_class1", self.priority_class1),
            ("reserved", self.reserved),
        ];
        for (name, m) in masks {
            if m.is_empty() {
                return Err(Error::Config(format!("{name} mask is empty")));
            }
            if m.bits() & !limit != 0 {
                return Err(Error::Config(format!(
                    "{name} mask {:#010b} uses VCs beyond num_vcs={}",
                    m.bits(),
                    self.num_vcs
                )));
            }
        }
        let dynamic = self
            .bulk_class0
            .or(self.bulk_class1)
            .or(self.priority_class0)
            .or(self.priority_class1);
        if !dynamic.and(self.reserved).is_empty() {
            return Err(Error::Config(
                "reserved VCs must be disjoint from dynamic VCs".into(),
            ));
        }
        Ok(())
    }

    /// Iterates over all VC ids in the plan.
    pub fn vcs(&self) -> impl Iterator<Item = VcId> {
        (0..self.num_vcs as u8).map(VcId::new)
    }
}

impl Default for VcPlan {
    fn default() -> Self {
        VcPlan::paper_baseline()
    }
}

/// Full network configuration.
///
/// Use [`NetworkConfig::paper_baseline`] for the paper's §2 design point
/// and the builder-style `with_*` methods to vary it:
///
/// ```
/// use ocin_core::{NetworkConfig, TopologySpec, FlowControl};
///
/// let cfg = NetworkConfig::paper_baseline()
///     .with_topology(TopologySpec::Mesh { k: 8 })
///     .with_buf_depth(2);
/// assert_eq!(cfg.buf_depth, 2);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Topology to build. Its radix must be at least 2, and its longest
    /// minimal route must fit a source route (mesh k ≤ 32, folded torus
    /// k ≤ 63, ring k ≤ 127).
    pub topology: TopologySpec,
    /// Flow-control method.
    pub flow_control: FlowControl,
    /// Routing algorithm used to compile source routes.
    pub routing: RoutingAlg,
    /// Virtual-channel plan.
    pub vc_plan: VcPlan,
    /// Flit buffers per virtual channel per input controller (paper: 4;
    /// at most [`VcRouter::MAX_BUF_DEPTH`]).
    pub buf_depth: usize,
    /// Cycles a flit spends on an inter-tile channel (paper drives wires
    /// at the controller frequency: 1).
    pub channel_latency: u64,
    /// Additional cycles from channel arrival to switch-eligibility
    /// (models the input-controller pipeline).
    pub router_delay: u64,
    /// Cycles for a credit to travel back upstream.
    pub credit_latency: u64,
    /// Per-VC injection queue depth at the tile interface, in flits.
    pub inject_queue_flits: usize,
    /// Ejection buffering per VC at the tile interface, in flits.
    pub eject_capacity: usize,
    /// Cycles a flit occupies each link: 1 models the paper's full-width
    /// broadside channels; `p > 1` models a channel `1/p` as wide whose
    /// flits are serialized over `p` phits (the §4.2 narrow-interface
    /// trade: fewer wires, `p×` less link bandwidth, `p−1` extra cycles
    /// of serialization latency per hop).
    pub channel_phits: u64,
    /// Reject routes that do not fit the paper's 16-bit route field.
    pub require_paper_route_field: bool,
    /// Period, in cycles, of the cyclic reservation registers.
    pub reservation_period: u64,
    /// Pre-scheduled flows to admit at construction.
    pub static_flows: Vec<StaticFlowSpec>,
    /// Policy for unused reserved slots.
    pub reservation_policy: ReservationPolicy,
    /// Link-level error protection.
    pub link_protection: LinkProtection,
    /// Seed for randomized routing.
    pub seed: u64,
}

impl NetworkConfig {
    /// The paper's §2 baseline: a 4×4 folded torus, 8 VCs × 4-flit
    /// buffers, credit-based VC flow control, dimension-order source
    /// routes that fit the 16-bit route field.
    pub fn paper_baseline() -> NetworkConfig {
        NetworkConfig {
            topology: TopologySpec::FoldedTorus { k: 4 },
            flow_control: FlowControl::VirtualChannel,
            routing: RoutingAlg::DimensionOrder,
            vc_plan: VcPlan::paper_baseline(),
            buf_depth: 4,
            channel_latency: 1,
            router_delay: 1,
            credit_latency: 1,
            inject_queue_flits: 64,
            eject_capacity: 64,
            channel_phits: 1,
            require_paper_route_field: true,
            reservation_period: 16,
            static_flows: Vec::new(),
            reservation_policy: ReservationPolicy::WorkConserving,
            link_protection: LinkProtection::None,
            seed: 0x0C1_2001,
        }
    }

    /// Replaces the topology.
    pub fn with_topology(mut self, t: TopologySpec) -> Self {
        self.topology = t;
        // Larger networks need longer routes than the 16-bit field holds.
        let (TopologySpec::Mesh { k } | TopologySpec::FoldedTorus { k } | TopologySpec::Ring { k }) =
            t;
        if k > 4 {
            self.require_paper_route_field = false;
        }
        self
    }

    /// Replaces the flow-control method.
    pub fn with_flow_control(mut self, f: FlowControl) -> Self {
        self.flow_control = f;
        if f == FlowControl::Dropping {
            self.buf_depth = 1;
        }
        self
    }

    /// Replaces the routing algorithm.
    pub fn with_routing(mut self, r: RoutingAlg) -> Self {
        self.routing = r;
        if r == RoutingAlg::Valiant {
            // Valiant routes can be twice as long as minimal ones.
            self.require_paper_route_field = false;
        }
        self
    }

    /// Replaces the per-VC buffer depth.
    pub fn with_buf_depth(mut self, d: usize) -> Self {
        self.buf_depth = d;
        self
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a pre-scheduled flow (admitted when the network is built).
    pub fn with_static_flow(mut self, flow: StaticFlowSpec) -> Self {
        self.static_flows.push(flow);
        self
    }

    /// Replaces the reservation period (cycles).
    pub fn with_reservation_period(mut self, period: u64) -> Self {
        self.reservation_period = period;
        self
    }

    /// Replaces the reservation policy.
    pub fn with_reservation_policy(mut self, p: ReservationPolicy) -> Self {
        self.reservation_policy = p;
        self
    }

    /// Replaces the link protection scheme.
    pub fn with_link_protection(mut self, p: LinkProtection) -> Self {
        self.link_protection = p;
        self
    }

    /// Replaces the per-link serialization factor (channel width =
    /// full flit width / `phits`).
    pub fn with_channel_phits(mut self, phits: u64) -> Self {
        self.channel_phits = phits;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] describing the first invalid parameter.
    pub fn validate(&self) -> Result<(), Error> {
        self.topology.validate()?;
        if self.require_paper_route_field {
            // Valiant's two minimal legs may need up to twice the diameter.
            let legs = match self.routing {
                RoutingAlg::DimensionOrder => 1,
                RoutingAlg::Valiant => 2,
            };
            let entries = self.topology.diameter() * legs + 1;
            if entries > SourceRoute::PAPER_FIELD_ENTRIES {
                return Err(Error::Config(format!(
                    "{:?} under {:?} routing: its longest route may need {entries} entries, \
                     more than the {} of the paper's route field \
                     (require_paper_route_field is set)",
                    self.topology,
                    self.routing,
                    SourceRoute::PAPER_FIELD_ENTRIES
                )));
            }
        }
        self.vc_plan.validate()?;
        if self.buf_depth == 0 {
            return Err(Error::Config("buf_depth must be at least 1".into()));
        }
        if self.buf_depth > VcRouter::MAX_BUF_DEPTH {
            return Err(Error::Config(format!(
                "buf_depth must be at most {}, got {}",
                VcRouter::MAX_BUF_DEPTH,
                self.buf_depth
            )));
        }
        if self.channel_latency == 0 {
            return Err(Error::Config("channel_latency must be at least 1".into()));
        }
        if self.inject_queue_flits == 0 {
            return Err(Error::Config(
                "inject_queue_flits must be at least 1".into(),
            ));
        }
        if self.eject_capacity == 0 {
            return Err(Error::Config("eject_capacity must be at least 1".into()));
        }
        if self.reservation_period == 0 {
            return Err(Error::Config(
                "reservation_period must be at least 1".into(),
            ));
        }
        if self.flow_control == FlowControl::Dropping && self.buf_depth != 1 {
            return Err(Error::Config(
                "dropping flow control uses single-flit buffers".into(),
            ));
        }
        if self.channel_phits == 0 {
            return Err(Error::Config("channel_phits must be at least 1".into()));
        }
        if self.channel_phits > 1 && self.flow_control != FlowControl::VirtualChannel {
            return Err(Error::Config(
                "phit serialization is modelled for virtual-channel flow control only".into(),
            ));
        }
        if !self.static_flows.is_empty() && self.flow_control != FlowControl::VirtualChannel {
            return Err(Error::Config(
                "pre-scheduled flows require virtual-channel flow control".into(),
            ));
        }
        Ok(())
    }

    /// Total buffer bits per input controller:
    /// `vcs × depth × 300 b` — the paper's "about 10⁴ bits along each edge
    /// of the tile" at the baseline point.
    pub fn buffer_bits_per_input(&self) -> usize {
        self.vc_plan.num_vcs * self.buf_depth * crate::flit::FLIT_TOTAL_BITS
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        NetworkConfig::paper_baseline().validate().unwrap();
    }

    #[test]
    fn baseline_buffer_budget_matches_paper() {
        // 8 VCs x 4 flits x 300 b = 9600 ≈ "about 10^4 bits" per edge.
        let cfg = NetworkConfig::paper_baseline();
        assert_eq!(cfg.buffer_bits_per_input(), 9600);
    }

    #[test]
    fn vc_plan_masks_are_disjoint_and_valid() {
        let p = VcPlan::paper_baseline();
        p.validate().unwrap();
        let all = [
            p.bulk_class0,
            p.bulk_class1,
            p.priority_class0,
            p.priority_class1,
            p.reserved,
        ];
        for i in 0..all.len() {
            for j in 0..i {
                assert!(all[i].and(all[j]).is_empty(), "masks {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let mut p = VcPlan::paper_baseline();
        p.num_vcs = 0;
        assert!(p.validate().is_err());

        let mut p = VcPlan::paper_baseline();
        p.bulk_class0 = VcMask::NONE;
        assert!(p.validate().is_err());

        let mut p = VcPlan::paper_baseline();
        p.num_vcs = 4; // reserved VC 7 now out of range
        assert!(p.validate().is_err());

        let mut p = VcPlan::paper_baseline();
        p.reserved = p.bulk_class0; // overlap
        assert!(p.validate().is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = NetworkConfig::paper_baseline().with_buf_depth(0);
        assert!(cfg.validate().is_err());

        let mut cfg = NetworkConfig::paper_baseline().with_flow_control(FlowControl::Dropping);
        cfg.buf_depth = 4;
        assert!(cfg.validate().is_err());

        let mut cfg = NetworkConfig::paper_baseline();
        cfg.reservation_period = 0;
        assert!(cfg.validate().is_err());
    }

    /// Validation error of `cfg`, which `Network::new` must return too.
    fn config_error(cfg: NetworkConfig) -> String {
        let Err(Error::Config(msg)) = cfg.validate() else {
            panic!("{cfg:?} validated");
        };
        assert!(matches!(
            crate::Network::new(cfg),
            Err(Error::Config(m)) if m == msg
        ));
        msg
    }

    #[test]
    fn single_node_mesh_is_rejected() {
        let cfg = NetworkConfig::paper_baseline().with_topology(TopologySpec::Mesh { k: 1 });
        assert!(config_error(cfg).contains("radix must be at least 2"));
    }

    #[test]
    fn torus_too_large_is_rejected() {
        let cfg =
            NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 256 });
        assert!(config_error(cfg).contains("needs 257 entries"));
    }

    #[test]
    fn mesh_whose_corner_route_overflows_the_route_field_is_rejected() {
        let cfg = NetworkConfig::paper_baseline().with_topology(TopologySpec::Mesh { k: 40 });
        assert!(config_error(cfg).contains("needs 79 entries, more than the 64"));
    }

    #[test]
    fn buffer_too_deep_for_slab_handles_is_rejected() {
        let cfg = NetworkConfig::paper_baseline().with_buf_depth(1 << 40);
        assert!(config_error(cfg).contains("buf_depth must be at most 1637"));
        let deepest = NetworkConfig::paper_baseline().with_buf_depth(VcRouter::MAX_BUF_DEPTH);
        deepest.validate().unwrap();
    }

    /// The largest radix each topology accepts is exactly the one whose
    /// diameter route fills a source route.
    #[test]
    fn route_bound_admits_the_largest_routable_radix() {
        for (largest, next) in [
            (TopologySpec::Mesh { k: 32 }, TopologySpec::Mesh { k: 33 }),
            (
                TopologySpec::FoldedTorus { k: 63 },
                TopologySpec::FoldedTorus { k: 64 },
            ),
            (TopologySpec::Ring { k: 127 }, TopologySpec::Ring { k: 128 }),
        ] {
            largest.validate().unwrap();
            assert!(next.validate().is_err(), "{next:?}");
        }
    }

    /// `diameter` is the longest route `route_dirs` builds.
    #[test]
    fn diameter_matches_the_longest_route() {
        for k in 2..=7 {
            for spec in [
                TopologySpec::Mesh { k },
                TopologySpec::FoldedTorus { k },
                TopologySpec::Ring { k },
            ] {
                let topo = spec.build();
                let n = topo.num_nodes() as u16;
                let longest = (0..n)
                    .flat_map(|s| (0..n).map(move |d| (s, d)))
                    .map(|(s, d)| topo.route_dirs(s.into(), d.into()).len())
                    .max();
                assert_eq!(longest, Some(spec.diameter()), "{spec:?}");
            }
        }
    }

    /// A route field the longest route cannot fit is a config error,
    /// not a panic at the first long packet.
    #[test]
    fn paper_route_field_is_checked_against_the_longest_route() {
        let mut cfg = NetworkConfig::paper_baseline();
        cfg.validate().unwrap();
        // Assigned as a field, the topology keeps the flag set: a k = 8
        // torus's 8-hop diameter route needs 9 entries.
        cfg.topology = TopologySpec::FoldedTorus { k: 8 };
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("may need 9 entries"), "{err}");
        cfg.require_paper_route_field = false;
        cfg.validate().unwrap();
        // Valiant's two legs double the bound on the baseline torus.
        let mut cfg = NetworkConfig::paper_baseline();
        cfg.routing = RoutingAlg::Valiant;
        assert!(cfg.validate().is_err());
        cfg.routing = RoutingAlg::DimensionOrder;
        cfg.topology = TopologySpec::Mesh { k: 4 };
        cfg.validate().unwrap();
    }

    #[test]
    fn builders_adjust_route_field_requirement() {
        let cfg = NetworkConfig::paper_baseline();
        assert!(cfg.require_paper_route_field);
        let cfg = cfg.with_topology(TopologySpec::Mesh { k: 8 });
        assert!(!cfg.require_paper_route_field);
        let cfg = NetworkConfig::paper_baseline().with_routing(RoutingAlg::Valiant);
        assert!(!cfg.require_paper_route_field);
    }

    #[test]
    fn wraparound_detection() {
        assert!(TopologySpec::FoldedTorus { k: 4 }.has_wraparound());
        assert!(TopologySpec::Ring { k: 4 }.has_wraparound());
        assert!(!TopologySpec::Mesh { k: 4 }.has_wraparound());
    }
}
