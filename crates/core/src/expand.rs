//! The route-state machine every head flit runs, and the VC tier
//! masks it selects.
//!
//! A packet's deadlock-freedom on a wraparound topology rests on the
//! order in which it climbs its virtual-channel tiers: the dateline
//! class of each ring traversal and, on two-segment (Valiant) routes,
//! the segment. [`RouteState`] is that state machine. The simulator's
//! head flits carry one (`FlitMeta::route_state`): route resolution
//! calls [`RouteState::take_hop`] and link delivery calls
//! [`RouteState::delivered_over`]. `ocin-verify` walks the same type
//! over every route the routing functions produce, so the channel
//! dependency graph it certifies is built from the transitions the
//! simulator performs, not from a copy of them. Its fields are private:
//! no other code writes a dateline class, a segment or a hop count.
//!
//! [`TierTable`] lists a plan's tier masks once, indexed by
//! [`RouteState::tier`]; the VC router, injection and the verifier all
//! read it.

use std::ops::Range;

use crate::config::VcPlan;
use crate::flit::{ServiceClass, VcMask};
use crate::ids::{Direction, VcId};

/// Tier layout. A minimal route of a class holds the dateline pair
/// `base + dateline_class`; a two-segment route climbs the four tiers
/// `VALIANT + segment * 2 + dateline_class`. Every base is even, so a
/// tier's low bit is its dateline class.
const BULK: u8 = 0;
const PRIORITY: u8 = 2;
const VALIANT: u8 = 4;
const RESERVED: u8 = 8;
const NUM_TIERS: usize = 10;

/// Tiers `0..DYNAMIC_TIERS` carry dynamic traffic; the reserved pair
/// sits above them.
pub const DYNAMIC_TIERS: usize = RESERVED as usize;

/// A packet's routing state, advanced hop by hop: which VC tier it is
/// allocated on, and what it needs to know to move to the next one.
///
/// The transitions are:
///
/// * delivery over a dateline link moves the packet to the second
///   class of its current dateline pair, so it affects the next hop's
///   allocation;
/// * a hop that turns onto the other axis resets the dateline class —
///   a fresh ring traversal in the other dimension;
/// * on a two-segment route, the first hop past the boundary climbs to
///   segment 1 with a fresh dateline class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteState {
    /// Index into the [`TierTable`].
    tier: u8,
    /// Hops left in the first segment of a two-segment route.
    hops_left: u8,
    /// Direction of the last hop taken (`None` before the first).
    heading: Option<Direction>,
}

impl RouteState {
    /// The state of a freshly injected packet of `class`, whose first
    /// Valiant segment is `valiant_boundary` hops (0 for a minimal
    /// route).
    pub fn at_injection(class: ServiceClass, valiant_boundary: u8) -> RouteState {
        let tier = match (valiant_boundary, class) {
            (1.., _) => VALIANT,
            (0, ServiceClass::Bulk) => BULK,
            (0, ServiceClass::Priority) => PRIORITY,
            (0, ServiceClass::Reserved) => RESERVED,
        };
        RouteState {
            tier,
            hops_left: valiant_boundary,
            heading: None,
        }
    }

    /// The state of a two-segment packet as it leaves its intermediate
    /// node: segment 1, fresh dateline class, heading not yet set (the
    /// junction turn may be any non-reversal). Lets a verifier walk the
    /// second Valiant segment independently of the first.
    pub fn at_segment_two() -> RouteState {
        RouteState {
            tier: VALIANT + 2,
            hops_left: 0,
            heading: None,
        }
    }

    /// Takes a hop in `dir`: a turn onto the other axis resets the
    /// dateline class, then a two-segment route past its boundary
    /// climbs to segment 1.
    #[inline]
    pub fn take_hop(&mut self, dir: Direction) {
        // The dateline class is per dimension. Without the reset, packets
        // that wrapped in X would take the Y ring's class-1 escape VCs
        // and the torus could deadlock.
        if self.heading.is_some_and(|h| h.axis() != dir.axis()) {
            self.tier &= !1;
        }
        self.heading = Some(dir);
        // Segment 0 of a two-segment route counts down to its boundary.
        if (VALIANT..VALIANT + 2).contains(&self.tier) {
            if self.hops_left == 0 {
                self.tier = VALIANT + 2;
            } else {
                self.hops_left -= 1;
            }
        }
    }

    /// Applies the link-delivery effect: crossing a dateline link moves
    /// the packet to the second class of its current tier pair.
    #[inline]
    pub fn delivered_over(&mut self, dateline: bool) {
        if dateline {
            self.tier |= 1;
        }
    }

    /// Direction of the last hop taken; `None` before the first.
    #[inline]
    pub(crate) fn heading(&self) -> Option<Direction> {
        self.heading
    }

    /// The [`TierTable`] index of the mask this state is allocated on.
    /// Within one route the index never falls except where the dateline
    /// class resets on a turn.
    #[inline]
    pub fn tier(&self) -> u8 {
        self.tier
    }

    /// The tiers this state's route can climb through, lowest first.
    fn family(&self) -> Range<u8> {
        if (VALIANT..RESERVED).contains(&self.tier) {
            VALIANT..RESERVED
        } else {
            let base = self.tier & !1;
            base..base + 2
        }
    }
}

/// A VC plan's tier masks on one topology, computed once and indexed
/// by [`RouteState::tier`]: the one place the masks are listed.
///
/// On a wraparound topology each class's two masks form its dateline
/// pair, and each segment of a two-segment route splits its bulk class
/// into a lower (before the wrap) and upper (after) half. The packet
/// climbs its tiers monotonically, which breaks the rings' cyclic
/// channel dependencies. Without wraparound the split is unnecessary:
/// both halves are usable at every tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierTable {
    masks: [VcMask; NUM_TIERS],
}

impl TierTable {
    /// The table of `plan`; `dateline_aware` is whether the topology
    /// has wrap links.
    pub fn new(plan: &VcPlan, dateline_aware: bool) -> TierTable {
        let pair = |c0: VcMask, c1: VcMask| {
            if dateline_aware {
                [c0, c1]
            } else {
                [c0.or(c1); 2]
            }
        };
        let halves = |m: VcMask| {
            if dateline_aware {
                split_halves(m)
            } else {
                [m; 2]
            }
        };
        let [b0, b1] = pair(plan.bulk_class0, plan.bulk_class1);
        let [p0, p1] = pair(plan.priority_class0, plan.priority_class1);
        let [v00, v01] = halves(plan.bulk_class0);
        let [v10, v11] = halves(plan.bulk_class1);
        let r = plan.reserved;
        TierTable {
            masks: [b0, b1, p0, p1, v00, v01, v10, v11, r, r],
        }
    }

    /// The mask of tier `tier`.
    #[inline]
    pub fn mask(&self, tier: u8) -> VcMask {
        self.masks[usize::from(tier)]
    }

    /// The VC-mask field a packet of `class` carries: both halves of
    /// its class's dateline pair, a superset of every tier it climbs.
    pub fn packet_mask(&self, class: ServiceClass) -> VcMask {
        let base = RouteState::at_injection(class, 0).tier;
        self.mask(base).or(self.mask(base | 1))
    }

    /// The tier of `state`'s family whose mask holds `vc`; `None` when
    /// none or several do (merged non-dateline masks, a lone-bit
    /// Valiant split), where the ordering is undefined.
    pub(crate) fn tier_holding(&self, state: &RouteState, vc: VcId) -> Option<u8> {
        let mut holding = state.family().filter(|&t| self.mask(t).allows(vc));
        match (holding.next(), holding.next()) {
            (Some(t), None) => Some(t),
            _ => None,
        }
    }
}

/// Splits a mask's set bits into its lower and upper halves (a lone
/// bit lands in both, which sacrifices the guarantee — the paper
/// plan's bulk classes have two bits each, so the split is clean).
fn split_halves(mask: VcMask) -> [VcMask; 2] {
    let n = mask.bits().count_ones() as usize;
    if n < 2 {
        return [mask; 2];
    }
    let low = mask
        .iter()
        .take(n / 2)
        .fold(VcMask::NONE, |m, vc| m.or(VcMask::single(vc)));
    [low, VcMask::new(mask.bits() & !low.bits())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologySpec;
    use crate::ids::{Coord, NodeId};
    use crate::topology::Topology;

    fn torus4() -> Box<dyn Topology> {
        TopologySpec::FoldedTorus { k: 4 }.build()
    }

    /// Steps a [`RouteState`] from `src` along `dirs`, as the simulator
    /// does, returning the tier each hop's VC is allocated on.
    fn tiers_along(
        topo: &dyn Topology,
        mut state: RouteState,
        src: NodeId,
        dirs: &[Direction],
    ) -> Vec<u8> {
        let mut node = src;
        dirs.iter()
            .map(|&dir| {
                state.take_hop(dir);
                let tier = state.tier();
                state.delivered_over(topo.is_dateline(node, dir));
                node = topo.neighbor(node, dir).expect("hop stays on the topology");
                tier
            })
            .collect()
    }

    #[test]
    fn minimal_route_stays_on_its_first_tier() {
        let topo = torus4();
        let plan = VcPlan::paper_baseline();
        let tiers = TierTable::new(&plan, true);
        let src = NodeId::new(0);
        let dirs = topo.route_dirs(src, NodeId::new(10)); // (2,2): two E then two N
        let bulk = RouteState::at_injection(ServiceClass::Bulk, 0);
        // No dateline crossed on this route: every hop is allocated on
        // the pre-dateline bulk pair.
        let along = tiers_along(topo.as_ref(), bulk, src, &dirs);
        assert_eq!(along, vec![BULK; dirs.len()]);
        assert_eq!(tiers.mask(BULK), plan.bulk_class0);
    }

    #[test]
    fn dateline_crossing_switches_class_until_the_turn() {
        let topo = torus4();
        let plan = VcPlan::paper_baseline();
        let tiers = TierTable::new(&plan, true);
        let bulk = RouteState::at_injection(ServiceClass::Bulk, 0);
        // From (3,0), east crosses the X wrap (a dateline). The wrap link
        // itself is acquired in class 0; the turn into Y resets the class
        // before the northbound hop is allocated.
        let src = topo.node_at(Coord::new(3, 0));
        let turn = [Direction::East, Direction::North];
        assert_eq!(tiers_along(topo.as_ref(), bulk, src, &turn), [BULK, BULK]);
        // A straight continuation in X instead moves to class 1.
        let straight = [Direction::East, Direction::East];
        let along = tiers_along(topo.as_ref(), bulk, src, &straight);
        assert_eq!(along, [BULK, BULK + 1]);
        assert_eq!(tiers.mask(BULK + 1), plan.bulk_class1);
    }

    #[test]
    fn valiant_route_climbs_four_tiers() {
        let topo = torus4();
        let tiers = TierTable::new(&VcPlan::paper_baseline(), true);
        // src=(3,0) -> mid=(1,0) -> dst=(1,2): segment A crosses the X
        // dateline on its first hop, segment B runs north.
        let src = topo.node_at(Coord::new(3, 0));
        let dirs = [
            Direction::East,
            Direction::East,
            Direction::North,
            Direction::North,
        ];
        let valiant = RouteState::at_injection(ServiceClass::Bulk, 2);
        let along = tiers_along(topo.as_ref(), valiant, src, &dirs);
        // (segment, dateline class) = (0,0), (0,1), (1,0), (1,0).
        assert_eq!(along, [VALIANT, VALIANT + 1, VALIANT + 2, VALIANT + 2]);
        // Each Valiant tier is a single VC under the paper plan.
        let bits: Vec<u8> = along.iter().map(|&t| tiers.mask(t).bits()).collect();
        assert_eq!(bits, [0b0001, 0b0010, 0b0100, 0b0100]);
    }

    /// Without wraparound each class's dateline pair merges; with it,
    /// the pair splits and each Valiant segment halves its bulk class.
    #[test]
    fn tier_table_lists_the_plan_masks() {
        let plan = VcPlan::paper_baseline();
        let flat = TierTable::new(&plan, false);
        let bits = |t: &TierTable| {
            (0..NUM_TIERS as u8)
                .map(|i| t.mask(i).bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            bits(&flat),
            [0x0F, 0x0F, 0x30, 0x30, 0x03, 0x03, 0x0C, 0x0C, 0x80, 0x80]
        );
        let aware = TierTable::new(&plan, true);
        assert_eq!(
            bits(&aware),
            [0x03, 0x0C, 0x10, 0x20, 0x01, 0x02, 0x04, 0x08, 0x80, 0x80]
        );
        assert_eq!(aware.packet_mask(ServiceClass::Bulk).bits(), 0x0F);
        assert_eq!(aware.packet_mask(ServiceClass::Priority).bits(), 0x30);
        // A lone-bit class lands in both halves, so its tier is ambiguous.
        let lone = VcPlan {
            bulk_class0: VcMask::new(0b1),
            ..plan
        };
        let st = RouteState::at_injection(ServiceClass::Bulk, 2);
        assert_eq!(
            TierTable::new(&lone, true).tier_holding(&st, VcId::new(0)),
            None
        );
        assert_eq!(aware.tier_holding(&st, VcId::new(1)), Some(VALIANT + 1));
    }
}
