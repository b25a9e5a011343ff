//! Network topologies: the folded 2-D torus of the paper's baseline, the
//! mesh it is compared against in §3.1, and a 1-D ring.
//!
//! Coordinates are *logical*: `East` always means "next node in the row's
//! cyclic order". The folded torus additionally maps logical positions to
//! *physical* tile positions (the paper's row order 0, 2, 3, 1) so that
//! every link's physical wire length is known — that length drives the
//! wire-energy and wire-delay models.

mod mesh;
mod ring;
mod torus;

pub use mesh::Mesh2D;
pub use ring::Ring;
pub use torus::FoldedTorus2D;

use crate::ids::{Coord, Direction, NodeId};
use crate::route::{RouteError, SourceRoute};

/// The dimension-order route of signed X and Y offsets: `|dx|` hops east
/// (positive) or west, then `|dy|` hops north (positive) or south.
fn xy_route(dx: isize, dy: isize) -> Result<SourceRoute, RouteError> {
    let xdir = if dx > 0 {
        Direction::East
    } else {
        Direction::West
    };
    let ydir = if dy > 0 {
        Direction::North
    } else {
        Direction::South
    };
    SourceRoute::from_runs(&[(xdir, dx.unsigned_abs()), (ydir, dy.unsigned_abs())])
}

/// The logical coordinate of every node of a `k × k` grid, by node
/// index (`x` = index mod `k`, `y` = index / `k`).
fn grid_coords(k: usize) -> Vec<Coord> {
    (0..k)
        .flat_map(|y| (0..k).map(move |x| Coord::new(x as u8, y as u8)))
        .collect()
}

/// An inline fixed-capacity direction set: the allocation-free return
/// type of [`Topology::productive_dirs`] (same pattern as the router
/// layer's `PortVec`). A minimal dimension-order route takes at most one
/// distinct direction per dimension, so capacity 4 covers any shipped
/// topology with headroom.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirVec {
    // INVARIANT: slots[..len] are Some, slots[len..] are None.
    slots: [Option<Direction>; 4],
    len: usize,
}

impl DirVec {
    /// An empty set.
    pub fn new() -> DirVec {
        DirVec::default()
    }

    /// Number of directions held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a direction.
    ///
    /// # Panics
    ///
    /// Panics if the set is full (4 directions).
    pub fn push(&mut self, dir: Direction) {
        assert!(self.len < self.slots.len(), "DirVec overflow");
        self.slots[self.len] = Some(dir);
        self.len += 1;
    }

    /// Whether `dir` is in the set.
    pub fn contains(&self, dir: Direction) -> bool {
        self.iter().any(|d| d == dir)
    }

    /// The directions, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Direction> + '_ {
        self.slots[..self.len].iter().map(|d| d.expect("INVARIANT"))
    }
}

/// A network topology: node geometry, channels, lengths, and minimal
/// routing.
///
/// Implementations must be internally consistent: `neighbor` must be
/// symmetric (`neighbor(neighbor(n, d), d.opposite()) == n` whenever
/// defined) and `route_dirs` must produce walks that terminate at the
/// destination; the test suite checks both for every shipped topology.
pub trait Topology: Send + Sync + std::fmt::Debug {
    /// Short human-readable name ("mesh4", "ftorus4", ...).
    fn name(&self) -> String;

    /// Number of client tiles.
    fn num_nodes(&self) -> usize;

    /// Network radix `k` (nodes per dimension).
    fn radix(&self) -> usize;

    /// Logical coordinate of a node.
    fn coord(&self, node: NodeId) -> Coord;

    /// Node at a logical coordinate.
    fn node_at(&self, coord: Coord) -> NodeId;

    /// *Physical* tile position of a node on the die (for the folded torus
    /// this differs from the logical coordinate).
    fn physical_position(&self, node: NodeId) -> Coord;

    /// The node reached by leaving `node` in direction `dir`, if a channel
    /// exists there.
    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId>;

    /// Physical length, in tile pitches, of the channel leaving `node` in
    /// `dir`.
    ///
    /// # Panics
    ///
    /// May panic if no such channel exists; call [`Topology::neighbor`]
    /// first.
    fn link_length_pitches(&self, node: NodeId, dir: Direction) -> f64;

    /// Whether the channel leaving `node` in `dir` crosses the dateline of
    /// its dimension. Packets crossing a dateline switch to the second
    /// virtual-channel class, breaking cyclic channel dependencies on
    /// tori.
    fn is_dateline(&self, node: NodeId, dir: Direction) -> bool;

    /// A minimal dimension-order (X then Y) hop sequence from `src` to
    /// `dst`. Empty when `src == dst`.
    fn route_dirs(&self, src: NodeId, dst: NodeId) -> Vec<Direction>;

    /// [`Topology::route_dirs`] compiled into a source route: what
    /// `SourceRoute::compile(&self.route_dirs(src, dst))` returns,
    /// computed without the hop vector by the shipped topologies, whose
    /// closed forms use the same offsets as their `route_dirs`.
    ///
    /// # Errors
    ///
    /// As [`SourceRoute::compile`]; [`RouteError::Empty`] when
    /// `src == dst`.
    fn source_route(&self, src: NodeId, dst: NodeId) -> Result<SourceRoute, RouteError> {
        SourceRoute::compile(&self.route_dirs(src, dst))
    }

    /// Minimal hop count between two nodes.
    fn min_hops(&self, src: NodeId, dst: NodeId) -> usize {
        self.route_dirs(src, dst).len()
    }

    /// The distinct directions a minimal route from `src` to `dst` may
    /// productively take, in dimension order (X before Y), without
    /// allocating — the deflection router asks this per flit per cycle.
    /// Must equal [`Topology::route_dirs`] deduplicated in first-seen
    /// order (the default computes exactly that; implementations
    /// override it with a closed form that skips the hop vector).
    fn productive_dirs(&self, src: NodeId, dst: NodeId) -> DirVec {
        let mut dirs = DirVec::new();
        for d in self.route_dirs(src, dst) {
            if !dirs.contains(d) {
                dirs.push(d);
            }
        }
        dirs
    }

    /// Number of unidirectional channels crossing the network bisection.
    ///
    /// The folded torus has twice the bisection bandwidth of the mesh
    /// (paper §3.1).
    fn bisection_channels(&self) -> usize;

    /// Mean minimal hop count over all ordered pairs of distinct nodes.
    fn avg_min_hops(&self) -> f64 {
        let n = self.num_nodes();
        let mut total = 0usize;
        let mut pairs = 0usize;
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    total += self.min_hops(NodeId::new(s as u16), NodeId::new(d as u16));
                    pairs += 1;
                }
            }
        }
        total as f64 / pairs as f64
    }

    /// Mean physical distance (in tile pitches) traversed by a minimal
    /// route, over all ordered pairs of distinct nodes.
    ///
    /// For the folded torus this exceeds `avg_min_hops` because each hop
    /// spans up to two tile pitches — the §3.1 trade of "longer average
    /// flit transmission distance for fewer routing hops".
    fn avg_min_distance_pitches(&self) -> f64 {
        let n = self.num_nodes();
        let mut total = 0.0;
        let mut pairs = 0usize;
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let mut node = NodeId::new(s as u16);
                for dir in self.route_dirs(node, NodeId::new(d as u16)) {
                    total += self.link_length_pitches(node, dir);
                    node = self
                        .neighbor(node, dir)
                        .expect("route walks existing channels");
                }
                pairs += 1;
            }
        }
        total / pairs as f64
    }

    /// Every directed channel in the network as `(source node, direction)`.
    fn channels(&self) -> Vec<(NodeId, Direction)> {
        let mut out = Vec::new();
        for n in 0..self.num_nodes() {
            let node = NodeId::new(n as u16);
            for dir in Direction::ALL {
                if self.neighbor(node, dir).is_some() {
                    out.push((node, dir));
                }
            }
        }
        out
    }
}

/// Physical placement order of a folded ring of `k` nodes along a line.
///
/// Logical ring index → physical position. For `k = 4` the physical
/// sequence of logical indices is `0, 2, 3, 1` (the paper's row order), so
/// this function is its inverse permutation.
///
/// All links of the folded ring span two tile pitches except the two
/// "end-fold" links, which span one.
pub(crate) fn folded_position(logical: usize, k: usize) -> usize {
    debug_assert!(logical < k);
    // Walking the logical ring 0, 1, 2, ... visits physical positions
    // 0, 2, 4, ..., (k-1 or k-2), ..., 5, 3, 1 — out to the far end on
    // even positions and back on odd ones.
    if 2 * logical < k {
        2 * logical
    } else {
        2 * (k - 1 - logical) + 1
    }
}

/// Physical length in tile pitches of the folded-ring link between logical
/// indices `a` and `b = (a ± 1) mod k`.
pub(crate) fn folded_link_pitches(a: usize, b: usize, k: usize) -> f64 {
    let pa = folded_position(a, k) as i64;
    let pb = folded_position(b, k) as i64;
    (pa - pb).unsigned_abs() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The division-based arithmetic the topologies routed with before
    /// they cached node coordinates: `%` and `/` for coordinates and
    /// `rem_euclid` for ring offsets. A reference for the oracle test
    /// only.
    mod oracle {
        use crate::ids::{Coord, Direction};

        pub fn grid_coord(k: usize, node: usize) -> Coord {
            Coord::new((node % k) as u8, (node / k) as u8)
        }

        /// Signed minimal offset from `from` to `to` on a ring of `k`,
        /// halfway ties East (positive) from even positions.
        fn ring_offset(k: usize, from: usize, to: usize) -> isize {
            let k = k as isize;
            let fwd = (to as isize - from as isize).rem_euclid(k);
            let tie_east = from.is_multiple_of(2);
            if fwd == 0 {
                0
            } else if 2 * fwd < k || (2 * fwd == k && tie_east) {
                fwd
            } else {
                fwd - k
            }
        }

        fn xy_hops(dx: isize, dy: isize) -> Vec<Direction> {
            let xdir = if dx > 0 {
                Direction::East
            } else {
                Direction::West
            };
            let ydir = if dy > 0 {
                Direction::North
            } else {
                Direction::South
            };
            let mut dirs = vec![xdir; dx.unsigned_abs()];
            dirs.extend(vec![ydir; dy.unsigned_abs()]);
            dirs
        }

        pub fn torus_dirs(k: usize, src: usize, dst: usize) -> Vec<Direction> {
            let (s, d) = (grid_coord(k, src), grid_coord(k, dst));
            xy_hops(
                ring_offset(k, s.x.into(), d.x.into()),
                ring_offset(k, s.y.into(), d.y.into()),
            )
        }

        pub fn mesh_dirs(k: usize, src: usize, dst: usize) -> Vec<Direction> {
            let (s, d) = (grid_coord(k, src), grid_coord(k, dst));
            xy_hops(d.x as isize - s.x as isize, d.y as isize - s.y as isize)
        }

        pub fn ring_dirs(k: usize, src: usize, dst: usize) -> Vec<Direction> {
            xy_hops(ring_offset(k, src, dst), 0)
        }
    }

    /// The division-free coordinates and routes equal the division-based
    /// reference for every (src, dst) pair: odd and even tori (the
    /// halfway-tie parity break the deflection router depends on
    /// included, and the k = 32 diameter routes), meshes, and odd and
    /// even rings. Each closed form is checked too: `source_route`
    /// against compiling the reference hops, and `productive_dirs`
    /// against them deduplicated in first-seen order (the trait
    /// default).
    #[test]
    fn division_free_routing_matches_the_division_oracle() {
        type Oracle = fn(usize, usize, usize) -> Vec<Direction>;
        let mut cases: Vec<(Box<dyn Topology>, Oracle)> = Vec::new();
        for k in [2, 3, 4, 5, 6, 16, 32] {
            cases.push((Box::new(FoldedTorus2D::new(k)), oracle::torus_dirs));
        }
        for k in [2, 4, 8, 32] {
            cases.push((Box::new(Mesh2D::new(k)), oracle::mesh_dirs));
        }
        for k in [3, 6, 7, 8] {
            cases.push((Box::new(Ring::new(k)), oracle::ring_dirs));
        }
        for (t, reference) in &cases {
            let (k, n) = (t.radix(), t.num_nodes());
            let is_ring = n == k;
            for s in 0..n {
                let src = NodeId::new(s as u16);
                let coord = if is_ring {
                    Coord::new(s as u8, 0)
                } else {
                    oracle::grid_coord(k, s)
                };
                assert_eq!(t.coord(src), coord, "{} coord of {src:?}", t.name());
                for d in 0..n {
                    let dst = NodeId::new(d as u16);
                    let want = reference(k, s, d);
                    let mut want_dirs = DirVec::new();
                    for &dir in &want {
                        if !want_dirs.contains(dir) {
                            want_dirs.push(dir);
                        }
                    }
                    let what = format!("{} {src:?}->{dst:?}", t.name());
                    assert_eq!(t.route_dirs(src, dst), want, "{what}");
                    assert_eq!(
                        t.source_route(src, dst),
                        SourceRoute::compile(&want),
                        "{what}"
                    );
                    assert_eq!(t.productive_dirs(src, dst), want_dirs, "{what}");
                }
            }
        }
    }

    #[test]
    fn folded_order_matches_paper() {
        // Paper: "nodes 0-3 in each row cyclically connected in the order
        // 0,2,3,1" — walking the ring visits those physical positions.
        let walk: Vec<usize> = (0..4).map(|l| folded_position(l, 4)).collect();
        assert_eq!(walk, vec![0, 2, 3, 1]);
    }

    #[test]
    fn folded_links_span_at_most_two_pitches() {
        for k in [2usize, 4, 6, 8, 16] {
            for a in 0..k {
                let b = (a + 1) % k;
                let len = folded_link_pitches(a, b, k);
                assert!(
                    (1.0..=2.0).contains(&len),
                    "k={k} link {a}->{b} spans {len} pitches"
                );
            }
        }
    }

    #[test]
    fn folded_position_is_a_permutation() {
        for k in [2usize, 4, 8, 10] {
            let mut seen = vec![false; k];
            for l in 0..k {
                let p = folded_position(l, k);
                assert!(!seen[p]);
                seen[p] = true;
            }
        }
    }
}
