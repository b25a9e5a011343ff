//! The folded 2-D torus: the paper's baseline topology (§2, §3.1).

use crate::ids::{Coord, Direction, NodeId};
use crate::route::{RouteError, SourceRoute};

use super::{folded_link_pitches, folded_position, Topology};

/// A `k × k` folded 2-D torus.
///
/// Rows and columns are cyclically connected; the *folded* physical layout
/// places the logical ring `0→1→…→k−1→0` at physical positions
/// `0, 2, …, 3, 1` (the paper's Figure 1 row order for `k = 4`), so no
/// link spans more than two tile pitches and there is no long wrap wire.
///
/// Relative to the mesh, the torus halves the average hop count and
/// doubles the bisection bandwidth, at the cost of (up to) doubled wire
/// length per hop — the §3.1 power trade-off.
///
/// ```
/// use ocin_core::{FoldedTorus2D, Mesh2D, Topology};
/// let t = FoldedTorus2D::new(4);
/// let m = Mesh2D::new(4);
/// assert_eq!(t.bisection_channels(), 2 * m.bisection_channels());
/// assert!(t.avg_min_hops() < m.avg_min_hops());
/// ```
#[derive(Debug, Clone)]
pub struct FoldedTorus2D {
    k: usize,
    /// Logical coordinate of each node, by node index: computed once in
    /// `new` so the per-hop routing functions do no division.
    coords: Vec<Coord>,
}

impl FoldedTorus2D {
    /// Creates a `k × k` folded torus.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k² > u16::MAX`.
    pub fn new(k: usize) -> FoldedTorus2D {
        assert!(k >= 2, "torus radix must be at least 2");
        assert!(k * k <= u16::MAX as usize, "torus too large");
        FoldedTorus2D {
            k,
            coords: super::grid_coords(k),
        }
    }

    /// Signed minimal offsets `(dx, dy)` from `src` to `dst` along the two
    /// rings; positive means East/North. Ties (exactly halfway on an even
    /// ring) are broken pseudo-randomly by node parity so uniform traffic
    /// loads both ring directions evenly.
    fn min_offsets(&self, src: NodeId, dst: NodeId) -> (isize, isize) {
        let (s, d) = (self.coord(src), self.coord(dst));
        let k = self.k as isize;
        // Halfway ties alternate by source coordinate so both ring
        // directions carry equal load under uniform traffic.
        let off = |from: u8, to: u8| -> isize {
            // The difference lies in (-k, k): one conditional add is the
            // Euclidean remainder.
            let mut fwd = to as isize - from as isize;
            if fwd < 0 {
                fwd += k;
            }
            let tie_east = from.is_multiple_of(2);
            if fwd == 0 {
                0
            } else if 2 * fwd < k || (2 * fwd == k && tie_east) {
                fwd
            } else {
                fwd - k
            }
        };
        (off(s.x, d.x), off(s.y, d.y))
    }
}

impl Topology for FoldedTorus2D {
    fn name(&self) -> String {
        format!("ftorus{}", self.k)
    }

    fn num_nodes(&self) -> usize {
        self.k * self.k
    }

    fn radix(&self) -> usize {
        self.k
    }

    fn coord(&self, node: NodeId) -> Coord {
        self.coords[node.index()]
    }

    fn node_at(&self, coord: Coord) -> NodeId {
        NodeId::new((coord.y as usize * self.k + coord.x as usize) as u16)
    }

    fn physical_position(&self, node: NodeId) -> Coord {
        let c = self.coord(node);
        Coord::new(
            folded_position(c.x as usize, self.k) as u8,
            folded_position(c.y as usize, self.k) as u8,
        )
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord(node);
        let k = self.k;
        let (nx, ny) = match dir {
            Direction::North => (c.x as usize, (c.y as usize + 1) % k),
            Direction::South => (c.x as usize, (c.y as usize + k - 1) % k),
            Direction::East => ((c.x as usize + 1) % k, c.y as usize),
            Direction::West => ((c.x as usize + k - 1) % k, c.y as usize),
        };
        Some(self.node_at(Coord::new(nx as u8, ny as u8)))
    }

    fn link_length_pitches(&self, node: NodeId, dir: Direction) -> f64 {
        let c = self.coord(node);
        let k = self.k;
        match dir {
            Direction::East => folded_link_pitches(c.x as usize, (c.x as usize + 1) % k, k),
            Direction::West => folded_link_pitches(c.x as usize, (c.x as usize + k - 1) % k, k),
            Direction::North => folded_link_pitches(c.y as usize, (c.y as usize + 1) % k, k),
            Direction::South => folded_link_pitches(c.y as usize, (c.y as usize + k - 1) % k, k),
        }
    }

    fn is_dateline(&self, node: NodeId, dir: Direction) -> bool {
        let c = self.coord(node);
        let k = (self.k - 1) as u8;
        match dir {
            Direction::East => c.x == k,
            Direction::West => c.x == 0,
            Direction::North => c.y == k,
            Direction::South => c.y == 0,
        }
    }

    fn route_dirs(&self, src: NodeId, dst: NodeId) -> Vec<Direction> {
        let (dx, dy) = self.min_offsets(src, dst);
        let mut dirs = Vec::new();
        let xdir = if dx > 0 {
            Direction::East
        } else {
            Direction::West
        };
        for _ in 0..dx.unsigned_abs() {
            dirs.push(xdir);
        }
        let ydir = if dy > 0 {
            Direction::North
        } else {
            Direction::South
        };
        for _ in 0..dy.unsigned_abs() {
            dirs.push(ydir);
        }
        dirs
    }

    fn source_route(&self, src: NodeId, dst: NodeId) -> Result<SourceRoute, RouteError> {
        let (dx, dy) = self.min_offsets(src, dst);
        super::xy_route(dx, dy)
    }

    fn productive_dirs(&self, src: NodeId, dst: NodeId) -> super::DirVec {
        // Closed form over the same min_offsets as route_dirs, so the
        // halfway-tie parity break is preserved bit-for-bit.
        let (dx, dy) = self.min_offsets(src, dst);
        let mut dirs = super::DirVec::new();
        if dx > 0 {
            dirs.push(Direction::East);
        } else if dx < 0 {
            dirs.push(Direction::West);
        }
        if dy > 0 {
            dirs.push(Direction::North);
        } else if dy < 0 {
            dirs.push(Direction::South);
        }
        dirs
    }

    fn bisection_channels(&self) -> usize {
        // A vertical cut crosses two channel pairs per row (one "local",
        // one "wrap") — twice the mesh.
        4 * self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_are_symmetric_and_total() {
        let t = FoldedTorus2D::new(4);
        for n in 0..t.num_nodes() {
            let node = NodeId::new(n as u16);
            for dir in Direction::ALL {
                let nb = t.neighbor(node, dir).expect("torus channels are total");
                assert_eq!(t.neighbor(nb, dir.opposite()), Some(node));
            }
        }
    }

    #[test]
    fn routes_terminate_at_destination() {
        let t = FoldedTorus2D::new(4);
        for s in 0..16u16 {
            for d in 0..16u16 {
                let (src, dst) = (NodeId::new(s), NodeId::new(d));
                let mut node = src;
                for dir in t.route_dirs(src, dst) {
                    node = t.neighbor(node, dir).unwrap();
                }
                assert_eq!(node, dst, "route {s}->{d}");
            }
        }
    }

    #[test]
    fn routes_are_minimal() {
        let t = FoldedTorus2D::new(4);
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    continue;
                }
                let hops = t.route_dirs(NodeId::new(s), NodeId::new(d)).len();
                // On a 4x4 torus the diameter is 4 (2 per dimension).
                assert!(hops <= 4, "route {s}->{d} took {hops} hops");
            }
        }
    }

    #[test]
    fn avg_hops_beats_mesh() {
        use super::super::Mesh2D;
        for k in [4usize, 6, 8] {
            let t = FoldedTorus2D::new(k);
            let m = Mesh2D::new(k);
            assert!(t.avg_min_hops() < m.avg_min_hops());
        }
    }

    #[test]
    fn avg_hops_matches_closed_form() {
        // Mean minimal hops per dimension on an even-k ring = k/4;
        // two dimensions, corrected for ordered distinct pairs.
        for k in [4usize, 8] {
            let t = FoldedTorus2D::new(k);
            let n = (k * k) as f64;
            let expected = 2.0 * (k as f64 / 4.0) * n / (n - 1.0);
            assert!(
                (t.avg_min_hops() - expected).abs() < 1e-9,
                "k={k}: {} vs {}",
                t.avg_min_hops(),
                expected
            );
        }
    }

    #[test]
    fn folded_wire_lengths() {
        let t = FoldedTorus2D::new(4);
        // Every link is 1 or 2 pitches; the mean over the ring 0->1->2->3->0
        // is 1.5 for k=4 (links 2,1,2,1).
        let mut lens = Vec::new();
        for x in 0..4u8 {
            let node = t.node_at(Coord::new(x, 0));
            lens.push(t.link_length_pitches(node, Direction::East));
        }
        lens.sort_by(f64::total_cmp);
        assert_eq!(lens, vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn physical_positions_match_paper_row_order() {
        let t = FoldedTorus2D::new(4);
        // Walking a logical row visits physical columns 0,2,3,1 — the
        // paper's "cyclically connected in the order 0,2,3,1".
        let walk: Vec<u8> = (0..4u8)
            .map(|lx| t.physical_position(t.node_at(Coord::new(lx, 0))).x)
            .collect();
        assert_eq!(walk, vec![0, 2, 3, 1]);
    }

    #[test]
    fn dateline_crossed_exactly_once_per_wrap() {
        let t = FoldedTorus2D::new(4);
        // Walking a full ring eastward crosses the dateline exactly once.
        let mut crossings = 0;
        let mut node = NodeId::new(0);
        for _ in 0..4 {
            if t.is_dateline(node, Direction::East) {
                crossings += 1;
            }
            node = t.neighbor(node, Direction::East).unwrap();
        }
        assert_eq!(node, NodeId::new(0));
        assert_eq!(crossings, 1);
    }

    #[test]
    fn tie_breaking_balances_ring_directions() {
        let t = FoldedTorus2D::new(4);
        // dst exactly halfway: direction choice must not always be East.
        let mut east = 0;
        let mut west = 0;
        for y in 0..4u8 {
            for x in 0..4u8 {
                let src = t.node_at(Coord::new(x, y));
                let dst = t.node_at(Coord::new((x + 2) % 4, y));
                match t.route_dirs(src, dst)[0] {
                    Direction::East => east += 1,
                    Direction::West => west += 1,
                    other => panic!("unexpected {other}"),
                }
            }
        }
        assert_eq!(east, west);
    }
}
