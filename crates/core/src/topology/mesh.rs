//! The 2-D mesh: the paper's §3.1 power-comparison baseline.

use crate::ids::{Coord, Direction, NodeId};
use crate::route::{RouteError, SourceRoute};

use super::Topology;

/// A `k × k` 2-D mesh with single-pitch links and no wraparound.
///
/// The mesh needs more hops than the torus (average `2·(k²−1)/(3k)` vs
/// `k/2` for even `k`) but each hop's wire spans a single tile pitch, so
/// it wins on power when wire energy dominates hop energy (paper §3.1).
///
/// ```
/// use ocin_core::{Mesh2D, Topology};
/// let m = Mesh2D::new(4);
/// assert_eq!(m.num_nodes(), 16);
/// assert_eq!(m.bisection_channels(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Mesh2D {
    k: usize,
    /// Logical coordinate of each node, by node index: computed once in
    /// `new` so the per-hop routing functions do no division.
    coords: Vec<Coord>,
}

impl Mesh2D {
    /// Creates a `k × k` mesh.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k² > u16::MAX`.
    pub fn new(k: usize) -> Mesh2D {
        assert!(k >= 2, "mesh radix must be at least 2");
        assert!(k * k <= u16::MAX as usize, "mesh too large");
        Mesh2D {
            k,
            coords: super::grid_coords(k),
        }
    }
}

impl Topology for Mesh2D {
    fn name(&self) -> String {
        format!("mesh{}", self.k)
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
        // Mesh placement is the identity: logical = physical.
        self.coord(node)
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord(node);
        let (x, y) = (c.x as isize, c.y as isize);
        let (nx, ny) = match dir {
            Direction::North => (x, y + 1),
            Direction::South => (x, y - 1),
            Direction::East => (x + 1, y),
            Direction::West => (x - 1, y),
        };
        if nx < 0 || ny < 0 || nx >= self.k as isize || ny >= self.k as isize {
            None
        } else {
            Some(self.node_at(Coord::new(nx as u8, ny as u8)))
        }
    }

    fn link_length_pitches(&self, _node: NodeId, _dir: Direction) -> f64 {
        1.0
    }

    fn is_dateline(&self, _node: NodeId, _dir: Direction) -> bool {
        false
    }

    fn route_dirs(&self, src: NodeId, dst: NodeId) -> Vec<Direction> {
        let (s, d) = (self.coord(src), self.coord(dst));
        let mut dirs = Vec::new();
        let dx = d.x as isize - s.x as isize;
        let dy = d.y as isize - s.y as isize;
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
        let (s, d) = (self.coord(src), self.coord(dst));
        super::xy_route(d.x as isize - s.x as isize, d.y as isize - s.y as isize)
    }

    fn productive_dirs(&self, src: NodeId, dst: NodeId) -> super::DirVec {
        let (s, d) = (self.coord(src), self.coord(dst));
        let dx = d.x as isize - s.x as isize;
        let dy = d.y as isize - s.y as isize;
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
        // A vertical cut through the middle crosses one channel pair per row.
        2 * self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_are_symmetric() {
        let m = Mesh2D::new(4);
        for n in 0..m.num_nodes() {
            let node = NodeId::new(n as u16);
            for dir in Direction::ALL {
                if let Some(nb) = m.neighbor(node, dir) {
                    assert_eq!(m.neighbor(nb, dir.opposite()), Some(node));
                }
            }
        }
    }

    #[test]
    fn edges_have_no_neighbors() {
        let m = Mesh2D::new(4);
        assert_eq!(m.neighbor(NodeId::new(0), Direction::West), None);
        assert_eq!(m.neighbor(NodeId::new(0), Direction::South), None);
        assert_eq!(m.neighbor(NodeId::new(15), Direction::East), None);
        assert_eq!(m.neighbor(NodeId::new(15), Direction::North), None);
    }

    #[test]
    fn routes_terminate_at_destination() {
        let m = Mesh2D::new(4);
        for s in 0..16u16 {
            for d in 0..16u16 {
                let (src, dst) = (NodeId::new(s), NodeId::new(d));
                let mut node = src;
                for dir in m.route_dirs(src, dst) {
                    node = m.neighbor(node, dir).expect("route uses real channels");
                }
                assert_eq!(node, dst);
            }
        }
    }

    #[test]
    fn avg_hops_matches_closed_form() {
        // Mean minimal hops on a k-ary 2-mesh: 2 * (k^2 - 1) / (3k),
        // corrected for ordered distinct pairs.
        for k in [2usize, 4, 8] {
            let m = Mesh2D::new(k);
            let per_dim = (k * k - 1) as f64 / (3.0 * k as f64);
            let all_pairs = 2.0 * per_dim; // includes src == dst pairs
            let n = (k * k) as f64;
            let distinct = all_pairs * n / (n - 1.0);
            assert!((m.avg_min_hops() - distinct).abs() < 1e-9);
        }
    }

    #[test]
    fn distance_equals_hops_on_mesh() {
        let m = Mesh2D::new(4);
        assert!((m.avg_min_distance_pitches() - m.avg_min_hops()).abs() < 1e-12);
    }

    #[test]
    fn coord_roundtrip() {
        let m = Mesh2D::new(5);
        for n in 0..m.num_nodes() {
            let node = NodeId::new(n as u16);
            assert_eq!(m.node_at(m.coord(node)), node);
        }
    }
}
