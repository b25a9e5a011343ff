//! A 1-D folded ring (degenerate torus), useful for small configurations
//! and for isolating single-dimension effects in experiments.

use crate::ids::{Coord, Direction, NodeId};
use crate::route::{RouteError, SourceRoute};

use super::{folded_link_pitches, folded_position, Topology};

/// A folded ring of `k` nodes connected East↔West.
///
/// ```
/// use ocin_core::{Ring, Topology};
/// let r = Ring::new(8);
/// assert_eq!(r.num_nodes(), 8);
/// assert_eq!(r.neighbor(0.into(), ocin_core::Direction::North), None);
/// ```
#[derive(Debug, Clone)]
pub struct Ring {
    k: usize,
}

impl Ring {
    /// Creates a ring of `k` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k > u16::MAX`.
    pub fn new(k: usize) -> Ring {
        assert!(k >= 2, "ring must have at least 2 nodes");
        assert!(k <= u16::MAX as usize, "ring too large");
        Ring { k }
    }

    /// The minimal route from `src` to `dst` as one run `(direction,
    /// hops)`; `(East, 0)` when `src == dst`. Halfway ties on an even
    /// ring go East from even sources and West from odd ones, so both
    /// ring directions carry equal load under uniform traffic.
    fn min_run(&self, src: NodeId, dst: NodeId) -> (Direction, usize) {
        let k = self.k as isize;
        // The difference lies in (-k, k): one conditional add is the
        // Euclidean remainder.
        let mut fwd = dst.index() as isize - src.index() as isize;
        if fwd < 0 {
            fwd += k;
        }
        let tie_east = src.index().is_multiple_of(2);
        if 2 * fwd < k || (2 * fwd == k && tie_east) {
            (Direction::East, fwd as usize)
        } else {
            (Direction::West, (k - fwd) as usize)
        }
    }
}

impl Topology for Ring {
    fn name(&self) -> String {
        format!("ring{}", self.k)
    }

    fn num_nodes(&self) -> usize {
        self.k
    }

    fn radix(&self) -> usize {
        self.k
    }

    fn coord(&self, node: NodeId) -> Coord {
        Coord::new(node.index() as u8, 0)
    }

    fn node_at(&self, coord: Coord) -> NodeId {
        NodeId::new(coord.x as u16)
    }

    fn physical_position(&self, node: NodeId) -> Coord {
        Coord::new(folded_position(node.index(), self.k) as u8, 0)
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let x = node.index();
        match dir {
            Direction::East => Some(NodeId::new(((x + 1) % self.k) as u16)),
            Direction::West => Some(NodeId::new(((x + self.k - 1) % self.k) as u16)),
            Direction::North | Direction::South => None,
        }
    }

    fn link_length_pitches(&self, node: NodeId, dir: Direction) -> f64 {
        let x = node.index();
        match dir {
            Direction::East => folded_link_pitches(x, (x + 1) % self.k, self.k),
            Direction::West => folded_link_pitches(x, (x + self.k - 1) % self.k, self.k),
            Direction::North | Direction::South => {
                panic!("ring has no vertical channels")
            }
        }
    }

    fn is_dateline(&self, node: NodeId, dir: Direction) -> bool {
        let x = node.index();
        match dir {
            Direction::East => x == self.k - 1,
            Direction::West => x == 0,
            Direction::North | Direction::South => false,
        }
    }

    fn route_dirs(&self, src: NodeId, dst: NodeId) -> Vec<Direction> {
        let (dir, hops) = self.min_run(src, dst);
        vec![dir; hops]
    }

    fn source_route(&self, src: NodeId, dst: NodeId) -> Result<SourceRoute, RouteError> {
        SourceRoute::from_runs(&[self.min_run(src, dst)])
    }

    fn productive_dirs(&self, src: NodeId, dst: NodeId) -> super::DirVec {
        let (dir, hops) = self.min_run(src, dst);
        let mut dirs = super::DirVec::new();
        if hops != 0 {
            dirs.push(dir);
        }
        dirs
    }

    fn bisection_channels(&self) -> usize {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_terminate() {
        let r = Ring::new(7);
        for s in 0..7u16 {
            for d in 0..7u16 {
                let mut node = NodeId::new(s);
                for dir in r.route_dirs(NodeId::new(s), NodeId::new(d)) {
                    node = r.neighbor(node, dir).unwrap();
                }
                assert_eq!(node, NodeId::new(d));
            }
        }
    }

    #[test]
    fn routes_are_minimal() {
        let r = Ring::new(8);
        for s in 0..8u16 {
            for d in 0..8u16 {
                let hops = r.route_dirs(NodeId::new(s), NodeId::new(d)).len();
                assert!(hops <= 4);
            }
        }
    }

    #[test]
    fn no_vertical_channels() {
        let r = Ring::new(4);
        assert_eq!(r.neighbor(NodeId::new(2), Direction::North), None);
        assert_eq!(r.neighbor(NodeId::new(2), Direction::South), None);
        assert_eq!(r.channels().len(), 8); // 4 nodes x E,W
    }

    #[test]
    fn symmetric_neighbors() {
        let r = Ring::new(6);
        for n in 0..6u16 {
            let node = NodeId::new(n);
            for dir in [Direction::East, Direction::West] {
                let nb = r.neighbor(node, dir).unwrap();
                assert_eq!(r.neighbor(nb, dir.opposite()), Some(node));
            }
        }
    }
}
