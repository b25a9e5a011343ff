//! Small identifier and geometry types shared across the network model.
//!
//! These are deliberate [newtypes](https://rust-lang.github.io/api-guidelines/type-safety.html)
//! so that node indices, virtual-channel indices, packet ids and flow ids
//! cannot be confused with one another or with raw integers.

use std::fmt;

/// A simulation time in cycles.
///
/// Cycles are the only notion of time in the simulator; all latencies are
/// expressed in router clock cycles (the paper drives wires at the same
/// frequency as the controllers, §2.3).
pub type Cycle = u64;

/// Identifies a network client tile (0-based, row-major over the grid).
///
/// ```
/// use ocin_core::NodeId;
/// let n = NodeId::new(5);
/// assert_eq!(n.index(), 5);
/// assert_eq!(NodeId::from(5u16), n);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(index: u16) -> Self {
        NodeId(index)
    }

    /// Returns the raw index, suitable for array indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u16 {
    fn from(n: NodeId) -> u16 {
        n.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A tile position on the die: `x` grows eastward, `y` grows northward.
///
/// The paper's Figure 1 partitions a 12mm × 12mm die into a 4×4 grid of
/// 3mm tiles; `Coord` addresses one such tile.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Coord {
    /// Column (eastward).
    pub x: u8,
    /// Row (northward).
    pub y: u8,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: u8, y: u8) -> Self {
        Coord { x, y }
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// One of the four compass directions a channel can leave a tile.
///
/// Also used as a packet *heading*: the direction the packet is currently
/// travelling, against which relative route turns are interpreted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Direction {
    /// Toward larger `y`.
    North,
    /// Toward larger `x`.
    East,
    /// Toward smaller `y`.
    South,
    /// Toward smaller `x`.
    West,
}

impl Direction {
    /// All four directions in fixed (N, E, S, W) order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// Dense index in `ALL` order (N=0, E=1, S=2, W=3).
    pub const fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::East => 1,
            Direction::South => 2,
            Direction::West => 3,
        }
    }

    /// Inverse of [`Direction::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    pub const fn from_index(i: usize) -> Direction {
        match i {
            0 => Direction::North,
            1 => Direction::East,
            2 => Direction::South,
            3 => Direction::West,
            _ => panic!("direction index out of range"),
        }
    }

    /// The opposite direction (the direction a flit *arrives from* when it
    /// was sent in `self`).
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }

    /// Rotates the heading 90° counter-clockwise (a `Left` turn).
    pub const fn turned_left(self) -> Direction {
        match self {
            Direction::North => Direction::West,
            Direction::West => Direction::South,
            Direction::South => Direction::East,
            Direction::East => Direction::North,
        }
    }

    /// Rotates the heading 90° clockwise (a `Right` turn).
    pub const fn turned_right(self) -> Direction {
        match self {
            Direction::North => Direction::East,
            Direction::East => Direction::South,
            Direction::South => Direction::West,
            Direction::West => Direction::North,
        }
    }

    /// The dimension this heading travels along: 0 for the X axis
    /// (East/West), 1 for the Y axis (North/South).
    ///
    /// Dateline virtual-channel classes are per dimension, so the
    /// router's class-reset rule and the static verifier's channel
    /// dependency graph both key off this.
    pub const fn axis(self) -> u8 {
        match self {
            Direction::East | Direction::West => 0,
            Direction::North | Direction::South => 1,
        }
    }

    /// Single-letter abbreviation (`N`, `E`, `S`, `W`).
    pub const fn letter(self) -> char {
        match self {
            Direction::North => 'N',
            Direction::East => 'E',
            Direction::South => 'S',
            Direction::West => 'W',
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// A router port: one of the four direction ports or the local tile port.
///
/// Each router has five input controllers and five output controllers
/// (paper §2.3), one per `Port`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Port {
    /// A channel toward/from a neighboring tile.
    Dir(Direction),
    /// The local tile's injection/ejection port.
    Tile,
}

impl Port {
    /// Number of ports on a router.
    pub const COUNT: usize = 5;

    /// All five ports, directions first, tile last.
    pub const ALL: [Port; 5] = [
        Port::Dir(Direction::North),
        Port::Dir(Direction::East),
        Port::Dir(Direction::South),
        Port::Dir(Direction::West),
        Port::Tile,
    ];

    /// Dense index (N=0, E=1, S=2, W=3, Tile=4).
    pub const fn index(self) -> usize {
        match self {
            Port::Dir(d) => d.index(),
            Port::Tile => 4,
        }
    }

    /// Inverse of [`Port::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= 5`.
    pub const fn from_index(i: usize) -> Port {
        if i < 4 {
            Port::Dir(Direction::from_index(i))
        } else if i == 4 {
            Port::Tile
        } else {
            panic!("port index out of range")
        }
    }

    /// Returns the direction if this is a direction port.
    pub const fn direction(self) -> Option<Direction> {
        match self {
            Port::Dir(d) => Some(d),
            Port::Tile => None,
        }
    }
}

impl From<Direction> for Port {
    fn from(d: Direction) -> Port {
        Port::Dir(d)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::Dir(d) => write!(f, "{d}"),
            Port::Tile => write!(f, "T"),
        }
    }
}

/// A virtual-channel index (0–7 in the paper's 8-VC baseline).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct VcId(u8);

impl VcId {
    /// Creates a VC id.
    pub const fn new(v: u8) -> Self {
        VcId(v)
    }

    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The single-bit mask selecting only this VC.
    pub const fn bit(self) -> u8 {
        1 << self.0
    }
}

impl From<u8> for VcId {
    fn from(v: u8) -> Self {
        VcId(v)
    }
}

impl fmt::Debug for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Uniquely identifies an injected packet within one simulation.
///
/// The network mints ids as `seq << 16 | source`: the low
/// [`PacketId::SOURCE_BITS`] bits hold the source node index and the bits
/// above them the source's packet sequence number, counting up from 0.
/// Cells therefore allocate ids without coordination, and a collector can
/// address a packet by `(source, seq)` instead of searching for it.
///
/// ```
/// use ocin_core::{NodeId, PacketId};
/// let p = PacketId::new(NodeId::new(12), 3);
/// assert_eq!(p, PacketId(3 << 16 | 12));
/// assert_eq!((p.source(), p.seq()), (NodeId::new(12), 3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl PacketId {
    /// Number of low bits holding the source node index.
    pub const SOURCE_BITS: u32 = 16;

    /// The id of `source`'s packet number `seq`.
    pub const fn new(source: NodeId, seq: u64) -> PacketId {
        PacketId((seq << Self::SOURCE_BITS) | source.0 as u64)
    }

    /// The source node encoded in the id.
    pub const fn source(self) -> NodeId {
        NodeId(self.0 as u16)
    }

    /// The per-source sequence number encoded in the id.
    pub const fn seq(self) -> u64 {
        self.0 >> Self::SOURCE_BITS
    }
}

impl fmt::Debug for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifies a pre-scheduled (static) traffic flow (paper §2.6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct FlowId(pub u32);

impl fmt::Debug for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_index_roundtrip() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_index(d.index()), d);
        }
    }

    #[test]
    fn direction_opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn four_lefts_make_a_circle() {
        for d in Direction::ALL {
            assert_eq!(d.turned_left().turned_left().turned_left().turned_left(), d);
            assert_eq!(d.turned_left().turned_right(), d);
            // Two lefts = two rights = opposite.
            assert_eq!(d.turned_left().turned_left(), d.opposite());
        }
    }

    #[test]
    fn port_index_roundtrip() {
        for p in Port::ALL {
            assert_eq!(Port::from_index(p.index()), p);
        }
        assert_eq!(Port::Tile.index(), 4);
        assert_eq!(Port::Tile.direction(), None);
        assert_eq!(
            Port::Dir(Direction::West).direction(),
            Some(Direction::West)
        );
    }

    #[test]
    fn vc_bit_masks() {
        assert_eq!(VcId::new(0).bit(), 0b0000_0001);
        assert_eq!(VcId::new(7).bit(), 0b1000_0000);
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId::new(3).to_string(), "3");
        assert_eq!(Coord::new(1, 2).to_string(), "(1,2)");
        assert_eq!(Direction::North.to_string(), "N");
        assert_eq!(Port::Tile.to_string(), "T");
        assert_eq!(format!("{:?}", VcId::new(5)), "vc5");
        assert_eq!(format!("{:?}", PacketId(9)), "p9");
        assert_eq!(format!("{:?}", FlowId(2)), "f2");
    }

    #[test]
    fn packet_id_layout_round_trips() {
        for (node, seq) in [(0u16, 0u64), (7, 1), (u16::MAX, 5), (300, (1 << 48) - 1)] {
            let p = PacketId::new(NodeId::new(node), seq);
            assert_eq!(p.source(), NodeId::new(node));
            assert_eq!(p.seq(), seq);
            assert_eq!(p.0, seq << 16 | u64::from(node));
        }
        // Ids of one source ascend with their sequence numbers.
        let n = NodeId::new(9);
        assert!(PacketId::new(n, 1) < PacketId::new(n, 2));
    }
}
