//! Turn-encoded source routes (paper §2.1).
//!
//! The paper's head flit carries a 16-bit *route* field, two bits per hop.
//! At each router the input controller strips the next two bits off the
//! field and uses them to select one of four output ports.
//!
//! The encoding implemented here follows the paper's port structure
//! (Figure 2): an input controller connects to the *four other* output
//! controllers, so a packet can never reverse direction mid-flight and two
//! bits per hop suffice:
//!
//! * At the **source router** the packet enters from the tile port, which
//!   connects to all four direction outputs; the first route entry is an
//!   **absolute direction** (N/E/S/W).
//! * At every **subsequent router** the entry is **relative to the current
//!   heading**: [`Turn::Straight`], [`Turn::Left`], [`Turn::Right`], or
//!   [`Turn::Extract`] (deliver to the local tile).
//!
//! [`SourceRoute`] stores up to 64 two-bit entries in a `u128` so that large
//! networks can be simulated — a k=32 folded torus needs up to 32 hops plus
//! the extract entry for a minimal route; [`SourceRoute::fits_paper_field`]
//! reports whether a route fits the paper's 16-bit field (8 entries — enough
//! for any minimal route on the paper's 4×4 torus).

use std::fmt;

use crate::ids::Direction;

/// A relative routing step, two bits in the route field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Turn {
    /// Continue in the current heading.
    Straight,
    /// Turn 90° counter-clockwise.
    Left,
    /// Turn 90° clockwise.
    Right,
    /// Deliver the packet to this router's tile output port.
    Extract,
}

impl Turn {
    /// Two-bit wire encoding.
    pub const fn encode(self) -> u8 {
        match self {
            Turn::Straight => 0b00,
            Turn::Left => 0b01,
            Turn::Right => 0b10,
            Turn::Extract => 0b11,
        }
    }

    /// Decodes a two-bit field.
    pub const fn decode(bits: u8) -> Turn {
        match bits & 0b11 {
            0b00 => Turn::Straight,
            0b01 => Turn::Left,
            0b10 => Turn::Right,
            _ => Turn::Extract,
        }
    }

    /// The relative turn that carries heading `from` into heading `to`.
    ///
    /// Returns `None` for a reversal, which the router's port structure
    /// cannot express (an input controller does not connect to its own
    /// direction's output controller).
    pub fn between(from: Direction, to: Direction) -> Option<Turn> {
        if to == from {
            Some(Turn::Straight)
        } else if to == from.turned_left() {
            Some(Turn::Left)
        } else if to == from.turned_right() {
            Some(Turn::Right)
        } else {
            None
        }
    }

    /// Applies this turn to a heading; `Extract` leaves it unchanged.
    pub const fn apply(self, heading: Direction) -> Direction {
        match self {
            Turn::Straight | Turn::Extract => heading,
            Turn::Left => heading.turned_left(),
            Turn::Right => heading.turned_right(),
        }
    }
}

impl fmt::Display for Turn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Turn::Straight => "S",
            Turn::Left => "L",
            Turn::Right => "R",
            Turn::Extract => "X",
        };
        write!(f, "{s}")
    }
}

/// Errors building or decoding a source route.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// The hop sequence reverses direction, which 2-bit relative turns
    /// cannot encode.
    Reversal {
        /// The hop index at which the reversal occurs.
        hop: usize,
    },
    /// The route needs more entries than the limit it was checked
    /// against: [`SourceRoute::MAX_ENTRIES`], or
    /// [`SourceRoute::PAPER_FIELD_ENTRIES`] where the paper's route field
    /// is required.
    TooLong {
        /// Entries required (hops + 1 for the extract entry).
        entries: usize,
        /// The entry limit the route exceeded.
        limit: usize,
    },
    /// An empty hop sequence was supplied (self-delivery does not enter
    /// the network).
    Empty,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Reversal { hop } => {
                write!(f, "hop {hop} reverses direction; not encodable in 2 bits")
            }
            RouteError::TooLong { entries, limit } => write!(
                f,
                "route needs {entries} entries, more than the maximum of {limit}"
            ),
            RouteError::Empty => write!(f, "empty hop sequence"),
        }
    }
}

impl std::error::Error for RouteError {}

/// A compiled source route: packed two-bit entries, consumed LSB-first.
///
/// ```
/// use ocin_core::{SourceRoute, Turn};
/// use ocin_core::ids::Direction;
///
/// # fn main() -> Result<(), ocin_core::RouteError> {
/// // East, East, then turn left (north), then extract.
/// let route = SourceRoute::compile(&[Direction::East, Direction::East, Direction::North])?;
/// assert_eq!(route.num_entries(), 4); // 3 hops + extract
/// assert!(route.fits_paper_field());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SourceRoute {
    bits: u128,
    entries: u8,
}

impl SourceRoute {
    /// Maximum number of two-bit entries a route can hold. Sized so the
    /// diameter route of a k=32 folded torus (32 hops + extract) fits.
    pub const MAX_ENTRIES: usize = 64;

    /// Entries that fit the paper's 16-bit route field.
    pub const PAPER_FIELD_ENTRIES: usize = 8;

    /// Compiles an absolute hop sequence (directions traversed, source to
    /// destination) into a turn-encoded route ending in `Extract`.
    ///
    /// The first entry is the absolute first-hop direction (the packet
    /// enters the network from the tile port, which reaches all four
    /// outputs); later entries are turns relative to the running heading.
    ///
    /// # Errors
    ///
    /// * [`RouteError::Empty`] if `hops` is empty.
    /// * [`RouteError::Reversal`] if two consecutive hops are opposite
    ///   directions (minimal routes never reverse).
    /// * [`RouteError::TooLong`] if more than [`Self::MAX_ENTRIES`] entries
    ///   would be needed.
    pub fn compile(hops: &[Direction]) -> Result<SourceRoute, RouteError> {
        if hops.is_empty() {
            return Err(RouteError::Empty);
        }
        let entries = hops.len() + 1;
        if entries > Self::MAX_ENTRIES {
            return Err(RouteError::TooLong {
                entries,
                limit: Self::MAX_ENTRIES,
            });
        }
        let mut bits: u128 = 0;
        let mut shift = 0;
        // First entry: absolute direction.
        bits |= (hops[0].index() as u128) << shift;
        shift += 2;
        let mut heading = hops[0];
        for (i, &d) in hops.iter().enumerate().skip(1) {
            let turn = Turn::between(heading, d).ok_or(RouteError::Reversal { hop: i })?;
            bits |= (turn.encode() as u128) << shift;
            shift += 2;
            heading = d;
        }
        bits |= (Turn::Extract.encode() as u128) << shift;
        Ok(SourceRoute {
            bits,
            entries: entries as u8,
        })
    }

    /// Compiles a hop sequence given as runs of `(direction, hops)` —
    /// the shape of a dimension-order route — to the route
    /// [`Self::compile`] returns for the runs spelled out hop by hop,
    /// without building that list. Empty runs are skipped.
    ///
    /// # Errors
    ///
    /// As [`Self::compile`].
    pub fn from_runs(runs: &[(Direction, usize)]) -> Result<SourceRoute, RouteError> {
        let hops: usize = runs.iter().map(|&(_, n)| n).sum();
        if hops == 0 {
            return Err(RouteError::Empty);
        }
        let entries = hops + 1;
        if entries > Self::MAX_ENTRIES {
            return Err(RouteError::TooLong {
                entries,
                limit: Self::MAX_ENTRIES,
            });
        }
        let mut bits: u128 = 0;
        let mut heading: Option<Direction> = None;
        let mut hop = 0;
        for &(d, n) in runs.iter().filter(|&&(_, n)| n > 0) {
            // A run's first entry is the absolute direction (first run)
            // or a turn; its other hops go straight, which encodes as 0.
            let entry = match heading {
                None => d.index() as u128,
                Some(h) => Turn::between(h, d)
                    .ok_or(RouteError::Reversal { hop })?
                    .encode() as u128,
            };
            bits |= entry << (2 * hop);
            heading = Some(d);
            hop += n;
        }
        bits |= (Turn::Extract.encode() as u128) << (2 * hop);
        Ok(SourceRoute {
            bits,
            entries: entries as u8,
        })
    }

    /// Number of two-bit entries remaining (hops not yet taken, plus the
    /// final extract entry).
    pub fn num_entries(&self) -> usize {
        self.entries as usize
    }

    /// Whether the remaining route fits the paper's 16-bit field.
    pub fn fits_paper_field(&self) -> bool {
        self.num_entries() <= Self::PAPER_FIELD_ENTRIES
    }

    /// Strips the **first-hop absolute direction** off the route.
    ///
    /// Called by the source router when the head flit arrives on the tile
    /// input port. Returns the direction and the remaining route.
    ///
    /// Returns `None` if the route is exhausted or the next entry is the
    /// extract marker (a self-addressed packet's route is just `Extract`,
    /// which this model forbids at compile time).
    pub fn strip_first_hop(self) -> Option<(Direction, SourceRoute)> {
        if self.entries == 0 {
            return None;
        }
        let dir = Direction::from_index((self.bits & 0b11) as usize);
        Some((
            dir,
            SourceRoute {
                bits: self.bits >> 2,
                entries: self.entries - 1,
            },
        ))
    }

    /// Strips the next **relative turn** off the route.
    ///
    /// Called by every router after the first. Returns the turn and the
    /// remaining route. Returns `None` if the route is exhausted.
    pub fn strip_turn(self) -> Option<(Turn, SourceRoute)> {
        if self.entries == 0 {
            return None;
        }
        let turn = Turn::decode((self.bits & 0b11) as u8);
        Some((
            turn,
            SourceRoute {
                bits: self.bits >> 2,
                entries: self.entries - 1,
            },
        ))
    }

    /// Walks the whole route from an initial absolute hop, returning the
    /// sequence of directions traversed. Useful for testing and for
    /// reservation-table construction.
    pub fn walk(&self) -> Vec<Direction> {
        let mut dirs = Vec::new();
        let Some((first, mut rest)) = self.strip_first_hop() else {
            return dirs;
        };
        dirs.push(first);
        let mut heading = first;
        while let Some((turn, r)) = rest.strip_turn() {
            rest = r;
            match turn {
                Turn::Extract => break,
                t => {
                    heading = t.apply(heading);
                    dirs.push(heading);
                }
            }
        }
        dirs
    }
}

impl fmt::Debug for SourceRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "route[")?;
        let mut r = *self;
        if let Some((first, mut rest)) = r.strip_first_hop() {
            write!(f, "{first}")?;
            while let Some((turn, next)) = rest.strip_turn() {
                write!(f, ",{turn}")?;
                rest = next;
                if turn == Turn::Extract {
                    break;
                }
            }
            r = rest;
        }
        let _ = r;
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Direction::*;

    /// Runs compile to what the spelled-out hop list compiles to,
    /// errors included.
    #[test]
    fn runs_compile_like_their_hops() {
        let cases: [&[(Direction, usize)]; 8] = [
            &[(East, 3)],
            &[(West, 2), (North, 5)],
            &[(East, 0), (South, 1)],
            &[(East, 1), (West, 1)],
            &[(North, 2), (North, 3)],
            &[(East, 0), (North, 0)],
            &[(East, 40), (North, 23)],
            &[(East, 40), (North, 24)],
        ];
        for runs in cases {
            let hops: Vec<Direction> = runs
                .iter()
                .flat_map(|&(d, n)| std::iter::repeat_n(d, n))
                .collect();
            assert_eq!(
                SourceRoute::from_runs(runs),
                SourceRoute::compile(&hops),
                "{runs:?}"
            );
        }
    }

    #[test]
    fn straight_line_route() {
        let r = SourceRoute::compile(&[East, East, East]).unwrap();
        assert_eq!(r.num_entries(), 4);
        assert_eq!(r.walk(), vec![East, East, East]);
    }

    #[test]
    fn turning_route() {
        // East, East, North (left turn), West (left turn).
        let r = SourceRoute::compile(&[East, East, North, West]).unwrap();
        assert_eq!(r.walk(), vec![East, East, North, West]);
        // 5 entries.
        assert_eq!(r.num_entries(), 5);
    }

    #[test]
    fn reversal_is_rejected() {
        let err = SourceRoute::compile(&[East, West]).unwrap_err();
        assert_eq!(err, RouteError::Reversal { hop: 1 });
    }

    #[test]
    fn empty_is_rejected() {
        assert_eq!(SourceRoute::compile(&[]).unwrap_err(), RouteError::Empty);
    }

    #[test]
    fn too_long_is_rejected() {
        let hops = vec![North; SourceRoute::MAX_ENTRIES];
        let err = SourceRoute::compile(&hops).unwrap_err();
        assert_eq!(
            err,
            RouteError::TooLong {
                entries: SourceRoute::MAX_ENTRIES + 1,
                limit: SourceRoute::MAX_ENTRIES,
            }
        );
    }

    /// The message names the limit the route failed: the paper field's
    /// 8 entries where it applies, not the 64 a source route holds.
    #[test]
    fn too_long_names_the_limit_it_failed() {
        let paper = RouteError::TooLong {
            entries: 9,
            limit: SourceRoute::PAPER_FIELD_ENTRIES,
        };
        assert_eq!(
            paper.to_string(),
            "route needs 9 entries, more than the maximum of 8"
        );
        let err = SourceRoute::compile(&[North; SourceRoute::MAX_ENTRIES]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "route needs 65 entries, more than the maximum of 64"
        );
    }

    /// The widened field covers a k=32 folded-torus diameter route:
    /// 16 hops per dimension, 32 hops + extract = 33 entries.
    #[test]
    fn k32_diameter_route_fits() {
        let mut hops = vec![East; 16];
        hops.extend([North; 16]);
        let r = SourceRoute::compile(&hops).unwrap();
        assert_eq!(r.num_entries(), 33);
        assert_eq!(r.walk(), hops);
        assert!(!r.fits_paper_field());
    }

    #[test]
    fn paper_field_limit() {
        // 7 hops + extract = 8 entries: fits.
        let r = SourceRoute::compile(&[East; 7]).unwrap();
        assert!(r.fits_paper_field());
        // 8 hops + extract = 9 entries: does not fit.
        let r = SourceRoute::compile(&[East; 8]).unwrap();
        assert!(!r.fits_paper_field());
    }

    #[test]
    fn stripping_matches_walk() {
        let r = SourceRoute::compile(&[North, North, East, South]).unwrap();
        let (d0, rest) = r.strip_first_hop().unwrap();
        assert_eq!(d0, North);
        let (t1, rest) = rest.strip_turn().unwrap();
        assert_eq!(t1, Turn::Straight);
        let (t2, rest) = rest.strip_turn().unwrap();
        assert_eq!(t2, Turn::Right); // North -> East
        let (t3, rest) = rest.strip_turn().unwrap();
        assert_eq!(t3, Turn::Right); // East -> South
        let (t4, rest) = rest.strip_turn().unwrap();
        assert_eq!(t4, Turn::Extract);
        assert_eq!(rest.num_entries(), 0);
        assert!(rest.strip_turn().is_none());
    }

    #[test]
    fn turn_between_all_pairs() {
        for from in Direction::ALL {
            assert_eq!(Turn::between(from, from), Some(Turn::Straight));
            assert_eq!(Turn::between(from, from.turned_left()), Some(Turn::Left));
            assert_eq!(Turn::between(from, from.turned_right()), Some(Turn::Right));
            assert_eq!(Turn::between(from, from.opposite()), None);
        }
    }

    #[test]
    fn turn_encode_decode_roundtrip() {
        for t in [Turn::Straight, Turn::Left, Turn::Right, Turn::Extract] {
            assert_eq!(Turn::decode(t.encode()), t);
        }
    }

    #[test]
    fn debug_format() {
        let r = SourceRoute::compile(&[East, North]).unwrap();
        assert_eq!(format!("{r:?}"), "route[E,L,X]");
    }
}
