//! Flits, packets, and the port-field encodings of the paper's §2.1.
//!
//! The tile interface carries a 256-bit data field plus control subfields:
//!
//! * **Type** (2 bits): head / body / tail / idle — a flit may be both head
//!   and tail ([`FlitKind::HeadTail`]); idle cycles are modelled by the
//!   *absence* of a flit.
//! * **Size** (4 bits): logarithmically encodes the number of valid data
//!   bits, 2⁰ = 1 bit up to 2⁸ = 256 bits ([`SizeCode`]). Short payloads
//!   keep the unused bits quiet to save power.
//! * **Virtual channel** (8 bits): a mask of VCs the packet may ride
//!   ([`VcMask`]), identifying its class of service.
//! * **Route** (16 bits): the turn-encoded source route
//!   ([`crate::route::SourceRoute`]), present on head flits.
//! * **Ready** (8 bits): per-VC flow-control back-pressure, realized in
//!   this model by credit counters.

use std::fmt;

use crate::expand::RouteState;
use crate::ids::{Cycle, FlowId, NodeId, PacketId, VcId};
use crate::route::SourceRoute;

/// Width of the data field in bits (the paper's 256-bit port).
pub const FLIT_DATA_BITS: usize = 256;

/// Per-flit control overhead in bits: type(2) + size(4) + vc(8) + route(16) +
/// ready(8) ≈ 38; the paper budgets "about 300b per flit (with overhead)" for
/// buffer sizing, i.e. ~44 bits of overhead and ECC/spares.
pub const FLIT_OVERHEAD_BITS: usize = 44;

/// Total buffered bits per flit (data + overhead), the paper's ≈300 b.
pub const FLIT_TOTAL_BITS: usize = FLIT_DATA_BITS + FLIT_OVERHEAD_BITS;

/// The 2-bit flit type field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries the route.
    Head,
    /// Continuation flit.
    Body,
    /// Last flit; releases virtual channels as it drains.
    Tail,
    /// A single-flit packet ("a flit may be both a head and a tail").
    HeadTail,
}

impl FlitKind {
    /// True for `Head` and `HeadTail`.
    pub const fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for `Tail` and `HeadTail`.
    pub const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

impl fmt::Display for FlitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlitKind::Head => "H",
            FlitKind::Body => "B",
            FlitKind::Tail => "T",
            FlitKind::HeadTail => "HT",
        };
        write!(f, "{s}")
    }
}

/// The 4-bit logarithmic size field: code `n` means 2ⁿ valid data bits.
///
/// ```
/// use ocin_core::SizeCode;
/// assert_eq!(SizeCode::for_bits(16).unwrap().bits(), 16);
/// assert_eq!(SizeCode::for_bits(100).unwrap().bits(), 128); // rounded up
/// assert!(SizeCode::for_bits(512).is_none()); // larger than the field
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SizeCode(u8);

impl SizeCode {
    /// The largest code: 2⁸ = 256 bits, a full flit.
    pub const MAX: SizeCode = SizeCode(8);

    /// Creates a size code, `code` ∈ 0..=8.
    pub const fn new(code: u8) -> Option<SizeCode> {
        if code <= 8 {
            Some(SizeCode(code))
        } else {
            None
        }
    }

    /// The smallest code whose capacity holds `bits` valid bits.
    ///
    /// Returns `None` when `bits` is zero or exceeds 256.
    pub fn for_bits(bits: usize) -> Option<SizeCode> {
        if bits == 0 || bits > FLIT_DATA_BITS {
            return None;
        }
        let code = (bits as u32).next_power_of_two().trailing_zeros() as u8;
        Some(SizeCode(code))
    }

    /// The raw 4-bit code.
    pub const fn code(self) -> u8 {
        self.0
    }

    /// The number of valid data bits, 2^code.
    pub const fn bits(self) -> usize {
        1 << self.0
    }
}

impl fmt::Debug for SizeCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "size{}({}b)", self.0, self.bits())
    }
}

/// The 8-bit virtual-channel mask: which VCs a packet may be routed on.
///
/// The mask identifies a class of service; packets from different classes
/// may be in progress simultaneously through a single port (paper §2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VcMask(u8);

impl VcMask {
    /// A mask allowing every VC.
    pub const ALL: VcMask = VcMask(0xFF);

    /// A mask allowing no VC (never routable; rejected at injection).
    pub const NONE: VcMask = VcMask(0);

    /// Creates a mask from raw bits.
    pub const fn new(bits: u8) -> VcMask {
        VcMask(bits)
    }

    /// A mask allowing a single VC.
    pub const fn single(vc: VcId) -> VcMask {
        VcMask(vc.bit())
    }

    /// Raw bits.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Whether `vc` is allowed.
    pub const fn allows(self, vc: VcId) -> bool {
        self.0 & vc.bit() != 0
    }

    /// Intersection of two masks.
    pub const fn and(self, other: VcMask) -> VcMask {
        VcMask(self.0 & other.0)
    }

    /// Union of two masks.
    pub const fn or(self, other: VcMask) -> VcMask {
        VcMask(self.0 | other.0)
    }

    /// Whether no VC is allowed.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the allowed VCs in ascending order.
    pub fn iter(self) -> impl Iterator<Item = VcId> {
        (0..8u8)
            .filter(move |v| self.0 & (1 << v) != 0)
            .map(VcId::new)
    }
}

impl fmt::Debug for VcMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vcmask({:#010b})", self.0)
    }
}

/// The service class of a packet, determining its virtual channels and its
/// arbitration priority.
///
/// The paper's example interleaves "a long, low priority packet" with "a
/// short, high-priority packet" (§2.1) and dedicates a special virtual
/// channel to pre-scheduled traffic (§2.6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub enum ServiceClass {
    /// Ordinary dynamic traffic (lowest priority).
    #[default]
    Bulk,
    /// Latency-sensitive dynamic traffic; preempts `Bulk` at every
    /// arbitration point.
    Priority,
    /// Pre-scheduled static traffic riding the reserved VC; moves from
    /// link to link without arbitration delay (paper §2.6).
    Reserved,
}

impl ServiceClass {
    /// Numeric arbitration priority; higher wins.
    pub const fn priority(self) -> u8 {
        match self {
            ServiceClass::Bulk => 0,
            ServiceClass::Priority => 1,
            ServiceClass::Reserved => 2,
        }
    }
}

/// A 256-bit data payload, stored as four 64-bit words (word 0 holds bits
/// 0–63).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Payload(pub [u64; 4]);

impl Payload {
    /// An all-zero payload.
    pub const ZERO: Payload = Payload([0; 4]);

    /// Builds a payload whose low 64 bits are `value`.
    pub const fn from_u64(value: u64) -> Payload {
        Payload([value, 0, 0, 0])
    }

    /// The low 64 bits.
    pub const fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// Reads bit `i` (0 ≤ i < 256).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < FLIT_DATA_BITS, "bit index {i} out of range");
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Flips bit `i`, used by the fault model to corrupt in-flight data.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn flip_bit(&mut self, i: usize) {
        assert!(i < FLIT_DATA_BITS, "bit index {i} out of range");
        self.0[i / 64] ^= 1 << (i % 64);
    }

    /// Copies up to 32 bytes into the payload (byte 0 = bits 0–7).
    pub fn from_bytes(bytes: &[u8]) -> Payload {
        let mut p = Payload::ZERO;
        for (i, &b) in bytes.iter().take(32).enumerate() {
            p.0[i / 8] |= (b as u64) << ((i % 8) * 8);
        }
        p
    }

    /// Extracts the payload as 32 bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, b) in out.iter_mut().enumerate() {
            *b = (self.0[i / 8] >> ((i % 8) * 8)) as u8;
        }
        out
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "payload({:016x}{:016x}{:016x}{:016x})",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

/// Simulation-side bookkeeping carried with each flit (not wire bits).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlitMeta {
    /// Owning packet.
    pub packet: PacketId,
    /// Injecting tile.
    pub src: NodeId,
    /// Destination tile.
    pub dst: NodeId,
    /// Index of this flit within its packet (0 = head).
    pub flit_index: u16,
    /// Number of flits in the packet.
    pub packet_len: u16,
    /// Cycle at which the packet was offered to the tile input port.
    pub created_at: Cycle,
    /// Cycle at which the head flit actually entered the network.
    pub injected_at: Cycle,
    /// Service class.
    pub class: ServiceClass,
    /// Pre-scheduled flow, if any.
    pub flow: Option<FlowId>,
    /// Routing state: the VC tier the head flit is allocated on and
    /// the heading its route's turns apply to. Advanced only by
    /// [`RouteState::take_hop`] at route resolution and
    /// [`RouteState::delivered_over`] on link delivery.
    pub route_state: RouteState,
    /// SEC-DED check word computed at the last link transmitter (used
    /// when link protection is enabled).
    pub ecc: u16,
    /// Set when an unmasked link fault altered this flit's payload.
    pub corrupted: bool,
}

/// A flow-control digit: the unit of buffering and link transfer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Flit {
    /// Type field.
    pub kind: FlitKind,
    /// Logarithmic size of the valid data.
    pub size: SizeCode,
    /// Virtual channels this packet may ride.
    pub vc_mask: VcMask,
    /// Remaining source route (head flits only; body/tail carry data here).
    pub route: SourceRoute,
    /// Data field.
    pub payload: Payload,
    /// VC assigned on the link the flit most recently traversed.
    pub link_vc: VcId,
    /// Router-local scratch: the output port resolved when this head flit
    /// arrived (route bits already stripped). `None` on body/tail flits.
    pub resolved_port: Option<crate::ids::Port>,
    /// Simulation metadata.
    pub meta: FlitMeta,
}

impl Flit {
    /// The number of wire bits that toggle when this flit crosses a link:
    /// valid data bits plus control overhead. The size field keeps unused
    /// data bits from dissipating power (paper §2.1).
    pub fn active_bits(&self) -> usize {
        self.size.bits() + FLIT_OVERHEAD_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_code_roundtrip() {
        for code in 0..=8u8 {
            let s = SizeCode::new(code).unwrap();
            assert_eq!(s.code(), code);
            assert_eq!(SizeCode::for_bits(s.bits()), Some(s));
        }
        assert!(SizeCode::new(9).is_none());
    }

    #[test]
    fn size_code_rounds_up() {
        assert_eq!(SizeCode::for_bits(1).unwrap().bits(), 1);
        assert_eq!(SizeCode::for_bits(3).unwrap().bits(), 4);
        assert_eq!(SizeCode::for_bits(129).unwrap().bits(), 256);
        assert_eq!(SizeCode::for_bits(0), None);
        assert_eq!(SizeCode::for_bits(257), None);
    }

    #[test]
    fn vc_mask_operations() {
        let m = VcMask::new(0b0000_0110);
        assert!(m.allows(VcId::new(1)));
        assert!(m.allows(VcId::new(2)));
        assert!(!m.allows(VcId::new(0)));
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![VcId::new(1), VcId::new(2)]
        );
        assert!(m.and(VcMask::new(0b1000)).is_empty());
        assert_eq!(m.or(VcMask::new(0b1)).bits(), 0b0111);
        assert_eq!(VcMask::single(VcId::new(7)).bits(), 0x80);
    }

    #[test]
    fn flit_kind_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::HeadTail.is_head());
        assert!(FlitKind::HeadTail.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
    }

    #[test]
    fn payload_bit_operations() {
        let mut p = Payload::ZERO;
        assert!(!p.bit(200));
        p.flip_bit(200);
        assert!(p.bit(200));
        p.flip_bit(200);
        assert_eq!(p, Payload::ZERO);
    }

    #[test]
    fn payload_bytes_roundtrip() {
        let bytes: Vec<u8> = (0..32).map(|i| i as u8 * 7 + 1).collect();
        let p = Payload::from_bytes(&bytes);
        assert_eq!(p.to_bytes().to_vec(), bytes);
    }

    #[test]
    fn payload_u64() {
        let p = Payload::from_u64(0xDEAD_BEEF);
        assert_eq!(p.low_u64(), 0xDEAD_BEEF);
        assert!(p.bit(0));
        assert!(p.bit(31));
        assert!(!p.bit(64));
    }

    #[test]
    fn class_priorities_are_ordered() {
        assert!(ServiceClass::Reserved.priority() > ServiceClass::Priority.priority());
        assert!(ServiceClass::Priority.priority() > ServiceClass::Bulk.priority());
    }

    #[test]
    fn overhead_matches_paper_budget() {
        // The paper sizes buffers at "about 300b per flit (with overhead)".
        assert_eq!(FLIT_TOTAL_BITS, 300);
    }
}
