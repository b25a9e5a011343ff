//! The baseline credit-based virtual-channel router (paper §2.3, Fig. 3).
//!
//! Each of the five input controllers holds an input buffer and state for
//! every virtual channel. When a head flit arrives, the controller strips
//! the next entry off the route field to select an output port; the flit
//! then arbitrates with the other VCs on its input port and, if it wins,
//! is forwarded to the output controller — *in parallel* with allocating
//! an output virtual channel, as the paper specifies. Each output
//! controller provides a single stage of buffering per input-port
//! connection; staged flits arbitrate for the outgoing link, gated by
//! credits for downstream buffer space. Credits travel back on the
//! reverse-direction channel.
//!
//! Evaluation cost is proportional to activity, not to the router's
//! size. A loaded network still holds only two or three flits in a
//! typical router's 40 input VCs and 50 staging slots, so the router
//! keeps occupancy bitmasks — one bit per input VC (`in_occupied`) and
//! per staging slot in each bank (`staged`, `reserved_staged`) — and
//! every phase walks set bits instead of scanning empty buffers. Set
//! bits are visited in ascending order, which is the port-major,
//! VC-minor order a full scan uses, and an empty buffer or slot does
//! nothing and reports nothing, so skipping it cannot change a result
//! or a probe event (DESIGN.md §3.14).
//!
//! The per-(port, VC) metadata is laid out struct-of-arrays in inline
//! arrays indexed `port * num_vcs + vc`, sized for the 8-VC bound.
//!
//! Flits live in one packed slab per router (`slots`), never in the
//! per-VC or per-slot structures themselves. An input VC is a ring of
//! `buf_depth` u16 handles into the slab, and a staging slot is one
//! handle, valid while its `staged` or `reserved_staged` bit is set. A
//! flit is written into the slab once on `receive`, moves from its
//! input ring to a staging slot by handle, and is copied out once on
//! launch; its slab entry then goes on a LIFO free list. The slab
//! therefore grows only to the router's peak occupancy — two or three
//! entries in a loaded network, against the 40 buffers × `buf_depth`
//! plus 50 staging slots the paper's router provisions — so a cycle's
//! work touches a few dense cache lines instead of a scattered 28 KB
//! per tile. No decision iterates in handle order, so where a flit
//! sits in the slab cannot change a result (DESIGN.md §3.14).

use crate::config::ReservationPolicy;
use crate::expand::TierTable;
use crate::flit::{Flit, VcMask};
use crate::ids::{Cycle, NodeId, PacketId, Port, VcId};
use crate::probe::{Event, Probe};

use super::{resolve_route, EvalEnv, RouterOutput};

/// Most VCs per port the router supports: the width of the VC mask
/// field, and the bound `VcPlan::validate` enforces.
const MAX_VCS: usize = 8;

/// Length of the inline per-(port, VC) arrays.
const PV_SLOTS: usize = Port::COUNT * MAX_VCS;

/// Staging slots per bank: one per (output port, input port) pair.
const STAGE_SLOTS: usize = Port::COUNT * Port::COUNT;

/// A VC-allocation request: (priority, input port, input VC, effective
/// VC mask, requesting packet).
type AllocReq = (u8, usize, usize, VcMask, PacketId);

/// A link-arbitration candidate: (priority, input port, from the
/// reserved staging bank, staged packet).
type LinkCand = (u8, usize, bool, PacketId);

/// The indices of `mask`'s set bits, in ascending order.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

/// The paper's virtual-channel router for one tile.
///
/// Per-entity state is stored struct-of-arrays. Input VCs are indexed
/// `input_port * num_vcs + vc` (`ring_head`, `ring_len`, `in_out_port`,
/// `in_out_vc`, bits of `in_occupied`); output VCs `output_port *
/// num_vcs + vc` (`out_owner`, `out_credits`); staging slots
/// `output_port * Port::COUNT + input_port` (`stage`, `reserved_stage`,
/// bits of `staged`, `reserved_staged`).
#[derive(Debug)]
pub struct VcRouter {
    node: NodeId,
    num_vcs: usize,
    buf_depth: usize,
    /// The network's VC tier masks.
    tiers: TierTable,
    /// Cycles a flit occupies each output link (1 = full-width channel).
    phits: u64,
    /// Every flit the router holds, in input buffers or staging,
    /// addressed by u16 handle.
    slots: Vec<Flit>,
    /// Handles of `slots` entries that hold no flit, most recently
    /// freed last.
    free: Vec<u16>,
    /// Input buffers: input VC `idx`'s ring of `buf_depth` handles
    /// starts at `idx * buf_depth`.
    ring: Vec<u16>,
    /// Ring position of each input VC's front flit.
    ring_head: [u16; PV_SLOTS],
    /// Flits buffered in each input VC.
    ring_len: [u16; PV_SLOTS],
    /// Bit `port * num_vcs + vc` is set exactly when that input VC's
    /// buffer is non-empty.
    in_occupied: u64,
    /// Output port of the packet at the head of each input VC.
    in_out_port: [Option<Port>; PV_SLOTS],
    /// Output VC allocated to that packet.
    in_out_vc: [Option<VcId>; PV_SLOTS],
    /// Per-input-port switch round-robin pointer.
    in_rr: [usize; Port::COUNT],
    /// Handle of the flit staged per (output port, input port)
    /// connection; valid while the slot's `staged` bit is set.
    stage: [u16; STAGE_SLOTS],
    /// Dedicated staging for pre-scheduled (reserved-class) flits, so a
    /// credit-stalled dynamic flit can never head-of-line block them —
    /// §2.6's "moves from one link to another without arbitration or
    /// delay". Valid while the slot's `reserved_staged` bit is set.
    reserved_stage: [u16; STAGE_SLOTS],
    /// Bit `slot(o, i)` is set exactly when `stage[slot(o, i)]` names a
    /// staged flit.
    staged: u32,
    /// The same for `reserved_stage`.
    reserved_staged: u32,
    /// Which (input port, input VC) owns each output VC.
    out_owner: [Option<(u8, u8)>; PV_SLOTS],
    /// Credits: free downstream buffer slots per output VC.
    out_credits: [u64; PV_SLOTS],
    /// Credit ceiling per output port (tile port differs).
    out_max_credits: [u64; Port::COUNT],
    /// First cycle each output link is free again (phit serialization).
    busy_until: [u64; Port::COUNT],
    /// Per-output-port allocation round-robin pointer.
    rr_alloc: [usize; Port::COUNT],
    /// Per-output-port link round-robin pointer.
    rr_link: [usize; Port::COUNT],
    /// Flits currently inside the router (input buffers + staging).
    /// Maintained incrementally so `is_quiescent` and `occupancy` are
    /// O(1); debug builds check it against a walk of the buffers.
    in_flight: usize,
    /// Persistent scratch for `allocate_vcs` requests; taken and put
    /// back each evaluation so the hot path never reallocates.
    alloc_scratch: Vec<AllocReq>,
    /// Persistent scratch for `arbitrate_links` candidates.
    link_scratch: Vec<LinkCand>,
}

impl VcRouter {
    /// Deepest per-VC input buffer the router supports. Every flit the
    /// router can hold at once — all input buffers full and both staging
    /// banks occupied — must have a distinct u16 slab handle.
    pub const MAX_BUF_DEPTH: usize = (u16::MAX as usize + 1 - 2 * STAGE_SLOTS) / PV_SLOTS;

    /// Creates the router for `node`, with `num_vcs` VCs per port
    /// allocated from the network's `tiers`.
    ///
    /// `eject_credits` bounds flits in flight toward the tile interface.
    ///
    /// # Panics
    ///
    /// Panics if `num_vcs` exceeds 8 (the occupancy masks and the
    /// inline per-VC arrays are sized for that bound) or `buf_depth`
    /// exceeds [`Self::MAX_BUF_DEPTH`] (the slab's u16 handles could not
    /// address a full router).
    pub fn new(
        node: NodeId,
        num_vcs: usize,
        tiers: TierTable,
        buf_depth: usize,
        eject_credits: u64,
        phits: u64,
    ) -> VcRouter {
        // INVARIANT: `VcPlan::validate` rejects more than 8 VCs for every
        // network built from a config; this guards direct callers of the
        // public constructor, whose VCs would overrun the inline arrays.
        assert!(
            num_vcs <= MAX_VCS,
            "router {node}: at most {MAX_VCS} VCs per port, got {num_vcs}"
        );
        // INVARIANT: likewise `NetworkConfig::validate` rejects a deeper
        // buffer, which the slab's u16 handles could not address.
        assert!(
            buf_depth <= Self::MAX_BUF_DEPTH,
            "router {node}: at most {} flits per VC buffer, got {buf_depth}",
            Self::MAX_BUF_DEPTH
        );
        let mut out_max_credits = [buf_depth as u64; Port::COUNT];
        out_max_credits[Port::Tile.index()] = eject_credits;
        let mut out_credits = [0u64; PV_SLOTS];
        for (o, &max) in out_max_credits.iter().enumerate() {
            out_credits[o * num_vcs..(o + 1) * num_vcs].fill(max);
        }
        VcRouter {
            node,
            num_vcs,
            buf_depth,
            tiers,
            phits: phits.max(1),
            slots: Vec::new(),
            free: Vec::new(),
            ring: vec![0; Port::COUNT * num_vcs * buf_depth],
            ring_head: [0; PV_SLOTS],
            ring_len: [0; PV_SLOTS],
            in_occupied: 0,
            in_out_port: [None; PV_SLOTS],
            in_out_vc: [None; PV_SLOTS],
            in_rr: [0; Port::COUNT],
            stage: [0; STAGE_SLOTS],
            reserved_stage: [0; STAGE_SLOTS],
            staged: 0,
            reserved_staged: 0,
            out_owner: [None; PV_SLOTS],
            out_credits,
            out_max_credits,
            busy_until: [0; Port::COUNT],
            rr_alloc: [0; Port::COUNT],
            rr_link: [0; Port::COUNT],
            in_flight: 0,
            alloc_scratch: Vec::with_capacity(Port::COUNT * num_vcs),
            link_scratch: Vec::with_capacity(2 * Port::COUNT),
        }
    }

    /// Flat index of (input or output) port `p`, VC `v`.
    #[inline]
    fn pv(&self, p: usize, v: usize) -> usize {
        p * self.num_vcs + v
    }

    /// Flat index of output port `o`'s staging slot for input port `i`.
    #[inline]
    fn slot(o: usize, i: usize) -> usize {
        o * Port::COUNT + i
    }

    /// Writes `flit` into a free slab entry, reusing the most recently
    /// freed one, and returns its handle.
    #[inline]
    fn alloc(&mut self, flit: Flit) -> u16 {
        match self.free.pop() {
            Some(h) => {
                self.slots[usize::from(h)] = flit;
                h
            }
            None => {
                // INVARIANT: MAX_BUF_DEPTH bounds the flits held at once
                // by u16::MAX + 1, and the slab only grows when every
                // entry is live, so the new index fits a handle.
                let h = u16::try_from(self.slots.len()).expect("slab handle fits u16");
                self.slots.push(flit);
                h
            }
        }
    }

    /// Copies the flit at handle `h` out of the slab and frees its entry.
    #[inline]
    fn release(&mut self, h: u16) -> Flit {
        self.free.push(h);
        self.slots[usize::from(h)]
    }

    /// Position in `ring` of input VC `idx`'s `k`-th buffered flit.
    #[inline]
    fn ring_pos(&self, idx: usize, k: usize) -> usize {
        let mut pos = usize::from(self.ring_head[idx]) + k;
        if pos >= self.buf_depth {
            pos -= self.buf_depth;
        }
        idx * self.buf_depth + pos
    }

    /// The flit at the front of input VC `idx`, if it buffers any.
    #[inline]
    fn front(&self, idx: usize) -> Option<&Flit> {
        (self.ring_len[idx] > 0).then(|| &self.slots[usize::from(self.ring[self.ring_pos(idx, 0)])])
    }

    /// Removes and returns the handle at the front of non-empty input
    /// VC `idx`.
    #[inline]
    fn pop_front(&mut self, idx: usize) -> u16 {
        debug_assert!(self.ring_len[idx] > 0, "pop from an empty input VC");
        let h = self.ring[self.ring_pos(idx, 0)];
        let head = usize::from(self.ring_head[idx]) + 1;
        // `buf_depth` ≤ MAX_BUF_DEPTH, so a ring position fits u16.
        self.ring_head[idx] = if head == self.buf_depth {
            0
        } else {
            head as u16
        };
        self.ring_len[idx] -= 1;
        h
    }

    /// True when evaluating this router is a guaranteed no-op: no flit
    /// is buffered in any input VC or staged at any output. Held VC
    /// grants and credit counts are untouched by an empty evaluation,
    /// so a quiescent router may be skipped without affecting any
    /// later decision (see DESIGN.md §3.13).
    pub fn is_quiescent(&self) -> bool {
        self.in_flight == 0
    }

    /// Accepts a flit from an input channel (or the tile port).
    ///
    /// # Panics
    ///
    /// Panics if the per-VC buffer overflows — a credit-protocol
    /// violation that indicates a bug, not an operational condition.
    pub fn receive(&mut self, port: Port, mut flit: Flit) {
        if flit.kind.is_head() {
            resolve_route(&mut flit, port);
        }
        let vc = flit.link_vc.index();
        let idx = self.pv(port.index(), vc);
        let len = usize::from(self.ring_len[idx]);
        // INVARIANT: the credit protocol bounds in-flight flits per VC
        // by the buffer depth; overflow means a credit was forged.
        assert!(
            len < self.buf_depth,
            "router {}: input {port} vc{vc} buffer overflow",
            self.node
        );
        let h = self.alloc(flit);
        let pos = self.ring_pos(idx, len);
        self.ring[pos] = h;
        self.ring_len[idx] += 1;
        self.in_occupied |= 1 << idx;
        self.in_flight += 1;
    }

    /// Applies an arriving credit for output `port`, VC `vc`.
    pub fn credit_arrived(&mut self, port: Port, vc: VcId) {
        let idx = self.pv(port.index(), vc.index());
        self.out_credits[idx] += 1;
        // INVARIANT: credit conservation — credits in hand never
        // exceed the downstream buffer depth; each launch consumes one
        // and each drained slot returns exactly one.
        debug_assert!(
            self.out_credits[idx] <= self.out_max_credits[port.index()],
            "router {}: credit overflow on {port} {vc:?}",
            self.node
        );
    }

    /// Total flits buffered (input buffers + output staging), in O(1).
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.in_flight,
            self.walk_occupancy(),
            "router {}: in-flight count disagrees with the buffers",
            self.node
        );
        self.in_flight
    }

    /// Recounts the buffered flits from the input rings' lengths and
    /// the staging bits, without consulting the slab; `in_flight` must
    /// always equal it.
    fn walk_occupancy(&self) -> usize {
        let bufs: usize = self.ring_len.iter().map(|&n| usize::from(n)).sum();
        bufs + (self.staged.count_ones() + self.reserved_staged.count_ones()) as usize
    }

    /// Whether every occupancy-mask bit agrees with the input buffer or
    /// staging slot it stands for, no bit is set past the last one, and
    /// the slab is sound: every live handle (buffered or staged) is
    /// distinct, in range and off the free list, and the live count
    /// equals both the slab's used entries and `in_flight`.
    fn masks_consistent(&self) -> bool {
        let inputs = Port::COUNT * self.num_vcs;
        let bit = |mask: u64, i: usize| mask >> i & 1 == 1;
        let masks = (0..PV_SLOTS).all(|idx| {
            let len = usize::from(self.ring_len[idx]);
            let head = usize::from(self.ring_head[idx]);
            len <= self.buf_depth && head < self.buf_depth.max(1) && (idx < inputs || len == 0)
        }) && (0..inputs)
            .all(|idx| bit(self.in_occupied, idx) == (self.ring_len[idx] > 0))
            && self.in_occupied >> inputs == 0
            && (self.staged | self.reserved_staged) >> STAGE_SLOTS == 0;
        // 0 = unseen, 1 = live, 2 = free; any second sighting fails.
        let mut seen = vec![0u8; self.slots.len()];
        let mut mark = |h: u16, state: u8| {
            seen.get_mut(usize::from(h))
                .is_some_and(|s| std::mem::replace(s, state) == 0)
        };
        let buffered = (0..inputs).all(|idx| {
            (0..usize::from(self.ring_len[idx])).all(|k| mark(self.ring[self.ring_pos(idx, k)], 1))
        });
        let staged = (0..STAGE_SLOTS).all(|s| {
            (!bit(self.staged.into(), s) || mark(self.stage[s], 1))
                && (!bit(self.reserved_staged.into(), s) || mark(self.reserved_stage[s], 1))
        });
        let freed = self.free.iter().all(|&h| mark(h, 2));
        let live = seen.iter().filter(|&&s| s == 1).count();
        masks
            && buffered
            && staged
            && freed
            && live == self.slots.len() - self.free.len()
            && live == self.in_flight
    }

    /// Renders the router's internal state — per-VC buffer occupancy and
    /// held allocations, staging slots, output credits and owners — for
    /// congestion diagnosis.
    pub fn debug_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "router {}", self.node);
        for i in 0..Port::COUNT {
            let busy: Vec<String> = (0..self.num_vcs)
                .filter(|&v| {
                    let idx = self.pv(i, v);
                    self.ring_len[idx] > 0 || self.in_out_vc[idx].is_some()
                })
                .map(|v| {
                    let idx = self.pv(i, v);
                    format!(
                        "vc{v}:{}f->{}{}",
                        self.ring_len[idx],
                        self.in_out_port[idx].map_or("-".into(), |p| p.to_string()),
                        self.in_out_vc[idx].map_or(String::new(), |o| format!("/{o}"))
                    )
                })
                .collect();
            if !busy.is_empty() {
                let _ = writeln!(s, "  in {}: {}", Port::from_index(i), busy.join(" "));
            }
        }
        for o in 0..Port::COUNT {
            let banks = [
                (self.staged, &self.stage),
                (self.reserved_staged, &self.reserved_stage),
            ];
            let staged: Vec<String> = banks
                .iter()
                .flat_map(|&(bits, handles)| {
                    (0..Port::COUNT)
                        .filter(move |&i| bits >> Self::slot(o, i) & 1 == 1)
                        .map(move |i| (i, handles[Self::slot(o, i)]))
                })
                .map(|(i, h)| {
                    let f = &self.slots[usize::from(h)];
                    format!("i{i}:{}({})", f.meta.packet, f.link_vc)
                })
                .collect();
            let _ = writeln!(
                s,
                "  out {}: credits {:?} owners {:?} staged [{}]",
                Port::from_index(o),
                &self.out_credits[self.pv(o, 0)..self.pv(o, self.num_vcs)],
                self.out_owner[self.pv(o, 0)..self.pv(o, self.num_vcs)]
                    .iter()
                    .map(|w| w.map(|(i, v)| format!("i{i}v{v}")))
                    .collect::<Vec<_>>(),
                staged.join(" ")
            );
        }
        s
    }

    /// The VCs a packet may be allocated here: its route state's tier
    /// mask intersected with its own mask.
    fn effective_mask(&self, flit: &Flit) -> VcMask {
        let tier = self.tiers.mask(flit.meta.route_state.tier());
        flit.vc_mask.and(tier)
    }

    /// Debug cross-check of the static verifier's ordering invariant: a
    /// through grant may only land on a lower VC tier than the one the
    /// packet arrived on when the route turns onto the other axis —
    /// exactly the point where the router resets the dateline class.
    fn grant_is_monotone(
        &self,
        in_port: usize,
        out_port: usize,
        in_vc: VcId,
        out_vc: VcId,
    ) -> bool {
        let (Port::Dir(din), Port::Dir(dout)) =
            (Port::from_index(in_port), Port::from_index(out_port))
        else {
            // Injection starts the resource chain and ejection ends it;
            // neither is ordered against a network channel.
            return true;
        };
        if din.axis() != dout.axis() {
            return true;
        }
        let Some(front) = self.front(self.pv(in_port, in_vc.index())) else {
            return true;
        };
        let state = &front.meta.route_state;
        match (
            self.tiers.tier_holding(state, in_vc),
            self.tiers.tier_holding(state, out_vc),
        ) {
            (Some(from), Some(to)) => to >= from,
            _ => true,
        }
    }

    /// Evaluates one router cycle: VC allocation, switch traversal, and
    /// link arbitration (the first two proceed in parallel per the paper).
    /// Allocation grants/conflicts, credit stalls, and preemptions are
    /// reported to `probe`; the probe never influences any decision.
    pub fn evaluate(&mut self, env: &EvalEnv<'_>, out: &mut RouterOutput, probe: &mut dyn Probe) {
        self.load_routes();
        self.allocate_vcs(env.now, probe);
        self.traverse_switch(env.now, out, probe);
        self.arbitrate_links(env, out, probe);
        // INVARIANT: the masks are updated at every buffer and staging
        // mutation, so the phases above skip only empty entries.
        debug_assert!(
            self.masks_consistent(),
            "router {}: occupancy masks disagree with the buffers",
            self.node
        );
    }

    /// Latches the output-port decision for any packet whose head has
    /// reached the front of its VC buffer.
    fn load_routes(&mut self) {
        for idx in set_bits(self.in_occupied) {
            if self.in_out_port[idx].is_none() {
                if let Some(front) = self.front(idx) {
                    // INVARIANT: wormhole ordering — a VC with no
                    // held route sees a head flit first.
                    assert!(
                        front.kind.is_head(),
                        "router {}: body flit at head of an idle VC",
                        self.node
                    );
                    // INVARIANT: receive() resolves every head.
                    self.in_out_port[idx] =
                        Some(front.resolved_port.expect("head resolved at receive"));
                }
            }
        }
    }

    /// Grants free output VCs to waiting head flits, highest class first,
    /// round-robin among equals.
    fn allocate_vcs(&mut self, now: Cycle, probe: &mut dyn Probe) {
        // Persistent scratch: drained and refilled per output port,
        // returned to the router at the end so its capacity survives.
        let mut reqs = std::mem::take(&mut self.alloc_scratch);
        // Every occupied VC has a latched route by now; those without an
        // output VC are requesting one. File each under its output port.
        // A grant on one output never touches another output's
        // requesters, so one pass up front sees what a per-output scan
        // would.
        let mut waiting = [0u64; Port::COUNT];
        let port_vcs = (1u64 << self.num_vcs) - 1;
        for idx in set_bits(self.in_occupied) {
            if let (Some(op), None) = (self.in_out_port[idx], self.in_out_vc[idx]) {
                waiting[op.index()] |= 1 << idx;
            }
        }
        for (o, &requesters) in waiting.iter().enumerate() {
            if requesters == 0 {
                continue;
            }
            let port = Port::from_index(o);
            // Gather requests: (priority, input port, input vc, mask,
            // requesting packet), in ascending (port, VC) order.
            reqs.clear();
            for i in 0..Port::COUNT {
                for v in set_bits(requesters >> (i * self.num_vcs) & port_vcs) {
                    if let Some(front) = self.front(self.pv(i, v)) {
                        reqs.push((
                            front.meta.class.priority(),
                            i,
                            v,
                            self.effective_mask(front),
                            front.meta.packet,
                        ));
                    }
                }
            }
            // Rotate for fairness, then stable-sort by priority (desc).
            let rot = self.rr_alloc[o] % reqs.len();
            reqs.rotate_left(rot);
            reqs.sort_by_key(|r| std::cmp::Reverse(r.0));
            let mut granted_any = false;
            for &(_, i, v, mask, packet) in &reqs {
                let free = (0..self.num_vcs).find(|&ov| {
                    mask.allows(VcId::new(ov as u8)) && self.out_owner[self.pv(o, ov)].is_none()
                });
                if let Some(ov) = free {
                    // INVARIANT: VC allocation is exclusive — the scan
                    // above only yields unowned output VCs, and a
                    // requester holds no grant while it requests (it
                    // leaves the request set the cycle it is granted).
                    debug_assert!(
                        self.out_owner[self.pv(o, ov)].is_none(),
                        "router {}: output VC {ov} re-granted while held",
                        self.node
                    );
                    debug_assert!(
                        self.in_out_vc[self.pv(i, v)].is_none(),
                        "router {}: input {i} vc{v} granted a second output VC",
                        self.node
                    );
                    // INVARIANT: dateline monotonicity — through
                    // traffic only climbs VC tiers; a grant may fall to
                    // a lower tier only when the route turns onto the
                    // other axis, which is exactly when the router
                    // resets the dateline class. The static verifier
                    // (ocin-verify) proves deadlock freedom from this
                    // ordering, so a violation here would invalidate
                    // its certificate.
                    debug_assert!(
                        self.grant_is_monotone(i, o, VcId::new(v as u8), VcId::new(ov as u8)),
                        "router {}: non-monotone VC grant in {i} vc{v} -> out {port} vc{ov}",
                        self.node
                    );
                    let owner_idx = self.pv(o, ov);
                    let in_idx = self.pv(i, v);
                    self.out_owner[owner_idx] = Some((i as u8, v as u8));
                    self.in_out_vc[in_idx] = Some(VcId::new(ov as u8));
                    granted_any = true;
                    probe.record(
                        now,
                        Event::VcAllocated {
                            node: self.node,
                            port,
                            vc: VcId::new(ov as u8),
                            packet,
                        },
                    );
                } else {
                    let node = self.node;
                    probe.record(now, Event::AllocConflict { node, port, packet });
                }
            }
            if granted_any {
                self.rr_alloc[o] = self.rr_alloc[o].wrapping_add(1);
            }
        }
        self.alloc_scratch = reqs;
    }

    /// Forwards one flit per input port into the output staging buffers,
    /// returning a credit upstream for each freed input slot.
    ///
    /// The downstream-buffer credit is checked *and consumed here*: a
    /// flit only enters staging with its credit in hand, so staged flits
    /// never wait on buffer space — only on link bandwidth, which
    /// round-robin grants in bounded time. This keeps the shared staging
    /// slot from coupling virtual-channel classes (a credit-starved
    /// class-0 flit parked in staging would otherwise block the class-1
    /// escape VCs and reintroduce torus deadlock).
    fn traverse_switch(&mut self, now: Cycle, out: &mut RouterOutput, probe: &mut dyn Probe) {
        let num_vcs = self.num_vcs;
        let port_vcs = (1u64 << num_vcs) - 1;
        for i in 0..Port::COUNT {
            let occupied = self.in_occupied >> (i * num_vcs) & port_vcs;
            if occupied == 0 {
                continue;
            }
            // Round-robin order from the pointer: occupied VCs at or
            // above it, then those below.
            let rr = self.in_rr[i];
            let below = occupied & ((1 << rr) - 1);
            // Candidate VCs: flit at front, output VC held, staging slot
            // free, downstream credit available.
            let mut best: Option<(u8, usize)> = None;
            for v in set_bits(occupied ^ below).chain(set_bits(below)) {
                let idx = self.pv(i, v);
                let (Some(front), Some(op), Some(ovc)) =
                    (self.front(idx), self.in_out_port[idx], self.in_out_vc[idx])
                else {
                    continue;
                };
                if self.out_credits[self.pv(op.index(), ovc.index())] == 0 {
                    probe.record(
                        now,
                        Event::CreditStall {
                            node: self.node,
                            port: op,
                            vc: ovc,
                            packet: front.meta.packet,
                        },
                    );
                    continue;
                }
                let reserved = front.meta.class == crate::flit::ServiceClass::Reserved;
                let bank = if reserved {
                    self.reserved_staged
                } else {
                    self.staged
                };
                if bank >> Self::slot(op.index(), i) & 1 == 1 {
                    continue;
                }
                let pri = front.meta.class.priority();
                if best.is_none_or(|(bp, _)| pri > bp) {
                    best = Some((pri, v));
                }
            }
            let Some((_, v)) = best else { continue };
            let idx = self.pv(i, v);
            // INVARIANT: the candidate scan above admitted this VC only
            // with a buffered flit, a resolved output port, and an
            // allocated output VC in hand.
            let op = self.in_out_port[idx].expect("candidate has a port");
            let ovc = self.in_out_vc[idx].expect("candidate has a VC");
            let h = self.pop_front(idx);
            if self.ring_len[idx] == 0 {
                self.in_occupied &= !(1 << idx);
            }
            // The flit stays in its slab entry; only its handle moves to
            // the staging slot.
            let flit = &mut self.slots[usize::from(h)];
            flit.link_vc = ovc;
            let (kind, class, staged_packet) = (flit.kind, flit.meta.class, flit.meta.packet);
            if kind.is_tail() {
                self.in_out_port[idx] = None;
                self.in_out_vc[idx] = None;
            }
            let credit_idx = self.pv(op.index(), ovc.index());
            // INVARIANT: credit conservation — the candidate scan only
            // admits VCs with a credit in hand, so the decrement here
            // can never underflow (forging buffer space downstream).
            debug_assert!(
                self.out_credits[credit_idx] > 0,
                "router {}: launching into {op} without a credit",
                self.node
            );
            self.out_credits[credit_idx] -= 1;
            let slot = Self::slot(op.index(), i);
            if class == crate::flit::ServiceClass::Reserved {
                self.reserved_stage[slot] = h;
                self.reserved_staged |= 1 << slot;
            } else {
                self.stage[slot] = h;
                self.staged |= 1 << slot;
            }
            probe.record(
                now,
                Event::SwitchTraversed {
                    node: self.node,
                    port: op,
                    vc: ovc,
                    packet: staged_packet,
                },
            );
            out.credits.push((Port::from_index(i), VcId::new(v as u8)));
            self.in_rr[i] = (v + 1) % num_vcs;
        }
    }

    /// Staged flits with downstream credit arbitrate for each link; a
    /// reserved slot hands the link to its flow's flit without
    /// arbitration.
    fn arbitrate_links(
        &mut self,
        env: &EvalEnv<'_>,
        out: &mut RouterOutput,
        probe: &mut dyn Probe,
    ) {
        // Persistent scratch: drained and refilled per output port,
        // returned to the router at the end so its capacity survives.
        let mut candidates = std::mem::take(&mut self.link_scratch);
        for o in 0..Port::COUNT {
            // Inputs with a flit staged for this output, in either bank.
            let row =
                (self.staged | self.reserved_staged) >> Self::slot(o, 0) & ((1 << Port::COUNT) - 1);
            if row == 0 {
                continue;
            }
            let port = Port::from_index(o);
            // A serialized (narrow) link is occupied for `phits` cycles
            // per flit.
            if env.now < self.busy_until[o] {
                continue;
            }
            // (priority, input idx, from the reserved staging bank,
            // staged packet). Staged flits already hold their downstream
            // credit, so every one is a launch candidate.
            candidates.clear();
            for i in set_bits(row.into()) {
                let slot = Self::slot(o, i);
                for (bits, handles, reserved) in [
                    (self.staged, &self.stage, false),
                    (self.reserved_staged, &self.reserved_stage, true),
                ] {
                    if bits >> slot & 1 == 1 {
                        let f = &self.slots[usize::from(handles[slot])];
                        candidates.push((f.meta.class.priority(), i, reserved, f.meta.packet));
                    }
                }
            }
            // Reserved slots bypass arbitration entirely (paper §2.6).
            let mut winner: Option<(usize, bool)> = None;
            if let (Some((table, policy)), Port::Dir(d)) = (env.reservations, port) {
                if let Some(flow) = table.reserved_flow(self.node, d, env.now) {
                    winner = candidates
                        .iter()
                        .filter(|&&(_, _, reserved, _)| reserved)
                        .map(|&(_, i, r, _)| (i, r))
                        .find(|&(i, _)| {
                            let h = self.reserved_stage[Self::slot(o, i)];
                            self.slots[usize::from(h)].meta.flow == Some(flow)
                        });
                    if winner.is_none() && policy == ReservationPolicy::Strict {
                        // The slot's owner is absent and the slot may not
                        // be reused: the link idles this cycle.
                        continue;
                    }
                }
            }
            // Highest priority wins; ties go to the earliest candidate
            // in rotated round-robin order. Allocation-free equivalent
            // of rotating a copy and stable-sorting by priority.
            let (winner, from_reserved) = winner.unwrap_or_else(|| {
                let rot = self.rr_link[o] % candidates.len();
                let mut best: Option<(u8, usize)> = None;
                for j in 0..candidates.len() {
                    let pri = candidates[(rot + j) % candidates.len()].0;
                    if best.is_none_or(|(bp, _)| pri > bp) {
                        best = Some((pri, j));
                    }
                }
                // INVARIANT: the staging row was checked non-empty above
                // and its bits name only occupied slots, so the
                // candidate set is non-empty and a best entry exists.
                let (_, j) = best.expect("non-empty candidate set");
                let (_, i, reserved, _) = candidates[(rot + j) % candidates.len()];
                (i, reserved)
            });
            let slot = Self::slot(o, winner);
            // The winner was drawn from the candidate list, which only
            // names slots whose bank bit is set, so the handle is live.
            let h = if from_reserved {
                self.reserved_staged &= !(1 << slot);
                self.reserved_stage[slot]
            } else {
                self.staged &= !(1 << slot);
                self.stage[slot]
            };
            let flit = self.release(h);
            // A lower-class flit left staged while a higher-class one took
            // the link is the paper's §2.2 preemption in action; report
            // each suspended flit so the stall is attributable per packet.
            for &(pri, _, _, packet) in &candidates {
                if pri < flit.meta.class.priority() {
                    let node = self.node;
                    probe.record(env.now, Event::Preemption { node, port, packet });
                }
            }
            if flit.kind.is_tail() {
                let owner_idx = self.pv(o, flit.link_vc.index());
                // INVARIANT: a tail releases a VC its head was granted;
                // the grant stays held until this release, so the owner
                // entry must still be present.
                debug_assert!(
                    self.out_owner[owner_idx].is_some(),
                    "router {}: tail releasing unowned VC on {port}",
                    self.node
                );
                self.out_owner[owner_idx] = None;
            }
            self.busy_until[o] = env.now + self.phits;
            self.rr_link[o] = self.rr_link[o].wrapping_add(1);
            out.launches.push((port, flit));
            // INVARIANT: `in_flight` counts exactly the flits held in
            // buffers and staging; a launch removes one from staging.
            self.in_flight -= 1;
        }
        self.link_scratch = candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VcPlan;
    use crate::expand::RouteState;
    use crate::flit::{FlitKind, ServiceClass};
    use crate::ids::Direction;
    use crate::probe::NoProbe;
    use crate::router::tests::test_flit;
    use crate::topology::{FoldedTorus2D, Topology};

    fn paper_tiers() -> TierTable {
        TierTable::new(&VcPlan::paper_baseline(), true)
    }

    fn router() -> VcRouter {
        VcRouter::new(NodeId::new(0), 8, paper_tiers(), 4, 64, 1)
    }

    fn env_at<'a>(topo: &'a dyn Topology, now: u64) -> EvalEnv<'a> {
        EvalEnv {
            now,
            reservations: None,
            topo,
        }
    }

    fn env<'a>(topo: &'a dyn Topology) -> EvalEnv<'a> {
        env_at(topo, 0)
    }

    fn eval(r: &mut VcRouter, env: &EvalEnv<'_>) -> RouterOutput {
        let mut out = RouterOutput::default();
        r.evaluate(env, &mut out, &mut NoProbe);
        out
    }

    #[test]
    fn single_flit_traverses_in_one_evaluation() {
        let topo = FoldedTorus2D::new(4);
        let mut r = router();
        let f = test_flit(FlitKind::HeadTail, &[Direction::East, Direction::East]);
        r.receive(Port::Tile, f);
        assert!(!r.is_quiescent());
        let out = eval(&mut r, &env(&topo));
        assert_eq!(out.launches.len(), 1);
        let (port, f) = &out.launches[0];
        assert_eq!(*port, Port::Dir(Direction::East));
        // Credit returned for the tile input slot.
        let credits: Vec<_> = out.credits.iter().copied().collect();
        assert_eq!(credits, vec![(Port::Tile, VcId::new(0))]);
        // The launched flit holds a bulk class-0 VC (0 or 1).
        assert!(f.link_vc.index() < 2);
        assert_eq!(r.occupancy(), 0);
        assert!(r.is_quiescent());
    }

    #[test]
    fn extract_goes_to_tile_port() {
        let topo = FoldedTorus2D::new(4);
        let mut r = router();
        let mut f = test_flit(FlitKind::HeadTail, &[Direction::East]);
        // Simulate prior hop: strip the absolute entry.
        super::super::resolve_route(&mut f, Port::Tile);
        f.resolved_port = None;
        r.receive(Port::Dir(Direction::West), f);
        let out = eval(&mut r, &env(&topo));
        assert_eq!(out.launches.len(), 1);
        assert_eq!(out.launches[0].0, Port::Tile);
    }

    #[test]
    fn credits_gate_the_link() {
        let topo = FoldedTorus2D::new(4);
        let mut r = VcRouter::new(NodeId::new(0), 8, paper_tiers(), 1, 64, 1);
        // Two single-flit packets for the same output; depth-1 downstream.
        let f1 = test_flit(FlitKind::HeadTail, &[Direction::East]);
        let mut f2 = test_flit(FlitKind::HeadTail, &[Direction::East]);
        f2.meta.packet = crate::ids::PacketId(2);
        f2.link_vc = VcId::new(1);
        r.receive(Port::Tile, f1);
        r.receive(Port::Tile, f2);
        let out = eval(&mut r, &env_at(&topo, 0));
        // Both may stage over two cycles, but only vc-credit-backed flits
        // launch. Baseline plan gives bulk class0 = {vc0, vc1}; depth 1
        // each, so two launches are possible across cycles but at most
        // one flit per cycle leaves the single East link.
        assert_eq!(out.launches.len(), 1);
        let out2 = eval(&mut r, &env_at(&topo, 1));
        assert_eq!(out2.launches.len(), 1);
        // Now both downstream VCs are out of credits.
        let f3 = {
            let mut f = test_flit(FlitKind::HeadTail, &[Direction::East]);
            f.meta.packet = crate::ids::PacketId(3);
            f
        };
        r.receive(Port::Tile, f3);
        let out3 = eval(&mut r, &env_at(&topo, 2));
        assert_eq!(out3.launches.len(), 0, "no credits, no launch");
        // The flit is still in flight, so the router must stay awake.
        assert!(!r.is_quiescent());
        // A credit arrives; the flit moves.
        r.credit_arrived(Port::Dir(Direction::East), VcId::new(0));
        let out4 = eval(&mut r, &env_at(&topo, 3));
        assert_eq!(out4.launches.len(), 1);
    }

    #[test]
    fn priority_flit_wins_the_link() {
        let topo = FoldedTorus2D::new(4);
        let mut r = router();
        let mut bulk = test_flit(FlitKind::HeadTail, &[Direction::North]);
        bulk.meta.packet = crate::ids::PacketId(10);
        let mut pri = test_flit(FlitKind::HeadTail, &[Direction::North]);
        pri.meta.packet = crate::ids::PacketId(11);
        pri.meta.class = ServiceClass::Priority;
        pri.meta.route_state = RouteState::at_injection(ServiceClass::Priority, 0);
        pri.link_vc = VcId::new(4);
        // Arrive on different inputs, same output.
        r.receive(Port::Tile, bulk);
        r.receive(Port::Dir(Direction::South), {
            let mut f = pri;
            super::super::resolve_route(&mut f, Port::Tile); // consume absolute entry
            f.resolved_port = None;
            // Rebuild: pretend it still needs its turn; simpler to hand-
            // craft a straight-through route.
            f.route = crate::route::SourceRoute::compile(&[Direction::North, Direction::North])
                .unwrap()
                .strip_first_hop()
                .unwrap()
                .1;
            f
        });
        let out = eval(&mut r, &env(&topo));
        let north: Vec<_> = out
            .launches
            .iter()
            .filter(|(p, _)| *p == Port::Dir(Direction::North))
            .collect();
        assert_eq!(north.len(), 1);
        assert_eq!(north[0].1.meta.class, ServiceClass::Priority);
    }

    #[test]
    fn multi_flit_packet_streams_in_order() {
        let topo = FoldedTorus2D::new(4);
        let mut r = router();
        let route = [Direction::East, Direction::East];
        let mut flits = vec![
            test_flit(FlitKind::Head, &route),
            test_flit(FlitKind::Body, &route),
            test_flit(FlitKind::Tail, &route),
        ];
        for (i, f) in flits.iter_mut().enumerate() {
            f.meta.flit_index = i as u16;
            f.meta.packet_len = 3;
        }
        let mut launched = Vec::new();
        let mut pending = flits.into_iter().collect::<std::collections::VecDeque<_>>();
        for now in 0..10u64 {
            if let Some(f) = pending.pop_front() {
                r.receive(Port::Tile, f);
            }
            let mut out = eval(&mut r, &env_at(&topo, now));
            launched.extend(out.launches.drain());
        }
        assert_eq!(launched.len(), 3);
        let idxs: Vec<u16> = launched.iter().map(|(_, f)| f.meta.flit_index).collect();
        assert_eq!(idxs, vec![0, 1, 2]);
        // All flits rode the same output VC.
        let vcs: Vec<VcId> = launched.iter().map(|(_, f)| f.link_vc).collect();
        assert!(vcs.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(r.occupancy(), 0);
    }

    /// Counts credit stalls and ignores every other event.
    #[derive(Default)]
    struct StallCounter(u64);

    impl Probe for StallCounter {
        fn record(&mut self, _: Cycle, event: Event) {
            if matches!(event, Event::CreditStall { .. }) {
                self.0 += 1;
            }
        }
    }

    /// Flit `index` of the `len`-flit packet `packet` arriving on input
    /// `port`, VC `vc`. The class follows the paper plan's use of the VC
    /// (7 reserved, 4-5 priority, the rest bulk), and the route state's
    /// dateline class matches the VC's tier so straight-through grants
    /// stay monotone.
    /// Tile-port heads leave in a direction chosen by `vc`; network-port
    /// heads eject, go straight, or turn.
    fn packet_flit(port: Port, vc: usize, packet: u64, index: u16, len: u16) -> Flit {
        let kind = match (index, len) {
            (0, 1) => FlitKind::HeadTail,
            (0, _) => FlitKind::Head,
            (i, l) if i + 1 == l => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        let class = match vc {
            7 => ServiceClass::Reserved,
            4 | 5 => ServiceClass::Priority,
            _ => ServiceClass::Bulk,
        };
        let mut state = RouteState::at_injection(class, 0);
        let mut f = match port {
            Port::Tile => test_flit(kind, &[Direction::from_index(vc % 4)]),
            Port::Dir(from) => {
                let heading = from.opposite();
                let hops = match vc % 3 {
                    0 => vec![heading],
                    1 => vec![heading, heading],
                    _ => vec![heading, Direction::from_index((heading.index() + 1) % 4)],
                };
                let mut f = test_flit(kind, &hops);
                f.route = f.route.strip_first_hop().unwrap().1;
                state.take_hop(heading);
                f
            }
        };
        f.link_vc = VcId::new(vc as u8);
        f.meta.packet = PacketId(packet);
        f.meta.flit_index = index;
        f.meta.packet_len = len;
        f.meta.class = class;
        state.delivered_over(matches!(vc, 2 | 3 | 5));
        f.meta.route_state = state;
        f
    }

    #[test]
    fn masks_track_every_buffer_until_the_router_drains() {
        let topo = FoldedTorus2D::new(4);
        // Two ejection credits and a three-cycle credit return keep the
        // outputs credit-starved for most of the run; two-phit links
        // leave flits waiting in both staging banks.
        let mut r = VcRouter::new(NodeId::new(0), 8, paper_tiers(), 4, 2, 2);
        // Every (port, VC) gets a 3-flit packet and then a 1-flit one,
        // filling its 4-flit buffer.
        let mut next_index = std::collections::BTreeMap::new();
        let mut remaining = 0;
        for p in 0..Port::COUNT {
            for vc in 0..8 {
                let base = 2 * (p * 8 + vc) as u64;
                for (packet, len) in [(base, 3), (base + 1, 1)] {
                    for index in 0..len {
                        r.receive(
                            Port::from_index(p),
                            packet_flit(Port::from_index(p), vc, packet, index, len),
                        );
                        remaining += 1;
                    }
                    next_index.insert(packet, 0u16);
                }
            }
        }
        assert_eq!(r.in_occupied, (1 << 40) - 1);
        assert!(r.masks_consistent());
        assert_eq!(r.occupancy(), remaining);
        let mut probe = StallCounter::default();
        let mut credits_due = std::collections::VecDeque::new();
        let (mut saw_bulk_bank, mut saw_reserved_bank) = (false, false);
        let mut now = 0;
        while remaining > 0 {
            assert!(
                now < 10_000,
                "router failed to drain:\n{}",
                r.debug_snapshot()
            );
            while credits_due.front().is_some_and(|&(due, _, _)| due <= now) {
                let (_, port, vc) = credits_due.pop_front().unwrap();
                r.credit_arrived(port, vc);
            }
            let mut out = RouterOutput::default();
            r.evaluate(&env_at(&topo, now), &mut out, &mut probe);
            for (port, f) in out.launches.drain() {
                let next = next_index.get_mut(&f.meta.packet.0).unwrap();
                assert_eq!(
                    f.meta.flit_index, *next,
                    "packet {} out of order",
                    f.meta.packet
                );
                *next += 1;
                credits_due.push_back((now + 3, port, f.link_vc));
                remaining -= 1;
            }
            saw_bulk_bank |= r.staged != 0;
            saw_reserved_bank |= r.reserved_staged != 0;
            assert!(r.masks_consistent(), "cycle {now}:\n{}", r.debug_snapshot());
            assert_eq!(r.occupancy(), remaining, "cycle {now}");
            assert_eq!(r.walk_occupancy(), remaining, "cycle {now}");
            now += 1;
        }
        assert!(next_index
            .iter()
            .all(|(&p, &n)| n == if p % 2 == 0 { 3 } else { 1 }));
        assert!(
            saw_bulk_bank && saw_reserved_bank,
            "both staging banks used"
        );
        assert!(probe.0 > 0, "credit stalls exercised");
        assert_eq!((r.in_occupied, r.staged, r.reserved_staged), (0, 0, 0));
        assert!(r.is_quiescent());
    }

    /// Evaluates `r` from cycle `now` until it holds no flit, returning
    /// every credit the instant its flit launches. After each cycle the
    /// slab must be sound and no larger than the peak occupancy seen.
    /// Returns the next cycle.
    fn drain(r: &mut VcRouter, topo: &dyn Topology, mut now: u64, peak: &mut usize) -> u64 {
        while !r.is_quiescent() {
            assert!(
                now < 10_000,
                "router failed to drain:\n{}",
                r.debug_snapshot()
            );
            let mut out = RouterOutput::default();
            r.evaluate(&env_at(topo, now), &mut out, &mut NoProbe);
            for (port, f) in out.launches.drain() {
                r.credit_arrived(port, f.link_vc);
            }
            assert!(r.masks_consistent(), "cycle {now}:\n{}", r.debug_snapshot());
            assert!(r.slots.len() <= *peak, "slab outgrew the peak occupancy");
            now += 1;
        }
        now
    }

    /// Delivers a `len`-flit packet to every input VC of `r`, checking
    /// the slab after each flit; returns the flits delivered.
    fn fill(r: &mut VcRouter, first_packet: u64, len: u16, peak: &mut usize) -> usize {
        let mut n = 0;
        for p in 0..Port::COUNT {
            for vc in 0..8 {
                let packet = first_packet + (p * 8 + vc) as u64;
                for index in 0..len {
                    let port = Port::from_index(p);
                    r.receive(port, packet_flit(port, vc, packet, index, len));
                    n += 1;
                    *peak = (*peak).max(r.in_flight);
                    assert!(r.masks_consistent());
                    assert!(r.slots.len() <= *peak, "slab outgrew the peak occupancy");
                }
            }
        }
        n
    }

    #[test]
    fn slab_grows_to_the_peak_and_reuses_freed_entries() {
        let topo = FoldedTorus2D::new(4);
        let mut r = router();
        let mut peak = 0;
        assert!(r.slots.is_empty(), "an idle router allocates no flits");
        // Fill one flit per input VC, then drain: every entry is freed.
        let n = fill(&mut r, 0, 1, &mut peak);
        assert_eq!((r.slots.len(), r.free.len()), (n, 0));
        let now = drain(&mut r, &topo, 0, &mut peak);
        assert_eq!((r.slots.len(), r.free.len()), (n, n));
        // Refill the same count: every flit lands in a freed entry, the
        // most recently freed first.
        let expect: Vec<u16> = r.free.iter().rev().copied().collect();
        fill(&mut r, 100, 1, &mut peak);
        assert_eq!((r.slots.len(), r.free.len()), (n, 0), "no growth on refill");
        let taken: Vec<u16> = (0..Port::COUNT * 8)
            .map(|idx| r.ring[r.ring_pos(idx, 0)])
            .collect();
        assert_eq!(taken, expect, "LIFO reuse in receive order");
        let now = drain(&mut r, &topo, now, &mut peak);
        // Three flits per VC raise the peak; the slab follows it exactly.
        let n3 = fill(&mut r, 200, 3, &mut peak);
        assert_eq!((peak, r.slots.len(), r.free.len()), (n3, n3, 0));
        drain(&mut r, &topo, now, &mut peak);
        assert_eq!(
            (r.slots.len(), r.free.len(), r.walk_occupancy()),
            (n3, n3, 0)
        );
    }

    #[test]
    #[should_panic(expected = "at most 1637 flits per VC buffer, got 1638")]
    fn a_buffer_too_deep_for_the_handles_is_rejected() {
        let _ = VcRouter::new(
            NodeId::new(0),
            8,
            paper_tiers(),
            VcRouter::MAX_BUF_DEPTH + 1,
            64,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "at most 8 VCs per port, got 9")]
    fn more_than_eight_vcs_is_rejected() {
        let _ = VcRouter::new(NodeId::new(0), 9, paper_tiers(), 4, 64, 1);
    }

    #[test]
    fn dateline_class_restricts_vc_choice() {
        let topo = FoldedTorus2D::new(4);
        let mut r = router();
        let mut f = test_flit(FlitKind::HeadTail, &[Direction::East]);
        f.meta.route_state.delivered_over(true); // has crossed a wrap link
        f.link_vc = VcId::new(2);
        r.receive(Port::Tile, f);
        let out = eval(&mut r, &env(&topo));
        assert_eq!(out.launches.len(), 1);
        // Bulk class-1 VCs are 2 and 3.
        let vc = out.launches[0].1.link_vc.index();
        assert!(vc == 2 || vc == 3, "got vc{vc}");
    }
}
