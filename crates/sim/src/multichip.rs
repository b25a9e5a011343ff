//! Multi-chip systems: two on-chip networks bridged by gateway tiles
//! over a serial off-chip link (paper §1's "gateways to networks on
//! other chips").
//!
//! The off-chip link is the scarce resource the paper contrasts with
//! on-chip wiring: package pins limit it to a narrow channel, so each
//! 256-bit datagram is serialized over `serialization` cycles and flies
//! for `latency` cycles of board time.
//!
//! Each [`MultiChipSim::step`] steps both chips in turn on the calling
//! thread; [`MultiChipSim::run`] is that step repeated.

use std::collections::VecDeque;

use ocin_core::ids::{Cycle, NodeId};
use ocin_core::network::{Network, PacketSpec};
use ocin_core::{Error, NetworkConfig};
use ocin_services::gateway::{decapsulate, encapsulate, GatewayDatagram, GatewayEndpoint};
use ocin_services::{GlobalAddress, Message};

/// A delivered inter-chip datagram with its timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDelivery {
    /// The datagram.
    pub dgram: GatewayDatagram,
    /// Cycle it was offered at the source tile.
    pub sent_at: Cycle,
    /// Cycle it arrived at the final tile.
    pub delivered_at: Cycle,
}

/// The serial link between two gateways.
#[derive(Debug)]
struct OffChipLink {
    /// Cycles per datagram (serialization over the narrow pin channel).
    serialization: u64,
    /// Flight latency, cycles.
    latency: u64,
    /// In-flight datagrams: (arrival cycle, direction a->b?, datagram).
    in_flight: VecDeque<(Cycle, bool, GatewayDatagram)>,
    /// Next cycle the link may accept a datagram, per direction.
    free_at: [Cycle; 2],
    /// Datagrams carried.
    pub carried: u64,
}

/// Two chips, two gateways, one off-chip link.
pub struct MultiChipSim {
    chips: [Network; 2],
    gateways: [GatewayEndpoint; 2],
    link: OffChipLink,
    cycle: Cycle,
    /// Sends awaiting injection at their source tile.
    pending: Vec<(GlobalAddress, GatewayDatagram, Cycle)>,
    delivered: Vec<GlobalDelivery>,
    sent_at: Vec<(GatewayDatagram, Cycle)>,
}

impl MultiChipSim {
    /// Builds two identical chips whose gateways sit at `gateway_node`,
    /// joined by a link that serializes one datagram per
    /// `serialization` cycles with `latency` cycles of flight time.
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors.
    pub fn new(
        cfg: NetworkConfig,
        gateway_node: NodeId,
        serialization: u64,
        latency: u64,
    ) -> Result<MultiChipSim, Error> {
        Ok(MultiChipSim {
            chips: [Network::new(cfg.clone())?, Network::new(cfg)?],
            gateways: [
                GatewayEndpoint::new(0, gateway_node),
                GatewayEndpoint::new(1, gateway_node),
            ],
            link: OffChipLink {
                serialization: serialization.max(1),
                latency,
                in_flight: VecDeque::new(),
                free_at: [0, 0],
                carried: 0,
            },
            cycle: 0,
            pending: Vec::new(),
            delivered: Vec::new(),
            sent_at: Vec::new(),
        })
    }

    /// Access a chip's network.
    pub fn chip(&self, chip: u8) -> &Network {
        &self.chips[chip as usize]
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Datagrams the off-chip link carried.
    pub fn link_carried(&self) -> u64 {
        self.link.carried
    }

    /// Queues a global send of up to 4 words.
    pub fn send(&mut self, src: GlobalAddress, dst: GlobalAddress, words: Vec<u64>) {
        let dgram = GatewayDatagram { src, dst, words };
        self.pending.push((src, dgram, self.cycle));
    }

    /// Drains completed global deliveries.
    pub fn drain_delivered(&mut self) -> Vec<GlobalDelivery> {
        std::mem::take(&mut self.delivered)
    }

    /// Runs `cycles` steps.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Advances the whole system one cycle: gateway injections, chip
    /// stepping, delivery pickup, and the off-chip link.
    pub fn step(&mut self) {
        let now = self.cycle;
        // Inject pending global sends at their source tiles (local
        // destinations shortcut straight to the network; remote ones go
        // via the gateway tile).
        for (src, dgram, created) in std::mem::take(&mut self.pending) {
            let chip = src.chip as usize;
            let mut msg = encapsulate(self.gateways[chip].node, &dgram);
            if dgram.dst.chip == src.chip {
                // Local delivery needs no gateway.
                msg.dst = dgram.dst.node;
            }
            if self.chips[chip].inject(&spec_of(src.node, &msg)).is_ok() {
                self.sent_at.push((dgram, created));
            } else {
                self.pending.push((src, dgram, created));
            }
        }

        // Step both chips; gateways pick up deliveries at their tiles and
        // final tiles complete global sends.
        for (c, chip) in self.chips.iter_mut().enumerate() {
            chip.step();
            let gateway = &mut self.gateways[c];
            for node in 0..chip.topology().num_nodes() as u16 {
                for pkt in chip.drain_delivered(node.into()) {
                    // At the gateway tile, only datagrams bound for
                    // *another* chip are forwarded; a datagram whose final
                    // destination is the gateway tile itself is an
                    // ordinary delivery.
                    if pkt.dst == gateway.node
                        && decapsulate(&pkt).is_some_and(|d| d.dst.chip != c as u8)
                        && gateway.on_packet(&pkt)
                    {
                        continue;
                    }
                    if let Some(dgram) = decapsulate(&pkt) {
                        complete(&mut self.sent_at, &mut self.delivered, dgram, now);
                    }
                }
            }
        }

        // Off-chip link: accept one datagram per direction when free.
        let link = &mut self.link;
        for (c, gateway) in self.gateways.iter_mut().enumerate() {
            if now >= link.free_at[c] {
                if let Some(dgram) = gateway.next_outbound() {
                    link.free_at[c] = now + link.serialization;
                    link.in_flight.push_back((
                        now + link.serialization + link.latency,
                        c == 0,
                        dgram,
                    ));
                    link.carried += 1;
                }
            }
        }
        // Arrivals re-inject on the far chip, which has already stepped
        // to `now + 1`.
        while let Some(&(t, a_to_b, _)) = link.in_flight.front() {
            if t > now {
                break;
            }
            let (_, _, dgram) = link.in_flight.pop_front().expect("front");
            let dest_chip = usize::from(a_to_b);
            let gateway = &mut self.gateways[dest_chip];
            if dgram.dst.chip as usize == dest_chip && dgram.dst.node == gateway.node {
                // Addressed to the gateway tile itself: it has arrived.
                gateway.reinjected += 1;
                complete(&mut self.sent_at, &mut self.delivered, dgram, now);
                continue;
            }
            let msg = gateway.on_arrival(&dgram);
            let spec = spec_of(gateway.node, &msg);
            if self.chips[dest_chip].inject(&spec).is_err() {
                // Tile port is briefly full: retry next cycle.
                link.in_flight.push_front((t + 1, a_to_b, dgram));
                break;
            }
        }
        self.cycle = now + 1;
    }
}

/// Builds the tile-port packet for a gateway message.
fn spec_of(src: NodeId, msg: &Message) -> PacketSpec {
    PacketSpec::new(src, msg.dst)
        .payload_bits(msg.payload_bits)
        .class(msg.class)
        .data(msg.payloads.clone())
}

/// Records `dgram` as delivered at `now`, sent when [`MultiChipSim::step`]
/// injected it (at `now` if it never was).
fn complete(
    sent_at: &mut Vec<(GatewayDatagram, Cycle)>,
    delivered: &mut Vec<GlobalDelivery>,
    dgram: GatewayDatagram,
    now: Cycle,
) {
    let sent = sent_at
        .iter()
        .position(|(d, _)| *d == dgram)
        .map_or(now, |i| sent_at.remove(i).1);
    delivered.push(GlobalDelivery {
        dgram,
        sent_at: sent,
        delivered_at: now,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> MultiChipSim {
        MultiChipSim::new(NetworkConfig::paper_baseline(), NodeId::new(3), 4, 10).unwrap()
    }

    fn addr(chip: u8, node: u16) -> GlobalAddress {
        GlobalAddress::new(chip, node.into())
    }

    #[test]
    fn cross_chip_datagram_arrives() {
        let mut sys = system();
        sys.send(addr(0, 0), addr(1, 10), vec![0xCAFE, 0xF00D]);
        sys.run(200);
        let got = sys.drain_delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].dgram.dst, addr(1, 10));
        assert_eq!(got[0].dgram.words, vec![0xCAFE, 0xF00D]);
        assert_eq!(sys.link_carried(), 1);
        // Crossing chips costs two on-chip traversals plus the link.
        assert!(got[0].delivered_at - got[0].sent_at >= 14);
    }

    #[test]
    fn both_directions_work_concurrently() {
        let mut sys = system();
        sys.send(addr(0, 1), addr(1, 14), vec![1]);
        sys.send(addr(1, 2), addr(0, 12), vec![2]);
        sys.run(300);
        let got = sys.drain_delivered();
        assert_eq!(got.len(), 2);
        assert_eq!(sys.link_carried(), 2);
    }

    #[test]
    fn local_sends_skip_the_gateway() {
        let mut sys = system();
        sys.send(addr(0, 0), addr(0, 9), vec![7]);
        sys.run(100);
        let got = sys.drain_delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(sys.link_carried(), 0);
    }

    #[test]
    fn link_serialization_limits_cross_chip_bandwidth() {
        let mut sys = system(); // 4 cycles per datagram
        for i in 0..20u64 {
            sys.send(
                addr(0, (i % 3) as u16),
                addr(1, 8 + (i % 4) as u16),
                vec![i],
            );
        }
        sys.run(30);
        // In 30 cycles the link can carry at most ~30/4 datagrams.
        assert!(sys.link_carried() <= 8, "carried {}", sys.link_carried());
        sys.run(300);
        assert_eq!(sys.drain_delivered().len(), 20, "but all eventually arrive");
    }
}
