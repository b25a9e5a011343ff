//! §2.5: fault-tolerant wiring and protocols.
//!
//! "A spare bit can be provided on each network link ... Bit steering
//! logic then shifts all bits starting at this location up one position
//! to route around the faulty bit. ... modules that required transient
//! fault tolerance could employ end-to-end checking with retry."

use ocin_bench::{banner, check, command_line, finish, EXPERIMENT};
use ocin_core::fault::{FaultKind, LinkFault};
use ocin_core::flit::Payload;
use ocin_core::ids::NodeId;
use ocin_core::{Network, NetworkConfig, PacketSpec};
use ocin_services::{ReliableReceiver, ReliableSender, RetryConfig};
use ocin_sim::Table;

/// Sends a known payload across every ordered pair; returns
/// (delivered, corrupted).
fn all_pairs_census(net: &mut Network) -> (usize, usize) {
    let n = net.topology().num_nodes() as u16;
    let mut sent = Vec::new();
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            // Bit 31 low (exposes the stuck-at-1 on wire 31) and bit 47
            // high (exposes the stuck-at-0 that spills past the spare).
            let payload =
                Payload::from_u64((1u64 << 47) | 0x5A5A_0000 | ((s as u64) << 8) | d as u64);
            let id = net
                .inject(&PacketSpec::new(s.into(), d.into()).data(vec![payload]))
                .expect("baseline accepts all-pairs");
            sent.push((id, d, payload));
        }
    }
    assert!(net.drain(20_000), "network must drain");
    let mut delivered = 0;
    let mut corrupted = 0;
    for d in 0..n {
        for pkt in net.drain_delivered(d.into()) {
            delivered += 1;
            let expect = sent
                .iter()
                .find(|(id, _, _)| *id == pkt.id)
                .map(|(_, _, p)| *p)
                .expect("known packet");
            if pkt.corrupted || pkt.payloads[0] != expect {
                corrupted += 1;
            }
        }
    }
    (delivered, corrupted)
}

fn faulty_network(faults_per_link: usize, steering: bool) -> Network {
    let mut net = Network::new(NetworkConfig::paper_baseline()).expect("valid");
    let channels = net.topology().channels();
    for (node, dir) in channels {
        for f in 0..faults_per_link {
            net.inject_link_fault(
                node,
                dir,
                LinkFault {
                    wire: 31 + 17 * f,
                    kind: if f % 2 == 0 {
                        FaultKind::StuckAtOne
                    } else {
                        FaultKind::StuckAtZero
                    },
                },
            )
            .expect("channel exists");
        }
    }
    net.set_steering(steering);
    net
}

fn main() {
    command_line(EXPERIMENT);
    banner(
        "exp_fault",
        "§2.5",
        "spare-bit steering masks single wire faults; end-to-end check+retry recovers the rest",
    );

    let mut t = Table::new(&["scenario", "delivered", "corrupted", "verdict"]);
    let mut results = Vec::new();
    for (name, faults, steering) in [
        ("healthy", 0usize, true),
        ("1 fault/link, steering ON", 1, true),
        ("1 fault/link, steering OFF", 1, false),
        ("2 faults/link, steering ON (1 spare)", 2, true),
    ] {
        let mut net = faulty_network(faults, steering);
        let (delivered, corrupted) = all_pairs_census(&mut net);
        results.push((name, delivered, corrupted));
        t.row(&[
            name.into(),
            delivered.to_string(),
            corrupted.to_string(),
            if corrupted == 0 { "intact" } else { "corrupt" }.to_string(),
        ]);
    }
    println!("\n{t}");
    check(results[0].2 == 0, "healthy links deliver intact");
    check(
        results[1].2 == 0,
        "one stuck-at per link is fully masked by the spare + steering",
    );
    check(
        results[2].2 > 0,
        "without steering the same fault corrupts traffic (the chip would be dead)",
    );
    check(
        results[3].2 > 0,
        "faults beyond the spare budget corrupt (motivates multiple spares / ECC)",
    );

    // End-to-end retry over transient (soft) faults — the §2.5 fallback
    // for upsets that steering cannot fuse out.
    println!("\nend-to-end check + retry under transient bit upsets (10% per link traversal):\n");
    let mut net = Network::new(NetworkConfig::paper_baseline()).expect("valid");
    net.set_transient_fault_rate(0.10);
    let src = NodeId::new(0);
    let dst = NodeId::new(1);
    let mut tx = ReliableSender::new(
        dst,
        0,
        RetryConfig {
            timeout: 64,
            window: 4,
            max_attempts: 0,
        },
    );
    let mut rx = ReliableReceiver::new(src, 0);
    for i in 0..20u64 {
        tx.send(vec![0xD00D_0000 + i, i]);
    }
    let mut received: Vec<Vec<u64>> = Vec::new();
    for now in 0..30_000u64 {
        for msg in tx.poll(now) {
            let _ = net.inject(
                &PacketSpec::new(src, msg.dst)
                    .payload_bits(msg.payload_bits)
                    .class(msg.class)
                    .data(msg.payloads),
            );
        }
        net.step();
        for pkt in net.drain_delivered(dst) {
            if let Some(ack) = rx.on_packet(&pkt) {
                let _ = net.inject(
                    &PacketSpec::new(dst, ack.dst)
                        .payload_bits(ack.payload_bits)
                        .class(ack.class)
                        .data(ack.payloads),
                );
            }
        }
        for pkt in net.drain_delivered(src) {
            tx.on_packet(&pkt);
        }
        received.extend(rx.drain());
        if received.len() == 20 && tx.pending() == 0 {
            break;
        }
    }
    println!(
        "datagrams delivered exactly once: {}/20  (crc failures seen: {}, retransmissions: {})",
        received.len(),
        rx.crc_failures,
        tx.retransmissions
    );
    check(
        received.len() == 20,
        "retry recovers every datagram exactly once",
    );
    let mut seen: Vec<u64> = received.iter().map(|d| d[1]).collect();
    seen.sort_unstable();
    check(
        seen == (0..20).collect::<Vec<u64>>(),
        "all 20 payloads arrive intact (window allows arrival reordering)",
    );

    // The paper's other option: link-level error correction, "with the
    // cost of additional delay". SEC-DED repairs each single upset at
    // the receiving router; plain links deliver corrupt payloads.
    println!("\nlink-level SEC-DED vs unprotected links under 2% transient upsets:\n");
    let mut t = Table::new(&[
        "link protection",
        "delivered",
        "corrupt deliveries",
        "ecc corrections",
        "2-hop latency (cycles)",
    ]);
    let mut rows = Vec::new();
    for protection in [
        ocin_core::LinkProtection::None,
        ocin_core::LinkProtection::Secded,
    ] {
        let cfg = NetworkConfig::paper_baseline().with_link_protection(protection);
        let mut net = Network::new(cfg).expect("valid");
        net.set_transient_fault_rate(0.02);
        let data = vec![Payload::from_u64(0x00DD_BA11)];
        for _ in 0..300 {
            net.inject(&PacketSpec::new(0.into(), 2.into()).data(data.clone()))
                .ok();
            net.run(4);
        }
        net.drain(5_000);
        let mut delivered = 0;
        let mut corrupt = 0;
        let mut latency = 0;
        for pkt in net.drain_delivered(2.into()) {
            delivered += 1;
            latency = pkt.network_latency();
            if pkt.corrupted || pkt.payloads[0] != data[0] {
                corrupt += 1;
            }
        }
        let s = net.stats();
        rows.push((protection, corrupt, s.ecc_corrections));
        t.row(&[
            format!("{protection:?}"),
            delivered.to_string(),
            corrupt.to_string(),
            s.ecc_corrections.to_string(),
            latency.to_string(),
        ]);
    }
    println!("{t}");
    check(rows[0].1 > 0, "unprotected links deliver corrupt payloads");
    check(
        rows[1].1 == 0 && rows[1].2 > 0,
        "SEC-DED repairs every single-bit upset (at +1 cycle per hop)",
    );
    finish();
}
