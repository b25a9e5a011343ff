//! §2.1: priority preemption at the tile port.
//!
//! "The injection of a long, low priority packet may be interrupted to
//! inject a short, high-priority packet and then resumed."
//!
//! Tile 0 streams long bulk packets; a short packet is injected
//! mid-stream, once as bulk (control) and once as priority class. The
//! priority packet overtakes the bulk stream at the injection port and
//! at every arbitration point.

use ocin_bench::{banner, check, command_line, f1, finish, EXPERIMENT};
use ocin_core::flit::ServiceClass;
use ocin_core::{Network, NetworkConfig, PacketSpec};
use ocin_sim::Table;

/// Streams 8-flit bulk packets 0 -> 2 and injects one probe packet of
/// `probe_class` mid-stream; returns the probe's network latency.
fn probe_latency(probe_class: ServiceClass) -> u64 {
    let mut net = Network::new(NetworkConfig::paper_baseline()).expect("valid");
    // Saturate the injection port with 6 long bulk packets (48 flits).
    for _ in 0..6 {
        net.inject(
            &PacketSpec::new(0.into(), 2.into())
                .payload_bits(8 * 256)
                .class(ServiceClass::Bulk),
        )
        .expect("queued");
    }
    net.run(4); // the bulk stream is mid-injection
    let probe = net
        .inject(
            &PacketSpec::new(0.into(), 2.into())
                .payload_bits(64)
                .class(probe_class),
        )
        .expect("probe queued");
    for _ in 0..2_000 {
        net.step();
        for p in net.drain_delivered(2.into()) {
            if p.id == probe {
                // Total latency includes the injection-queue wait — the
                // very thing preemption removes.
                return p.total_latency();
            }
        }
    }
    panic!("probe never delivered");
}

fn main() {
    command_line(EXPERIMENT);
    banner(
        "exp_preemption",
        "§2.1",
        "a short high-priority packet interrupts a long low-priority injection",
    );

    let bulk = probe_latency(ServiceClass::Bulk);
    let pri = probe_latency(ServiceClass::Priority);

    let mut t = Table::new(&["probe class", "probe latency (cycles)"]);
    t.row(&["bulk (waits behind the stream)".into(), bulk.to_string()]);
    t.row(&["priority (preempts per §2.1)".into(), pri.to_string()]);
    println!("\n{t}");
    println!("speedup from preemption: {}x", f1(bulk as f64 / pri as f64));
    check(
        pri < bulk / 2,
        "priority probe at least 2x faster than bulk probe",
    );
    check(pri <= 16, "priority probe sees near-zero-load latency");
    finish();
}
