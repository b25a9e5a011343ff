//! §2.2: logical wires layered on the datagram interface.
//!
//! An 8-bit bundle on tile 0 is logically connected to tile 5; every
//! state change travels as a single-flit priority packet. The paper
//! argues "the latency of transporting the state of wires in this manner
//! can be made competitive with dedicated wires" once low-swing velocity
//! and pre-scheduling are accounted for.

use ocin_bench::{banner, check, command_line, f1, finish, sim_config, EXPERIMENT};
use ocin_core::ids::NodeId;
use ocin_core::{Error, Network, NetworkConfig, PacketSpec};
use ocin_phys::{SignalingScheme, Technology, WireModel};
use ocin_services::{LogicalWireRx, LogicalWireTx};
use ocin_sim::{Samples, Table};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};

/// Runs the logical wire under background load; returns (mean, p99, max)
/// update latency in cycles over `cycles` cycles.
fn run(load: f64, toggle_period: u64, cycles: u64) -> (f64, f64, f64) {
    let src = NodeId::new(0);
    let dst = NodeId::new(5);
    let mut net = Network::new(NetworkConfig::paper_baseline()).expect("valid");
    let mut tx = LogicalWireTx::new(dst, 0, 8);
    let mut rx = LogicalWireRx::new(0);
    let wl = Workload::new(16, 4, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: load });
    let mut generation = wl.generator(7);

    let mut state = 0u64;
    let mut sent_at: Vec<(u64, u64)> = Vec::new(); // (seq cycle, state)
    let mut lat = Samples::new();
    for now in 0..cycles {
        // Background traffic.
        for node in 0..16u16 {
            if let Some(req) = generation.next_request(now, node.into()) {
                if node != 0 || req.dst != dst {
                    let _ = net.inject(
                        &PacketSpec::new(node.into(), req.dst).payload_bits(req.payload_bits),
                    );
                }
            }
        }
        // Toggle the bundle.
        if now % toggle_period == 0 {
            state = (state + 1) & 0xFF;
            if let Some(msg) = tx.observe(state) {
                match net.inject(
                    &PacketSpec::new(src, msg.dst)
                        .payload_bits(msg.payload_bits)
                        .class(msg.class)
                        .data(msg.payloads),
                ) {
                    Ok(_) => sent_at.push((now, state)),
                    Err(Error::InjectionBackpressure { .. }) => {}
                    Err(e) => panic!("{e}"),
                }
            }
        }
        net.step();
        for pkt in net.drain_delivered(dst) {
            if rx.on_packet(&pkt, now) {
                if let Some(pos) = sent_at.iter().position(|&(_, s)| s == rx.state()) {
                    let (t0, _) = sent_at.remove(pos);
                    lat.push((now - t0) as f64);
                }
            }
        }
    }
    (lat.mean(), lat.percentile(99.0), lat.max())
}

fn main() {
    let args = command_line(EXPERIMENT);
    banner(
        "exp_logical_wire",
        "§2.2",
        "8-bit logical wire carried as single-flit packets; latency competitive with dedicated wires",
    );

    let loads: &[f64] = if args.quick {
        &[0.0, 0.3]
    } else {
        &[0.0, 0.1, 0.3, 0.5]
    };
    let cfg = sim_config(args.quick);
    let cycles = cfg.warmup_cycles + cfg.measure_cycles;
    let mut t = Table::new(&["background load", "mean update latency", "p99", "max"]);
    let mut zero_load_mean = 0.0;
    for &load in loads {
        let (mean, p99, max) = run(load, 16, cycles);
        if load == 0.0 {
            zero_load_mean = mean;
        }
        t.row(&[format!("{load}"), f1(mean), f1(p99), f1(max)]);
    }
    println!("\n{t}");
    check(
        zero_load_mean <= 12.0,
        "zero-load wire update completes within a few hops",
    );

    // Compare against a dedicated wire in wall-clock terms.
    let tech = Technology::dac2001();
    let wire = WireModel::new(&tech);
    // Tile 0 -> tile 5 is 2 hops on the torus; physical distance ~2-4
    // pitches depending on folding.
    let mm = 3.0 * 3.0; // conservative: 3 pitches
    let dedicated_ps = wire.repeated_delay_ps(mm, SignalingScheme::FullSwing);
    let network_ps = zero_load_mean * tech.clock_period_ps();
    println!(
        "dedicated full-swing wire over {mm} mm: {:.0} ps;  logical wire at zero load: {:.0} ps \
         ({:.1}x)",
        dedicated_ps,
        network_ps,
        network_ps / dedicated_ps
    );
    check(
        network_ps / dedicated_ps < 30.0,
        "logical wire is within the same order of magnitude as a dedicated wire \
         (and pre-scheduled slots / faster clocks close the rest, per §4.1)",
    );
    finish();
}
