//! §1 / §4.2: network vs shared bus — "networks are generally preferable
//! to such buses because they have higher bandwidth and support multiple
//! concurrent communications."
//!
//! Both interconnects carry the same offered uniform traffic between 16
//! clients. The bus serializes everything through one 256-bit medium
//! spanning the 12 mm die; the network moves flits concurrently over
//! short structured links.

use ocin_bench::{banner, check, command_line, f1, f2, f3, finish, sim_config, EXPERIMENT};
use ocin_core::bus::SharedBus;
use ocin_core::ids::NodeId;
use ocin_core::NetworkConfig;
use ocin_phys::{NetworkEnergyModel, SignalingScheme, Technology};
use ocin_sim::{Samples, Simulation, Table};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};

/// Runs the bus under the same Bernoulli uniform workload; returns
/// (accepted flits/node/cycle, mean latency, utilization, bit·mm per
/// delivered flit).
fn run_bus(load: f64, cycles: u64) -> (f64, f64, f64, f64) {
    let mut bus = SharedBus::new(16, 12.0);
    let wl = Workload::new(16, 4, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: load });
    let mut generation = wl.generator(5);
    let mut lat = Samples::new();
    for now in 0..cycles {
        for node in 0..16u16 {
            if let Some(req) = generation.next_request(now, node.into()) {
                // Bound the per-client queue like the network's tile port.
                if bus.pending() < 16 * 64 {
                    bus.offer(node.into(), req.dst, 1);
                }
            }
        }
        bus.step();
        for node in 0..16u16 {
            for pkt in bus.drain_delivered(NodeId::new(node)) {
                lat.push(pkt.latency() as f64);
            }
        }
    }
    let s = bus.stats();
    let accepted = s.packets_delivered as f64 / (16.0 * cycles as f64);
    let bit_mm = bus.bit_mm() / s.packets_delivered.max(1) as f64;
    (accepted, lat.mean(), s.utilization(), bit_mm)
}

fn main() {
    let args = command_line(EXPERIMENT);
    banner(
        "exp_bus",
        "§1, §4.2",
        "a shared bus saturates at 1/N per client; the network keeps scaling",
    );
    let cfg = sim_config(args.quick);
    let cycles = cfg.warmup_cycles + cfg.measure_cycles;
    let tech = Technology::dac2001();
    let fs = NetworkEnergyModel::new(&tech, SignalingScheme::FullSwing);

    let loads: &[f64] = if args.quick {
        &[0.03, 0.0625, 0.4]
    } else {
        &[0.02, 0.04, 0.0625, 0.1, 0.2, 0.4]
    };

    let mut t = Table::new(&[
        "offered",
        "bus accepted",
        "bus mean lat",
        "bus util",
        "net accepted",
        "net mean lat",
    ]);
    let mut last = (0.0, 0.0);
    for &load in loads {
        let (bus_acc, bus_lat, bus_util, _) = run_bus(load, cycles);
        let wl = Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: load });
        let net = Simulation::new(NetworkConfig::paper_baseline(), cfg)
            .expect("valid")
            .with_workload(&wl)
            .run();
        t.row(&[
            f3(load),
            f3(bus_acc),
            f1(bus_lat),
            f2(bus_util),
            f3(net.accepted_flit_rate),
            f1(net.network_latency.mean),
        ]);
        last = (bus_acc, net.accepted_flit_rate);
    }
    println!("\n{t}");
    let (bus_acc, net_acc) = last;
    check(
        bus_acc < 0.08,
        "the bus saturates near 1/16 flits/node/cycle (one medium, 16 clients)",
    );
    check(
        net_acc > 4.0 * bus_acc,
        "the network sustains several times the bus's per-client bandwidth",
    );

    // Energy per delivered flit. The network's total wire distance
    // (~9.6 mm average) is close to the bus's 12 mm, so with identical
    // circuits the two are comparable — the paper's energy win (§4.1)
    // comes from the *structured* wiring permitting pulsed low-swing
    // circuits, which the ad-hoc die-spanning bus medium cannot use.
    let ls = NetworkEnergyModel::new(&tech, SignalingScheme::LowSwing);
    let (_, _, _, bus_bit_mm) = run_bus(0.05, cycles);
    let bus_pj = bus_bit_mm * fs.e_wire_per_bit_mm_pj;
    let wl = Workload::new(16, 4, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: 0.05 });
    let net = Simulation::new(NetworkConfig::paper_baseline(), cfg)
        .expect("valid")
        .with_workload(&wl)
        .run();
    let (hop_bits, bit_pitches) = Simulation::energy_per_packet(&net);
    let net_fs_pj = fs.total_energy_pj(hop_bits as u64, bit_pitches);
    let net_ls_pj = ls.total_energy_pj(hop_bits as u64, bit_pitches);
    println!(
        "energy per delivered flit at load 0.05:\n  bus (full-swing, its unstructured medium \
         allows nothing better): {bus_pj:.0} pJ\n  network with the same full-swing circuits: \
         {net_fs_pj:.0} pJ (comparable)\n  network with low-swing circuits its structured \
         wiring enables: {net_ls_pj:.0} pJ"
    );
    check(
        net_ls_pj < bus_pj / 2.0,
        "the structured network + low-swing circuits beat the bus on energy (paper §4.1)",
    );
    finish();
}
