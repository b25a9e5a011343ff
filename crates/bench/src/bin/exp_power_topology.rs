//! §3.1: mesh vs folded torus power.
//!
//! "The total power required to send a flit ... decomposed into the
//! power per hop and power per wire distance traveled. ... if wire
//! transmission power dominates per hop power, the mesh is more power
//! efficient. ... in our example, the power overhead of the torus is
//! small, less than 15%, and is outweighed by the benefit of the larger
//! effective bandwidth of the torus."
//!
//! Reproduced three ways: the paper's closed forms, exact all-pairs
//! topology enumeration, and flit-level simulation with energy counters.

use std::sync::Arc;

use ocin_bench::{banner, check, command_line, f2, f3, finish, sim_config, EXPERIMENT};
use ocin_core::{NetworkConfig, TopologySpec};
use ocin_phys::{NetworkEnergyModel, SignalingScheme, Technology, TopologyPowerModel};
use ocin_sim::{LoadSweep, SimPool, Simulation, Table};
use ocin_traffic::{TrafficPattern, Workload};

fn main() {
    let args = command_line(EXPERIMENT);
    banner(
        "exp_power_topology",
        "§3.1",
        "torus power overhead < 15% at the design point; mesh wins when wire power dominates; 2x bisection",
    );
    let tech = Technology::dac2001();
    let fs = NetworkEnergyModel::new(&tech, SignalingScheme::FullSwing);
    let ls = NetworkEnergyModel::new(&tech, SignalingScheme::LowSwing);

    // Closed forms per radix.
    println!("\nclosed-form averages (all ordered pairs):\n");
    let mut cf = Table::new(&[
        "k",
        "mesh hops",
        "mesh dist",
        "torus hops",
        "torus dist",
        "mesh bisect",
        "torus bisect",
    ]);
    for k in [4usize, 8, 16] {
        let m = TopologyPowerModel::mesh(k);
        let t = TopologyPowerModel::folded_torus(k);
        cf.row(&[
            k.to_string(),
            f2(m.avg_hops),
            f2(m.avg_distance_pitches),
            f2(t.avg_hops),
            f2(t.avg_distance_pitches),
            m.bisection_channels.to_string(),
            t.bisection_channels.to_string(),
        ]);
    }
    println!("{cf}");
    let t4 = TopologyPowerModel::folded_torus(4);
    let m4 = TopologyPowerModel::mesh(4);
    check(
        t4.bisection_channels == 2 * m4.bisection_channels,
        "folded torus has 2x the mesh bisection bandwidth",
    );

    // Power ratio vs the wire/hop energy ratio alpha.
    println!("\ntorus/mesh power ratio vs alpha = E_wire(per pitch)/E_hop (k = 4):\n");
    let mut sweep = Table::new(&["alpha", "torus/mesh power", "winner"]);
    for alpha in [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0] {
        let model = NetworkEnergyModel {
            e_hop_per_bit_pj: 1.0,
            e_wire_per_bit_mm_pj: alpha / tech.tile_mm,
            tile_mm: tech.tile_mm,
        };
        let ratio = t4.power_ratio(&m4, &model);
        sweep.row(&[
            f2(alpha),
            f3(ratio),
            if ratio <= 1.0 { "torus" } else { "mesh" }.to_string(),
        ]);
    }
    println!("{sweep}");

    // The paper's design point (full-swing wires).
    let ratio_fs = t4.power_ratio(&m4, &fs);
    let ratio_ls = t4.power_ratio(&m4, &ls);
    println!(
        "design point: alpha = {:.2} (full-swing)  torus/mesh = {:.3}",
        fs.wire_to_hop_ratio(),
        ratio_fs
    );
    println!(
        "              alpha = {:.2} (low-swing)   torus/mesh = {:.3}",
        ls.wire_to_hop_ratio(),
        ratio_ls
    );
    check(
        fs.wire_to_hop_ratio() > 1.0,
        "wire power dominates hop power (paper's estimate)",
    );
    check(
        ratio_fs < 1.15,
        "torus overhead below 15% at the design point",
    );
    check(
        ratio_ls < 1.0,
        "with low-swing wires the torus wins outright",
    );

    // Simulated energy per flit at equal accepted load.
    println!("\nflit-level simulation, uniform traffic at 0.2 flits/node/cycle:\n");
    let mut simtab = Table::new(&[
        "topology",
        "hops/packet",
        "pitches/packet",
        "pJ/packet full-swing",
        "pJ/packet low-swing",
    ]);
    let mut measured: Vec<(f64, f64)> = Vec::new();
    let pool = Arc::new(SimPool::new());
    for spec in [
        TopologySpec::Mesh { k: 4 },
        TopologySpec::FoldedTorus { k: 4 },
    ] {
        let point = LoadSweep::new(
            NetworkConfig::paper_baseline().with_topology(spec),
            sim_config(args.quick),
            Workload::new(16, 4, TrafficPattern::Uniform),
        )
        .with_pool(Arc::clone(&pool))
        .point(0.2);
        let (hop_bits, bit_pitches) = Simulation::energy_per_packet(&point.report);
        let pj_fs = fs.total_energy_pj(hop_bits as u64, bit_pitches);
        let pj_ls = ls.total_energy_pj(hop_bits as u64, bit_pitches);
        measured.push((pj_fs, pj_ls));
        simtab.row(&[
            format!("{spec:?}"),
            f2(hop_bits / 300.0), // 300 active bits/flit -> hops
            f2(bit_pitches / 300.0),
            f2(pj_fs),
            f2(pj_ls),
        ]);
    }
    println!("{simtab}");
    let sim_ratio_fs = measured[1].0 / measured[0].0;
    let sim_ratio_ls = measured[1].1 / measured[0].1;
    println!(
        "simulated torus/mesh energy ratio: full-swing {sim_ratio_fs:.3}, low-swing {sim_ratio_ls:.3}"
    );
    check(
        sim_ratio_fs < 1.2,
        "simulation confirms the torus overhead stays small",
    );
    check(
        sim_ratio_ls < 1.0,
        "simulation confirms the torus wins with low-swing wires",
    );
    finish();
}
