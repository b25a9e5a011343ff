//! §1 / §2.6 end-to-end: a realistic system-on-chip over the baseline
//! network.
//!
//! The paper's pitch is that one 6.6%-overhead network carries a whole
//! consumer SoC — camera to MPEG encoder (pre-scheduled), CPUs and a DSP
//! against memory controllers (dynamic), peripherals and an off-chip
//! gateway — with headroom. This experiment builds that chip from
//! `ocin-soc`'s set-top-box floorplan and scales the dynamic load until
//! the network runs out.

use ocin_bench::{banner, check, command_line, f1, f3, finish, sim_config, EXPERIMENT};
use ocin_sim::{Simulation, Table};
use ocin_soc::{Floorplan, SocWorkload};

fn main() {
    let args = command_line(EXPERIMENT);
    banner(
        "exp_soc",
        "§1, §2.6",
        "one network carries the whole Figure-1 SoC: jitter-free video + dynamic CPU/DSP traffic",
    );

    let plan = Floorplan::set_top_box();
    println!(
        "\nfloorplan (the paper's Figure 1 client mix):\n\n{}",
        plan.render()
    );
    let workload = SocWorkload::for_floorplan(&plan);

    let scales: &[f64] = if args.quick {
        &[1.0, 4.0]
    } else {
        &[1.0, 2.0, 4.0, 6.0, 8.0]
    };
    let mut t = Table::new(&[
        "dynamic scale",
        "offered (flits/node/cyc)",
        "accepted",
        "mean latency",
        "p99",
        "video jitter",
        "max link util",
    ]);
    let mut base_ok = false;
    let mut video_always_clean = true;
    for &scale in scales {
        let (cfg, matrix) = workload.build(scale).expect("set-top box builds");
        let offered = matrix.mean_load();
        let report = Simulation::new(cfg, sim_config(args.quick))
            .expect("valid")
            .with_traffic_matrix(&matrix)
            .run();
        let jitter = report.flow_jitter.values().copied().fold(0.0, f64::max);
        if scale == 1.0 {
            base_ok = report.unfinished_packets == 0
                && (report.accepted_flit_rate - offered).abs() < 0.02;
        }
        if jitter > 1.0 {
            video_always_clean = false;
        }
        t.row(&[
            format!("{scale}x"),
            f3(offered),
            f3(report.accepted_flit_rate),
            f1(report.network_latency.mean),
            f1(report.network_latency.p99),
            f1(jitter),
            f3(report.max_link_utilization),
        ]);
    }
    println!("{t}");
    check(
        base_ok,
        "at design load the network carries the whole SoC with zero backlog",
    );
    check(
        video_always_clean,
        "the camera->encoder flow stays jitter-free at every dynamic scale (§2.6)",
    );
    println!(
        "\n(one shared network, 6.6% of each tile, zero dedicated top-level wires — the paper's pitch)"
    );
    finish();
}
