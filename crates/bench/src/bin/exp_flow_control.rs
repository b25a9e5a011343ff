//! §3.2: flow-control methods — buffers vs performance vs wire loading.
//!
//! "Buffer space in an on-chip router directly impacts the area overhead
//! ... if packets are dropped or misrouted when they encounter
//! contention very little buffering is required. However, dropping and
//! misrouting protocols reduce performance and increase wire loading and
//! hence power dissipation."

use std::sync::Arc;

use ocin_bench::{banner, check, command_line, f1, f2, f3, finish, sim_config, EXPERIMENT};
use ocin_core::{FlowControl, NetworkConfig, ProbeConfig};
use ocin_phys::{RouterAreaModel, Technology};
use ocin_sim::{LoadSweep, SimConfig, SimPool, Simulation, Table};
use ocin_traffic::{TrafficPattern, Workload};

struct Row {
    name: &'static str,
    accepted: f64,
    delivered_frac: f64,
    latency: f64,
    pitches_per_packet: f64,
    buffer_bits: usize,
}

fn run(pool: &Arc<SimPool>, cfg: NetworkConfig, sim: SimConfig, load: f64) -> (f64, f64, f64, f64) {
    let point = LoadSweep::new(cfg, sim, Workload::new(16, 4, TrafficPattern::Uniform))
        .with_pool(Arc::clone(pool))
        .point(load);
    let report = &point.report;
    let injected = report.packets_injected.max(1) as f64;
    let delivered_frac = report.packets_delivered as f64 / injected;
    let (_, bit_pitches) = Simulation::energy_per_packet(report);
    (
        report.accepted_flit_rate,
        delivered_frac,
        report.network_latency.mean,
        bit_pitches / 300.0, // pitches travelled per delivered packet
    )
}

fn main() {
    let args = command_line(EXPERIMENT);
    banner(
        "exp_flow_control",
        "§3.2",
        "dropping/misrouting need little buffer but lose performance and load the wires",
    );
    let tech = Technology::dac2001();
    let sim = sim_config(args.quick);
    let loads: &[f64] = if args.quick { &[0.2] } else { &[0.1, 0.2, 0.3] };
    let pool = Arc::new(SimPool::new());

    for &load in loads {
        println!("\n--- uniform single-flit traffic at {load} flits/node/cycle ---\n");
        let mut rows = Vec::new();
        for (name, fc, vcs, depth) in [
            (
                "virtual-channel",
                FlowControl::VirtualChannel,
                8usize,
                4usize,
            ),
            ("dropping", FlowControl::Dropping, 1, 1),
            ("deflection", FlowControl::Deflection, 1, 1),
        ] {
            let cfg = NetworkConfig::paper_baseline().with_flow_control(fc);
            let (accepted, delivered_frac, latency, pitches) = run(&pool, cfg, sim, load);
            rows.push(Row {
                name,
                accepted,
                delivered_frac,
                latency,
                pitches_per_packet: pitches,
                buffer_bits: vcs * depth * 300,
            });
        }
        let mut t = Table::new(&[
            "flow control",
            "buffer bits/edge",
            "accepted",
            "delivered frac",
            "mean latency",
            "wire pitches/pkt",
        ]);
        for r in &rows {
            t.row(&[
                r.name.into(),
                r.buffer_bits.to_string(),
                f3(r.accepted),
                f2(r.delivered_frac),
                f1(r.latency),
                f2(r.pitches_per_packet),
            ]);
        }
        println!("{t}");

        let vc = &rows[0];
        let drop = &rows[1];
        let defl = &rows[2];
        check(
            vc.delivered_frac > 0.999,
            "virtual-channel flow control delivers everything",
        );
        check(
            drop.delivered_frac < vc.delivered_frac,
            "dropping loses packets under contention",
        );
        check(
            defl.delivered_frac > 0.999,
            "deflection never drops (always forwards)",
        );
        check(
            defl.pitches_per_packet >= vc.pitches_per_packet,
            "misrouting increases wire distance (and hence wire power)",
        );
        check(
            drop.buffer_bits < vc.buffer_bits / 10,
            "dropping needs <10% of the VC router's buffer bits",
        );
    }

    if args.probe {
        // Probed reference points: the drop and misroute counters come
        // straight from the routers, cross-checking the report's
        // aggregate drop/deflection statistics.
        println!(
            "\n--- probe: dropping vs deflection at {} flits/node/cycle ---\n",
            loads[0]
        );
        for (name, fc) in [
            ("dropping", FlowControl::Dropping),
            ("deflection", FlowControl::Deflection),
        ] {
            let point = LoadSweep::new(
                NetworkConfig::paper_baseline().with_flow_control(fc),
                sim,
                Workload::new(16, 4, TrafficPattern::Uniform),
            )
            .with_pool(Arc::clone(&pool))
            .with_probe(ProbeConfig::counters())
            .point(loads[0]);
            let metrics = point
                .report
                .metrics
                .as_ref()
                .expect("probed run carries metrics");
            println!(
                "{name:>10}: forwarded {}  dropped {}  misrouted {}  delivered {}",
                metrics.totals.flits_forwarded,
                metrics.totals.packets_dropped,
                metrics.totals.misroutes,
                metrics.totals.packets_delivered,
            );
            if name == "deflection" {
                args.write_metrics(metrics);
            }
        }
    }

    // Ablation: how much buffering does the VC router actually need?
    // The credit loop is ~4 cycles, so depth 4 sustains full rate; less
    // costs throughput under load — the §3.2 buffer/performance knob.
    println!("\nbuffer-depth ablation (virtual-channel, uniform at 0.5 flits/node/cycle):\n");
    let mut ab = Table::new(&[
        "flits/VC",
        "buffer bits/edge",
        "accepted",
        "mean latency",
        "% of tile (area model)",
    ]);
    let mut by_depth = Vec::new();
    for depth in [1usize, 2, 4, 8] {
        let cfg = NetworkConfig::paper_baseline().with_buf_depth(depth);
        let point = LoadSweep::new(cfg, sim, Workload::new(16, 4, TrafficPattern::Uniform))
            .with_pool(Arc::clone(&pool))
            .point(0.5);
        let area = RouterAreaModel::with_buffering(8, depth, 300);
        by_depth.push((depth, point.accepted, point.mean_latency));
        ab.row(&[
            depth.to_string(),
            (8 * depth * 300).to_string(),
            f3(point.accepted),
            f1(point.mean_latency),
            format!("{:.1}%", 100.0 * area.fraction_of_tile(&tech)),
        ]);
    }
    println!("{ab}");
    let (_, acc1, lat1) = by_depth[0];
    let (_, acc4, lat4) = by_depth[2];
    check(
        acc4 >= acc1 && lat4 < lat1,
        "the paper's 4-flit buffers cover the ~4-cycle credit loop: same throughput, lower latency \
         than depth-1 (deeper buffers buy nothing more — the paper sized them right)",
    );

    println!("\nrouter area by flow control (from exp_area's model):\n");
    let mut area = Table::new(&[
        "flow control",
        "buffer bits/edge",
        "router mm^2",
        "% of tile",
    ]);
    for (name, vcs, depth) in [
        ("virtual-channel", 8usize, 4usize),
        ("dropping", 1, 1),
        ("deflection", 1, 1),
    ] {
        let m = RouterAreaModel::with_buffering(vcs, depth, 300);
        area.row(&[
            name.into(),
            (vcs * depth * 300).to_string(),
            f3(m.total_mm2()),
            format!("{:.1}%", 100.0 * m.fraction_of_tile(&tech)),
        ]);
    }
    println!("{area}");
    finish();
}
