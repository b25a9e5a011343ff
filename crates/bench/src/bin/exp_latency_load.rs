//! §1 / §3.1: latency–load curves for mesh vs folded torus.
//!
//! "Networks are generally preferable to such buses because they have
//! higher bandwidth and support multiple concurrent communications" —
//! and the torus "effectively converts some of the plentiful wires into
//! bandwidth". The torus's doubled bisection shows up as a higher
//! saturation throughput; the crossover binds at k = 8 under uniform
//! traffic and is extreme under the adversarial tornado pattern.

use std::sync::Arc;

use ocin_bench::{banner, check, command_line, f1, f3, finish, sim_config};
use ocin_core::{NetworkConfig, ProbeConfig, RoutingAlg, TopologySpec};
use ocin_sim::{render_metrics_heatmap, LatencyReport, LoadSweep, SimPool, Table};
use ocin_traffic::{TrafficPattern, Workload};

fn main() {
    let args = command_line(&["--quick", "--probe", "--out", "--radix"]);
    banner(
        "exp_latency_load",
        "§1, §3.1",
        "latency vs offered load; torus sustains higher throughput (2x bisection)",
    );

    let loads: &[f64] = if args.quick {
        &[0.1, 0.4, 0.7]
    } else {
        &[0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    };

    // One pool for the whole experiment: curve points computed here are
    // reused by the saturation searches below.
    let pool = Arc::new(SimPool::new());
    let sim = sim_config(args.quick);
    let sweep = |spec: TopologySpec, pattern: TrafficPattern| {
        LoadSweep::new(
            NetworkConfig::paper_baseline().with_topology(spec),
            sim,
            Workload::for_topology(&spec, pattern),
        )
        .with_pool(Arc::clone(&pool))
    };

    // The paper's k = 4 and the crossover point k = 8, plus any larger
    // radix requested via --radix (e.g. 16 for the 256-tile network).
    let mut radices = vec![4usize, 8];
    if !radices.contains(&args.radix) {
        radices.push(args.radix);
    }
    for k in radices {
        let pattern = TrafficPattern::Uniform;
        println!("\n--- uniform, k = {k} ---\n");
        let mut t = Table::new(&[
            "offered",
            "mesh accepted",
            "mesh mean lat",
            "mesh p99",
            "torus accepted",
            "torus mean lat",
            "torus p99",
        ]);
        let mesh = sweep(TopologySpec::Mesh { k }, pattern.clone());
        let torus = sweep(TopologySpec::FoldedTorus { k }, pattern);
        let mut last: Option<(f64, f64)> = None;
        for (pm, pt) in mesh.run(loads).iter().zip(torus.run(loads).iter()) {
            t.row(&[
                f3(pm.offered),
                f3(pm.accepted),
                f1(pm.mean_latency),
                f1(pm.p99_latency),
                f3(pt.accepted),
                f1(pt.mean_latency),
                f1(pt.p99_latency),
            ]);
            last = Some((pm.accepted, pt.accepted));
        }
        println!("{t}");
        if k == 8 {
            let (mesh_acc, torus_acc) = last.expect("at least one load");
            check(
                torus_acc > mesh_acc,
                "at the highest load the torus accepts more than the mesh",
            );
        }
    }

    // Adversarial tornado traffic: every node sends halfway around each
    // ring. This defeats *minimal* routing on the torus (all traffic
    // circles one way and the dateline halves the usable VCs) — the
    // classic motivation for Valiant's randomized routing, which trades
    // doubled distance for load balance.
    println!("\n--- tornado, k = 8 (minimal vs Valiant on the torus) ---\n");
    {
        let k = 8usize;
        let mut t = Table::new(&[
            "offered",
            "mesh accepted",
            "torus minimal accepted",
            "torus valiant accepted",
        ]);
        let mesh = sweep(TopologySpec::Mesh { k }, TrafficPattern::Tornado);
        let tmin = sweep(TopologySpec::FoldedTorus { k }, TrafficPattern::Tornado);
        let tval = LoadSweep::new(
            NetworkConfig::paper_baseline()
                .with_topology(TopologySpec::FoldedTorus { k })
                .with_routing(RoutingAlg::Valiant),
            sim,
            Workload::for_topology(&TopologySpec::FoldedTorus { k }, TrafficPattern::Tornado),
        )
        .with_pool(Arc::clone(&pool));
        let mut last = (0.0, 0.0, 0.0);
        let (pm, pb, pc) = (mesh.run(loads), tmin.run(loads), tval.run(loads));
        for i in 0..loads.len() {
            let (a, b, c) = (pm[i].accepted, pb[i].accepted, pc[i].accepted);
            t.row(&[f3(loads[i]), f3(a), f3(b), f3(c)]);
            last = (a, b, c);
        }
        println!("{t}");
        let (_, tmin_acc, tval_acc) = last;
        check(
            tval_acc > tmin_acc,
            "Valiant routing recovers tornado throughput that minimal routing loses on the torus",
        );
    }

    // Tail quantiles from the telemetry layer: the table above reports
    // the sampled p99; these are exact (no sampling, no quantization —
    // every latency sits below the histogram's 128 Ki-cycle horizon).
    println!("\nexact tail quantiles (telemetry histograms), torus k = 4, uniform:\n");
    {
        let mut t = Table::new(&["offered", "count", "mean", "p50", "p99", "p99.9"]);
        let torus = sweep(TopologySpec::FoldedTorus { k: 4 }, TrafficPattern::Uniform)
            .with_probe(ProbeConfig::counters().with_telemetry(0));
        let mut tail_ordered = true;
        for p in torus.run(loads) {
            let telemetry = p
                .report
                .metrics
                .as_ref()
                .and_then(|m| m.telemetry.as_ref())
                .expect("telemetry-swept point carries the report");
            let lr = LatencyReport::from_quantiles(&telemetry.aggregate_latency());
            tail_ordered &= lr.p999 >= lr.p99 && lr.p99 >= lr.p50;
            t.row(&[
                f3(p.offered),
                lr.count.to_string(),
                f1(lr.mean),
                f1(lr.p50),
                f1(lr.p99),
                f1(lr.p999),
            ]);
        }
        println!("{t}");
        check(
            tail_ordered,
            "exact quantiles are ordered p50 <= p99 <= p99.9 at every load",
        );
    }

    if args.probe {
        // Probed reference point: torus k = 4, uniform, highest swept
        // load. Counters ride along without touching the measurements,
        // so the table above is bit-identical with or without --probe.
        println!(
            "\n--- probe: torus k = 4, uniform, load {} ---\n",
            loads[loads.len() - 1]
        );
        let point = sweep(TopologySpec::FoldedTorus { k: 4 }, TrafficPattern::Uniform)
            .with_probe(ProbeConfig::counters())
            .point(loads[loads.len() - 1]);
        let metrics = point
            .report
            .metrics
            .as_ref()
            .expect("probed run carries metrics");
        println!(
            "forwarded {}  vc allocs {}  conflicts {}  credit stalls {}  delivered {}",
            metrics.totals.flits_forwarded,
            metrics.totals.vc_allocations,
            metrics.totals.alloc_conflicts,
            metrics.totals.credit_stalls,
            metrics.totals.packets_delivered,
        );
        println!("\nper-link utilization from probe counters:\n");
        println!("{}", render_metrics_heatmap(metrics, 4));
        args.write_metrics(metrics);
    }

    if !args.quick {
        println!("\nsaturation search (uniform, accepted >= 95% of offered):\n");
        let mut sat = Table::new(&["topology", "k", "saturation (flits/node/cycle)"]);
        let mut results = Vec::new();
        for k in [4usize, 8] {
            for (name, spec) in [
                ("mesh", TopologySpec::Mesh { k }),
                ("ftorus", TopologySpec::FoldedTorus { k }),
            ] {
                let s = sweep(spec, TrafficPattern::Uniform).saturation_load(0.05);
                sat.row(&[name.into(), k.to_string(), f3(s)]);
                results.push((name, k, s));
            }
        }
        println!("{sat}");
        println!("(pool: {} distinct points cached)", pool.cached_points());
        let mesh8 = results
            .iter()
            .find(|r| r.0 == "mesh" && r.1 == 8)
            .expect("ran")
            .2;
        let torus8 = results
            .iter()
            .find(|r| r.0 == "ftorus" && r.1 == 8)
            .expect("ran")
            .2;
        check(
            torus8 > 1.3 * mesh8,
            "k=8 torus saturation well above the mesh (bisection-limited)",
        );
    }
    finish();
}
