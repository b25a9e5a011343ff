//! §3: per-packet latency decomposition — where the cycles go.
//!
//! The paper prices a packet's latency as `T = H·t_r + L/b` plus
//! contention. This experiment decomposes *measured* latency into that
//! partition, per packet, with the journey profiler: at zero load the
//! measurement collapses onto the analytic baseline exactly; as offered
//! load rises, the surplus is attributed stage by stage (VC allocation,
//! switch, credits, preemption, link waits) and link by link (the
//! bottleneck ranking). With `--probe`, a fixed-seed run renders the
//! retained journeys as `ocin-journeys v1` text and Chrome
//! `trace_event` JSON (viewable in Perfetto), and with `--out <dir>`
//! writes them to `journeys.txt` and `trace.json` there — byte-identical
//! across runs by construction.

use std::sync::Arc;

use ocin_bench::{banner, check, command_line, f1, f2, f3, finish, sim_config, EXPERIMENT};
use ocin_core::probe::ProbeConfig;
use ocin_core::{DecompositionReport, NetworkConfig, TopologySpec};
use ocin_sim::{LoadSweep, SimConfig, SimPool, Simulation, Table};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};

/// Pulls the decomposition out of a probed point's report.
fn decomposition(point: &ocin_sim::LoadPoint) -> &DecompositionReport {
    point
        .report
        .metrics
        .as_ref()
        .expect("journeyed run carries metrics")
        .decomposition
        .as_ref()
        .expect("journeyed run carries a decomposition")
}

fn main() {
    let args = command_line(EXPERIMENT);
    banner(
        "exp_latency_decomposition",
        "§3",
        "latency decomposes into H*t_r + L/b plus attributable contention",
    );

    let loads: &[f64] = if args.quick {
        &[0.02, 0.3, 0.55]
    } else {
        &[0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    };

    let pool = Arc::new(SimPool::new());
    let sweep = LoadSweep::new(
        NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 4 }),
        sim_config(args.quick),
        Workload::new(16, 4, TrafficPattern::Uniform),
    )
    .with_pool(Arc::clone(&pool))
    .with_probe(ProbeConfig::counters().with_journeys(0));

    println!("\n--- stage decomposition vs offered load (torus k = 4, uniform) ---\n");
    let mut t = Table::new(&[
        "offered",
        "mean lat",
        "baseline",
        "surplus",
        "vc_alloc%",
        "switch%",
        "credit%",
        "preempt%",
        "link%",
        "channel%",
        "serial%",
    ]);
    let points = sweep.run(loads);
    for p in &points {
        let d = decomposition(p);
        let s = &d.totals;
        let b = &s.stages;
        let pct = |v: u64| format!("{:.1}", 100.0 * s.share(v));
        t.row(&[
            f3(p.offered),
            f1(s.mean_measured()),
            f1(s.mean_baseline()),
            f1(d.mean_contention_surplus()),
            pct(b.vc_alloc),
            pct(b.switch_wait),
            pct(b.credit_stall),
            pct(b.preempt),
            pct(b.link_wait),
            pct(b.channel),
            pct(b.serialization),
        ]);
    }
    println!("{t}");

    let (lo, hi) = (
        decomposition(&points[0]),
        decomposition(&points[points.len() - 1]),
    );
    check(
        lo.inconsistent == 0 && hi.inconsistent == 0,
        "every journey's breakdown reconciles exactly with its measured latency",
    );
    check(
        lo.mean_contention_surplus() < 1.0,
        "near zero load the measurement sits on the analytic baseline H*t_r + L/b",
    );
    check(
        hi.mean_contention_surplus() > lo.mean_contention_surplus(),
        "contention surplus grows with offered load",
    );
    check(
        hi.totals.stages.contention() > lo.totals.stages.contention(),
        "the surplus is attributed to contention stages, not to the pipeline",
    );

    println!(
        "\n--- bottleneck attribution at load {} ---\n",
        loads[loads.len() - 1]
    );
    let mut bt = Table::new(&[
        "router",
        "out port",
        "stall cycles",
        "vc conflicts",
        "credit stalls",
        "preemptions",
        "bulk",
        "priority",
        "reserved",
    ]);
    for l in hi.bottlenecks(8) {
        bt.row(&[
            l.node.to_string(),
            l.port.to_string(),
            l.stall_cycles().to_string(),
            l.vc_conflicts.to_string(),
            l.credit_stalls.to_string(),
            l.preemptions.to_string(),
            l.per_class[0].to_string(),
            l.per_class[1].to_string(),
            l.per_class[2].to_string(),
        ]);
    }
    println!("{bt}");
    check(
        !hi.bottlenecks(8).is_empty(),
        "loaded network has at least one link with attributed stall cycles",
    );
    println!(
        "decomposed {} packets at the top load ({} in flight at freeze, {} incomplete)",
        hi.packets, hi.in_flight, hi.incomplete
    );

    if args.probe {
        // Fixed-seed export run, independent of --quick so the bytes
        // are identical however the experiment is invoked.
        println!("\n--- journey export (fixed seed) ---\n");
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 800,
            drain_cycles: 2_000,
            seed: 0xDECC,
        };
        let wl = Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: 0.35 });
        let report = Simulation::new(
            NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 4 }),
            cfg,
        )
        .expect("baseline config is valid")
        .with_workload(&wl)
        .with_probe(ProbeConfig::counters().with_journeys(512))
        .run();
        let d = report
            .metrics
            .as_ref()
            .expect("probed run carries metrics")
            .decomposition
            .as_ref()
            .expect("journeyed run carries a decomposition");
        let text = d.to_text();
        let trace = d.to_trace_json();
        args.write("journeys.txt", &text);
        args.write("trace.json", &trace);
        println!(
            "{} journeys retained ({} text bytes, {} trace bytes)",
            d.journeys.len(),
            text.len(),
            trace.len(),
        );
        check(
            !d.journeys.is_empty() && d.inconsistent == 0,
            "export run retained reconciled journeys",
        );
        let j = &d.journeys[0];
        println!(
            "first journey: p{} {}->{} net {} = base {} + surplus {} (share of contention {})",
            j.packet.0,
            j.src,
            j.dst,
            j.network_latency(),
            j.baseline,
            j.contention_surplus(),
            f2(j.breakdown.contention() as f64 / j.network_latency().max(1) as f64),
        );
    }

    println!("\n(pool: {} distinct points cached)", pool.cached_points());
    finish();
}
