//! Deterministic probe artifact dump for the CI determinism gate.
//!
//! Runs fixed-seed probed simulations (folded torus, uniform Bernoulli
//! traffic, trace ring enabled) and writes each run's
//! [`NetworkMetrics`] JSON and event-trace text to an output directory
//! (the one argument, default `target/probe`; a flag or a second
//! argument exits 2 before any output): the paper's k = 4 at the
//! top level and the 256-tile k = 16 network under `k16/`. The runs are
//! configured identically regardless of `OCIN_QUICK`, and `OCIN_SHARDS`
//! (read once at startup; default 1, and anything but a positive
//! integer exits 2 before any output) selects how many worker threads
//! step each network without being allowed to change a single byte of
//! output — so two invocations anywhere, at any shard count, must
//! produce byte-identical trees. CI runs it at `OCIN_SHARDS ∈
//! {1, 2, 4, 8}` and diffs every tree against the committed golden.
//!
//! [`NetworkMetrics`]: ocin_core::NetworkMetrics

use std::path::{Path, PathBuf};

use ocin_bench::{dump_args, or_exit, shards_env};
use ocin_core::{EventTrace, NetworkConfig, ProbeConfig, TopologySpec};
use ocin_sim::{ShardedSimulation, SimConfig, Simulation};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};

/// Runs the fixed-seed probed simulation for radix `k` at `flit_rate`
/// and writes artifacts into `out_dir`: always `events.txt`, plus
/// either the full per-router `metrics.json` (`full_metrics`) or a
/// compact `totals.json` of the network-wide counters — at k = 16 the
/// full per-router dump is megabytes and the totals pin the same
/// determinism surface at golden-committable size.
fn dump(out_dir: &Path, k: usize, flit_rate: f64, full_metrics: bool, shards: usize) {
    // Fixed configuration: never varies with the environment.
    let net_cfg = NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k });
    let sim_cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 1_000,
        drain_cycles: 2_000,
        seed: 0xC0FFEE,
    };
    let wl = Workload::new(k * k, k, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate });

    let sim = Simulation::new(net_cfg, sim_cfg)
        .expect("fixed configuration is valid")
        .with_workload(&wl)
        .with_probe(ProbeConfig::counters().with_trace(4096));
    let report = ShardedSimulation::new(sim, shards).run();
    let metrics = report.metrics.as_ref().expect("probed run carries metrics");

    // Cross-layer invariants the determinism gate relies on: the probe
    // counted the same events the simulator reported.
    assert_eq!(
        metrics.totals.packets_dropped, report.packets_dropped,
        "probe drop counter disagrees with SimReport"
    );
    assert_eq!(
        metrics.totals.misroutes, report.deflections,
        "probe misroute counter disagrees with SimReport"
    );

    std::fs::create_dir_all(out_dir).expect("create output directory");
    let json_path = out_dir.join(if full_metrics {
        "metrics.json"
    } else {
        "totals.json"
    });
    let events_path = out_dir.join("events.txt");
    let t = &metrics.totals;
    let json = if full_metrics {
        metrics.to_json()
    } else {
        format!(
            "{{\n  \"nodes\": {},\n  \"flits_forwarded\": {},\n  \"vc_allocations\": {},\n  \
             \"alloc_conflicts\": {},\n  \"credit_stalls\": {},\n  \"preemptions\": {},\n  \
             \"packets_dropped\": {},\n  \"misroutes\": {},\n  \"packets_injected\": {},\n  \
             \"packets_delivered\": {},\n  \"occupancy_integral\": {},\n  \
             \"trace_recorded\": {}\n}}\n",
            metrics.nodes,
            t.flits_forwarded,
            t.vc_allocations,
            t.alloc_conflicts,
            t.credit_stalls,
            t.preemptions,
            t.packets_dropped,
            t.misroutes,
            t.packets_injected,
            t.packets_delivered,
            t.occupancy_integral,
            metrics.trace_recorded,
        )
    };
    let events = metrics.trace.to_text();
    // The trace must survive its own text format round-trip.
    let reread = EventTrace::from_text(&events).expect("trace round-trips");
    assert_eq!(reread.len(), metrics.trace.len());
    std::fs::write(&json_path, &json).expect("write metrics.json");
    std::fs::write(&events_path, &events).expect("write events.txt");

    println!(
        "wrote {} ({} bytes) and {} ({} events retained of {} recorded)",
        json_path.display(),
        json.len(),
        events_path.display(),
        metrics.trace.len(),
        metrics.trace_recorded,
    );
    println!(
        "totals: forwarded {} injected {} delivered {} stalls {} conflicts {}",
        metrics.totals.flits_forwarded,
        metrics.totals.packets_injected,
        metrics.totals.packets_delivered,
        metrics.totals.credit_stalls,
        metrics.totals.alloc_conflicts,
    );
}

fn main() {
    let shards = or_exit(shards_env());
    let out_dir = or_exit(dump_args(&[]))
        .out
        .unwrap_or_else(|| PathBuf::from("target/probe"));

    // The paper's 16-tile baseline, at the historical rate so the
    // committed golden bytes are stable across this binary's growth.
    dump(&out_dir, 4, 0.3, true, shards);
    // The 256-tile network, well below its bisection-limited saturation
    // (~0.5 flits/node/cycle) so the dump stays fast and drain-clean.
    dump(&out_dir.join("k16"), 16, 0.1, false, shards);
}
