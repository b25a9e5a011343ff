//! Deterministic probe artifact dump for the CI determinism gate.
//!
//! Runs fixed-seed probed simulations (folded torus, uniform Bernoulli
//! traffic, trace ring enabled) and writes each run's
//! [`NetworkMetrics`] JSON and event-trace text under `--out <dir>`
//! (without it, only the summary lines are printed): the paper's k = 4
//! at the top level and the 256-tile k = 16 network under `k16/`. The
//! runs are configured identically on every invocation, and
//! `--shards <n>` (default 1) selects how many worker threads step each
//! network without being allowed to change a single byte of output — so
//! two invocations anywhere, at any shard count, must produce
//! byte-identical trees. Any other argument, or a shard count that is
//! not a positive integer, exits 2 before any output. CI runs it at
//! `--shards` 1, 2, 4 and 8 and diffs every tree against the committed
//! golden.
//!
//! [`NetworkMetrics`]: ocin_core::NetworkMetrics

use ocin_bench::{command_line, Args};
use ocin_core::{EventTrace, NetworkConfig, ProbeConfig, TopologySpec};
use ocin_sim::{ShardedSimulation, SimConfig, Simulation};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};

/// Runs the fixed-seed probed simulation for radix `k` at `flit_rate`
/// and writes artifacts under `--out`, in `sub`: always `events.txt`, plus
/// either the full per-router `metrics.json` (`full_metrics`) or a
/// compact `totals.json` of the network-wide counters — at k = 16 the
/// full per-router dump is megabytes and the totals pin the same
/// determinism surface at golden-committable size.
fn dump(args: &Args, sub: &str, k: usize, flit_rate: f64, full_metrics: bool) {
    // Fixed configuration: never varies with the command line.
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
    let report = ShardedSimulation::new(sim, args.shards).run();
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

    let t = &metrics.totals;
    let (json_name, json) = if full_metrics {
        ("metrics.json", metrics.to_json())
    } else {
        let totals = format!(
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
        );
        ("totals.json", totals)
    };
    let events = metrics.trace.to_text();
    // The trace must survive its own text format round-trip.
    let reread = EventTrace::from_text(&events).expect("trace round-trips");
    assert_eq!(reread.len(), metrics.trace.len());
    args.write(&format!("{sub}{json_name}"), &json);
    args.write(&format!("{sub}events.txt"), &events);

    println!(
        "k = {k}: {} events retained of {} recorded",
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
    let args = command_line(&["--out", "--shards"]);
    // The paper's 16-tile baseline, at the historical rate so the
    // committed golden bytes are stable across this binary's growth.
    dump(&args, "", 4, 0.3, true);
    // The 256-tile network, well below its bisection-limited saturation
    // (~0.5 flits/node/cycle) so the dump stays fast and drain-clean.
    dump(&args, "k16/", 16, 0.1, false);
}
