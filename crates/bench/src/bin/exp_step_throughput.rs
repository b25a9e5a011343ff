//! Engine wall-clock: the activity-gated cycle engine's stepping rate.
//!
//! Measures the cycle engine's stepping rate (cycles/sec and
//! flit-hops/sec) at 0.1×, 0.5×, and 0.9× of each flow-control method's
//! saturation load on the folded torus. The engine visits only the
//! entities with work each cycle; debug builds audit that every skipped
//! one had none (DESIGN.md §3.13), so the rate here is the only thing
//! this binary measures. The flow-control table runs at the paper's k = 4 by default;
//! pass `--radix <k>` to run it at another radix.
//! A radix-scaling sweep over k ∈ {4, 16, 32} always runs afterwards,
//! reporting the headline flit-hops/sec at 1024 tiles. Pass
//! `--out <dir>` to also write the numbers as JSON to `step.json` there
//! (the perf-snapshot CI job folds that file into `BENCH_<sha>.json`);
//! every row's `flit_hops` is a deterministic counter, and the `--quick`
//! rows are committed in `results/golden/step/flit_hops.txt`.
//!
//! Sharded stepping, the pool's shard budgets and the probe layers are
//! timed by the `benchmark` package (`benchmark trace`:
//! `shard.speedup_2`, `exec.batch_speedup`,
//! `probe.telemetry_overhead_frac`).

use std::time::Instant;

use ocin_bench::{banner, check, command_line, f1, finish};
use ocin_core::{FlowControl, Network, NetworkConfig, PacketSpec, ProbeConfig, TopologySpec};
use ocin_sim::{SimConfig, Simulation, Table};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};

/// Radii of the always-run scaling sweep: the paper's 16-tile chip and
/// the 256- and 1024-tile networks the engine must stay fast at.
const SCALING_RADICES: [usize; 3] = [4, 16, 32];

/// Nominal saturation loads (flits/node/cycle) on the k = 4 folded
/// torus under uniform traffic, per flow-control method. The VC figure
/// is the measured 0.97 from `exp_latency_load` rounded down; dropping
/// and deflection saturate earlier (accepted throughput plateaus as
/// drops/misroutes absorb the offered excess).
fn saturation(fc: FlowControl) -> f64 {
    match fc {
        FlowControl::VirtualChannel => 0.95,
        FlowControl::Dropping => 0.30,
        FlowControl::Deflection => 0.45,
    }
}

/// A comfortably sub-saturation uniform load for radix `k`: bisection
/// bandwidth caps uniform throughput at ~8/k flits/node/cycle on the
/// folded torus, so a fixed per-node rate would jam larger networks.
fn scaling_load(k: usize) -> f64 {
    (4.0 / k as f64).min(0.9)
}

struct RunResult {
    wall_seconds: f64,
    flit_hops: u64,
}

/// Drives `cycles` network cycles of uniform Bernoulli traffic at
/// `flit_rate` on a radix-`k` folded torus, timing only the stepping
/// loop.
fn run(fc: FlowControl, k: usize, flit_rate: f64, cycles: u64) -> RunResult {
    let nodes = k * k;
    let cfg = NetworkConfig::paper_baseline()
        .with_topology(TopologySpec::FoldedTorus { k })
        .with_flow_control(fc);
    let mut net = Network::new(cfg).expect("valid config");
    let wl = Workload::new(nodes, k, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate });
    let mut generation = wl.generator(0xB19_B19);
    let start = Instant::now();
    for now in 0..cycles {
        for node in 0..nodes as u16 {
            if let Some(req) = generation.next_request(now, node.into()) {
                let _ = net.inject(&PacketSpec::new(node.into(), req.dst).payload_bits(256));
            }
        }
        net.step();
        for node in 0..nodes as u16 {
            net.drain_delivered(node.into());
        }
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    RunResult {
        wall_seconds,
        flit_hops: net.stats().energy.flit_hops,
    }
}

fn fc_name(fc: FlowControl) -> &'static str {
    match fc {
        FlowControl::VirtualChannel => "virtual_channel",
        FlowControl::Dropping => "dropping",
        FlowControl::Deflection => "deflection",
    }
}

fn main() {
    let args = command_line(&["--quick", "--probe", "--out", "--radix"]);
    banner(
        "exp_step_throughput",
        "engine",
        "the activity-gated engine steps 1024 tiles",
    );

    let k = args.radix;
    let nodes = k * k;
    let cycles: u64 = if args.quick { 2_000 } else { 20_000 };
    let fractions = [0.1, 0.5, 0.9];
    let methods = [
        FlowControl::VirtualChannel,
        FlowControl::Dropping,
        FlowControl::Deflection,
    ];

    println!("\n{cycles} cycles per run, uniform Bernoulli traffic, k = {k} folded torus\n");
    let mut t = Table::new(&["flow control", "load (xsat)", "Mcyc/s", "Mhop/s"]);
    let mut rows = Vec::new();
    // Saturation scales with the bisection cap at larger radices.
    let sat_scale = if k == 4 { 1.0 } else { scaling_load(k) };
    for fc in methods {
        for frac in fractions {
            let rate = frac * saturation(fc) * sat_scale;
            let r = run(fc, k, rate, cycles);
            t.row(&[
                fc_name(fc).to_string(),
                f1(frac),
                format!("{:.2}", cycles as f64 / r.wall_seconds / 1e6),
                format!("{:.2}", r.flit_hops as f64 / r.wall_seconds / 1e6),
            ]);
            rows.push(format!(
                "    {{\"flow_control\": \"{}\", \"radix\": {k}, \"load_fraction\": {frac}, \
                 \"cycles\": {cycles}, \"flit_hops\": {}, \"gated_wall_seconds\": {:.6}}}",
                fc_name(fc),
                r.flit_hops,
                r.wall_seconds,
            ));
        }
    }
    println!("{}", t.render());

    // Radix scaling: the same engine from 16 to 1024 tiles. The k = 32
    // flit-hops/sec figure is the headline scaling metric tracked in
    // BENCH_<sha>.json.
    println!("\nradix scaling, virtual-channel flow control, uniform Bernoulli\n");
    let mut st = Table::new(&["radix", "tiles", "load", "Mhop/s", "wall s"]);
    let mut scaling_rows = Vec::new();
    let mut hops_per_sec_k32 = 0.0;
    for sk in SCALING_RADICES {
        let rate = scaling_load(sk);
        let r = run(FlowControl::VirtualChannel, sk, rate, cycles);
        let hops_per_sec = r.flit_hops as f64 / r.wall_seconds;
        if sk == 32 {
            hops_per_sec_k32 = hops_per_sec;
        }
        st.row(&[
            sk.to_string(),
            (sk * sk).to_string(),
            format!("{rate:.3}"),
            format!("{:.2}", hops_per_sec / 1e6),
            format!("{:.3}", r.wall_seconds),
        ]);
        scaling_rows.push(format!(
            "    {{\"radix\": {sk}, \"nodes\": {}, \"load\": {rate:.6}, \
             \"cycles\": {cycles}, \"flit_hops\": {}, \
             \"gated_flit_hops_per_sec\": {:.1}, \"gated_wall_seconds\": {:.6}}}",
            sk * sk,
            r.flit_hops,
            hops_per_sec,
            r.wall_seconds,
        ));
    }
    println!("{}", st.render());

    check(
        hops_per_sec_k32 > 0.0,
        &format!(
            "k = 32 (1024 tiles) sustains {:.2} Mflit-hops/sec",
            hops_per_sec_k32 / 1e6
        ),
    );

    let json = format!(
        "{{\n  \"cycles\": {cycles},\n  \"radix\": {k},\n  \"points\": [\n{}\n  ],\n  \
         \"radix_scaling\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        scaling_rows.join(",\n")
    );
    args.write("step.json", json);

    if args.probe {
        // One probed point so the smoke job's metrics convention holds;
        // probes are observational, so counters match the runs above.
        let mut sim = Simulation::new(
            NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k }),
            SimConfig::quick().with_seed(0xB19_B19),
        )
        .expect("valid config")
        .with_workload(&Workload::new(nodes, k, TrafficPattern::Uniform).injection(
            InjectionProcess::Bernoulli {
                flit_rate: 0.25 * sat_scale,
            },
        ))
        .with_probe(ProbeConfig::default());
        let report = sim.run();
        if let Some(metrics) = report.metrics.as_ref() {
            args.write_metrics(metrics);
        }
    }
    finish();
}
