//! Engine wall-clock: the activity-gated cycle engine's stepping rate.
//!
//! Measures the cycle engine's stepping rate (cycles/sec and
//! flit-hops/sec) at 0.1×, 0.5×, and 0.9× of each flow-control method's
//! saturation load on the folded torus. The engine visits only the
//! entities with work each cycle; debug builds audit that every skipped
//! one had none (DESIGN.md §3.13), so the rate here is the only thing
//! this binary measures. The flow-control table runs at the paper's k = 4 by default;
//! pass `--radix <k>` (or set `OCIN_RADIX`) to run it at another radix.
//! A radix-scaling sweep over k ∈ {4, 16, 32} always runs afterwards,
//! reporting the headline flit-hops/sec at 1024 tiles, followed by a
//! shard-scaling sweep stepping the same k = 32 point on 1/2/4/8
//! worker threads (bit-identical reports required; wall clock is the
//! only thing allowed to move), and a two-level-executor sweep pitting
//! the full `SimPool` scheduler (idle workers become shard budgets)
//! against a budget-capped pool on a lone k = 32 point and a k = 16
//! saturation search (`--exec-workers <n>` / `OCIN_EXEC_WORKERS` size
//! the pool). Set `OCIN_STEP_OUT` to also write the numbers as JSON
//! (the perf-snapshot CI job folds that file into `BENCH_<sha>.json`).

use std::time::Instant;

use ocin_bench::{
    banner, check, exec_workers_arg, f1, or_exit, probe_enabled, quick_mode, radix_arg,
    write_metrics,
};
use ocin_core::{FlowControl, Network, NetworkConfig, PacketSpec, ProbeConfig, TopologySpec};
use ocin_sim::{PointSpec, ShardedSimulation, SimConfig, SimPool, Simulation, Table};
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
    banner(
        "exp_step_throughput",
        "engine",
        "the activity-gated engine steps 1024 tiles, across shard counts and executor budgets",
    );

    let k = or_exit(radix_arg(4));
    let nodes = k * k;
    let cycles: u64 = if quick_mode() { 2_000 } else { 20_000 };
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

    // Shard scaling: the same k = 32 point stepped by 1/2/4/8 worker
    // threads under conservative lookahead synchronization. Reports
    // must be bit-identical at every shard count (hard check); the
    // 4-shard flit-hops/sec speedup is the headline tracked in
    // BENCH_<sha>.json, soft-reported here because it needs free cores.
    println!("\nshard scaling, k = 32 folded torus, virtual-channel flow control\n");
    let mut sht = Table::new(&["shards", "wall s", "Mhop/s", "speedup"]);
    let mut shard_rows = Vec::new();
    let shard_cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: cycles,
        drain_cycles: 0,
        seed: 0xB19_B19,
    };
    let shard_wl = Workload::new(32 * 32, 32, TrafficPattern::Uniform).injection(
        InjectionProcess::Bernoulli {
            flit_rate: scaling_load(32),
        },
    );
    let mut shard_reference: Option<ocin_sim::SimReport> = None;
    let mut shards_equal = true;
    let mut wall_1 = 0.0f64;
    let mut speedup_4 = 0.0f64;
    for shards in [1usize, 2, 4, 8] {
        let sim = Simulation::new(
            NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 32 }),
            shard_cfg,
        )
        .expect("valid config")
        .with_workload(&shard_wl);
        let mut sharded = ShardedSimulation::new(sim, shards);
        let start = Instant::now();
        let report = sharded.run();
        let wall = start.elapsed().as_secs_f64();
        if shards == 1 {
            wall_1 = wall;
        }
        let speedup = wall_1 / wall;
        if shards == 4 {
            speedup_4 = speedup;
        }
        match &shard_reference {
            None => shard_reference = Some(report.clone()),
            Some(reference) => shards_equal &= *reference == report,
        }
        let hops_per_sec = report.energy.flit_hops as f64 / wall;
        sht.row(&[
            shards.to_string(),
            format!("{wall:.3}"),
            format!("{:.2}", hops_per_sec / 1e6),
            format!("{speedup:.2}x"),
        ]);
        shard_rows.push(format!(
            "    {{\"radix\": 32, \"shards\": {shards}, \"cycles\": {cycles}, \
             \"flit_hops\": {}, \"wall_seconds\": {wall:.6}, \
             \"flit_hops_per_sec\": {hops_per_sec:.1}, \"speedup_vs_1\": {speedup:.3}}}",
            report.energy.flit_hops,
        ));
    }
    println!("{}", sht.render());

    check(
        shards_equal,
        "sharded reports are bit-identical at 1/2/4/8 shards",
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    check(
        speedup_4 > 1.5 || cores < 4,
        &format!("4-shard speedup {speedup_4:.2}x on {cores} cores (target >1.5x with >=4 cores)"),
    );

    // Two-level executor: the same k = 32 point submitted as a
    // one-point batch to a budget-capped pool (every point unsharded —
    // the pre-executor point-parallel baseline) and to the full
    // executor, whose idle workers become that point's shard budget.
    // Both must produce bit-identical reports; wall clock is the only
    // thing allowed to move, and only when real cores exist.
    println!("\ntwo-level executor, lone k = 32 point + k = 16 saturation search\n");
    let workers = or_exit(exec_workers_arg());
    let exec_cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: cycles,
        drain_cycles: 0,
        seed: 0xB19_B19,
    };
    let point_spec = PointSpec::new(
        NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 32 }),
        exec_cfg,
        Workload::new(32 * 32, 32, TrafficPattern::Uniform),
        scaling_load(32),
    );
    let time_point = |pool: SimPool| {
        let start = Instant::now();
        let point = pool
            .run(std::slice::from_ref(&point_spec))
            .pop()
            .expect("one point");
        let wall = start.elapsed().as_secs_f64();
        let shards = pool.exec_decisions()[0][0].shards;
        (wall, shards, point)
    };
    let (wall_capped, _, point_capped) =
        time_point(SimPool::with_workers(workers).with_budget_cap(1));
    let (wall_exec, exec_shards, point_exec) = time_point(SimPool::with_workers(workers));
    let exec_point_equal = point_capped == point_exec;
    let point_speedup = wall_capped / wall_exec;
    let mut et = Table::new(&["pool", "shards", "wall s", "speedup"]);
    et.row(&[
        "budget cap 1".to_string(),
        "1".to_string(),
        format!("{wall_capped:.3}"),
        "-".to_string(),
    ]);
    et.row(&[
        format!("executor x{workers}"),
        exec_shards.to_string(),
        format!("{wall_exec:.3}"),
        format!("{point_speedup:.2}x"),
    ]);
    println!("{}", et.render());
    check(
        exec_point_equal,
        "executor-sharded point is bit-identical to the point-parallel baseline",
    );
    check(
        point_speedup > 1.5 || cores < 4,
        &format!(
            "lone k = 32 point speedup {point_speedup:.2}x on {cores} cores \
             (target >1.5x with >=4 cores)"
        ),
    );

    // Saturation search feeds the pool small probe batches whose tails
    // under-subscribe the workers — exactly where the budget matters.
    let sat_sweep = |pool: SimPool| {
        let s = ocin_sim::LoadSweep::new(
            NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 16 }),
            SimConfig::quick(),
            Workload::new(256, 16, TrafficPattern::Uniform),
        )
        .with_pool(std::sync::Arc::new(pool));
        let start = Instant::now();
        let load = s.saturation_load(0.05);
        (start.elapsed().as_secs_f64(), load)
    };
    let (sat_wall_capped, sat_capped) =
        sat_sweep(SimPool::with_workers(workers).with_budget_cap(1));
    let (sat_wall_exec, sat_exec) = sat_sweep(SimPool::with_workers(workers));
    let sat_speedup = sat_wall_capped / sat_wall_exec;
    println!(
        "saturation_load(k = 16): budget-capped {sat_wall_capped:.3}s, \
         executor {sat_wall_exec:.3}s ({sat_speedup:.2}x), load {sat_exec:.4}\n"
    );
    check(
        sat_capped.to_bits() == sat_exec.to_bits(),
        "saturation search lands on the same load under the executor",
    );
    check(
        sat_speedup > 1.05 || cores < 4,
        &format!(
            "saturation search speedup {sat_speedup:.2}x on {cores} cores \
             (target >1.05x with >=4 cores)"
        ),
    );

    // Telemetry overhead: the same fixed-seed point stepped with a
    // counters-only probe and with the windowed telemetry collector
    // riding along. Telemetry must be nearly free — the perf-snapshot
    // job folds both wall clocks into BENCH_<sha>.json and warns past a
    // 10% budget. Each leg takes the faster of two runs to shave
    // scheduler noise off the short quick-mode windows.
    println!("\ntelemetry overhead, k = {k} folded torus, counters-only vs telemetry probe\n");
    let telemetry_cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: cycles,
        drain_cycles: 0,
        seed: 0xB19_B19,
    };
    let telemetry_wl =
        Workload::new(nodes, k, TrafficPattern::Uniform).injection(InjectionProcess::Bernoulli {
            flit_rate: 0.5 * saturation(FlowControl::VirtualChannel) * sat_scale,
        });
    let time_probe = |pc: ProbeConfig| {
        let mut best = f64::MAX;
        let mut report = None;
        for _ in 0..2 {
            let mut sim = Simulation::new(
                NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k }),
                telemetry_cfg,
            )
            .expect("valid config")
            .with_workload(&telemetry_wl)
            .with_probe(pc);
            let start = Instant::now();
            report = Some(sim.run());
            best = best.min(start.elapsed().as_secs_f64());
        }
        (best, report.expect("ran twice"))
    };
    let (wall_off, rep_off) = time_probe(ProbeConfig::counters());
    let (wall_on, rep_on) = time_probe(ProbeConfig::counters().with_telemetry(0));
    let overhead = wall_on / wall_off - 1.0;
    let mut tt = Table::new(&["telemetry", "wall s", "Mcyc/s", "overhead"]);
    for (name, wall) in [("off", wall_off), ("on", wall_on)] {
        tt.row(&[
            name.to_string(),
            format!("{wall:.3}"),
            format!("{:.2}", cycles as f64 / wall / 1e6),
            if name == "on" {
                format!("{:+.1}%", overhead * 100.0)
            } else {
                "-".to_string()
            },
        ]);
    }
    println!("{}", tt.render());
    let (mut stripped_off, mut stripped_on) = (rep_off, rep_on);
    stripped_off.metrics = None;
    stripped_on.metrics = None;
    check(
        stripped_off == stripped_on,
        "telemetry-probed report is bit-identical to counters-only outside the metrics",
    );
    check(
        overhead < 0.10,
        &format!(
            "telemetry overhead {:+.1}% within the 10% budget",
            overhead * 100.0
        ),
    );

    if let Some(path) = std::env::var_os("OCIN_STEP_OUT") {
        let json = format!(
            "{{\n  \"cycles\": {cycles},\n  \"radix\": {k},\n  \"points\": [\n{}\n  ],\n  \
             \"radix_scaling\": [\n{}\n  ],\n  \"shard_scaling\": [\n{}\n  ],\n  \
             \"exec\": {{\"workers\": {workers}, \"cores\": {cores}, \
             \"point_radix\": 32, \"point_shards\": {exec_shards}, \
             \"point_capped_wall_seconds\": {wall_capped:.6}, \
             \"point_exec_wall_seconds\": {wall_exec:.6}, \
             \"point_speedup\": {point_speedup:.3}, \
             \"point_identical\": {exec_point_equal}, \
             \"saturation_radix\": 16, \
             \"saturation_capped_wall_seconds\": {sat_wall_capped:.6}, \
             \"saturation_exec_wall_seconds\": {sat_wall_exec:.6}, \
             \"saturation_speedup\": {sat_speedup:.3}}},\n  \
             \"telemetry_overhead\": {{\"radix\": {k}, \"cycles\": {cycles}, \
             \"off_wall_seconds\": {wall_off:.6}, \"on_wall_seconds\": {wall_on:.6}, \
             \"overhead_frac\": {overhead:.6}}}\n}}\n",
            rows.join(",\n"),
            scaling_rows.join(",\n"),
            shard_rows.join(",\n")
        );
        let path = std::path::PathBuf::from(path);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create step output directory");
        }
        std::fs::write(&path, json).expect("write step-throughput JSON");
        println!("wrote {}", path.display());
    }

    if probe_enabled() {
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
            write_metrics(metrics);
        }
    }
}
