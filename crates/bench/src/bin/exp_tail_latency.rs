//! Tail latency under bursty traffic: exact quantiles, windowed time
//! series, and transient detection.
//!
//! The paper's argument for structured networks is about *guarantees* —
//! reserved bandwidth, bounded interference — and guarantees live in
//! the tail, not the mean. This experiment drives the 256-tile (k = 16)
//! folded torus with two-state ON/OFF bursty traffic and a Bernoulli
//! control at the same mean load, and compares their latency
//! distributions with the exact quantile histograms from the telemetry
//! layer: same mean, very different p99.9. A second, overdriven run
//! exercises the saturation-onset detector on the windowed series.
//!
//! Pass `--out <dir>` to also write the deterministic telemetry exports
//! (`series.txt`, `series.json`, `trace.json`, `slo.txt`) of a
//! fixed-seed run whose configuration never varies with `--quick` —
//! the CI determinism gate byte-diffs two such trees (at different
//! `--shards`) against each other and against the committed golden.
//! `--shards <n>` (default 1) sets how many threads step each network;
//! it may not change a byte of output. With `--probe` the bursty run's
//! `metrics.json` joins the exports.

use ocin_bench::{banner, check, command_line, f1, f2, finish, Args};
use ocin_core::{NetworkConfig, ProbeConfig, TelemetryReport, TopologySpec};
use ocin_sim::{LatencyReport, ShardedSimulation, SimConfig, SimReport, Simulation, Table};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};

/// Radix of the experiment network (256 tiles).
const K: usize = 16;

/// Mean offered load, flits/node/cycle — comfortably below the k = 16
/// torus's bisection-limited uniform saturation (~0.5).
const MEAN_LOAD: f64 = 0.3;

/// Telemetry window width for the comparison runs: finer than the
/// default so short quick-mode runs still produce a usable series.
const WINDOW: u64 = 256;

/// The bursty process: ON half the time (symmetric switching), so the
/// ON rate is twice the mean and bursts last ~100 cycles.
fn bursty(mean: f64) -> InjectionProcess {
    InjectionProcess::BurstyOnOff {
        flit_rate_on: 2.0 * mean,
        p_on_to_off: 0.01,
        p_off_to_on: 0.01,
    }
}

/// Runs uniform traffic with `injection` on the k = 16 folded torus
/// with telemetry attached, on `shards` shards.
fn run(injection: InjectionProcess, sim_cfg: SimConfig, shards: usize) -> SimReport {
    let wl = Workload::new(K * K, K, TrafficPattern::Uniform).injection(injection);
    let sim = Simulation::new(
        NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: K }),
        sim_cfg,
    )
    .expect("valid config")
    .with_workload(&wl)
    .with_probe(ProbeConfig::counters().with_telemetry(WINDOW));
    ShardedSimulation::new(sim, shards).run()
}

/// The telemetry report a probed run must carry.
fn telemetry(report: &SimReport) -> &TelemetryReport {
    report
        .metrics
        .as_ref()
        .expect("probed run carries metrics")
        .telemetry
        .as_ref()
        .expect("telemetry-probed run carries the report")
}

/// Asserts the window series sums exactly to the whole-run probe
/// totals — the reconciliation invariant of the telemetry layer.
fn check_reconciliation(report: &SimReport) -> bool {
    let metrics = report.metrics.as_ref().expect("probed");
    let t = telemetry(report);
    let sum = |f: fn(&ocin_core::WindowRow) -> u64| t.windows.iter().map(f).sum::<u64>();
    sum(|w| w.packets_injected) == metrics.totals.packets_injected
        && sum(|w| w.packets_delivered) == metrics.totals.packets_delivered
        && sum(|w| w.flits_forwarded) == metrics.totals.flits_forwarded
        && sum(|w| w.credit_stalls) == metrics.totals.credit_stalls
        && sum(|w| w.preemptions) == metrics.totals.preemptions
        && sum(|w| w.occupancy_integral) == metrics.totals.occupancy_integral
}

/// Writes the four deterministic exports of `report`'s telemetry under
/// `--out`.
fn export(args: &Args, report: &SimReport) {
    let t = telemetry(report);
    args.write("series.txt", t.to_text());
    args.write("series.json", t.to_json());
    args.write("trace.json", t.to_perfetto_json());
    args.write("slo.txt", t.slo_table());
}

fn main() {
    let args = command_line(&["--quick", "--probe", "--out", "--shards"]);
    let shards = args.shards;
    banner(
        "exp_tail_latency",
        "§2, §4",
        "bursty traffic inflates the latency tail far beyond the mean; telemetry pins the onset",
    );

    let sim_cfg = if args.quick {
        SimConfig::quick().with_seed(0x7A11)
    } else {
        SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 8_000,
            drain_cycles: 16_000,
            seed: 0x7A11,
        }
    };

    // --- bursty vs uniform at the same mean load -------------------
    println!("\nk = {K} folded torus, uniform pattern, mean load {MEAN_LOAD} flits/node/cycle");
    println!("window {WINDOW} cycles; quantiles from the exact telemetry histograms\n");
    let uniform = run(
        InjectionProcess::Bernoulli {
            flit_rate: MEAN_LOAD,
        },
        sim_cfg,
        shards,
    );
    let bursty_run = run(bursty(MEAN_LOAD), sim_cfg, shards);

    let mut t = Table::new(&[
        "injection",
        "count",
        "mean",
        "p50",
        "p99",
        "p99.9",
        "max",
        "exact",
    ]);
    let mut tails = Vec::new();
    for (name, report) in [("bernoulli", &uniform), ("bursty on/off", &bursty_run)] {
        let h = telemetry(report).aggregate_latency();
        let lr = LatencyReport::from_quantiles(&h);
        t.row(&[
            name.into(),
            lr.count.to_string(),
            f2(lr.mean),
            f1(lr.p50),
            f1(lr.p99),
            f1(lr.p999),
            f1(lr.max),
            if h.is_exact() {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
        tails.push(lr);
    }
    println!("{t}");

    println!("per-class SLO grid, bursty run:\n");
    println!("{}", telemetry(&bursty_run).slo_table());

    let (uni, bur) = (&tails[0], &tails[1]);
    check(
        bur.p999 > bur.p50,
        &format!(
            "bursty p99.9 ({:.0}) exceeds its p50 ({:.0})",
            bur.p999, bur.p50
        ),
    );
    check(
        bur.p999 >= uni.p999,
        &format!(
            "bursty p99.9 ({:.0}) at least the Bernoulli p99.9 ({:.0}) at equal mean load",
            bur.p999, uni.p999
        ),
    );
    check(
        check_reconciliation(&uniform) && check_reconciliation(&bursty_run),
        "window series sums reconcile exactly with whole-run probe totals",
    );
    check(
        telemetry(&bursty_run).congestion_spans.len() >= telemetry(&uniform).congestion_spans.len(),
        "bursty traffic sustains at least as many congested link spans",
    );

    // --- saturation onset on an overdriven run ---------------------
    // ON rate 1.4 with long bursts: the mean (0.7) sits well above the
    // bisection cap, so source backlogs grow window over window once
    // the first long burst lands.
    println!("saturation-onset detection, overdriven bursty load:\n");
    let over = run(
        InjectionProcess::BurstyOnOff {
            flit_rate_on: 1.4,
            p_on_to_off: 0.005,
            p_off_to_on: 0.02,
        },
        sim_cfg,
        shards,
    );
    let onset = telemetry(&over).saturation_onset(3, 1);
    match onset {
        Some(cycle) => {
            println!("  backlog grew for 3 consecutive windows starting at cycle {cycle}");
        }
        None => println!("  no sustained backlog growth detected"),
    }
    check(
        onset.is_some(),
        "saturation onset detected under overdriven bursty load",
    );
    check(
        check_reconciliation(&over),
        "overdriven run's window series reconciles with probe totals",
    );

    // --- deterministic export for the CI determinism gate ----------
    if args.out.is_some() {
        // Fixed configuration: never varies with --quick; --shards picks
        // the worker count without being allowed to change a byte.
        println!("\ndeterministic export (fixed seed, fixed phases):\n");
        let fixed = run(
            bursty(MEAN_LOAD),
            SimConfig {
                warmup_cycles: 200,
                measure_cycles: 2_000,
                drain_cycles: 4_000,
                seed: 0xC0FFEE,
            },
            shards,
        );
        export(&args, &fixed);
        check(
            check_reconciliation(&fixed),
            "exported run's window series reconciles with probe totals",
        );
    }

    if args.probe {
        // Smoke-job convention: a probed point writes metrics.json.
        args.write_metrics(bursty_run.metrics.as_ref().expect("probed"));
    }
    finish();
}
