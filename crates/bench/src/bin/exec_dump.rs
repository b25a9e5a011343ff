//! Deterministic executor dump for the CI executor-equivalence gate.
//!
//! Evaluates a fixed three-point load batch on the 256-tile k = 16
//! folded torus and writes the full `LoadPoint` reports (pretty debug
//! rendering — every counter, percentile, and energy figure) to an
//! output file (first argument, default `target/exec-dump.txt`). With
//! `--serial` the batch bypasses the pool entirely and evaluates each
//! point in order on the calling thread; otherwise it goes through a
//! fresh `SimPool` sized by `--exec-workers <n>` (default: available
//! parallelism), exercising the two-level scheduler's wave plan and
//! shard budgets. Scheduling decisions are printed to stdout for the
//! log; the output file must be byte-identical between the serial and
//! every pooled invocation — CI runs the pooled one with
//! `--exec-workers 8` and diffs the files.

use std::path::PathBuf;
use std::sync::Arc;

use ocin_bench::{exec_workers_arg, or_exit};
use ocin_core::{NetworkConfig, TopologySpec};
use ocin_sim::{LoadSweep, SimConfig, SimPool};
use ocin_traffic::{TrafficPattern, Workload};

/// The fixed batch: a head load plus a two-point tail so the wave plan
/// exercises both a budget-1 wave and an under-subscribed one at any
/// worker count > 1.
const LOADS: [f64; 3] = [0.05, 0.1, 0.2];

fn main() {
    let out: PathBuf = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .map_or_else(|| PathBuf::from("target/exec-dump.txt"), PathBuf::from)
        .clone();
    let serial = std::env::args().any(|a| a == "--serial");

    let sweep = LoadSweep::new(
        NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 16 }),
        SimConfig::quick(),
        Workload::new(256, 16, TrafficPattern::Uniform),
    );
    let points = if serial {
        println!("serial: evaluating {} points in order", LOADS.len());
        sweep.run_serial(&LOADS)
    } else {
        let workers = or_exit(exec_workers_arg());
        let pool = Arc::new(workers.map_or_else(SimPool::new, SimPool::with_workers));
        let points = sweep.with_pool(Arc::clone(&pool)).run(&LOADS);
        // Decisions go to the log, never the diffed artifact.
        println!("exec summary: {}", pool.exec_summary_json());
        points
    };

    // Pretty debug of the full reports: any scheduling-dependent bit
    // anywhere in a report breaks the byte-diff.
    let rendered = format!("{points:#?}\n");
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out, rendered).expect("write exec dump");
    println!("wrote {}", out.display());
}
