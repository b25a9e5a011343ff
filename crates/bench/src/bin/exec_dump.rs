//! Deterministic executor dump for the CI executor-equivalence gate.
//!
//! Evaluates a fixed three-point load batch on the 256-tile k = 16
//! folded torus and writes the full `LoadPoint` reports (pretty debug
//! rendering — every counter, percentile, and energy figure) to
//! `exec.txt` under `--out <dir>`. With `--serial` the batch bypasses
//! the pool entirely and evaluates each point in order on the calling
//! thread; otherwise it goes through a fresh `SimPool` sized by
//! `--exec-workers <n>` (default: available parallelism), exercising the
//! two-level scheduler's longest-first queue and shard budgets: on 8
//! workers the three points run side by side at 2 shards each, on 2
//! workers they queue at 1 shard. Any other argument exits 2.
//! Scheduling decisions are printed to stdout for the log; the output
//! file must be byte-identical between the serial and every pooled
//! invocation — CI runs the pooled one with `--exec-workers 8` and
//! `--exec-workers 2` and diffs the files.

use std::sync::Arc;

use ocin_bench::command_line;
use ocin_core::{NetworkConfig, TopologySpec};
use ocin_sim::{LoadSweep, SimConfig, SimPool};
use ocin_traffic::{TrafficPattern, Workload};

/// The fixed batch: fewer points than 8 workers (shard budgets above 1)
/// but more than 2 (a queue that a freed worker draws from).
const LOADS: [f64; 3] = [0.05, 0.1, 0.2];

fn main() {
    let args = command_line(&["--out", "--serial", "--exec-workers"]);

    let sweep = LoadSweep::new(
        NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 16 }),
        SimConfig::quick(),
        Workload::new(256, 16, TrafficPattern::Uniform),
    );
    let points = if args.serial {
        println!("serial: evaluating {} points in order", LOADS.len());
        sweep.run_serial(&LOADS)
    } else {
        let pool = Arc::new(
            args.exec_workers
                .map_or_else(SimPool::new, SimPool::with_workers),
        );
        let points = sweep.with_pool(Arc::clone(&pool)).run(&LOADS);
        // Decisions go to the log, never the diffed artifact.
        println!("exec summary: {}", pool.exec_summary_json());
        points
    };

    // Pretty debug of the full reports: any scheduling-dependent bit
    // anywhere in a report breaks the byte-diff.
    args.write("exec.txt", format!("{points:#?}\n"));
}
