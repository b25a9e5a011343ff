//! # ocin-bench — experiment harnesses
//!
//! One binary per figure / quantitative claim of the paper (see
//! `DESIGN.md` §4 for the index and `EXPERIMENTS.md` for recorded
//! results). Wall-clock performance is measured by the `benchmark/`
//! package at the repository root, not here.
//!
//! Run an experiment with e.g.
//!
//! ```text
//! cargo run --release -p ocin-bench --bin exp_power_topology
//! ```
//!
//! Set `OCIN_QUICK=1` to shorten simulation windows (used by the test
//! suite to smoke-run every experiment).

use ocin_core::NetworkMetrics;
use ocin_sim::SimConfig;

/// Simulation phases for experiments: standard, or quick when
/// `OCIN_QUICK` is set.
pub fn sim_config() -> SimConfig {
    if quick_mode() {
        SimConfig::quick()
    } else {
        SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 8_000,
            drain_cycles: 16_000,
            seed: 0x0C1,
        }
    }
}

/// Whether `OCIN_QUICK=1` (shorter runs, same shapes).
pub fn quick_mode() -> bool {
    std::env::var("OCIN_QUICK").is_ok_and(|v| v == "1")
}

/// Whether probing was requested: `--probe` on the command line or
/// `OCIN_PROBE=1`. Probed runs attach an observability probe and write
/// a `metrics.json` snapshot (see [`write_metrics`]).
pub fn probe_enabled() -> bool {
    std::env::args().any(|a| a == "--probe") || std::env::var("OCIN_PROBE").is_ok_and(|v| v == "1")
}

/// The torus radix an experiment should run at: `--radix <k>` on the
/// command line, else `OCIN_RADIX`, else `default` (the paper's k = 4).
/// Experiments use this to scale from the paper's 16-tile chip to the
/// k = 16 (256-tile) and k = 32 (1024-tile) networks.
///
/// # Panics
///
/// Panics if the flag or variable is present but not a positive integer
/// — a misconfigured sweep should fail loudly, not fall back silently.
pub fn radix_arg(default: usize) -> usize {
    let mut args = std::env::args();
    let from_cli = args
        .by_ref()
        .find(|a| a == "--radix")
        .and_then(|_| args.next());
    let raw = from_cli.or_else(|| std::env::var("OCIN_RADIX").ok());
    match raw {
        None => default,
        Some(s) => {
            let k: usize = s.parse().expect("radix must be a positive integer");
            assert!(k >= 2, "radix must be at least 2");
            k
        }
    }
}

/// The executor worker count an experiment should size its `SimPool`
/// with: `--exec-workers <n>` on the command line, else
/// `OCIN_EXEC_WORKERS`, else the machine's available parallelism (the
/// same resolution `ocin_sim::exec::default_workers` performs).
///
/// # Panics
///
/// Panics if the flag is present but not a positive integer — a
/// misconfigured run should fail loudly, not fall back silently.
pub fn exec_workers_arg() -> usize {
    let mut args = std::env::args();
    let from_cli = args
        .by_ref()
        .find(|a| a == "--exec-workers")
        .and_then(|_| args.next());
    match from_cli {
        Some(s) => {
            let w: usize = s.parse().expect("exec workers must be a positive integer");
            assert!(w >= 1, "exec workers must be at least 1");
            w
        }
        None => ocin_sim::exec::default_workers(),
    }
}

/// Where probed experiments write their metrics snapshot:
/// `OCIN_METRICS_OUT` if set, else `metrics.json` in the working
/// directory.
pub fn metrics_path() -> std::path::PathBuf {
    std::env::var_os("OCIN_METRICS_OUT").map_or_else(
        || std::path::PathBuf::from("metrics.json"),
        std::path::PathBuf::from,
    )
}

/// Writes `metrics` as deterministic JSON to [`metrics_path`] and
/// prints a one-line summary.
///
/// # Panics
///
/// Panics if the file cannot be written (the experiment's output is the
/// point of the run).
pub fn write_metrics(metrics: &NetworkMetrics) {
    let path = metrics_path();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create metrics output directory");
    }
    std::fs::write(&path, metrics.to_json()).expect("write metrics.json");
    let lat = metrics.aggregate_latency();
    println!(
        "probe: wrote {} ({} routers, {} flits forwarded, {} delivered, mean latency {:.2})",
        path.display(),
        metrics.nodes,
        metrics.totals.flits_forwarded,
        metrics.totals.packets_delivered,
        lat.mean(),
    );
}

/// Prints the experiment banner: id, paper section, and the claim being
/// reproduced.
pub fn banner(id: &str, paper_ref: &str, claim: &str) {
    println!("================================================================");
    println!("{id}  [{paper_ref}]");
    println!("claim: {claim}");
    println!("================================================================");
}

/// Prints a labelled check line, e.g. `[ok] torus/mesh ratio 1.09 < 1.15`.
pub fn check(ok: bool, what: &str) {
    println!("[{}] {}", if ok { "ok" } else { "MISS" }, what);
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.12349), "0.123");
        assert_eq!(f1(9.96), "10.0");
    }

    #[test]
    fn sim_config_is_quick_under_env() {
        // Can't mutate the environment safely in parallel tests; just
        // exercise both branches directly.
        assert!(SimConfig::quick().measure_cycles < sim_config().measure_cycles || quick_mode());
    }
}
