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

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// A bad value in a flag or environment variable an experiment reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// The flag is the last argument, with no value after it.
    MissingValue {
        /// The flag, e.g. `--radix`.
        flag: &'static str,
    },
    /// The value is not a non-negative integer.
    NotANumber {
        /// Where the value came from: a flag or a variable name.
        source: &'static str,
        /// The text as given.
        value: String,
    },
    /// The value is below the smallest one that makes sense.
    TooSmall {
        /// Where the value came from: a flag or a variable name.
        source: &'static str,
        /// The value as given.
        value: usize,
        /// The smallest accepted value.
        min: usize,
    },
    /// A flag the binary does not take.
    UnknownFlag {
        /// The flag as given.
        flag: String,
    },
    /// A positional argument after the one the binary takes.
    ExtraArgument {
        /// The argument as given.
        value: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue { flag } => write!(f, "{flag} needs a value"),
            ArgError::NotANumber { source, value } => {
                write!(f, "{source}: '{value}' is not a positive integer")
            }
            ArgError::TooSmall { source, value, min } => {
                write!(f, "{source}: {value} is below the minimum of {min}")
            }
            ArgError::UnknownFlag { flag } => write!(f, "unknown flag '{flag}'"),
            ArgError::ExtraArgument { value } => {
                write!(f, "unexpected argument '{value}': one output path only")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Returns `r`'s value, or prints its error and exits with status 2
/// (a bad command line or speed setting), the convention of every
/// experiment binary.
pub fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The value after `flag` in `args`: `Ok(None)` if the flag is absent.
fn flag_value(
    mut args: impl Iterator<Item = String>,
    flag: &'static str,
) -> Result<Option<String>, ArgError> {
    match args.by_ref().find(|a| a == flag) {
        None => Ok(None),
        Some(_) => args.next().map(Some).ok_or(ArgError::MissingValue { flag }),
    }
}

/// Parses `value` as an integer of at least `min`.
fn at_least(source: &'static str, value: &str, min: usize) -> Result<usize, ArgError> {
    let n: usize = value.parse().map_err(|_| ArgError::NotANumber {
        source,
        value: value.to_string(),
    })?;
    if n < min {
        return Err(ArgError::TooSmall {
            source,
            value: n,
            min,
        });
    }
    Ok(n)
}

/// The torus radix an experiment should run at: `--radix <k>` on the
/// command line, else `OCIN_RADIX`, else `default` (the paper's k = 4).
/// Experiments use this to scale from the paper's 16-tile chip to the
/// k = 16 (256-tile) and k = 32 (1024-tile) networks.
///
/// # Errors
///
/// An [`ArgError`] if the flag or variable is present but not an
/// integer of at least 2 — a misconfigured sweep should fail loudly, not
/// fall back silently.
pub fn radix_arg(default: usize) -> Result<usize, ArgError> {
    radix_from(std::env::args(), std::env::var("OCIN_RADIX").ok(), default)
}

fn radix_from(
    args: impl Iterator<Item = String>,
    env: Option<String>,
    default: usize,
) -> Result<usize, ArgError> {
    match flag_value(args, "--radix")? {
        Some(v) => at_least("--radix", &v, 2),
        None => env.map_or(Ok(default), |v| at_least("OCIN_RADIX", &v, 2)),
    }
}

/// The command line of a dump binary (`exec_dump`, `probe_dump`):
/// one optional output path and the flags the binary takes, in any
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DumpArgs {
    /// The one positional argument that is not a flag's value.
    pub out: Option<std::path::PathBuf>,
    /// `--serial`: evaluate in order on the calling thread.
    pub serial: bool,
    /// `--exec-workers <n>`: the pool's worker count (`None`: a default
    /// pool, one worker per unit of available parallelism).
    pub exec_workers: Option<usize>,
}

/// Parses the running dump binary's command line, which may use the
/// flags in `flags` (`--serial`, `--exec-workers`).
///
/// # Errors
///
/// An [`ArgError`] for a flag outside `flags`, a second positional
/// argument, or an `--exec-workers` value that is not a positive
/// integer — a misconfigured run should fail loudly, not write
/// somewhere else.
pub fn dump_args(flags: &[&str]) -> Result<DumpArgs, ArgError> {
    dump_args_from(std::env::args().skip(1), flags)
}

fn dump_args_from(
    mut args: impl Iterator<Item = String>,
    flags: &[&str],
) -> Result<DumpArgs, ArgError> {
    let mut got = DumpArgs::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serial" if flags.contains(&"--serial") => got.serial = true,
            "--exec-workers" if flags.contains(&"--exec-workers") => {
                let flag = "--exec-workers";
                let value = args.next().ok_or(ArgError::MissingValue { flag })?;
                got.exec_workers = Some(at_least(flag, &value, 1)?);
            }
            _ if arg.starts_with('-') => return Err(ArgError::UnknownFlag { flag: arg }),
            _ if got.out.is_some() => return Err(ArgError::ExtraArgument { value: arg }),
            _ => got.out = Some(arg.into()),
        }
    }
    Ok(got)
}

/// The shard count a golden-diffed binary steps its networks on:
/// `OCIN_SHARDS`, else 1 (a speed setting: DESIGN.md §3.15).
///
/// # Errors
///
/// An [`ArgError`] naming the variable and the value if it is set to
/// anything but a positive integer: a typo must not quietly run one
/// shard where several were asked for.
pub fn shards_env() -> Result<usize, ArgError> {
    shards_from(std::env::var_os("OCIN_SHARDS"))
}

fn shards_from(value: Option<std::ffi::OsString>) -> Result<usize, ArgError> {
    value.map_or(Ok(1), |v| at_least("OCIN_SHARDS", &v.to_string_lossy(), 1))
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

/// `[MISS]` lines printed so far by [`check`].
static MISSES: AtomicUsize = AtomicUsize::new(0);

/// Prints a labelled check line, e.g. `[ok] torus/mesh ratio 1.09 < 1.15`.
/// A failed check prints `[MISS]` and is counted: [`finish`] then exits 1.
pub fn check(ok: bool, what: &str) {
    if !ok {
        MISSES.fetch_add(1, Ordering::Relaxed);
    }
    println!("[{}] {}", if ok { "ok" } else { "MISS" }, what);
}

/// Ends an experiment binary, after everything is printed: exits 1 if
/// any [`check`] printed `[MISS]`, so a failed paper claim fails the run.
pub fn finish() {
    let misses = MISSES.load(Ordering::Relaxed);
    if misses > 0 {
        // Best effort: the process is exiting with the failure anyway.
        let _ = std::io::stdout().flush();
        eprintln!("{misses} check(s) missed");
        std::process::exit(1);
    }
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
    fn only_failed_checks_count_as_misses() {
        let before = MISSES.load(Ordering::Relaxed);
        check(true, "passes");
        assert_eq!(MISSES.load(Ordering::Relaxed), before);
        check(false, "fails");
        assert_eq!(MISSES.load(Ordering::Relaxed), before + 1);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.12349), "0.123");
        assert_eq!(f1(9.96), "10.0");
    }

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        let v: Vec<String> = list.iter().map(ToString::to_string).collect();
        v.into_iter()
    }

    #[test]
    fn radix_resolves_flag_then_env_then_default() {
        assert_eq!(radix_from(args(&["exp"]), None, 4), Ok(4));
        assert_eq!(radix_from(args(&["exp"]), Some("16".into()), 4), Ok(16));
        let flag = args(&["exp", "--radix", "8"]);
        assert_eq!(radix_from(flag, Some("16".into()), 4), Ok(8));
    }

    #[test]
    fn bad_radix_is_an_error() {
        assert_eq!(
            radix_from(args(&["exp", "--radix", "abc"]), None, 4),
            Err(ArgError::NotANumber {
                source: "--radix",
                value: "abc".into()
            })
        );
        assert_eq!(
            radix_from(args(&["exp", "--radix", "1"]), None, 4),
            Err(ArgError::TooSmall {
                source: "--radix",
                value: 1,
                min: 2
            })
        );
        assert_eq!(
            radix_from(args(&["exp", "--radix"]), None, 4),
            Err(ArgError::MissingValue { flag: "--radix" })
        );
        for bad in ["x", "-3", "", "1"] {
            let err = radix_from(args(&["exp"]), Some(bad.into()), 4).unwrap_err();
            assert!(err.to_string().starts_with("OCIN_RADIX: "), "{err}");
        }
    }

    const EXEC_FLAGS: [&str; 2] = ["--serial", "--exec-workers"];

    #[test]
    fn exec_workers_flag_is_validated() {
        let workers =
            |list: &[&str]| dump_args_from(args(list), &EXEC_FLAGS).map(|a| a.exec_workers);
        assert_eq!(workers(&["--exec-workers", "2"]), Ok(Some(2)));
        assert_eq!(workers(&[]), Ok(None));
        assert_eq!(
            workers(&["--exec-workers", "0"]),
            Err(ArgError::TooSmall {
                source: "--exec-workers",
                value: 0,
                min: 1
            })
        );
        assert_eq!(
            workers(&["out.txt", "--exec-workers"]),
            Err(ArgError::MissingValue {
                flag: "--exec-workers"
            })
        );
        let err = workers(&["--exec-workers", "two"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "--exec-workers: 'two' is not a positive integer"
        );
    }

    #[test]
    fn dump_output_path_is_the_positional_argument() {
        let parse = |list: &[&str]| dump_args_from(args(list), &EXEC_FLAGS);
        let want = DumpArgs {
            out: Some("out.txt".into()),
            serial: false,
            exec_workers: Some(2),
        };
        // The path may come before or after a flag and its value.
        assert_eq!(parse(&["--exec-workers", "2", "out.txt"]), Ok(want.clone()));
        assert_eq!(parse(&["out.txt", "--exec-workers", "2"]), Ok(want));
        let serial = parse(&["--serial", "s.txt"]).expect("valid");
        assert_eq!((serial.out, serial.serial), (Some("s.txt".into()), true));
        assert_eq!(parse(&[]), Ok(DumpArgs::default()));
        // probe_dump takes a directory and no flag.
        let dir = dump_args_from(args(&["target/probe-a"]), &[]).expect("valid");
        assert_eq!(dir.out, Some("target/probe-a".into()));
    }

    #[test]
    fn dump_rejects_unknown_flags_and_extra_arguments() {
        let parse = |list: &[&str], flags: &[&str]| dump_args_from(args(list), flags);
        assert_eq!(
            parse(&["out.txt", "--workers", "2"], &EXEC_FLAGS),
            Err(ArgError::UnknownFlag {
                flag: "--workers".into()
            })
        );
        assert_eq!(
            parse(&["a.txt", "b.txt"], &EXEC_FLAGS),
            Err(ArgError::ExtraArgument {
                value: "b.txt".into()
            })
        );
        // A flag another dump binary takes is still unknown here.
        let err = parse(&["--serial"], &[]).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag '--serial'");
        let err = parse(&["a", "b"], &[]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unexpected argument 'b': one output path only"
        );
    }

    fn shards(value: Option<&str>) -> Result<usize, ArgError> {
        shards_from(value.map(Into::into))
    }

    #[test]
    fn shard_count_defaults_to_one_and_parses_positive_integers() {
        assert_eq!(shards(None), Ok(1));
        assert_eq!(shards(Some("1")), Ok(1));
        assert_eq!(shards(Some("8")), Ok(8));
    }

    #[test]
    fn bad_shard_counts_name_the_variable_and_value() {
        for bad in ["0", "abc", "8x", "", "-2"] {
            let err = shards(Some(bad)).unwrap_err().to_string();
            assert!(err.starts_with("OCIN_SHARDS: "), "{err}");
            assert!(err.contains(bad), "{err}");
        }
        assert_eq!(
            shards(Some("abc")).unwrap_err().to_string(),
            "OCIN_SHARDS: 'abc' is not a positive integer"
        );
        assert_eq!(
            shards(Some("0")).unwrap_err().to_string(),
            "OCIN_SHARDS: 0 is below the minimum of 1"
        );
    }

    #[test]
    fn sim_config_is_quick_under_env() {
        // Can't mutate the environment safely in parallel tests; just
        // exercise both branches directly.
        assert!(SimConfig::quick().measure_cycles < sim_config().measure_cycles || quick_mode());
    }
}
