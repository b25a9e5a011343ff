//! # ocin-bench — experiment harnesses
//!
//! One binary per figure / quantitative claim of the paper (see
//! `DESIGN.md` §4 for the index and `EXPERIMENTS.md` for recorded
//! results), plus two dumps (`probe_dump`, `exec_dump`) that CI diffs
//! against committed goldens. Wall-clock performance is measured by the
//! `benchmark/` package at the repository root, not here.
//!
//! Run an experiment with e.g.
//!
//! ```text
//! cargo run --release -p ocin-bench --bin exp_power_topology -- --quick
//! ```
//!
//! Every binary parses its whole command line once, before it prints
//! anything, with [`parse`]. Each experiment takes `--quick` (shorter
//! simulation windows, same shapes), `--probe` (attach an observability
//! probe) and `--out <dir>` (the only place it writes files); a few take
//! one more flag. No binary reads the environment. CI's
//! `experiments-smoke` job runs every experiment with `--quick --probe`.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ocin_core::NetworkMetrics;
use ocin_sim::SimConfig;

/// Simulation phases for experiments: standard, or
/// [`SimConfig::quick`] under `--quick`.
pub fn sim_config(quick: bool) -> SimConfig {
    if quick {
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

/// The flags every experiment binary takes.
pub const EXPERIMENT: &[&str] = &["--quick", "--probe", "--out"];

/// A binary's parsed command line: each field is one flag, at its
/// default when the flag is absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// `--quick`: shorter simulation windows, same shapes.
    pub quick: bool,
    /// `--probe`: attach an observability probe to the reference runs.
    pub probe: bool,
    /// `--out <dir>`: where the binary writes its files. Without it the
    /// binary writes none.
    pub out: Option<PathBuf>,
    /// `--radix <k>`: the torus radix to run at (at least 2; default the
    /// paper's 4).
    pub radix: usize,
    /// `--shards <n>`: how many threads step each network (default 1), a
    /// speed setting that may not change a byte of output.
    pub shards: usize,
    /// `--serial`: evaluate in order on the calling thread.
    pub serial: bool,
    /// `--exec-workers <n>`: the pool's worker count (`None`: one per
    /// unit of available parallelism).
    pub exec_workers: Option<usize>,
}

/// A command line a binary does not accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An argument outside the binary's flags.
    Unknown {
        /// The argument as given.
        arg: String,
    },
    /// The flag is the last argument, with no value after it.
    MissingValue {
        /// The flag, e.g. `--radix`.
        flag: &'static str,
    },
    /// The value is not a non-negative integer.
    NotANumber {
        /// The flag the value belongs to.
        flag: &'static str,
        /// The text as given.
        value: String,
    },
    /// The value is below the smallest one that makes sense.
    TooSmall {
        /// The flag the value belongs to.
        flag: &'static str,
        /// The value as given.
        value: usize,
        /// The smallest accepted value.
        min: usize,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Unknown { arg } => write!(f, "unknown argument '{arg}'"),
            ArgError::MissingValue { flag } => write!(f, "{flag} needs a value"),
            ArgError::NotANumber { flag, value } => {
                write!(f, "{flag}: '{value}' is not a positive integer")
            }
            ArgError::TooSmall { flag, value, min } => {
                write!(f, "{flag}: {value} is below the minimum of {min}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses `args` (the command line after the program name), which may
/// use only the flags in `accepted`, in any order.
///
/// # Errors
///
/// An [`ArgError`] for an argument outside `accepted`, a flag missing
/// its value, or a value that is not an integer at least the flag's
/// minimum: a misconfigured run must fail loudly, not run something
/// else.
pub fn parse(
    args: impl IntoIterator<Item = String>,
    accepted: &[&'static str],
) -> Result<Args, ArgError> {
    let mut got = Args {
        quick: false,
        probe: false,
        out: None,
        radix: 4,
        shards: 1,
        serial: false,
        exec_workers: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let Some(&flag) = accepted.iter().find(|f| **f == arg) else {
            return Err(ArgError::Unknown { arg });
        };
        let mut value = || args.next().ok_or(ArgError::MissingValue { flag });
        match flag {
            "--quick" => got.quick = true,
            "--probe" => got.probe = true,
            "--serial" => got.serial = true,
            "--out" => got.out = Some(value()?.into()),
            "--radix" => got.radix = at_least(flag, &value()?, 2)?,
            "--shards" => got.shards = at_least(flag, &value()?, 1)?,
            "--exec-workers" => got.exec_workers = Some(at_least(flag, &value()?, 1)?),
            _ => return Err(ArgError::Unknown { arg }),
        }
    }
    Ok(got)
}

/// Parses `value` as an integer of at least `min`.
fn at_least(flag: &'static str, value: &str, min: usize) -> Result<usize, ArgError> {
    let n: usize = value.parse().map_err(|_| ArgError::NotANumber {
        flag,
        value: value.to_string(),
    })?;
    if n < min {
        return Err(ArgError::TooSmall {
            flag,
            value: n,
            min,
        });
    }
    Ok(n)
}

/// The running binary's command line, parsed with [`parse`]. On an
/// [`ArgError`] it prints the error and the accepted flags to stderr
/// and exits with status 2, so call it first, before any output.
pub fn command_line(accepted: &[&'static str]) -> Args {
    parse(std::env::args().skip(1), accepted).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("accepted flags: {}", accepted.join(" "));
        std::process::exit(2)
    })
}

impl Args {
    /// Writes `bytes` to `name` under `--out`, creating directories as
    /// needed, and prints the path; without `--out` it writes nothing.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written (the output is the point of
    /// the run).
    pub fn write(&self, name: &str, bytes: impl AsRef<[u8]>) {
        let Some(dir) = &self.out else { return };
        let path = dir.join(name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
        let bytes = bytes.as_ref();
        std::fs::write(&path, bytes).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {} ({} bytes)", path.display(), bytes.len());
    }

    /// Prints a one-line summary of a probed run's `metrics` and writes
    /// them as deterministic JSON to `metrics.json` under `--out`.
    pub fn write_metrics(&self, metrics: &NetworkMetrics) {
        println!(
            "probe: {} routers, {} flits forwarded, {} delivered, mean latency {:.2}",
            metrics.nodes,
            metrics.totals.flits_forwarded,
            metrics.totals.packets_delivered,
            metrics.aggregate_latency().mean(),
        );
        self.write("metrics.json", metrics.to_json());
    }
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

    fn parse_list(list: &[&str], accepted: &[&'static str]) -> Result<Args, ArgError> {
        parse(list.iter().map(ToString::to_string), accepted)
    }

    /// `exp_latency_load`'s and `exp_step_throughput`'s flags.
    const WITH_RADIX: &[&str] = &["--quick", "--probe", "--out", "--radix"];
    /// `exec_dump`'s flags.
    const EXEC: &[&str] = &["--out", "--serial", "--exec-workers"];
    /// `probe_dump`'s flags.
    const PROBE_DUMP: &[&str] = &["--out", "--shards"];

    #[test]
    fn absent_flags_take_their_defaults() {
        let args = parse_list(&[], EXPERIMENT).expect("empty line parses");
        assert_eq!(
            args,
            Args {
                quick: false,
                probe: false,
                out: None,
                radix: 4,
                shards: 1,
                serial: false,
                exec_workers: None,
            }
        );
    }

    #[test]
    fn flags_parse_in_any_order() {
        let args = parse_list(
            &["--radix", "16", "--out", "target/x", "--probe", "--quick"],
            WITH_RADIX,
        )
        .expect("valid");
        assert!(args.quick && args.probe);
        assert_eq!((args.radix, args.out), (16, Some("target/x".into())));
        let args = parse_list(&["--exec-workers", "8", "--serial", "--out", "d"], EXEC);
        let args = args.expect("valid");
        assert_eq!((args.exec_workers, args.serial), (Some(8), true));
        let args = parse_list(&["--shards", "4", "--out", "d"], PROBE_DUMP).expect("valid");
        assert_eq!(args.shards, 4);
    }

    #[test]
    fn an_argument_outside_the_accepted_set_is_unknown() {
        let unknown = |arg: &str| {
            Err(ArgError::Unknown {
                arg: arg.to_string(),
            })
        };
        assert_eq!(
            parse_list(&["--frobnicate"], EXPERIMENT),
            unknown("--frobnicate")
        );
        // A flag another binary takes is still unknown here.
        assert_eq!(
            parse_list(&["--radix", "8"], EXPERIMENT),
            unknown("--radix")
        );
        assert_eq!(parse_list(&["--quick"], PROBE_DUMP), unknown("--quick"));
        assert_eq!(parse_list(&["--serial"], PROBE_DUMP), unknown("--serial"));
        // Positional arguments are gone: an output path needs `--out`.
        assert_eq!(
            parse_list(&["target/probe"], PROBE_DUMP),
            unknown("target/probe")
        );
        // A name in `accepted` that no parser arm knows is unknown too.
        assert_eq!(parse_list(&["--bogus"], &["--bogus"]), unknown("--bogus"));
        let err = parse_list(&["--quick", "--prob"], EXPERIMENT).unwrap_err();
        assert_eq!(err.to_string(), "unknown argument '--prob'");
    }

    #[test]
    fn a_value_taking_flag_given_last_is_missing_its_value() {
        for (flag, accepted) in [
            ("--out", EXPERIMENT),
            ("--radix", WITH_RADIX),
            ("--shards", PROBE_DUMP),
            ("--exec-workers", EXEC),
        ] {
            assert_eq!(
                parse_list(&[flag], accepted),
                Err(ArgError::MissingValue { flag }),
                "{flag}"
            );
        }
        let err = parse_list(&["--quick", "--radix"], WITH_RADIX).unwrap_err();
        assert_eq!(err.to_string(), "--radix needs a value");
    }

    #[test]
    fn values_must_be_integers() {
        for (flag, accepted) in [
            ("--radix", WITH_RADIX),
            ("--shards", PROBE_DUMP),
            ("--exec-workers", EXEC),
        ] {
            for bad in ["abc", "8x", "", "-2", "1.5"] {
                assert_eq!(
                    parse_list(&[flag, bad], accepted),
                    Err(ArgError::NotANumber {
                        flag,
                        value: bad.to_string()
                    }),
                    "{flag} {bad}"
                );
            }
        }
        let err = parse_list(&["--exec-workers", "two"], EXEC).unwrap_err();
        assert_eq!(
            err.to_string(),
            "--exec-workers: 'two' is not a positive integer"
        );
    }

    #[test]
    fn values_below_the_minimum_are_too_small() {
        for (flag, accepted, value, min) in [
            ("--radix", WITH_RADIX, 1, 2),
            ("--shards", PROBE_DUMP, 0, 1),
            ("--exec-workers", EXEC, 0, 1),
        ] {
            assert_eq!(
                parse_list(&[flag, &value.to_string()], accepted),
                Err(ArgError::TooSmall { flag, value, min }),
                "{flag}"
            );
        }
        let err = parse_list(&["--shards", "0"], PROBE_DUMP).unwrap_err();
        assert_eq!(err.to_string(), "--shards: 0 is below the minimum of 1");
    }

    #[test]
    fn quick_phases_are_shorter() {
        assert!(sim_config(true).measure_cycles < sim_config(false).measure_cycles);
        assert_eq!(sim_config(true), SimConfig::quick());
    }
}
