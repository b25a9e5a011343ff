//! `benchmark`: the ocin performance benchmark.
//!
//! Four named workloads run through the same public calls users make
//! (`LoadSweep`, `SimPool`, `Simulation`). An untraced run prints every
//! end-to-end metric by name and unit and checks every simulated result;
//! a traced run times the calls into each layer from outside and gives
//! the per-layer metrics. `results/benchmark/README.md` describes the
//! workloads, the metrics and how to compare two commits.

mod compare;
mod host;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::RunArgs;
use workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage:
  benchmark run --workload <name> [--seed <u64>] [--seconds <s> | --reps <n>]
                [--trace 0|1] [--out <file>] [--sha <sha>] [--bless]
  benchmark run --all [--seed <u64>] [--seconds <s> | --reps <n>] [--sha <sha>]
  benchmark trace --workload <name> [--seed <u64>] [--seconds <s>]
  benchmark compare [--bounds <BENCHMARK.json>] <parent.json>... -- <change.json>...
workloads: paper_sweep, lone_k32, saturation_k16_deflection, observed_k16";

/// Longest `--seconds` budget accepted.
const MAX_SECONDS: f64 = 3_600.0;

#[derive(Debug, Clone, PartialEq)]
enum Cmd {
    Run(RunArgs),
    All(RunArgs),
    Trace(Workload, u64, Option<f64>),
    Compare {
        bounds: PathBuf,
        parents: Vec<PathBuf>,
        changes: Vec<PathBuf>,
    },
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: '{v}' is not a valid number"))
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let (sub, rest) = args.split_first().ok_or("missing subcommand")?;
    match sub.as_str() {
        "run" => parse_run(rest, false),
        "trace" => parse_run(rest, true),
        "compare" => parse_compare(rest),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn parse_run(rest: &[String], mut trace: bool) -> Result<Cmd, String> {
    let mut workload = None;
    let mut all = false;
    let mut a = RunArgs {
        workload: Workload::PaperSweep,
        seed: DEFAULT_SEED,
        seconds: None,
        reps: None,
        out: None,
        sha: None,
        bless: false,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => a.seed = number(flag, value()?)?,
            "--seconds" => {
                let s: f64 = number(flag, value()?)?;
                if !(s > 0.0 && s <= MAX_SECONDS) {
                    return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
                }
                a.seconds = Some(s);
            }
            "--reps" => {
                let n: usize = number(flag, value()?)?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                a.reps = Some(n);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--sha" => a.sha = Some(value()?.clone()),
            "--bless" => a.bless = true,
            "--all" => all = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if trace && (all || a.reps.is_some() || a.out.is_some() || a.bless) {
        return Err("a traced run takes only --workload, --seed and --seconds".into());
    }
    match (workload, all) {
        (Some(_), true) => Err("give --workload or --all, not both".into()),
        (None, true) if a.out.is_some() || a.bless => {
            Err("--out and --bless apply to one workload".into())
        }
        (None, true) => Ok(Cmd::All(a)),
        (None, false) => Err("missing --workload".into()),
        (Some(w), false) if trace => Ok(Cmd::Trace(w, a.seed, a.seconds)),
        (Some(w), false) => Ok(Cmd::Run(RunArgs { workload: w, ..a })),
    }
}

fn parse_compare(rest: &[String]) -> Result<Cmd, String> {
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut rest = rest;
    if let [flag, path, tail @ ..] = rest {
        if flag == "--bounds" {
            bounds = PathBuf::from(path);
            rest = tail;
        }
    }
    let split = rest
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs '--' between parent and change records")?;
    let parents: Vec<PathBuf> = rest[..split].iter().map(PathBuf::from).collect();
    let changes: Vec<PathBuf> = rest[split + 1..].iter().map(PathBuf::from).collect();
    if parents.len() != changes.len() || parents.len() < compare::MIN_PAIRS {
        return Err(format!(
            "compare needs at least {} parent and as many change records, got {} and {}",
            compare::MIN_PAIRS,
            parents.len(),
            changes.len()
        ));
    }
    Ok(Cmd::Compare {
        bounds,
        parents,
        changes,
    })
}

fn main() -> ExitCode {
    let args: Result<Vec<String>, _> = std::env::args_os()
        .skip(1)
        .map(|a| a.into_string())
        .collect();
    let cmd = args
        .map_err(|a| format!("argument {a:?} is not valid UTF-8"))
        .and_then(|a| parse(&a));
    let cmd = match cmd {
        Ok(cmd) => cmd,
        Err(why) => {
            eprintln!("benchmark: {why}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        Cmd::Run(a) => run::run(&a),
        Cmd::All(a) => run::run_all(&a),
        Cmd::Trace(w, seed, seconds) => trace::run(w, seed, seconds),
        Cmd::Compare {
            bounds,
            parents,
            changes,
        } => compare::compare(&bounds, &parents, &changes).map(|report| {
            print!("{report}");
            true
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Cmd, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn run_and_trace_forms_parse() {
        let cmd = parse_str("run --workload lone_k32 --seed 7 --seconds 25 --trace 0").unwrap();
        let Cmd::Run(a) = cmd else { panic!("{cmd:?}") };
        assert_eq!(
            (a.workload, a.seed, a.seconds),
            (Workload::LoneK32, 7, Some(25.0))
        );
        assert_eq!(
            parse_str("run --workload observed_k16 --seed 7 --seconds 25 --trace 1"),
            Ok(Cmd::Trace(Workload::ObservedK16, 7, Some(25.0)))
        );
        assert_eq!(
            parse_str("trace --workload paper_sweep"),
            Ok(Cmd::Trace(Workload::PaperSweep, DEFAULT_SEED, None))
        );
        assert!(matches!(parse_str("run --all --reps 3"), Ok(Cmd::All(_))));
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "walk",
            "run",
            "run --workload nope",
            "run --workload lone_k32 --seed abc",
            "run --workload lone_k32 --seed -1",
            "run --workload lone_k32 --seed",
            "run --workload lone_k32 --seconds 0",
            "run --workload lone_k32 --seconds nan",
            "run --workload lone_k32 --reps 0",
            "run --workload lone_k32 --trace 2",
            "run --workload lone_k32 --frobnicate",
            "run --workload lone_k32 --all",
            "trace --workload lone_k32 --reps 3",
            "compare a b",
            "compare a -- b",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} parsed");
        }
    }
}
