//! The untraced run: repetitions of one workload's user-facing call, the
//! end-to-end metrics, and the output checks; and `run --all`, which runs
//! every workload in a process of its own.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host::{self, timed, HostRef};
use crate::json::{self, quote};
use crate::metrics::{self, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::{Workload, DEFAULT_SEED, WORKERS};

/// Repetitions a time-budgeted run makes however short its budget, so
/// its median and quartiles rest on real samples.
const MIN_REPS: usize = 5;

/// Repetitions of a run given neither `--reps` nor `--seconds`.
const DEFAULT_REPS: usize = 9;

/// How a set-up is sampled: at least `samples` builds, and more until
/// `seconds` have gone into them.
#[derive(Debug, Clone, Copy)]
pub struct Sampling {
    pub samples: usize,
    pub seconds: f64,
}

/// The traced run's `setup.network_new_ms`: one batch of builds.
pub const SETUP_ONCE: Sampling = Sampling {
    samples: 21,
    seconds: 1.0,
};

/// `setup_s` is sampled in one such batch before every repetition, so
/// its median spans the host's states over the whole run, as the
/// repetitions' does; a single batch at start-up catches the host in
/// whatever state it is in for that second. [`MIN_REPS`] batches give
/// at least 25 samples.
const SETUP_BATCH: Sampling = Sampling {
    samples: 5,
    seconds: 0.1,
};

/// Where runs and traces write their files, under the working directory.
pub const OUT_DIR: &str = "target/benchmark";

/// What `benchmark run` was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Measure for about this long (at least [`MIN_REPS`] repetitions).
    pub seconds: Option<f64>,
    /// Measure exactly this many repetitions.
    pub reps: Option<usize>,
    pub out: Option<PathBuf>,
    pub sha: Option<String>,
    /// Write this run's digests as the workload's golden file.
    pub bless: bool,
}

/// Points attempted and points whose output check failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
}

impl Checks {
    /// Checks digest lines against the expected ones; a missing or extra
    /// line counts as a failed point.
    pub fn lines(&mut self, got: &[String], want: &[String]) {
        let n = got.len().max(want.len());
        let mut matched = 0;
        for (g, w) in got.iter().zip(want) {
            if g == w {
                matched += 1;
            } else {
                eprintln!("benchmark: digest mismatch\n  got  {g}\n  want {w}");
            }
        }
        if got.len() != want.len() {
            eprintln!("benchmark: {} points, expected {}", got.len(), want.len());
        }
        self.attempted += n;
        self.failed += n - matched;
    }

    pub fn point(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

/// Runs `f`, turning a panic (already reported by the panic hook) into
/// `None` so one failed point never aborts a run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// The golden digest lines of `w`.
pub fn golden_lines(w: Workload) -> Vec<String> {
    w.golden().lines().map(String::from).collect()
}

/// Everything an untraced run measured. Times are raw; the metrics scale
/// them by the host speed measured around them.
#[derive(Debug, Clone)]
pub struct Summary {
    pub workload: Workload,
    pub setup_s: Vec<f64>,
    /// [`host::host_scale`] over each sample in `setup_s`.
    pub setup_scale: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// [`host::host_scale`] over each repetition in `wall_s`.
    pub rep_scale: Vec<f64>,
    /// Every timing of the host reference: before the first repetition
    /// and after each one.
    pub host_ref_ms: Vec<f64>,
    /// Measurement-window flit-hops of one repetition (they repeat
    /// exactly).
    pub flit_hops: u64,
    pub peak_rss_mb: f64,
    pub saturation: Option<f64>,
    pub checks: Checks,
    pub premise_failures: Vec<String>,
}

impl Summary {
    pub fn empty(workload: Workload) -> Summary {
        Summary {
            workload,
            setup_s: Vec::new(),
            setup_scale: Vec::new(),
            wall_s: Vec::new(),
            cpu_s: Vec::new(),
            rep_scale: Vec::new(),
            host_ref_ms: Vec::new(),
            flit_hops: 0,
            peak_rss_mb: 0.0,
            saturation: None,
            checks: Checks::default(),
            premise_failures: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.premise_failures.is_empty() && !self.wall_s.is_empty()
    }

    /// The samples behind each end-to-end metric, in [`END_TO_END`]
    /// order, times scaled to the nominal host speed. Each metric is the
    /// median of its samples.
    fn samples(&self) -> [(&'static str, Vec<f64>); 5] {
        let scaled = |raw: &[f64], scale: &[f64]| -> Vec<f64> {
            raw.iter().zip(scale).map(|(t, k)| t * k).collect()
        };
        let wall = scaled(&self.wall_s, &self.rep_scale);
        let rates = wall.iter().map(|&w| self.flit_hops as f64 / w).collect();
        [
            ("setup_s", scaled(&self.setup_s, &self.setup_scale)),
            ("wall_s", wall),
            ("cpu_s", scaled(&self.cpu_s, &self.rep_scale)),
            ("flit_hops_per_s", rates),
            ("peak_rss_mb", vec![self.peak_rss_mb]),
        ]
    }
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order.
pub fn end_to_end_metrics(s: &Summary) -> Vec<(&'static str, f64)> {
    s.samples()
        .iter()
        .map(|(name, v)| (*name, median(v)))
        .collect()
}

fn more_reps(args: &RunArgs, done: usize, elapsed_s: f64) -> bool {
    match (args.reps, args.seconds) {
        (Some(n), _) => done < n,
        // Stop before a repetition of typical length would overrun.
        (None, Some(budget)) => {
            done < MIN_REPS || elapsed_s * (done + 1) as f64 / done as f64 <= budget
        }
        (None, None) => done < DEFAULT_REPS,
    }
}

/// Seconds taken by each call of `build`, sampled as `how` says. Each
/// result is dropped outside the timed call.
pub fn build_times<T>(how: Sampling, mut build: impl FnMut() -> T) -> Vec<f64> {
    let mut times = Vec::new();
    let mut spent = 0.0;
    while times.len() < how.samples || spent < how.seconds {
        let (built, t) = timed(&mut build);
        drop(built);
        times.push(t.wall_s);
        spent += t.wall_s;
    }
    times
}

/// Runs one workload untraced; returns whether every check passed.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    host::check_proc()?;
    let w = args.workload;
    let mut s = Summary::empty(w);
    let setup = w.setup_point(args.seed);
    let host_ref = HostRef::new();
    // At the default seed every repetition must match the committed
    // golden; at any other seed, the first repetition.
    let mut reference = (args.seed == DEFAULT_SEED && !args.bless).then(|| golden_lines(w));
    let start = Instant::now();
    let mut before = host_ref.time_ms();
    s.host_ref_ms.push(before);
    let mut done = 0;
    while more_reps(args, done, start.elapsed().as_secs_f64()) {
        done += 1;
        let builds = build_times(SETUP_BATCH, || setup.simulation());
        let got = guarded(|| w.run(args.seed));
        // The batch and the repetition lie between two reference
        // timings, whose mean gives the host's speed over them.
        let after = host_ref.time_ms();
        s.host_ref_ms.push(after);
        let scale = host::host_scale(before, after);
        before = after;
        s.setup_scale.extend(builds.iter().map(|_| scale));
        s.setup_s.extend(builds);
        let Some(out) = got else {
            let n = reference.as_ref().map_or(1, Vec::len);
            s.checks.attempted += n;
            s.checks.failed += n;
            continue;
        };
        let lines = out.digest_lines();
        s.checks.lines(&lines, reference.as_ref().unwrap_or(&lines));
        if let Err(why) = w.premise(&out) {
            eprintln!("benchmark: {} premise failed: {why}", w.name());
            s.premise_failures.push(why);
        }
        if s.wall_s.is_empty() {
            s.flit_hops = out.flit_hops();
            s.saturation = out.saturation;
        }
        s.wall_s.push(out.timing.wall_s);
        s.cpu_s.push(out.timing.cpu_s);
        s.rep_scale.push(scale);
        reference.get_or_insert(lines);
    }
    // The reference kernel's buffers stay resident all run; they are not
    // the workload's memory.
    s.peak_rss_mb = host::peak_rss_mib().map_or(0.0, |m| m - HostRef::MIB);

    if args.bless {
        let lines = reference.ok_or("no repetition succeeded; nothing to bless")?;
        let path = w.golden_path();
        std::fs::write(&path, lines.join("\n") + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("benchmark: wrote {}", path.display());
    }
    print_summary(&s, args.seed);
    if let Some(path) = &args.out {
        write_file(path, &(record(&s, args) + "\n"))?;
    }
    let metrics = end_to_end_metrics(&s);
    println!(
        "{}",
        metrics::result_line(s.correct(), s.checks.attempted, s.checks.failed, &metrics)
    );
    Ok(s.correct())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn print_summary(s: &Summary, seed: u64) {
    println!(
        "benchmark {} seed={seed} reps={} nproc={} workers={WORKERS}",
        s.workload.name(),
        s.wall_s.len(),
        nproc()
    );
    for ((name, v), def) in s.samples().iter().zip(&END_TO_END) {
        let [q1, _, q3] = quartiles(v);
        println!(
            "  {name:<16} {:>14.6} {:<12} q1 {q1:.6} q3 {q3:.6} (median of {})",
            median(v),
            def.unit,
            v.len()
        );
    }
    println!(
        "  host_ref_ms      {:>14.3} ms  (median of {})",
        median(&s.host_ref_ms),
        s.host_ref_ms.len()
    );
    print!(
        "  points           {} run, {} failed; {} measurement-window flit-hops per repetition",
        s.checks.attempted, s.checks.failed, s.flit_hops
    );
    match s.saturation {
        Some(sat) => println!("; saturation load {sat}"),
        None => println!(),
    }
}

/// One history line: provenance, per-repetition samples, and every
/// end-to-end metric with its quartiles and sample count.
fn record(s: &Summary, args: &RunArgs) -> String {
    let metrics: Vec<String> = s
        .samples()
        .iter()
        .zip(&END_TO_END)
        .map(|((name, v), def)| {
            let [q1, _, q3] = quartiles(v);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                quote(name),
                json::number(median(v)),
                quote(def.unit),
                json::number(q1),
                json::number(q3),
                v.len()
            )
        })
        .collect();
    format!(
        "{{\"sha\": {}, \"workload\": {}, \"seed\": {}, \"nproc\": {}, \"workers\": {WORKERS}, \
         \"reps\": {}, \"correct\": {}, \"points_run\": {}, \"points_failed\": {}, \
         \"host_ref_ms\": {}, \"wall_s_reps\": {}, \"cpu_s_reps\": {}, \"metrics\": {{{}}}}}",
        quote(args.sha.as_deref().unwrap_or("unrecorded")),
        quote(s.workload.name()),
        args.seed,
        nproc(),
        s.wall_s.len(),
        s.correct(),
        s.checks.attempted,
        s.checks.failed,
        json::numbers(&s.host_ref_ms),
        json::numbers(&s.wall_s),
        json::numbers(&s.cpu_s),
        metrics.join(", ")
    )
}

/// Writes `text` to `path`, creating its directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs every workload, one process each and one after another, so each
/// process's peak RSS belongs to its workload. Prints each run's history
/// line to stdout; the runs' own output goes to stderr.
pub fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut ok = true;
    for w in Workload::ALL {
        let out = Path::new(OUT_DIR).join(format!("{}.run.json", w.name()));
        // A stale record must not stand in for a run that failed to write.
        let _ = std::fs::remove_file(&out);
        let mut cmd = Command::new(&exe);
        cmd.args([
            "run",
            "--workload",
            w.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--out")
        .arg(&out);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if let Some(n) = args.reps {
            cmd.args(["--reps", &n.to_string()]);
        }
        if let Some(sha) = &args.sha {
            cmd.args(["--sha", sha]);
        }
        let status = cmd
            .stdout(Stdio::from(std::io::stderr()))
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        ok &= status.success();
        match std::fs::read_to_string(&out) {
            Ok(line) => print!("{line}"),
            Err(e) => {
                eprintln!("benchmark: {} wrote no record ({e})", w.name());
                ok = false;
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(reps: Option<usize>, seconds: Option<f64>) -> RunArgs {
        RunArgs {
            workload: Workload::LoneK32,
            seed: 1,
            seconds,
            reps,
            out: None,
            sha: None,
            bless: false,
        }
    }

    #[test]
    fn repetitions_follow_count_budget_or_default() {
        assert!(more_reps(&args(Some(3), Some(1.0)), 2, 99.0));
        assert!(!more_reps(&args(Some(3), None), 3, 0.0));
        // A budget still buys five repetitions, then stops before overrun.
        assert!(more_reps(&args(None, Some(1.0)), 4, 50.0));
        assert!(more_reps(&args(None, Some(30.0)), 5, 24.0));
        assert!(!more_reps(&args(None, Some(30.0)), 6, 27.0));
        assert!(more_reps(&args(None, None), 8, 0.0));
        assert!(!more_reps(&args(None, None), 9, 0.0));
    }

    #[test]
    fn checks_count_mismatched_missing_and_extra_lines() {
        let l = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut c = Checks::default();
        c.lines(&l(&["a", "b"]), &l(&["a", "b"]));
        assert_eq!(
            c,
            Checks {
                attempted: 2,
                failed: 0
            }
        );
        c.lines(&l(&["a", "x", "c"]), &l(&["a", "b"]));
        assert_eq!(
            c,
            Checks {
                attempted: 5,
                failed: 2
            }
        );
        c.point(false);
        assert_eq!(
            c,
            Checks {
                attempted: 6,
                failed: 3
            }
        );
    }

    #[test]
    fn record_carries_provenance_and_every_metric() {
        let mut s = Summary::empty(Workload::PaperSweep);
        s.setup_s = vec![0.001, 0.002, 0.003];
        s.setup_scale = vec![0.5; 3];
        s.wall_s = vec![9.0, 5.0];
        s.cpu_s = vec![18.0, 19.0];
        // The second repetition ran on a host at half speed.
        s.rep_scale = vec![1.0, 2.0];
        s.host_ref_ms = vec![200.0, 200.0, 200.0];
        s.flit_hops = 1_000;
        s.peak_rss_mb = 40.0;
        let mut a = args(None, None);
        a.sha = Some("abc1234".into());
        let doc = json::Json::parse(&record(&s, &a)).expect("record is JSON");
        assert_eq!(doc.get("sha").and_then(json::Json::as_str), Some("abc1234"));
        assert_eq!(doc.get("reps").and_then(json::Json::as_f64), Some(2.0));
        let m = doc.get("metrics").expect("metrics");
        for def in END_TO_END {
            assert!(m.get(def.name).is_some(), "{} missing", def.name);
        }
        let value = |name: &str| m.get(name).and_then(|v| v.get("value")?.as_f64());
        assert_eq!(value("setup_s"), Some(0.001));
        assert_eq!(value("wall_s"), Some(9.5));
        assert_eq!(value("cpu_s"), Some(28.0));
        assert_eq!(value("flit_hops_per_s"), Some((1000.0 / 9.0 + 100.0) / 2.0));
    }
}
