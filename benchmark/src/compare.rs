//! `benchmark compare`: decides, per workload and end-to-end metric,
//! whether a change improved, kept or regressed the parent's numbers.
//!
//! The inputs are run records (`run --out`, or the lines `run --all`
//! prints) from at least ten alternating parent/change pairs, given in
//! pair order. A change has *improved* a metric when it wins at least
//! nine tenths of the pairs (ties count for neither side) and the
//! medians differ by more than the parent's interquartile range. It has
//! *regressed* when its median is worse than the parent's by more than
//! the metric's bound in `BENCHMARK.json`. When either side's spread
//! exceeds the bound the verdict is *unresolved* rather than unchanged.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::stats::{median, quartiles};

/// Pairs a comparison needs at least.
pub const MIN_PAIRS: usize = 10;

/// Host reference drift within a pair above which the pair is flagged.
const HOST_DRIFT: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// One run record.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    workload: String,
    host_ref_ms: f64,
    values: Vec<(String, f64)>,
}

impl Record {
    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The verdict for one metric and the change's pair wins.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (Verdict, usize) {
    let sign = if lower_is_better { -1.0 } else { 1.0 };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| sign * (*c - *p) > 0.0)
        .count();
    let [pq1, pm, pq3] = quartiles(parent);
    let [cq1, cm, cq3] = quartiles(change);
    // Positive when the change reads better.
    let gap = sign * (cm - pm);
    let spread = |q1: f64, q3: f64, m: f64| if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
    let v = if wins * 10 >= parent.len() * 9 && gap > pq3 - pq1 {
        Verdict::Improved
    } else if spread(pq1, pq3, pm).max(spread(cq1, cq3, cm)) > bound {
        Verdict::Unresolved
    } else if pm != 0.0 && -gap / pm.abs() > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    (v, wins)
}

fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).map(String::from);
            Some(Bound {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
}

fn load_records(path: &Path) -> Result<Vec<Record>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut records = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let bad = |what: &str| format!("{}: {what}", path.display());
        let doc = Json::parse(line).map_err(|e| bad(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("record without workload"))?
            .to_string();
        let host: Vec<f64> = doc
            .get("host_ref_ms")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("record without host_ref_ms"))?
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        let values = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("record without metrics"))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        records.push(Record {
            workload,
            host_ref_ms: median(&host),
            values,
        });
    }
    Ok(records)
}

/// Compares parent and change records pair by pair; returns the report.
pub fn compare(bounds: &Path, parents: &[PathBuf], changes: &[PathBuf]) -> Result<String, String> {
    let bounds = load_bounds(bounds)?;
    let load = |paths: &[PathBuf]| {
        paths
            .iter()
            .map(|p| load_records(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let (parents, changes) = (load(parents)?, load(changes)?);
    let mut workloads: Vec<&str> = Vec::new();
    for r in parents.iter().flatten() {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }

    let mut out = format!(
        "{} pairs of parent and change runs\n\
         {:<26} {:<16} {:>30} {:>30} {:>6} {:>8}  verdict\n",
        parents.len(),
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "wins",
        "gap"
    );
    for w in &workloads {
        let mut pairs = Vec::new();
        for (i, (p, c)) in parents.iter().zip(&changes).enumerate() {
            let of = |r: &&Record| r.workload == *w;
            match (p.iter().find(of), c.iter().find(of)) {
                (Some(p), Some(c)) => pairs.push((p, c)),
                _ => return Err(format!("pair {} lacks a {w} record on one side", i + 1)),
            }
        }
        for b in &bounds {
            let side = |change: bool| {
                pairs
                    .iter()
                    .map(|&(p, c)| if change { c } else { p }.value(&b.name))
                    .collect::<Option<Vec<f64>>>()
                    .ok_or_else(|| format!("a {w} record lacks {}", b.name))
            };
            let (p, c) = (side(false)?, side(true)?);
            let (v, wins) = verdict(&p, &c, b.lower_is_better, b.bound);
            let [pq1, pm, pq3] = quartiles(&p);
            let [cq1, cm, cq3] = quartiles(&c);
            let gap = if pm != 0.0 {
                (cm - pm) / pm * 100.0
            } else {
                0.0
            };
            out += &format!(
                "{w:<26} {:<16} {:>30} {:>30} {:>6} {:>7.2}%  {}\n",
                b.name,
                format!("{pm:.6} [{pq1:.6}, {pq3:.6}] {}", b.unit),
                format!("{cm:.6} [{cq1:.6}, {cq3:.6}] {}", b.unit),
                format!("{wins}/{}", p.len()),
                gap,
                v.name()
            );
        }
        for (i, (p, c)) in pairs.iter().enumerate() {
            let drift = (c.host_ref_ms - p.host_ref_ms) / p.host_ref_ms.min(c.host_ref_ms);
            if drift.abs() > HOST_DRIFT {
                out += &format!(
                    "{w}: pair {} host drift: host_ref {:.3} -> {:.3} ms ({:+.1}%)\n",
                    i + 1,
                    p.host_ref_ms,
                    c.host_ref_ms,
                    drift * 100.0
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];

    #[test]
    fn clear_win_is_improved() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            verdict(&PARENT, &change, true, 0.1),
            (Verdict::Improved, 10)
        );
        // The same numbers read as a regression when higher is better.
        assert_eq!(
            verdict(&PARENT, &change, false, 0.1),
            (Verdict::Regressed, 0)
        );
    }

    #[test]
    fn small_moves_within_the_bound_are_unchanged() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.02).collect();
        assert_eq!(verdict(&PARENT, &change, true, 0.1).0, Verdict::Unchanged);
        // Eight wins of ten is not enough to claim a gain.
        let mut mostly = PARENT.map(|v| v * 0.9);
        mostly[0] = 11.0;
        mostly[1] = 11.0;
        assert_eq!(
            verdict(&PARENT, &mostly, true, 0.1),
            (Verdict::Unchanged, 8)
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 10.0, 4.0, 16.0, 10.0, 12.0];
        assert_eq!(verdict(&PARENT, &noisy, true, 0.1).0, Verdict::Unresolved);
    }

    #[test]
    fn compares_records_and_flags_host_drift() {
        let dir =
            std::env::temp_dir().join(format!("ocin-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bounds = dir.join("BENCHMARK.json");
        std::fs::write(
            &bounds,
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let write = |name: String, wall: f64, host: f64| {
            let path = dir.join(name);
            let line = format!(
                "{{\"workload\": \"w\", \"host_ref_ms\": [{host}], \"metrics\": {{\"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}}}}}\n"
            );
            std::fs::write(&path, line).unwrap();
            path
        };
        let parents: Vec<PathBuf> = (0..10)
            .map(|i| write(format!("p{i}"), PARENT[i], 20.0))
            .collect();
        let changes: Vec<PathBuf> = (0..10)
            .map(|i| {
                write(
                    format!("c{i}"),
                    PARENT[i] * 0.8,
                    if i == 3 { 22.0 } else { 20.0 },
                )
            })
            .collect();
        let report = compare(&bounds, &parents, &changes).unwrap();
        assert!(report.contains("improved"), "{report}");
        assert!(report.contains("pair 4 host drift"), "{report}");
        assert!(!report.contains("pair 1 host drift"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
