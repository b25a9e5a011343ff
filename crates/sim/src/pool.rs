//! Deterministic parallel evaluation of independent simulation points.
//!
//! A *point* is one complete simulation run described by
//! `(NetworkConfig, SimConfig, Workload, offered load)`. Points are
//! mutually independent — each run builds its own network and workload
//! generator — so a batch of them can be evaluated on worker threads in
//! any order. Two properties make the parallel path safe to rely on:
//!
//! * **Determinism.** Every point derives its RNG seed from the base
//!   seed and its own offered load ([`derive_seed`]), never from
//!   evaluation order or thread identity, so a batch evaluated on N
//!   workers is bit-identical to the same batch evaluated serially.
//! * **Caching.** Results are memoized by the full point description.
//!   Experiments that revisit a point (a latency curve sharing loads
//!   with a saturation search, an ablation re-running its baseline)
//!   compute it once per process.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use ocin_core::{NetworkConfig, ProbeConfig};
use ocin_traffic::{InjectionProcess, Workload};

use crate::exec::{self, ExecDecision};
use crate::runner::{SimConfig, Simulation};
use crate::sweep::LoadPoint;

/// Derives the RNG seed for the point at `load` from the sweep's base
/// seed.
///
/// The load's bit pattern is folded through a SplitMix64-style finalizer
/// so every point in a sweep gets an independent stream. Depending only
/// on `(base, load)` — not on position, batch size, or thread — is what
/// lets cached and parallel evaluations reproduce the serial path
/// exactly.
pub fn derive_seed(base: u64, load: f64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(mix(load.to_bits())))
}

/// One independently evaluable simulation point.
///
/// The workload's injection process is replaced at evaluation time by
/// `Bernoulli { flit_rate: load }`, and the run's seed by
/// [`derive_seed`]`(sim_cfg.seed, load)`.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Network under test.
    pub net_cfg: NetworkConfig,
    /// Run lengths and base seed.
    pub sim_cfg: SimConfig,
    /// Traffic template (pattern, payloads, classes).
    pub workload: Workload,
    /// Offered load, flits/node/cycle.
    pub load: f64,
    /// The probe attached to the run, passed to
    /// [`Simulation::with_probe`] unchanged; `None` runs unprobed. Part
    /// of the cache key: probed and unprobed runs of the same point are
    /// distinct entries (their reports differ in the `metrics` field,
    /// never in the measurements). How many shards the run is split
    /// across is not part of the point: the pool decides that
    /// (`exec.rs`), and the report is bit-identical at any count.
    pub probe: Option<ProbeConfig>,
}

impl PointSpec {
    /// Creates a point.
    pub fn new(net_cfg: NetworkConfig, sim_cfg: SimConfig, workload: Workload, load: f64) -> Self {
        PointSpec {
            net_cfg,
            sim_cfg,
            workload,
            load,
            probe: None,
        }
    }

    /// Statically verifies this point's network configuration: proves
    /// the channel dependency graph acyclic (deadlock-free) and the
    /// compiled routes conformant, without spending a simulated cycle.
    /// Debug builds run this automatically as a pre-flight check in
    /// [`PointSpec::evaluate`]; call it directly to inspect the full
    /// [`ocin_verify::PointReport`] (witness cycle, conformance facts).
    pub fn verify(&self) -> ocin_verify::PointReport {
        ocin_verify::verify_config(&self.net_cfg)
    }

    /// Debug-build pre-flight: refuse to simulate a configuration the
    /// static verifier can prove will deadlock. Memoized per distinct
    /// [`ocin_verify::VerifyPoint`] key so sweeps pay the analysis once,
    /// and skipped above 256 nodes to keep debug test runs fast (CI's
    /// release-mode `verify` job covers the large radices).
    #[cfg(debug_assertions)]
    fn preflight_verify(&self) {
        static VERIFIED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
        if self.net_cfg.topology.num_nodes() > 256 {
            return;
        }
        let key = ocin_verify::VerifyPoint::from_config(&self.net_cfg).key();
        if !VERIFIED.lock().expect("verify memo lock").insert(key) {
            return;
        }
        let report = self.verify();
        assert!(
            report.is_clean(),
            "static pre-flight verification rejected this configuration:\n{}",
            ocin_verify::report::to_text(std::slice::from_ref(&report)),
        );
    }

    /// The memoization key: the full point description. Two specs with
    /// equal keys produce bit-identical reports.
    fn cache_key(&self) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:016x}|probe:{:?}",
            self.net_cfg,
            self.sim_cfg,
            self.workload,
            self.load.to_bits(),
            self.probe
        )
    }

    /// Runs the point to completion. Pure with respect to the spec:
    /// equal specs give equal results regardless of where or when they
    /// are evaluated.
    ///
    /// # Panics
    ///
    /// Panics if the network configuration is invalid (programmer error
    /// in the experiment setup), or — in debug builds — if the static
    /// verifier proves the configuration can deadlock (see
    /// [`PointSpec::verify`]).
    pub fn evaluate(&self) -> LoadPoint {
        self.evaluate_sharded(1)
    }

    /// Runs the point on `shards` worker threads. The report is
    /// bit-identical at any count (shard-equivalence suite) — this is
    /// how the pool applies a budget decision without touching the memo
    /// key. Same panics as [`PointSpec::evaluate`].
    pub fn evaluate_sharded(&self, shards: usize) -> LoadPoint {
        #[cfg(debug_assertions)]
        self.preflight_verify();
        let wl = self
            .workload
            .clone()
            .injection(InjectionProcess::Bernoulli {
                flit_rate: self.load,
            });
        let sim_cfg = SimConfig {
            seed: derive_seed(self.sim_cfg.seed, self.load),
            ..self.sim_cfg
        };
        let mut sim = Simulation::new(self.net_cfg.clone(), sim_cfg)
            .expect("point configuration must be valid")
            .with_workload(&wl);
        if let Some(pc) = self.probe {
            sim = sim.with_probe(pc);
        }
        let report = crate::shard::ShardedSimulation::new(sim, shards).run();
        LoadPoint {
            offered: self.load,
            accepted: report.accepted_flit_rate,
            mean_latency: report.network_latency.mean,
            p99_latency: report.network_latency.p99,
            report,
        }
    }
}

/// A worker pool evaluating batches of simulation points with
/// memoization.
///
/// Batches are deduplicated against the cache and against themselves,
/// the misses are handed to the two-level executor (which runs them
/// through one longest-first queue and decides how many points run side
/// by side and how many shards each gets — see `exec.rs`), and results
/// are returned in input order. Which worker runs a point depends on
/// timing; its result and the recorded decision do not.
pub struct SimPool {
    /// Worker threads shared by the points of a batch and their shards.
    workers: usize,
    /// Memoized points keyed by the full spec rendering. Ordered so
    /// that nothing downstream (cache statistics, future dump/debug
    /// paths) can ever observe hash order.
    cache: Mutex<BTreeMap<String, LoadPoint>>,
    /// Scheduling decisions of every miss batch, in batch order —
    /// deterministic given the sequence of `run` calls, and surfaced by
    /// [`SimPool::exec_summary_json`] for benchmark artifacts.
    decisions: Mutex<Vec<Vec<ExecDecision>>>,
}

impl Default for SimPool {
    fn default() -> Self {
        SimPool::new()
    }
}

impl SimPool {
    /// A pool with one worker per unit of the machine's available
    /// parallelism.
    pub fn new() -> SimPool {
        SimPool::with_workers(
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        )
    }

    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> SimPool {
        SimPool {
            workers: workers.max(1),
            cache: Mutex::new(BTreeMap::new()),
            decisions: Mutex::new(Vec::new()),
        }
    }

    /// Worker threads used for cache misses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of distinct points memoized so far.
    pub fn cached_points(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// The scheduling decisions so far: one inner vector per
    /// miss batch, in batch order, each entry recording the dispatch
    /// round a point started in and the shard budget it received, in the
    /// batch's input order. Deterministic for a given sequence of
    /// [`SimPool::run`] calls.
    pub fn exec_decisions(&self) -> Vec<Vec<ExecDecision>> {
        self.decisions.lock().expect("decisions lock").clone()
    }

    /// The decisions rendered as one deterministic JSON object, e.g.
    /// `{"workers":4,"batches":[[{"wave":0,"load":0.050000,"shards":1}]]}`
    /// — what `exec_dump` logs beside its diffed output.
    pub fn exec_summary_json(&self) -> String {
        let batches: Vec<String> = self
            .decisions
            .lock()
            .expect("decisions lock")
            .iter()
            .map(|b| exec::decisions_json(b))
            .collect();
        format!(
            "{{\"workers\":{},\"batches\":[{}]}}",
            self.workers,
            batches.join(",")
        )
    }

    /// Evaluates every spec, reusing cached results, and returns the
    /// points in input order.
    ///
    /// # Panics
    ///
    /// Panics if a spec's network configuration is invalid, or if a
    /// worker thread panics.
    pub fn run(&self, specs: &[PointSpec]) -> Vec<LoadPoint> {
        let keys: Vec<String> = specs.iter().map(PointSpec::cache_key).collect();

        // Dedupe against the cache and within the batch.
        let mut misses: Vec<usize> = Vec::new();
        {
            let cache = self.cache.lock().expect("cache lock");
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            for (i, k) in keys.iter().enumerate() {
                if !cache.contains_key(k) && seen.insert(k) {
                    misses.push(i);
                }
            }
        }

        if !misses.is_empty() {
            let miss_specs: Vec<&PointSpec> = misses.iter().map(|&i| &specs[i]).collect();
            let (points, plan) = exec::run_batch(self.workers, &miss_specs);
            self.decisions.lock().expect("decisions lock").push(plan);
            let mut cache = self.cache.lock().expect("cache lock");
            for (point, &i) in points.into_iter().zip(&misses) {
                cache.insert(keys[i].clone(), point);
            }
        }

        let cache = self.cache.lock().expect("cache lock");
        keys.iter()
            .map(|k| cache.get(k).expect("hit or just inserted").clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocin_core::TopologySpec;
    use ocin_traffic::TrafficPattern;

    fn spec(load: f64) -> PointSpec {
        PointSpec::new(
            NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 4 }),
            SimConfig::quick(),
            Workload::new(16, 4, TrafficPattern::Uniform),
            load,
        )
    }

    #[test]
    fn derive_seed_separates_loads() {
        let a = derive_seed(1, 0.1);
        let b = derive_seed(1, 0.2);
        let c = derive_seed(2, 0.1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable: same inputs, same seed.
        assert_eq!(a, derive_seed(1, 0.1));
    }

    #[test]
    fn pool_matches_direct_evaluation() {
        let pool = SimPool::with_workers(4);
        let specs: Vec<PointSpec> = [0.05, 0.1, 0.05].iter().map(|&l| spec(l)).collect();
        let pooled = pool.run(&specs);
        let direct: Vec<LoadPoint> = specs.iter().map(PointSpec::evaluate).collect();
        assert_eq!(pooled, direct);
        // The duplicate load was deduplicated before evaluation.
        assert_eq!(pool.cached_points(), 2);
    }

    #[test]
    fn exec_summary_records_miss_batches_only() {
        let pool = SimPool::with_workers(4);
        pool.run(&[spec(0.05), spec(0.1)]);
        assert_eq!(pool.exec_decisions().len(), 1);
        assert_eq!(pool.exec_decisions()[0].len(), 2);
        assert!(pool
            .exec_summary_json()
            .starts_with("{\"workers\":4,\"batches\":[["));
        // A fully cached batch schedules nothing.
        pool.run(&[spec(0.05)]);
        assert_eq!(pool.exec_decisions().len(), 1);
    }

    #[test]
    fn cache_returns_identical_points() {
        let pool = SimPool::with_workers(2);
        let first = pool.run(&[spec(0.1)]);
        let again = pool.run(&[spec(0.1)]);
        assert_eq!(first, again);
        assert_eq!(pool.cached_points(), 1);
    }
}
