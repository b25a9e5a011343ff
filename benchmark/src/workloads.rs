//! The four named workloads: what each one runs through the public API,
//! the simulated points it produces, and the premise it must keep
//! exercising. Every workload is a fixed, closed batch of points; the
//! seed is its only input.

use std::hint::black_box;
use std::sync::Arc;

use ocin_core::{FlowControl, NetworkConfig, NetworkMetrics, ProbeConfig, TopologySpec};
use ocin_sim::{
    derive_seed, ExecDecision, LoadSweep, PointSpec, SimConfig, SimPool, SimReport, Simulation,
};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload as Traffic};

use crate::host::{timed, Timing};

/// Worker threads of every pool. The benchmark starts no threads of its
/// own, so this is its whole thread budget.
pub const WORKERS: usize = 2;

/// The seed whose simulated results are committed as goldens.
pub const DEFAULT_SEED: u64 = 0x0C1;

/// Accepted throughput below this share of offered load marks a point as
/// past saturation (the same rule `LoadSweep::saturation_load` uses).
const SATURATED_BELOW: f64 = 0.95;

/// The paper's latency–load sweep: the uniform section of
/// `exp_latency_load`.
const SWEEP_LOADS: [f64; 8] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
const SWEEP_TOPOLOGIES: [TopologySpec; 4] = [
    TopologySpec::Mesh { k: 4 },
    TopologySpec::FoldedTorus { k: 4 },
    TopologySpec::Mesh { k: 8 },
    TopologySpec::FoldedTorus { k: 8 },
];
const LONE_LOAD: f64 = 0.125;
const SATURATION_TOL: f64 = 0.01;
const OBSERVED_LOAD: f64 = 0.2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    LoneK32,
    SaturationK16Deflection,
    ObservedK16,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::LoneK32,
        Workload::SaturationK16Deflection,
        Workload::ObservedK16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::LoneK32 => "lone_k32",
            Workload::SaturationK16Deflection => "saturation_k16_deflection",
            Workload::ObservedK16 => "observed_k16",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed digest lines at [`DEFAULT_SEED`], one per point.
    pub fn golden(self) -> &'static str {
        match self {
            Workload::PaperSweep => include_str!("../../results/benchmark/golden/paper_sweep.txt"),
            Workload::LoneK32 => include_str!("../../results/benchmark/golden/lone_k32.txt"),
            Workload::SaturationK16Deflection => {
                include_str!("../../results/benchmark/golden/saturation_k16_deflection.txt")
            }
            Workload::ObservedK16 => {
                include_str!("../../results/benchmark/golden/observed_k16.txt")
            }
        }
    }

    /// Where [`Workload::golden`] lives in the source tree.
    pub fn golden_path(self) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../results/benchmark/golden")
            .join(format!("{}.txt", self.name()))
    }

    /// A point on the workload's largest network, the one `setup_s`
    /// builds.
    pub fn setup_point(self, seed: u64) -> Point {
        match self {
            Workload::PaperSweep => {
                let t = TopologySpec::FoldedTorus { k: 8 };
                Point::pooled(
                    &network(t, FlowControl::VirtualChannel),
                    short_phases(seed),
                    &uniform(t),
                    0.7,
                )
            }
            Workload::LoneK32 => lone_point(seed),
            Workload::SaturationK16Deflection => {
                let (net, cfg, traffic) = saturation_setup(seed);
                Point::pooled(&net, cfg, &traffic, 0.5)
            }
            Workload::ObservedK16 => observed_point(seed),
        }
    }

    /// Runs the workload's user-facing call once, timing only that call.
    pub fn run(self, seed: u64) -> RepOutput {
        match self {
            Workload::PaperSweep => paper_sweep(seed),
            Workload::LoneK32 => lone_k32(seed),
            Workload::SaturationK16Deflection => saturation_k16_deflection(seed),
            Workload::ObservedK16 => observed_k16(seed),
        }
    }

    /// Fails when the workload stops exercising the layer it was chosen
    /// for.
    pub fn premise(self, out: &RepOutput) -> Result<(), String> {
        let shards: Vec<usize> = out.decisions.iter().flatten().map(|d| d.shards).collect();
        match self {
            Workload::PaperSweep => {
                let saturated = out
                    .points
                    .iter()
                    .filter(|(_, r)| r.accepted_flit_rate < SATURATED_BELOW * r.offered_flit_rate)
                    .count();
                ensure(
                    saturated >= 2,
                    format!(
                        "{saturated} points past saturation; source queues and backpressure idle"
                    ),
                )?;
                ensure(
                    !shards.is_empty() && shards.iter().all(|&s| s == 1),
                    format!("executor shard budgets {shards:?}; the sweep should bypass sharding"),
                )
            }
            Workload::LoneK32 => ensure(
                shards == [2],
                format!("executor shard budgets {shards:?}; the lone point should run on 2 shards"),
            ),
            Workload::SaturationK16Deflection => {
                ensure(
                    !shards.is_empty() && shards.iter().all(|&s| s == 1),
                    format!("executor shard budgets {shards:?}; every probe should run unsharded"),
                )?;
                let deflecting = out
                    .points
                    .iter()
                    .all(|(p, _)| p.net_cfg.flow_control == FlowControl::Deflection)
                    && out.points.iter().any(|(_, r)| r.deflections > 0);
                ensure(
                    deflecting,
                    "no probe ran deflection flow control".to_string(),
                )
            }
            Workload::ObservedK16 => {
                let metrics = out.points.first().and_then(|(_, r)| r.metrics.as_ref());
                ensure(
                    metrics.is_some_and(|m| m.decomposition.is_some() && m.telemetry.is_some()),
                    "the probed run lacks a decomposition or telemetry".to_string(),
                )
            }
        }
    }
}

fn ensure(ok: bool, why: String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why)
    }
}

/// One simulated point, described well enough to rebuild its run.
#[derive(Debug, Clone)]
pub struct Point {
    pub label: String,
    pub net_cfg: NetworkConfig,
    /// Run phases, with the seed the run actually uses.
    pub sim_cfg: SimConfig,
    /// Traffic with the point's injection process applied.
    pub traffic: Traffic,
}

impl Point {
    /// The point a `SimPool` evaluates for `load`: Bernoulli injection at
    /// `load`, seeded by `derive_seed(base.seed, load)`.
    fn pooled(net_cfg: &NetworkConfig, base: SimConfig, template: &Traffic, load: f64) -> Point {
        Point {
            label: label(net_cfg, load),
            net_cfg: net_cfg.clone(),
            sim_cfg: SimConfig {
                seed: derive_seed(base.seed, load),
                ..base
            },
            traffic: bernoulli(template, load),
        }
    }

    /// A fresh, unprobed simulation of this point.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; every workload's is valid.
    pub fn simulation(&self) -> Simulation {
        Simulation::new(self.net_cfg.clone(), self.sim_cfg)
            .expect("workload configurations are valid")
            .with_workload(&self.traffic)
    }

    pub fn nodes(&self) -> usize {
        self.net_cfg.topology.num_nodes()
    }
}

/// The simulated results of one point that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    pub cycles: u64,
    pub injected: u64,
    pub delivered: u64,
    pub flit_hops: u64,
    pub accepted: f64,
    pub p50: f64,
    pub p99: f64,
}

impl Digest {
    pub fn of(r: &SimReport) -> Digest {
        Digest {
            cycles: r.cycles,
            injected: r.packets_injected,
            delivered: r.packets_delivered,
            flit_hops: r.energy.flit_hops,
            accepted: r.accepted_flit_rate,
            p50: r.network_latency.p50,
            p99: r.network_latency.p99,
        }
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `{:?}` prints the shortest text that reads back to the same f64.
        write!(
            f,
            "cycles={} injected={} delivered={} flit_hops={} accepted={:?} p50={:?} p99={:?}",
            self.cycles,
            self.injected,
            self.delivered,
            self.flit_hops,
            self.accepted,
            self.p50,
            self.p99
        )
    }
}

/// What one repetition of a workload produced.
pub struct RepOutput {
    /// Host time of the user-facing call alone.
    pub timing: Timing,
    /// Every point the call simulated, in the order it produced them.
    pub points: Vec<(Point, SimReport)>,
    /// The executor's scheduling decisions, one list per pool batch.
    pub decisions: Vec<Vec<ExecDecision>>,
    /// The saturation load a search found.
    pub saturation: Option<f64>,
}

impl RepOutput {
    /// One `label digest` line per point.
    pub fn digest_lines(&self) -> Vec<String> {
        self.points
            .iter()
            .map(|(p, r)| format!("{} {}", p.label, Digest::of(r)))
            .collect()
    }

    /// Flit-hops inside the measurement windows of every point.
    pub fn flit_hops(&self) -> u64 {
        self.points.iter().map(|(_, r)| r.energy.flit_hops).sum()
    }
}

/// The probe tiers, cheapest first: counters; plus journey aggregates;
/// plus telemetry. `observed_k16` runs the last.
pub fn probe_tiers() -> [ProbeConfig; 3] {
    let counters = ProbeConfig::counters();
    let journeys = counters.with_journeys(0);
    [counters, journeys, journeys.with_telemetry(0)]
}

/// Renders every exporter of a probed run's metrics; returns the bytes
/// produced.
pub fn export(m: &NetworkMetrics) -> usize {
    let mut texts = vec![m.to_json()];
    if let Some(t) = &m.telemetry {
        texts.extend([t.to_json(), t.to_perfetto_json(), t.to_text()]);
    }
    if let Some(d) = &m.decomposition {
        texts.extend([d.to_text(), d.to_trace_json()]);
    }
    black_box(texts).iter().map(String::len).sum()
}

fn paper_sweep(seed: u64) -> RepOutput {
    let cfg = short_phases(seed);
    let sweeps: Vec<(NetworkConfig, Traffic)> = SWEEP_TOPOLOGIES
        .iter()
        .map(|&t| (network(t, FlowControl::VirtualChannel), uniform(t)))
        .collect();
    let pool = Arc::new(SimPool::with_workers(WORKERS));
    let (curves, timing) = timed(|| {
        sweeps
            .iter()
            .map(|(net, traffic)| {
                LoadSweep::new(net.clone(), cfg, traffic.clone())
                    .with_pool(Arc::clone(&pool))
                    .run(&SWEEP_LOADS)
            })
            .collect::<Vec<_>>()
    });
    let mut points = Vec::new();
    for ((net, traffic), curve) in sweeps.iter().zip(curves) {
        for (lp, &load) in curve.into_iter().zip(&SWEEP_LOADS) {
            points.push((Point::pooled(net, cfg, traffic, load), lp.report));
        }
    }
    RepOutput {
        timing,
        points,
        decisions: pool.exec_decisions(),
        saturation: None,
    }
}

fn lone_point(seed: u64) -> Point {
    let t = TopologySpec::FoldedTorus { k: 32 };
    Point::pooled(
        &network(t, FlowControl::VirtualChannel),
        lone_phases(seed),
        &uniform(t),
        LONE_LOAD,
    )
}

fn lone_phases(seed: u64) -> SimConfig {
    phases(250, 1_500, 3_000, seed)
}

fn lone_k32(seed: u64) -> RepOutput {
    let t = TopologySpec::FoldedTorus { k: 32 };
    let spec = PointSpec::new(
        network(t, FlowControl::VirtualChannel),
        lone_phases(seed),
        uniform(t),
        LONE_LOAD,
    );
    let pool = SimPool::with_workers(WORKERS);
    let (mut run, timing) = timed(|| pool.run(std::slice::from_ref(&spec)));
    let report = run.pop().expect("one spec in, one point out").report;
    RepOutput {
        timing,
        points: vec![(lone_point(seed), report)],
        decisions: pool.exec_decisions(),
        saturation: None,
    }
}

fn saturation_setup(seed: u64) -> (NetworkConfig, SimConfig, Traffic) {
    let t = TopologySpec::FoldedTorus { k: 16 };
    (
        network(t, FlowControl::Deflection),
        short_phases(seed),
        uniform(t),
    )
}

fn saturation_k16_deflection(seed: u64) -> RepOutput {
    let (net, cfg, traffic) = saturation_setup(seed);
    let sweep = LoadSweep::new(net.clone(), cfg, traffic.clone())
        .with_pool(Arc::new(SimPool::with_workers(WORKERS)));
    let (saturation, timing) = timed(|| sweep.saturation_load(SATURATION_TOL));
    let decisions = sweep.pool().exec_decisions();
    let loads: Vec<f64> = decisions.iter().flatten().map(|d| d.load).collect();
    // Every probe is cached by now: this reads reports back without
    // simulating or scheduling anything.
    let points = loads
        .iter()
        .zip(sweep.run(&loads))
        .map(|(&load, lp)| (Point::pooled(&net, cfg, &traffic, load), lp.report))
        .collect();
    RepOutput {
        timing,
        points,
        decisions,
        saturation: Some(saturation),
    }
}

/// `observed_k16` calls `Simulation` directly, so its seed is the run's
/// seed as given.
fn observed_point(seed: u64) -> Point {
    let t = TopologySpec::FoldedTorus { k: 16 };
    let net = network(t, FlowControl::VirtualChannel);
    Point {
        label: label(&net, OBSERVED_LOAD),
        net_cfg: net,
        sim_cfg: short_phases(seed),
        traffic: bernoulli(&uniform(t), OBSERVED_LOAD),
    }
}

fn observed_k16(seed: u64) -> RepOutput {
    let point = observed_point(seed);
    let [.., all_probes] = probe_tiers();
    let (report, timing) = timed(|| {
        let report = point.simulation().with_probe(all_probes).run();
        if let Some(m) = &report.metrics {
            export(m);
        }
        report
    });
    RepOutput {
        timing,
        points: vec![(point, report)],
        decisions: Vec::new(),
        saturation: None,
    }
}

fn network(t: TopologySpec, fc: FlowControl) -> NetworkConfig {
    NetworkConfig::paper_baseline()
        .with_topology(t)
        .with_flow_control(fc)
}

fn uniform(t: TopologySpec) -> Traffic {
    Traffic::for_topology(&t, TrafficPattern::Uniform)
}

fn bernoulli(template: &Traffic, load: f64) -> Traffic {
    template
        .clone()
        .injection(InjectionProcess::Bernoulli { flit_rate: load })
}

fn phases(warmup_cycles: u64, measure_cycles: u64, drain_cycles: u64, seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles,
        measure_cycles,
        drain_cycles,
        seed,
    }
}

/// A quarter of the experiments' full-mode phases
/// (`ocin_bench::sim_config`). Every workload's repetition takes about
/// 2 s, so a 25 s run gets ten repetitions for its medians; the shapes
/// (which points saturate, how the search brackets) stay the same.
fn short_phases(seed: u64) -> SimConfig {
    phases(500, 2_000, 4_000, seed)
}

fn label(net: &NetworkConfig, load: f64) -> String {
    let (topology, k) = match net.topology {
        TopologySpec::Mesh { k } => ("mesh", k),
        TopologySpec::FoldedTorus { k } => ("ftorus", k),
        TopologySpec::Ring { k } => ("ring", k),
    };
    let fc = match net.flow_control {
        FlowControl::VirtualChannel => "vc",
        FlowControl::Dropping => "dropping",
        FlowControl::Deflection => "deflection",
    };
    format!("{topology} k={k} {fc} load={load:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn setup_points_are_each_workloads_largest_network() {
        let nodes: Vec<usize> = Workload::ALL
            .iter()
            .map(|w| w.setup_point(DEFAULT_SEED).nodes())
            .collect();
        assert_eq!(nodes, [64, 1024, 256, 256]);
    }

    #[test]
    fn pooled_points_replay_the_pool_exactly() {
        // A point rebuilt from (config, base seed, load) must be the run
        // the pool evaluated: same report, field for field.
        let t = TopologySpec::FoldedTorus { k: 4 };
        let net = network(t, FlowControl::VirtualChannel);
        let cfg = phases(100, 400, 800, 7);
        let pooled = SimPool::with_workers(1)
            .run(&[PointSpec::new(net.clone(), cfg, uniform(t), 0.3)])
            .remove(0)
            .report;
        let rebuilt = Point::pooled(&net, cfg, &uniform(t), 0.3)
            .simulation()
            .run();
        assert_eq!(pooled, rebuilt);
    }

    #[test]
    fn goldens_hold_one_line_per_point() {
        let lines = |w: Workload| w.golden().lines().count();
        assert_eq!(lines(Workload::PaperSweep), 32);
        assert_eq!(lines(Workload::LoneK32), 1);
        assert_eq!(lines(Workload::ObservedK16), 1);
        assert!(lines(Workload::SaturationK16Deflection) >= 2);
    }
}
