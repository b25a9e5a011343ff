//! Offered-load sweeps: latency–throughput curves and saturation search.
//!
//! Built on the [`SimPool`] point engine: sweep points evaluate in
//! parallel, repeated points are served from the pool's cache, and the
//! saturation search brackets speculatively — a batch of probes per
//! round instead of one bisection midpoint. All of it is bit-identical
//! to the serial reference path ([`LoadSweep::run_serial`]) because
//! every point's RNG seed depends only on the point itself
//! ([`crate::pool::derive_seed`]).

use std::sync::Arc;

use ocin_core::{NetworkConfig, ProbeConfig};
use ocin_traffic::Workload;

use crate::pool::{PointSpec, SimPool};
use crate::runner::{SimConfig, SimReport};

/// One point on a latency–load curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered load, flits/node/cycle.
    pub offered: f64,
    /// Accepted throughput, flits/node/cycle.
    pub accepted: f64,
    /// Mean network latency, cycles.
    pub mean_latency: f64,
    /// 99th-percentile network latency, cycles.
    pub p99_latency: f64,
    /// The full report.
    pub report: SimReport,
}

/// Accepted throughput must stay within this fraction of offered load
/// for a point to count as below saturation.
const SATURATION_ACCEPT_FRAC: f64 = 0.95;

/// Sweeps offered load over a network/workload template.
pub struct LoadSweep {
    net_cfg: NetworkConfig,
    sim_cfg: SimConfig,
    workload_template: Workload,
    pool: Arc<SimPool>,
    probe: Option<ProbeConfig>,
}

impl LoadSweep {
    /// Creates a sweep with its own [`SimPool`]; the workload's
    /// injection process is replaced at each point by
    /// `Bernoulli { flit_rate: load }`.
    pub fn new(net_cfg: NetworkConfig, sim_cfg: SimConfig, workload: Workload) -> LoadSweep {
        LoadSweep {
            net_cfg,
            sim_cfg,
            workload_template: workload,
            pool: Arc::new(SimPool::new()),
            probe: None,
        }
    }

    /// Attaches a probe configured by `probe` to every point of the
    /// sweep; each point's report then carries
    /// [`ocin_core::NetworkMetrics`] (with a
    /// [`ocin_core::DecompositionReport`] when `probe` collects journeys
    /// and an [`ocin_core::TelemetryReport`] when it collects telemetry).
    /// Measurements are unchanged — probes are purely observational.
    /// Sweeps keep memory bounded with `with_journeys(0)`, which keeps
    /// the stage aggregates and no per-packet records.
    #[must_use]
    pub fn with_probe(mut self, probe: ProbeConfig) -> LoadSweep {
        self.probe = Some(probe);
        self
    }

    /// Shares a pool (and hence its point cache) with other sweeps in
    /// the same experiment.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<SimPool>) -> LoadSweep {
        self.pool = pool;
        self
    }

    /// The pool this sweep evaluates on.
    pub fn pool(&self) -> Arc<SimPool> {
        Arc::clone(&self.pool)
    }

    /// The [`PointSpec`] for `load`.
    pub fn spec(&self, load: f64) -> PointSpec {
        PointSpec {
            probe: self.probe,
            ..PointSpec::new(
                self.net_cfg.clone(),
                self.sim_cfg,
                self.workload_template.clone(),
                load,
            )
        }
    }

    /// Runs one point (through the pool's cache).
    ///
    /// # Panics
    ///
    /// Panics if the network configuration is invalid (programmer error
    /// in the sweep setup).
    pub fn point(&self, load: f64) -> LoadPoint {
        self.pool
            .run(std::slice::from_ref(&self.spec(load)))
            .pop()
            .expect("one spec in, one point out")
    }

    /// Runs every load in `loads` on the pool's worker threads.
    /// Bit-identical to [`LoadSweep::run_serial`] on the same loads.
    pub fn run(&self, loads: &[f64]) -> Vec<LoadPoint> {
        let specs: Vec<PointSpec> = loads.iter().map(|&l| self.spec(l)).collect();
        self.pool.run(&specs)
    }

    /// The serial reference path: evaluates each load in order on the
    /// calling thread, bypassing the pool and its cache.
    pub fn run_serial(&self, loads: &[f64]) -> Vec<LoadPoint> {
        loads.iter().map(|&l| self.spec(l).evaluate()).collect()
    }

    /// Searches for the saturation throughput: the highest offered load
    /// (within `tol`) whose accepted throughput stays within 95% of
    /// offered.
    ///
    /// Rather than bisecting one midpoint at a time, each round
    /// evaluates a batch of evenly spaced probes across the open
    /// bracket — sized to the pool's worker count, since speculative
    /// probes are only free when workers are idle — and renews the
    /// bracket from the batch: the lowest failing probe becomes the
    /// upper bound and the highest passing probe below it the lower
    /// bound. With `b` probes the bracket shrinks by `b + 1` per round
    /// (vs 2 for bisection; `b = 1` *is* bisection), and the rule stays
    /// correct even if the measured pass/fail pattern is non-monotone
    /// across the batch.
    pub fn saturation_load(&self, tol: f64) -> f64 {
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        let probes_per_round = self.pool.workers().clamp(1, 8);
        while hi - lo > tol {
            let step = (hi - lo) / (probes_per_round + 1) as f64;
            let probes: Vec<f64> = (1..=probes_per_round)
                .map(|i| lo + step * i as f64)
                .collect();
            let points = self.run(&probes);
            let mut new_hi = hi;
            for p in &points {
                if p.accepted < SATURATION_ACCEPT_FRAC * p.offered && p.offered < new_hi {
                    new_hi = p.offered;
                }
            }
            let mut new_lo = lo;
            for p in &points {
                if p.offered < new_hi
                    && p.accepted >= SATURATION_ACCEPT_FRAC * p.offered
                    && p.offered > new_lo
                {
                    new_lo = p.offered;
                }
            }
            if new_hi - new_lo >= hi - lo {
                // Floating-point spacing produced no progress; the
                // bracket is as tight as representable.
                break;
            }
            lo = new_lo;
            hi = new_hi;
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocin_core::TopologySpec;
    use ocin_traffic::TrafficPattern;

    fn sweep(spec: TopologySpec) -> LoadSweep {
        LoadSweep::new(
            NetworkConfig::paper_baseline().with_topology(spec),
            SimConfig::quick(),
            Workload::new(16, 4, TrafficPattern::Uniform),
        )
    }

    #[test]
    fn latency_rises_with_load() {
        let s = sweep(TopologySpec::FoldedTorus { k: 4 });
        let pts = s.run(&[0.05, 0.4]);
        assert!(pts[1].mean_latency > pts[0].mean_latency);
        assert!(pts[0].accepted <= pts[0].offered + 0.02);
    }

    #[test]
    fn torus_saturation_beats_mesh() {
        let torus = sweep(TopologySpec::FoldedTorus { k: 4 }).saturation_load(0.1);
        let mesh = sweep(TopologySpec::Mesh { k: 4 }).saturation_load(0.1);
        assert!(
            torus > mesh * 0.99,
            "torus saturation {torus} vs mesh {mesh}"
        );
    }

    #[test]
    fn speculative_search_agrees_with_bisection() {
        // A 4-wide speculative bracket and plain bisection (1 probe)
        // must land on the same saturation region.
        let wide =
            sweep(TopologySpec::FoldedTorus { k: 4 }).with_pool(Arc::new(SimPool::with_workers(4)));
        let narrow =
            sweep(TopologySpec::FoldedTorus { k: 4 }).with_pool(Arc::new(SimPool::with_workers(1)));
        let a = wide.saturation_load(0.05);
        let b = narrow.saturation_load(0.05);
        assert!(
            (a - b).abs() < 0.2,
            "speculative {a} vs bisection {b} diverged"
        );
    }

    #[test]
    fn saturation_search_reuses_curve_points() {
        let s = sweep(TopologySpec::FoldedTorus { k: 4 });
        let sat = s.saturation_load(0.05);
        assert!(sat > 0.0 && sat < 1.0, "saturation {sat} must be interior");
        let cached = s.pool().cached_points();
        // A repeated search touches only cached points.
        let again = s.saturation_load(0.05);
        assert_eq!(sat, again);
        assert_eq!(s.pool().cached_points(), cached);
    }
}
