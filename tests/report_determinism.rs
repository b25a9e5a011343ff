//! `SimReport` must render identically across identical runs.
//!
//! The per-class and per-flow maps in the report are `BTreeMap`s, so
//! any serialization or iteration of per-flow results is order-stable
//! — two runs of the same `(config, seed)` must produce reports whose
//! textual renderings are byte-identical, which is what lets CI diff
//! experiment transcripts. (`ocin-lint`'s `nondeterministic-iteration`
//! rule keeps hash maps from creeping back into these paths.) The
//! rendering must also be the same at 1, 2, 4 and 8 shards, byte for
//! byte.

use std::fmt::Write as _;

use ocin::core::reservation::StaticFlowSpec;
use ocin::core::NetworkConfig;
use ocin::sim::{ShardedSimulation, SimConfig, SimReport, Simulation};
use ocin::traffic::{InjectionProcess, TrafficPattern, Workload};

/// A run with dynamic traffic in every class plus two static flows, so
/// the class- and flow-keyed maps are all populated.
fn run(shards: usize) -> SimReport {
    let cfg = NetworkConfig::paper_baseline()
        .with_static_flow(StaticFlowSpec::new(0.into(), 5.into(), 0, 256))
        .with_static_flow(StaticFlowSpec::new(9.into(), 2.into(), 3, 128))
        .with_reservation_period(8);
    let wl = Workload::new(16, 4, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: 0.2 });
    let sim = Simulation::new(cfg, SimConfig::quick())
        .unwrap()
        .with_workload(&wl);
    ShardedSimulation::new(sim, shards).run()
}

/// Renders the report the way an experiment transcript would: every
/// map iterated in key order, floats printed exactly.
fn render(r: &SimReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{r:?}");
    for (class, lat) in &r.class_latency {
        let _ = writeln!(
            out,
            "class {class}: mean {:.17e} p99 {:.17e}",
            lat.mean, lat.p99
        );
    }
    for (flow, jitter) in &r.flow_jitter {
        let _ = writeln!(out, "flow {flow:?}: jitter {jitter:.17e}");
    }
    for (flow, lat) in &r.flow_latency {
        let _ = writeln!(
            out,
            "flow {flow:?}: mean {:.17e} count {}",
            lat.mean, lat.count
        );
    }
    out
}

#[test]
fn two_runs_render_identical_report_text() {
    let a = run(1);
    let b = run(1);
    assert!(!a.class_latency.is_empty(), "classes populated");
    assert!(!a.flow_latency.is_empty(), "flows populated");
    assert_eq!(a, b, "reports must be bit-identical");
    assert_eq!(render(&a), render(&b), "renderings must be byte-identical");
}

#[test]
fn sharded_runs_render_the_sequential_text() {
    let sequential = render(&run(1));
    for shards in [2, 4, 8] {
        assert_eq!(
            render(&run(shards)),
            sequential,
            "{shards} shards changed the report rendering"
        );
    }
}
