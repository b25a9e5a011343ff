//! Executor equivalence: the two-level scheduler must be bit-transparent.
//!
//! `exec.rs` decides how many points run side by side and how many shard
//! workers each point's network is split across — decisions that may
//! change with worker count and batch size, but must never change a
//! result. The property test samples the wave plan (batch size × worker
//! counts × probe/journeys/telemetry × flow control) against the serial
//! `LoadSweep` reference at k = 4, where every point runs unsharded;
//! directed tests at k = 16 give points real shard budgets (a lone
//! point, a saturation search) and pin the budget policy itself.

use std::sync::Arc;

use ocin::core::ProbeConfig;
use ocin::core::{FlowControl, NetworkConfig, TopologySpec};
use ocin::sim::{LoadSweep, SimConfig, SimPool};
use ocin::traffic::{TrafficPattern, Workload};
use proptest::prelude::*;

const LOADS: [f64; 5] = [0.02, 0.05, 0.1, 0.2, 0.35];

const FLOW_CONTROLS: [FlowControl; 3] = [
    FlowControl::VirtualChannel,
    FlowControl::Dropping,
    FlowControl::Deflection,
];

/// Phases short enough for k = 16 points in a debug build.
const SMALL: SimConfig = SimConfig {
    warmup_cycles: 50,
    measure_cycles: 200,
    drain_cycles: 400,
    seed: 0xE4EC,
};

fn sweep(fc: FlowControl, k: usize, pool: Arc<SimPool>) -> LoadSweep {
    LoadSweep::new(
        NetworkConfig::paper_baseline()
            .with_topology(TopologySpec::FoldedTorus { k })
            .with_flow_control(fc),
        SimConfig::quick(),
        Workload::new(k * k, k, TrafficPattern::Uniform),
    )
    .with_pool(pool)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any sampled pool shape reproduces the serial path bit for bit.
    #[test]
    fn executor_matches_serial_evaluation(
        fc_idx in 0usize..3,
        workers in 1usize..=8,
        nloads in 1usize..=5,
        probe in any::<bool>(),
        journeys in any::<bool>(),
        telemetry in any::<bool>(),
    ) {
        let mut s = sweep(FLOW_CONTROLS[fc_idx], 4, Arc::new(SimPool::with_workers(workers)));
        if probe || journeys || telemetry {
            let mut pc = ProbeConfig::counters();
            if journeys {
                pc = pc.with_journeys(0);
            }
            if telemetry {
                pc = pc.with_telemetry(0);
            }
            s = s.with_probe(pc);
        }
        let loads = &LOADS[..nloads];
        // Full-report equality, not just headline numbers.
        prop_assert_eq!(s.run(loads), s.run_serial(loads));
    }
}

/// A lone big point on an under-subscribed pool is given a real shard
/// budget — and still matches the unsharded serial evaluation.
#[test]
fn lone_big_point_is_sharded_and_bit_identical() {
    let pool = Arc::new(SimPool::with_workers(8));
    let s = k16_sweep(Arc::clone(&pool));
    let point = s.point(0.05);
    // 8 idle workers, one k=16 point: budget 8 capped by usefulness at 4.
    let decisions = pool.exec_decisions();
    assert_eq!(decisions.len(), 1);
    assert_eq!(decisions[0].len(), 1);
    assert_eq!(decisions[0][0].shards, 4);
    assert_eq!(vec![point], s.run_serial(&[0.05]));
}

/// A full head wave stays point-parallel (budget 1 per point), and the
/// tail of the same batch gets the freed workers.
#[test]
fn head_and_tail_budgets_follow_the_wave_plan() {
    let pool = Arc::new(SimPool::with_workers(4));
    let s = sweep(FlowControl::VirtualChannel, 4, Arc::clone(&pool));
    s.run(&LOADS); // 5 points on 4 workers: wave 0 ×4, wave 1 ×1.
    let d = &pool.exec_decisions()[0];
    assert!(d[..4].iter().all(|d| d.wave == 0 && d.shards == 1));
    assert_eq!(d[4].wave, 1);
    // k=4 is too small to shard: the tail budget is usefulness-capped.
    assert_eq!(d[4].shards, 1);
}

/// Saturation search is invariant to the shard budgets its probes get:
/// on 16 workers a round of 8 probes runs at 2 shards a probe, and
/// every probe — hence every bracket decision and the load the search
/// lands on — matches the unsharded serial evaluation of its load.
#[test]
fn saturation_search_is_budget_invariant() {
    let pool = Arc::new(SimPool::with_workers(16));
    let s = k16_sweep(Arc::clone(&pool));
    // One round: 8 probes leave a bracket of 1/9 < 0.12. A second round
    // would double a debug run that re-evaluates every probe serially.
    let sat = s.saturation_load(0.12);
    assert!(sat > 0.0 && sat < 1.0, "saturation {sat} must be interior");
    let decisions = pool.exec_decisions().concat();
    assert!(
        decisions.iter().any(|d| d.shards > 1),
        "some probe must be sharded: {decisions:?}"
    );
    for d in &decisions {
        assert_eq!(
            vec![s.point(d.load)],
            s.run_serial(&[d.load]),
            "load {} at {} shards",
            d.load,
            d.shards
        );
    }
}

/// Uniform traffic on the k = 16 folded torus at [`SMALL`] phases.
fn k16_sweep(pool: Arc<SimPool>) -> LoadSweep {
    LoadSweep::new(
        NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 16 }),
        SMALL,
        Workload::new(256, 16, TrafficPattern::Uniform),
    )
    .with_pool(pool)
}
