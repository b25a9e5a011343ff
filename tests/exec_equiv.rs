//! Executor equivalence: the two-level scheduler must be bit-transparent.
//!
//! `exec.rs` decides how many points run side by side and how many shard
//! workers each point's network is split across — decisions that may
//! change with worker count, budget caps, and batch size, but must never
//! change a result. The property test samples that whole decision space
//! (batch size × worker counts × budget caps × probe/journeys/telemetry
//! × flow control) against the serial `LoadSweep` reference; directed
//! tests pin the budget policy itself (sharded tails, explicit-shards
//! override).

use std::sync::Arc;

use ocin::core::{FlowControl, NetworkConfig, TopologySpec};
use ocin::sim::{Executor, LoadSweep, PointSpec, SimConfig, SimPool};
use ocin::traffic::{TrafficPattern, Workload};
use proptest::prelude::*;

const LOADS: [f64; 5] = [0.02, 0.05, 0.1, 0.2, 0.35];

const FLOW_CONTROLS: [FlowControl; 3] = [
    FlowControl::VirtualChannel,
    FlowControl::Dropping,
    FlowControl::Deflection,
];

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

    /// Any sampled executor shape reproduces the serial path bit for bit.
    #[test]
    fn executor_matches_serial_evaluation(
        fc_idx in 0usize..3,
        workers in 1usize..=8,
        cap in 0usize..=4, // 0 = no budget cap

        nloads in 1usize..=5,
        probe in any::<bool>(),
        journeys in any::<bool>(),
        telemetry in any::<bool>(),
    ) {
        let mut exec = Executor::new(workers);
        if cap > 0 {
            exec = exec.with_budget_cap(cap);
        }
        let s = sweep(FLOW_CONTROLS[fc_idx], 4, Arc::new(SimPool::with_executor(exec)))
            .with_probe(probe)
            .with_journeys(journeys)
            .with_telemetry(telemetry);
        let loads = &LOADS[..nloads];
        // Full-report equality, not just headline numbers.
        prop_assert_eq!(s.run(loads), s.run_serial(loads));
    }
}

/// A lone big point on an under-subscribed pool is given a real shard
/// budget — and still matches the unsharded serial evaluation.
#[test]
fn lone_big_point_is_sharded_and_bit_identical() {
    let small = SimConfig {
        warmup_cycles: 50,
        measure_cycles: 200,
        drain_cycles: 400,
        seed: 0xE4EC,
    };
    let pool = Arc::new(SimPool::with_workers(8));
    let s = LoadSweep::new(
        NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 16 }),
        small,
        Workload::new(256, 16, TrafficPattern::Uniform),
    )
    .with_pool(Arc::clone(&pool));
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

/// An explicit `with_shards` request bypasses the budget policy, and
/// the result is still bit-identical to unsharded evaluation.
#[test]
fn explicit_shards_override_the_policy() {
    let pool = SimPool::with_workers(2);
    let spec = PointSpec::new(
        NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 4 }),
        SimConfig::quick(),
        Workload::new(16, 4, TrafficPattern::Uniform),
        0.1,
    )
    .with_shards(3);
    let pooled = pool.run(std::slice::from_ref(&spec));
    assert_eq!(pool.exec_decisions()[0][0].shards, 3);
    assert_eq!(pooled[0], spec.evaluate_sharded(1));
}

/// Saturation search is invariant to the shard-budget policy: the same
/// worker count with budgets capped at 1 (the pre-executor pool) brackets
/// the same probes and lands on exactly the same load.
#[test]
fn saturation_search_is_budget_invariant() {
    let with_budgets = sweep(
        FlowControl::VirtualChannel,
        4,
        Arc::new(SimPool::with_workers(8)),
    );
    let capped = sweep(
        FlowControl::VirtualChannel,
        4,
        Arc::new(SimPool::with_workers(8).with_budget_cap(1)),
    );
    let a = with_budgets.saturation_load(0.05);
    let b = capped.saturation_load(0.05);
    assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
}
