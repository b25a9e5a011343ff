//! Executor equivalence: the two-level scheduler must be bit-transparent.
//!
//! `exec.rs` runs a batch through one longest-first queue and decides how
//! many points run side by side and how many shard workers each point's
//! network is split across — decisions that may change with worker count
//! and batch size, and which worker runs a point depends on timing, but
//! none of it may change a result. The property test samples the queue
//! (batch size × worker counts × probe/journeys/telemetry × flow control)
//! against the serial `LoadSweep` reference at k = 4, where every point
//! runs unsharded; directed tests at k = 16 give points real shard
//! budgets (a lone point, a saturation search), pin the budget and
//! dispatch policy itself, and check that a failing point stops its
//! batch.

use std::sync::Arc;

use ocin::core::ProbeConfig;
use ocin::core::{FlowControl, NetworkConfig, TopologySpec};
use ocin::sim::{LoadSweep, PointSpec, SimConfig, SimPool};
use ocin::traffic::{LengthDist, TrafficPattern, Workload};
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

/// A batch of at least as many points as workers runs point-parallel
/// (budget 1 per point), longest first: the rounds count down the load
/// axis, and the decisions stay in input order. A short batch gets the
/// idle workers as shards.
#[test]
fn budgets_follow_the_queue_plan() {
    let pool = Arc::new(SimPool::with_workers(4));
    let s = sweep(FlowControl::VirtualChannel, 4, Arc::clone(&pool));
    s.run(&LOADS); // 5 points on 4 workers, costliest (highest load) first.
    let d = &pool.exec_decisions()[0];
    let loads: Vec<f64> = d.iter().map(|d| d.load).collect();
    assert_eq!(loads, LOADS);
    assert!(d.iter().all(|d| d.shards == 1));
    let waves: Vec<usize> = d.iter().map(|d| d.wave).collect();
    assert_eq!(waves, [1, 0, 0, 0, 0]);

    let pool = Arc::new(SimPool::with_workers(8));
    k16_sweep(Arc::clone(&pool)).run(&LOADS[..3]);
    // 3 points on 8 workers: pow2 floor of 8/3 is 2 shards each.
    let d = &pool.exec_decisions()[0];
    assert!(d.iter().all(|d| d.wave == 0 && d.shards == 2));
}

/// A pool batch with one point whose workload offers 65-flit packets,
/// which can never fit the 64-flit injection queue, panics with that
/// point's own message — instead of hanging or losing the message.
#[test]
fn unroutable_point_fails_its_batch() {
    let (tx, rx) = std::sync::mpsc::channel();
    // ocin-lint: allow(raw-thread-spawn) — watchdog: a hung batch must fail the test, not block it
    std::thread::spawn(move || {
        let net = NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 8 });
        let workload = Workload::new(64, 8, TrafficPattern::Uniform);
        let mut specs: Vec<PointSpec> = [0.05, 0.1, 0.15, 0.2, 0.25]
            .iter()
            .map(|&load| PointSpec::new(net.clone(), SMALL, workload.clone(), load))
            .collect();
        let long = workload.length(LengthDist::Fixed { flits: 65 });
        specs.insert(2, PointSpec::new(net, SMALL, long, 0.3));
        let got = std::panic::catch_unwind(|| SimPool::with_workers(2).run(&specs));
        let msg = got.err().map(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(ToString::to_string))
                .unwrap_or_default()
        });
        let _ = tx.send(msg);
    });
    let msg = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the batch hung instead of panicking")
        .expect("the batch finished instead of panicking");
    assert!(
        msg.starts_with("workload produced an unroutable packet"),
        "panicked with {msg:?}"
    );
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
