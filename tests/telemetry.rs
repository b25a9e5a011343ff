//! Time-resolved telemetry: exact reconciliation, shard byte-identity,
//! and zero perturbation.
//!
//! Three contracts (DESIGN.md §3.17):
//!
//! 1. **Reconciliation** — every field of the windowed series is a
//!    plain per-window sum, so summing any series across all windows
//!    must reproduce the whole-run probe total *exactly*, for every
//!    flow-control method, load, and fault rate.
//! 2. **Shard byte-identity** — telemetry is fed from the replayed
//!    probe event stream, so a sharded run's rendered exports (text,
//!    JSON, Perfetto) must be byte-identical to the sequential run's at
//!    any shard count.
//! 3. **Observation only** — attaching telemetry must not change a
//!    single measured bit of the report.

use ocin_core::probe::ProbeConfig;
use ocin_core::{FlowControl, NetworkConfig, TelemetryReport, TopologySpec};
use ocin_sim::{ShardedSimulation, SimConfig, SimReport, Simulation};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};
use proptest::prelude::*;

fn quick_cfg(fc: FlowControl, k: usize) -> NetworkConfig {
    NetworkConfig::paper_baseline()
        .with_topology(TopologySpec::FoldedTorus { k })
        .with_flow_control(fc)
}

/// One quick telemetry-probed run with the sampled knobs applied,
/// stepped on `shards` worker threads (1 = the sequential reference).
fn run(
    fc: FlowControl,
    k: usize,
    injection: InjectionProcess,
    window: u64,
    fault_rate: f64,
    shards: usize,
) -> SimReport {
    let wl = Workload::new(k * k, k, TrafficPattern::Uniform).injection(injection);
    let mut sim = Simulation::new(quick_cfg(fc, k), SimConfig::quick())
        .expect("valid config")
        .with_workload(&wl)
        .with_probe(ProbeConfig::counters().with_telemetry(window));
    sim.network_mut().set_transient_fault_rate(fault_rate);
    ShardedSimulation::new(sim, shards).run()
}

fn telemetry(report: &SimReport) -> &TelemetryReport {
    report
        .metrics
        .as_ref()
        .expect("probed run carries metrics")
        .telemetry
        .as_ref()
        .expect("telemetry-probed run carries the report")
}

/// Asserts every windowed series sums exactly to the corresponding
/// whole-run probe total, and that the histogram populations agree with
/// the series' own latency counters.
fn assert_reconciles(report: &SimReport, label: &str) {
    let metrics = report.metrics.as_ref().expect("probed");
    let t = telemetry(report);
    let sum = |f: fn(&ocin_core::WindowRow) -> u64| t.windows.iter().map(f).sum::<u64>();
    let totals = [
        (
            "injected",
            sum(|w| w.packets_injected),
            metrics.totals.packets_injected,
        ),
        (
            "delivered",
            sum(|w| w.packets_delivered),
            metrics.totals.packets_delivered,
        ),
        (
            "forwarded",
            sum(|w| w.flits_forwarded),
            metrics.totals.flits_forwarded,
        ),
        (
            "dropped",
            sum(|w| w.packets_dropped),
            metrics.totals.packets_dropped,
        ),
        ("misroutes", sum(|w| w.misroutes), metrics.totals.misroutes),
        (
            "conflicts",
            sum(|w| w.alloc_conflicts),
            metrics.totals.alloc_conflicts,
        ),
        (
            "stalls",
            sum(|w| w.credit_stalls),
            metrics.totals.credit_stalls,
        ),
        (
            "preemptions",
            sum(|w| w.preemptions),
            metrics.totals.preemptions,
        ),
        (
            "occupancy",
            sum(|w| w.occupancy_integral),
            metrics.totals.occupancy_integral,
        ),
    ];
    for (name, series, total) in totals {
        assert_eq!(series, total, "{label}: window {name} sum != probe total");
    }
    // The quantile histograms saw exactly the delivered packets, per
    // class and per pair, and the per-window latency counters agree.
    for (c, h) in t.class_latency.iter().enumerate() {
        assert_eq!(
            h.count,
            t.windows.iter().map(|w| w.latency_count[c]).sum::<u64>(),
            "{label}: class {c} histogram count != window latency counts"
        );
        assert_eq!(
            h.sum,
            t.windows.iter().map(|w| w.latency_sum[c]).sum::<u64>(),
            "{label}: class {c} histogram sum != window latency sums"
        );
    }
    let hist_total: u64 = t.class_latency.iter().map(|h| h.count).sum();
    assert_eq!(
        hist_total, metrics.totals.packets_delivered,
        "{label}: histogram population"
    );
    let pair_total: u64 = metrics.pair_histograms.iter().map(|(_, h)| h.count).sum();
    assert_eq!(
        pair_total, metrics.totals.packets_delivered,
        "{label}: pair population"
    );
    // The series is gap-free from window 0.
    for (i, w) in t.windows.iter().enumerate() {
        assert_eq!(w.index, i as u64, "{label}: window indices must be dense");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Window sums reconcile exactly with whole-run probe totals across
    /// flow control x load x faults x window width.
    #[test]
    fn window_series_reconciles_with_probe_totals(
        fc in prop_oneof![
            Just(FlowControl::VirtualChannel),
            Just(FlowControl::Dropping),
            Just(FlowControl::Deflection),
        ],
        load in 0.02f64..0.6,
        faulty in any::<bool>(),
        window in prop_oneof![Just(64u64), Just(256), Just(1024)],
    ) {
        let fault_rate = if faulty { 0.02 } else { 0.0 };
        let report = run(
            fc,
            4,
            InjectionProcess::Bernoulli { flit_rate: load },
            window,
            fault_rate,
            1,
        );
        assert_reconciles(
            &report,
            &format!("{fc:?} @ {load:.3}, faults={faulty}, window={window}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sharded telemetry is byte-identical to sequential: the replayed
    /// event stream feeds the collector the same multiset of events per
    /// window, so every rendered export matches to the byte.
    #[test]
    fn sharded_telemetry_is_byte_identical(
        fc in prop_oneof![
            Just(FlowControl::VirtualChannel),
            Just(FlowControl::Dropping),
        ],
        load in 0.05f64..0.4,
        shards in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        let inj = InjectionProcess::Bernoulli { flit_rate: load };
        let seq = run(fc, 4, inj, 256, 0.0, 1);
        let shd = run(fc, 4, inj, 256, 0.0, shards);
        let (a, b) = (telemetry(&seq), telemetry(&shd));
        prop_assert_eq!(a, b, "telemetry reports differ ({:?} @ {:.3}, {} shards)", fc, load, shards);
        prop_assert_eq!(a.to_text(), b.to_text(), "text export differs");
        prop_assert_eq!(a.to_json(), b.to_json(), "JSON export differs");
        prop_assert_eq!(a.to_perfetto_json(), b.to_perfetto_json(), "Perfetto export differs");
        prop_assert_eq!(a.slo_table(), b.slo_table(), "SLO table differs");
    }
}

/// Shard byte-identity at every CI shard count on the 256-tile network,
/// under the bursty process the tail experiment uses.
#[test]
fn sharded_bursty_telemetry_matches_sequential_at_k16() {
    let inj = InjectionProcess::BurstyOnOff {
        flit_rate_on: 0.6,
        p_on_to_off: 0.01,
        p_off_to_on: 0.01,
    };
    let seq = run(FlowControl::VirtualChannel, 16, inj, 256, 0.0, 1);
    for shards in [2usize, 4, 8] {
        let shd = run(FlowControl::VirtualChannel, 16, inj, 256, 0.0, shards);
        assert_eq!(
            telemetry(&seq).to_text(),
            telemetry(&shd).to_text(),
            "k=16 text export differs at {shards} shards"
        );
        assert_eq!(
            telemetry(&seq).to_json(),
            telemetry(&shd).to_json(),
            "k=16 JSON export differs at {shards} shards"
        );
    }
}

/// Attaching telemetry must not change a single measured bit: the
/// telemetry-probed report with metrics stripped equals the unprobed
/// report, and equals the counters-only probed report likewise
/// stripped.
#[test]
fn telemetry_probe_is_observation_only() {
    for fc in [
        FlowControl::VirtualChannel,
        FlowControl::Dropping,
        FlowControl::Deflection,
    ] {
        let wl = Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: 0.35 });
        let run_with = |probe: Option<ProbeConfig>| {
            let mut sim = Simulation::new(quick_cfg(fc, 4), SimConfig::quick())
                .expect("valid config")
                .with_workload(&wl);
            if let Some(pc) = probe {
                sim = sim.with_probe(pc);
            }
            sim.run()
        };
        let bare = run_with(None);
        let counters = run_with(Some(ProbeConfig::counters()));
        let mut telemetry_probed = run_with(Some(ProbeConfig::counters().with_telemetry(0)));
        assert!(
            telemetry_probed
                .metrics
                .as_ref()
                .is_some_and(|m| m.telemetry.is_some()),
            "telemetry-probed run must carry the report ({fc:?})"
        );
        assert!(
            counters
                .metrics
                .as_ref()
                .is_some_and(|m| m.telemetry.is_none()),
            "counters-only run must not pay for telemetry ({fc:?})"
        );
        let mut counters = counters;
        counters.metrics = None;
        telemetry_probed.metrics = None;
        assert_eq!(
            bare, telemetry_probed,
            "telemetry perturbed the run ({fc:?})"
        );
        assert_eq!(bare, counters, "counters probe perturbed the run ({fc:?})");
    }
}

/// The acceptance scenario: a fixed-seed bursty k = 16 run yields a
/// deterministic SLO table whose p99.9 strictly exceeds its p50, a
/// window series that reconciles exactly, and — overdriven — a detected
/// saturation onset; two invocations render byte-identical exports.
#[test]
fn bursty_k16_tail_and_onset_acceptance() {
    let bursty = InjectionProcess::BurstyOnOff {
        flit_rate_on: 0.6,
        p_on_to_off: 0.01,
        p_off_to_on: 0.01,
    };
    let a = run(FlowControl::VirtualChannel, 16, bursty, 256, 0.0, 1);
    let b = run(FlowControl::VirtualChannel, 16, bursty, 256, 0.0, 1);
    let t = telemetry(&a);
    assert_eq!(
        t.to_text(),
        telemetry(&b).to_text(),
        "reruns must render identically"
    );
    assert_eq!(t.to_json(), telemetry(&b).to_json());
    assert_eq!(t.slo_table(), telemetry(&b).slo_table());

    let agg = t.aggregate_latency();
    assert!(agg.count > 1_000, "bursty run must deliver real traffic");
    assert!(agg.is_exact(), "latencies sit below the exact horizon");
    assert!(
        agg.percentile(99.9) > agg.percentile(50.0),
        "bursty tail p99.9 ({}) must exceed p50 ({})",
        agg.percentile(99.9),
        agg.percentile(50.0),
    );
    assert_reconciles(&a, "bursty k16");

    // Overdriven: mean load well past the bisection cap grows the
    // backlog window over window.
    let over = run(
        FlowControl::VirtualChannel,
        16,
        InjectionProcess::BurstyOnOff {
            flit_rate_on: 1.4,
            p_on_to_off: 0.005,
            p_off_to_on: 0.02,
        },
        256,
        0.0,
        1,
    );
    assert!(
        telemetry(&over).saturation_onset(3, 1).is_some(),
        "overdriven bursty load must trip the saturation-onset detector"
    );
    // The sub-saturation run must not.
    let calm = run(
        FlowControl::VirtualChannel,
        16,
        InjectionProcess::Bernoulli { flit_rate: 0.1 },
        256,
        0.0,
        1,
    );
    assert_eq!(
        telemetry(&calm).saturation_onset(3, 8),
        None,
        "a calm run must not trip the detector"
    );
}
