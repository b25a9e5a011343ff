//! Probe observability: zero perturbation when attached, exact
//! accounting when read.
//!
//! The contract under test is the one the whole subsystem rests on:
//! probes observe, they never decide. A probed run must produce a
//! report whose every measurement is bit-identical to the unprobed run
//! of the same configuration and seed, and the probe's own counters
//! must reconcile exactly with the simulator's independent statistics.

mod common;

use common::reference_run;
use ocin_core::ids::{NodeId, PacketId};
use ocin_core::{
    Event, EventKind, EventTrace, FlowControl, Network, NetworkConfig, NetworkProbe, PacketSpec,
    Probe, ProbeConfig, ServiceClass, TopologySpec,
};
use ocin_sim::{LatencyReport, LoadSweep, ShardedSimulation, SimConfig, SimReport, Simulation};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};
use proptest::collection::vec;
use proptest::prelude::*;

fn quick_cfg() -> NetworkConfig {
    NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 4 })
}

fn quick_run(net_cfg: NetworkConfig, probe: Option<ProbeConfig>) -> SimReport {
    let wl = Workload::new(16, 4, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: 0.35 });
    let mut sim = Simulation::new(net_cfg, SimConfig::quick())
        .expect("valid config")
        .with_workload(&wl);
    if let Some(pc) = probe {
        sim = sim.with_probe(pc);
    }
    sim.run()
}

/// The probe-overhead regression gate: attaching a full probe
/// (counters, trace, *and* journey collector) must not change a single
/// measured bit.
#[test]
fn probed_report_is_bit_identical_to_unprobed() {
    for fc in [
        FlowControl::VirtualChannel,
        FlowControl::Dropping,
        FlowControl::Deflection,
    ] {
        let cfg = quick_cfg().with_flow_control(fc);
        let bare = quick_run(cfg.clone(), None);
        let mut probed = quick_run(
            cfg,
            Some(ProbeConfig::counters().with_trace(1024).with_journeys(256)),
        );
        let metrics = probed
            .metrics
            .as_ref()
            .expect("probed run must carry metrics");
        assert!(
            metrics.decomposition.is_some(),
            "journeyed run must carry a decomposition ({fc:?})"
        );
        probed.metrics = None;
        assert_eq!(bare, probed, "probe perturbed the simulation ({fc:?})");
    }
}

/// Per-router probe counters must sum to the simulator's own global
/// statistics, for every flow-control method.
#[test]
fn probe_counters_reconcile_with_sim_report() {
    for fc in [
        FlowControl::VirtualChannel,
        FlowControl::Dropping,
        FlowControl::Deflection,
    ] {
        let report = quick_run(
            quick_cfg().with_flow_control(fc),
            Some(ProbeConfig::counters()),
        );
        let metrics = report.metrics.as_ref().expect("probed");
        assert_eq!(
            metrics.totals.flits_forwarded,
            metrics
                .routers
                .iter()
                .map(ocin_core::RouterProbe::flits_forwarded)
                .sum(),
            "totals must be the sum of the per-router blocks ({fc:?})"
        );
        assert_eq!(
            metrics.totals.packets_dropped, report.packets_dropped,
            "probe drops vs SimReport ({fc:?})"
        );
        assert_eq!(
            metrics.totals.misroutes, report.deflections,
            "probe misroutes vs SimReport ({fc:?})"
        );
        // Whole-run conservation: everything injected either arrived,
        // was dropped, or is still in flight at the horizon.
        assert!(
            metrics.totals.packets_delivered + metrics.totals.packets_dropped
                <= metrics.totals.packets_injected,
            "delivered {} + dropped {} exceeds injected {} ({fc:?})",
            metrics.totals.packets_delivered,
            metrics.totals.packets_dropped,
            metrics.totals.packets_injected,
        );
    }
}

/// Counter and histogram accounting at a known tiny workload: one
/// packet from node 0 to its east neighbour takes exactly 5 cycles and
/// 2 hops (tile-out at the source, tile-in at the destination).
#[test]
fn single_packet_accounting_is_exact() {
    let mut net = Network::new(quick_cfg()).expect("valid config");
    net.attach_probe(NetworkProbe::for_network(
        net.config(),
        ProbeConfig::counters().with_trace(64),
    ));
    net.inject(&PacketSpec::new(0.into(), 1.into()).payload_bits(64))
        .expect("inject");
    net.drain(100);
    let cycles = net.cycle();
    let metrics = net.take_probe().expect("attached").into_metrics(cycles);

    assert_eq!(metrics.totals.packets_injected, 1);
    assert_eq!(metrics.totals.packets_delivered, 1);
    // One hop east plus the launch out of the source router.
    assert_eq!(metrics.totals.flits_forwarded, net.stats().energy.flit_hops);
    let (pair, hist) = &metrics.pair_histograms[0];
    assert_eq!(*pair, (NodeId::new(0), NodeId::new(1)));
    assert_eq!(hist.count, 1);
    assert_eq!(hist.min, 5, "zero-load latency of one hop is 5 cycles");
    assert_eq!(hist.max, 5);
    assert_eq!(hist.mean(), 5.0);

    // The trace saw the full life of the packet, in causal order.
    let kinds: Vec<EventKind> = metrics.trace.events().map(|e| e.kind).collect();
    assert_eq!(kinds.first(), Some(&EventKind::Inject));
    assert_eq!(kinds.last(), Some(&EventKind::Deliver));
    assert!(kinds.contains(&EventKind::Hop));

    // The histogram summary survives the conversion into a sim-layer
    // latency report.
    let lr = LatencyReport::from_quantiles(hist);
    assert_eq!(lr.count, 1);
    assert_eq!(lr.mean, 5.0);
    assert_eq!(lr.min, 5.0);
    assert_eq!(lr.max, 5.0);
}

/// Per-pair percentiles are exact: 23 deliveries at 5 cycles and 2 at
/// 6 put the nearest-rank p99 (rank 25 of 25) on 6. A power-of-two
/// bucket floor would report 5, the [4, 8) bucket's floor clamped to
/// the minimum.
#[test]
fn pair_percentiles_are_exact() {
    let mut probe = NetworkProbe::new(4, 8, ProbeConfig::counters());
    for (i, latency) in std::iter::repeat_n(5, 23).chain([6, 6]).enumerate() {
        let event = Event::Delivered {
            src: NodeId::new(2),
            dst: NodeId::new(3),
            packet: PacketId(i as u64),
            network_latency: latency,
            num_flits: 1,
            class: ServiceClass::Bulk,
        };
        probe.record(100 + i as u64, event);
    }
    let metrics = probe.into_metrics(200);
    let pair = metrics.pairs[0];
    assert_eq!((pair.src, pair.dst, pair.count), (2, 3, 25));
    assert_eq!((pair.min, pair.p50, pair.p99, pair.max), (5, 5, 6, 6));
    let lr = LatencyReport::from_quantiles(&metrics.pair_histograms[0].1);
    assert_eq!((lr.p50, lr.p99, lr.p999), (5.0, 6.0, 6.0));
}

/// Probed sweep points carry metrics without disturbing determinism:
/// the same sweep without probes produces the same measurements, and
/// the pool caches probed and unprobed points separately.
#[test]
fn probed_sweep_matches_unprobed_measurements() {
    let sweep = |probe: bool| {
        let sweep = LoadSweep::new(
            quick_cfg(),
            SimConfig::quick(),
            Workload::new(16, 4, TrafficPattern::Uniform),
        );
        let sweep = if probe {
            sweep.with_probe(ProbeConfig::counters())
        } else {
            sweep
        };
        sweep.run(&[0.1, 0.3])
    };
    let bare = sweep(false);
    let probed = sweep(true);
    assert_eq!(bare.len(), probed.len());
    for (b, p) in bare.iter().zip(&probed) {
        assert!(p.report.metrics.is_some() && b.report.metrics.is_none());
        let mut stripped = p.report.clone();
        stripped.metrics = None;
        assert_eq!(b.report, stripped, "probe changed a sweep measurement");
        // The probe's aggregate histogram mean agrees with the sampled
        // mean to within histogram arithmetic (both are exact means of
        // the same packet population over the whole run vs the window,
        // so require the window population to be a subset: the probe
        // observed at least as many packets).
        let metrics = p.report.metrics.as_ref().unwrap();
        assert!(
            metrics.totals.packets_delivered >= p.report.packets_delivered,
            "probe saw fewer deliveries than the measurement window"
        );
    }
}

/// `EventTrace::from_text` either rejects `text` or returns a trace that
/// survives its own `to_text` unchanged; it never panics.
fn rejects_or_round_trips(text: &str) {
    if let Ok(trace) = EventTrace::from_text(text) {
        assert_eq!(
            EventTrace::from_text(&trace.to_text()),
            Ok(trace),
            "{text:?}"
        );
    }
}

/// A well-formed `ocin-events v1` text of `events` lines, each drawn as
/// (cycle, kind, node, port, vc, packet).
fn events_text(events: &[(u64, usize, u64, u64, u64, u64)]) -> String {
    let mut text = String::from("ocin-events v1\n");
    for &(cycle, kind, node, port, vc, packet) in events {
        let code = b"IHVDXMACP"[kind] as char;
        text.push_str(&format!("{cycle} {code} {node} {port} {vc} {packet}\n"));
    }
    text
}

/// Replacement fields a mutation may splice in: empty, non-numeric,
/// signed, overflowing, just out of range, wrong kinds, and non-ASCII.
const JUNK_FIELDS: [&str; 12] = [
    "",
    "x",
    "-1",
    "+5",
    "18446744073709551616",
    "65536",
    "5",
    "8",
    "Z",
    "HH",
    "0x10",
    "\u{663}",
];

/// Streamed collection reproduces the reference loop exactly: the
/// report, metrics included, of `Simulation::run` and of 2- and 3-shard
/// runs equals the reference's, probed and unprobed. An unprobed run
/// folds each window's deliveries on the calling thread at one cell
/// and streams them at two and three; a probed one streams its events
/// too, tens of thousands of them or more, so it spans from several
/// hand-offs (light load) to over a hundred (k = 8). At k = 4 the
/// light-load run exits early in drain and the saturated one runs its
/// drain budget out.
#[test]
fn streamed_collection_matches_the_reference_loop() {
    let pc = ProbeConfig::counters()
        .with_trace(256)
        .with_journeys(64)
        .with_telemetry(0);
    let cases = [
        (4, 0.3, 2_000),
        (4, 0.05, 2_000),
        (4, 0.9, 300),
        (8, 0.3, 2_000),
    ];
    for fc in [
        FlowControl::VirtualChannel,
        FlowControl::Dropping,
        FlowControl::Deflection,
    ] {
        for (k, load, drain_cycles) in cases {
            let net_cfg = NetworkConfig::paper_baseline()
                .with_topology(TopologySpec::FoldedTorus { k })
                .with_flow_control(fc);
            let cfg = SimConfig {
                warmup_cycles: 200,
                measure_cycles: 1_000,
                drain_cycles,
                seed: 11,
            };
            let wl = Workload::new(k * k, k, TrafficPattern::Uniform)
                .injection(InjectionProcess::Bernoulli { flit_rate: load });
            for probe in [Some(pc), None] {
                let net = Network::new(net_cfg.clone()).expect("valid config");
                let want = format!("{:?}", reference_run(net, cfg, Some(&wl), None, probe));
                for shards in [1, 2, 3] {
                    let mut sim = Simulation::new(net_cfg.clone(), cfg)
                        .expect("valid config")
                        .with_workload(&wl);
                    if let Some(pc) = probe {
                        sim = sim.with_probe(pc);
                    }
                    let got = ShardedSimulation::new(sim, shards).run();
                    assert!(
                        format!("{got:?}") == want,
                        "{fc:?} k={k} load {load}, {shards} shards, probed {}: \
                         streamed report differs",
                        probe.is_some()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, with or without a valid header, never panic the
    /// parser.
    #[test]
    fn event_text_survives_random_bytes(
        bytes in vec(any::<u8>(), 0..160),
        alphabet in vec(0usize..24, 0..160),
        headed in any::<bool>(),
    ) {
        rejects_or_round_trips(&String::from_utf8_lossy(&bytes));
        // Bytes drawn from the format's own alphabet reach past the
        // header and field checks far more often than uniform bytes.
        let body: String = alphabet.iter().map(|&i| "0123456789 \nIHVDXMACPQ\t-"
            .chars().nth(i).unwrap_or(' ')).collect();
        let header = if headed { "ocin-events v1\n" } else { "" };
        rejects_or_round_trips(&format!("{header}{body}"));
    }

    /// A valid trace with one field or line mutated either parses to a
    /// trace that round-trips or is rejected; it never panics.
    #[test]
    fn mutated_event_text_rejects_or_round_trips(
        events in vec(
            (0u64..1_000_000, 0usize..9, 0u64..65_536, 0u64..5, 0u64..8, any::<u64>()),
            0..8,
        ),
        (line, field, how) in (any::<usize>(), 0usize..7, 0usize..7),
        (junk, number) in (0usize..JUNK_FIELDS.len() + 1, any::<u64>()),
        noise in vec(any::<u8>(), 1..12),
    ) {
        let text = events_text(&events);
        rejects_or_round_trips(&text);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let i = line % lines.len();
        let token = JUNK_FIELDS.get(junk).map_or(number.to_string(), ToString::to_string);
        let mut fields: Vec<String> =
            lines[i].split(' ').map(str::to_string).collect();
        let f = field % fields.len();
        match how {
            0 => fields[f] = token,
            1 => { fields.remove(f); }
            2 => fields.push(token),
            3 => fields = vec![String::from_utf8_lossy(&noise).into_owned()],
            4 => fields.insert(f, token),
            5 => fields.clear(),
            _ => fields[f].push_str(&String::from_utf8_lossy(&noise)),
        }
        lines[i] = fields.join(" ");
        rejects_or_round_trips(&(lines.join("\n") + "\n"));
    }
}
