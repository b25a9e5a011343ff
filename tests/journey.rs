//! The latency-decomposition profiler's contract, end to end.
//!
//! Two invariants carry the subsystem:
//!
//! * **Reconciliation.** Every decomposed journey's stage breakdown
//!   telescopes back to its measured network latency *exactly*, cycle
//!   for cycle — across flow-control methods and offered loads
//!   (property-tested below).
//! * **Zero-load exactness.** An uncontended packet's measured latency
//!   *is* the paper's `H·t_r + L/b`, with every contention stage at
//!   zero — the decomposition doesn't approximate the analytic model,
//!   it degenerates to it.
//!
//! Plus the exporter contracts: deterministic bytes, and trace output
//! that actually parses as JSON.

use std::collections::BTreeMap;

use ocin::core::ids::NodeId;
use ocin::core::probe::ProbeConfig;
use ocin::core::{
    DecompositionReport, FlowControl, LinkProtection, Network, NetworkConfig, NetworkProbe,
    PacketJourney, PacketSpec, RoutingAlg, StageSums, TopologySpec,
};
use ocin::sim::{LoadSweep, PointSpec, SimConfig, SimReport, Simulation};
use ocin::traffic::{InjectionProcess, TrafficPattern, Workload};
use proptest::prelude::*;

fn quick_cfg() -> NetworkConfig {
    NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 4 })
}

/// Runs a quick journeyed simulation and returns its report.
fn journeyed_run(net_cfg: NetworkConfig, load: f64, capacity: usize) -> SimReport {
    let wl = Workload::new(16, 4, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: load });
    Simulation::new(net_cfg, SimConfig::quick())
        .expect("valid config")
        .with_workload(&wl)
        .with_probe(ProbeConfig::counters().with_journeys(capacity))
        .run()
}

fn decomposition(report: &SimReport) -> &DecompositionReport {
    report
        .metrics
        .as_ref()
        .expect("journeyed run carries metrics")
        .decomposition
        .as_ref()
        .expect("journeyed run carries a decomposition")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// The reconciliation invariant: for every flow-control method and
    /// offered load, every retained journey's breakdown sums to its
    /// measured network latency exactly, and its baseline is the
    /// analytic zero-load formula over its actual hop and flit counts.
    #[test]
    fn breakdown_sums_to_measured_latency(
        fc in prop_oneof![
            Just(FlowControl::VirtualChannel),
            Just(FlowControl::Dropping),
            Just(FlowControl::Deflection),
        ],
        load in 0.05f64..0.5,
    ) {
        let report = journeyed_run(quick_cfg().with_flow_control(fc), load, 4096);
        let d = decomposition(&report);
        prop_assert!(d.packets > 0, "no packets decomposed ({fc:?} @ {load})");
        prop_assert_eq!(
            d.inconsistent, 0,
            "{} journeys failed to reconcile ({:?} @ {})", d.inconsistent, fc, load
        );
        for j in &d.journeys {
            prop_assert!(j.consistent);
            prop_assert_eq!(
                j.breakdown.network_total(),
                j.network_latency(),
                "stage partition != measured latency for {:?} ({:?} @ {})",
                j.packet, fc, load
            );
            prop_assert_eq!(j.breakdown.source_queue, j.entered_at - j.created_at);
            prop_assert!(!j.hops.is_empty());
            prop_assert_eq!(
                j.baseline,
                d.constants.zero_load_latency(j.hops.len() as u64, u64::from(j.flits)),
                "baseline is not H*t_r + L/b over the journey's own hops"
            );
        }
        // The aggregates carry the same invariant: summed stages equal
        // summed measurements.
        prop_assert_eq!(d.totals.stages.network_total(), d.totals.measured);
        prop_assert_eq!(d.totals.count, d.packets);
        let by_class: u64 = d.per_class.values().map(|s| s.measured).sum();
        prop_assert_eq!(by_class, d.totals.measured);
        let by_pair: u64 = d.per_pair.values().map(|s| s.measured).sum();
        prop_assert_eq!(by_pair, d.totals.measured);
    }
}

/// Zero-load exactness: packets injected one at a time, with the
/// network drained in between, measure *exactly* `H·t_r + L/b` and
/// decompose with every contention stage at zero — for the baseline
/// pipeline, a phit-serialized link, SEC-DED decode, and the dropping
/// and deflection cores.
#[test]
fn uncontended_journeys_sit_exactly_on_the_analytic_baseline() {
    let configs = [
        ("vc baseline", quick_cfg()),
        ("phits 4", quick_cfg().with_channel_phits(4)),
        (
            "secded",
            quick_cfg().with_link_protection(LinkProtection::Secded),
        ),
        (
            "dropping",
            quick_cfg().with_flow_control(FlowControl::Dropping),
        ),
        (
            "deflection",
            quick_cfg().with_flow_control(FlowControl::Deflection),
        ),
    ];
    for (name, cfg) in configs {
        let mut net = Network::new(cfg).expect("valid config");
        net.attach_probe(NetworkProbe::for_network(
            net.config(),
            ProbeConfig::counters().with_journeys(64),
        ));
        // One packet at a time: drain fully so nothing ever contends.
        for (src, dst, bits) in [(0u16, 1u16, 64), (0, 10, 256), (5, 6, 256), (15, 0, 128)] {
            net.inject(&PacketSpec::new(NodeId::new(src), NodeId::new(dst)).payload_bits(bits))
                .expect("inject");
            net.drain(200);
            for n in 0..16 {
                net.drain_delivered(NodeId::new(n));
            }
        }
        let cycles = net.cycle();
        let metrics = net.take_probe().expect("attached").into_metrics(cycles);
        let d = metrics.decomposition.as_ref().expect("journeys enabled");
        assert_eq!(d.packets, 4, "{name}: all four packets decomposed");
        assert_eq!(d.inconsistent, 0, "{name}");
        for j in &d.journeys {
            assert_eq!(
                j.network_latency(),
                j.baseline,
                "{name}: {:?} {}->{} measured {} != analytic H*t_r + L/b = {} ({:?})",
                j.packet,
                j.src,
                j.dst,
                j.network_latency(),
                j.baseline,
                j.breakdown,
            );
            assert_eq!(
                j.breakdown.contention(),
                0,
                "{name}: uncontended packet charged contention cycles: {:?}",
                j.breakdown,
            );
            // An idle source queue still pays phit alignment on the
            // inject link: up to `channel_phits - 1` cycles, never more.
            assert!(
                j.breakdown.source_queue < d.constants.channel_phits,
                "{name}: uncontended source-queue wait {} exceeds phit alignment",
                j.breakdown.source_queue,
            );
            assert_eq!(j.contention_surplus(), 0, "{name}");
        }
        // Pin one absolute number so the formula itself can't drift: on
        // the untouched baseline, 0 -> 1 (east neighbour, single flit)
        // is the canonical 5-cycle zero-load journey.
        if name == "vc baseline" {
            let j = d
                .journeys
                .iter()
                .find(|j| j.src == NodeId::new(0) && j.dst == NodeId::new(1))
                .expect("0->1 retained");
            assert_eq!(j.network_latency(), 5);
            assert_eq!(j.hops.len(), 2);
        }
    }
}

/// Journeys ride the probe's zero-perturbation contract: a journeyed
/// run's measurements are bit-identical to the unprobed run, for every
/// flow-control method.
#[test]
fn journeyed_report_is_bit_identical_to_unprobed() {
    for fc in [
        FlowControl::VirtualChannel,
        FlowControl::Dropping,
        FlowControl::Deflection,
    ] {
        let cfg = quick_cfg().with_flow_control(fc);
        let wl = Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: 0.35 });
        let bare = Simulation::new(cfg.clone(), SimConfig::quick())
            .expect("valid config")
            .with_workload(&wl)
            .run();
        let mut journeyed = journeyed_run(cfg, 0.35, 256);
        assert!(decomposition(&journeyed).packets > 0);
        journeyed.metrics = None;
        assert_eq!(
            bare, journeyed,
            "journey collector perturbed the run ({fc:?})"
        );
    }
}

/// Both exporters are deterministic: two runs of the same point render
/// byte-identical text and byte-identical trace JSON.
#[test]
fn exporters_are_byte_deterministic() {
    let run = || journeyed_run(quick_cfg(), 0.3, 512);
    let (a, b) = (run(), run());
    let (da, db) = (decomposition(&a), decomposition(&b));
    assert!(!da.journeys.is_empty());
    assert_eq!(da.to_text(), db.to_text());
    assert_eq!(da.to_trace_json(), db.to_trace_json());
    assert!(da.to_text().starts_with("ocin-journeys v1\n"));
}

/// Journeyed sweep points carry aggregate decompositions (no retained
/// journeys — bounded memory) and cache separately from plain and
/// probed points.
#[test]
fn journeyed_sweep_points_carry_aggregates() {
    let sweep = LoadSweep::new(
        quick_cfg(),
        SimConfig::quick(),
        Workload::new(16, 4, TrafficPattern::Uniform),
    )
    .with_probe(ProbeConfig::counters().with_journeys(0));
    let pts = sweep.run(&[0.1, 0.4]);
    for p in &pts {
        let d = decomposition(&p.report);
        assert!(d.packets > 0);
        assert!(
            d.journeys.is_empty(),
            "sweep points retain no journey records"
        );
        assert_eq!(d.totals.stages.network_total(), d.totals.measured);
    }
    // Contention share grows toward saturation.
    let share = |d: &DecompositionReport| d.totals.share(d.totals.stages.contention());
    assert!(share(decomposition(&pts[1].report)) > share(decomposition(&pts[0].report)));
    // The journeyed point is a distinct cache entry from plain/probed.
    assert_eq!(sweep.pool().cached_points(), 2);
    let plain = PointSpec {
        probe: None,
        ..sweep.spec(0.1)
    };
    sweep.pool().run(std::slice::from_ref(&plain));
    assert_eq!(sweep.pool().cached_points(), 3);
}

/// Stage sums recomputed from scratch over `journeys`.
fn sums_of<'a>(journeys: impl IntoIterator<Item = &'a PacketJourney>) -> StageSums {
    let mut s = StageSums::default();
    for j in journeys {
        s.count += 1;
        s.measured += j.network_latency();
        s.baseline += j.baseline;
        let (b, t) = (&j.breakdown, &mut s.stages);
        t.source_queue += b.source_queue;
        t.inject_pipe += b.inject_pipe;
        t.vc_alloc += b.vc_alloc;
        t.switch_wait += b.switch_wait;
        t.credit_stall += b.credit_stall;
        t.preempt += b.preempt;
        t.link_wait += b.link_wait;
        t.channel += b.channel;
        t.serialization += b.serialization;
    }
    s
}

/// The aggregates no exporter shows — `totals`, `per_class`,
/// `per_pair` and per-link `residency` — equal the same sums
/// recomputed from the retained journeys when the ring keeps every
/// journey, and `per_pair` and `links` come out in strictly ascending
/// key order. Valiant routing revisits nodes (so hop matching must pick
/// the latest visit), and deflection has no VC or switch waypoints.
#[test]
fn aggregates_match_the_retained_journeys() {
    let cases = [
        (
            "vc valiant",
            quick_cfg().with_routing(RoutingAlg::Valiant),
            0.3,
        ),
        (
            "deflection",
            quick_cfg().with_flow_control(FlowControl::Deflection),
            0.4,
        ),
    ];
    for (name, cfg, load) in cases {
        let report = journeyed_run(cfg, load, 1 << 20);
        let d = decomposition(&report);
        assert!(d.packets > 1000, "{name}: too few packets ({})", d.packets);
        assert_eq!(d.journeys.len() as u64, d.packets, "{name}: ring kept all");
        assert_eq!(d.journeys_recorded, d.packets, "{name}");
        assert_eq!((d.incomplete, d.inconsistent), (0, 0), "{name}");
        if name == "vc valiant" {
            let revisits = d.journeys.iter().any(|j| {
                let mut nodes: Vec<_> = j.hops.iter().map(|h| h.node).collect();
                nodes.sort();
                nodes.windows(2).any(|w| w[0] == w[1])
            });
            assert!(revisits, "{name}: no journey revisited a node");
        }

        assert_eq!(d.totals, sums_of(&d.journeys), "{name}: totals");
        let mut classes: BTreeMap<u8, Vec<&PacketJourney>> = BTreeMap::new();
        let mut pairs: BTreeMap<(u16, u16), Vec<&PacketJourney>> = BTreeMap::new();
        let mut residency: BTreeMap<(u16, u8), u64> = BTreeMap::new();
        for j in &d.journeys {
            classes.entry(j.class).or_default().push(j);
            let pair = (j.src.index() as u16, j.dst.index() as u16);
            pairs.entry(pair).or_default().push(j);
            for h in &j.hops {
                if let Some(out) = h.out_port {
                    let link = (h.node.index() as u16, out.index() as u8);
                    *residency.entry(link).or_default() += h.residency();
                }
            }
        }
        let per_class: BTreeMap<u8, StageSums> = classes
            .into_iter()
            .map(|(c, js)| (c, sums_of(js)))
            .collect();
        assert_eq!(d.per_class, per_class, "{name}: per_class");
        let per_pair: BTreeMap<(u16, u16), StageSums> =
            pairs.into_iter().map(|(p, js)| (p, sums_of(js))).collect();
        assert_eq!(d.per_pair, per_pair, "{name}: per_pair");

        let keys: Vec<_> = d.per_pair.keys().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{name}: pair order");
        let links: Vec<(u16, u8)> = d.links.iter().map(|l| (l.node, l.port)).collect();
        assert!(links.windows(2).all(|w| w[0] < w[1]), "{name}: link order");
        for l in &d.links {
            let want = residency.remove(&(l.node, l.port)).unwrap_or(0);
            assert_eq!(
                l.residency,
                want,
                "{name}: residency of {:?}",
                (l.node, l.port)
            );
        }
        assert!(residency.is_empty(), "{name}: links missing: {residency:?}");
    }
}

// --- minimal JSON parser (validation only) -------------------------------

/// Parses one JSON value, returning the rest of the input on success.
/// Supports exactly the grammar the exporter emits: objects, arrays,
/// strings (no escapes needed beyond \"), integers, and bools.
fn json_value(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    let mut chars = s.chars();
    match chars.next() {
        Some('{') => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix('}') {
                return Ok(r);
            }
            loop {
                let r = json_string(rest)?;
                let r = r
                    .trim_start()
                    .strip_prefix(':')
                    .ok_or("expected ':' after key")?;
                rest = json_value(r)?.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r.trim_start();
                } else if let Some(r) = rest.strip_prefix('}') {
                    return Ok(r);
                } else {
                    return Err(format!("expected ',' or '}}' at: {rest:.40}"));
                }
            }
        }
        Some('[') => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix(']') {
                return Ok(r);
            }
            loop {
                rest = json_value(rest)?.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r.trim_start();
                } else if let Some(r) = rest.strip_prefix(']') {
                    return Ok(r);
                } else {
                    return Err(format!("expected ',' or ']' at: {rest:.40}"));
                }
            }
        }
        Some('"') => json_string(s),
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || c == '-' || c == '.'))
                .unwrap_or(s.len());
            Ok(&s[end..])
        }
        Some('t') => s.strip_prefix("true").ok_or_else(|| "bad literal".into()),
        Some('f') => s.strip_prefix("false").ok_or_else(|| "bad literal".into()),
        other => Err(format!("unexpected {other:?}")),
    }
}

/// Parses a JSON string token (escape-aware), returning the rest.
fn json_string(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    let inner = s.strip_prefix('"').ok_or("expected string")?;
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        match (escaped, c) {
            (true, _) => escaped = false,
            (false, '\\') => escaped = true,
            (false, '"') => return Ok(&inner[i + 1..]),
            _ => {}
        }
    }
    Err("unterminated string".into())
}

/// The trace exporter emits well-formed JSON with the Chrome
/// `trace_event` envelope: a `traceEvents` array whose entries carry
/// `ph`/`pid`/`ts` fields, metadata tracks, and matched async
/// begin/end spans per journey.
#[test]
fn trace_export_is_valid_chrome_trace_json() {
    let report = journeyed_run(quick_cfg(), 0.3, 256);
    let d = decomposition(&report);
    let trace = d.to_trace_json();

    let rest = json_value(&trace).expect("trace output must parse as JSON");
    assert!(
        rest.trim().is_empty(),
        "trailing garbage after JSON: {rest:.40}"
    );

    assert!(trace.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
    for key in [
        "\"ph\": \"M\"",
        "\"ph\": \"X\"",
        "\"ph\": \"b\"",
        "\"ph\": \"e\"",
    ] {
        assert!(trace.contains(key), "missing {key} events");
    }
    // Async spans pair up: every begin has its end.
    let begins = trace.matches("\"ph\": \"b\"").count();
    let ends = trace.matches("\"ph\": \"e\"").count();
    assert_eq!(begins, ends, "unbalanced async journey spans");
    assert_eq!(begins, d.journeys.len());
    // Every hop of every retained journey renders a complete event.
    let hops: usize = d.journeys.iter().map(|j| j.hops.len()).sum();
    assert_eq!(trace.matches("\"ph\": \"X\"").count(), hops);
}
