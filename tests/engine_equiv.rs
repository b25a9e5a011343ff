//! Engine equivalence: the activity-gated scheduler vs naive stepping.
//!
//! The gated engine's contract (DESIGN.md §3.13) is that skipping
//! quiescent routers, idle channels, and empty pipes is *invisible*:
//! for any configuration, the gated and naive engines must produce
//! bit-identical reports — same latency samples, same counters, same
//! rendered metrics JSON, same probe-derived artifacts. The property
//! test below samples across flow-control methods, offered loads,
//! probing/journey collection, transient faults, static-flow
//! reservations, and channel timing (latencies, phits, SEC-DED); a
//! directed test checks the engines even compose, i.e. a run that flips
//! modes midway matches both pure runs.

use ocin::core::probe::ProbeConfig;
use ocin::core::{
    FlowControl, LinkProtection, Network, NetworkConfig, PacketSpec, StaticFlowSpec, TopologySpec,
};
use ocin::sim::{SimConfig, SimReport, Simulation};
use ocin::traffic::{InjectionProcess, TrafficPattern, Workload};
use proptest::prelude::*;

fn quick_cfg(fc: FlowControl, k: usize) -> NetworkConfig {
    NetworkConfig::paper_baseline()
        .with_topology(TopologySpec::FoldedTorus { k })
        .with_flow_control(fc)
}

/// Channel timing: link and credit latency, phits per flit, and SEC-DED
/// link protection. Slow links stretch the engine's calendars past the
/// four slots the paper's 1/1/1 timing fills, so entries wrap them.
#[derive(Debug, Clone, Copy)]
struct Links {
    channel: u64,
    credit: u64,
    phits: u64,
    secded: bool,
}

impl Links {
    /// Applies the timing to `cfg`, keeping one phit per flit where
    /// `validate` rejects serialization (the bufferless cores).
    fn apply(self, mut cfg: NetworkConfig) -> NetworkConfig {
        cfg.channel_latency = self.channel;
        cfg.credit_latency = self.credit;
        cfg.channel_phits = self.phits;
        if self.secded {
            cfg.link_protection = LinkProtection::Secded;
        }
        if cfg.validate().is_err() {
            cfg.channel_phits = 1;
        }
        cfg
    }
}

/// Channel latency 1 or 3, credit latency 1, 2 or 4, 1 or 2 phits, with
/// or without SEC-DED.
fn links() -> impl Strategy<Value = Links> {
    (
        prop_oneof![Just(1u64), Just(3)],
        prop_oneof![Just(1u64), Just(2), Just(4)],
        prop_oneof![Just(1u64), Just(2)],
        any::<bool>(),
    )
        .prop_map(|(channel, credit, phits, secded)| Links {
            channel,
            credit,
            phits,
            secded,
        })
}

/// One quick simulation with every sampled knob applied.
#[allow(clippy::too_many_arguments)]
fn run(
    fc: FlowControl,
    k: usize,
    load: f64,
    probed: bool,
    journeys: bool,
    fault_rate: f64,
    reserved: bool,
    links: Links,
    naive: bool,
) -> SimReport {
    let mut cfg = links.apply(quick_cfg(fc, k));
    if reserved {
        cfg = cfg
            .with_reservation_period(8)
            .with_static_flow(StaticFlowSpec::new(0.into(), 5.into(), 1, 64));
    }
    let wl = Workload::new(k * k, k, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: load });
    let mut sim = Simulation::new(cfg, SimConfig::quick())
        .expect("valid config")
        .with_workload(&wl);
    if probed {
        let pc = if journeys {
            ProbeConfig::counters().with_journeys(512)
        } else {
            ProbeConfig::counters()
        };
        sim = sim.with_probe(pc);
    }
    sim.network_mut().set_transient_fault_rate(fault_rate);
    sim.network_mut().set_naive_stepping(naive);
    sim.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For a random configuration, the gated engine's report — and its
    /// rendered metrics JSON, when probed — is bit-identical to the
    /// naive engine's.
    #[test]
    fn gated_engine_matches_naive_reference(
        fc in prop_oneof![
            Just(FlowControl::VirtualChannel),
            Just(FlowControl::Dropping),
            Just(FlowControl::Deflection),
        ],
        load in 0.02f64..0.6,
        probed in any::<bool>(),
        journeys in any::<bool>(),
        faulty in any::<bool>(),
        reserved in any::<bool>(),
        links in links(),
    ) {
        // Reservations ride on VC lanes; faults use the fixed-seed
        // transient-upset stream, exercising RNG-draw alignment.
        let reserved = reserved && fc == FlowControl::VirtualChannel;
        let fault_rate = if faulty { 0.02 } else { 0.0 };
        let gated = run(fc, 4, load, probed, journeys, fault_rate, reserved, links, false);
        let naive = run(fc, 4, load, probed, journeys, fault_rate, reserved, links, true);
        prop_assert!(
            gated == naive,
            "gated and naive reports differ ({fc:?} @ {load:.3}, probed={probed}, \
             journeys={journeys}, faults={faulty}, reserved={reserved}, {links:?})"
        );
        if probed {
            let g = gated.metrics.as_ref().expect("probed run carries metrics");
            let n = naive.metrics.as_ref().expect("probed run carries metrics");
            prop_assert_eq!(g.to_json(), n.to_json(), "rendered metrics JSON differs");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same bit-identity on the 256-tile k = 16 torus, where the
    /// calendars actually earn their keep: slot wraps, dense slots, and
    /// the struct-of-arrays router state must all stay invisible at
    /// scale. Fewer cases than the k = 4 test — each one
    /// simulates 256 routers — but every knob still varies.
    #[test]
    fn gated_engine_matches_naive_at_k16(
        fc in prop_oneof![
            Just(FlowControl::VirtualChannel),
            Just(FlowControl::Dropping),
            Just(FlowControl::Deflection),
        ],
        load in 0.02f64..0.2,
        probed in any::<bool>(),
        faulty in any::<bool>(),
        reserved in any::<bool>(),
        links in links(),
    ) {
        let reserved = reserved && fc == FlowControl::VirtualChannel;
        let fault_rate = if faulty { 0.01 } else { 0.0 };
        let gated = run(fc, 16, load, probed, false, fault_rate, reserved, links, false);
        let naive = run(fc, 16, load, probed, false, fault_rate, reserved, links, true);
        prop_assert!(
            gated == naive,
            "k=16 gated and naive reports differ ({fc:?} @ {load:.3}, probed={probed}, \
             faults={faulty}, reserved={reserved}, {links:?})"
        );
        if probed {
            let g = gated.metrics.as_ref().expect("probed run carries metrics");
            let n = naive.metrics.as_ref().expect("probed run carries metrics");
            prop_assert_eq!(g.to_json(), n.to_json(), "rendered k=16 metrics JSON differs");
        }
    }
}

/// Flipping the engine mode mid-run changes nothing: both modes keep
/// the same wake bookkeeping, so a half-gated/half-naive run matches
/// the pure runs counter for counter.
#[test]
fn engines_compose_mid_run() {
    let drive = |flips: &[(u64, bool)]| {
        let mut net = Network::new(quick_cfg(FlowControl::VirtualChannel, 4)).expect("valid");
        let wl = Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: 0.2 });
        let mut generation = wl.generator(7);
        let mut delivered = 0u64;
        for now in 0..600u64 {
            if let Some(&(_, naive)) = flips.iter().rev().find(|&&(at, _)| now >= at) {
                net.set_naive_stepping(naive);
            }
            for node in 0..16u16 {
                if let Some(req) = generation.next_request(now, node.into()) {
                    let _ = net.inject(&PacketSpec::new(node.into(), req.dst).payload_bits(256));
                }
            }
            net.step();
            for node in 0..16u16 {
                delivered += net.drain_delivered(node.into()).len() as u64;
            }
        }
        (delivered, net.stats())
    };
    let pure_gated = drive(&[(0, false)]);
    let pure_naive = drive(&[(0, true)]);
    let mixed = drive(&[(0, false), (200, true), (400, false)]);
    assert_eq!(pure_gated, pure_naive);
    assert_eq!(pure_gated, mixed);
}
