//! Shard equivalence: the windowed driver at every shard count vs an
//! independent reference loop.
//!
//! The sharded engine's contract (DESIGN.md §3.15) is that cutting one
//! network into tile-region cells and stepping them on worker threads
//! under conservative lookahead synchronization is *invisible*: for any
//! configuration and any shard count, one included, `ShardedSimulation`
//! must produce a report — and rendered metrics, when probed —
//! bit-identical to the plain whole-network loop in `tests/common`. The
//! property tests below sample across flow-control
//! methods, offered loads, probing/journey collection, transient
//! faults, static-flow reservations, an added traffic matrix of
//! multi-flit packets, channel timing, and shard counts;
//! directed tests check conservation at region seams and that
//! shard-count flips compose mid-run, with the slowest links in flight.
//! In debug builds every cycle of every run here also passes the
//! engine's wake audit (DESIGN.md §3.13): no entity a phase skips had
//! work.

use ocin::core::probe::ProbeConfig;
use ocin::core::{
    replay_logs, Cycle, Event, FlowControl, LinkProtection, LogProbe, Network, NetworkConfig,
    NoProbe, NodeId, PacketSpec, PhasedProbe, Probe, ServiceClass, StaticFlowSpec, TopologySpec,
};
use ocin::sim::{ShardedSimulation, SimConfig, SimReport, Simulation};
use ocin::traffic::{InjectionProcess, LengthDist, TrafficMatrix, TrafficPattern, Workload};
use proptest::prelude::*;

mod common;

use common::reference_run;

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
    /// The paper's timing: one cycle per link and per credit, full-width
    /// channels, no SEC-DED.
    const PAPER: Links = Links {
        channel: 1,
        credit: 1,
        phits: 1,
        secded: false,
    };

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

/// One quick simulation point with every sampled knob.
#[derive(Debug, Clone, Copy)]
struct Point {
    fc: FlowControl,
    k: usize,
    sim_cfg: SimConfig,
    load: f64,
    probe: Option<ProbeConfig>,
    fault_rate: f64,
    reserved: bool,
    /// Adds a two-pair traffic matrix of two-flit packets (one flit on
    /// the single-flit deflection core) on top of the uniform workload.
    matrix: bool,
    links: Links,
}

impl Point {
    /// An unprobed, fault-free point with the paper's link timing.
    fn new(fc: FlowControl, k: usize, sim_cfg: SimConfig, load: f64) -> Point {
        Point {
            fc,
            k,
            sim_cfg,
            load,
            probe: None,
            fault_rate: 0.0,
            reserved: false,
            matrix: false,
            links: Links::PAPER,
        }
    }

    fn net_cfg(&self) -> NetworkConfig {
        let cfg = self.links.apply(quick_cfg(self.fc, self.k));
        if self.reserved {
            cfg.with_reservation_period(8)
                .with_static_flow(StaticFlowSpec::new(0.into(), 5.into(), 1, 64))
        } else {
            cfg
        }
    }

    fn workload(&self) -> Workload {
        Workload::new(self.k * self.k, self.k, TrafficPattern::Uniform).injection(
            InjectionProcess::Bernoulli {
                flit_rate: self.load,
            },
        )
    }

    fn matrix(&self) -> Option<TrafficMatrix> {
        self.matrix.then(|| {
            let bits = if self.fc == FlowControl::Deflection {
                256
            } else {
                512
            };
            let mut m = TrafficMatrix::new(self.k * self.k).payload_bits(bits);
            m.set(1.into(), 10.into(), 0.1);
            m.set(6.into(), 2.into(), 0.2);
            m
        })
    }

    /// The point stepped on `shards` worker threads.
    fn run(&self, shards: usize) -> SimReport {
        let mut sim = Simulation::new(self.net_cfg(), self.sim_cfg)
            .expect("valid config")
            .with_workload(&self.workload());
        if let Some(m) = self.matrix() {
            sim = sim.with_traffic_matrix(&m);
        }
        if let Some(pc) = self.probe {
            sim = sim.with_probe(pc);
        }
        sim.network_mut().set_transient_fault_rate(self.fault_rate);
        ShardedSimulation::new(sim, shards).run()
    }

    /// The point through the reference loop.
    fn reference(&self) -> SimReport {
        let mut net = Network::new(self.net_cfg()).expect("valid config");
        net.set_transient_fault_rate(self.fault_rate);
        let matrix = self.matrix();
        reference_run(
            net,
            self.sim_cfg,
            Some(&self.workload()),
            matrix.as_ref(),
            self.probe,
        )
    }

    /// Every shard count in `shards` reproduces the reference's report
    /// and, when probed, its rendered metrics JSON.
    fn check(&self, shards: &[usize]) {
        let want = self.reference();
        for &s in shards {
            let got = self.run(s);
            assert!(
                got == want,
                "{s}-shard report differs from the reference: {self:?}"
            );
            if self.probe.is_some() {
                let json = |r: &SimReport| r.metrics.as_ref().expect("probed").to_json();
                assert_eq!(json(&got), json(&want), "{s}-shard metrics JSON differs");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For a random configuration, the one-cell run and a run on a
    /// random shard count both reproduce the reference loop's report —
    /// and its rendered metrics JSON, when probed — bit for bit.
    #[test]
    fn sharded_run_matches_sequential(
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
        matrix in any::<bool>(),
        links in links(),
        shards in prop_oneof![Just(2usize), Just(3), Just(4), Just(8)],
    ) {
        let probe = match (probed, journeys) {
            (false, _) => None,
            (true, false) => Some(ProbeConfig::counters()),
            (true, true) => Some(ProbeConfig::counters().with_journeys(512)),
        };
        let point = Point {
            probe,
            fault_rate: if faulty { 0.02 } else { 0.0 },
            reserved: reserved && fc == FlowControl::VirtualChannel,
            matrix,
            links,
            ..Point::new(fc, 4, SimConfig::quick(), load)
        };
        point.check(&[1, shards]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The same bit-identity on the 256-tile k = 16 torus, where cells
    /// span many rows and the boundary mailboxes carry real traffic.
    #[test]
    fn sharded_run_matches_sequential_at_k16(
        fc in prop_oneof![
            Just(FlowControl::VirtualChannel),
            Just(FlowControl::Dropping),
        ],
        load in 0.02f64..0.15,
        probed in any::<bool>(),
        links in links(),
        shards in prop_oneof![Just(2usize), Just(4), Just(8)],
    ) {
        let point = Point {
            probe: probed.then(ProbeConfig::counters),
            links,
            ..Point::new(fc, 16, SimConfig::quick(), load)
        };
        point.check(&[1, shards]);
    }
}

/// Bit-identity holds at the 1024-tile k = 32 scale the shard runner
/// exists for. One probed point, shortened phases: this is the largest
/// network in the tree and the suite runs it five times.
#[test]
fn sharded_run_matches_sequential_at_k32() {
    let cfg = SimConfig {
        warmup_cycles: 50,
        measure_cycles: 200,
        drain_cycles: 400,
        seed: 0xB19,
    };
    let point = Point {
        probe: Some(ProbeConfig::counters()),
        ..Point::new(FlowControl::VirtualChannel, 32, cfg, 0.05)
    };
    point.check(&[1, 2, 4, 8]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Boundary exchange conserves flits and packets exactly: whatever
    /// crosses a region seam arrives once and only once, so after a
    /// full drain every injected packet (and flit) has been delivered —
    /// at any cell count, with the same totals as the 1-cell network.
    #[test]
    fn boundary_exchange_conserves_flits(
        shards in 1usize..=8,
        load in 0.05f64..0.4,
        cycles in 100u64..400,
    ) {
        let drive = |cells: usize| {
            let mut net = Network::new(quick_cfg(FlowControl::VirtualChannel, 4))
                .expect("valid config");
            let wl = Workload::new(16, 4, TrafficPattern::Uniform)
                .injection(InjectionProcess::Bernoulli { flit_rate: load });
            let mut generation = wl.generator(21);
            let mut probes = vec![NoProbe; cells];
            let mut delivered_packets = 0u64;
            let mut delivered_flits = 0u64;
            let mut drain = 0u32;
            for now in 0.. {
                step_on_cells(&mut net, cells, &mut probes, |src, t| {
                    let req = generation.next_request(t, src).filter(|_| t < cycles)?;
                    Some(PacketSpec::new(src, req.dst).payload_bits(256))
                });
                for node in 0..16u16 {
                    for pkt in net.drain_delivered(node.into()) {
                        delivered_packets += 1;
                        delivered_flits += pkt.num_flits as u64;
                    }
                }
                if now >= cycles {
                    drain += 1;
                    prop_assert!(drain < 5_000, "network failed to drain");
                    if net.is_quiescent() {
                        break;
                    }
                }
            }
            prop_assert_eq!(net.flits_in_flight(), 0, "drained network holds flits");
            let stats = net.stats();
            prop_assert_eq!(stats.packets_injected, delivered_packets, "packet loss or duplication");
            prop_assert_eq!(stats.flits_injected, delivered_flits, "flit loss or duplication");
            Ok((delivered_packets, delivered_flits))
        };
        let sharded = drive(shards)?;
        let reference = drive(1)?;
        prop_assert_eq!(sharded, reference, "totals differ from the 1-cell reference");
    }
}

/// Shard-count flips compose mid-run: re-cutting the live network
/// between cycles changes nothing. A run stepped through shard handles
/// at the planned cell counts, with `Network::step` (which merges the
/// cells back) wherever the plan says one cell, matches a run of
/// `Network::step` alone. It holds with the paper's timing and with the
/// slowest links the equivalence suites sample, whose calendars hold
/// flits and credits up to six cycles ahead at every re-cut.
#[test]
fn shard_counts_compose_mid_run() {
    let slowest = Links {
        channel: 3,
        credit: 4,
        phits: 2,
        secded: true,
    };
    for links in [Links::PAPER, slowest] {
        shard_counts_compose_mid_run_on(links);
    }
}

fn shard_counts_compose_mid_run_on(links: Links) {
    let drive = |plan: &[(u64, usize)]| {
        let cfg = links.apply(quick_cfg(FlowControl::VirtualChannel, 4));
        let mut net = Network::new(cfg).expect("valid");
        let wl = Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: 0.2 });
        let mut generation = wl.generator(7);
        let mut offer = |src: NodeId, now: Cycle| {
            let req = generation.next_request(now, src)?;
            Some(PacketSpec::new(src, req.dst).payload_bits(256))
        };
        let mut delivered = 0u64;
        for now in 0..600u64 {
            let (at, cells) = *plan
                .iter()
                .rev()
                .find(|&&(at, _)| now >= at)
                .expect("the plan starts at 0");
            if now == at && at > 0 {
                assert!(
                    net.flits_in_flight() > 0,
                    "re-cut at {at} with nothing in flight"
                );
            }
            if cells == 1 {
                for node in 0..16u16 {
                    if let Some(spec) = offer(node.into(), now) {
                        let _ = net.inject(&spec);
                    }
                }
                net.step();
            } else {
                step_on_cells(&mut net, cells, &mut vec![NoProbe; cells], &mut offer);
            }
            for node in 0..16u16 {
                delivered += net.drain_delivered(node.into()).len() as u64;
            }
        }
        (delivered, net.stats())
    };
    let reference = drive(&[(0, 1)]);
    let pure_sharded = drive(&[(0, 4)]);
    let mixed = drive(&[(0, 2), (150, 8), (300, 1), (450, 4)]);
    assert_eq!(reference, pure_sharded, "{links:?}");
    assert_eq!(reference, mixed, "{links:?}");
}

/// Steps `net` through its current cycle on `cells` cells through shard
/// handles, as the windowed driver's workers do: each cell offers its
/// nodes' packets from `offer` and steps into its own probe, then the
/// boundary messages go to their cells, which the lookahead window
/// always allows after one cycle.
fn step_on_cells<P: PhasedProbe>(
    net: &mut Network,
    cells: usize,
    probes: &mut [P],
    mut offer: impl FnMut(NodeId, Cycle) -> Option<PacketSpec>,
) {
    let now = net.cycle();
    let mut handles = net.shard_handles(cells);
    assert_eq!(handles.len(), probes.len(), "one probe per cell");
    let mut by_cell = vec![Vec::new(); handles.len()];
    for (h, probe) in handles.iter_mut().zip(probes.iter_mut()) {
        probe.set_phase(now, 0);
        for node in h.nodes() {
            if let Some(spec) = offer(NodeId::new(node as u16), now) {
                let _ = h.inject(&spec, now, probe);
            }
        }
        h.step_cycle(now, probe, true);
        h.route_outbox(&mut by_cell);
    }
    for (h, msgs) in handles.iter_mut().zip(by_cell) {
        h.apply_boundary(msgs, now);
    }
    net.finish_sharded_run(now + 1);
}

/// Keeps the raw event stream, in the order it is recorded.
#[derive(Default)]
struct Recorder(Vec<(Cycle, Event)>);

impl Probe for Recorder {
    fn record(&mut self, now: Cycle, event: Event) {
        self.0.push((now, event));
    }
}

impl PhasedProbe for Recorder {
    fn set_phase(&mut self, _now: Cycle, _phase: u8) {}
}

/// Steps `cells` cells of a `k`×`k` torus on the calling thread for a
/// loaded stretch plus a drain, each cell recording into its own probe,
/// and returns the probes. Every third source sends priority traffic,
/// so the VC router preempts.
fn step_cells<P: PhasedProbe + Default>(fc: FlowControl, k: usize, cells: usize) -> Vec<P> {
    let mut net = Network::new(quick_cfg(fc, k)).expect("valid");
    let length = match fc {
        FlowControl::Deflection => LengthDist::Fixed { flits: 1 },
        _ => LengthDist::Bimodal {
            short_flits: 1,
            long_flits: 4,
            long_fraction: 0.5,
        },
    };
    let mut generation = Workload::new(k * k, k, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: 0.3 })
        .length(length)
        .generator(11);
    let mut probes: Vec<P> = (0..cells).map(|_| P::default()).collect();
    for _ in 0..400 {
        step_on_cells(&mut net, cells, &mut probes, |src, now| {
            let req = generation.next_request(now, src).filter(|_| now < 250)?;
            let class = if src.index() % 3 == 0 {
                ServiceClass::Priority
            } else {
                ServiceClass::Bulk
            };
            Some(
                PacketSpec::new(src, req.dst)
                    .payload_bits(req.payload_bits)
                    .class(class),
            )
        });
    }
    probes
}

/// The event stream itself, not only the metrics rendered from it, is
/// shard-invariant: replaying 2, 3 or 4 cells' logs yields exactly the
/// single-cell sequence, event for event. Rendered counters would miss
/// two events swapped within a cycle; this comparison does not.
#[test]
fn replayed_stream_matches_single_cell_order() {
    for fc in [FlowControl::VirtualChannel, FlowControl::Deflection] {
        for k in [4, 8] {
            let single = step_cells::<Recorder>(fc, k, 1).remove(0);
            let kinds = |tag: fn(&Event) -> bool| single.0.iter().filter(|(_, e)| tag(e)).count();
            assert!(
                kinds(|e| matches!(e, Event::Delivered { .. })) > 100,
                "{fc:?} k={k}"
            );
            if fc == FlowControl::VirtualChannel {
                assert!(kinds(|e| matches!(e, Event::Preemption { .. })) > 0);
                assert!(kinds(|e| matches!(e, Event::CreditStall { .. })) > 0);
            } else {
                assert!(kinds(|e| matches!(e, Event::Misroute { .. })) > 0);
            }
            for cells in [2, 3, 4] {
                let logs: Vec<_> = step_cells::<LogProbe>(fc, k, cells)
                    .into_iter()
                    .map(LogProbe::into_events)
                    .collect();
                let mut replayed = Recorder::default();
                replay_logs(&logs, &mut replayed);
                assert!(
                    replayed.0 == single.0,
                    "{fc:?} k={k}: {cells}-cell replay reorders the stream"
                );
            }
        }
    }
}

/// A run whose only source offers 65-flit packets, which can never fit
/// the 64-flit injection queue: the worker owning node 0 panics at the
/// unroutable-packet check on the first offer.
fn unroutable_run(probed: bool) -> Simulation {
    let k = 8;
    let mut matrix = TrafficMatrix::new(k * k).payload_bits(65 * 256);
    matrix.set(0.into(), 9.into(), 1.0);
    let sim = Simulation::new(
        quick_cfg(FlowControl::VirtualChannel, k),
        SimConfig::quick(),
    )
    .expect("valid config")
    .with_traffic_matrix(&matrix);
    if probed {
        sim.with_probe(ProbeConfig::counters().with_journeys(0))
    } else {
        sim
    }
}

/// Runs `sim` on `shards` workers on a watchdog thread and returns its
/// panic message. A run that hangs fails the test after the timeout
/// instead of blocking the suite.
fn panic_message(sim: Simulation, shards: usize) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    // ocin-lint: allow(raw-thread-spawn) — watchdog: a hung run must fail the test, not block it
    std::thread::spawn(move || {
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ShardedSimulation::new(sim, shards).run()
        }));
        let msg = got.err().map(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(ToString::to_string))
                .unwrap_or_default()
        });
        let _ = tx.send(msg);
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("the run hung instead of panicking")
        .expect("the run finished instead of panicking")
}

/// A worker that panics breaks the window barrier, so its peers and
/// the coordinator stop too, and the run panics with the worker's own
/// message rather than leaving a peer blocked forever. The probed cases
/// go through the coordinator's shutdown path at one cell as well.
#[test]
fn worker_panic_stops_its_peers() {
    let want = "workload produced an unroutable packet";
    for (probed, shards) in [(false, 1), (false, 2), (true, 1), (true, 2), (false, 3)] {
        let msg = panic_message(unroutable_run(probed), shards);
        assert!(
            msg.starts_with(want),
            "probed {probed}, {shards} shards: panicked with {msg:?}"
        );
    }
}
