//! Dynamic-vs-static conformance: every `(channel, VC)` acquisition a
//! simulated packet performs is a resource the static verifier's
//! channel dependency graph knows about, and every *consecutive* pair
//! of acquisitions is one of its waits-for edges. A divergence would
//! mean the verifier's deadlock-freedom certificate does not cover what
//! the router actually does.
//!
//! The router and the verifier share one route-state machine
//! (`ocin_core::expand::RouteState`) and one tier table, so this does
//! not compare two copies of the tier logic. It checks what remains
//! separate: the verifier's route enumeration (minimal routes, Valiant
//! segments and their junctions) against the routes the simulator
//! compiles, and its edge bookkeeping against the grants the VC
//! allocator makes.
//!
//! The probe's event trace supplies the ground truth: each
//! [`EventKind::VcAlloc`] record is the head flit of `packet` winning
//! output VC `vc` on `port` at router `node` — i.e. acquiring the
//! resource `(channel(node, port), vc)`.

use std::collections::BTreeMap;

use ocin_core::probe::{EventKind, ProbeConfig};
use ocin_core::{Direction, NodeId, RoutingAlg, ServiceClass, TopologySpec};
use ocin_sim::{SimConfig, Simulation};
use ocin_traffic::{InjectionProcess, TrafficPattern, Workload};
use ocin_verify::cdg::Cdg;
use ocin_verify::VerifyPoint;
use proptest::prelude::*;

/// Radices kept small enough that debug-mode simulation stays fast;
/// k = 8 still exercises multi-hop ring wraps on both axes.
const RADICES: [usize; 3] = [2, 4, 8];

fn topologies() -> impl Strategy<Value = TopologySpec> {
    ((0usize..RADICES.len()), 0usize..3).prop_map(|(ki, shape)| {
        let k = RADICES[ki];
        match shape {
            0 => TopologySpec::Mesh { k },
            1 => TopologySpec::FoldedTorus { k },
            _ => TopologySpec::Ring { k },
        }
    })
}

proptest! {
    // Each case is a full (short) simulation; a handful of cases
    // already covers every shape × radix × routing × class combination
    // across runs of the suite.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For a random configuration point and seed, the simulator never
    /// acquires a resource the CDG lacks, and never acquires two
    /// resources back-to-back in an order the CDG declared impossible.
    #[test]
    fn simulated_acquisitions_are_cdg_edges(
        topology in topologies(),
        valiant in any::<bool>(),
        priority in any::<bool>(),
        seed in 1u64..=u64::MAX,
        load in 0.03f64..0.12,
    ) {
        let routing = if valiant {
            RoutingAlg::Valiant
        } else {
            RoutingAlg::DimensionOrder
        };
        let net_cfg = ocin_core::NetworkConfig::paper_baseline()
            .with_topology(topology)
            .with_routing(routing);
        let sim_cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 400,
            drain_cycles: 1_000,
            seed,
        };
        let class = if priority {
            ServiceClass::Priority
        } else {
            ServiceClass::Bulk
        };
        let wl = Workload::for_topology(&topology, TrafficPattern::Uniform)
            .class(class)
            .injection(InjectionProcess::Bernoulli { flit_rate: load });

        const TRACE_CAP: usize = 1 << 17;
        let report = Simulation::new(net_cfg.clone(), sim_cfg)
            .expect("grid point is a valid configuration")
            .with_workload(&wl)
            .with_probe(ProbeConfig::counters().with_trace(TRACE_CAP))
            .run();
        let metrics = report.metrics.expect("probed run carries metrics");
        // The chain check below needs every acquisition of a packet, so
        // the ring buffer must not have evicted anything.
        prop_assert!(
            metrics.trace_recorded <= TRACE_CAP as u64,
            "trace evicted events ({} recorded); shorten the run",
            metrics.trace_recorded
        );

        let point = VerifyPoint::from_config(&net_cfg);
        let cdg = Cdg::build(point.topology, point.routing, &point.plan, point.datelines);

        // Last network-channel resource each in-flight packet acquired.
        let mut held: BTreeMap<u64, (NodeId, Direction, u8)> = BTreeMap::new();
        let mut allocs = 0u64;
        let mut edges = 0u64;
        for ev in metrics.trace.events() {
            if ev.kind != EventKind::VcAlloc || ev.port >= 4 {
                // Tile-port grants are injection/ejection, not channels.
                continue;
            }
            let node = NodeId::new(ev.node);
            let dir = Direction::from_index(ev.port as usize);
            prop_assert!(
                cdg.allows_acquisition(node, dir, ev.vc),
                "packet {} acquired ({} -> {}, vc{}) which no static route uses",
                ev.packet, node, dir, ev.vc
            );
            allocs += 1;
            let next = (node, dir, ev.vc);
            if let Some(prev) = held.insert(ev.packet, next) {
                if prev.0 == node && prev.1 == dir {
                    // Re-grant on the same output port (e.g. after a
                    // preemption): a replacement, not a new dependency.
                    continue;
                }
                prop_assert!(
                    cdg.has_edge(prev, next),
                    "packet {} held ({} -> {}, vc{}) then took ({} -> {}, vc{}): \
                     not a CDG edge",
                    ev.packet, prev.0, prev.1, prev.2, node, dir, ev.vc
                );
                edges += 1;
            }
        }
        // The run must actually exercise the property: packets were
        // delivered and (beyond trivial 1-hop topologies) chained
        // across at least one edge.
        prop_assert!(allocs > 0, "no channel VC allocations traced");
        if topology.num_nodes() > 4 {
            prop_assert!(edges > 0, "no consecutive acquisitions traced");
        }
    }
}
