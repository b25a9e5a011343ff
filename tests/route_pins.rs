//! Fixed-seed digests of the two routing disciplines no committed
//! golden covers: Valiant (two-segment) routing and the priority
//! class's dateline pair. Every transcript golden runs bulk
//! dimension-order traffic, so a change to the segment climb, the
//! dateline class or the tier masks a head flit is allocated on would
//! otherwise pass unnoticed. Each digest is packets delivered,
//! flit-hops, and the network latency's p50 and p99, asserted as
//! literals, and each must hold at one shard and at three.

use ocin::core::{NetworkConfig, RoutingAlg, ServiceClass, TopologySpec};
use ocin::sim::{ShardedSimulation, SimConfig, Simulation};
use ocin::traffic::{InjectionProcess, LengthDist, TrafficPattern, Workload};

/// `(packets delivered, flit-hops, p50, p99)` of one fixed-seed run of
/// uniform four-flit packets at `load`, the same at 1 and 3 shards.
/// Four-flit packets at 0.2 keep enough wormholes in flight that a head
/// flit allocated on the wrong tier moves the numbers; single-flit
/// packets at lighter loads hid a dropped dateline class entirely.
fn digest(cfg: NetworkConfig, class: ServiceClass, load: f64, seed: u64) -> (u64, u64, f64, f64) {
    let topology = cfg.topology;
    let wl = Workload::for_topology(&topology, TrafficPattern::Uniform)
        .class(class)
        .length(LengthDist::Fixed { flits: 4 })
        .injection(InjectionProcess::Bernoulli { flit_rate: load });
    let sim_cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 1_000,
        drain_cycles: 3_000,
        seed,
    };
    let digests: Vec<_> = [1, 3]
        .into_iter()
        .map(|shards| {
            let sim = Simulation::new(cfg.clone(), sim_cfg)
                .expect("valid configuration")
                .with_workload(&wl);
            let r = ShardedSimulation::new(sim, shards).run();
            assert_eq!(
                r.packets_delivered, r.packets_injected,
                "{topology:?} at {shards} shards: measured packets lost"
            );
            (
                r.packets_delivered,
                r.energy.flit_hops,
                r.network_latency.p50,
                r.network_latency.p99,
            )
        })
        .collect();
    assert_eq!(
        digests[0], digests[1],
        "{topology:?}: 3 shards moved the digest"
    );
    digests[0]
}

/// Valiant routing on the 8×8 folded torus: bulk packets climb the
/// four two-segment tiers.
#[test]
fn valiant_k8_torus_digest() {
    let cfg = NetworkConfig::paper_baseline()
        .with_topology(TopologySpec::FoldedTorus { k: 8 })
        .with_routing(RoutingAlg::Valiant);
    let got = digest(cfg, ServiceClass::Bulk, 0.2, 23);
    assert_eq!(got, (3_128, 115_038, 35.0, 89.0));
}

/// Priority-class traffic on a wraparound topology: packets ride the
/// priority dateline pair.
#[test]
fn priority_k8_torus_digest() {
    let cfg = NetworkConfig::paper_baseline().with_topology(TopologySpec::FoldedTorus { k: 8 });
    let got = digest(cfg, ServiceClass::Priority, 0.2, 23);
    assert_eq!(got, (3_128, 63_565, 16.0, 31.0));
}
