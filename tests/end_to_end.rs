//! End-to-end integration: every topology × flow-control combination
//! delivers traffic correctly under sustained load.

use ocin::core::{
    Error, FlowControl, Network, NetworkConfig, PacketSpec, RoutingAlg, ServiceClass, TopologySpec,
};
use ocin::sim::{SimConfig, Simulation};
use ocin::traffic::{InjectionProcess, LengthDist, TrafficMatrix, TrafficPattern, Workload};

/// Drives `net` with `wl` for `cycles`, returning (injected, delivered).
fn drive(net: &mut Network, wl: &Workload, cycles: u64, seed: u64) -> (u64, u64) {
    let mut generation = wl.generator(seed);
    let n = net.topology().num_nodes();
    let mut injected = 0u64;
    let mut delivered = 0u64;
    for now in 0..cycles {
        for node in 0..n as u16 {
            if let Some(req) = generation.next_request(now, node.into()) {
                match net
                    .inject(&PacketSpec::new(node.into(), req.dst).payload_bits(req.payload_bits))
                {
                    Ok(_) => injected += 1,
                    Err(Error::InjectionBackpressure { .. }) => {}
                    Err(e) => panic!("unroutable workload packet: {e}"),
                }
            }
        }
        net.step();
        for node in 0..n as u16 {
            delivered += net.drain_delivered(node.into()).len() as u64;
        }
    }
    (injected, delivered)
}

#[test]
fn every_topology_delivers_under_load() {
    for spec in [
        TopologySpec::FoldedTorus { k: 4 },
        TopologySpec::Mesh { k: 4 },
        TopologySpec::FoldedTorus { k: 8 },
        TopologySpec::Mesh { k: 8 },
        TopologySpec::Ring { k: 8 },
    ] {
        let cfg = NetworkConfig::paper_baseline().with_topology(spec);
        let mut net = Network::new(cfg).unwrap();
        let (n, k) = (net.topology().num_nodes(), net.topology().radix());
        let wl = Workload::new(n, k, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: 0.2 });
        let (injected, _) = drive(&mut net, &wl, 2_000, 1);
        assert!(net.drain(20_000), "{spec:?} failed to drain");
        let s = net.stats();
        assert_eq!(s.packets_delivered, injected, "{spec:?} lost packets");
    }
}

#[test]
fn every_flow_control_carries_traffic() {
    for fc in [
        FlowControl::VirtualChannel,
        FlowControl::Dropping,
        FlowControl::Deflection,
    ] {
        let cfg = NetworkConfig::paper_baseline().with_flow_control(fc);
        let mut net = Network::new(cfg).unwrap();
        let wl = Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: 0.15 });
        let (injected, delivered) = drive(&mut net, &wl, 2_000, 2);
        assert!(injected > 300, "{fc:?} injected too little");
        let s = net.stats();
        match fc {
            FlowControl::VirtualChannel => {
                assert!(net.drain(10_000));
                assert_eq!(net.stats().packets_delivered, injected);
            }
            FlowControl::Dropping => {
                // Some loss is expected; delivered + dropped covers all
                // packets that finished their fate.
                assert!(delivered > 0);
                assert!(s.packets_dropped > 0, "dropping should drop at load");
                assert!(
                    net.stats().packets_delivered + net.stats().packets_dropped <= injected + 16
                );
            }
            FlowControl::Deflection => {
                assert!(net.drain(10_000), "deflection never drops, must drain");
                assert_eq!(net.stats().packets_delivered, injected);
            }
        }
    }
}

/// Dropping flow control carries multi-flit packets — two-flit uniform
/// traffic, and a uniform load plus a matrix of 512-bit packets. A tile
/// port sends one packet's flits back to back, because the dropping
/// router tracks one packet per input: a body flit interleaved behind
/// another packet's head finds no lock ("body flit follows a locked
/// head").
#[test]
fn dropping_carries_multi_flit_packets() {
    let cfg = NetworkConfig::paper_baseline().with_flow_control(FlowControl::Dropping);
    let uniform = |flit_rate: f64| {
        Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate })
    };
    let mut matrix = TrafficMatrix::new(16).payload_bits(512);
    matrix.set(1.into(), 10.into(), 0.1);
    matrix.set(6.into(), 2.into(), 0.2);
    let runs = [
        Simulation::new(cfg.clone(), SimConfig::quick())
            .expect("valid config")
            .with_workload(&uniform(0.3).length(LengthDist::Fixed { flits: 2 })),
        Simulation::new(cfg, SimConfig::quick())
            .expect("valid config")
            .with_workload(&uniform(0.298))
            .with_traffic_matrix(&matrix),
    ];
    for (i, mut sim) in runs.into_iter().enumerate() {
        let report = sim.run();
        assert!(report.packets_delivered > 1_000, "run {i}: {report:?}");
        assert!(report.packets_dropped > 0, "run {i} should drop at load");
    }
}

/// Packets longer than the 64-flit injection queue can never enter, so
/// the run stops at the unroutable-packet check instead of running to
/// its end and reporting nothing injected.
#[test]
#[should_panic(expected = "unroutable packet")]
fn packets_longer_than_the_injection_queue_stop_the_run() {
    let wl = Workload::new(16, 4, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: 0.1 })
        .length(LengthDist::Fixed { flits: 65 });
    let mut sim = Simulation::new(NetworkConfig::paper_baseline(), SimConfig::quick())
        .expect("valid config")
        .with_workload(&wl);
    let report = sim.run();
    panic!("the run reported {report:?} instead of stopping");
}

#[test]
fn adversarial_patterns_do_not_deadlock() {
    for pattern in [
        TrafficPattern::Tornado,
        TrafficPattern::Transpose,
        TrafficPattern::BitComplement,
        TrafficPattern::BitReverse,
        TrafficPattern::Shuffle,
    ] {
        for spec in [
            TopologySpec::FoldedTorus { k: 8 },
            TopologySpec::Mesh { k: 8 },
        ] {
            let cfg = NetworkConfig::paper_baseline().with_topology(spec);
            let mut net = Network::new(cfg).unwrap();
            let wl = Workload::new(64, 8, pattern.clone())
                .injection(InjectionProcess::Bernoulli { flit_rate: 0.3 });
            let (injected, _) = drive(&mut net, &wl, 1_500, 3);
            assert!(
                net.drain(60_000),
                "{spec:?}/{} did not drain (possible deadlock)",
                pattern.name()
            );
            assert_eq!(
                net.stats().packets_delivered,
                injected,
                "{}",
                pattern.name()
            );
        }
    }
}

#[test]
fn valiant_routing_delivers_everything() {
    for spec in [
        TopologySpec::FoldedTorus { k: 8 },
        TopologySpec::Mesh { k: 8 },
    ] {
        let cfg = NetworkConfig::paper_baseline()
            .with_topology(spec)
            .with_routing(RoutingAlg::Valiant);
        let mut net = Network::new(cfg).unwrap();
        let wl = Workload::new(64, 8, TrafficPattern::Tornado)
            .injection(InjectionProcess::Bernoulli { flit_rate: 0.25 });
        let (injected, _) = drive(&mut net, &wl, 1_500, 4);
        assert!(net.drain(60_000), "{spec:?} valiant did not drain");
        assert_eq!(net.stats().packets_delivered, injected);
    }
}

#[test]
fn per_class_packets_deliver_in_order_per_pair() {
    // Per-VC wormhole delivery preserves per-(src,dst,class,vc) order;
    // with a single-VC mask the whole stream is ordered.
    let mut cfg = NetworkConfig::paper_baseline();
    cfg.vc_plan.bulk_class0 = ocin::core::flit::VcMask::new(0b01);
    cfg.vc_plan.bulk_class1 = ocin::core::flit::VcMask::new(0b10);
    let mut net = Network::new(cfg).unwrap();
    let mut sent = Vec::new();
    for i in 0..30u64 {
        loop {
            match net.inject(
                &PacketSpec::new(1.into(), 2.into())
                    .payload_bits(64)
                    .data(vec![ocin::core::flit::Payload::from_u64(i)]),
            ) {
                Ok(id) => {
                    sent.push(id);
                    break;
                }
                Err(Error::InjectionBackpressure { .. }) => net.step(),
                Err(e) => panic!("{e}"),
            }
        }
    }
    assert!(net.drain(5_000));
    let got: Vec<u64> = net
        .drain_delivered(2.into())
        .iter()
        .map(|p| p.payloads[0].low_u64())
        .collect();
    assert_eq!(got, (0..30).collect::<Vec<u64>>());
}

#[test]
fn multi_flit_and_single_flit_mix() {
    let mut net = Network::new(NetworkConfig::paper_baseline()).unwrap();
    let mut injected = 0u64;
    for now in 0..500u64 {
        let bits = if now % 3 == 0 { 1024 } else { 64 };
        let src = (now % 16) as u16;
        let dst = ((now * 7 + 3) % 16) as u16;
        if src != dst
            && net
                .inject(
                    &PacketSpec::new(src.into(), dst.into())
                        .payload_bits(bits)
                        .class(if now % 5 == 0 {
                            ServiceClass::Priority
                        } else {
                            ServiceClass::Bulk
                        }),
                )
                .is_ok()
        {
            injected += 1;
        }
        net.step();
    }
    assert!(net.drain(10_000));
    assert_eq!(net.stats().packets_delivered, injected);
}

#[test]
fn stats_are_internally_consistent() {
    let mut net = Network::new(NetworkConfig::paper_baseline()).unwrap();
    let wl = Workload::new(16, 4, TrafficPattern::Uniform)
        .injection(InjectionProcess::Bernoulli { flit_rate: 0.2 });
    drive(&mut net, &wl, 1_000, 9);
    net.drain(10_000);
    let s = net.stats();
    // Each delivered single-flit packet crosses at least 1 link and at
    // least 2 routers (source + destination).
    assert!(s.energy.flit_hops >= 2 * s.packets_delivered);
    assert!(s.energy.link_flits >= s.packets_delivered);
    assert!(s.energy.hop_bits >= s.energy.flit_hops * 64);
    let loads = net.link_loads();
    let link_flits: u64 = loads.iter().map(|l| l.flits).sum();
    assert_eq!(link_flits, s.energy.link_flits);
}
