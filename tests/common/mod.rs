//! Support shared by the integration suites.

use std::collections::{BTreeMap, VecDeque};

use ocin::core::ids::{FlowId, NodeId};
use ocin::core::{EnergyCounters, Error, Network, NetworkProbe, PacketSpec, ProbeConfig};
use ocin::sim::{Samples, SimConfig, SimReport};
use ocin::traffic::{TrafficMatrix, Workload};

/// An independent reference for `Simulation::run`, written as a plain
/// loop over the whole network: every cycle offers, injects, steps and
/// drains, and the report is assembled from the drained deliveries in
/// order. It shares no code with the windowed driver, so the suites can
/// hold every shard count, one included, against it.
///
/// `net` is run as the caller configured it (link timing, transient
/// faults); its static flows are offered as `Simulation` offers them.
/// A probe, if given, rides on the network (`attach_probe`).
pub fn reference_run(
    mut net: Network,
    cfg: SimConfig,
    workload: Option<&Workload>,
    matrix: Option<&TrafficMatrix>,
    probe: Option<ProbeConfig>,
) -> SimReport {
    if let Some(pc) = probe {
        net.attach_probe(NetworkProbe::for_network(net.config(), pc));
    }
    let flows: Vec<_> = net
        .reservation_table()
        .map(|t| t.flows().iter().map(|f| (f.id, f.spec)).collect())
        .unwrap_or_default();
    let period = net.config().reservation_period;
    let mut generator = workload.map(|w| w.generator(cfg.seed));
    let mut matrix_gen = matrix.map(|m| m.generator(cfg.seed ^ 0x5EED));
    let n = net.topology().num_nodes();
    let warm_end = cfg.warmup_cycles;
    let meas_end = warm_end + cfg.measure_cycles;
    let hard_end = meas_end + cfg.drain_cycles;

    let mut pending: Vec<VecDeque<PacketSpec>> = vec![VecDeque::new(); n];
    let (mut lat_net, mut lat_total) = (Samples::new(), Samples::new());
    let mut class_samples: BTreeMap<u8, Samples> = BTreeMap::new();
    let mut flow_samples: BTreeMap<FlowId, Samples> = BTreeMap::new();
    let (mut delivered_flits, mut delivered_packets) = (0u64, 0u64);
    let (mut injected, mut outstanding) = (0u64, 0u64);
    let mut energy_start = EnergyCounters::default();
    let mut energy_end = EnergyCounters::default();
    loop {
        let now = net.cycle();
        if now == warm_end {
            energy_start = net.stats().energy;
        }
        if now == meas_end {
            energy_end = net.stats().energy;
        }
        if now >= hard_end {
            break;
        }
        if now < meas_end {
            for &(id, spec) in &flows {
                if now % period == spec.phase {
                    pending[spec.src.index()].push_back(
                        PacketSpec::new(spec.src, spec.dst)
                            .payload_bits(spec.payload_bits.max(1))
                            .flow(id),
                    );
                }
            }
            for (node, queue) in pending.iter_mut().enumerate() {
                let src = NodeId::new(node as u16);
                let offered = generator.as_mut().and_then(|g| g.next_request(now, src));
                let from_matrix = matrix_gen.as_mut().map(|m| m.requests_for(src));
                for req in offered.into_iter().chain(from_matrix.into_iter().flatten()) {
                    queue.push_back(
                        PacketSpec::new(src, req.dst)
                            .payload_bits(req.payload_bits)
                            .class(req.class),
                    );
                }
            }
        }
        let in_window = now >= warm_end && now < meas_end;
        for queue in &mut pending {
            while let Some(spec) = queue.front() {
                match net.inject(spec) {
                    Ok(_) => {
                        queue.pop_front();
                        if in_window {
                            injected += 1;
                            outstanding += 1;
                        }
                    }
                    Err(Error::InjectionBackpressure { .. }) => break,
                    Err(e) => panic!("unroutable packet: {e}"),
                }
            }
        }
        net.step();
        for node in 0..n {
            for pkt in net.drain_delivered(NodeId::new(node as u16)) {
                if pkt.delivered_at >= warm_end && pkt.delivered_at < meas_end {
                    delivered_flits += pkt.num_flits as u64;
                }
                if pkt.created_at >= warm_end && pkt.created_at < meas_end {
                    let latency = pkt.network_latency() as f64;
                    delivered_packets += 1;
                    outstanding = outstanding.saturating_sub(1);
                    lat_net.push(latency);
                    lat_total.push(pkt.total_latency() as f64);
                    class_samples
                        .entry(pkt.class.priority())
                        .or_default()
                        .push(latency);
                    if let Some(f) = pkt.flow {
                        flow_samples.entry(f).or_default().push(latency);
                    }
                }
            }
        }
        let now = net.cycle();
        if now >= hard_end || (now >= meas_end && outstanding == 0) {
            if energy_end == EnergyCounters::default() {
                energy_end = net.stats().energy;
            }
            break;
        }
    }

    let metrics = net.take_probe().map(|p| p.into_metrics(net.cycle()));
    let stats = net.stats();
    let loads = net.link_loads();
    let avg_link_utilization = if loads.is_empty() {
        0.0
    } else {
        loads.iter().map(|l| l.utilization).sum::<f64>() / loads.len() as f64
    };
    SimReport {
        cycles: net.cycle(),
        window: cfg.measure_cycles,
        offered_flit_rate: workload.map_or(0.0, Workload::offered_flit_rate)
            + matrix.map_or(0.0, TrafficMatrix::mean_load),
        accepted_flit_rate: delivered_flits as f64 / (n as f64 * cfg.measure_cycles as f64),
        network_latency: lat_net.report(),
        total_latency: lat_total.report(),
        class_latency: class_samples
            .iter_mut()
            .map(|(k, v)| (*k, v.report()))
            .collect(),
        flow_jitter: flow_samples.iter().map(|(k, v)| (*k, v.spread())).collect(),
        flow_latency: flow_samples
            .iter_mut()
            .map(|(k, v)| (*k, v.report()))
            .collect(),
        packets_delivered: delivered_packets,
        packets_injected: injected,
        packets_dropped: stats.packets_dropped,
        deflections: stats.deflections,
        energy: EnergyCounters {
            flit_hops: energy_end.flit_hops - energy_start.flit_hops,
            hop_bits: energy_end.hop_bits - energy_start.hop_bits,
            link_flits: energy_end.link_flits - energy_start.link_flits,
            link_bit_pitches: energy_end.link_bit_pitches - energy_start.link_bit_pitches,
        },
        avg_link_utilization,
        max_link_utilization: loads.iter().map(|l| l.utilization).fold(0.0, f64::max),
        unfinished_packets: outstanding,
        metrics,
    }
}
