//! The workload-driven simulation: warmup, measurement, drain.
//!
//! [`Simulation`] holds one network and what drives it; its report is
//! assembled here. The run itself is the windowed driver in
//! [`crate::shard`] at one cell, so a plain run and a sharded one step,
//! inject and measure through the same loop.

use std::collections::BTreeMap;

use ocin_core::ids::FlowId;
use ocin_core::interface::DeliveredPacket;
use ocin_core::network::{EnergyCounters, Network};
use ocin_core::probe::{NetworkMetrics, ProbeConfig};
use ocin_core::reservation::StaticFlowSpec;
use ocin_core::{Error, NetworkConfig, QuantileHistogram};
use ocin_traffic::{MatrixGenerator, TrafficMatrix, Workload, WorkloadGenerator};

use crate::stats::LatencyReport;

/// Simulation phases, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Cycles before measurement starts (fills pipelines).
    pub warmup_cycles: u64,
    /// Cycles during which packets are tagged for measurement.
    pub measure_cycles: u64,
    /// Maximum extra cycles to let tagged packets drain.
    pub drain_cycles: u64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// A short run for tests and examples.
    pub fn quick() -> SimConfig {
        SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            drain_cycles: 2_000,
            seed: 1,
        }
    }

    /// A standard experiment run.
    pub fn standard() -> SimConfig {
        SimConfig {
            warmup_cycles: 2_000,
            measure_cycles: 10_000,
            drain_cycles: 20_000,
            seed: 1,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::standard()
    }
}

/// What one simulation run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total cycles simulated (including warmup and drain).
    pub cycles: u64,
    /// Measurement-window length, cycles.
    pub window: u64,
    /// Offered load, flits/node/cycle (0 if no workload).
    pub offered_flit_rate: f64,
    /// Delivered flits/node/cycle *during* the measurement window — the
    /// network's sustained delivery rate. Counting deliveries of
    /// window-tagged packets whenever they drain would let the
    /// (new-traffic-free) drain phase clear the source-queue backlog and
    /// report accepted == offered even far past saturation.
    pub accepted_flit_rate: f64,
    /// Network latency (injection to tail delivery) of measured packets.
    pub network_latency: LatencyReport,
    /// Total latency (offer to tail delivery) of measured packets.
    pub total_latency: LatencyReport,
    /// Latency by service class priority (0 bulk, 1 priority, 2 reserved).
    ///
    /// Ordered maps, not hash maps: these feed serialized reports and
    /// experiment transcripts, so iterating them must visit keys in a
    /// stable order for renders of the same run to be byte-identical.
    pub class_latency: BTreeMap<u8, LatencyReport>,
    /// Per-flow latency spread (jitter) for pre-scheduled flows.
    pub flow_jitter: BTreeMap<FlowId, f64>,
    /// Per-flow latency report.
    pub flow_latency: BTreeMap<FlowId, LatencyReport>,
    /// Packets delivered (measured window).
    pub packets_delivered: u64,
    /// Packets injected (measured window).
    pub packets_injected: u64,
    /// Packets dropped network-wide over the whole run.
    pub packets_dropped: u64,
    /// Deflections network-wide over the whole run.
    pub deflections: u64,
    /// Energy counters accumulated during the measurement window.
    pub energy: EnergyCounters,
    /// Mean link utilization over the run.
    pub avg_link_utilization: f64,
    /// Peak link utilization over the run.
    pub max_link_utilization: f64,
    /// Packets left unfinished when the drain budget expired.
    pub unfinished_packets: u64,
    /// Probe metrics snapshot (`None` unless the run was probed via
    /// [`Simulation::with_probe`]). Kept last so probe-free reports
    /// compare equal regardless of how they were produced.
    pub metrics: Option<NetworkMetrics>,
}

/// Measurement-window accumulator: the delivered-flit count and exact
/// latency histograms of the packets created inside the window.
///
/// Each histogram's precision is derived from the run's cycle bound. No
/// latency can exceed the cycles simulated, so every latency is its own
/// bucket, and the report equals one built by sorting the raw samples
/// bit for bit, whatever order the deliveries arrive in. Each cell of a
/// run folds its own deliveries into its own accumulator;
/// [`MeasureAcc::merge`] combines them after the run.
#[derive(Debug)]
pub(crate) struct MeasureAcc {
    warm_end: u64,
    meas_end: u64,
    precision: u32,
    lat_net: QuantileHistogram,
    lat_total: QuantileHistogram,
    class_latency: BTreeMap<u8, QuantileHistogram>,
    flow_latency: BTreeMap<FlowId, QuantileHistogram>,
    delivered_flits: u64,
    delivered_packets: u64,
}

impl MeasureAcc {
    /// An empty accumulator for the window `[warm_end, meas_end)` of a
    /// run that stops by cycle `hard_end`.
    pub(crate) fn new(warm_end: u64, meas_end: u64, hard_end: u64) -> MeasureAcc {
        // Exact below 2^(precision + 1), which is above hard_end; the cap
        // keeps that bound within a u64.
        let precision = (u64::BITS - hard_end.leading_zeros()).min(62);
        MeasureAcc {
            warm_end,
            meas_end,
            precision,
            lat_net: QuantileHistogram::new(precision),
            lat_total: QuantileHistogram::new(precision),
            class_latency: BTreeMap::new(),
            flow_latency: BTreeMap::new(),
            delivered_flits: 0,
            delivered_packets: 0,
        }
    }

    /// Folds one delivery into the accumulator. Returns whether the
    /// packet is measured (created inside the window).
    pub(crate) fn on_delivered(&mut self, pkt: &DeliveredPacket) -> bool {
        // Accepted throughput counts every flit that lands inside the
        // window, whatever its creation time.
        if pkt.delivered_at >= self.warm_end && pkt.delivered_at < self.meas_end {
            self.delivered_flits += pkt.num_flits as u64;
        }
        // Only packets created inside the window are measured.
        if pkt.created_at < self.warm_end || pkt.created_at >= self.meas_end {
            return false;
        }
        let latency = pkt.network_latency();
        let precision = self.precision;
        self.delivered_packets += 1;
        self.lat_net.record(latency);
        self.lat_total.record(pkt.total_latency());
        self.class_latency
            .entry(pkt.class.priority())
            .or_insert_with(|| QuantileHistogram::new(precision))
            .record(latency);
        if let Some(f) = pkt.flow {
            self.flow_latency
                .entry(f)
                .or_insert_with(|| QuantileHistogram::new(precision))
                .record(latency);
        }
        true
    }

    /// Folds `other`, an accumulator of the same run, into this one.
    pub(crate) fn merge(&mut self, other: &MeasureAcc) {
        self.lat_net.merge(&other.lat_net);
        self.lat_total.merge(&other.lat_total);
        merge_keyed(&mut self.class_latency, &other.class_latency);
        merge_keyed(&mut self.flow_latency, &other.flow_latency);
        self.delivered_flits += other.delivered_flits;
        self.delivered_packets += other.delivered_packets;
    }
}

/// Merges each histogram of `theirs` into the one under the same key.
fn merge_keyed<K: Ord + Copy>(
    mine: &mut BTreeMap<K, QuantileHistogram>,
    theirs: &BTreeMap<K, QuantileHistogram>,
) {
    for (k, h) in theirs {
        mine.entry(*k)
            .and_modify(|m| m.merge(h))
            .or_insert_with(|| h.clone());
    }
}

/// Scalar run totals fed into [`assemble_report`].
#[derive(Clone, Copy)]
pub(crate) struct RunTotals {
    pub injected_packets: u64,
    pub unfinished_packets: u64,
    pub energy_start: EnergyCounters,
    pub energy_end: EnergyCounters,
}

/// Builds the final [`SimReport`] from a finished network and the
/// measurement accumulator.
pub(crate) fn assemble_report(
    net: &Network,
    cfg: &SimConfig,
    offered_rate: f64,
    acc: &MeasureAcc,
    totals: RunTotals,
    metrics: Option<NetworkMetrics>,
) -> SimReport {
    let RunTotals {
        injected_packets,
        unfinished_packets,
        energy_start,
        energy_end,
    } = totals;
    let n = net.topology().num_nodes();
    let stats = net.stats();
    let loads = net.link_loads();
    let avg_u = if loads.is_empty() {
        0.0
    } else {
        loads.iter().map(|l| l.utilization).sum::<f64>() / loads.len() as f64
    };
    let max_u = loads.iter().map(|l| l.utilization).fold(0.0, f64::max);

    SimReport {
        cycles: net.cycle(),
        window: cfg.measure_cycles,
        offered_flit_rate: offered_rate,
        accepted_flit_rate: acc.delivered_flits as f64 / (n as f64 * cfg.measure_cycles as f64),
        network_latency: LatencyReport::from_quantiles(&acc.lat_net),
        total_latency: LatencyReport::from_quantiles(&acc.lat_total),
        class_latency: acc
            .class_latency
            .iter()
            .map(|(k, h)| (*k, LatencyReport::from_quantiles(h)))
            .collect(),
        flow_jitter: acc
            .flow_latency
            .iter()
            .map(|(k, h)| (*k, (h.max - h.min) as f64))
            .collect(),
        flow_latency: acc
            .flow_latency
            .iter()
            .map(|(k, h)| (*k, LatencyReport::from_quantiles(h)))
            .collect(),
        packets_delivered: acc.delivered_packets,
        packets_injected: injected_packets,
        packets_dropped: stats.packets_dropped,
        deflections: stats.deflections,
        energy: EnergyCounters {
            flit_hops: energy_end.flit_hops - energy_start.flit_hops,
            hop_bits: energy_end.hop_bits - energy_start.hop_bits,
            link_flits: energy_end.link_flits - energy_start.link_flits,
            link_bit_pitches: energy_end.link_bit_pitches - energy_start.link_bit_pitches,
        },
        avg_link_utilization: avg_u,
        max_link_utilization: max_u,
        unfinished_packets,
        metrics,
    }
}

/// A warmup/measure/drain simulation of one network configuration.
pub struct Simulation {
    pub(crate) net: Network,
    pub(crate) cfg: SimConfig,
    pub(crate) generator: Option<WorkloadGenerator>,
    pub(crate) matrix: Option<MatrixGenerator>,
    pub(crate) flows: Vec<(FlowId, StaticFlowSpec)>,
    pub(crate) reservation_period: u64,
    pub(crate) probe_cfg: Option<ProbeConfig>,
}

impl Simulation {
    /// Builds the network and harness.
    ///
    /// # Errors
    ///
    /// Propagates [`ocin_core::Error`] from network construction.
    pub fn new(net_cfg: NetworkConfig, cfg: SimConfig) -> Result<Simulation, Error> {
        let reservation_period = net_cfg.reservation_period;
        let net = Network::new(net_cfg)?;
        let flows = net
            .reservation_table()
            .map(|t| t.flows().iter().map(|f| (f.id, f.spec)).collect::<Vec<_>>())
            .unwrap_or_default();
        Ok(Simulation {
            net,
            cfg,
            generator: None,
            matrix: None,
            flows,
            reservation_period,
            probe_cfg: None,
        })
    }

    /// Attaches a dynamic workload, replacing any earlier one.
    pub fn with_workload(mut self, workload: &Workload) -> Simulation {
        self.generator = Some(workload.generator(self.cfg.seed));
        self
    }

    /// Attaches a per-pair traffic matrix, replacing any earlier one (may
    /// be combined with a pattern workload, in either order; offered
    /// rates add).
    pub fn with_traffic_matrix(mut self, matrix: &TrafficMatrix) -> Simulation {
        self.matrix = Some(matrix.generator(self.cfg.seed ^ 0x5EED));
        self
    }

    /// Offered load of the attached workload plus traffic matrix,
    /// flits/node/cycle.
    pub(crate) fn offered_rate(&self) -> f64 {
        let workload = self
            .generator
            .as_ref()
            .map_or(0.0, WorkloadGenerator::offered_flit_rate);
        workload + self.matrix.as_ref().map_or(0.0, MatrixGenerator::mean_load)
    }

    /// Attaches an observability probe; the run's [`SimReport::metrics`]
    /// carries the resulting [`NetworkMetrics`] snapshot. Probes are
    /// purely observational: every other report field is bit-identical
    /// to an unprobed run of the same configuration and seed.
    pub fn with_probe(mut self, cfg: ProbeConfig) -> Simulation {
        self.probe_cfg = Some(cfg);
        self
    }

    /// Mutable access to the network (e.g. for fault injection before
    /// running). [`Simulation::run`] steps the network's cells itself
    /// and never drives a probe attached here; probe a run with
    /// [`Simulation::with_probe`].
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Runs warmup, measurement, and drain; returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the workload produces an unroutable packet.
    pub fn run(&mut self) -> SimReport {
        crate::shard::run_windowed(self, 1)
    }

    /// Measured energy events per delivered packet: `(hop_bits,
    /// link_bit_pitches)`. Convert to joules with
    /// `ocin_phys::NetworkEnergyModel::total_energy_pj`.
    pub fn energy_per_packet(report: &SimReport) -> (f64, f64) {
        let delivered = report.packets_delivered.max(1) as f64;
        (
            report.energy.hop_bits as f64 / delivered,
            report.energy.link_bit_pitches / delivered,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Samples;
    use ocin_core::ids::PacketId;
    use ocin_core::{ServiceClass, TopologySpec};
    use ocin_traffic::{InjectionProcess, TrafficMatrix, TrafficPattern};

    fn quick_sim(rate: f64) -> SimReport {
        let wl = Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: rate });
        Simulation::new(NetworkConfig::paper_baseline(), SimConfig::quick())
            .unwrap()
            .with_workload(&wl)
            .run()
    }

    #[test]
    fn light_load_accepts_all_offered_traffic() {
        let r = quick_sim(0.05);
        assert!(r.packets_delivered > 0);
        assert!(
            (r.accepted_flit_rate - 0.05).abs() < 0.015,
            "accepted {} vs offered 0.05",
            r.accepted_flit_rate
        );
        assert_eq!(r.unfinished_packets, 0);
        assert!(r.network_latency.mean >= 5.0);
    }

    #[test]
    fn heavy_load_saturates_below_offered() {
        let light = quick_sim(0.05);
        let heavy = quick_sim(0.95);
        assert!(heavy.accepted_flit_rate < 0.95);
        assert!(heavy.network_latency.mean > light.network_latency.mean);
    }

    #[test]
    fn mesh_saturates_before_torus() {
        // The torus's doubled bisection bandwidth binds at k = 8 under
        // uniform traffic: the mesh saturates near 0.5 flits/node/cycle
        // while the torus keeps accepting.
        let run = |spec| {
            let wl = Workload::new(64, 8, TrafficPattern::Uniform)
                .injection(InjectionProcess::Bernoulli { flit_rate: 0.7 });
            Simulation::new(
                NetworkConfig::paper_baseline().with_topology(spec),
                SimConfig::quick(),
            )
            .unwrap()
            .with_workload(&wl)
            .run()
        };
        let torus = run(TopologySpec::FoldedTorus { k: 8 });
        let mesh = run(TopologySpec::Mesh { k: 8 });
        assert!(
            torus.accepted_flit_rate > 1.15 * mesh.accepted_flit_rate,
            "torus {} vs mesh {}",
            torus.accepted_flit_rate,
            mesh.accepted_flit_rate
        );
    }

    #[test]
    fn reserved_flow_has_low_jitter() {
        let cfg = NetworkConfig::paper_baseline()
            .with_static_flow(StaticFlowSpec::new(0.into(), 5.into(), 0, 256))
            .with_reservation_period(8);
        let wl = Workload::new(16, 4, TrafficPattern::Uniform)
            .injection(InjectionProcess::Bernoulli { flit_rate: 0.3 });
        let r = Simulation::new(cfg, SimConfig::quick())
            .unwrap()
            .with_workload(&wl)
            .run();
        let jitter = r.flow_jitter.get(&FlowId(0)).copied().unwrap_or(99.0);
        assert!(jitter <= 1.0, "reserved flow jitter {jitter}");
        let fl = r.flow_latency[&FlowId(0)];
        assert!(fl.count > 0);
    }

    #[test]
    fn offered_rates_add_in_either_order() {
        let wl = |rate| {
            Workload::new(16, 4, TrafficPattern::Uniform)
                .injection(InjectionProcess::Bernoulli { flit_rate: rate })
        };
        let mut matrix = TrafficMatrix::new(16);
        matrix.set(1.into(), 10.into(), 0.4);
        let want = wl(0.1).offered_flit_rate() + matrix.mean_load();
        let sim = || Simulation::new(NetworkConfig::paper_baseline(), SimConfig::quick()).unwrap();
        let matrix_first = sim().with_traffic_matrix(&matrix).with_workload(&wl(0.1));
        let workload_first = sim().with_workload(&wl(0.1)).with_traffic_matrix(&matrix);
        // A replaced workload or matrix counts once, at its new rate.
        let replaced = sim()
            .with_workload(&wl(0.3))
            .with_traffic_matrix(&matrix)
            .with_traffic_matrix(&matrix)
            .with_workload(&wl(0.1));
        for s in [matrix_first, workload_first, replaced] {
            assert_eq!(s.offered_rate().to_bits(), want.to_bits());
        }
        assert_eq!(sim().offered_rate(), 0.0);
    }

    /// The histogram measurement reproduces a sort of the raw samples
    /// bit for bit, whatever the feed order and however the deliveries
    /// split across cells. The latencies straddle 2^17, where a fixed
    /// 16-bit precision would start to floor odd values.
    #[test]
    fn measurement_matches_sorted_samples_in_any_order() {
        let (warm_end, meas_end, hard_end) = (100, 1_100, 300_000);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pkts: Vec<DeliveredPacket> = (0..900u64)
            .map(|i| {
                let created_at = 50 + next() % 1_100;
                let injected_at = created_at + next() % 40;
                let wide = 1 + 2 * (next() % 400);
                let latency = match i % 3 {
                    0 => (1 << 17) + wide,
                    1 => (1 << 17) - wide,
                    _ => 5 + next() % 200,
                };
                let classes = [ServiceClass::Bulk, ServiceClass::Priority];
                DeliveredPacket {
                    id: PacketId(i),
                    src: 0.into(),
                    dst: 1.into(),
                    class: classes[(i % 2) as usize],
                    flow: (i % 4 == 0).then_some(FlowId((i % 3) as u32)),
                    created_at,
                    injected_at,
                    delivered_at: injected_at + latency,
                    num_flits: 1 + (i % 4) as usize,
                    payloads: Vec::new(),
                    corrupted: false,
                }
            })
            .collect();
        // A few packets land inside the window, so accepted throughput
        // counts flits too.
        for p in pkts.iter_mut().step_by(7) {
            p.delivered_at = p.injected_at + 5;
        }

        // The reference: every measured sample, sorted on report.
        let (mut lat_net, mut lat_total) = (Samples::new(), Samples::new());
        let mut classes: BTreeMap<u8, Samples> = BTreeMap::new();
        let mut flows: BTreeMap<FlowId, Samples> = BTreeMap::new();
        let (mut flits, mut measured) = (0u64, 0u64);
        for p in &pkts {
            if p.delivered_at >= warm_end && p.delivered_at < meas_end {
                flits += p.num_flits as u64;
            }
            if p.created_at >= warm_end && p.created_at < meas_end {
                let latency = p.network_latency() as f64;
                measured += 1;
                lat_net.push(latency);
                lat_total.push(p.total_latency() as f64);
                classes.entry(p.class.priority()).or_default().push(latency);
                if let Some(f) = p.flow {
                    flows.entry(f).or_default().push(latency);
                }
            }
        }
        assert!(measured > 500 && flits > 0);

        // Shuffle, then split across two cells and merge.
        let mut keyed: Vec<(u64, DeliveredPacket)> = pkts.drain(..).map(|p| (next(), p)).collect();
        keyed.sort_by_key(|&(k, _)| k);
        let mut cells = [0, 1].map(|_| MeasureAcc::new(warm_end, meas_end, hard_end));
        for (i, (_, p)) in keyed.iter().enumerate() {
            cells[i % 2].on_delivered(p);
        }
        let [mut acc, other] = cells;
        acc.merge(&other);

        let cfg = SimConfig {
            warmup_cycles: warm_end,
            measure_cycles: meas_end - warm_end,
            drain_cycles: hard_end - meas_end,
            seed: 1,
        };
        let net = Network::new(NetworkConfig::paper_baseline()).unwrap();
        let totals = RunTotals {
            injected_packets: 0,
            unfinished_packets: 0,
            energy_start: EnergyCounters::default(),
            energy_end: EnergyCounters::default(),
        };
        let got = assemble_report(&net, &cfg, 0.0, &acc, totals, None);

        let bits = |r: &LatencyReport| {
            [r.mean, r.p50, r.p95, r.p99, r.p999, r.min, r.max].map(f64::to_bits)
        };
        let same = |got: &LatencyReport, want: &LatencyReport| {
            got.count == want.count && bits(got) == bits(want)
        };
        assert!(same(&got.network_latency, &lat_net.report()));
        assert!(same(&got.total_latency, &lat_total.report()));
        assert_eq!(got.class_latency.len(), classes.len());
        for (k, s) in &mut classes {
            assert!(same(&got.class_latency[k], &s.report()), "class {k}");
        }
        assert_eq!(got.flow_latency.len(), flows.len());
        for (k, s) in &mut flows {
            assert!(same(&got.flow_latency[k], &s.report()), "{k:?}");
            assert_eq!(got.flow_jitter[k].to_bits(), s.spread().to_bits());
        }
        assert_eq!(got.packets_delivered, measured);
        let accepted = flits as f64 / (16.0 * (meas_end - warm_end) as f64);
        assert_eq!(got.accepted_flit_rate.to_bits(), accepted.to_bits());
    }

    #[test]
    fn report_energy_window_is_positive() {
        let r = quick_sim(0.1);
        assert!(r.energy.flit_hops > 0);
        assert!(r.energy.link_bit_pitches > 0.0);
        assert!(r.avg_link_utilization > 0.0);
        assert!(r.max_link_utilization <= 1.0);
    }
}
