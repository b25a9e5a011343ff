//! The traced run, which gives the per-layer metrics.
//!
//! The workload's user-facing call runs once untraced. Then, for every
//! point it produced, a mirror of `Simulation::run`'s warm-up, measure
//! and drain loop replays the point. The mirror uses only public calls:
//! `Network::new`, `next_request`, `inject`, `step`, `drain_delivered`
//! and `Samples`. It records a span around each layer's calls. The mirror
//! must reproduce the program's report exactly, which shows the layer
//! times describe the same work. The executor layer is timed as the whole
//! call against the serial mirrors. The shard and probe layers, and the
//! tracing itself, are timed as whole calls on a shortened copy of the
//! workload's most expensive point, in at least five rounds whose
//! medians are reported.
//!
//! Spans stay in memory. Full spans are kept for the first
//! [`SPAN_CYCLES`] cycles of each point, and totals, counts and a
//! per-cycle step-time histogram for the rest. At the end the run writes
//! `target/benchmark/<workload>.trace.json` (Chrome trace events, which
//! Perfetto loads) and `<workload>.layers.json`.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use ocin_core::{EnergyCounters, Error, Network, NodeId, PacketSpec, QuantileHistogram};
use ocin_sim::{Samples, ShardedSimulation, SimConfig};

use crate::host::{self, timed, Timing};
use crate::json::quote;
use crate::metrics;
use crate::run::{self, guarded, Checks, OUT_DIR};
use crate::stats::{median, tail_percentile};
use crate::workloads::{self, Digest, Point, RepOutput, Workload, DEFAULT_SEED};

/// Cycles at the start of each point whose spans are all kept.
const SPAN_CYCLES: u64 = 1_000;

/// Sub-bucket bits of the step-time histogram: under 1% quantization.
const STEP_PRECISION_BITS: u32 = 7;

/// Whole calls timed on the traced point in each round.
const CALLS: usize = 6;

/// Rounds of whole calls: at least [`MIN_ROUNDS`] whatever the budget,
/// so every whole-call figure is a median; at most [`MAX_ROUNDS`].
const MIN_ROUNDS: usize = 5;
const MAX_ROUNDS: usize = 9;

/// Measurement-window node-cycles of the traced point's whole calls:
/// its phases are cut to this, so a round takes a few seconds on any
/// workload and [`MIN_ROUNDS`] rounds fit a run.
const CALL_NODE_CYCLES: u64 = 250_000;

/// Time budget of the rounds when the run gives no `--seconds`.
const DEFAULT_ROUND_SECONDS: f64 = 20.0;

/// The layers the mirror times, in the order a cycle calls them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Traffic,
    Inject,
    Step,
    Drain,
    Report,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Traffic => "traffic.next_request",
            Layer::Inject => "interface.inject",
            Layer::Step => "network.step",
            Layer::Drain => "interface.drain_delivered",
            Layer::Report => "stats.report",
        }
    }
}

/// A timed stretch of calls into one layer, nested under its point.
struct Span {
    layer: Layer,
    point: u32,
    start_ns: u64,
    end_ns: u64,
}

/// A point's own span, the parent of its layer spans.
struct PointSpan {
    label: String,
    start_ns: u64,
    end_ns: u64,
}

/// Everything a traced run measured, the input of [`layer_metrics`].
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Mirror time per layer, ns, indexed by `Layer as usize`.
    pub layer_ns: [u64; 5],
    pub step_p50_ns: u64,
    pub step_p99_ns: u64,
    pub step_tail_ns: u64,
    pub step_tail_pct: f64,
    pub step_samples: u64,
    pub gen_calls: u64,
    pub inject_calls: u64,
    pub inject_backpressure: u64,
    pub samples: u64,
    pub reports: u64,
    pub node_cycles: u64,
    /// Whole-run flit-hops of every mirrored point.
    pub flit_hops: u64,
    /// Wall time of every mirror together.
    pub mirror_s: f64,
    /// Wall time of the untraced user-facing call.
    pub call_s: f64,
    pub waves: usize,
    pub max_shards: usize,
    pub points_evaluated: usize,
    pub batches: usize,
    /// Rounds of whole calls on the traced point; each figure below is
    /// the median over them.
    pub rounds: usize,
    /// The traced point mirrored with tracing on.
    pub mirror_point_s: f64,
    /// The traced point run by the program at 1 and 2 shards.
    pub shard1: Timing,
    pub shard2: Timing,
    /// The traced point under each probe tier.
    pub tiers_s: [f64; 3],
    pub export_s: f64,
    pub export_bytes: usize,
    pub network_new_s: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics, in [`metrics::PER_LAYER`] order.
pub fn layer_metrics(m: &Measured) -> Vec<(&'static str, f64)> {
    let ns = |l: Layer| m.layer_ns[l as usize] as f64;
    let mirror_ns = m.mirror_s * 1e9;
    let [counters, journeys, telemetry] = m.tiers_s;
    vec![
        ("network.step_us_p50", m.step_p50_ns as f64 / 1e3),
        ("network.step_us_p99", m.step_p99_ns as f64 / 1e3),
        ("network.step_us_tail", m.step_tail_ns as f64 / 1e3),
        ("network.step_tail_pct", m.step_tail_pct),
        ("network.step_samples", m.step_samples as f64),
        (
            "network.step_ns_per_node_cycle",
            ratio(ns(Layer::Step), m.node_cycles as f64),
        ),
        (
            "network.step_ns_per_flit_hop",
            ratio(ns(Layer::Step), m.flit_hops as f64),
        ),
        ("network.step_share", ratio(ns(Layer::Step), mirror_ns)),
        ("network.flit_hops", m.flit_hops as f64),
        ("network.node_cycles", m.node_cycles as f64),
        ("interface.inject_calls", m.inject_calls as f64),
        (
            "interface.inject_backpressure_frac",
            ratio(m.inject_backpressure as f64, m.inject_calls as f64),
        ),
        (
            "interface.inject_ns_per_call",
            ratio(ns(Layer::Inject), m.inject_calls as f64),
        ),
        (
            "interface.drain_ns_per_node_cycle",
            ratio(ns(Layer::Drain), m.node_cycles as f64),
        ),
        (
            "interface.share",
            ratio(ns(Layer::Inject) + ns(Layer::Drain), mirror_ns),
        ),
        (
            "traffic.gen_ns_per_call",
            ratio(ns(Layer::Traffic), m.gen_calls as f64),
        ),
        ("traffic.share", ratio(ns(Layer::Traffic), mirror_ns)),
        (
            "probe.counters_overhead_frac",
            ratio(counters, m.shard1.wall_s) - 1.0,
        ),
        (
            "probe.journeys_overhead_frac",
            ratio(journeys, counters) - 1.0,
        ),
        (
            "probe.telemetry_overhead_frac",
            ratio(telemetry, journeys) - 1.0,
        ),
        ("probe.export_ms", m.export_s * 1e3),
        ("probe.export_bytes", m.export_bytes as f64),
        ("shard.speedup_2", ratio(m.shard1.wall_s, m.shard2.wall_s)),
        (
            "shard.cpu_overhead_frac",
            ratio(m.shard2.cpu_s, m.shard1.cpu_s) - 1.0,
        ),
        // Without a pool the call is itself serial: nothing was batched.
        (
            "exec.batch_speedup",
            if m.batches == 0 {
                1.0
            } else {
                ratio(m.mirror_s, m.call_s)
            },
        ),
        ("exec.waves", m.waves as f64),
        ("exec.max_shards", m.max_shards as f64),
        ("pool.points_evaluated", m.points_evaluated as f64),
        ("sweep.rounds", m.batches as f64),
        ("sweep.points", m.points_evaluated as f64),
        (
            "stats.report_us_per_point",
            ratio(ns(Layer::Report), m.reports as f64) / 1e3,
        ),
        ("stats.samples", m.samples as f64),
        ("setup.network_new_ms", m.network_new_s * 1e3),
        (
            "trace.overhead_frac",
            ratio(m.mirror_point_s, m.shard1.wall_s) - 1.0,
        ),
        ("trace.rounds", m.rounds as f64),
    ]
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    points: Vec<PointSpan>,
    step: QuantileHistogram,
    m: Measured,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            points: Vec::new(),
            step: QuantileHistogram::new(STEP_PRECISION_BITS),
            m: Measured::default(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Ends the span of `layer` begun at `start_ns`; returns its length.
    fn close(&mut self, layer: Layer, point: u32, start_ns: u64, keep: bool) -> u64 {
        let end_ns = self.now();
        self.m.layer_ns[layer as usize] += end_ns - start_ns;
        if keep {
            self.spans.push(Span {
                layer,
                point,
                start_ns,
                end_ns,
            });
        }
        end_ns - start_ns
    }

    /// Replays `p` through the public API exactly as `Simulation::run`
    /// does, timing each layer, and returns the run's digest.
    fn mirror(&mut self, id: u32, p: &Point) -> Result<Digest, String> {
        let point_start = self.now();
        let mut net = Network::new(p.net_cfg.clone()).map_err(|e| e.to_string())?;
        let mut generator = p.traffic.generator(p.sim_cfg.seed);
        let n = net.topology().num_nodes();
        let cfg = p.sim_cfg;
        let warm_end = cfg.warmup_cycles;
        let meas_end = warm_end + cfg.measure_cycles;
        let hard_end = meas_end + cfg.drain_cycles;

        let mut pending: Vec<VecDeque<PacketSpec>> = vec![VecDeque::new(); n];
        let mut latency = Samples::new();
        let (mut injected, mut delivered, mut delivered_flits, mut outstanding) =
            (0u64, 0, 0, 0u64);
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
            let keep = now < SPAN_CYCLES;

            if now < meas_end {
                let t = self.now();
                for (node, queue) in pending.iter_mut().enumerate() {
                    let src = NodeId::new(node as u16);
                    if let Some(req) = generator.next_request(now, src) {
                        queue.push_back(
                            PacketSpec::new(src, req.dst)
                                .payload_bits(req.payload_bits)
                                .class(req.class),
                        );
                    }
                }
                self.close(Layer::Traffic, id, t, keep);
                self.m.gen_calls += n as u64;
            }

            let in_window = now >= warm_end && now < meas_end;
            let t = self.now();
            for queue in &mut pending {
                while let Some(spec) = queue.front() {
                    self.m.inject_calls += 1;
                    match net.inject(spec) {
                        Ok(_) => {
                            queue.pop_front();
                            if in_window {
                                injected += 1;
                                outstanding += 1;
                            }
                        }
                        Err(Error::InjectionBackpressure { .. }) => {
                            self.m.inject_backpressure += 1;
                            break;
                        }
                        Err(e) => return Err(format!("unroutable packet: {e}")),
                    }
                }
            }
            self.close(Layer::Inject, id, t, keep);

            let t = self.now();
            net.step();
            let step_ns = self.close(Layer::Step, id, t, keep);
            self.step.record(step_ns);

            let t = self.now();
            for node in 0..n {
                for pkt in net.drain_delivered(NodeId::new(node as u16)) {
                    if pkt.delivered_at >= warm_end && pkt.delivered_at < meas_end {
                        delivered_flits += pkt.num_flits as u64;
                    }
                    if pkt.created_at >= warm_end && pkt.created_at < meas_end {
                        delivered += 1;
                        latency.push(pkt.network_latency() as f64);
                        outstanding = outstanding.saturating_sub(1);
                    }
                }
            }
            self.close(Layer::Drain, id, t, keep);

            let now = net.cycle();
            if now >= hard_end || (now >= meas_end && outstanding == 0) {
                if energy_end == EnergyCounters::default() {
                    energy_end = net.stats().energy;
                }
                break;
            }
        }

        let t = self.now();
        let report = latency.report();
        self.close(Layer::Report, id, t, true);
        self.m.reports += 1;
        self.m.samples += report.count as u64;
        self.m.node_cycles += n as u64 * net.cycle();
        self.m.flit_hops += net.stats().energy.flit_hops;
        self.points.push(PointSpan {
            label: p.label.clone(),
            start_ns: point_start,
            end_ns: self.now(),
        });
        Ok(Digest {
            cycles: net.cycle(),
            injected,
            delivered,
            flit_hops: energy_end.flit_hops - energy_start.flit_hops,
            accepted: delivered_flits as f64 / (n as f64 * cfg.measure_cycles as f64),
            p50: report.p50,
            p99: report.p99,
        })
    }

    /// The kept spans as Chrome trace events: one thread per point, its
    /// point span the parent of its layer spans.
    fn write_chrome_trace(&self, path: &Path, workload: &str) -> Result<(), String> {
        let file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        let us = |ns: u64| ns as f64 / 1e3;
        let mut events = vec![format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {{\"name\": {}}}}}",
            quote(&format!("benchmark {workload}"))
        )];
        for (id, p) in self.points.iter().enumerate() {
            events.push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {id}, \"args\": {{\"name\": {}}}}}",
                quote(&p.label)
            ));
            events.push(format!(
                "{{\"name\": \"point\", \"cat\": \"point\", \"ph\": \"X\", \"pid\": 1, \"tid\": {id}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"point\": {id}, \"label\": {}}}}}",
                us(p.start_ns),
                us(p.end_ns - p.start_ns),
                quote(&p.label)
            ));
        }
        let write = |w: &mut std::io::BufWriter<std::fs::File>, first: bool, e: &str| {
            w.write_all(if first { b"\n  " } else { b",\n  " })?;
            w.write_all(e.as_bytes())
        };
        let io = |e: std::io::Error| format!("write {}: {e}", path.display());
        w.write_all(b"{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")
            .map_err(io)?;
        for (i, e) in events.iter().enumerate() {
            write(&mut w, i == 0, e).map_err(io)?;
        }
        for s in &self.spans {
            let name = s.layer.name();
            let e = format!(
                "{{\"name\": \"{name}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"point\": {}, \"parent\": \"point\"}}}}",
                name.split('.').next().unwrap_or(name),
                s.point,
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
                s.point
            );
            write(&mut w, false, &e).map_err(io)?;
        }
        w.write_all(b"\n]}\n").map_err(io)?;
        w.flush().map_err(io)
    }
}

/// The point whose run costs most (nodes × cycles; first on ties), with
/// its phases cut to [`CALL_NODE_CYCLES`]: the point the whole-call
/// layers are timed on.
fn traced_point(out: &RepOutput) -> Point {
    let mut best = 0;
    let mut best_cost = 0;
    for (i, (p, r)) in out.points.iter().enumerate() {
        let cost = p.nodes() as u64 * r.cycles;
        if cost > best_cost {
            best = i;
            best_cost = cost;
        }
    }
    let p = &out.points[best].0;
    let measure_cycles = CALL_NODE_CYCLES / p.nodes() as u64;
    Point {
        label: format!("{} (whole calls)", p.label),
        sim_cfg: SimConfig {
            warmup_cycles: measure_cycles / 5,
            measure_cycles,
            drain_cycles: 2 * measure_cycles,
            ..p.sim_cfg
        },
        ..p.clone()
    }
}

/// Runs one workload traced; returns whether every check passed. After
/// [`MIN_ROUNDS`] rounds of whole calls, further rounds run only while
/// they fit `seconds`.
pub fn run(w: Workload, seed: u64, seconds: Option<f64>) -> Result<bool, String> {
    host::check_proc()?;
    let mut checks = Checks::default();
    let mut tracer = Tracer::new();
    let setup = w.setup_point(seed);
    tracer.m.network_new_s = median(&run::build_times(run::SETUP_ONCE, || {
        Network::new(setup.net_cfg.clone())
    }));

    let Some(out) = guarded(|| w.run(seed)) else {
        let values = layer_metrics(&tracer.m);
        println!("{}", metrics::result_line(false, 1, 1, &values));
        return Ok(false);
    };
    tracer.m.call_s = out.timing.wall_s;
    let lines = out.digest_lines();
    let want = if seed == DEFAULT_SEED {
        run::golden_lines(w)
    } else {
        lines.clone()
    };
    checks.lines(&lines, &want);
    let premise = w.premise(&out);
    if let Err(why) = &premise {
        eprintln!("benchmark: {} premise failed: {why}", w.name());
    }
    let decisions: Vec<_> = out.decisions.iter().flatten().collect();
    tracer.m.batches = out.decisions.len();
    tracer.m.points_evaluated = decisions.len();
    tracer.m.waves = out
        .decisions
        .iter()
        .map(|b| b.iter().map(|d| d.wave + 1).max().unwrap_or(0))
        .sum();
    tracer.m.max_shards = decisions.iter().map(|d| d.shards).max().unwrap_or(1);

    let mut mirror_s = Vec::with_capacity(out.points.len());
    for (id, (p, r)) in out.points.iter().enumerate() {
        let t0 = Instant::now();
        let got = guarded(|| tracer.mirror(id as u32, p));
        mirror_s.push(t0.elapsed().as_secs_f64());
        let want = Digest::of(r);
        let ok = matches!(&got, Some(Ok(d)) if *d == want);
        if !ok {
            eprintln!(
                "benchmark: mirror of {} gave {got:?}, program {want}",
                p.label
            );
        }
        checks.point(ok);
    }

    let p = &traced_point(&out);
    // The program's own run of the traced point gives the digest every
    // whole call must reproduce.
    let want = guarded(|| Digest::of(&p.simulation().run()));
    checks.point(want.is_some());
    let tiers = workloads::probe_tiers();
    let mut export_s = Vec::new();
    let mut export_bytes = 0;
    // Whole call `i` on the traced point: 0 the traced mirror, 1 and 2
    // the program at 1 and 2 shards, 3 to 5 the program under each probe
    // tier. Every call's digest must equal the program's.
    let mut call = |i: usize| -> Timing {
        if i == 0 {
            let got = guarded(|| timed(|| Tracer::new().mirror(0, p)));
            checks.point(matches!(&got, Some((Ok(d), _)) if Some(*d) == want));
            return got.map(|(_, t)| t).unwrap_or_default();
        }
        let (shards, probe) = match i {
            1 | 2 => (i, None),
            _ => (1, Some(tiers[i - 3])),
        };
        let got = guarded(|| {
            timed(|| {
                let mut sim = p.simulation();
                if let Some(pc) = probe {
                    sim = sim.with_probe(pc);
                }
                ShardedSimulation::new(sim, shards).run()
            })
        });
        checks.point(
            got.as_ref()
                .is_some_and(|(r, _)| Some(Digest::of(r)) == want),
        );
        let Some((r, t)) = got else {
            return Timing::default();
        };
        if let Some(m) = r.metrics.as_ref().filter(|_| i == CALLS - 1) {
            let (bytes, te) = timed(|| workloads::export(m));
            export_s.push(te.wall_s);
            export_bytes = bytes;
        }
        t
    };
    // Rounds alternate their call order so slow drift of the host cancels
    // out of the comparisons between calls.
    let budget = seconds.unwrap_or(DEFAULT_ROUND_SECONDS);
    let start = Instant::now();
    let mut rounds: Vec<[Timing; CALLS]> = Vec::new();
    while rounds.len() < MIN_ROUNDS
        || (rounds.len() < MAX_ROUNDS
            && start.elapsed().as_secs_f64() * (rounds.len() + 1) as f64 / rounds.len() as f64
                <= budget)
    {
        let mut round = [Timing::default(); CALLS];
        let mut order: [usize; CALLS] = std::array::from_fn(|i| i);
        if rounds.len() % 2 == 1 {
            order.reverse();
        }
        for i in order {
            round[i] = call(i);
        }
        rounds.push(round);
    }
    let med = |i: usize| Timing {
        wall_s: median(&rounds.iter().map(|r| r[i].wall_s).collect::<Vec<_>>()),
        cpu_s: median(&rounds.iter().map(|r| r[i].cpu_s).collect::<Vec<_>>()),
    };

    let step = &tracer.step;
    let (step_tail_pct, step_tail_ns) =
        tail_percentile(step.count).map_or((0.0, 0), |pct| (pct, step.percentile(pct)));
    tracer.m = Measured {
        step_p50_ns: step.percentile(50.0),
        step_p99_ns: step.percentile(99.0),
        step_tail_ns,
        step_tail_pct,
        step_samples: step.count,
        mirror_s: mirror_s.iter().sum(),
        mirror_point_s: med(0).wall_s,
        shard1: med(1),
        shard2: med(2),
        tiers_s: [med(3).wall_s, med(4).wall_s, med(5).wall_s],
        export_s: median(&export_s),
        export_bytes,
        rounds: rounds.len(),
        ..tracer.m
    };

    let correct = checks.failed == 0 && premise.is_ok();
    let values = layer_metrics(&tracer.m);
    let dir = Path::new(OUT_DIR);
    let layers = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"nproc\": {}, \"traced_point\": {}, \
         \"points_mirrored\": {}, \"spans_kept\": {}, \"correct\": {correct}, \"metrics\": {}}}\n",
        quote(w.name()),
        run::nproc(),
        quote(&p.label),
        out.points.len(),
        tracer.spans.len(),
        metrics::render(&values)
    );
    // Creates the directory the trace goes to as well.
    run::write_file(&dir.join(format!("{}.layers.json", w.name())), &layers)?;
    let trace_path = dir.join(format!("{}.trace.json", w.name()));
    tracer.write_chrome_trace(&trace_path, w.name())?;

    println!(
        "benchmark trace {} seed={seed}: {} points mirrored, {} spans kept, traced point {}",
        w.name(),
        out.points.len(),
        tracer.spans.len(),
        p.label
    );
    for (name, v) in &values {
        println!("  {name:<36} {v:.6}");
    }
    println!(
        "  wrote {} and {}.layers.json",
        trace_path.display(),
        w.name()
    );
    println!(
        "{}",
        metrics::result_line(correct, checks.attempted, checks.failed, &values)
    );
    Ok(correct)
}
