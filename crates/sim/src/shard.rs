//! Deterministic sharded execution of one simulation run.
//!
//! [`ShardedSimulation`] steps a single [`Simulation`] on several worker
//! threads — one per contiguous tile-region cell cut by
//! [`Network::set_shards`] — using conservative synchronization: every
//! channel has at least one cycle of latency, so each cell can step a
//! lookahead window of [`Network::lookahead_window`] cycles before any
//! boundary flit or credit created by a neighbour could possibly arrive.
//! At each window boundary the workers exchange boundary messages
//! through per-pair mailboxes and agree on the harness exit condition
//! via per-cycle injection/delivery tallies, then continue.
//!
//! The result is bit-identical to [`Simulation::run`]: the same
//! [`SimReport`], the same probe metrics, the same journey exports,
//! regardless of shard count or thread scheduling. Every source of
//! nondeterminism is removed structurally rather than tolerated:
//!
//! * workload draws come from per-node (and per-matrix-row) RNG
//!   streams, so each worker's cloned generator reproduces exactly the
//!   draws the sequential harness would have made for its nodes;
//! * deliveries are merged by a stable sort on delivery cycle, which
//!   restores the sequential cycle-major, node-ascending collection
//!   order because each worker drains its own (ascending) node range
//!   every cycle;
//! * probe events are recorded per worker into [`LogProbe`] event logs
//!   and replayed through one [`NetworkProbe`] in sequential order by
//!   [`replay_logs`];
//! * the measured-outstanding exit counter is replicated on every
//!   worker from the shared per-cycle tallies, so all workers take the
//!   same exit decision on the same cycle the sequential loop would;
//! * energy-counter landmarks are cell-local snapshots summed in cell
//!   order, reproducing the sequential float-accumulation order.
//!
//! See DESIGN.md §3.15 for the lookahead-window argument.

use std::collections::VecDeque;
use std::sync::{Barrier, Mutex};

use ocin_core::ids::{FlowId, NodeId};
use ocin_core::interface::DeliveredPacket;
use ocin_core::network::{EnergyCounters, Network, PacketSpec};
use ocin_core::probe::NetworkProbe;
use ocin_core::reservation::StaticFlowSpec;
use ocin_core::{
    replay_logs, BoundaryMsg, CellEnergySnapshot, Error, LogEvent, LogProbe, NoProbe, PhasedProbe,
    ShardHandle,
};
use ocin_traffic::{MatrixGenerator, WorkloadGenerator};

use crate::runner::{assemble_report, MeasureAcc, RunTotals, SimReport, Simulation};

/// Reads the shard count from the `OCIN_SHARDS` environment variable
/// (default 1, i.e. sequential execution).
pub fn shards_from_env() -> usize {
    // The blessed entry point for the shard count: it only changes how
    // fast a result arrives, never the result (sharding is
    // bit-identical by construction), so it is exempt from the
    // config-purity rule.
    // ocin-lint: allow(env-read-outside-config) — speed knob, not config
    std::env::var("OCIN_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// A [`Simulation`] stepped across worker threads, bit-identical to the
/// sequential runner at any shard count.
pub struct ShardedSimulation {
    sim: Simulation,
    shards: usize,
}

impl ShardedSimulation {
    /// Wraps `sim` to run on `shards` worker threads (1 = run
    /// sequentially; clamped to the node count).
    pub fn new(sim: Simulation, shards: usize) -> ShardedSimulation {
        ShardedSimulation {
            sim,
            shards: shards.max(1),
        }
    }

    /// Wraps `sim` with the shard count taken from `OCIN_SHARDS`.
    pub fn from_env(sim: Simulation) -> ShardedSimulation {
        let shards = shards_from_env();
        ShardedSimulation::new(sim, shards)
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Mutable access to the network (e.g. for fault injection before
    /// running).
    pub fn network_mut(&mut self) -> &mut Network {
        self.sim.network_mut()
    }

    /// Runs warmup, measurement, and drain; returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the workload produces an unroutable packet or a worker
    /// thread panics — the same conditions that abort the sequential
    /// runner.
    pub fn run(&mut self) -> SimReport {
        if self.shards <= 1 {
            return self.sim.run();
        }
        let probed = self.sim.probe_cfg.is_some();
        if probed {
            self.run_sharded::<LogProbe>()
        } else {
            self.run_sharded::<NoProbe>()
        }
    }

    fn run_sharded<P: WorkerProbe>(&mut self) -> SimReport {
        let warm_end = self.sim.cfg.warmup_cycles;
        let meas_end = warm_end + self.sim.cfg.measure_cycles;
        let hard_end = meas_end + self.sim.cfg.drain_cycles;

        self.sim.net.set_shards(self.shards);
        let shards = self.sim.net.shards();
        let cfg = WorkerCfg {
            warm_end,
            meas_end,
            hard_end,
            window: self.sim.net.lookahead_window(),
            reservation_period: self.sim.reservation_period,
        };
        let ctx = SyncCtx::new(shards);
        let flows = &self.sim.flows;
        let generator = &self.sim.generator;
        let matrix = &self.sim.matrix;

        // Threads are borrowed from the executor seam (`exec.rs`), the
        // workspace's one sanctioned spawn site; results come back in
        // cell order regardless of finish order.
        let handles = self.sim.net.shard_handles();
        let mut outs: Vec<WorkerOut> = crate::exec::run_scoped(
            handles
                .into_iter()
                .map(|h| {
                    let ctx = &ctx;
                    let flows = flows.clone();
                    let generator = generator.clone();
                    let matrix = matrix.clone();
                    move || worker_loop::<P>(h, ctx, cfg, flows, generator, matrix)
                })
                .collect(),
        );

        let end_cycle = outs[0].end_cycle;
        self.sim.net.finish_sharded_run(end_cycle);

        let injected_packets: u64 = outs.iter().map(|o| o.injected_measured).sum();
        let unfinished_packets = outs[0].outstanding;
        let energy_start = sum_snaps(outs.iter().map(|o| o.warm_snap.as_ref())).unwrap_or_default();
        let mut energy_end =
            sum_snaps(outs.iter().map(|o| o.meas_snap.as_ref())).unwrap_or_default();
        if energy_end == EnergyCounters::default() {
            if let Some(e) = sum_snaps(outs.iter().map(|o| o.exit_snap.as_ref())) {
                energy_end = e;
            }
        }

        // Concatenating per-worker delivery logs in cell order and
        // stable-sorting by delivery cycle restores the sequential
        // collection order: within a cycle each worker's packets are
        // already node-ascending, and cells own ascending node ranges.
        let mut delivered: Vec<DeliveredPacket> = Vec::new();
        for o in &mut outs {
            delivered.append(&mut o.delivered);
        }
        delivered.sort_by_key(|p| p.delivered_at);
        let mut acc = MeasureAcc::default();
        for pkt in &delivered {
            acc.on_delivered(pkt, warm_end, meas_end);
        }

        let metrics = self.sim.probe_cfg.map(|pc| {
            let mut probe = NetworkProbe::for_network(self.sim.net.config(), pc);
            let logs: Vec<_> = outs.into_iter().map(|o| o.log).collect();
            replay_logs(&logs, &mut probe);
            probe.into_metrics(end_cycle)
        });

        assemble_report(
            &self.sim.net,
            &self.sim.cfg,
            self.sim.offered_rate,
            &mut acc,
            RunTotals {
                injected_packets,
                unfinished_packets,
                energy_start,
                energy_end,
            },
            metrics,
        )
    }
}

/// Worker-side probe plumbing: the probed engine records [`LogProbe`]
/// events for post-run replay; the unprobed engine records nothing.
trait WorkerProbe: PhasedProbe + Default + Send {
    const ENABLED: bool;
    fn into_log(self) -> Vec<LogEvent>;
}

impl WorkerProbe for NoProbe {
    const ENABLED: bool = false;
    fn into_log(self) -> Vec<LogEvent> {
        Vec::new()
    }
}

impl WorkerProbe for LogProbe {
    const ENABLED: bool = true;
    fn into_log(self) -> Vec<LogEvent> {
        self.into_events()
    }
}

/// Immutable per-run parameters copied into every worker.
#[derive(Debug, Clone, Copy)]
struct WorkerCfg {
    warm_end: u64,
    meas_end: u64,
    hard_end: u64,
    window: u64,
    reservation_period: u64,
}

/// Barrier-window synchronization state shared by all workers.
struct SyncCtx {
    barrier: Barrier,
    /// `mailboxes[dst][src]`: boundary messages from cell `src` to cell
    /// `dst`, in creation order. Each (src, dst) pair has its own slot,
    /// and the destination drains slots in source order, so application
    /// order is independent of thread scheduling.
    mailboxes: Vec<Vec<Mutex<Vec<BoundaryMsg>>>>,
    /// Per-worker, per-cycle (measured injections, measured deliveries)
    /// for the current window; every worker folds all tallies in cycle
    /// order to replicate the sequential exit counter exactly.
    tallies: Vec<Mutex<Vec<(u64, u64)>>>,
}

impl SyncCtx {
    fn new(shards: usize) -> SyncCtx {
        SyncCtx {
            barrier: Barrier::new(shards),
            mailboxes: (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            tallies: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }
}

/// What one worker hands back to the main thread.
struct WorkerOut {
    delivered: Vec<DeliveredPacket>,
    log: Vec<LogEvent>,
    injected_measured: u64,
    outstanding: u64,
    warm_snap: Option<CellEnergySnapshot>,
    meas_snap: Option<CellEnergySnapshot>,
    exit_snap: Option<CellEnergySnapshot>,
    end_cycle: u64,
}

fn worker_loop<P: WorkerProbe>(
    mut h: ShardHandle<'_>,
    ctx: &SyncCtx,
    cfg: WorkerCfg,
    flows: Vec<(FlowId, StaticFlowSpec)>,
    mut generator: Option<WorkloadGenerator>,
    mut matrix: Option<MatrixGenerator>,
) -> WorkerOut {
    let me = h.cell_index();
    let shards = ctx.tallies.len();
    let base = h.nodes().start;
    let owned: Vec<usize> = h.nodes().collect();
    let flows: Vec<_> = flows
        .into_iter()
        .filter(|(_, spec)| h.nodes().contains(&spec.src.index()))
        .collect();
    let mut pending: Vec<VecDeque<PacketSpec>> = vec![VecDeque::new(); owned.len()];
    let mut probe = P::default();
    let mut delivered = Vec::new();
    let mut injected_measured = 0u64;
    // Replica of the sequential `measured_outstanding` counter, rebuilt
    // each window from the shared tallies; identical on every worker.
    let mut outstanding = 0u64;
    let mut warm_snap = None;
    let mut meas_snap = None;
    let mut exit_snap = None;
    let mut window_tallies: Vec<(u64, u64)> = Vec::new();
    let mut now = 0u64;
    let end_cycle;
    loop {
        // Landmark snapshots happen at window starts: windows are
        // clipped at warm_end/meas_end below, so these cycles are never
        // interior to a window and the cell-local counters here match
        // what the sequential loop top would have observed.
        if now == cfg.warm_end {
            warm_snap = Some(h.energy_snapshot());
        }
        if now == cfg.meas_end {
            meas_snap = Some(h.energy_snapshot());
        }
        if now >= cfg.hard_end {
            end_cycle = now;
            break;
        }
        // After meas_end the sequential loop may exit on any cycle the
        // outstanding count hits zero, so drop to 1-cycle windows and
        // re-check at exactly the cadence it would.
        let mut wend = now + if now >= cfg.meas_end { 1 } else { cfg.window };
        for bound in [cfg.warm_end, cfg.meas_end, cfg.hard_end] {
            if now < bound {
                wend = wend.min(bound);
            }
        }

        for t in now..wend {
            probe.set_phase(t, 0);
            let mut inj = 0u64;
            let mut del = 0u64;
            if t < cfg.meas_end {
                for (id, spec) in &flows {
                    if t % cfg.reservation_period == spec.phase {
                        let ps = PacketSpec::new(spec.src, spec.dst)
                            .payload_bits(spec.payload_bits.max(1))
                            .flow(*id);
                        pending[spec.src.index() - base].push_back(ps);
                    }
                }
                if let Some(generation) = generator.as_mut() {
                    for &node in &owned {
                        if let Some(req) = generation.next_request(t, NodeId::new(node as u16)) {
                            pending[node - base].push_back(
                                PacketSpec::new(NodeId::new(node as u16), req.dst)
                                    .payload_bits(req.payload_bits)
                                    .class(req.class),
                            );
                        }
                    }
                }
                if let Some(m) = matrix.as_mut() {
                    for &node in &owned {
                        for req in m.requests_for(NodeId::new(node as u16)) {
                            pending[node - base].push_back(
                                PacketSpec::new(NodeId::new(node as u16), req.dst)
                                    .payload_bits(req.payload_bits)
                                    .class(req.class),
                            );
                        }
                    }
                }
            }
            let in_window = t >= cfg.warm_end && t < cfg.meas_end;
            for &node in &owned {
                let queue = &mut pending[node - base];
                while let Some(spec) = queue.front() {
                    match h.inject(spec, t, &mut probe) {
                        Ok(_) => {
                            queue.pop_front();
                            if in_window {
                                inj += 1;
                                injected_measured += 1;
                            }
                        }
                        Err(Error::InjectionBackpressure { .. }) => break,
                        Err(e) => panic!("workload produced an unroutable packet: {e}"),
                    }
                }
            }
            h.step_cycle(t, &mut probe, P::ENABLED);
            for &node in &owned {
                for pkt in h.drain_delivered(NodeId::new(node as u16)) {
                    if pkt.created_at >= cfg.warm_end && pkt.created_at < cfg.meas_end {
                        del += 1;
                    }
                    delivered.push(pkt);
                }
            }
            window_tallies.push((inj, del));
        }

        // Publish boundary messages and this window's tallies, then
        // wait for every cell to reach the window boundary.
        let mut grouped: Vec<Vec<BoundaryMsg>> = (0..shards).map(|_| Vec::new()).collect();
        for m in h.take_outbox() {
            grouped[m.dest_cell()].push(m);
        }
        for (dst, msgs) in grouped.into_iter().enumerate() {
            if !msgs.is_empty() {
                ctx.mailboxes[dst][me].lock().unwrap().extend(msgs);
            }
        }
        *ctx.tallies[me].lock().unwrap() = std::mem::take(&mut window_tallies);
        ctx.barrier.wait();

        // Apply inbound boundary traffic (source order fixes the
        // application order) and fold everyone's tallies, cycle by
        // cycle, into the replicated exit counter.
        for src in 0..shards {
            let msgs = std::mem::take(&mut *ctx.mailboxes[me][src].lock().unwrap());
            h.apply_boundary(msgs, wend - 1);
        }
        let cycles = (wend - now) as usize;
        let mut inj_sum = vec![0u64; cycles];
        let mut del_sum = vec![0u64; cycles];
        for w in 0..shards {
            let tw = ctx.tallies[w].lock().unwrap();
            for i in 0..cycles {
                inj_sum[i] += tw[i].0;
                del_sum[i] += tw[i].1;
            }
        }
        for i in 0..cycles {
            outstanding = (outstanding + inj_sum[i]).saturating_sub(del_sum[i]);
        }
        let exit = wend >= cfg.hard_end || (wend >= cfg.meas_end && outstanding == 0);
        if exit {
            exit_snap = Some(h.energy_snapshot());
        }
        // Second barrier: nobody may start writing the next window's
        // mailboxes or tallies while a peer is still reading this one's.
        ctx.barrier.wait();
        if exit {
            end_cycle = wend;
            break;
        }
        now = wend;
    }

    WorkerOut {
        delivered,
        log: probe.into_log(),
        injected_measured,
        outstanding,
        warm_snap,
        meas_snap,
        exit_snap,
        end_cycle,
    }
}

/// Sums cell snapshots in cell order into one [`EnergyCounters`],
/// reproducing the float-accumulation order of the sequential
/// `NetworkStats::energy`. Returns `None` if any cell has no snapshot
/// (the landmark cycle was never reached).
fn sum_snaps<'a>(
    snaps: impl Iterator<Item = Option<&'a CellEnergySnapshot>>,
) -> Option<EnergyCounters> {
    let mut e = EnergyCounters::default();
    for s in snaps {
        let s = s?;
        e.flit_hops += s.flit_hops;
        e.hop_bits += s.hop_bits;
        e.link_flits += s.link_flits;
        for &bp in &s.bit_pitches {
            e.link_bit_pitches += bp;
        }
    }
    Some(e)
}
