//! Deterministic windowed execution of one simulation run.
//!
//! Every [`Simulation::run`] and [`ShardedSimulation::run`] goes through
//! the one driver here. It cuts the network into contiguous tile-region
//! cells ([`Network::shard_handles`]; one cell unless sharded) and steps
//! each cell with the same worker loop, which offers, injects, steps and
//! drains. The cells stay cut after the run until a later
//! [`Network::step`] merges them back. Synchronization is
//! conservative: every channel has at least one cycle of latency, so
//! each cell can step a lookahead window of
//! [`Network::lookahead_window`] cycles before any boundary flit or
//! credit created by a neighbour could possibly arrive. At each window
//! boundary the cells exchange boundary messages through per-pair
//! mailboxes and agree on the harness exit condition via per-cycle
//! injection/delivery tallies, then continue.
//!
//! # Measurement and threads
//!
//! Each cell folds its own deliveries into a cell-local measurement
//! (`MeasureAcc`). Its exact latency histograms give the same report in
//! any feed order, so the cells' accumulators are merged once, after
//! the run, and an unprobed run hands nothing to the calling thread: it
//! steps the first cell there and gives every other cell a scoped
//! worker ([`crate::exec::run_with`]). A probed run gives every cell a
//! scoped worker and replays their probe events on the calling thread
//! while they step on.
//!
//! # Streamed probe events
//!
//! A probed worker keeps no events for the whole run. It buffers those
//! of the cycles since its last hand-off, and at a window boundary it
//! hands them to the coordinator on the calling thread. All cells cut at
//! the same boundaries: each publishes its buffered count with its
//! window tallies, and every cell cuts once the counts sum to
//! `HANDOFF_ITEMS` (and always at exit), so a round of hand-offs covers
//! the same cycles in every cell. Hand-offs travel over a bounded
//! channel (`HANDOFFS_IN_FLIGHT` deep) and their buffers come back
//! emptied for reuse, so a run holds a constant number of buffers per
//! cell however long it runs.
//!
//! # Determinism
//!
//! The result is the same [`SimReport`], the same probe metrics and the
//! same journey exports at any shard count, regardless of thread
//! scheduling. Every source of nondeterminism is removed structurally
//! rather than tolerated:
//!
//! * workload draws come from per-node (and per-matrix-row) RNG
//!   streams, so each worker's cloned generator reproduces exactly the
//!   draws one generator would have made for its nodes;
//! * each cell records its deliveries in exact latency histograms,
//!   whose counts, sums, extremes and percentiles do not depend on the
//!   order the samples came in, and the cells' histograms are merged
//!   after the run;
//! * each round's probe events are merged into the one-cell order by
//!   [`replay_logs`] and fed to one [`NetworkProbe`];
//! * the measured-outstanding exit counter is replicated on every
//!   worker from the shared per-cycle tallies, so all workers take the
//!   same exit decision on the same cycle;
//! * energy-counter landmarks are cell-local snapshots summed in cell
//!   order, reproducing the one-cell float-accumulation order.
//!
//! # Failure
//!
//! A worker that stops early — by panicking, or because the coordinator
//! has gone — breaks the window barrier on its way out, so its peers
//! stop too instead of waiting for it; the run then panics with the
//! failing worker's own message ([`crate::exec::run_with`], which joins
//! every spawned worker and resumes the first panic in worker order). A
//! worker on the calling thread unwinds straight through the caller.
//!
//! See DESIGN.md §3.15 for the lookahead-window argument.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use ocin_core::ids::{FlowId, NodeId};
use ocin_core::network::{EnergyCounters, Network, PacketSpec};
use ocin_core::probe::NetworkProbe;
use ocin_core::reservation::StaticFlowSpec;
use ocin_core::{
    replay_logs, BoundaryMsg, CellEnergySnapshot, Error, LogEvent, LogProbe, NoProbe, PhasedProbe,
    ShardHandle,
};
use ocin_traffic::{MatrixGenerator, WorkloadGenerator};

use crate::runner::{assemble_report, MeasureAcc, RunTotals, SimReport, Simulation};

/// Probe events buffered across all cells at which every cell hands its
/// events to the coordinator (checked at window boundaries).
const HANDOFF_ITEMS: usize = 4_096;

/// Hand-offs a cell may have queued for the coordinator before it waits.
const HANDOFFS_IN_FLIGHT: usize = 2;

/// A [`Simulation`] stepped across worker threads, bit-identical to
/// [`Simulation::run`] at any shard count.
pub struct ShardedSimulation {
    sim: Simulation,
    shards: usize,
}

impl ShardedSimulation {
    /// Wraps `sim` to run on `shards` worker threads (1 = as
    /// [`Simulation::run`]; clamped to the node count).
    pub fn new(sim: Simulation, shards: usize) -> ShardedSimulation {
        ShardedSimulation {
            sim,
            shards: shards.max(1),
        }
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
    /// Panics if the workload produces an unroutable packet, with the
    /// failing worker's message.
    pub fn run(&mut self) -> SimReport {
        run_windowed(&mut self.sim, self.shards)
    }
}

/// Runs `sim` through the windowed runner on `shards` cells. Unprobed,
/// the calling thread steps the first cell and a scoped worker each
/// other one; probed, every cell gets a scoped worker and the calling
/// thread replays their streamed events.
pub(crate) fn run_windowed(sim: &mut Simulation, shards: usize) -> SimReport {
    if sim.probe_cfg.is_some() {
        drive::<LogProbe>(sim, shards)
    } else {
        drive::<NoProbe>(sim, shards)
    }
}

fn drive<P: WorkerProbe>(sim: &mut Simulation, shards: usize) -> SimReport {
    let warm_end = sim.cfg.warmup_cycles;
    let meas_end = warm_end + sim.cfg.measure_cycles;
    let hard_end = meas_end + sim.cfg.drain_cycles;

    let cfg = WorkerCfg {
        start: sim.net.cycle(),
        warm_end,
        meas_end,
        hard_end,
        window: sim.net.lookahead_window(),
        reservation_period: sim.reservation_period,
    };
    let mut probe = sim
        .probe_cfg
        .map(|pc| NetworkProbe::for_network(sim.net.config(), pc));
    let offered_rate = sim.offered_rate();
    let (flows, generator, matrix) = (&sim.flows, &sim.generator, &sim.matrix);
    let handles = sim.net.shard_handles(shards);
    let cells = handles.len();
    let ctx = SyncCtx::new(cells);
    let worker = |h, link: Option<CellLink>| {
        let ctx = &ctx;
        let (flows, generator, matrix) = (flows.clone(), generator.clone(), matrix.clone());
        move || worker_loop::<P>(h, ctx, cfg, flows, generator, matrix, link)
    };

    // Threads are borrowed from the executor seam (`exec.rs`), the
    // workspace's one sanctioned spawn site; worker results come back in
    // cell order regardless of finish order.
    let outs = match probe.as_mut() {
        // The calling thread steps the first cell rather than wait in
        // the join. A two-cell run then spawns one worker, which glibc
        // gives the arena the previous run's worker released: two
        // workers would take the two released arenas in whichever
        // order the previous pair exited, and each would run on the
        // other's leftover heap.
        None => {
            let mut workers = handles.into_iter().map(|h| worker(h, None));
            let first = workers.next().expect("a network has at least one cell");
            let (rest, first) = crate::exec::run_with(workers.collect(), first);
            std::iter::once(first).chain(rest).collect()
        }
        Some(probe) => {
            let (to_coord, from_cells): (Vec<_>, Vec<_>) =
                (0..cells).map(|_| sync_channel(HANDOFFS_IN_FLIGHT)).unzip();
            let (spares_back, spares): (Vec<_>, Vec<_>) = (0..cells).map(|_| channel()).unzip();
            let workers = handles
                .into_iter()
                .zip(to_coord.into_iter().zip(spares))
                .map(|(h, (to_coord, spares))| worker(h, Some(CellLink { to_coord, spares })))
                .collect();
            // The coordinator owns the receiving ends: however it
            // returns, they drop with it, which releases any worker
            // still waiting to send.
            let (outs, collected) =
                crate::exec::run_with(workers, move || collect(&from_cells, &spares_back, probe));
            collected.expect("the coordinator saw every hand-off");
            outs
        }
    };
    // A cell stops early only after a peer panicked, and the executor
    // has already resumed that panic.
    let outs: Vec<WorkerOut> = outs
        .into_iter()
        .collect::<Option<_>>()
        .expect("every cell ran to the end");

    let end_cycle = outs[0].end_cycle;
    sim.net.finish_sharded_run(end_cycle);

    let mut acc = MeasureAcc::new(warm_end, meas_end, hard_end);
    for o in &outs {
        acc.merge(&o.acc);
    }
    let injected_packets: u64 = outs.iter().map(|o| o.injected_measured).sum();
    let unfinished_packets = outs[0].outstanding;
    let energy_start = sum_snaps(outs.iter().map(|o| o.warm_snap.as_ref())).unwrap_or_default();
    let mut energy_end = sum_snaps(outs.iter().map(|o| o.meas_snap.as_ref())).unwrap_or_default();
    if energy_end == EnergyCounters::default() {
        if let Some(e) = sum_snaps(outs.iter().map(|o| o.exit_snap.as_ref())) {
            energy_end = e;
        }
    }

    assemble_report(
        &sim.net,
        &sim.cfg,
        offered_rate,
        &acc,
        RunTotals {
            injected_packets,
            unfinished_packets,
            energy_start,
            energy_end,
        },
        probe.map(|p| p.into_metrics(end_cycle)),
    )
}

/// The calling thread's side of a probed run. Takes one hand-off from
/// every cell per round, replays the round's events into `probe` in
/// one-cell order, then sends the emptied buffers back. Returns `None`
/// if a cell stopped before its last hand-off.
fn collect(
    from_cells: &[Receiver<Handoff>],
    spares_back: &[Sender<Handoff>],
    probe: &mut NetworkProbe,
) -> Option<()> {
    let mut round: Vec<Handoff> = Vec::with_capacity(from_cells.len());
    loop {
        for cell in from_cells {
            round.push(cell.recv().ok()?);
        }
        replay_logs(&round, probe);
        let last = round[0].last;
        for (mut h, back) in round.drain(..).zip(spares_back) {
            h.events.clear();
            // A cell that already finished no longer needs its spares.
            let _ = back.send(h);
        }
        if last {
            return Some(());
        }
    }
}

/// Worker-side probe plumbing: the probed engine records [`LogProbe`]
/// events for the coordinator; the unprobed engine records nothing.
trait WorkerProbe: PhasedProbe + Default + Send {
    const ENABLED: bool;
    /// Events recorded since the last hand-off.
    fn buffered(&self) -> usize;
    /// Exchanges the recorded events with `buf` (see
    /// [`LogProbe::swap_events`]).
    fn swap_log(&mut self, buf: &mut Vec<LogEvent>);
}

impl WorkerProbe for NoProbe {
    const ENABLED: bool = false;
    fn buffered(&self) -> usize {
        0
    }
    fn swap_log(&mut self, _buf: &mut Vec<LogEvent>) {}
}

impl WorkerProbe for LogProbe {
    const ENABLED: bool = true;
    fn buffered(&self) -> usize {
        self.len()
    }
    fn swap_log(&mut self, buf: &mut Vec<LogEvent>) {
        self.swap_events(buf);
    }
}

/// One cell's probe events for the cycles since its previous hand-off.
#[derive(Default)]
struct Handoff {
    events: Vec<LogEvent>,
    /// The run ends with this round.
    last: bool,
}

impl AsRef<[LogEvent]> for Handoff {
    fn as_ref(&self) -> &[LogEvent] {
        &self.events
    }
}

/// A probed worker's two channels to the coordinator.
struct CellLink {
    to_coord: SyncSender<Handoff>,
    /// Emptied buffers coming back for reuse.
    spares: Receiver<Handoff>,
}

/// Passes the cell's buffered events to the coordinator, if the run is
/// probed, and leaves the worker recording into an empty buffer (a
/// recycled one unless every earlier buffer is still in flight).
/// `None` if the coordinator has gone.
fn hand_off<P: WorkerProbe>(link: &mut Option<CellLink>, probe: &mut P, last: bool) -> Option<()> {
    let Some(link) = link else {
        return Some(());
    };
    let mut out = link.spares.try_recv().unwrap_or_default();
    probe.swap_log(&mut out.events);
    out.last = last;
    link.to_coord.send(out).ok()
}

/// Immutable per-run parameters copied into every worker.
#[derive(Debug, Clone, Copy)]
struct WorkerCfg {
    start: u64,
    warm_end: u64,
    meas_end: u64,
    hard_end: u64,
    window: u64,
    reservation_period: u64,
}

/// Barrier-window synchronization state shared by all workers.
struct SyncCtx {
    barrier: WindowBarrier,
    /// `mailboxes[dst][src]`: boundary messages from cell `src` to cell
    /// `dst`, in creation order. Each (src, dst) pair has its own slot,
    /// and the destination drains slots in source order, so application
    /// order is independent of thread scheduling.
    mailboxes: Vec<Vec<Mutex<Vec<BoundaryMsg>>>>,
    /// What each worker published for the current window.
    posts: Vec<Mutex<WindowPost>>,
}

impl SyncCtx {
    fn new(shards: usize) -> SyncCtx {
        SyncCtx {
            barrier: WindowBarrier::new(shards),
            mailboxes: (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            posts: (0..shards).map(|_| Mutex::default()).collect(),
        }
    }
}

/// One worker's window summary, read by every worker after the barrier.
#[derive(Default)]
struct WindowPost {
    /// Per-cycle (measured injections, measured deliveries); every
    /// worker folds all tallies in cycle order into the same exit
    /// counter.
    tallies: Vec<(u64, u64)>,
    /// Probe events waiting for the next hand-off.
    buffered: usize,
}

/// Locks `m`, ignoring poison: a worker that panicked holding a lock
/// has also broken the barrier, and its peers only read on their way
/// out.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A reusable barrier that a stopping worker can break, so its peers
/// stop waiting for a cell that will never arrive.
struct WindowBarrier {
    parties: usize,
    state: Mutex<BarrierState>,
    turn: Condvar,
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    broken: bool,
}

/// A peer stopped before reaching the barrier.
struct Broken;

impl WindowBarrier {
    fn new(parties: usize) -> WindowBarrier {
        WindowBarrier {
            parties,
            state: Mutex::default(),
            turn: Condvar::new(),
        }
    }

    /// Waits until every party has arrived, or until one breaks the
    /// barrier.
    fn wait(&self) -> Result<(), Broken> {
        if self.parties == 1 {
            return Ok(());
        }
        let mut s = lock(&self.state);
        if s.broken {
            return Err(Broken);
        }
        let generation = s.generation;
        s.arrived += 1;
        if s.arrived == self.parties {
            s.arrived = 0;
            s.generation += 1;
            self.turn.notify_all();
            return Ok(());
        }
        while s.generation == generation && !s.broken {
            s = self.turn.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        if s.generation == generation {
            Err(Broken)
        } else {
            Ok(())
        }
    }

    /// Wakes every waiter with [`Broken`] and fails every later wait.
    fn break_all(&self) {
        lock(&self.state).broken = true;
        self.turn.notify_all();
    }
}

/// Breaks the window barrier when its worker returns or unwinds. After a
/// normal exit no peer waits again, so breaking is harmless there.
struct BreakOnDrop<'a>(&'a WindowBarrier);

impl Drop for BreakOnDrop<'_> {
    fn drop(&mut self) {
        self.0.break_all();
    }
}

/// What one worker hands back to the main thread at the end of the run.
struct WorkerOut {
    /// The cell's own deliveries, measured.
    acc: MeasureAcc,
    injected_measured: u64,
    outstanding: u64,
    warm_snap: Option<CellEnergySnapshot>,
    meas_snap: Option<CellEnergySnapshot>,
    exit_snap: Option<CellEnergySnapshot>,
    end_cycle: u64,
}

/// Steps one cell window by window. Returns `None` if a peer or the
/// coordinator stopped first.
fn worker_loop<P: WorkerProbe>(
    mut h: ShardHandle<'_>,
    ctx: &SyncCtx,
    cfg: WorkerCfg,
    flows: Vec<(FlowId, StaticFlowSpec)>,
    mut generator: Option<WorkloadGenerator>,
    mut matrix: Option<MatrixGenerator>,
    mut link: Option<CellLink>,
) -> Option<WorkerOut> {
    let _stop = BreakOnDrop(&ctx.barrier);
    let me = h.cell_index();
    let shards = ctx.posts.len();
    let base = h.nodes().start;
    let owned: Vec<usize> = h.nodes().collect();
    let flows: Vec<_> = flows
        .into_iter()
        .filter(|(_, spec)| h.nodes().contains(&spec.src.index()))
        .collect();
    // Per-node source queues of offered packets the tile port has not
    // yet accepted: unbounded, so offered load holds past saturation.
    let mut pending: Vec<VecDeque<PacketSpec>> = vec![VecDeque::new(); owned.len()];
    let mut probe = P::default();
    let mut acc = MeasureAcc::new(cfg.warm_end, cfg.meas_end, cfg.hard_end);
    // One cycle's deliveries, folded into `acc` and cleared at once.
    let mut delivered = Vec::new();
    let mut injected_measured = 0u64;
    // Measured packets injected but not yet delivered, rebuilt each
    // window from the shared tallies; identical on every worker.
    let mut outstanding = 0u64;
    let mut warm_snap = None;
    let mut meas_snap = None;
    let mut exit_snap = None;
    // Per-window scratch, reused so a window allocates nothing.
    let mut window_tallies: Vec<(u64, u64)> = Vec::new();
    let mut sums: Vec<(u64, u64)> = Vec::new();
    let mut outbound: Vec<Vec<BoundaryMsg>> = (0..shards).map(|_| Vec::new()).collect();
    let mut now = cfg.start;
    let end_cycle;
    loop {
        // Landmark snapshots happen at window starts: windows are
        // clipped at warm_end/meas_end below, so these cycles are never
        // interior to a window and the cell-local counters here are the
        // ones at the top of the landmark cycle.
        if now == cfg.warm_end {
            warm_snap = Some(h.energy_snapshot());
        }
        if now == cfg.meas_end {
            meas_snap = Some(h.energy_snapshot());
        }
        if now >= cfg.hard_end {
            // Only a run started at or past its end gets here: later
            // windows end at hard_end at the latest and exit below.
            hand_off(&mut link, &mut probe, true)?;
            end_cycle = now;
            break;
        }
        // After meas_end the run exits on the first cycle the
        // outstanding count hits zero, so drop to 1-cycle windows and
        // re-check every cycle.
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
                h.drain_delivered_into(NodeId::new(node as u16), &mut delivered);
            }
            for pkt in delivered.drain(..) {
                if acc.on_delivered(&pkt) {
                    del += 1;
                }
            }
            window_tallies.push((inj, del));
        }

        // Publish boundary messages, this window's tallies and the
        // buffered count, then wait for every cell to reach the window
        // boundary.
        h.route_outbox(&mut outbound);
        for (dst, msgs) in outbound.iter_mut().enumerate() {
            if !msgs.is_empty() {
                lock(&ctx.mailboxes[dst][me]).append(msgs);
            }
        }
        {
            let mut post = lock(&ctx.posts[me]);
            std::mem::swap(&mut post.tallies, &mut window_tallies);
            post.buffered = probe.buffered();
        }
        window_tallies.clear();
        ctx.barrier.wait().ok()?;

        // Apply inbound boundary traffic (source order fixes the
        // application order) and fold everyone's tallies, cycle by
        // cycle, into the replicated exit counter. Every worker reads
        // the same posts, so all agree on whether to hand off.
        for src in 0..shards {
            h.apply_boundary(lock(&ctx.mailboxes[me][src]).drain(..), wend - 1);
        }
        sums.clear();
        sums.resize((wend - now) as usize, (0, 0));
        let mut buffered = 0;
        for post in &ctx.posts {
            let post = lock(post);
            buffered += post.buffered;
            for (sum, &(inj, del)) in sums.iter_mut().zip(&post.tallies) {
                sum.0 += inj;
                sum.1 += del;
            }
        }
        for &(inj, del) in &sums {
            outstanding = (outstanding + inj).saturating_sub(del);
        }
        let cut = buffered >= HANDOFF_ITEMS;
        let exit = wend >= cfg.hard_end || (wend >= cfg.meas_end && outstanding == 0);
        if exit {
            exit_snap = Some(h.energy_snapshot());
        }
        // Second barrier: nobody may start writing the next window's
        // mailboxes or posts while a peer is still reading this one's.
        ctx.barrier.wait().ok()?;
        if cut || exit {
            hand_off(&mut link, &mut probe, exit)?;
        }
        if exit {
            end_cycle = wend;
            break;
        }
        now = wend;
    }

    Some(WorkerOut {
        acc,
        injected_measured,
        outstanding,
        warm_snap,
        meas_snap,
        exit_snap,
        end_cycle,
    })
}

/// Sums cell snapshots in cell order into one [`EnergyCounters`],
/// reproducing the float-accumulation order of the one-cell
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
