//! Deterministic two-level execution: point-parallel heads,
//! shard-parallel tails.
//!
//! A batch of independent points reaches this module from
//! [`crate::pool::SimPool`], and `run_batch` decides how each runs.
//! One fixed worker count is shared two ways: between points evaluated
//! side by side, and between the shards ([`crate::shard::ShardedSimulation`])
//! of one point's network. Every queued point gets a *shard budget*,
//! `1` while the runnable-point count covers the workers and rising as
//! the queue drains, so sweep heads run point-parallel and tails (a
//! sweep's last point, a saturation bracket of two probes, a lone
//! k = 32 run) run shard-parallel. Callers never set a budget: a point
//! describes what it simulates, and the pool decides how it runs.
//!
//! # Wave plan
//!
//! A batch of `n` points on `W` workers is executed as a sequence of
//! *waves*. Each wave takes the next `width = min(remaining, W)` points in
//! input order and gives every point in the wave the same base budget: the
//! largest power of two `b` with `width * b <= W`. The per-point shard
//! count is then `min(b, max_useful_shards(point))`, capped so tiny
//! networks are never split into degenerate cells. The plan is a pure
//! function of `(W, batch shapes)`: no timing, no work stealing, no
//! dependence on completion order.
//!
//! Taking the power-of-two *floor* of `W / width` (rather than the
//! `next_pow2(idle)` ceiling) means a wave never oversubscribes: at most
//! `W` simulation threads are ever live, so budgets describe real cores
//! and wall-clock predictions stay honest.
//!
//! # Determinism
//!
//! Three facts make the plan bit-transparent:
//!
//! * seeds derive from `(base, load)` only ([`crate::pool::derive_seed`]),
//!   never from scheduling;
//! * the shard count is excluded from the memo key and proven
//!   byte-identical at any value (`tests/shard_equiv.rs`), so the budget
//!   decision can change only wall-clock, never a result;
//! * wave results are folded back in point order ([`run_scoped`] returns
//!   task order), regardless of finish order.
//!
//! # Thread-spawn seam
//!
//! This module is the **only** sanctioned `thread::scope` site in the
//! workspace (enforced by ocin-lint's `raw-thread-spawn` rule):
//! [`run_scoped`] executes a finished set of tasks, and [`run_with`] runs
//! persistent workers alongside a coordinator on the calling thread
//! (used by the windowed runner in [`crate::shard`], whose coordinator
//! steps an unprobed run's first cell or replays a probed run's streamed
//! events). `SimPool` and every threaded run — probed, or of several
//! cells — borrow their threads from here; an unprobed one-cell run
//! steps on the calling thread.

use crate::pool::PointSpec;
use crate::sweep::LoadPoint;

/// Runs every task on its own scoped thread and returns the results in
/// **task order** (never completion order). A single task runs inline on
/// the calling thread; an empty set returns immediately.
///
/// This is the workspace's shared spawn primitive — new parallel code
/// should pass closures here rather than open another `thread::scope`.
///
/// # Panics
///
/// Resumes the panic of the first task (in task order) that panicked,
/// with its own payload, once every task has finished.
pub fn run_scoped<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    match tasks.len() {
        0 => Vec::new(),
        1 => {
            let task = tasks.into_iter().next().expect("length checked");
            vec![task()]
        }
        _ => std::thread::scope(|s| join_all(tasks.into_iter().map(|f| s.spawn(f)).collect())),
    }
}

/// Spawns `workers` on scoped threads, runs `coordinator` on the calling
/// thread, and joins everything: returns `(worker results in task order,
/// coordinator result)`. The coordinator is responsible for telling the
/// workers to finish (via whatever shared protocol the caller set up)
/// before it returns, or the scope will never close; a coordinator that
/// returns early because a worker died must leave its peers a way out
/// too.
///
/// # Panics
///
/// Resumes the panic of the first worker (in task order) that panicked,
/// with its own payload, once every worker has finished; a panicking
/// coordinator's panic propagates after the workers finish.
pub fn run_with<T, R, F, M>(workers: Vec<F>, coordinator: M) -> (Vec<T>, R)
where
    T: Send,
    F: FnOnce() -> T + Send,
    M: FnOnce() -> R,
{
    std::thread::scope(|s| {
        let joins: Vec<_> = workers.into_iter().map(|f| s.spawn(f)).collect();
        let out = coordinator();
        (join_all(joins), out)
    })
}

/// Joins every thread, then returns their results in task order, or
/// resumes the first panic in task order with its original payload, so
/// the caller sees the failing task's own message.
fn join_all<T>(joins: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let joined: Vec<_> = joins
        .into_iter()
        .map(std::thread::ScopedJoinHandle::join)
        .collect();
    joined
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// The largest shard count worth giving a network of `num_nodes` nodes.
///
/// Sharding splits rows across cells; below ~64 nodes per cell the
/// barrier and mailbox overhead outweighs the stepping work (measured in
/// EXPERIMENTS.md's shard-scaling table), so the executor never splits
/// finer. k = 4 (16 nodes) stays sequential, k = 16 (256) caps at 4,
/// k = 32 (1024) caps at 16.
pub fn max_useful_shards(num_nodes: usize) -> usize {
    (num_nodes / 64).max(1)
}

/// One scheduling decision: the wave a point ran in and the shard budget
/// it received. Reported per batch by `SimPool::exec_summary_json` so
/// benchmark artifacts record exactly how a run used its cores.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecDecision {
    /// Wave index within the batch (waves execute in order).
    pub wave: usize,
    /// The point's offered load — enough to identify it within a batch.
    pub load: f64,
    /// Worker threads the point's run was split across.
    pub shards: usize,
}

/// The shape of a queued point, as much of [`PointSpec`] as the planner
/// needs: its load (for the decision record) and its network size (for
/// the useful-shards cap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PointShape {
    /// Offered load, copied into the [`ExecDecision`].
    load: f64,
    /// Nodes in the point's network.
    num_nodes: usize,
}

impl PointShape {
    fn of(spec: &PointSpec) -> PointShape {
        PointShape {
            load: spec.load,
            num_nodes: spec.net_cfg.topology.num_nodes(),
        }
    }
}

/// Plans a batch on `workers` threads: assigns every point (in input
/// order) a wave and a shard budget. Pure — same shapes and worker
/// count, same plan.
pub(crate) fn plan(workers: usize, shapes: &[PointShape]) -> Vec<ExecDecision> {
    let mut plan = Vec::with_capacity(shapes.len());
    let mut next = 0;
    let mut wave = 0;
    while next < shapes.len() {
        let width = (shapes.len() - next).min(workers);
        // Largest power of two b with width * b <= workers: the wave
        // never oversubscribes the worker set.
        let mut budget = 1;
        while width * budget * 2 <= workers {
            budget *= 2;
        }
        for shape in &shapes[next..next + width] {
            plan.push(ExecDecision {
                wave,
                load: shape.load,
                shards: budget.min(max_useful_shards(shape.num_nodes)),
            });
        }
        next += width;
        wave += 1;
    }
    plan
}

/// Evaluates a batch on `workers` threads, wave by wave, and returns
/// `(points in input order, the plan that produced them)`. Results are
/// bit-identical to evaluating every spec serially with
/// `PointSpec::evaluate`.
///
/// # Panics
///
/// Panics if a spec's configuration is invalid or a worker panics.
pub(crate) fn run_batch(
    workers: usize,
    specs: &[&PointSpec],
) -> (Vec<LoadPoint>, Vec<ExecDecision>) {
    let shapes: Vec<PointShape> = specs.iter().map(|s| PointShape::of(s)).collect();
    let plan = plan(workers, &shapes);
    let mut points = Vec::with_capacity(specs.len());
    for wave in plan.chunk_by(|a, b| a.wave == b.wave) {
        let tasks: Vec<_> = specs[points.len()..points.len() + wave.len()]
            .iter()
            .zip(wave)
            .map(|(&spec, d)| move || spec.evaluate_sharded(d.shards))
            .collect();
        points.extend(run_scoped(tasks));
    }
    (points, plan)
}

/// Renders a batch's decisions as one deterministic JSON array (used
/// by `SimPool::exec_summary_json`).
pub(crate) fn decisions_json(decisions: &[ExecDecision]) -> String {
    let rows: Vec<String> = decisions
        .iter()
        .map(|d| {
            format!(
                "{{\"wave\":{},\"load\":{:.6},\"shards\":{}}}",
                d.wave, d.load, d.shards
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(load: f64, num_nodes: usize) -> PointShape {
        PointShape { load, num_nodes }
    }

    #[test]
    fn head_runs_point_parallel() {
        let shapes: Vec<PointShape> = (0..8).map(|i| shape(i as f64 * 0.1, 1024)).collect();
        let plan = plan(4, &shapes);
        // Two full waves of 4, budget 1 each.
        assert!(plan[..4].iter().all(|d| d.wave == 0 && d.shards == 1));
        assert!(plan[4..].iter().all(|d| d.wave == 1 && d.shards == 1));
    }

    #[test]
    fn tail_runs_shard_parallel() {
        // 9 points: wave 0 is 8 wide at budget 1, wave 1 is the lone
        // tail point at budget 8 (capped by usefulness to 8 for k=32).
        let shapes: Vec<PointShape> = (0..9).map(|i| shape(i as f64 * 0.1, 1024)).collect();
        let plan = plan(8, &shapes);
        assert_eq!(plan[8].wave, 1);
        assert_eq!(plan[8].shards, 8);
    }

    #[test]
    fn budget_is_pow2_floor_never_oversubscribed() {
        // 3 points on 8 workers: pow2 floor of 8/3 is 2, total 6 <= 8.
        let shapes: Vec<PointShape> = (0..3).map(|i| shape(i as f64 * 0.1, 1024)).collect();
        let plan = plan(8, &shapes);
        assert!(plan.iter().all(|d| d.wave == 0 && d.shards == 2));
    }

    #[test]
    fn small_networks_stay_sequential() {
        // A lone k=4 point: 16 idle workers, but 16 nodes are not worth
        // splitting — max_useful_shards caps the budget at 1.
        assert_eq!(plan(16, &[shape(0.1, 16)])[0].shards, 1);
        // k=16 caps at 4, k=32 at 16.
        assert_eq!(plan(16, &[shape(0.1, 256)])[0].shards, 4);
        assert_eq!(plan(16, &[shape(0.1, 1024)])[0].shards, 16);
    }

    #[test]
    fn plan_is_deterministic() {
        let shapes: Vec<PointShape> = (0..7).map(|i| shape(i as f64 * 0.05, 256)).collect();
        assert_eq!(plan(6, &shapes), plan(6, &shapes));
    }

    #[test]
    fn run_scoped_preserves_task_order() {
        let tasks: Vec<_> = (0..5)
            .map(|i| {
                move || {
                    // Later tasks finish sooner; order must still hold.
                    std::thread::sleep(std::time::Duration::from_millis(5 - i));
                    i
                }
            })
            .collect();
        assert_eq!(run_scoped(tasks), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_with_joins_workers_and_coordinator() {
        let flag = std::sync::atomic::AtomicUsize::new(0);
        let (results, main) = run_with(
            (0..3)
                .map(|i| {
                    let flag = &flag;
                    move || {
                        flag.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        i * 2
                    }
                })
                .collect(),
            || 99,
        );
        assert_eq!(results, vec![0, 2, 4]);
        assert_eq!(main, 99);
        assert_eq!(flag.load(std::sync::atomic::Ordering::SeqCst), 3);
    }

    #[test]
    fn decisions_render_deterministically() {
        let d = vec![
            ExecDecision {
                wave: 0,
                load: 0.05,
                shards: 1,
            },
            ExecDecision {
                wave: 1,
                load: 0.1,
                shards: 4,
            },
        ];
        assert_eq!(
            decisions_json(&d),
            "[{\"wave\":0,\"load\":0.050000,\"shards\":1},{\"wave\":1,\"load\":0.100000,\"shards\":4}]"
        );
    }
}
