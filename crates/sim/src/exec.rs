//! Deterministic two-level execution: point-parallel batches,
//! shard-parallel stragglers.
//!
//! A batch of independent points reaches this module from
//! [`crate::pool::SimPool`], and `run_batch` decides how each runs.
//! One fixed worker count is shared two ways: between points evaluated
//! side by side, and between the shards ([`crate::shard::ShardedSimulation`])
//! of one point's network. Every point of a batch gets a *shard budget*:
//! `1` when the batch covers the workers, more when it leaves some idle,
//! so a sweep runs point-parallel while a short batch (a saturation
//! bracket of two probes, a lone k = 32 run) runs shard-parallel.
//! Callers never set a budget: a point describes what it simulates, and
//! the pool decides how it runs.
//!
//! # Point queue
//!
//! A batch of `n` points on `W` workers spawns `threads = min(n, W)`
//! scoped workers once. Every worker repeatedly takes the next point
//! from a shared counter over one *dispatch order*: descending cost
//! estimate `num_nodes × load`, ties in input order. The longest points
//! start first and the short ones fill in around them, so no worker
//! waits for a slow peer while points remain. Every point gets the same
//! budget: the largest power of two `b` with `threads × b <= W`, capped
//! by `max_useful_shards(point)` so tiny networks are never split into
//! degenerate cells. The plan (threads, dispatch order, budgets) is a
//! pure function of `(W, batch shapes)`. Which worker runs a point
//! depends on timing; its result and the recorded decision do not.
//!
//! Taking the power-of-two *floor* of `W / threads` (rather than the
//! `next_pow2(idle)` ceiling) means a batch never oversubscribes: at
//! most `W` shard threads are ever live, so budgets describe real cores
//! and wall-clock predictions stay honest. A probed run also replays its
//! events on the thread that runs it, which this count leaves out.
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
//! * results are put back in input order, regardless of dispatch or
//!   finish order.
//!
//! # Failure
//!
//! A point that panics stops the other workers from taking new points;
//! once every worker has finished its current point, the batch resumes
//! the panic of the earliest failed point in input order, with its own
//! payload.
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

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// One scheduling decision: the dispatch round a point started in and
/// the shard budget it received. Reported per batch by
/// `SimPool::exec_summary_json` so benchmark artifacts record exactly
/// how a run used its cores.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecDecision {
    /// Dispatch round within the batch: the point's rank in the dispatch
    /// order divided by the batch's worker threads.
    pub wave: usize,
    /// The point's offered load — enough to identify it within a batch.
    pub load: f64,
    /// Worker threads the point's run was split across.
    pub shards: usize,
}

/// The shape of a queued point, as much of [`PointSpec`] as the planner
/// needs: its load (for the decision record and the cost estimate) and
/// its network size (for the cost estimate and the useful-shards cap).
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

    /// The dispatch cost estimate: nodes × offered load, which tracks the
    /// flit-hops a point simulates.
    fn cost(&self) -> f64 {
        self.num_nodes as f64 * self.load
    }
}

/// A batch's schedule.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Plan {
    /// Worker threads the batch spawns.
    threads: usize,
    /// Point indices in dispatch order.
    order: Vec<usize>,
    /// One decision per point, in input order.
    decisions: Vec<ExecDecision>,
}

/// Plans a batch on `workers` threads: how many workers to spawn, the
/// order they take the points in (longest first) and every point's
/// shard budget. Pure — same shapes and worker count, same plan.
pub(crate) fn plan(workers: usize, shapes: &[PointShape]) -> Plan {
    let threads = shapes.len().min(workers);
    // Largest power of two b with threads * b <= workers: the batch
    // never oversubscribes the worker set.
    let budget = 1 << (workers / threads.max(1)).ilog2();
    let mut order: Vec<usize> = (0..shapes.len()).collect();
    // A stable sort: equal costs keep their input order.
    order.sort_by(|&a, &b| shapes[b].cost().total_cmp(&shapes[a].cost()));
    let mut decisions: Vec<ExecDecision> = shapes
        .iter()
        .map(|s| ExecDecision {
            wave: 0,
            load: s.load,
            shards: budget.min(max_useful_shards(s.num_nodes)),
        })
        .collect();
    for (rank, &i) in order.iter().enumerate() {
        decisions[i].wave = rank / threads;
    }
    Plan {
        threads,
        order,
        decisions,
    }
}

/// Runs `task(i)` for every index in `order` on `threads` workers and
/// returns the results in index order. Each worker repeatedly takes the
/// next index from a shared counter, so indices start in `order` and a
/// worker that finishes early takes the next one at once. `order` must
/// be a permutation of `0..order.len()`.
///
/// # Panics
///
/// A panicking task stops the workers from taking further indices; once
/// they have all finished, resumes the panic of the smallest index that
/// panicked, with its own payload.
fn run_queue<T, F>(threads: usize, order: &[usize], task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Ranks handed out so far; a panic pushes it past the end, which
    // stops every worker at its next take. It publishes no other data.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let got = std::panic::catch_unwind(AssertUnwindSafe(|| task(i)));
            let failed = got.is_err();
            done.push((i, got));
            if failed {
                next.store(order.len(), Ordering::Relaxed);
                break;
            }
        }
        done
    };
    let mut done: Vec<_> = run_scoped((0..threads).map(|_| worker).collect())
        .into_iter()
        .flatten()
        .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter()
        .map(|(_, got)| got)
        .collect::<Result<_, _>>()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Evaluates a batch on `workers` threads through one longest-first
/// queue and returns `(points in input order, their decisions in input
/// order)`. Results are bit-identical to evaluating every spec serially
/// with `PointSpec::evaluate`.
///
/// # Panics
///
/// Panics if a spec's configuration is invalid or a point's run panics,
/// with the earliest such point's own message.
pub(crate) fn run_batch(
    workers: usize,
    specs: &[&PointSpec],
) -> (Vec<LoadPoint>, Vec<ExecDecision>) {
    let shapes: Vec<PointShape> = specs.iter().map(|s| PointShape::of(s)).collect();
    let plan = plan(workers, &shapes);
    let points = run_queue(plan.threads, &plan.order, |i| {
        specs[i].evaluate_sharded(plan.decisions[i].shards)
    });
    (points, plan.decisions)
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

    fn shards(plan: &Plan) -> Vec<usize> {
        plan.decisions.iter().map(|d| d.shards).collect()
    }

    #[test]
    fn head_runs_point_parallel() {
        // 8 points on 4 workers: 4 threads at budget 1, and the costlier
        // half (the higher loads) starts in round 0.
        let shapes: Vec<PointShape> = (0..8).map(|i| shape(i as f64 * 0.1, 1024)).collect();
        let plan = plan(4, &shapes);
        assert_eq!(plan.threads, 4);
        assert!(plan.decisions.iter().all(|d| d.shards == 1));
        let waves: Vec<usize> = plan.decisions.iter().map(|d| d.wave).collect();
        assert_eq!(waves, [1, 1, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn batch_of_at_least_w_points_runs_unsharded() {
        // 9 points on 8 workers: budget 1 throughout. The ninth point is
        // the cheapest; it starts in round 1, when a worker frees up,
        // instead of running alone on 8 shards after a barrier.
        let shapes: Vec<PointShape> = (0..9).map(|i| shape(i as f64 * 0.1, 1024)).collect();
        let plan = plan(8, &shapes);
        assert_eq!(plan.threads, 8);
        assert_eq!(shards(&plan), [1; 9]);
        assert_eq!(plan.decisions[0].wave, 1);
        assert!(plan.decisions[1..].iter().all(|d| d.wave == 0));
        // Exactly W points: still budget 1, one round.
        let plan = super::plan(8, &shapes[..8]);
        assert_eq!(shards(&plan), [1; 8]);
        assert!(plan.decisions.iter().all(|d| d.wave == 0));
    }

    #[test]
    fn budget_is_pow2_floor_never_oversubscribed() {
        // 3 points on 8 workers: pow2 floor of 8/3 is 2, total 6 <= 8.
        let shapes: Vec<PointShape> = (0..3).map(|i| shape(i as f64 * 0.1, 1024)).collect();
        let plan = plan(8, &shapes);
        assert_eq!(plan.threads, 3);
        assert!(plan.decisions.iter().all(|d| d.wave == 0 && d.shards == 2));
        // A lone point takes the idle workers: 2 shards on 2 workers.
        assert_eq!(shards(&super::plan(2, &shapes[..1])), [2]);
        // 2 points on 7 workers: floor of 3.5 is 3, pow2 floor 2.
        assert_eq!(shards(&super::plan(7, &shapes[..2])), [2, 2]);
    }

    #[test]
    fn small_networks_stay_sequential() {
        // A lone k=4 point: 16 idle workers, but 16 nodes are not worth
        // splitting — max_useful_shards caps the budget at 1.
        assert_eq!(shards(&plan(16, &[shape(0.1, 16)])), [1]);
        // k=16 caps at 4, k=32 at 16.
        assert_eq!(shards(&plan(16, &[shape(0.1, 256)])), [4]);
        assert_eq!(shards(&plan(16, &[shape(0.1, 1024)])), [16]);
    }

    #[test]
    fn dispatch_is_longest_first() {
        // Costs run opposite to input order: dispatch reverses the batch.
        let rising: Vec<PointShape> = (1..=5).map(|i| shape(i as f64 * 0.1, 64)).collect();
        assert_eq!(plan(2, &rising).order, [4, 3, 2, 1, 0]);
        let waves: Vec<usize> = plan(2, &rising).decisions.iter().map(|d| d.wave).collect();
        assert_eq!(waves, [2, 1, 1, 0, 0]);
        // The estimate is nodes × load (64 × 0.5 = 32 beats 16 × 0.9),
        // and equal costs (64 × 0.2 = 16 × 0.8) keep their input order.
        let mixed = [
            shape(0.9, 16),
            shape(0.5, 64),
            shape(0.2, 64),
            shape(0.8, 16),
            shape(0.2, 64),
        ];
        assert_eq!(plan(2, &mixed).order, [1, 0, 2, 3, 4]);
    }

    #[test]
    fn plan_is_deterministic() {
        let shapes: Vec<PointShape> = (0..7).map(|i| shape(i as f64 * 0.05, 256)).collect();
        assert_eq!(plan(6, &shapes), plan(6, &shapes));
    }

    #[test]
    fn queue_returns_input_order() {
        // Dispatch runs backwards and later indices finish sooner; the
        // results still come back by index.
        let order: Vec<usize> = (0..6).rev().collect();
        assert_eq!(run_queue(3, &order, |i| i * 10), [0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn queue_starts_points_in_dispatch_order() {
        let started = std::sync::Mutex::new(Vec::new());
        run_queue(1, &[2, 0, 3, 1], |i| {
            started.lock().expect("no panic").push(i)
        });
        assert_eq!(started.into_inner().expect("no panic"), [2, 0, 3, 1]);
    }

    #[test]
    fn queue_never_runs_more_than_w_points() {
        let workers = 3;
        let shapes: Vec<PointShape> = (0..12).map(|i| shape(i as f64 * 0.05, 64)).collect();
        let plan = plan(workers, &shapes);
        let live = AtomicUsize::new(0);
        let high = AtomicUsize::new(0);
        let ran = run_queue(plan.threads, &plan.order, |i| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            high.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert_eq!(ran, (0..12).collect::<Vec<_>>());
        let high = high.load(Ordering::SeqCst);
        assert!((1..=workers).contains(&high), "{high} points live at once");
    }

    #[test]
    fn queue_panic_stops_new_points() {
        thread_local! {
            static HELD: std::cell::RefCell<Option<std::sync::mpsc::Sender<()>>> =
                const { std::cell::RefCell::new(None) };
        }
        // Point 0's worker keeps the only sender until its thread exits,
        // which is after it has stopped the queue; point 1 waits for
        // that, so the other worker's next take comes after the stop.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = (std::sync::Mutex::new(Some(tx)), std::sync::Mutex::new(rx));
        let later = AtomicUsize::new(0);
        let got = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_queue(2, &[0, 1, 2, 3], |i| match i {
                0 => {
                    let sender = tx.lock().expect("no panic").take();
                    HELD.with(|h| *h.borrow_mut() = sender);
                    panic!("point 0 failed");
                }
                1 => assert!(rx.lock().expect("no panic").recv().is_err()),
                _ => {
                    later.fetch_add(1, Ordering::SeqCst);
                }
            })
        }));
        let payload = got.expect_err("the batch panics");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"point 0 failed"));
        assert_eq!(later.load(Ordering::SeqCst), 0, "points 2 and 3 were taken");
    }

    #[test]
    fn queue_resumes_the_earliest_input_panic() {
        // Index 3 starts first, index 1 second; the barrier holds both
        // in flight so both fail, and index 1's panic is the one resumed.
        let both = std::sync::Barrier::new(2);
        let got = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_queue(2, &[3, 1, 0, 2], |i| {
                if i == 3 || i == 1 {
                    both.wait();
                    panic!("point {i} failed");
                }
            })
        }));
        let payload = got.expect_err("the batch panics");
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("point 1 failed"));
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
