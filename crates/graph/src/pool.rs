//! Scoped worker pools: indexed fan-out and a work-stealing frontier.
//!
//! See `docs/ARCHITECTURE.md` (repo root) for where this layer sits in the
//! query-engine story. Two execution shapes live here:
//!
//! * [`parallel_indexed`] — a **fixed job list**: the per-source work in
//!   this workspace (one shortest-path tree, or one whole FT-BFS
//!   enumeration, per source) is independent across sources once each
//!   worker owns its own scratch state. Jobs are claimed dynamically from
//!   an atomic next-index counter (which balances heavily skewed per-item
//!   costs) and results return **in index order**, so output is
//!   deterministic and independent of the worker count and of scheduling.
//! * [`parallel_frontier`] — a **self-growing frontier**: jobs may
//!   *discover* further jobs while running (the FT-BFS fault-set
//!   enumeration grows each fault set by edges of the tree just computed).
//!   Each worker owns a deque, pushes discoveries locally (LIFO, for
//!   locality), and **steals** from other workers when its own deque runs
//!   dry — the shape of the executor Bodwin–Parter-style `O(n^f)`
//!   enumerations need, built from `std::sync::Mutex` deques and scoped
//!   threads (no dependencies, no unsafe). [`ShardedSet`] is the matching
//!   concurrent visited set for frontier deduplication.
//!
//! `workers == 1` (or a single/empty job list) runs inline on the calling
//! thread with no thread spawned at all, which is also the sequential
//! reference implementation the equivalence tests compare against.
//!
//! # Examples
//!
//! ```
//! use rsp_graph::parallel_indexed;
//!
//! // Square 0..8 on 3 workers; each worker counts its jobs in its state.
//! let squares = parallel_indexed(8, 3, |_worker| 0usize, |count, i| {
//!     *count += 1;
//!     i * i
//! });
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `run(state, i)` for every `i in 0..count` across up to `workers`
/// scoped threads and returns the results in index order.
///
/// `make_state` is called once per worker (with the worker id) to build
/// that worker's private mutable state; `run` executes one job against it.
/// Items are claimed dynamically from a shared counter, so slow items do
/// not serialize behind fast ones. With `workers <= 1` — or fewer than two
/// items — everything runs inline on the calling thread.
///
/// The output is `[run(_, 0), run(_, 1), …]` regardless of which worker
/// executed which item; a caller that needs determinism only has to make
/// `run` itself deterministic per index.
///
/// # Panics
///
/// Propagates the first panic raised by any job.
pub fn parallel_indexed<R, S, FS, F>(count: usize, workers: usize, make_state: FS, run: F) -> Vec<R>
where
    R: Send,
    FS: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = workers.clamp(1, count.max(1));
    if workers <= 1 || count <= 1 {
        let mut state = make_state(0);
        return (0..count).map(|i| run(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                let make_state = &make_state;
                let run = &run;
                scope.spawn(move || {
                    let mut state = make_state(w);
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        produced.push((i, run(&mut state, i)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(produced) => {
                    for (i, r) in produced {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every index is claimed exactly once")).collect()
}

/// Aggregate execution counters from one [`parallel_frontier`] run.
///
/// `executed` counts every frontier item run (each exactly once);
/// `stolen` counts the subset a worker claimed from *another* worker's
/// deque — the load-balancing traffic. `stolen == 0` on the inline
/// (single-worker) path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Frontier items executed, across all workers.
    pub executed: usize,
    /// Items claimed from another worker's deque (work-stealing events).
    pub stolen: usize,
}

/// Decrements the shared pending-item counter when dropped, so an item is
/// marked complete even if its step panics (otherwise the other workers
/// would spin on a count that can never reach zero).
struct PendingGuard<'a>(&'a AtomicUsize);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs a self-growing work frontier over up to `workers` scoped threads
/// with work stealing, and returns the per-worker `finish` results plus
/// execution stats.
///
/// `step(state, item, push)` processes one frontier item against the
/// worker's private state and may call `push` to add newly discovered
/// items; every pushed item is eventually processed exactly once. The run
/// ends when the frontier is exhausted: no items queued anywhere and none
/// in flight. `finish` folds each worker's state into a sendable result
/// on the worker's own thread — worker state itself never crosses threads
/// (so it may hold thread-local things like an `RptsScratch`).
///
/// Discovered items go to the discovering worker's own deque and are
/// popped newest-first (LIFO — depth-first, keeping the local deque
/// small); an idle worker steals oldest-first (FIFO) from the first
/// non-empty victim deque, taking the items most likely to fan out
/// further. Item execution **order** is therefore scheduling-dependent;
/// callers that need deterministic *results* must make the result a
/// function of the executed item **set** only (a union, a sum, …) —
/// exactly-once execution and private per-worker state make that
/// sufficient. The FT-BFS enumeration in `rsp_preserver` is the canonical
/// caller; [`ShardedSet`] supplies the dedup that keeps a frontier from
/// revisiting items.
///
/// `workers <= 1` — or an empty seed list — runs inline on the calling
/// thread with a plain LIFO stack (the sequential reference; one `finish`
/// result, zero steals). A **single** seed with many workers still spawns
/// them all: unlike [`parallel_indexed`]'s fixed job list, a frontier
/// grows, and the lone seed's discoveries are what the other workers
/// steal (the FT-BFS case: one source, `O(n^f)` descendant fault sets).
///
/// # Examples
///
/// Enumerate `{0, …, 29}` from seed `0` by pushing `i+1` and `2i` edges,
/// deduplicating with a [`ShardedSet`]:
///
/// ```
/// use rsp_graph::{parallel_frontier, ShardedSet};
///
/// let seen = ShardedSet::new(4);
/// seen.insert(0u32);
/// let (sums, stats) = parallel_frontier(
///     vec![0u32],
///     4,
///     |_worker| 0u64,
///     |sum, i, push| {
///         *sum += u64::from(i);
///         for next in [i + 1, 2 * i] {
///             if next < 30 && seen.insert(next) {
///                 push(next);
///             }
///         }
///     },
///     |sum| sum,
/// );
/// assert_eq!(stats.executed, 30);
/// assert_eq!(sums.iter().sum::<u64>(), (0..30).sum::<u64>());
/// ```
///
/// # Panics
///
/// Propagates the first panic raised by any step; remaining queued items
/// may or may not have been processed by then.
pub fn parallel_frontier<T, S, R, FS, F, FR>(
    seeds: Vec<T>,
    workers: usize,
    make_state: FS,
    step: F,
    finish: FR,
) -> (Vec<R>, FrontierStats)
where
    T: Send,
    R: Send,
    FS: Fn(usize) -> S + Sync,
    F: Fn(&mut S, T, &mut dyn FnMut(T)) + Sync,
    FR: Fn(S) -> R + Sync,
{
    let workers = workers.max(1);
    if workers <= 1 || seeds.is_empty() {
        let mut state = make_state(0);
        let mut stack = seeds;
        let mut executed = 0usize;
        while let Some(item) = stack.pop() {
            executed += 1;
            step(&mut state, item, &mut |t| stack.push(t));
        }
        return (vec![finish(state)], FrontierStats { executed, stolen: 0 });
    }
    let pending = AtomicUsize::new(seeds.len());
    let mut deques: Vec<Mutex<VecDeque<T>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, seed) in seeds.into_iter().enumerate() {
        deques[i % workers].get_mut().unwrap().push_back(seed);
    }
    let deques = &deques;
    let pending = &pending;
    let mut results = Vec::with_capacity(workers);
    let mut stats = FrontierStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let make_state = &make_state;
                let step = &step;
                let finish = &finish;
                scope.spawn(move || {
                    let mut state = make_state(w);
                    let mut executed = 0usize;
                    let mut stolen = 0usize;
                    let mut idle_scans = 0usize;
                    loop {
                        // Own deque first, newest-first (depth-first).
                        let mut item = deques[w].lock().unwrap().pop_back();
                        if item.is_none() {
                            // Steal oldest-first from the next non-empty
                            // victim (round-robin from w+1, so no victim
                            // is systematically favored).
                            for j in 1..workers {
                                item = deques[(w + j) % workers].lock().unwrap().pop_front();
                                if item.is_some() {
                                    stolen += 1;
                                    break;
                                }
                            }
                        }
                        match item {
                            Some(item) => {
                                idle_scans = 0;
                                executed += 1;
                                let guard = PendingGuard(pending);
                                step(&mut state, item, &mut |t| {
                                    pending.fetch_add(1, Ordering::SeqCst);
                                    deques[w].lock().unwrap().push_back(t);
                                });
                                drop(guard);
                            }
                            // `pending` counts queued + in-flight items,
                            // each incremented before it becomes visible
                            // and decremented only after its step (and
                            // that step's pushes) completed — so zero
                            // means globally quiescent, not just
                            // momentarily empty deques.
                            None if pending.load(Ordering::SeqCst) == 0 => break,
                            // Someone is still working but nothing is
                            // queued: yield while the wait is fresh, then
                            // back off to a short sleep so idle workers
                            // don't burn a core scanning deques for the
                            // whole duration of a long in-flight step
                            // (steps here are tree queries — micro- to
                            // milliseconds — so 50µs of staleness is
                            // noise, while a hot spin on an oversubscribed
                            // host steals cycles from the worker that has
                            // the work).
                            None if idle_scans < 64 => {
                                idle_scans += 1;
                                std::thread::yield_now();
                            }
                            None => std::thread::sleep(std::time::Duration::from_micros(50)),
                        }
                    }
                    (finish(state), executed, stolen)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((result, executed, stolen)) => {
                    results.push(result);
                    stats.executed += executed;
                    stats.stolen += stolen;
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    (results, stats)
}

/// A sharded concurrent set: `insert` is first-wins across threads.
///
/// The visited-set companion of [`parallel_frontier`]: workers racing to
/// admit the same frontier item (the FT-BFS enumeration discovers one
/// fault set along many tree-edge paths) resolve through per-shard
/// mutexes, and exactly one racer wins. Values are spread over
/// `~4 × concurrency` shards by their [`Hash`], so contention stays on
/// the shard lock, not on one global set.
///
/// # Examples
///
/// ```
/// use rsp_graph::ShardedSet;
///
/// let set = ShardedSet::new(8);
/// assert!(set.insert("a"));
/// assert!(!set.insert("a"), "second insert of the same value loses");
/// assert!(set.insert("b"));
/// assert_eq!(set.len(), 2);
/// ```
pub struct ShardedSet<T> {
    shards: Vec<Mutex<HashSet<T>>>,
    /// `shards.len() - 1`; the shard count is a power of two so shard
    /// selection is a mask, not a division.
    mask: u64,
}

impl<T: Hash + Eq> ShardedSet<T> {
    /// A set sharded for about `concurrency` simultaneous inserters.
    pub fn new(concurrency: usize) -> Self {
        let count = (4 * concurrency.max(1)).next_power_of_two();
        ShardedSet {
            shards: (0..count).map(|_| Mutex::new(HashSet::new())).collect(),
            mask: count as u64 - 1,
        }
    }

    /// The index of the shard responsible for `value` — the single place
    /// the hasher choice and mask logic live.
    fn shard_of(&self, value: &T) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        (hasher.finish() & self.mask) as usize
    }

    /// Inserts `value`, returning `true` iff it was not already present.
    ///
    /// Linearizable per value (both racers hash to the same shard, whose
    /// mutex orders them): exactly one concurrent inserter of equal
    /// values is told `true`.
    pub fn insert(&self, value: T) -> bool {
        self.shards[self.shard_of(&value)].lock().unwrap().insert(value)
    }

    /// Returns `true` iff `value` has been inserted.
    pub fn contains(&self, value: &T) -> bool {
        self.shards[self.shard_of(value)].lock().unwrap().contains(value)
    }

    /// Total values inserted. Only meaningful once concurrent inserters
    /// have quiesced (it locks shards one at a time).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Returns `true` iff no value has been inserted (see
    /// [`ShardedSet::len`] for the quiescence caveat).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards (a power of two, `≥ 4 × concurrency`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        for workers in [1, 2, 3, 8, 64] {
            let out = parallel_indexed(20, workers, |_| (), |(), i| i * 2);
            assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn worker_state_is_private_and_reused() {
        // Each worker's state counts its jobs; the total must be `count`.
        let counts = parallel_indexed(
            50,
            4,
            |_| 0usize,
            |c, _| {
                *c += 1;
                *c
            },
        );
        // Per-item result is that worker's running job count: always ≥ 1.
        assert!(counts.iter().all(|&c| c >= 1));
        assert_eq!(counts.len(), 50);
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<usize> = parallel_indexed(0, 8, |_| (), |(), i| i);
        assert!(none.is_empty());
        let one = parallel_indexed(1, 8, |_| (), |(), i| i + 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    #[should_panic(expected = "job 3 exploded")]
    fn propagates_job_panics() {
        parallel_indexed(
            8,
            2,
            |_| (),
            |(), i| {
                if i == 3 {
                    panic!("job 3 exploded");
                }
                i
            },
        );
    }

    /// The frontier's expected item set for the doc-example growth rule
    /// (`i → i+1, 2i` under `limit`), as a plain sequential closure.
    fn closure_under(seeds: &[u32], limit: u32) -> std::collections::BTreeSet<u32> {
        let mut seen: std::collections::BTreeSet<u32> = seeds.iter().copied().collect();
        let mut stack: Vec<u32> = seeds.to_vec();
        while let Some(i) = stack.pop() {
            for next in [i + 1, 2 * i] {
                if next < limit && seen.insert(next) {
                    stack.push(next);
                }
            }
        }
        seen
    }

    #[test]
    fn frontier_executes_closure_exactly_once_for_all_worker_counts() {
        let expected = closure_under(&[1], 200);
        for workers in [1, 2, 3, 8] {
            let seen = ShardedSet::new(workers);
            seen.insert(1u32);
            let (items, stats) = parallel_frontier(
                vec![1u32],
                workers,
                |_| Vec::new(),
                |mine: &mut Vec<u32>, i, push| {
                    mine.push(i);
                    for next in [i + 1, 2 * i] {
                        if next < 200 && seen.insert(next) {
                            push(next);
                        }
                    }
                },
                |mine| mine,
            );
            let all: Vec<u32> = items.into_iter().flatten().collect();
            assert_eq!(all.len(), expected.len(), "workers={workers}: exactly once");
            assert_eq!(
                all.iter().copied().collect::<std::collections::BTreeSet<_>>(),
                expected,
                "workers={workers}: same item set"
            );
            assert_eq!(stats.executed, expected.len(), "workers={workers}");
            assert_eq!(seen.len(), expected.len(), "workers={workers}");
        }
    }

    #[test]
    fn frontier_with_no_growth_is_a_parallel_map() {
        let (sums, stats) = parallel_frontier(
            (0..100u64).collect(),
            4,
            |_| 0u64,
            |sum, i, _push| *sum += i,
            |sum| sum,
        );
        assert_eq!(sums.iter().sum::<u64>(), (0..100).sum::<u64>());
        assert_eq!(stats.executed, 100);
    }

    #[test]
    fn frontier_empty_seeds_run_inline() {
        let (r, stats) = parallel_frontier(Vec::<u8>::new(), 8, |_| 0usize, |_, _, _| {}, |n| n);
        assert_eq!(r, vec![0]);
        assert_eq!(stats, FrontierStats { executed: 0, stolen: 0 });
    }

    #[test]
    fn frontier_single_seed_still_uses_every_worker() {
        // One seed must NOT clamp the pool to one worker: the frontier
        // grows, and the growth is what the other workers steal. Grow a
        // binary tree of depth 9 from the seed (1023 items, no dedup
        // needed — every path is distinct) and check the always-true
        // invariants: one finish result per worker, exactly-once
        // execution. Which worker ran what is scheduling-dependent.
        let (per_worker, stats) = parallel_frontier(
            vec![1u32],
            4,
            |_| 0usize,
            |count, i, push| {
                *count += 1;
                if i < 512 {
                    push(2 * i);
                    push(2 * i + 1);
                }
            },
            |count| count,
        );
        assert_eq!(per_worker.len(), 4, "all four workers spawned for one seed");
        assert_eq!(per_worker.iter().sum::<usize>(), stats.executed);
        assert_eq!(stats.executed, 1023, "items 1..=1023, each exactly once");
    }

    #[test]
    fn frontier_steals_skewed_work() {
        // Two seeds; one grows a deep chain, the other is a leaf. With
        // items parked behind a gate until both workers are up, the
        // leaf's worker must steal from the chain to finish. This is
        // inherently scheduling-dependent, so only assert the invariants
        // that always hold: exactly-once execution and a consistent sum.
        let gate = std::sync::Barrier::new(2);
        let (counts, stats) = parallel_frontier(
            vec![0u32, 1000],
            2,
            |_| 0usize,
            |count, i, push| {
                if i == 0 || i == 1000 {
                    gate.wait();
                }
                *count += 1;
                if (1..400).contains(&i) || i == 0 {
                    push(i + 1);
                }
            },
            |count| count,
        );
        assert_eq!(counts.iter().sum::<usize>(), 402);
        assert_eq!(stats.executed, 402);
    }

    #[test]
    #[should_panic(expected = "step 13 exploded")]
    fn frontier_propagates_step_panics() {
        parallel_frontier(
            (0..32u32).collect(),
            4,
            |_| (),
            |(), i, _push| {
                if i == 13 {
                    panic!("step 13 exploded");
                }
            },
            |()| (),
        );
    }

    #[test]
    fn sharded_set_first_insert_wins_under_contention() {
        let set = ShardedSet::new(4);
        // 8 threads race to insert the same 100 values; each insert must
        // be won by exactly one thread.
        let wins: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| (0..100u32).filter(|&v| set.insert(v)).count()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(wins.iter().sum::<usize>(), 100, "every value won exactly once");
        assert_eq!(set.len(), 100);
        assert!(!set.is_empty());
        for v in 0..100u32 {
            assert!(set.contains(&v));
        }
        assert!(!set.contains(&200));
    }

    #[test]
    fn sharded_set_shard_count_is_padded_power_of_two() {
        for (concurrency, expect) in [(0usize, 4usize), (1, 4), (2, 8), (8, 32), (9, 64)] {
            let set = ShardedSet::<u64>::new(concurrency);
            assert_eq!(set.shard_count(), expect, "concurrency={concurrency}");
            assert!(set.shard_count().is_power_of_two());
        }
    }
}
