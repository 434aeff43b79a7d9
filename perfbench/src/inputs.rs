//! Seeded workload inputs.
//!
//! Everything the benchmark feeds the library — graphs, serving sources,
//! query pools, fault-event wire frames — is derived here from the
//! `--seed` argument. The library never sees the seed or a workload name,
//! only the generated values, and the same seed always yields the same
//! inputs (see the tests at the bottom).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rsp_graph::Graph;
use rsp_oracle::churn::inject::{random_trace_with, InjectionPlan, StreamInjector, TraceOptions};
use rsp_oracle::OracleSnapshot;

/// Independent input streams drawn from one run seed.
pub const GRAPH: u64 = 1;
pub const WEIGHTS: u64 = 2;
pub const SOURCES: u64 = 3;
pub const TRACE: u64 = 4;
pub const WIRE: u64 = 5;
/// Query pools use `QUERIES + reader index`.
pub const QUERIES: u64 = 16;

/// Derives the seed of one input stream (SplitMix64 finalizer), so the
/// streams of one run are independent of each other.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `k` distinct vertices of `0..n` in a seeded order; the order is the
/// Zipf popularity rank (index 0 is the hottest source).
pub fn pick_sources(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.random_range(i..n);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

/// Most faults a query carries.
pub const MAX_F: usize = 3;

/// How a query's fault set `F` is drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultLaw {
    /// `0..=max` distinct edges, none on the source's selected tree.
    OffTree { max: usize },
    /// `min..=max` distinct edges, uniform over `E`.
    Uniform { min: usize, max: usize },
}

/// One `(s, t, F)` query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    pub s: u32,
    pub t: u32,
    pub nf: u8,
    pub f: [u32; MAX_F],
}

impl Query {
    /// The fault edge ids as the serving API takes them.
    pub fn faults(&self) -> ([usize; MAX_F], usize) {
        (self.f.map(|e| e as usize), self.nf as usize)
    }
}

/// Zipf(1) over ranks `0..k`: `P(rank i) ∝ 1 / (i + 1)`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(k: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=k)
            .map(|i| {
                acc += 1.0 / i as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The edges of each source's selected fault-free tree, as bitsets.
pub struct TreeEdges {
    m: usize,
    words: usize,
    bits: Vec<u64>,
}

impl TreeEdges {
    /// Reads the tree of every listed source off a compiled snapshot.
    pub fn from_snapshot(snap: &OracleSnapshot<u128>, sources: &[usize]) -> Self {
        let (n, m) = (snap.graph().n(), snap.graph().m());
        let words = m.div_ceil(64);
        let mut bits = vec![0u64; words * sources.len()];
        for (rank, &s) in sources.iter().enumerate() {
            let view = snap.baseline(s).expect("every listed source is served");
            for v in 0..n {
                if let Some((_, e)) = view.parent(v) {
                    bits[rank * words + e / 64] |= 1 << (e % 64);
                }
            }
        }
        TreeEdges { m, words, bits }
    }

    pub fn contains(&self, rank: usize, e: usize) -> bool {
        self.bits[rank * self.words + e / 64] & (1 << (e % 64)) != 0
    }

    /// Mean share of `E` on a source's tree: the chance that one uniform
    /// fault edge hits the tree.
    pub fn on_tree_share(&self) -> f64 {
        let on: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        let sources = self.bits.len() / self.words.max(1);
        on as f64 / (sources * self.m).max(1) as f64
    }
}

/// A pool of `len` queries: sources Zipf(1) over `sources` (in rank
/// order), targets uniform over the other vertices, faults by `law`.
pub fn query_pool(
    n: usize,
    m: usize,
    sources: &[usize],
    law: FaultLaw,
    trees: &TreeEdges,
    len: usize,
    seed: u64,
) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(sources.len());
    (0..len)
        .map(|_| {
            let rank = zipf.sample(&mut rng);
            let s = sources[rank];
            let mut t = rng.random_range(0..n - 1);
            if t >= s {
                t += 1;
            }
            let nf = match law {
                FaultLaw::OffTree { max } => rng.random_range(0..=max),
                FaultLaw::Uniform { min, max } => rng.random_range(min..=max),
            };
            let mut f = [0u32; MAX_F];
            let mut k = 0;
            while k < nf {
                let e = rng.random_range(0..m);
                let off_tree_ok =
                    !matches!(law, FaultLaw::OffTree { .. }) || !trees.contains(rank, e);
                if off_tree_ok && !f[..k].contains(&(e as u32)) {
                    f[k] = e as u32;
                    k += 1;
                }
            }
            Query { s: s as u32, t: t as u32, nf: nf as u8, f }
        })
        .collect()
}

/// Share of the pool's fault edges that lie on their source's tree.
pub fn on_tree_share_of(pool: &[Query], sources: &[usize], trees: &TreeEdges) -> f64 {
    let (mut on, mut all) = (0u64, 0u64);
    for q in pool {
        let rank = sources.iter().position(|&s| s == q.s as usize).expect("pool source");
        for &e in &q.f[..q.nf as usize] {
            all += 1;
            on += u64::from(trees.contains(rank, e as usize));
        }
    }
    on as f64 / all.max(1) as f64
}

/// The first `frames` wire frames of a bursty valid fault trace (burst
/// 0.25, at most 8 concurrent faults) perturbed by the hostile injection
/// mix (drops, duplicates, corruptions, reorders).
pub fn frame_stream(g: &Graph, frames: usize, seed: u64) -> Vec<Vec<u8>> {
    let opts = TraceOptions { burst: 0.25, max_faults: Some(8), ..TraceOptions::default() };
    let mut len = frames + 8;
    loop {
        let trace = random_trace_with(g, len, sub_seed(seed, TRACE), opts);
        let mut out =
            StreamInjector::new(InjectionPlan::hostile(sub_seed(seed, WIRE))).perturb(&trace);
        if out.len() >= frames {
            out.truncate(frames);
            return out;
        }
        len += len / 4 + 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_core::RandomGridAtw;
    use rsp_graph::gen;

    fn pool_for(seed: u64, law: FaultLaw) -> (Vec<usize>, Vec<Query>) {
        let g = gen::preferential_attachment(300, 3, sub_seed(seed, GRAPH));
        let scheme = RandomGridAtw::theorem20(&g, sub_seed(seed, WEIGHTS)).into_scheme();
        let sources = pick_sources(g.n(), 8, sub_seed(seed, SOURCES));
        let snap = OracleSnapshot::builder(&scheme).sources(sources.iter().copied()).build();
        let trees = TreeEdges::from_snapshot(&snap, &sources);
        let pool = query_pool(g.n(), g.m(), &sources, law, &trees, 2_000, sub_seed(seed, QUERIES));
        (sources, pool)
    }

    #[test]
    fn same_seed_same_query_schedule_and_fault_sets() {
        for law in [FaultLaw::OffTree { max: 3 }, FaultLaw::Uniform { min: 1, max: 2 }] {
            let a = pool_for(11, law);
            assert_eq!(a, pool_for(11, law), "{law:?}");
            assert_ne!(a.1, pool_for(12, law).1, "{law:?}: the seed must matter");
        }
    }

    #[test]
    fn same_seed_same_frame_stream() {
        let g = gen::preferential_attachment(128, 3, 5);
        let a = frame_stream(&g, 500, 9);
        assert_eq!(a.len(), 500);
        assert_eq!(a, frame_stream(&g, 500, 9));
        assert_ne!(a, frame_stream(&g, 500, 10));
    }

    #[test]
    fn off_tree_law_never_touches_the_tree() {
        let seed = 3;
        let g = gen::preferential_attachment(300, 3, sub_seed(seed, GRAPH));
        let scheme = RandomGridAtw::theorem20(&g, sub_seed(seed, WEIGHTS)).into_scheme();
        let sources = pick_sources(g.n(), 8, sub_seed(seed, SOURCES));
        let snap = OracleSnapshot::builder(&scheme).sources(sources.iter().copied()).build();
        let trees = TreeEdges::from_snapshot(&snap, &sources);
        let law = FaultLaw::OffTree { max: 3 };
        let pool = query_pool(g.n(), g.m(), &sources, law, &trees, 2_000, 1);
        assert_eq!(on_tree_share_of(&pool, &sources, &trees), 0.0);
        assert!(pool.iter().all(|q| q.s != q.t && q.nf <= 3));
        let share = trees.on_tree_share();
        assert!((share - (g.n() - 1) as f64 / g.m() as f64).abs() < 1e-9, "spanning trees");
    }
}
