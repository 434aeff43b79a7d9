//! Theorem 35: running many distributed algorithms simultaneously with
//! random start delays.
//!
//! `σ` SPT constructions (one per source) share the network. Each edge
//! forwards at most one tagged message per direction per round — the
//! CONGEST quota — and each node queues overflow per neighbor. Random
//! start delays spread the instances' wavefronts so the queues stay
//! shallow: total time `Õ(D + σ)` instead of the sequential `σ·O(D)`.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsp_core::ExactScheme;
use rsp_graph::{EdgeId, Graph, Vertex};

use crate::bfs_spt::{weight_tables, SptState};
use crate::sim::{MsgSize, Network, NodeCtx, Outbox, Program, RunStats};

/// An SPT announcement tagged with its instance (source index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaggedMsg {
    /// Which of the `σ` SPT instances this belongs to.
    pub instance: u32,
    /// The announced scaled distance.
    pub dist: u128,
}

impl MsgSize for TaggedMsg {
    fn bits(&self) -> usize {
        let tag = (32 - self.instance.leading_zeros() as usize).max(1);
        let dist = (128 - self.dist.leading_zeros() as usize).max(1);
        tag + dist
    }
}

/// Per-node program running all `σ` instances with per-neighbor FIFO
/// queues enforcing the bandwidth quota.
struct MultiSptProgram {
    instances: Vec<SptState>,
    /// Start delay per instance; only meaningful on that instance's
    /// source node.
    delays: Vec<usize>,
    /// Which instances this node is the source of.
    source_of: Vec<u32>,
    /// Per-neighbor FIFO overflow queues (BTreeMap for deterministic
    /// round-by-round behavior).
    queues: BTreeMap<Vertex, VecDeque<TaggedMsg>>,
}

impl MultiSptProgram {
    fn queued(&self) -> bool {
        self.queues.values().any(|q| !q.is_empty())
    }
}

impl Program<TaggedMsg> for MultiSptProgram {
    fn step(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(Vertex, TaggedMsg)],
        out: &mut Outbox<TaggedMsg>,
    ) {
        // Feed each instance the announcements addressed to it, in
        // instance order for determinism.
        let mut per_instance: BTreeMap<u32, Vec<(Vertex, u128)>> = BTreeMap::new();
        for &(from, msg) in inbox {
            per_instance.entry(msg.instance).or_default().push((from, msg.dist));
        }
        for (instance, msgs) in per_instance {
            let state = &mut self.instances[instance as usize];
            if let Some(dist) = state.on_round(&msgs) {
                for &nb in ctx.neighbors {
                    // Supersede any stale queued announcement of the same
                    // instance: only the newest estimate matters, and this
                    // bounds each queue by σ entries.
                    let q = self.queues.entry(nb).or_default();
                    q.retain(|m| m.instance != instance);
                    q.push_back(TaggedMsg { instance, dist });
                }
            }
        }
        // Delayed source starts.
        for &instance in &self.source_of {
            if ctx.round >= self.delays[instance as usize] {
                let state = &mut self.instances[instance as usize];
                if let Some(dist) = state.on_round(&[]) {
                    for &nb in ctx.neighbors {
                        self.queues.entry(nb).or_default().push_back(TaggedMsg { instance, dist });
                    }
                }
            }
        }
        // Drain one message per neighbor — the CONGEST quota.
        for (&nb, queue) in self.queues.iter_mut() {
            if let Some(msg) = queue.pop_front() {
                out.send(nb, msg);
            }
        }
    }

    fn pending(&self, _round: usize) -> bool {
        self.queued() || self.source_of.iter().any(|&i| !self.instances[i as usize].announced)
    }
}

/// Output of [`scheduled_multi_spt`].
#[derive(Clone, Debug)]
pub struct MultiSptResult {
    /// Per source (in input order): each vertex's parent in that SPT.
    pub parents: Vec<Vec<Option<Vertex>>>,
    /// Union of all tree edge ids.
    pub tree_edges: Vec<EdgeId>,
    /// Round/message statistics.
    pub stats: RunStats,
    /// The sampled start delays.
    pub delays: Vec<usize>,
}

/// Runs `σ = sources.len()` SPT constructions concurrently under random
/// start delays (Theorem 35 applied to Lemma 34's algorithm).
///
/// # Errors
///
/// Propagates [`crate::CongestionError`] (the queueing wrapper never
/// violates the quota; an error indicates a bug).
///
/// # Panics
///
/// Panics if any source repeats or is out of range.
pub fn scheduled_multi_spt(
    g: &Graph,
    scheme: &ExactScheme<u128>,
    sources: &[Vertex],
    seed: u64,
) -> Result<MultiSptResult, crate::CongestionError> {
    let sigma = sources.len();
    let mut seen = vec![false; g.n()];
    for &s in sources {
        assert!(s < g.n(), "source {s} out of range");
        assert!(!seen[s], "duplicate source {s}");
        seen[s] = true;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let delays: Vec<usize> =
        (0..sigma).map(|_| if sigma > 1 { rng.random_range(0..sigma) } else { 0 }).collect();

    let mut tables = weight_tables(g, scheme);
    let programs: Vec<MultiSptProgram> = g
        .vertices()
        .map(|v| {
            let weight_in = std::mem::take(&mut tables[v]);
            let instances: Vec<SptState> = sources
                .iter()
                .map(|&s| {
                    let mut st = if s == v { SptState::source() } else { SptState::node() };
                    st.weight_in = weight_in.clone();
                    st
                })
                .collect();
            let source_of: Vec<u32> = sources
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s == v)
                .map(|(i, _)| i as u32)
                .collect();
            MultiSptProgram {
                instances,
                delays: delays.clone(),
                source_of,
                queues: BTreeMap::new(),
            }
        })
        .collect();

    let mut net = Network::new(g, programs);
    let round_cap = 40 * (g.n() + sigma) + 100;
    let stats = net.run(round_cap)?;
    let programs = net.into_programs();

    let mut parents = vec![vec![None; g.n()]; sigma];
    for (v, prog) in programs.iter().enumerate() {
        for (i, st) in prog.instances.iter().enumerate() {
            parents[i][v] = st.parent;
        }
    }
    let mut tree_edges: Vec<EdgeId> = parents
        .iter()
        .flat_map(|par| {
            par.iter()
                .enumerate()
                .filter_map(|(v, p)| p.map(|u| g.edge_between(u, v).expect("tree edges exist")))
        })
        .collect();
    tree_edges.sort_unstable();
    tree_edges.dedup();
    Ok(MultiSptResult { parents, tree_edges, stats, delays })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_core::RandomGridAtw;
    use rsp_graph::SelectedTree;
    use rsp_graph::{diameter, generators, FaultSet};

    #[test]
    fn all_instances_match_centralized() {
        let g = generators::connected_gnm(30, 70, 1);
        let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
        let sources = [0, 7, 14, 21];
        let result = scheduled_multi_spt(&g, &scheme, &sources, 9).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            let central = scheme.spt(s, &FaultSet::empty());
            for v in g.vertices() {
                assert_eq!(
                    result.parents[i][v],
                    central.parent(v).map(|(p, _)| p),
                    "instance {i}, vertex {v}"
                );
            }
        }
    }

    #[test]
    fn rounds_scale_additively_not_multiplicatively() {
        // Õ(D + σ), not σ·D: with σ = 8 sources on a 7×7 torus the run
        // must finish well under the sequential bound.
        let g = generators::torus(7, 7);
        let scheme = RandomGridAtw::theorem20(&g, 2).into_scheme();
        let sources: Vec<_> = (0..8).map(|i| i * 6).collect();
        let result = scheduled_multi_spt(&g, &scheme, &sources, 3).unwrap();
        let d = diameter(&g) as usize;
        let sequential = sources.len() * (d + 3);
        assert!(
            result.stats.rounds < sequential,
            "scheduled {} >= sequential {sequential}",
            result.stats.rounds
        );
    }

    #[test]
    fn single_source_degenerates_to_lemma34() {
        let g = generators::grid(4, 4);
        let scheme = RandomGridAtw::theorem20(&g, 4).into_scheme();
        let multi = scheduled_multi_spt(&g, &scheme, &[0], 5).unwrap();
        let single = crate::distributed_spt(&g, &scheme, 0).unwrap();
        assert_eq!(multi.parents[0], single.parent);
    }

    #[test]
    fn union_edge_bound() {
        let g = generators::connected_gnm(25, 60, 6);
        let scheme = RandomGridAtw::theorem20(&g, 6).into_scheme();
        let sources = [0, 5, 10, 15, 20];
        let result = scheduled_multi_spt(&g, &scheme, &sources, 7).unwrap();
        assert!(result.tree_edges.len() <= sources.len() * (g.n() - 1));
        assert!(result.tree_edges.len() >= g.n() - 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::petersen();
        let scheme = RandomGridAtw::theorem20(&g, 8).into_scheme();
        let a = scheduled_multi_spt(&g, &scheme, &[0, 5], 11).unwrap();
        let b = scheduled_multi_spt(&g, &scheme, &[0, 5], 11).unwrap();
        assert_eq!(a.parents, b.parents);
        assert_eq!(a.delays, b.delays);
    }
}
