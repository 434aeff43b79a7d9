//! Lemma 34: distributed shortest-path tree under a tiebreaking weight
//! function, in `O(D)` rounds with `O(1)` messages per edge.
//!
//! Because a tiebreaking weight function only perturbs weights *within* a
//! hop class, the SPT of `G*` is layered exactly like a BFS tree: all
//! vertices at unweighted distance `k` from the source settle in wave
//! `k`. The protocol is therefore BFS flooding where each settled vertex
//! announces its exact perturbed distance once, and an unsettled vertex
//! picks as parent the announcing neighbor minimizing
//! `dist*(s, w) + ω(w, v)` — each vertex announces exactly once, so each
//! edge carries at most two messages in the entire run.

use std::collections::HashMap;

use rsp_core::ExactScheme;
use rsp_graph::{EdgeId, Graph, Vertex};

use crate::sim::{MsgSize, Network, NodeCtx, Outbox, Program, RunStats};

/// The single message of the protocol: "my exact perturbed distance from
/// the source is `dist`".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SptMsg {
    /// Scaled exact distance `dist*(s, v)`.
    pub dist: u128,
}

impl MsgSize for SptMsg {
    fn bits(&self) -> usize {
        (128 - self.dist.leading_zeros() as usize).max(1)
    }
}

/// Core per-node SPT state, shared between the single-instance program and
/// the multi-instance scheduler.
#[derive(Clone, Debug)]
pub(crate) struct SptState {
    /// Scaled cost of traversing the incident edge *from* each neighbor
    /// into this node — `ω(w, v)` with `v` = this node.
    pub(crate) weight_in: HashMap<Vertex, u128>,
    pub(crate) dist: Option<u128>,
    pub(crate) parent: Option<Vertex>,
    pub(crate) announced: bool,
}

impl SptState {
    pub(crate) fn source() -> Self {
        SptState { weight_in: HashMap::new(), dist: Some(0), parent: None, announced: false }
    }

    pub(crate) fn node() -> Self {
        SptState { weight_in: HashMap::new(), dist: None, parent: None, announced: false }
    }

    /// Processes announcements, keeping the exact minimum; returns the
    /// distance to (re-)announce if the estimate is new or improved.
    ///
    /// In the lone-instance setting announcements arrive in perfect BFS
    /// waves and no estimate ever improves after settling — each node
    /// announces exactly once, which is Lemma 34's `O(1)` messages per
    /// edge. Under the random-delay scheduler queueing can skew waves, so
    /// the state is written to converge under arbitrary delays
    /// (distance-vector style): any improvement triggers one
    /// re-announcement, and exact unique weights guarantee the fixpoint is
    /// the centralized SPT.
    pub(crate) fn on_round(&mut self, inbox: &[(Vertex, u128)]) -> Option<u128> {
        let mut improved = false;
        for &(from, d) in inbox {
            let w =
                *self.weight_in.get(&from).expect("announcements only arrive over incident edges");
            let cand = d + w;
            if self.dist.is_none() || cand < self.dist.expect("checked") {
                self.dist = Some(cand);
                self.parent = Some(from);
                improved = true;
            }
        }
        if self.dist.is_some() && (!self.announced || improved) {
            self.announced = true;
            self.dist
        } else {
            None
        }
    }
}

/// The per-node program for one SPT construction.
#[derive(Clone, Debug)]
pub struct SptProgram {
    state: SptState,
}

impl Program<SptMsg> for SptProgram {
    fn step(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Vertex, SptMsg)], out: &mut Outbox<SptMsg>) {
        let plain: Vec<(Vertex, u128)> = inbox.iter().map(|&(f, m)| (f, m.dist)).collect();
        if let Some(dist) = self.state.on_round(&plain) {
            for &nb in ctx.neighbors {
                out.send(nb, SptMsg { dist });
            }
        }
    }

    fn pending(&self, _round: usize) -> bool {
        // Only an unannounced settled node (the source at round 0) acts
        // spontaneously.
        self.state.dist.is_some() && !self.state.announced
    }
}

/// Output of [`distributed_spt`].
#[derive(Clone, Debug)]
pub struct DistributedSptResult {
    /// Parent of each vertex in the constructed tree.
    pub parent: Vec<Option<Vertex>>,
    /// Exact perturbed distance of each vertex (scaled), `None` if
    /// unreachable.
    pub dist: Vec<Option<u128>>,
    /// The tree's edge ids in the host graph.
    pub tree_edges: Vec<EdgeId>,
    /// Round/message statistics of the run.
    pub stats: RunStats,
}

/// Builds the per-node incident weight tables from a scheme.
pub(crate) fn weight_tables(g: &Graph, scheme: &ExactScheme<u128>) -> Vec<HashMap<Vertex, u128>> {
    g.vertices()
        .map(|v| g.neighbors(v).map(|(w, e)| (w, scheme.edge_cost(e, w, v))).collect())
        .collect()
}

/// Runs the Lemma 34 protocol: an SPT rooted at `source` under the exact
/// weights of `scheme`, distributedly.
///
/// # Errors
///
/// Propagates [`crate::CongestionError`] (the protocol itself never
/// violates the quota; an error indicates a bug).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn distributed_spt(
    g: &Graph,
    scheme: &ExactScheme<u128>,
    source: Vertex,
) -> Result<DistributedSptResult, crate::CongestionError> {
    assert!(source < g.n(), "source out of range");
    let mut tables = weight_tables(g, scheme);
    let programs: Vec<SptProgram> = g
        .vertices()
        .map(|v| {
            let mut state = if v == source { SptState::source() } else { SptState::node() };
            state.weight_in = std::mem::take(&mut tables[v]);
            SptProgram { state }
        })
        .collect();
    let mut net = Network::new(g, programs);
    let stats = net.run(2 * g.n() + 4)?;
    let programs = net.into_programs();
    let parent: Vec<Option<Vertex>> = programs.iter().map(|p| p.state.parent).collect();
    let dist: Vec<Option<u128>> = programs.iter().map(|p| p.state.dist).collect();
    let tree_edges = parent
        .iter()
        .enumerate()
        .filter_map(|(v, p)| p.map(|u| g.edge_between(u, v).expect("tree edges exist")))
        .collect();
    Ok(DistributedSptResult { parent, dist, tree_edges, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_core::RandomGridAtw;
    use rsp_graph::SelectedTree;
    use rsp_graph::{diameter, generators, FaultSet};

    fn check_matches_centralized(g: &Graph, seed: u64, source: Vertex) {
        let scheme = RandomGridAtw::theorem20(g, seed).into_scheme();
        let result = distributed_spt(g, &scheme, source).unwrap();
        let central = scheme.spt(source, &FaultSet::empty());
        for v in g.vertices() {
            assert_eq!(result.dist[v].as_ref(), central.cost(v), "dist of {v}");
            if v != source {
                assert_eq!(result.parent[v], central.parent(v).map(|(p, _)| p), "parent of {v}");
            }
        }
    }

    #[test]
    fn matches_centralized_on_grid() {
        let g = generators::grid(4, 5);
        check_matches_centralized(&g, 1, 0);
        check_matches_centralized(&g, 1, 13);
    }

    #[test]
    fn matches_centralized_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::connected_gnm(40, 100, seed);
            check_matches_centralized(&g, seed + 10, (seed as usize * 7) % 40);
        }
    }

    #[test]
    fn lemma34_round_and_message_bounds() {
        let g = generators::torus(5, 5);
        let scheme = RandomGridAtw::theorem20(&g, 5).into_scheme();
        let result = distributed_spt(&g, &scheme, 0).unwrap();
        let d = diameter(&g) as usize;
        assert!(
            result.stats.rounds <= d + 3,
            "O(D) rounds: got {} for D = {d}",
            result.stats.rounds
        );
        assert!(
            result.stats.max_messages_per_edge <= 2,
            "O(1) messages per edge: got {}",
            result.stats.max_messages_per_edge
        );
    }

    #[test]
    fn tree_spans_component() {
        let g = generators::petersen();
        let scheme = RandomGridAtw::theorem20(&g, 7).into_scheme();
        let result = distributed_spt(&g, &scheme, 3).unwrap();
        assert_eq!(result.tree_edges.len(), g.n() - 1);
        assert!(result.dist.iter().all(|d| d.is_some()));
    }

    #[test]
    fn message_width_is_logarithmic() {
        // Scaled perturbed distances fit comfortably in O(log n + log K)
        // bits; with the Corollary 22 grid this is the paper's O(f log n).
        let g = generators::grid(5, 5);
        let atw = RandomGridAtw::corollary22(&g, 1, 1, 2);
        let bits_per_weight = atw.bits_per_weight();
        let scheme = atw.into_scheme();
        let result = distributed_spt(&g, &scheme, 0).unwrap();
        let bound = bits_per_weight + 2 * (usize::BITS - g.n().leading_zeros()) as usize;
        assert!(
            result.stats.max_message_bits <= bound,
            "message bits {} exceed O(f log n) bound {bound}",
            result.stats.max_message_bits
        );
    }
}
