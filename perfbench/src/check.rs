//! The reference check: re-answers a sample of served queries with the
//! executable specification in `rsp_graph::reference`, outside the timed
//! window, and compares distance, exact cost and the whole parent chain.

use rsp_core::{ExactScheme, Rpts};
use rsp_graph::reference::{ref_dijkstra, RefGraph};
use rsp_graph::{EdgeCostSource, FaultSet};

/// One served answer, as the reader read it.
#[derive(Clone, Debug)]
pub struct Record {
    pub s: usize,
    pub t: usize,
    /// The serving epoch's `base_faults()` followed by the query's `F`.
    pub faults: Vec<usize>,
    pub dist: Option<u32>,
    pub cost: Option<u128>,
    /// `(parent, edge)` steps from `t` back to `s`.
    pub chain: Vec<(usize, usize)>,
}

/// Re-answers every record on `G \ (base ∪ F)` with `ref_dijkstra` over
/// the scheme's directed costs. Returns the number of mismatches.
pub fn reference_check(scheme: &ExactScheme<u128>, records: &[Record]) -> u64 {
    let r = RefGraph::from_graph(scheme.graph());
    let mut mismatches = 0;
    for rec in records {
        let faults = FaultSet::from_edges(rec.faults.iter().copied());
        let mut costs = scheme.directed_costs();
        let spec = ref_dijkstra(&r, rec.s, &faults, |e, a, b| costs.compute(&0u128, e, a, b));
        let mut chain = Vec::new();
        let mut cur = rec.t;
        while let Some((p, e)) = spec.parent[cur] {
            chain.push((p, e));
            cur = p;
        }
        let dist = spec.reached(rec.t).then_some(spec.hops[rec.t]);
        if rec.dist != dist || rec.cost != spec.cost[rec.t] || rec.chain != chain {
            mismatches += 1;
        }
    }
    mismatches
}
