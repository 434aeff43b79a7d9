//! The failover engine: splice replacement paths from the dual tables.

use std::error::Error;
use std::fmt;

use rsp_core::Rpts;
use rsp_graph::{bfs, EdgeId, FaultSet, Graph, Path, SelectedTree, Vertex};

use crate::table::DualTables;

/// Identifier of an established label-switched path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LspId(usize);

/// Errors of the MPLS control plane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MplsError {
    /// The endpoints are not connected (possibly after failures).
    Disconnected {
        /// Requested ingress.
        s: Vertex,
        /// Requested egress.
        t: Vertex,
    },
    /// No concatenation of stored paths avoids the failed links — the
    /// Figure 1 failure mode, impossible under a restorable scheme.
    RestorationFailed {
        /// The affected LSP's ingress.
        s: Vertex,
        /// The affected LSP's egress.
        t: Vertex,
    },
    /// Unknown LSP id.
    UnknownLsp(LspId),
}

impl fmt::Display for MplsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MplsError::Disconnected { s, t } => write!(f, "no surviving path from {s} to {t}"),
            MplsError::RestorationFailed { s, t } => {
                write!(f, "no spliced replacement path from {s} to {t} (non-restorable tables)")
            }
            MplsError::UnknownLsp(id) => write!(f, "unknown LSP {id:?}"),
        }
    }
}

impl Error for MplsError {}

/// An established label-switched path.
#[derive(Clone, Debug)]
pub struct Lsp {
    id: LspId,
    s: Vertex,
    t: Vertex,
    path: Path,
}

impl Lsp {
    /// The LSP's id.
    pub fn id(&self) -> LspId {
        self.id
    }

    /// Ingress and egress.
    pub fn endpoints(&self) -> (Vertex, Vertex) {
        (self.s, self.t)
    }

    /// The currently installed path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Outcome of a successful restoration.
#[derive(Clone, Debug)]
pub struct RestorationReport {
    /// The midpoint `x` at which the two stored paths were spliced.
    pub midpoint: Vertex,
    /// The new installed path `π(s, x) ∘ reverse(π(t, x))`.
    pub restored_path: Path,
    /// Ground-truth replacement distance `dist_{G\F}(s, t)` (the spliced
    /// path always matches it under a restorable scheme).
    pub optimal_hops: u32,
}

/// A simulated MPLS network: graph, dual routing tables, established
/// LSPs, and the set of currently failed links.
pub struct MplsNetwork {
    graph: Graph,
    tables: DualTables,
    lsps: Vec<Lsp>,
    failed: FaultSet,
}

impl MplsNetwork {
    /// Builds the network and its dual tables from a tiebreaking scheme.
    ///
    /// Use a restorable scheme (an ATW [`rsp_core::ExactScheme`]) for
    /// guaranteed failover; an arbitrary scheme (e.g.
    /// [`rsp_core::BfsScheme`]) reproduces the failure mode.
    pub fn new<S: Rpts>(scheme: &S) -> Self {
        MplsNetwork {
            graph: scheme.graph().clone(),
            tables: DualTables::build(scheme),
            lsps: Vec::new(),
            failed: FaultSet::empty(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The dual routing tables.
    pub fn tables(&self) -> &DualTables {
        &self.tables
    }

    /// Currently failed links.
    pub fn failed_edges(&self) -> &FaultSet {
        &self.failed
    }

    /// Establishes an LSP from `s` to `t` along the forward table.
    ///
    /// # Errors
    ///
    /// Returns [`MplsError::Disconnected`] if no route exists.
    pub fn establish(&mut self, s: Vertex, t: Vertex) -> Result<LspId, MplsError> {
        let path =
            self.tables.route_forward(&self.graph, s, t).ok_or(MplsError::Disconnected { s, t })?;
        let id = LspId(self.lsps.len());
        self.lsps.push(Lsp { id, s, t, path });
        Ok(id)
    }

    /// Looks up an LSP.
    pub fn lsp(&self, id: LspId) -> Option<&Lsp> {
        self.lsps.get(id.0)
    }

    /// All LSPs whose installed path uses a currently failed link.
    pub fn affected_lsps(&self) -> Vec<LspId> {
        self.lsps
            .iter()
            .filter(|l| !l.path.avoids(&self.graph, &self.failed))
            .map(|l| l.id)
            .collect()
    }

    /// Marks a link as failed (data plane event).
    pub fn fail_edge(&mut self, e: EdgeId) {
        self.failed = self.failed.with(e);
    }

    /// Repairs a link.
    pub fn repair_edge(&mut self, e: EdgeId) {
        self.failed = self.failed.without(e);
    }

    /// Restores an LSP by **path concatenation**: scans midpoints `x`,
    /// splices the stored `π(s, x)` (forward table) with the stored
    /// `reverse(π(t, x))` (reverse table), and installs the shortest
    /// splice that avoids all failed links.
    ///
    /// No shortest-path recomputation happens: only table lookups. Under a
    /// restorable scheme the installed path provably has optimal
    /// replacement length for a single failed link.
    ///
    /// # Errors
    ///
    /// [`MplsError::UnknownLsp`] for a bad id;
    /// [`MplsError::Disconnected`] if no replacement exists at all;
    /// [`MplsError::RestorationFailed`] if concatenation cannot realize
    /// one (non-restorable tables).
    pub fn restore(&mut self, id: LspId) -> Result<RestorationReport, MplsError> {
        let lsp = self.lsps.get(id.0).ok_or(MplsError::UnknownLsp(id))?;
        let (s, t) = (lsp.s, lsp.t);
        let optimal =
            bfs(&self.graph, s, &self.failed).dist(t).ok_or(MplsError::Disconnected { s, t })?;

        let mut best: Option<(Vertex, Path)> = None;
        for x in self.graph.vertices() {
            let (Some(p1), Some(p2)) = (
                self.tables.route_forward(&self.graph, s, x),
                self.tables.route_reverse(&self.graph, x, t),
            ) else {
                continue;
            };
            if !p1.avoids(&self.graph, &self.failed) || !p2.avoids(&self.graph, &self.failed) {
                continue;
            }
            let spliced = p1.concat(&p2).expect("both meet at x");
            if best.as_ref().is_none_or(|(_, b)| spliced.hops() < b.hops()) {
                best = Some((x, spliced));
            }
        }
        let (midpoint, restored_path) = best.ok_or(MplsError::RestorationFailed { s, t })?;
        self.lsps[id.0].path = restored_path.clone();
        Ok(RestorationReport { midpoint, restored_path, optimal_hops: optimal })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_core::{BfsOrder, BfsScheme, RandomGridAtw};
    use rsp_graph::generators;

    #[test]
    fn establish_and_failover_on_cycle() {
        let g = generators::cycle(8);
        let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
        let mut net = MplsNetwork::new(&scheme);
        let lsp = net.establish(0, 4).unwrap();
        assert_eq!(net.lsp(lsp).unwrap().path().hops(), 4);
        // Fail the first hop of the installed path.
        let hop1 = net.lsp(lsp).unwrap().path().vertices()[1];
        let e = g.edge_between(0, hop1).unwrap();
        net.fail_edge(e);
        assert_eq!(net.affected_lsps(), vec![lsp]);
        let report = net.restore(lsp).unwrap();
        assert_eq!(report.restored_path.hops(), 4, "reroute the other way");
        assert_eq!(report.restored_path.hops() as u32, report.optimal_hops);
        assert!(report.restored_path.avoids(&g, net.failed_edges()));
        assert!(net.affected_lsps().is_empty(), "restored LSP is clean");
    }

    #[test]
    fn restorable_scheme_restores_every_single_failure() {
        let g = generators::grid(4, 4);
        let scheme = RandomGridAtw::theorem20(&g, 2).into_scheme();
        for (e, _, _) in g.edges() {
            let mut net = MplsNetwork::new(&scheme);
            let lsp = net.establish(0, 15).unwrap();
            net.fail_edge(e);
            let report = net.restore(lsp).expect("restorable tables never fail");
            assert_eq!(report.restored_path.hops() as u32, report.optimal_hops);
        }
    }

    #[test]
    fn naive_tables_can_fail_restoration() {
        // The operational version of Figure 1: BFS tables on a tie-rich
        // graph strand some (s, t, e) instance.
        let g = generators::grid(3, 3);
        let scheme = BfsScheme::new(&g, BfsOrder::Ascending);
        let mut failures = 0;
        for (e, _, _) in g.edges() {
            for s in g.vertices() {
                for t in g.vertices() {
                    if s == t {
                        continue;
                    }
                    let mut net = MplsNetwork::new(&scheme);
                    let Ok(lsp) = net.establish(s, t) else { continue };
                    net.fail_edge(e);
                    match net.restore(lsp) {
                        Err(MplsError::RestorationFailed { .. }) => failures += 1,
                        Ok(r) => {
                            // Any splice found must still avoid faults…
                            assert!(r.restored_path.avoids(&g, net.failed_edges()));
                        }
                        Err(MplsError::Disconnected { .. }) => {}
                        Err(e) => panic!("unexpected error {e}"),
                    }
                }
            }
        }
        assert!(failures > 0, "expected Figure 1 failures with naive tables");
    }

    #[test]
    fn suboptimal_splice_impossible_for_restorable_single_fault() {
        // Under a restorable scheme the best splice has exactly the
        // replacement distance for any single fault — Theorem 2.
        let g = generators::petersen();
        let scheme = RandomGridAtw::theorem20(&g, 4).into_scheme();
        for (e, _, _) in g.edges() {
            for (s, t) in [(0, 7), (2, 9), (5, 1)] {
                let mut net = MplsNetwork::new(&scheme);
                let lsp = net.establish(s, t).unwrap();
                net.fail_edge(e);
                let r = net.restore(lsp).unwrap();
                assert_eq!(r.restored_path.hops() as u32, r.optimal_hops);
            }
        }
    }

    #[test]
    fn repair_clears_failures() {
        let g = generators::cycle(5);
        let scheme = RandomGridAtw::theorem20(&g, 5).into_scheme();
        let mut net = MplsNetwork::new(&scheme);
        net.fail_edge(2);
        assert_eq!(net.failed_edges().len(), 1);
        net.repair_edge(2);
        assert!(net.failed_edges().is_empty());
    }

    #[test]
    fn unknown_lsp_and_disconnection_errors() {
        let g = generators::path_graph(4);
        let scheme = RandomGridAtw::theorem20(&g, 6).into_scheme();
        let mut net = MplsNetwork::new(&scheme);
        assert_eq!(net.restore(LspId(9)).unwrap_err(), MplsError::UnknownLsp(LspId(9)));
        let lsp = net.establish(0, 3).unwrap();
        net.fail_edge(g.edge_between(1, 2).unwrap());
        assert!(matches!(net.restore(lsp).unwrap_err(), MplsError::Disconnected { .. }));
    }
}
