//! The dual routing tables of the paper's MPLS deployment sketch.

use rsp_core::Rpts;
use rsp_graph::{FaultSet, Graph, NextHopTable, Path, SelectedTree, Vertex};

/// The two routing tables of the restorable MPLS deployment.
///
/// `forward` encodes `π`: entry `(s, t)` is the first hop of `π(s, t)`.
/// `reverse` encodes `π̄(·, t)`: entry `(u, t)` is `u`'s parent in the
/// selected tree rooted at `t`, so following it walks `u ⇝ t` along
/// `reverse(π(t, u))`. Consistency of the scheme (Definition 14) is what
/// makes both tables loop-free.
#[derive(Clone, Debug)]
pub struct DualTables {
    forward: NextHopTable,
    reverse: NextHopTable,
}

impl DualTables {
    /// Builds both tables from a scheme by computing the selected tree of
    /// every source (`O(n)` tree computations).
    pub fn build<S: Rpts>(scheme: &S) -> Self {
        let g = scheme.graph();
        let n = g.n();
        let empty = FaultSet::empty();
        let mut forward = NextHopTable::new(n);
        let mut reverse = NextHopTable::new(n);
        for root in g.vertices() {
            let tree = scheme.tree_from(root, &empty);
            for v in g.vertices() {
                if let Some((parent, _)) = tree.parent(v) {
                    // π(root, v)'s last hop is parent→v; the *reverse*
                    // path v ⇝ root therefore starts by going to parent.
                    reverse.set(v, root, parent);
                }
            }
            // Forward entries: first hop of π(root, v) for every v; walk
            // the tree once, propagating the first hop downward.
            let mut first_hop: Vec<Option<Vertex>> = vec![None; n];
            let mut order: Vec<Vertex> = g.vertices().filter(|&v| tree.dist(v).is_some()).collect();
            order.sort_by_key(|&v| tree.dist(v).expect("filtered reachable"));
            for &v in &order {
                if v == root {
                    continue;
                }
                let (p, _) = tree.parent(v).expect("reachable non-root");
                first_hop[v] = if p == root { Some(v) } else { first_hop[p] };
                forward.set(root, v, first_hop[v].expect("propagated"));
            }
        }
        DualTables { forward, reverse }
    }

    /// The forward table (`π`).
    pub fn forward(&self) -> &NextHopTable {
        &self.forward
    }

    /// The reverse table (`π̄`).
    pub fn reverse(&self) -> &NextHopTable {
        &self.reverse
    }

    /// Routes `s ⇝ x` along the forward table, i.e. along `π(s, x)`.
    pub fn route_forward(&self, g: &Graph, s: Vertex, x: Vertex) -> Option<Path> {
        self.forward.route(g, s, x)
    }

    /// Routes `x ⇝ t` along the reverse table, i.e. along
    /// `reverse(π(t, x))`.
    pub fn route_reverse(&self, g: &Graph, x: Vertex, t: Vertex) -> Option<Path> {
        self.reverse.route(g, x, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_core::RandomGridAtw;
    use rsp_graph::generators;

    #[test]
    fn forward_routes_are_selected_paths() {
        let g = generators::grid(3, 4);
        let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
        let tables = DualTables::build(&scheme);
        let empty = FaultSet::empty();
        for s in g.vertices() {
            for t in g.vertices() {
                let expected = scheme.path(s, t, &empty).expect("connected");
                let routed = tables.route_forward(&g, s, t).expect("routed");
                assert_eq!(routed, expected, "pair ({s},{t})");
            }
        }
    }

    #[test]
    fn reverse_routes_are_reversed_selected_paths() {
        let g = generators::petersen();
        let scheme = RandomGridAtw::theorem20(&g, 2).into_scheme();
        let tables = DualTables::build(&scheme);
        let empty = FaultSet::empty();
        for x in g.vertices() {
            for t in g.vertices() {
                let expected = scheme.path(t, x, &empty).expect("connected").reversed();
                let routed = tables.route_reverse(&g, x, t).expect("routed");
                assert_eq!(routed, expected, "pair ({x},{t})");
            }
        }
    }

    #[test]
    fn forward_and_reverse_may_differ() {
        // Asymmetry in action: π(s, t) and reverse(π(t, s)) are
        // independent selections and differ somewhere on a tie-rich graph.
        let g = generators::grid(4, 4);
        let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
        let tables = DualTables::build(&scheme);
        let mut differs = false;
        for s in g.vertices() {
            for t in g.vertices() {
                let f = tables.route_forward(&g, s, t).expect("routed");
                let r = tables.route_reverse(&g, s, t).expect("routed");
                assert_eq!(f.hops(), r.hops(), "both are shortest");
                if f != r {
                    differs = true;
                }
            }
        }
        assert!(differs, "expected at least one asymmetric selection");
    }
}
