//! The MPLS data plane: hop-by-hop packet forwarding with TTL and
//! failure detection.
//!
//! The control plane (`failover`) computes and installs paths; the data
//! plane walks them one next-hop lookup at a time, the way a
//! label-switched router actually moves traffic. Forwarding a packet
//! over a failed link is detected *at the hop*, which is what triggers
//! restoration in an operational network.

use rsp_graph::{FaultSet, Graph, Path, Vertex};

use crate::table::DualTables;

/// Outcome of forwarding one packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForwardOutcome {
    /// The packet arrived; the walk taken is recorded.
    Delivered {
        /// The hop-by-hop route the packet took.
        route: Path,
    },
    /// A hop's link was down; the packet was dropped at `at` trying to
    /// reach `next`.
    LinkDown {
        /// Where the packet was when forwarding failed.
        at: Vertex,
        /// The dead next hop.
        next: Vertex,
        /// Hops taken before the drop.
        hops_taken: usize,
    },
    /// No table entry for the destination at some hop.
    NoRoute {
        /// Where the lookup failed.
        at: Vertex,
    },
    /// The TTL expired (routing loop or path longer than the budget).
    TtlExpired,
}

/// Forwards one packet from `s` to `t` along the **forward** table,
/// honoring failed links, with a TTL of `2n`.
///
/// This is the data-plane view of the same tables the control plane
/// splices: a packet sent after a failure but *before* restoration is
/// dropped exactly at the dead link.
pub fn forward_packet(
    g: &Graph,
    tables: &DualTables,
    failed: &FaultSet,
    s: Vertex,
    t: Vertex,
) -> ForwardOutcome {
    let ttl = 2 * g.n();
    let mut verts = vec![s];
    let mut cur = s;
    for _ in 0..ttl {
        if cur == t {
            return ForwardOutcome::Delivered { route: Path::new(verts) };
        }
        let Some(next) = tables.forward().next_hop(cur, t) else {
            return ForwardOutcome::NoRoute { at: cur };
        };
        match g.edge_between(cur, next) {
            Some(e) if !failed.contains(e) => {
                verts.push(next);
                cur = next;
            }
            _ => return ForwardOutcome::LinkDown { at: cur, next, hops_taken: verts.len() - 1 },
        }
    }
    ForwardOutcome::TtlExpired
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failover::MplsNetwork;
    use rsp_core::{RandomGridAtw, Rpts};
    use rsp_graph::SelectedTree;
    use rsp_graph::{bfs, generators};

    #[test]
    fn delivery_follows_selected_path() {
        let g = generators::grid(3, 4);
        let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
        let net = MplsNetwork::new(&scheme);
        for t in g.vertices() {
            match forward_packet(&g, net.tables(), &FaultSet::empty(), 0, t) {
                ForwardOutcome::Delivered { route } => {
                    assert_eq!(route, scheme.path(0, t, &FaultSet::empty()).unwrap());
                }
                other => panic!("expected delivery, got {other:?}"),
            }
        }
    }

    #[test]
    fn packet_dropped_at_the_dead_link() {
        let g = generators::cycle(6);
        let scheme = RandomGridAtw::theorem20(&g, 2).into_scheme();
        let net = MplsNetwork::new(&scheme);
        let path = scheme.path(0, 3, &FaultSet::empty()).unwrap();
        let (u, v) = path.steps().nth(1).unwrap(); // second hop
        let failed = FaultSet::single(g.edge_between(u, v).unwrap());
        match forward_packet(&g, net.tables(), &failed, 0, 3) {
            ForwardOutcome::LinkDown { at, next, hops_taken } => {
                assert_eq!((at, next), (u, v));
                assert_eq!(hops_taken, 1);
            }
            other => panic!("expected a drop, got {other:?}"),
        }
    }

    #[test]
    fn restored_lsp_delivers_again() {
        // Full incident lifecycle: forward OK → link dies → drop →
        // control plane splices → forward along the restored path.
        let g = generators::torus(4, 5);
        let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
        let mut net = MplsNetwork::new(&scheme);
        let lsp = net.establish(0, 13).unwrap();
        let first_hop = net.lsp(lsp).unwrap().path().vertices()[1];
        let dead = g.edge_between(0, first_hop).unwrap();
        net.fail_edge(dead);

        // Data plane drops the packet at the dead first hop.
        assert!(matches!(
            forward_packet(&g, net.tables(), net.failed_edges(), 0, 13),
            ForwardOutcome::LinkDown { at: 0, .. }
        ));

        // Control plane splices a replacement from stored tables.
        let report = net.restore(lsp).unwrap();
        assert!(report.restored_path.avoids(&g, net.failed_edges()));

        // Walking the restored path hop-by-hop delivers (manual walk:
        // the restored path is a splice, not a single-table route).
        for (a, b) in report.restored_path.steps() {
            let e = g.edge_between(a, b).unwrap();
            assert!(!net.failed_edges().contains(e));
        }
        assert_eq!(
            report.restored_path.hops() as u32,
            bfs(&g, 0, net.failed_edges()).dist(13).unwrap()
        );
    }

    #[test]
    fn no_route_for_unpopulated_table() {
        let g = generators::path_graph(3);
        let tables = DualTables::build(&RandomGridAtw::theorem20(&g, 4).into_scheme());
        // Deliveries work; now ask a foreign graph with a vertex the
        // table cannot route to: simulate by querying an isolated pair.
        let g2 = rsp_graph::Graph::from_edges(3, [(0, 1)]).unwrap();
        let scheme2 = RandomGridAtw::theorem20(&g2, 5).into_scheme();
        let t2 = DualTables::build(&scheme2);
        assert!(matches!(
            forward_packet(&g2, &t2, &FaultSet::empty(), 0, 2),
            ForwardOutcome::NoRoute { at: 0 }
        ));
        let _ = tables;
    }
}
