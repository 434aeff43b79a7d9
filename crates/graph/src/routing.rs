//! Next-hop routing tables.
//!
//! Section 2 of the paper points out that *consistency* (Definition 14) is
//! exactly the property that lets selected shortest paths be encoded in a
//! routing table: a matrix whose `(s, t)` entry holds the next hop on the
//! selected `s ⇝ t` path. This module provides that matrix; the MPLS crate
//! builds its label-switched forwarding on top of it.

use crate::graph::{Graph, Vertex};
use crate::path::Path;

/// A next-hop routing table: for each ordered pair `(s, t)`, the first hop
/// on the selected `s ⇝ t` path.
///
/// Built from per-source shortest-path trees via [`NextHopTable::from_paths`]
/// or filled incrementally. Routing loops are possible if the table is
/// populated from an *inconsistent* path selection; [`NextHopTable::route`]
/// guards against them with a hop budget.
///
/// # Examples
///
/// ```
/// use rsp_graph::{generators, bfs, FaultSet, NextHopTable, SelectedTree};
///
/// let g = generators::path_graph(4);
/// let paths = g.vertices().flat_map(|s| {
///     let t = bfs(&g, s, &FaultSet::empty());
///     g.vertices().filter_map(move |v| t.path_to(v))
/// });
/// let table = NextHopTable::from_paths(g.n(), paths);
/// let route = table.route(&g, 0, 3).unwrap();
/// assert_eq!(route.vertices(), &[0, 1, 2, 3]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NextHopTable {
    n: usize,
    /// Row-major `n × n`; entry `(s, t)` is the next hop from `s` toward `t`.
    next: Vec<Option<Vertex>>,
}

impl NextHopTable {
    /// Creates an empty table for `n` vertices.
    pub fn new(n: usize) -> Self {
        NextHopTable { n, next: vec![None; n * n] }
    }

    /// Builds a table from a collection of selected paths.
    ///
    /// For each path `s = v_0, v_1, …, v_k = t`, records `next(s, t) = v_1`.
    /// Only each path's *own* entry is set; callers wanting subpath entries
    /// should pass paths from a consistent scheme for all pairs (which is
    /// what [`NextHopTable::from_consistent_paths`] exploits).
    pub fn from_paths(n: usize, paths: impl IntoIterator<Item = Path>) -> Self {
        let mut table = NextHopTable::new(n);
        for p in paths {
            if p.hops() > 0 {
                table.set(p.source(), p.target(), p.vertices()[1]);
            }
        }
        table
    }

    /// Builds a table from paths selected by a *consistent* scheme,
    /// registering every suffix of every path.
    ///
    /// Consistency (Definition 14) means that if `u` precedes `v` on
    /// `π(s, t)` then `π(u, v)` is the contiguous subpath, so for each path
    /// vertex `v_i` the entry `(v_i, t)` may safely be set to `v_{i+1}`.
    /// This is how a single tree per *target* populates a full column.
    pub fn from_consistent_paths(n: usize, paths: impl IntoIterator<Item = Path>) -> Self {
        let mut table = NextHopTable::new(n);
        for p in paths {
            let verts = p.vertices();
            let t = p.target();
            for w in verts.windows(2) {
                table.set(w[0], t, w[1]);
            }
        }
        table
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sets the next hop from `s` toward `t`.
    ///
    /// # Panics
    ///
    /// Panics if any vertex is out of range.
    pub fn set(&mut self, s: Vertex, t: Vertex, hop: Vertex) {
        assert!(s < self.n && t < self.n && hop < self.n, "vertex out of range");
        self.next[s * self.n + t] = Some(hop);
    }

    /// The next hop from `s` toward `t`, if routed.
    pub fn next_hop(&self, s: Vertex, t: Vertex) -> Option<Vertex> {
        self.next[s * self.n + t]
    }

    /// Follows next hops from `s` to `t`, validating each hop against `g`.
    ///
    /// Returns `None` if some hop is missing, a hop is not an edge of `g`,
    /// or more than `n` hops are taken (a routing loop).
    pub fn route(&self, g: &Graph, s: Vertex, t: Vertex) -> Option<Path> {
        let mut verts = vec![s];
        let mut cur = s;
        while cur != t {
            let hop = self.next_hop(cur, t)?;
            if !g.has_edge(cur, hop) || verts.len() > self.n {
                return None;
            }
            verts.push(hop);
            cur = hop;
        }
        Some(Path::new(verts))
    }

    /// Number of populated entries.
    pub fn populated(&self) -> usize {
        self.next.iter().filter(|e| e.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::generators;
    use crate::{FaultSet, SelectedTree};

    #[test]
    fn route_follows_hops() {
        let g = generators::cycle(5);
        let mut t = NextHopTable::new(5);
        t.set(0, 2, 1);
        t.set(1, 2, 2);
        let p = t.route(&g, 0, 2).unwrap();
        assert_eq!(p.vertices(), &[0, 1, 2]);
    }

    #[test]
    fn missing_entry_fails() {
        let g = generators::cycle(5);
        let t = NextHopTable::new(5);
        assert!(t.route(&g, 0, 2).is_none());
    }

    #[test]
    fn loop_detected() {
        let g = generators::cycle(4);
        let mut t = NextHopTable::new(4);
        t.set(0, 2, 1);
        t.set(1, 2, 0); // 0 → 1 → 0 → …
        assert!(t.route(&g, 0, 2).is_none());
    }

    #[test]
    fn invalid_hop_rejected() {
        let g = generators::path_graph(4);
        let mut t = NextHopTable::new(4);
        t.set(0, 3, 2); // 0-2 is not an edge
        assert!(t.route(&g, 0, 3).is_none());
    }

    #[test]
    fn from_consistent_paths_fills_suffixes() {
        let g = generators::path_graph(4);
        let tree = bfs(&g, 3, &FaultSet::empty());
        // One path 0⇝3 registers suffix entries for 1⇝3 and 2⇝3 too.
        let table =
            NextHopTable::from_consistent_paths(g.n(), [tree.path_to(0).unwrap().reversed()]);
        assert_eq!(table.route(&g, 1, 3).unwrap().vertices(), &[1, 2, 3]);
        assert_eq!(table.populated(), 3);
    }

    #[test]
    fn trivial_route() {
        let g = generators::path_graph(2);
        let t = NextHopTable::new(2);
        let p = t.route(&g, 1, 1).unwrap();
        assert_eq!(p.hops(), 0);
    }
}
