//! The labeling scheme of Theorem 30.

use rsp_core::Rpts;
use rsp_graph::{bfs, FaultSet, Graph, GraphBuilder, SelectedTree, Vertex};
use rsp_preserver::ft_bfs_structure;

use crate::bits::{width_for, BitReader, BitWriter};

/// One vertex's label: the bit-packed edge set of its `f`-FT `{v} × V`
/// preserver.
///
/// Layout: `[n : 32][edge count : 32]([endpoint : w][endpoint : w])*` with
/// `w = ⌈log₂ n⌉` — the `O(log n)` bits per edge of the theorem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexLabel {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl VertexLabel {
    /// Exact size in bits — the quantity Theorem 30 bounds.
    pub fn bits(&self) -> usize {
        self.bit_len
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn encode(n: usize, edges: impl Iterator<Item = (Vertex, Vertex)>) -> Self {
        let w = width_for(n);
        let edges: Vec<(Vertex, Vertex)> = edges.collect();
        let mut out = BitWriter::new();
        out.write_bits(n as u64, 32);
        out.write_bits(edges.len() as u64, 32);
        for (u, v) in edges {
            out.write_bits(u as u64, w);
            out.write_bits(v as u64, w);
        }
        let (bytes, bit_len) = out.into_parts();
        VertexLabel { bytes, bit_len }
    }

    /// Decodes the label into `(n, edge list)`.
    ///
    /// Returns `None` if the label is malformed.
    pub fn decode(&self) -> Option<(usize, Vec<(Vertex, Vertex)>)> {
        let mut r = BitReader::new(&self.bytes);
        let n = r.read_bits(32)? as usize;
        let count = r.read_bits(32)? as usize;
        let w = width_for(n);
        let mut edges = Vec::with_capacity(count);
        for _ in 0..count {
            let u = r.read_bits(w)? as usize;
            let v = r.read_bits(w)? as usize;
            edges.push((u, v));
        }
        Some((n, edges))
    }
}

/// An `(f+1)`-FT exact distance labeling (Theorem 30).
///
/// [`DistanceLabeling::query`] recovers `dist_{G\F}(s, t)` for any
/// `|F| ≤ f + 1` from the labels of `s` and `t` and the endpoints of `F`
/// alone — the host graph is not consulted.
#[derive(Clone, Debug)]
pub struct DistanceLabeling {
    n: usize,
    f_supported: usize,
    labels: Vec<VertexLabel>,
}

/// Builds the labeling: each vertex stores its `f`-FT `{v} × V` preserver
/// (so queries tolerate `f + 1` faults, by restorability of the scheme).
///
/// The scheme **must** be a restorable RPTS (any [`rsp_core::ExactScheme`]
/// from an ATW construction); with an arbitrary scheme the two-label union
/// does not earn the extra fault.
pub fn build_labeling<S: Rpts>(scheme: &S, f: usize) -> DistanceLabeling {
    let g = scheme.graph();
    let labels = g
        .vertices()
        .map(|v| {
            let p = ft_bfs_structure(scheme, v, f);
            VertexLabel::encode(g.n(), p.edges().iter().map(|&e| g.endpoints(e)))
        })
        .collect();
    DistanceLabeling { n: g.n(), f_supported: f + 1, labels }
}

impl DistanceLabeling {
    /// Number of labeled vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum number of faults a query may pass (`f + 1`).
    pub fn faults_supported(&self) -> usize {
        self.f_supported
    }

    /// The label of `v`.
    pub fn label(&self, v: Vertex) -> &VertexLabel {
        &self.labels[v]
    }

    /// Size of `v`'s label in bits.
    pub fn label_bits(&self, v: Vertex) -> usize {
        self.labels[v].bits()
    }

    /// The largest label, in bits — the per-vertex size Theorem 30 bounds
    /// by `O(n^{2−1/2^f} log n)`.
    pub fn max_label_bits(&self) -> usize {
        self.labels.iter().map(|l| l.bits()).max().unwrap_or(0)
    }

    /// Total bits across all labels.
    pub fn total_bits(&self) -> usize {
        self.labels.iter().map(|l| l.bits()).sum()
    }

    /// Recovers `dist_{G\F}(s, t)` from the two labels plus the fault
    /// description (edges as endpoint pairs, any orientation).
    ///
    /// Decodes both labels, unions the edge sets, deletes `F`, and runs
    /// BFS — exactly the decoder of Theorem 30. Returns `None` if the
    /// pair is disconnected in `G \ F`.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range, or if more than
    /// [`DistanceLabeling::faults_supported`] faults are passed (the
    /// answer could silently be wrong beyond the supported budget).
    pub fn query(&self, s: Vertex, t: Vertex, faults: &[(Vertex, Vertex)]) -> Option<u32> {
        assert!(s < self.n && t < self.n, "query pair out of range");
        assert!(
            faults.len() <= self.f_supported,
            "labeling supports at most {} faults, got {}",
            self.f_supported,
            faults.len()
        );
        let (n1, edges_s) = self.labels[s].decode().expect("labels are well-formed");
        let (_, edges_t) = self.labels[t].decode().expect("labels are well-formed");
        let mut b = GraphBuilder::new(n1);
        for (u, v) in edges_s.into_iter().chain(edges_t) {
            let _ = b.add_edge_dedup(u, v).expect("label edges are valid");
        }
        let union = b.build();
        let fault_set: FaultSet =
            faults.iter().filter_map(|&(u, v)| union.edge_between(u, v)).collect();
        bfs(&union, s, &fault_set).dist(t)
    }
}

#[allow(unused_imports)]
use rsp_graph::Path; // rustdoc link target
#[allow(unused_imports)]
use Graph as _;

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_core::RandomGridAtw;
    use rsp_graph::generators;

    fn faults_as_pairs(g: &Graph, f: &FaultSet) -> Vec<(Vertex, Vertex)> {
        f.iter().map(|e| g.endpoints(e)).collect()
    }

    #[test]
    fn single_fault_queries_match_truth() {
        let g = generators::connected_gnm(16, 36, 1);
        let scheme = RandomGridAtw::theorem20(&g, 1).into_scheme();
        let labeling = build_labeling(&scheme, 0);
        for (e, _, _) in g.edges() {
            let fs = FaultSet::single(e);
            let pairs = faults_as_pairs(&g, &fs);
            for s in [0, 5, 9] {
                let truth = bfs(&g, s, &fs);
                for t in g.vertices() {
                    assert_eq!(labeling.query(s, t, &pairs), truth.dist(t), "({s},{t}) e={e}");
                }
            }
        }
    }

    #[test]
    fn two_fault_queries_match_truth() {
        let g = generators::connected_gnm(12, 26, 2);
        let scheme = RandomGridAtw::theorem20(&g, 2).into_scheme();
        let labeling = build_labeling(&scheme, 1); // supports 2 faults
        let doubles = rsp_core::verify::all_fault_sets(g.m(), 2);
        for fs in doubles.iter().take(60) {
            let pairs = faults_as_pairs(&g, fs);
            for s in [0, 7] {
                let truth = bfs(&g, s, fs);
                for t in g.vertices() {
                    assert_eq!(labeling.query(s, t, &pairs), truth.dist(t));
                }
            }
        }
    }

    #[test]
    fn fault_free_queries() {
        let g = generators::grid(3, 4);
        let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
        let labeling = build_labeling(&scheme, 0);
        let truth = bfs(&g, 0, &FaultSet::empty());
        for t in g.vertices() {
            assert_eq!(labeling.query(0, t, &[]), truth.dist(t));
        }
    }

    #[test]
    fn label_sizes_are_accounted_in_bits() {
        let g = generators::petersen();
        let scheme = RandomGridAtw::theorem20(&g, 4).into_scheme();
        let labeling = build_labeling(&scheme, 0);
        // n=10 needs 4-bit endpoints: 64 header + 8·|edges| bits.
        for v in g.vertices() {
            let bits = labeling.label_bits(v);
            assert_eq!((bits - 64) % 8, 0);
            assert!(bits <= labeling.max_label_bits());
        }
        assert_eq!(
            labeling.total_bits(),
            g.vertices().map(|v| labeling.label_bits(v)).sum::<usize>()
        );
    }

    #[test]
    fn labels_round_trip() {
        let g = generators::cycle(6);
        let scheme = RandomGridAtw::theorem20(&g, 5).into_scheme();
        let labeling = build_labeling(&scheme, 1);
        let (n, edges) = labeling.label(0).decode().unwrap();
        assert_eq!(n, 6);
        assert!(!edges.is_empty());
        for (u, v) in edges {
            assert!(g.has_edge(u, v), "decoded edges exist in G");
        }
    }

    #[test]
    #[should_panic(expected = "supports at most")]
    fn over_budget_queries_rejected() {
        let g = generators::cycle(5);
        let scheme = RandomGridAtw::theorem20(&g, 6).into_scheme();
        let labeling = build_labeling(&scheme, 0);
        let _ = labeling.query(0, 2, &[(0, 1), (1, 2)]);
    }

    #[test]
    fn disconnecting_faults_return_none() {
        let g = generators::path_graph(5);
        let scheme = RandomGridAtw::theorem20(&g, 7).into_scheme();
        let labeling = build_labeling(&scheme, 0);
        assert_eq!(labeling.query(0, 4, &[(2, 3)]), None);
    }
}
