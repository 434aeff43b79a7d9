//! Simple paths as vertex sequences, with the concatenation operations the
//! restoration lemma machinery needs.

use crate::graph::{EdgeId, Graph, Vertex};

/// A walk in a graph, stored as its vertex sequence.
///
/// A path with `k` edges has `k + 1` vertices; a zero-edge path (a single
/// vertex, arising as `π(s, s)`) is represented by a one-element sequence.
/// `Path` does not hold a graph reference; validity against a particular
/// graph is checked by [`Path::is_valid_in`].
///
/// The paper's restoration-by-concatenation builds `s ⇝ t` replacement paths
/// as `π(s, x)` followed by the *reverse* of `π(t, x)`; [`Path::join_at`]
/// implements exactly that operation.
///
/// # Examples
///
/// ```
/// use rsp_graph::{Graph, Path};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let p = Path::new(vec![0, 1, 2]);
/// assert_eq!(p.hops(), 2);
/// assert!(p.is_valid_in(&g));
///
/// let q = Path::new(vec![3, 2]); // π(t, x) with t = 3, x = 2
/// let joined = p.join_at(&q).unwrap(); // 0 → 1 → 2 → 3
/// assert_eq!(joined.vertices(), &[0, 1, 2, 3]);
/// # Ok::<(), rsp_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Path {
    verts: Vec<Vertex>,
}

impl Path {
    /// Creates a path from a vertex sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty; use a single-vertex sequence for the
    /// trivial path.
    pub fn new(verts: Vec<Vertex>) -> Self {
        assert!(!verts.is_empty(), "a path has at least one vertex");
        Path { verts }
    }

    /// The trivial zero-edge path at `v`.
    pub fn trivial(v: Vertex) -> Self {
        Path { verts: vec![v] }
    }

    /// The vertex sequence.
    pub fn vertices(&self) -> &[Vertex] {
        &self.verts
    }

    /// Number of edges (hops).
    pub fn hops(&self) -> usize {
        self.verts.len() - 1
    }

    /// First vertex.
    pub fn source(&self) -> Vertex {
        self.verts[0]
    }

    /// Last vertex.
    pub fn target(&self) -> Vertex {
        *self.verts.last().expect("paths are nonempty")
    }

    /// Returns the reversed path.
    pub fn reversed(&self) -> Path {
        let mut verts = self.verts.clone();
        verts.reverse();
        Path { verts }
    }

    /// Iterates over consecutive vertex pairs (the path's directed edges).
    pub fn steps(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.verts.windows(2).map(|w| (w[0], w[1]))
    }

    /// Returns `true` iff every consecutive pair is an edge of `g`.
    pub fn is_valid_in(&self, g: &Graph) -> bool {
        self.verts.iter().all(|&v| v < g.n()) && self.steps().all(|(u, v)| g.has_edge(u, v))
    }

    /// Returns `true` iff no vertex repeats.
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.verts.len());
        self.verts.iter().all(|&v| seen.insert(v))
    }

    /// Resolves the path's edges to edge ids in `g`.
    ///
    /// Returns `None` if some step is not an edge of `g`.
    pub fn edge_ids(&self, g: &Graph) -> Option<Vec<EdgeId>> {
        self.steps().map(|(u, v)| g.edge_between(u, v)).collect()
    }

    /// Returns `true` iff the path uses edge `e` of `g`.
    pub fn uses_edge(&self, g: &Graph, e: EdgeId) -> bool {
        let (a, b) = g.endpoints(e);
        self.steps().any(|(u, v)| (u == a && v == b) || (u == b && v == a))
    }

    /// Returns `true` iff the path avoids every edge in `faults`.
    pub fn avoids(&self, g: &Graph, faults: &crate::FaultSet) -> bool {
        faults.iter().all(|e| !self.uses_edge(g, e))
    }

    /// Concatenates `self` (ending at `x`) with the reverse of `other`
    /// (which must also end at `x`), producing a `self.source() ⇝
    /// other.source()` walk through the shared endpoint `x`.
    ///
    /// This is the restoration lemma's path composition: given the selected
    /// paths `π(s, x)` and `π(t, x)`, `π(s, x).join_at(&π(t, x))` is the
    /// candidate `s ⇝ t` replacement path.
    ///
    /// Returns `None` if the two paths do not end at the same vertex.
    pub fn join_at(&self, other: &Path) -> Option<Path> {
        if self.target() != other.target() {
            return None;
        }
        let mut verts = self.verts.clone();
        verts.extend(other.verts.iter().rev().skip(1));
        Some(Path { verts })
    }

    /// Appends `other` to `self`; `other` must start where `self` ends.
    ///
    /// Returns `None` on endpoint mismatch.
    pub fn concat(&self, other: &Path) -> Option<Path> {
        if self.target() != other.source() {
            return None;
        }
        let mut verts = self.verts.clone();
        verts.extend(other.verts.iter().skip(1));
        Some(Path { verts })
    }

    /// Returns the contiguous subpath from position `i` to position `j`
    /// (inclusive, vertex indices).
    ///
    /// # Panics
    ///
    /// Panics if `i > j` or `j` is out of range.
    pub fn subpath(&self, i: usize, j: usize) -> Path {
        assert!(i <= j && j < self.verts.len(), "invalid subpath range {i}..={j}");
        Path { verts: self.verts[i..=j].to_vec() }
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, v) in self.verts.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultSet;

    fn path_graph5() -> Graph {
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn trivial_path() {
        let p = Path::trivial(3);
        assert_eq!(p.hops(), 0);
        assert_eq!(p.source(), 3);
        assert_eq!(p.target(), 3);
        assert!(p.is_simple());
    }

    #[test]
    fn validity() {
        let g = path_graph5();
        assert!(Path::new(vec![0, 1, 2]).is_valid_in(&g));
        assert!(!Path::new(vec![0, 2]).is_valid_in(&g));
        assert!(!Path::new(vec![0, 9]).is_valid_in(&g));
    }

    #[test]
    fn join_at_shared_midpoint() {
        let p = Path::new(vec![0, 1, 2]);
        let q = Path::new(vec![4, 3, 2]);
        let joined = p.join_at(&q).unwrap();
        assert_eq!(joined.vertices(), &[0, 1, 2, 3, 4]);
        assert!(p.join_at(&Path::new(vec![4, 3])).is_none());
    }

    #[test]
    fn join_at_trivial_midpoint() {
        // x = t: π(t, t) is trivial, join yields π(s, t) itself.
        let p = Path::new(vec![0, 1, 2]);
        let q = Path::trivial(2);
        assert_eq!(p.join_at(&q).unwrap(), p);
    }

    #[test]
    fn concat_endpoints() {
        let p = Path::new(vec![0, 1]);
        let q = Path::new(vec![1, 2, 3]);
        assert_eq!(p.concat(&q).unwrap().vertices(), &[0, 1, 2, 3]);
        assert!(q.concat(&p).is_none());
    }

    #[test]
    fn uses_and_avoids_edges() {
        let g = path_graph5();
        let p = Path::new(vec![1, 2, 3]);
        let e12 = g.edge_between(1, 2).unwrap();
        let e34 = g.edge_between(3, 4).unwrap();
        assert!(p.uses_edge(&g, e12));
        assert!(!p.uses_edge(&g, e34));
        assert!(p.avoids(&g, &FaultSet::single(e34)));
        assert!(!p.avoids(&g, &FaultSet::from_edges([e12, e34])));
    }

    #[test]
    fn edge_ids_resolution() {
        let g = path_graph5();
        let p = Path::new(vec![2, 1, 0]);
        let ids = p.edge_ids(&g).unwrap();
        assert_eq!(ids, vec![g.edge_between(1, 2).unwrap(), g.edge_between(0, 1).unwrap()]);
        assert!(Path::new(vec![0, 3]).edge_ids(&g).is_none());
    }

    #[test]
    fn subpath_and_position() {
        let p = Path::new(vec![5, 6, 7, 8]);
        assert_eq!(p.subpath(1, 2).vertices(), &[6, 7]);
        assert_eq!(p.subpath(3, 3).vertices(), &[8]);
    }

    #[test]
    fn simplicity() {
        assert!(Path::new(vec![0, 1, 2]).is_simple());
        assert!(!Path::new(vec![0, 1, 0]).is_simple());
    }

    #[test]
    fn display() {
        assert_eq!(Path::new(vec![0, 1, 2]).to_string(), "0 → 1 → 2");
    }
}
