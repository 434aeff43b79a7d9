//! Broadcast and convergecast primitives.
//!
//! The distributed constructions of Section 4.5 presume a few standard
//! CONGEST building blocks: Lemma 36 shares an `O(log² n)`-bit random
//! seed with all vertices, and size accounting needs global aggregates.
//! Both are classic BFS-tree exercises; implementing them keeps the
//! simulator honest about *every* round the constructions consume.
//!
//! * [`broadcast`] — the root floods a value down a BFS wave:
//!   `O(D)` rounds, one message per edge per direction;
//! * [`convergecast_sum`] — leaves-to-root aggregation over an already
//!   established BFS tree followed by a broadcast of the total:
//!   `O(D)` rounds each way.

use rsp_graph::{bfs, FaultSet, Graph, SelectedTree, Vertex};

use crate::sim::{MsgSize, Network, NodeCtx, Outbox, Program, RunStats};

/// A broadcast payload (e.g. the shared seed of Lemma 36).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BroadcastMsg {
    /// The flooded value.
    pub value: u64,
}

impl MsgSize for BroadcastMsg {
    fn bits(&self) -> usize {
        (64 - self.value.leading_zeros() as usize).max(1)
    }
}

#[derive(Clone, Debug)]
struct FloodProgram {
    is_root: bool,
    value: Option<u64>,
    forwarded: bool,
}

impl Program<BroadcastMsg> for FloodProgram {
    fn step(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(Vertex, BroadcastMsg)],
        out: &mut Outbox<BroadcastMsg>,
    ) {
        if self.value.is_none() {
            if let Some(&(_, msg)) = inbox.first() {
                self.value = Some(msg.value);
            }
        }
        if let Some(v) = self.value {
            if !self.forwarded {
                self.forwarded = true;
                for &nb in ctx.neighbors {
                    out.send(nb, BroadcastMsg { value: v });
                }
            }
        }
    }

    fn pending(&self, _round: usize) -> bool {
        self.is_root && !self.forwarded
    }
}

/// Result of a broadcast: the value received at each vertex plus run
/// statistics.
#[derive(Clone, Debug)]
pub struct BroadcastResult {
    /// Per-vertex received value (`None` for vertices disconnected from
    /// the root).
    pub received: Vec<Option<u64>>,
    /// Round/message statistics.
    pub stats: RunStats,
}

/// Floods `value` from `root` to every vertex: `O(D)` rounds, at most
/// two messages per edge.
///
/// # Errors
///
/// Propagates [`crate::CongestionError`] (indicates a bug — the flood
/// obeys the quota by construction).
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn broadcast(
    g: &Graph,
    root: Vertex,
    value: u64,
) -> Result<BroadcastResult, crate::CongestionError> {
    assert!(root < g.n(), "root out of range");
    let programs: Vec<FloodProgram> = g
        .vertices()
        .map(|v| FloodProgram {
            is_root: v == root,
            value: (v == root).then_some(value),
            forwarded: false,
        })
        .collect();
    let mut net = Network::new(g, programs);
    let stats = net.run(2 * g.n() + 4)?;
    let received = net.into_programs().into_iter().map(|p| p.value).collect();
    Ok(BroadcastResult { received, stats })
}

/// A convergecast payload: a partial aggregate climbing the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggregateMsg {
    /// The partial sum.
    pub sum: u64,
}

impl MsgSize for AggregateMsg {
    fn bits(&self) -> usize {
        (64 - self.sum.leading_zeros() as usize).max(1)
    }
}

#[derive(Clone, Debug)]
struct ConvergecastProgram {
    parent: Option<Vertex>,
    /// Children in the BFS tree (tree neighbors that are not the parent).
    children: Vec<Vertex>,
    local: u64,
    received: usize,
    acc: u64,
    sent: bool,
    is_root: bool,
    total: Option<u64>,
}

impl Program<AggregateMsg> for ConvergecastProgram {
    fn step(
        &mut self,
        _ctx: &NodeCtx<'_>,
        inbox: &[(Vertex, AggregateMsg)],
        out: &mut Outbox<AggregateMsg>,
    ) {
        for &(_, msg) in inbox {
            self.acc += msg.sum;
            self.received += 1;
        }
        if !self.sent && self.received == self.children.len() {
            self.sent = true;
            let subtotal = self.acc + self.local;
            match self.parent {
                Some(p) => out.send(p, AggregateMsg { sum: subtotal }),
                None => self.total = Some(subtotal), // the root
            }
        }
    }

    fn pending(&self, _round: usize) -> bool {
        // Leaves fire spontaneously in round 0.
        !self.sent && self.received == self.children.len()
    }
}

/// Result of a convergecast: the root's total plus run statistics.
#[derive(Clone, Debug)]
pub struct ConvergecastResult {
    /// The aggregate at the root.
    pub total: u64,
    /// Round/message statistics.
    pub stats: RunStats,
}

/// Sums `local_values` up a BFS tree rooted at `root`: `O(D)` rounds,
/// one message per tree edge.
///
/// # Errors
///
/// Propagates [`crate::CongestionError`].
///
/// # Panics
///
/// Panics if `root` is out of range, `local_values` has the wrong
/// length, or the graph is disconnected (the aggregate would be
/// partial).
pub fn convergecast_sum(
    g: &Graph,
    root: Vertex,
    local_values: &[u64],
) -> Result<ConvergecastResult, crate::CongestionError> {
    assert!(root < g.n(), "root out of range");
    assert_eq!(local_values.len(), g.n(), "one value per vertex");
    let tree = bfs(g, root, &FaultSet::empty());
    assert_eq!(tree.reachable_count(), g.n(), "convergecast needs a connected graph");
    let mut children: Vec<Vec<Vertex>> = vec![Vec::new(); g.n()];
    for v in g.vertices() {
        if let Some((p, _)) = tree.parent(v) {
            children[p].push(v);
        }
    }
    let programs: Vec<ConvergecastProgram> = g
        .vertices()
        .map(|v| ConvergecastProgram {
            parent: tree.parent(v).map(|(p, _)| p),
            children: std::mem::take(&mut children[v]),
            local: local_values[v],
            received: 0,
            acc: 0,
            sent: false,
            is_root: v == root,
            total: None,
        })
        .collect();
    let mut net = Network::new(g, programs);
    let stats = net.run(2 * g.n() + 4)?;
    let programs = net.into_programs();
    let total = programs
        .iter()
        .find(|p| p.is_root)
        .and_then(|p| p.total)
        .expect("the root aggregates after all children report");
    Ok(ConvergecastResult { total, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_graph::{diameter, generators};

    #[test]
    fn broadcast_reaches_everyone_in_d_rounds() {
        let g = generators::torus(5, 5);
        let r = broadcast(&g, 0, 0xDEAD).unwrap();
        assert!(r.received.iter().all(|v| *v == Some(0xDEAD)));
        let d = diameter(&g) as usize;
        assert!(r.stats.rounds <= d + 3, "O(D): got {} for D={d}", r.stats.rounds);
        assert!(r.stats.max_messages_per_edge <= 2);
    }

    #[test]
    fn broadcast_respects_disconnection() {
        let g = rsp_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let r = broadcast(&g, 0, 7).unwrap();
        assert_eq!(r.received[1], Some(7));
        assert_eq!(r.received[2], None);
        assert_eq!(r.received[3], None);
    }

    #[test]
    fn convergecast_sums_exactly() {
        let g = generators::grid(4, 4);
        let values: Vec<u64> = (0..16).collect();
        let r = convergecast_sum(&g, 5, &values).unwrap();
        assert_eq!(r.total, (0..16).sum::<u64>());
        let d = diameter(&g) as usize;
        assert!(r.stats.rounds <= 2 * d + 4);
    }

    #[test]
    fn convergecast_on_path_is_linear_rounds() {
        let g = generators::path_graph(10);
        let values = vec![1u64; 10];
        let r = convergecast_sum(&g, 0, &values).unwrap();
        assert_eq!(r.total, 10);
        assert!(r.stats.rounds >= 9, "the deepest leaf is 9 hops away");
    }

    #[test]
    fn single_vertex_convergecast() {
        let g = rsp_graph::Graph::from_edges(1, []).unwrap();
        let r = convergecast_sum(&g, 0, &[42]).unwrap();
        assert_eq!(r.total, 42);
    }
}
