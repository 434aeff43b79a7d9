//! Graph substrate for restorable shortest path tiebreaking.
//!
//! The Bodwin–Parter construction (PODC 2021) works over *undirected,
//! unweighted* graphs, converts them to symmetric directed graphs, perturbs
//! the unit weights by an antisymmetric tiebreaking weight function, and runs
//! shortest-path computations in the perturbed graph `G*` and in fault
//! subgraphs `G \ F`. This crate supplies everything below the tiebreaking
//! layer:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) undirected unweighted
//!   graph with stable edge identifiers;
//! * [`GraphBuilder`] — incremental, validating construction;
//! * [`FaultSet`] — a small set of failed edges, the `F` of the paper;
//! * [`FaultEvent`] / [`FaultState`] — the churn half of fault handling:
//!   a validated `fault arrives / fault repairs` event stream (with a
//!   fixed-width wire codec) folding into a running fault set, the
//!   substrate of `rsp_oracle`'s churn-hardened control plane;
//! * [`bfs`] — breadth-first search honoring fault sets (unweighted
//!   distances, the ground truth all experiments compare against);
//! * [`dijkstra`] — an *exact-cost* Dijkstra, generic over
//!   [`rsp_arith::PathCost`], used with the scaled integer weights of the
//!   tiebreaking schemes; it returns its finished [`SearchScratch`];
//! * [`SearchScratch`] with [`bfs_into`] / [`dijkstra_into`] — the
//!   reusable search-state engine behind both traversals: generation
//!   stamping, a dirty list, and one flat lazy heap of inline `(cost,
//!   vertex)` entries for every cost type make repeated `(source, fault
//!   set)` queries allocation-free;
//! * [`dijkstra_sweep`] with [`SweepScratch`] — the `sources ×
//!   fault_sets` sweep behind `rsp_core`'s `for_each_tree`: one
//!   fault-free run per source, each fault set applied edge by edge by
//!   the repair kernel, a search on a tie ([`SweepStats`]). It replaced
//!   the prefix-sharing batch engine and its hooks in the search loop;
//! * [`repair`] — the repair kernel behind the sweep and `rsp_oracle`'s
//!   delta commits: detach the subtree below a failed tree edge and
//!   reattach it (or spread a restored edge's decrease) in the engine's
//!   `(cost, vertex)` order over an overlay of a base tree, refusing ties;
//! * [`parallel_indexed`] — worker-pool fan-out over sources
//!   (`std::thread::scope`, one scratch per worker, deterministic
//!   index-ordered results);
//! * [`parallel_frontier`] / [`ShardedSet`] — the work-stealing frontier
//!   executor for jobs that *discover* further jobs (the FT-BFS fault-set
//!   enumeration in `rsp_preserver`), with a sharded concurrent visited
//!   set for frontier dedup;
//! * [`SelectedTree`] — the one read surface of a selected tree (the
//!   bounded path walk, the tree edges, the reachable count, the one
//!   owned copy), implemented by the owned [`BfsTree`], a finished
//!   [`SearchScratch`], the repair kernel's view
//!   ([`repair::RepairView`]; a sweep's [`SweepView`] is that view over a
//!   search) and `rsp_oracle`'s `TreeView`, so a tree is read where it
//!   is stored; [`repair::decode_parent`] is the one decoder of a stored
//!   parent edge;
//! * [`SubtreeScratch`] / [`tree_edge_child`] — cut/subtree helpers
//!   over parent-pointer trees: which endpoint of a failed edge is the
//!   child, and the detached subtree below it in work proportional to
//!   the subtree (the repair kernel's detach step);
//! * [`NextHopTable`] — routing tables in the MPLS sense (consistency of a
//!   tiebreaking scheme is exactly what makes these well defined);
//! * [`generators`] — the graph families used across tests and experiments,
//!   including the 4-cycle of Theorem 37 and workloads for the benches;
//! * [`gen`] — Internet-shaped generators (preferential attachment,
//!   Watts–Strogatz small-world, two-level ISP core/edge hierarchy) for
//!   the scaling workloads;
//! * [`mod@reference`] — the pre-migration Vec-of-Vec engine, kept as the
//!   executable specification the CSR core's differential suites pin
//!   against.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the guide-level
//! workspace architecture: the crate layering, the three-level query
//! engine (scratch -> repair kernel and sweep -> pool/frontier), the preserver
//! enumeration pipeline, and the serving layer (its "Serving layer"
//! chapter — `rsp_oracle` serves this crate's query engine behind
//! immutable snapshots and epoch-swapped lock-free readers).
//!
//! # Paper cross-reference
//!
//! | Module / item | Paper (PAPER.md) |
//! |---|---|
//! | [`Graph`], [`GraphBuilder`] | Section 2 model: undirected, unweighted `G` |
//! | [`FaultSet`] | the fault set `F`, `\|F\| ≤ f`; `G \ F` everywhere |
//! | [`bfs`], [`bfs_into`] | ground-truth `dist_{G\F}`, the quantity every theorem bounds |
//! | [`dijkstra`], [`dijkstra_into`] | unique shortest paths in the perturbed `G* \ F` (Definition 18) |
//! | [`SelectedTree`] | one selected tree `π(s, · \| F)` of a tree-structured scheme (Definition 15) |
//! | [`dijkstra_sweep`], [`parallel_indexed`] | experiment scaling: the `sources × fault_sets` query loops behind Sections 3–4 |
//! | [`repair`] | the single-fault change Theorem 20's unique paths allow: only the subtree below a failed tree edge moves |
//! | [`NextHopTable`] | Section 1's MPLS routing-table deployment |
//! | [`generators`] | Theorem 37's 4-cycle, tie-rich grids/hypercubes, G(n,m) workloads |
//!
//! # Examples
//!
//! ```
//! use rsp_graph::{generators, bfs, FaultSet, SelectedTree};
//!
//! let g = generators::cycle(5);
//! let tree = bfs(&g, 0, &FaultSet::empty());
//! assert_eq!(tree.dist(2), Some(2));
//!
//! // Fail one edge of the cycle: distances re-route the long way.
//! let e = g.edge_between(0, 1).unwrap();
//! let tree = bfs(&g, 0, &FaultSet::single(e));
//! assert_eq!(tree.dist(1), Some(4));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bfs;
mod builder;
mod connectivity;
mod dijkstra;
mod event;
mod fault;
pub mod gen;
pub mod generators;
mod graph;
mod io;
pub mod journal;
mod path;
mod pool;
pub mod reference;
pub mod repair;
mod routing;
mod scratch;
mod sweep;
mod tree;
mod weights;

pub use bfs::{bfs, bfs_all_pairs, BfsTree};
pub use builder::{GraphBuilder, GraphError};
pub use connectivity::{components, connected_pair, diameter, is_connected, is_connected_avoiding};
pub use dijkstra::dijkstra;
pub use event::{FaultEvent, FaultEventError, FaultState, WireEventError, WIRE_EVENT_LEN};
pub use fault::FaultSet;
pub use graph::{EdgeId, Graph, Vertex, MAX_EDGES, MAX_VERTICES};
pub use io::{from_edge_list_str, to_edge_list_string, ParseGraphError};
pub use path::Path;
pub use pool::{parallel_frontier, parallel_indexed, FrontierStats, ShardedSet};
pub use routing::NextHopTable;
pub use scratch::{bfs_into, dijkstra_into, DirectedCosts, EdgeCostSource, SearchScratch};
pub use sweep::{dijkstra_sweep, SweepScratch, SweepStats, SweepView};
pub use tree::{tree_edge_child, SelectedTree, SubtreeScratch};
pub use weights::{weighted_sssp, EdgeWeights};
