//! **E11 / Theorem 28** — the near-linear single-pair replacement path
//! algorithm against the BFS-per-fault naive baseline.
//!
//! The naive baseline pays one BFS per failing path edge, so the regime
//! that separates the algorithms is *long* shortest paths: long-thin
//! grids with `ℓ = Θ(n)` failure points, where naive pays `Θ(n·m)` and
//! the candidate-sweep algorithm stays near-linear.

use rsp_graph::{bfs, generators, FaultSet, SelectedTree};
use rsp_replacement::{naive_single_pair, single_pair_replacement_paths};

use crate::reporting::{f3, timed, Table};
use crate::workloads::Workload;

/// Runs E11 and prints the table.
pub fn run(quick: bool) {
    let cols: &[usize] = if quick { &[16, 64] } else { &[16, 64, 128, 256, 512] };
    let mut table = Table::new(
        "E11 (Theorem 28): single-pair replacement paths on long-thin grids",
        &["graph", "n", "m", "path len", "fast ms", "naive ms", "speedup"],
    );
    for &c in cols {
        let w = Workload { name: format!("grid-8x{c}"), graph: generators::grid(8, c) };
        let g = &w.graph;
        let (s, t) = (0, g.n() - 1); // opposite corners: ℓ ≈ 7 + c
        let (fast, fast_ms) =
            timed(|| single_pair_replacement_paths(g, s, t, 3).expect("connected"));
        let path = fast.path().clone();
        let (naive, naive_ms) = timed(|| naive_single_pair(g, s, t, path));
        // Cross-check all entries.
        for (a, b) in fast.entries().iter().zip(naive.entries()) {
            assert_eq!(a.dist, b.dist, "edge {}", a.edge);
        }
        // And one spot probe against plain BFS.
        if let Some(first) = fast.entries().first() {
            assert_eq!(first.dist, bfs(g, s, &FaultSet::single(first.edge)).dist(t));
        }
        table.row(&[
            w.name.clone(),
            g.n().to_string(),
            g.m().to_string(),
            fast.base_dist().to_string(),
            f3(fast_ms),
            f3(naive_ms),
            f3(naive_ms / fast_ms),
        ]);
    }
    table.print();
    println!(
        "shape check: naive pays one BFS per path edge (Θ(l*m) total), so its\n\
         disadvantage grows with the path length; outputs agree edge-for-edge.\n"
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn e11_runs_quick() {
        super::run(true);
    }
}
