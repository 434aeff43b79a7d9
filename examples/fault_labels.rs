//! Fault-tolerant exact distance labels (Theorem 30): answer
//! `dist(s, t | F)` from two bitstrings and the failure description —
//! no access to the graph at query time.
//!
//! ```text
//! cargo run --example fault_labels
//! ```

use restorable_tiebreaking::core::RandomGridAtw;
use restorable_tiebreaking::graph::{bfs, generators, FaultSet};
use restorable_tiebreaking::labeling::build_labeling;
use rsp_graph::SelectedTree;

fn main() {
    let g = generators::connected_gnm(40, 120, 77);
    println!("graph: n = {}, m = {}", g.n(), g.m());

    // Labels supporting one edge fault: each vertex stores its 0-FT
    // preserver (a tree) — restorability earns the extra fault.
    let scheme = RandomGridAtw::theorem20(&g, 3).into_scheme();
    let labeling = build_labeling(&scheme, 0);
    println!(
        "labels built: max {} bits/vertex, {} bits total (supports {} fault)",
        labeling.max_label_bits(),
        labeling.total_bits(),
        labeling.faults_supported(),
    );

    // Simulate a decoder that has ONLY the two labels + the fault.
    let (s, t) = (0, 39);
    println!("\nquerying dist({s}, {t}) under every single-edge failure:");
    let mut changed = 0;
    for (e, u, v) in g.edges() {
        let answer = labeling.query(s, t, &[(u, v)]);
        let truth = bfs(&g, s, &FaultSet::single(e)).dist(t);
        assert_eq!(answer, truth, "label decoder must be exact");
        if truth != bfs(&g, s, &FaultSet::empty()).dist(t) {
            changed += 1;
            println!("  edge ({u}, {v}) down: dist = {answer:?}");
        }
    }
    println!(
        "\nall {} failure queries exact; {} failures actually changed the distance",
        g.m(),
        changed
    );
}
