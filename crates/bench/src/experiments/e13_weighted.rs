//! **E13 / Theorem 11 + Section 4.3** — the weighted restoration lemma,
//! weighted replacement paths, and the single-fault distance sensitivity
//! oracle.

use rsp_graph::{bfs, EdgeWeights, FaultSet, SelectedTree};
use rsp_replacement::{verify_weighted_restoration_lemma, weighted_single_pair, SingleFaultOracle};

use crate::reporting::{f3, timed, Table};
use crate::workloads::sparse_sweep;

/// Runs E13 and prints the tables.
pub fn run(quick: bool) {
    // Part 1: Theorem 11 verified instance-by-instance.
    let mut t1 = Table::new(
        "E13a (Theorem 11): weighted restoration lemma, instance checks",
        &["graph", "n", "max weight", "instances", "witnessed", "ok"],
    );
    let sizes: &[usize] = if quick { &[16] } else { &[16, 24, 32] };
    for w in sparse_sweep(sizes, 71) {
        let g = &w.graph;
        let weights = EdgeWeights::random(g, 12, 5);
        let pairs: Vec<(usize, usize)> = vec![(0, g.n() - 1), (1, g.n() / 2), (2, g.n() - 3)];
        let stats = verify_weighted_restoration_lemma(g, &weights, &pairs, 9);
        assert_eq!(stats.witnessed, stats.instances, "Theorem 11 must hold");
        t1.row(&[
            w.name.clone(),
            g.n().to_string(),
            weights.max().to_string(),
            stats.instances.to_string(),
            stats.witnessed.to_string(),
            "yes".to_string(),
        ]);
    }
    t1.print();

    // Part 2: weighted single-pair replacement path distances, spot
    // validated against weighted Dijkstra recompute.
    let mut t2 = Table::new(
        "E13b: weighted single-pair replacement paths",
        &["graph", "n", "path edges", "ms", "validated"],
    );
    for w in sparse_sweep(if quick { &[40] } else { &[40, 80, 160] }, 73) {
        let g = &w.graph;
        let weights = EdgeWeights::random(g, 20, 7);
        let ((), ms) = {
            let (r, ms) = timed(|| weighted_single_pair(g, &weights, 0, g.n() - 1, 3));
            let r = r.expect("connected");
            for entry in r.entries().iter().take(6) {
                let truth = rsp_graph::weighted_sssp(g, &weights, 0, &FaultSet::single(entry.edge));
                assert_eq!(entry.dist, truth.cost(g.n() - 1).copied());
            }
            t2.row(&[
                w.name.clone(),
                g.n().to_string(),
                r.entries().len().to_string(),
                f3(ms),
                "yes".to_string(),
            ]);
            ((), ms)
        };
        let _ = ms;
    }
    t2.print();

    // Part 3: the distance sensitivity oracle built from Algorithm 1.
    let mut t3 = Table::new(
        "E13c (Sec 4.3): single-fault distance sensitivity oracle",
        &["graph", "n", "build ms", "entries", "pairs", "probe ok"],
    );
    for w in sparse_sweep(if quick { &[24] } else { &[24, 48, 96] }, 79) {
        let g = &w.graph;
        let (oracle, ms) = timed(|| SingleFaultOracle::build(g, 13));
        // Probe random queries against BFS truth.
        let mut ok = true;
        for (e, _, _) in g.edges().take(12) {
            let truth = bfs(g, 0, &FaultSet::single(e));
            for t in [g.n() / 2, g.n() - 1] {
                ok &= oracle.query(0, t, e) == truth.dist(t);
            }
        }
        assert!(ok, "oracle answers must match BFS");
        t3.row(&[
            w.name.clone(),
            g.n().to_string(),
            f3(ms),
            oracle.entry_count().to_string(),
            oracle.pair_count().to_string(),
            "yes".to_string(),
        ]);
    }
    t3.print();
    println!(
        "shape check: Theorem 11 witnessed on every instance; weighted\n\
         replacement distances exact; the oracle serves all pairs with\n\
         one entry per selected path edge.\n"
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn e13_runs_quick() {
        super::run(true);
    }
}
