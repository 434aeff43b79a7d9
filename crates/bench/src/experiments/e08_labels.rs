//! **E8 / Theorem 10** — fault-tolerant exact distance label sizes
//! against `O(n^{2−1/2^f} log n)` bits, with query correctness checks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsp_core::RandomGridAtw;
use rsp_graph::{bfs, FaultSet, SelectedTree};
use rsp_labeling::build_labeling;

use crate::reporting::{f3, loglog_slope, Table};
use crate::workloads::sparse_sweep;

/// Runs E8 and prints the tables.
pub fn run(quick: bool) {
    let sizes: &[usize] = if quick { &[30, 60] } else { &[30, 60, 120, 200] };
    for f in [0usize, 1] {
        let supported = f + 1;
        let mut table = Table::new(
            &format!(
                "E8 (Theorem 10): {}-FT exact distance labels (preserver depth f = {f})",
                supported
            ),
            &["graph", "n", "max label bits", "bound n^(2-1/2^f) log n", "ratio"],
        );
        let mut ns = Vec::new();
        let mut bits = Vec::new();
        for w in sparse_sweep(sizes, 41) {
            if f == 1 && w.graph.n() > 120 {
                continue; // the f = 1 build is O(n^2) trees; cap the sweep
            }
            let g = &w.graph;
            let scheme = RandomGridAtw::theorem20(g, 43).into_scheme();
            let labeling = build_labeling(&scheme, f);

            // Query correctness on random (s, t, F) probes.
            let mut rng = StdRng::seed_from_u64(47);
            let probes = if quick { 20 } else { 60 };
            for _ in 0..probes {
                let s = rng.random_range(0..g.n());
                let t = rng.random_range(0..g.n());
                let fault_edges: Vec<usize> =
                    (0..supported).map(|_| rng.random_range(0..g.m())).collect();
                let fs = FaultSet::from_edges(fault_edges.iter().copied());
                let pairs: Vec<_> = fs.iter().map(|e| g.endpoints(e)).collect();
                let truth = bfs(g, s, &fs).dist(t);
                assert_eq!(labeling.query(s, t, &pairs), truth, "({s},{t}) F={fs}");
            }

            let n = g.n() as f64;
            let bound = n.powf(2.0 - 1.0 / (1u64 << f) as f64) * n.log2();
            ns.push(n);
            bits.push(labeling.max_label_bits() as f64);
            table.row(&[
                w.name.clone(),
                g.n().to_string(),
                labeling.max_label_bits().to_string(),
                f3(bound),
                f3(labeling.max_label_bits() as f64 / bound),
            ]);
        }
        table.print();
        if ns.len() >= 2 {
            println!(
                "measured label-size exponent {} vs theorem {} (+ log factor)\n",
                f3(loglog_slope(&ns, &bits)),
                f3(2.0 - 1.0 / (1u64 << f) as f64)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e8_runs_quick() {
        super::run(true);
    }
}
