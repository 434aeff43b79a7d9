//! Scrubber integrity: post-publication corruption is detected by
//! audit (not luck) and healed in the tick that finds it — every truth
//! row spliced into one clone of the snapshot, published once.
//!
//! The contract under test: a cell flipped in a *published* snapshot
//! row — damage the commit-time cross-check can no longer see — is
//! never served past the scrubber's next tick over that row, and never
//! a panic.

use proptest::prelude::*;
use rsp_core::{RandomGridAtw, Rpts};
use rsp_graph::{generators, FaultSet, Graph, SearchScratch, SelectedTree};
use rsp_oracle::churn::inject::{corrupt_published_row, verify_converged, CellCorruption};
use rsp_oracle::churn::{ChurnConfig, ChurnPipeline};
use rsp_oracle::scrub::{ScrubConfig, Scrubber};
use rsp_oracle::Oracle;

type Scheme = rsp_core::ExactScheme<u128>;

/// Every corruption kind: hop, parent, cost, and a parent edge past `m`.
const ALL_KINDS: [CellCorruption; 4] =
    [CellCorruption::Hop, CellCorruption::Parent, CellCorruption::Cost, CellCorruption::Edge];

fn scheme_for(g: &Graph, wseed: u64) -> Scheme {
    RandomGridAtw::theorem20(g, wseed).into_scheme()
}

/// A scrub budget that audits the whole snapshot in one tick.
fn full_sweep(n: usize) -> ScrubConfig {
    ScrubConfig { rows_per_tick: n }
}

/// Asserts the oracle's published snapshot answers source `s`
/// identically to a fresh engine run (every vertex: dist, parent,
/// cost), whatever path the query takes.
fn assert_source_correct(oracle: &Oracle<u128>, scheme: &Scheme, s: usize) {
    let g = scheme.graph();
    let mut reader = oracle.reader();
    let mut scratch = SearchScratch::with_capacity(g.n());
    let snap = oracle.snapshot();
    scheme.spt_into(s, snap.base_faults(), &mut scratch);
    let view = reader.query(s, &FaultSet::empty());
    for v in g.vertices() {
        assert_eq!(view.dist(v), scratch.hops(v), "dist({s}, {v})");
        assert_eq!(view.parent(v), scratch.parent(v), "parent({s}, {v})");
        assert_eq!(view.cost(v), scratch.cost(v), "cost({s}, {v})");
    }
}

// ---------------------------------------------------------------------
// Detection and the happy-path heal
// ---------------------------------------------------------------------

/// Every corruption kind — hop, parent, cost, edge — is detected by a full
/// audit sweep and healed in the same tick; afterwards the snapshot is
/// clean and the answers are engine-identical.
#[test]
fn every_corruption_kind_is_detected_and_healed() {
    for kind in ALL_KINDS {
        let g = generators::grid(4, 4);
        let scheme = scheme_for(&g, 42);
        let oracle = Oracle::build(&scheme);
        let epoch_before = oracle.epoch();

        let victim = corrupt_published_row(&oracle, 5, kind)
            .unwrap_or_else(|| panic!("{kind:?}: no corruptible cell"));
        assert!(victim < g.n());

        let mut scrubber = Scrubber::new(oracle.clone(), full_sweep(g.n()));
        let tick = scrubber.tick();
        assert_eq!(tick.rows_audited, g.n(), "{kind:?}");
        assert_eq!(tick.corrupt_rows, 1, "{kind:?}: the damaged row is found");
        assert!(tick.completed_pass, "{kind:?}");

        let health = scrubber.health();
        assert_eq!(health.corruptions_found, 1, "{kind:?}");
        // Corruption publish + heal publish.
        assert_eq!(oracle.epoch(), epoch_before + 2, "{kind:?}");

        assert_source_correct(&oracle, &scheme, 5);
        // A second sweep confirms the heal stuck.
        let tick = scrubber.tick();
        assert_eq!(tick.corrupt_rows, 0, "{kind:?}: clean after heal");
    }
}

/// Corrupting **every** row, of every kind, still heals in one
/// full-budget tick with exactly one publish; afterwards a fresh reader
/// answers every source engine-identically and a second tick audits
/// clean.
#[test]
fn every_corrupt_row_heals_in_one_tick_and_one_publish() {
    for kind in ALL_KINDS {
        let g = generators::grid(4, 4);
        let scheme = scheme_for(&g, 42);
        let oracle = Oracle::build(&scheme);
        for s in g.vertices() {
            corrupt_published_row(&oracle, s, kind)
                .unwrap_or_else(|| panic!("{kind:?}: row {s} has no corruptible cell"));
        }
        let epoch_before = oracle.epoch();

        let mut scrubber = Scrubber::new(oracle.clone(), full_sweep(g.n()));
        let tick = scrubber.tick();
        assert_eq!(tick.rows_audited, g.n(), "{kind:?}");
        assert_eq!(tick.corrupt_rows, g.n(), "{kind:?}: every row is found and healed");
        assert_eq!(scrubber.health().corruptions_found, g.n() as u64, "{kind:?}");
        assert_eq!(oracle.epoch(), epoch_before + 1, "{kind:?}: one publish heals them all");

        for s in g.vertices() {
            assert_source_correct(&oracle, &scheme, s);
        }
        assert_eq!(scrubber.tick().corrupt_rows, 0, "{kind:?}: clean after the heal");
    }
}

/// Untouched rows keep their storage across the heal — it is a
/// splice, not a silent rebuild.
#[test]
fn targeted_repair_preserves_untouched_row_storage() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let oracle = Oracle::build(&scheme);
    let before = oracle.snapshot();

    corrupt_published_row(&oracle, 5, CellCorruption::Hop).unwrap();
    let mut scrubber = Scrubber::new(oracle.clone(), full_sweep(g.n()));
    let tick = scrubber.tick();
    assert_eq!(tick.corrupt_rows, 1);

    let after = oracle.snapshot();
    for s in g.vertices() {
        if s == 5 {
            assert!(!after.shares_row_storage(&before, s), "the healed row is a fresh allocation");
        } else {
            assert!(
                after.shares_row_storage(&before, s),
                "row {s} untouched by the heal keeps its storage"
            );
        }
    }
}

/// Pass accounting: a budget of 3 over 16 sources completes a sweep on
/// the 6th tick, and audits every source at least once per pass.
#[test]
fn scrub_passes_cover_every_source() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let oracle = Oracle::build(&scheme);
    let mut scrubber = Scrubber::new(oracle, ScrubConfig { rows_per_tick: 3 });
    for i in 0..6 {
        let tick = scrubber.tick();
        assert_eq!(tick.completed_pass, i == 5, "tick {i}");
    }
    let health = scrubber.health();
    assert_eq!(health.complete_passes, 1);
    assert_eq!(health.rows_audited, 18);
    assert_eq!(health.corruptions_found, 0);
}

// ---------------------------------------------------------------------
// Interaction with the delta builder and the churn pipeline
// ---------------------------------------------------------------------

/// End-to-end with the churn pipeline: corruption strikes the published
/// snapshot after a commit, one scrub tick heals it, and the next churn
/// commit delta-patches the healed snapshot — no fallback, no rebuild —
/// and converges.
#[test]
fn churn_delta_commit_after_heal_patches_clean_rows() {
    let g = generators::grid(4, 4);
    let scheme = scheme_for(&g, 42);
    let mut pipeline = ChurnPipeline::with_config(&scheme, ChurnConfig::default()).unwrap();
    pipeline.ingest(rsp_graph::FaultEvent::Arrive(0)).unwrap();
    pipeline.commit().unwrap();

    // Post-publication damage, healed by one tick.
    corrupt_published_row(pipeline.oracle(), 5, CellCorruption::Hop).unwrap();
    let mut scrubber = Scrubber::new(pipeline.oracle().clone(), full_sweep(g.n()));
    assert_eq!(scrubber.tick().corrupt_rows, 1);

    // The next commit patches the healed snapshot.
    let before = pipeline.health();
    pipeline.ingest(rsp_graph::FaultEvent::Arrive(5)).unwrap();
    pipeline.commit().unwrap();
    let after = pipeline.health();
    assert!(after.delta_commits > before.delta_commits, "the commit takes the delta rung");
    assert_eq!(after.full_rebuilds, before.full_rebuilds);
    assert_eq!(after.delta_fallbacks, before.delta_fallbacks);
    verify_converged(&pipeline).unwrap();

    // And a clean scrub pass confirms the patched snapshot.
    assert_eq!(scrubber.tick().corrupt_rows, 0);
}

/// A pipeline on an 8×8 grid after one delta commit, and a source whose
/// row carries a cell list (the cells the commit recomputed).
fn pipeline_with_listed_row(scheme: &Scheme) -> (ChurnPipeline<u128>, usize) {
    let g = scheme.graph();
    let mut pipeline = ChurnPipeline::with_config(scheme, ChurnConfig::default()).unwrap();
    let e = g.edge_between(27, 28).unwrap();
    pipeline.ingest(rsp_graph::FaultEvent::Arrive(e)).unwrap();
    assert!(pipeline.commit().unwrap().delta);
    let snap = pipeline.published_snapshot();
    let s = g.vertices().find(|&s| snap.patched_cells(s).unwrap() > 0).expect("a listed row");
    (pipeline, s)
}

/// Damage in a row's cell list — the cells a delta commit recomputed —
/// lands in a fresh copy of the list, never in the base the row shares
/// with other snapshots, and one tick catches and heals it like damage
/// in the base.
#[test]
fn list_cell_corruption_is_caught_and_healed() {
    for kind in ALL_KINDS {
        let g = generators::grid(8, 8);
        let scheme = scheme_for(&g, 42);
        let (pipeline, s) = pipeline_with_listed_row(&scheme);
        let oracle = pipeline.oracle();
        let before = oracle.snapshot();

        corrupt_published_row(oracle, s, kind).unwrap();
        let damaged = oracle.snapshot();
        assert!(damaged.shares_row_base(&before, s), "{kind:?}: the base is not written");
        assert!(!damaged.shares_row_storage(&before, s), "{kind:?}: the list is a fresh copy");
        assert_eq!(damaged.patched_cells(s), before.patched_cells(s), "{kind:?}");

        let mut scrubber = Scrubber::new(oracle.clone(), full_sweep(g.n()));
        let tick = scrubber.tick();
        assert_eq!(tick.corrupt_rows, 1, "{kind:?}: the damaged list cell is found");
        assert_source_correct(oracle, &scheme, s);
        assert_eq!(oracle.snapshot().patched_cells(s), Some(0), "{kind:?}: healed to a fresh base");
        assert_eq!(scrubber.tick().corrupt_rows, 0, "{kind:?}: clean after the heal");
        verify_converged(&pipeline).unwrap();
    }
}

/// `TreeView`'s path walk on a corrupt published row answers, never
/// panics, for every target and every corruption kind, with the damage
/// in the base or in a cell list; a cell whose parent was erased, or
/// points past the edge list, has no path.
#[test]
fn path_to_never_panics_on_a_corrupt_row() {
    for kind in ALL_KINDS {
        let g = generators::grid(4, 4);
        let oracle = Oracle::build(&scheme_for(&g, 42));
        let big = generators::grid(8, 8);
        let big_scheme = scheme_for(&big, 42);
        let (pipeline, listed) = pipeline_with_listed_row(&big_scheme);
        for (oracle, s) in [(&oracle, 0), (pipeline.oracle(), listed)] {
            let victim = corrupt_published_row(oracle, s, kind).unwrap();
            let mut reader = oracle.reader();
            let view = reader.query(s, &FaultSet::empty());
            let n = oracle.snapshot().graph().n();
            for t in 0..n + 2 {
                if let Some(path) = view.path_to(t) {
                    assert_eq!(path.vertices().first(), Some(&s), "{kind:?}: path to {t}");
                    assert_eq!(path.vertices().last(), Some(&t), "{kind:?}: path to {t}");
                }
            }
            if matches!(kind, CellCorruption::Parent | CellCorruption::Edge) {
                assert_eq!(view.path_to(victim), None, "{kind:?}: the chain breaks at {victim}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Property test
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever cell is flipped, wherever, under whatever weights: one
    /// full-budget tick detects and heals it, and the served answers
    /// for the damaged source are engine-identical afterwards.
    #[test]
    fn any_flipped_cell_is_caught_and_healed(
        wseed in any::<u64>(),
        source in 0usize..9,
        kind_ix in 0usize..ALL_KINDS.len(),
    ) {
        let kind = ALL_KINDS[kind_ix];
        let g = generators::grid(3, 3);
        let scheme = scheme_for(&g, wseed);
        let oracle = Oracle::build(&scheme);
        let epoch_before = oracle.epoch();

        let victim = corrupt_published_row(&oracle, source, kind);
        prop_assert!(victim.is_some(), "a grid row always has a corruptible cell");

        let mut scrubber = Scrubber::new(oracle.clone(), full_sweep(g.n()));
        let tick = scrubber.tick();
        prop_assert_eq!(tick.corrupt_rows, 1);
        // Corruption publish + heal publish.
        prop_assert_eq!(oracle.epoch(), epoch_before + 2);
        assert_source_correct(&oracle, &scheme, source);
        let tick = scrubber.tick();
        prop_assert_eq!(tick.corrupt_rows, 0, "clean after the heal");
    }
}
