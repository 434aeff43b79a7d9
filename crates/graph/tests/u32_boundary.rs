//! Boundary behavior of the `u32` CSR id space: vertex counts at and
//! beyond the id limit, multi-million-vertex graphs whose ids exceed
//! `u16`, and edge ids round-tripping losslessly through the [`FaultSet`]
//! and the 9-byte wire-event codec (which stays 64-bit wide on purpose —
//! the wire format must outlive the in-memory id width).

use proptest::prelude::*;
use rsp_graph::{
    bfs, FaultEvent, FaultSet, Graph, GraphBuilder, GraphError, SelectedTree, WireEventError,
    MAX_EDGES, MAX_VERTICES, WIRE_EVENT_LEN,
};

/// The id limit itself: `u32::MAX` is the engine-wide sentinel (settled
/// marker, empty oracle cell), so the last usable vertex id is
/// `u32::MAX - 1` and each edge consumes two `u32` adjacency slots.
#[test]
fn id_limits_leave_room_for_the_sentinel() {
    assert_eq!(MAX_VERTICES, (u32::MAX - 1) as usize);
    assert_eq!(MAX_EDGES, ((u32::MAX - 1) / 2) as usize);
}

/// `try_new` succeeds at exactly the limit (the builder holds no
/// per-vertex state, so probing the boundary is free) and rejects one
/// past it — and anything past `u32::MAX` — with the typed error, never
/// a panic or a silent truncation.
#[test]
fn builder_accepts_limit_and_rejects_beyond() {
    assert!(GraphBuilder::try_new(MAX_VERTICES).is_ok());
    for n in [MAX_VERTICES + 1, u32::MAX as usize, u32::MAX as usize + 1, usize::MAX] {
        assert!(
            matches!(GraphBuilder::try_new(n), Err(GraphError::TooManyVertices { n: got }) if got == n),
            "n = {n} must be rejected with TooManyVertices"
        );
    }
    assert_eq!(
        Graph::from_edges(u32::MAX as usize + 1, []),
        Err(GraphError::TooManyVertices { n: u32::MAX as usize + 1 })
    );
}

/// A 3-million-vertex sparse graph — every id well past `u16`, the
/// offsets array genuinely wide — builds, stores endpoints losslessly,
/// and answers queries touching the very last ids.
#[test]
fn multi_million_vertex_graph_round_trips_ids() {
    let n = 3_000_000;
    let last = n - 1;
    let g = Graph::from_edges(n, [(last, last - 1), (last - 1, last - 2), (0, last)]).unwrap();
    assert_eq!(g.n(), n);
    assert_eq!(g.m(), 3);
    assert_eq!(g.endpoints(g.edge_between(0, last).unwrap()), (0, last));
    assert_eq!(g.degree(last), 2);
    assert_eq!(g.degree(1), 0, "untouched interior vertices stay isolated");
    let tree = bfs(&g, last, &FaultSet::empty());
    assert_eq!(tree.dist(last - 2), Some(2));
    assert_eq!(tree.dist(0), Some(1));
    assert_eq!(tree.reachable_count(), 4);
}

/// Fault-set membership at edge ids far beyond any buildable graph: the
/// set is pure id arithmetic and must not care about the CSR limits.
#[test]
fn fault_set_handles_huge_edge_ids() {
    let huge = [0usize, u32::MAX as usize, 1 << 40, usize::MAX];
    let fs = FaultSet::from_edges(huge);
    assert_eq!(fs.len(), huge.len());
    for e in huge {
        assert!(fs.contains(e));
        assert!(!fs.contains(e ^ 1), "neighbors of {e} are absent");
    }
    assert!(fs.without(1 << 40).is_subset_of(&fs));
}

/// Corrupted wire frames are rejected with the typed reason, never a
/// panic: wrong lengths, unknown tags.
#[test]
fn wire_codec_rejects_corrupt_frames() {
    let frame = FaultEvent::Arrive(7).encode();
    assert_eq!(frame.len(), WIRE_EVENT_LEN);
    assert_eq!(
        FaultEvent::decode(&frame[..WIRE_EVENT_LEN - 1]),
        Err(WireEventError::BadLength { got: 8 })
    );
    assert_eq!(FaultEvent::decode(&[]), Err(WireEventError::BadLength { got: 0 }));
    let mut bad_tag = frame;
    bad_tag[0] = 0x7f;
    assert_eq!(FaultEvent::decode(&bad_tag), Err(WireEventError::BadTag { tag: 0x7f }));
}

proptest! {
    /// Every edge id a 64-bit platform can hold round-trips through the
    /// 9-byte codec, for both event kinds — including ids past the `u32`
    /// graph limit, which the wire format deliberately still carries.
    #[test]
    fn wire_codec_round_trips_all_edge_ids(e in any::<u64>(), repair in any::<bool>()) {
        let e = e as usize;
        let ev = if repair { FaultEvent::Repair(e) } else { FaultEvent::Arrive(e) };
        let frame = ev.encode();
        prop_assert_eq!(frame.len(), WIRE_EVENT_LEN);
        prop_assert_eq!(FaultEvent::decode(&frame), Ok(ev));
        prop_assert_eq!(ev.edge(), e);
    }

    /// Insert/remove round-trip at arbitrary (huge) ids keeps the set
    /// sorted, deduplicated, and exact.
    #[test]
    fn fault_set_round_trips_arbitrary_ids(ids in prop::collection::vec(any::<u64>(), 0..12)) {
        let ids: Vec<usize> = ids.into_iter().map(|e| e as usize).collect();
        let mut fs = FaultSet::from_edges(ids.iter().copied());
        for &e in &ids {
            prop_assert!(fs.contains(e));
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(fs.as_slice(), &sorted[..]);
        for &e in &ids {
            fs.remove(e);
        }
        prop_assert!(fs.is_empty());
    }
}
