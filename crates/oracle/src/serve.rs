//! The control/data-plane split: publishing snapshots, reading lock-free.
//!
//! An [`Oracle`] is a shared publication point for [`OracleSnapshot`]s;
//! an [`OracleReader`] is one thread's private serving handle. The
//! contract mirrors a RIB/FIB router split:
//!
//! * **Publish** ([`Oracle::publish`], any thread, typically one
//!   control-plane writer): replace the current snapshot `Arc` and bump
//!   the epoch counter. Publishing never waits for readers and never
//!   invalidates anything a reader is mid-way through — in-flight
//!   queries keep their epoch's `Arc` alive until they finish.
//! * **Read** ([`OracleReader::query`], any number of threads): each
//!   reader caches an `Arc` to the snapshot it last saw plus the epoch
//!   it was published under. The per-query hot path is **one atomic
//!   epoch load and zero locks**: if the epoch is unchanged the cached
//!   snapshot answers directly. Only on an epoch change does the reader
//!   take the publication mutex for exactly one `Arc` clone — once per
//!   publish per reader, never reader-vs-reader, and the writer's
//!   critical section is a pointer store, so no reader ever blocks
//!   behind another reader or behind snapshot *construction* (builders
//!   compile snapshots entirely outside the lock).
//! * **Retire** (automatic): a replaced snapshot lives exactly as long
//!   as the last `Arc` referencing it — when the final in-flight reader
//!   refreshes, the old epoch's memory drops, on that reader's thread
//!   and after it has released the publication mutex (the publisher
//!   likewise frees a replaced snapshot it held last outside the lock).
//!   What that free costs is what the retired snapshot owns alone: a
//!   delta commit ([`crate::delta`]) shares every row's base with its
//!   successor, so a retired delta epoch owns only the short cell lists
//!   of the rows its successor re-patched, plus the row table (one
//!   entry per source). Only the rows a commit materialized, or a full
//!   rebuild, retire whole arrays. The concurrency suite pins the
//!   lifetime with `Weak` handles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rsp_arith::PathCost;
use rsp_core::ExactScheme;
use rsp_graph::{EdgeId, FaultSet, SearchScratch, Vertex};

use crate::snapshot::{OracleSnapshot, QueryError, TreeView};

/// The shared publication cell: the current snapshot plus its epoch.
///
/// `epoch` is bumped *inside* the mutex's critical section, so a reader
/// that clones the slot under the lock reads a consistent
/// `(snapshot, epoch)` pair; the lock-free fast path only ever compares
/// epochs, which is safe against any interleaving (a stale comparison
/// merely delays the refresh to the next query).
struct Shared<C> {
    epoch: AtomicU64,
    slot: Mutex<Arc<OracleSnapshot<C>>>,
}

impl<C> Shared<C> {
    /// Locks the slot, **recovering from poison**: the protected value
    /// is a plain `Arc` that is always whole at every await-free point
    /// of every critical section (the store in `publish` either happens
    /// or it doesn't), so a publisher that panicked while holding the
    /// lock left valid state behind — either the old snapshot or the
    /// fully-stored new one. Refusing to serve forever because of a
    /// past panic would turn one failed publish into a permanent
    /// outage; see the poison-recovery regression test below.
    fn lock_slot(&self) -> MutexGuard<'_, Arc<OracleSnapshot<C>>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The serving handle: an epoch-swapped publication point for immutable
/// routing snapshots.
///
/// Cloning an `Oracle` clones the handle, not the snapshot — clones
/// publish to and read from the same cell, which is how a control-plane
/// thread and N data-plane threads share one oracle.
///
/// # Examples
///
/// Build, query, publish a new epoch, observe the swap:
///
/// ```
/// use rsp_core::RandomGridAtw;
/// use rsp_graph::generators;
/// use rsp_oracle::{Oracle, OracleSnapshot};
///
/// let g = generators::grid(4, 4);
/// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
/// let oracle = Oracle::build(&scheme);
/// let mut reader = oracle.reader();
/// assert_eq!(reader.query(0, &rsp_graph::FaultSet::empty()).dist(15), Some(6));
///
/// // A cost change arrives: compile and publish a new snapshot epoch.
/// // Readers pick it up on their next query; nothing blocks.
/// let rebuilt = RandomGridAtw::theorem20(&g, 43).into_scheme();
/// let before = oracle.epoch();
/// oracle.publish(OracleSnapshot::builder(&rebuilt).version(2).build());
/// assert_eq!(oracle.epoch(), before + 1);
/// let _ = reader.query(0, &rsp_graph::FaultSet::empty());
/// assert_eq!(reader.snapshot().version(), 2);
/// ```
pub struct Oracle<C> {
    shared: Arc<Shared<C>>,
}

impl<C> Clone for Oracle<C> {
    fn clone(&self) -> Self {
        Oracle { shared: Arc::clone(&self.shared) }
    }
}

impl<C: PathCost + 'static> Oracle<C> {
    /// Wraps an already-built snapshot as epoch 1.
    pub fn new(snapshot: OracleSnapshot<C>) -> Self {
        Oracle {
            shared: Arc::new(Shared {
                epoch: AtomicU64::new(1),
                slot: Mutex::new(Arc::new(snapshot)),
            }),
        }
    }

    /// Compiles a default snapshot (every vertex a serving source, tree
    /// rows only) from `scheme` and serves it — the one-liner
    /// for "give me a serving oracle for this network".
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultSet};
    /// use rsp_oracle::Oracle;
    ///
    /// let g = generators::grid(4, 4);
    /// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    /// let oracle = Oracle::build(&scheme);
    ///
    /// let mut reader = oracle.reader();
    /// let view = reader.query(0, &FaultSet::single(0));
    /// assert_eq!(view.dist(15), Some(6), "corner-to-corner survives one fault");
    /// ```
    pub fn build(scheme: &ExactScheme<C>) -> Self {
        Oracle::new(OracleSnapshot::builder(scheme).build())
    }

    /// Publishes `snapshot` as the new current epoch and returns that
    /// epoch number.
    ///
    /// The critical section is one `Arc` store plus the epoch bump;
    /// snapshot compilation ([`crate::SnapshotBuilder::build`]) happens
    /// before this call, outside any lock. Readers mid-query keep the
    /// previous epoch's snapshot alive until they next refresh.
    pub fn publish(&self, snapshot: OracleSnapshot<C>) -> u64 {
        let mut replaced = Arc::new(snapshot);
        let epoch = {
            let mut slot = self.shared.lock_slot();
            std::mem::swap(&mut *slot, &mut replaced);
            // Inside the lock: a reader cloning the slot under the lock
            // sees the epoch that matches the snapshot it cloned.
            self.shared.epoch.fetch_add(1, Ordering::Release) + 1
        };
        // Outside the lock: if this was the last reference, freeing the
        // replaced snapshot delays no reader's refresh.
        drop(replaced);
        epoch
    }

    /// The current epoch number (starts at 1, +1 per publish).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// An owned handle to the current snapshot (control-plane
    /// inspection; data-plane threads should use [`Oracle::reader`]).
    pub fn snapshot(&self) -> Arc<OracleSnapshot<C>> {
        Arc::clone(&self.shared.lock_slot())
    }

    /// Creates a data-plane reader: a per-thread handle owning its own
    /// cached snapshot `Arc`, search scratch, and fault-normalization
    /// buffer. Create one per serving thread and keep it — readers are
    /// cheap to use but hold warm buffers worth reusing.
    pub fn reader(&self) -> OracleReader<C> {
        let snapshot = self.snapshot();
        let n = snapshot.graph().n();
        OracleReader {
            shared: Arc::clone(&self.shared),
            epoch: self.epoch(),
            snapshot,
            scratch: SearchScratch::with_capacity(n),
            faults: FaultSet::empty(),
            union: FaultSet::empty(),
        }
    }
}

/// A per-thread data-plane handle answering `(s, t, F)` queries against
/// the oracle's current snapshot.
///
/// The hot path — [`OracleReader::query`] with a fault set missing the
/// precomputed tree — is one atomic epoch load, an `O(|F|)` tree-touch
/// check, and flat-array reads: **zero locks, zero allocation**. Fault
/// sets that hit the tree run the exact engine inside the reader's own
/// warm scratch, on a snapshot with base faults against their union
/// with the query's, built in the reader's own buffer (still
/// allocation-free). Epoch changes are absorbed at
/// query boundaries: one `Arc` clone under the publication mutex, after
/// which the retired snapshot is released.
pub struct OracleReader<C> {
    shared: Arc<Shared<C>>,
    epoch: u64,
    snapshot: Arc<OracleSnapshot<C>>,
    scratch: SearchScratch<C>,
    /// Reused normalization buffer for [`OracleReader::query_edges`].
    faults: FaultSet,
    /// Reused `base ∪ F` buffer for the engine path on snapshots with
    /// base faults.
    union: FaultSet,
}

impl<C: PathCost + 'static> OracleReader<C> {
    /// Adopts the latest published snapshot if the epoch moved; returns
    /// `true` iff the cached snapshot changed.
    ///
    /// Called automatically at every query boundary; exposed so callers
    /// pinning a snapshot across *multiple* queries (a consistent
    /// multi-query transaction) can control exactly when they move
    /// epochs — between refreshes a reader's answers all come from one
    /// immutable snapshot, no matter what the publisher does.
    pub fn refresh(&mut self) -> bool {
        // Lock-free fast path: epoch unchanged ⇒ cached snapshot current.
        if self.shared.epoch.load(Ordering::Acquire) == self.epoch {
            return false;
        }
        let retired = {
            let slot = self.shared.lock_slot();
            // Read the epoch while holding the lock so it matches the
            // clone (publish bumps it inside its critical section).
            self.epoch = self.shared.epoch.load(Ordering::Acquire);
            std::mem::replace(&mut self.snapshot, Arc::clone(&slot))
        };
        // Outside the lock: a reader often holds the retired epoch's
        // last reference, and its free must not stall the publisher.
        drop(retired);
        true
    }

    /// The epoch of the snapshot this reader currently serves from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot this reader currently serves from (stable until the
    /// next [`OracleReader::refresh`] / query boundary).
    pub fn snapshot(&self) -> &OracleSnapshot<C> {
        &self.snapshot
    }

    /// Answers `(s, · , F)` against the latest published snapshot: the
    /// selected tree from `s` in `G \ F` as a borrowed [`TreeView`]
    /// (read `dist`/`cost`/`parent` per target `t` — all
    /// allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `s` or a fault edge id is out of range in the current
    /// snapshot's graph. Serving threads handling untrusted wire input
    /// should use [`OracleReader::try_query`] /
    /// [`OracleReader::try_query_edges`] instead.
    pub fn query(&mut self, s: Vertex, faults: &FaultSet) -> TreeView<'_, C> {
        self.try_query(s, faults).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible twin of [`OracleReader::query`]: malformed queries
    /// (out-of-range source, out-of-range fault edge id) return a
    /// [`QueryError`] instead of panicking the serving thread.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::{generators, FaultSet};
    /// use rsp_oracle::{Oracle, QueryError};
    ///
    /// let g = generators::petersen(); // 10 vertices
    /// let scheme = RandomGridAtw::theorem20(&g, 7).into_scheme();
    /// let mut reader = Oracle::build(&scheme).reader();
    /// let err = reader.try_query(10, &FaultSet::empty()).map(|_| ());
    /// assert_eq!(err.unwrap_err(), QueryError::SourceOutOfRange { source: 10, n: 10 });
    /// ```
    pub fn try_query(
        &mut self,
        s: Vertex,
        faults: &FaultSet,
    ) -> Result<TreeView<'_, C>, QueryError> {
        self.refresh();
        self.snapshot.try_query_in(s, faults, &mut self.union, &mut self.scratch)
    }

    /// [`OracleReader::query`] from a **raw edge-id list**: the serving
    /// boundary's normalization point. The ids are sorted and
    /// deduplicated into the reader's reusable [`FaultSet`] buffer
    /// ([`FaultSet::set_from`]), so duplicate faults in wire input
    /// cannot desynchronize the membership fast path from the
    /// tree-touch check — and nothing allocates once the buffer is
    /// warm.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::generators;
    /// use rsp_oracle::Oracle;
    ///
    /// let g = generators::grid(4, 4);
    /// let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
    /// let oracle = Oracle::build(&scheme);
    /// let mut reader = oracle.reader();
    /// // Duplicated fault report from the wire: same answer as the set.
    /// let dup = reader.query_edges(0, &[3, 3, 3]).dist(15);
    /// let set = reader.query(0, &rsp_graph::FaultSet::single(3)).dist(15);
    /// assert_eq!(dup, set);
    /// ```
    /// # Panics
    ///
    /// Panics if `s` or an edge id is out of range; untrusted wire
    /// boundaries should call [`OracleReader::try_query_edges`].
    pub fn query_edges(&mut self, s: Vertex, edges: &[EdgeId]) -> TreeView<'_, C> {
        self.try_query_edges(s, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible serving boundary for **raw wire queries**: edge ids
    /// are normalized into the reader's buffer, validated, and answered
    /// — a malformed frame yields `Err`, never a panic, so one hostile
    /// client cannot take a reader thread (and with it a poisoned lock)
    /// down.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_core::RandomGridAtw;
    /// use rsp_graph::generators;
    /// use rsp_oracle::{Oracle, QueryError};
    ///
    /// let g = generators::petersen(); // 15 edges
    /// let scheme = RandomGridAtw::theorem20(&g, 7).into_scheme();
    /// let mut reader = Oracle::build(&scheme).reader();
    /// // Garbage edge id from the wire: refused, reader keeps serving.
    /// let err = reader.try_query_edges(0, &[usize::MAX]).map(|_| ());
    /// assert_eq!(err.unwrap_err(), QueryError::FaultOutOfRange { edge: usize::MAX, m: 15 });
    /// assert!(reader.try_query_edges(0, &[3, 3]).is_ok());
    /// ```
    pub fn try_query_edges(
        &mut self,
        s: Vertex,
        edges: &[EdgeId],
    ) -> Result<TreeView<'_, C>, QueryError> {
        self.refresh();
        self.faults.set_from(edges.iter().copied());
        self.snapshot.try_query_in(s, &self.faults, &mut self.union, &mut self.scratch)
    }

    /// Point-to-point convenience: `dist_{G\F}(s, t)`.
    pub fn dist(&mut self, s: Vertex, t: Vertex, faults: &FaultSet) -> Option<u32> {
        self.query(s, faults).dist(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_core::RandomGridAtw;
    use rsp_graph::generators;

    /// Poisons the publication slot: a scoped thread takes the guard —
    /// through the same un-poisoning [`Shared::lock_slot`] path every
    /// production caller uses, so the helper works even on an
    /// *already-poisoned* slot — and panics while holding it.
    fn poison_slot<C: PathCost + Send + Sync + 'static>(oracle: &Oracle<C>) {
        let shared = Arc::clone(&oracle.shared);
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let _guard = shared.lock_slot();
                panic!("deliberate publisher panic while holding the slot");
            });
            assert!(handle.join().is_err(), "the poisoning thread must panic");
        });
        assert!(oracle.shared.slot.is_poisoned(), "postcondition: slot is poisoned");
    }

    /// The un-poisoning regression from the churn-hardening issue: a
    /// thread that panics while holding the publication slot must not
    /// brick publishing or reader refresh. Before the fix, every
    /// subsequent `publish`/`snapshot`/`refresh` died on
    /// `expect("oracle slot poisoned")`.
    #[test]
    fn publish_and_refresh_survive_poisoned_slot() {
        let g = generators::grid(4, 4);
        let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
        let oracle = Oracle::build(&scheme);
        let mut reader = oracle.reader();
        assert_eq!(reader.query(0, &FaultSet::empty()).dist(15), Some(6));

        // Poison the slot: panic on a scoped thread while holding the
        // guard. (This is exactly what a panicking publisher mid-critical-
        // section does to the mutex.)
        poison_slot(&oracle);

        // A publish after the panic must succeed, not unwind...
        let rebuilt = RandomGridAtw::theorem20(&g, 43).into_scheme();
        let before = oracle.epoch();
        let epoch = oracle.publish(OracleSnapshot::builder(&rebuilt).version(7).build());
        assert_eq!(epoch, before + 1);
        // ...and readers must refresh onto the new epoch and keep serving.
        assert!(reader.refresh());
        assert_eq!(reader.snapshot().version(), 7);
        assert_eq!(reader.query(0, &FaultSet::empty()).dist(15), Some(6));
        // Control-plane inspection works too.
        assert_eq!(oracle.snapshot().version(), 7);
    }

    /// Mirror of the publish-after-panic regression for *repeated*
    /// poisoning: a second publisher panic on the already-recovered
    /// slot must not brick anything either — recovery is a property of
    /// every acquisition, not a one-shot cleanup. Before the last
    /// `lock().unwrap()` call site was routed through
    /// [`Shared::lock_slot`], the setup itself (taking the guard on a
    /// poisoned slot to poison it again) would unwind early.
    #[test]
    fn repeated_poisoning_never_bricks_the_slot() {
        let g = generators::grid(4, 4);
        let scheme = RandomGridAtw::theorem20(&g, 42).into_scheme();
        let oracle = Oracle::build(&scheme);
        let mut reader = oracle.reader();

        for round in 0..3u64 {
            poison_slot(&oracle);
            // Each round: publish through the poison, readers refresh
            // and keep answering correctly.
            let rebuilt = RandomGridAtw::theorem20(&g, 43 + round).into_scheme();
            let before = oracle.epoch();
            let epoch =
                oracle.publish(OracleSnapshot::builder(&rebuilt).version(10 + round).build());
            assert_eq!(epoch, before + 1);
            assert!(reader.refresh());
            assert_eq!(reader.snapshot().version(), 10 + round);
            assert_eq!(reader.query(0, &FaultSet::empty()).dist(15), Some(6));
        }
    }
}
