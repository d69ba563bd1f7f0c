//! Crash-point recovery harness.
//!
//! The WAL's contract (see `sr_pager::wal` and DESIGN.md §WAL) is that a
//! crash at *any* I/O point leaves the store recoverable to the most
//! recent committed checkpoint — or, if the crash interrupted a commit,
//! to either side of that commit (atomicity). This module packages the
//! machinery the crash-recovery suites share:
//!
//! * [`SharedParts`] / [`faulted_parts`] / [`reopen`] — a memory-backed
//!   page-store + log-store pair whose clones share bytes, wrapped in one
//!   fault state spanning both halves. After the faulted `PageFile` dies,
//!   [`reopen`] replays the WAL from the surviving bytes exactly like a
//!   process restart would;
//! * [`matches_model`] — oracle-exact equivalence: recovered tree and
//!   [`Model`] must agree on length, pass the structure's own
//!   invariant `verify`, and answer a probe set of k-NN and range
//!   queries identically (ids and distances).
//!
//! The trees themselves come from [`crate::TreeKind`] as
//! `Box<dyn SpatialIndex>`. A crashed run surfaces whatever typed error
//! the tree wraps the injected fault in; the harness only cares *that*
//! it failed, and [`FaultHandle::crashed`] tells it *why*.

use sr_geometry::Point;
use sr_pager::{
    FaultHandle, FaultInjector, LogStore, MemLogStore, MemPageStore, PageFile, PageStore,
};
use sr_query::SpatialIndex;

use crate::diff::check_answer;
use crate::model::Model;

/// Cloneable handles on the surviving bytes of a faulted store pair.
///
/// `MemPageStore` and `MemLogStore` clones share their byte buffers, so
/// holding these while the faulted [`PageFile`] lives — and reopening
/// from fresh clones after it dies — models a process crash: everything
/// the "process" wrote before the fault latched is visible, everything
/// after is gone because the latch failed it.
pub struct SharedParts {
    /// Shares pages with the store the faulted pager writes through.
    pub store: MemPageStore,
    /// Shares log bytes with the WAL the faulted pager appends to.
    pub log: MemLogStore,
}

/// Build a memory-backed (page store, log store) pair wrapped in one
/// fault state, plus cloneable handles on the underlying bytes.
pub fn faulted_parts(
    page_size: usize,
) -> (
    Box<dyn PageStore>,
    Box<dyn LogStore>,
    FaultHandle,
    SharedParts,
) {
    let store = MemPageStore::new(page_size);
    let log = MemLogStore::new();
    let shared = SharedParts {
        store: store.clone(),
        log: log.clone(),
    };
    let (s, l, handle) = FaultInjector::wrap_parts(Box::new(store), Box::new(log));
    (s, l, handle, shared)
}

/// Reopen a pager over the surviving bytes, replaying the WAL exactly
/// as a process restart would. Fails only if no committed state ever
/// reached the store (e.g. the crash hit the pager's own creation
/// commit).
pub fn reopen(shared: &SharedParts) -> sr_pager::Result<PageFile> {
    PageFile::open_from_parts(Box::new(shared.store.clone()), Box::new(shared.log.clone()))
}

/// Oracle-exact equivalence between a recovered tree and a [`Model`]
/// snapshot: same length, invariants hold, and identical answers (ids
/// and distances) on every probe query.
pub fn matches_model(
    tree: &dyn SpatialIndex,
    model: &Model,
    queries: &[Point],
    k: usize,
    radius: f64,
) -> Result<(), String> {
    if tree.len() != model.len() as u64 {
        return Err(format!("len {} != oracle {}", tree.len(), model.len()));
    }
    tree.verify().map_err(|e| format!("verify: {e}"))?;
    for (qi, q) in queries.iter().enumerate() {
        let got = tree
            .knn(q.coords(), k)
            .map_err(|e| format!("knn[{qi}]: {e}"))?;
        let want = model.knn(q.coords(), k);
        check_answer("recovered", &got, &want, true).map_err(|e| format!("knn[{qi}]: {e}"))?;
        let got = tree
            .range(q.coords(), radius)
            .map_err(|e| format!("range[{qi}]: {e}"))?;
        let want = model.range(q.coords(), radius);
        check_answer("recovered", &got, &want, true).map_err(|e| format!("range[{qi}]: {e}"))?;
    }
    Ok(())
}
