//! Deterministic fault injection at the page-store and log-store
//! boundaries.
//!
//! [`FaultInjector::wrap_parts`] wraps a [`PageStore`] and a [`LogStore`]
//! around one shared fault state and forwards every call, except when a
//! fault armed through the paired [`FaultHandle`] applies. Because the
//! [`PageFile`](crate::PageFile) takes ownership of both stores, the
//! handle is the way to keep arming and inspecting faults after the page
//! file is built:
//!
//! ```
//! use sr_pager::{FaultInjector, MemLogStore, MemPageStore, PageFile, PageKind, PagerError};
//!
//! let (store, log, faults) = FaultInjector::wrap_parts(
//!     Box::new(MemPageStore::new(512)),
//!     Box::new(MemLogStore::new()),
//! );
//! let pf = PageFile::create_from_parts(store, log).unwrap();
//! pf.set_cache_capacity(0).unwrap();
//!
//! let id = pf.allocate(PageKind::Leaf).unwrap();
//! faults.fail_nth_write(0); // the very next write (a WAL append) fails
//! assert!(matches!(
//!     pf.write(id, PageKind::Leaf, b"x"),
//!     Err(PagerError::Injected { .. })
//! ));
//! faults.clear();
//! pf.write(id, PageKind::Leaf, b"x").unwrap(); // healthy again
//! ```
//!
//! The fault families, all deterministic:
//!
//! * **fail Nth** — the Nth read (or write) from *now* returns
//!   [`PagerError::Injected`] without touching the store;
//! * **torn write** — the Nth write persists only a prefix of the data
//!   and then errors, simulating a power cut mid-sector;
//! * **crash at write / sync** — the Nth write persists only a
//!   configurable prefix (a true torn-write-at-crash), or the Nth sync
//!   fails outright, and either way the crash *latches*: every
//!   subsequent read, write, grow, truncate, and sync fails, simulating
//!   the process being cut off from the device at exactly that I/O
//!   point. This is the primitive the crash-recovery suite enumerates.
//! * **crash budget** — after a total operation budget is exhausted,
//!   every subsequent operation fails.
//!
//! Page writes and log writes share one write counter (the Nth write is
//! the Nth write *anywhere*), as do page and log reads; syncs of either
//! store share the sync counter; log truncations count as grows. The
//! crash budget counts all of them together.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{PagerError, Result};
use crate::logstore::LogStore;
use crate::page::PageId;
use crate::store::PageStore;

/// Which injected fault fired — carried inside [`PagerError::Injected`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// An armed Nth-read fault.
    Read,
    /// An armed Nth-write fault.
    Write,
    /// A torn (partial) write: a prefix reached the store, then the
    /// operation errored.
    TornWrite,
    /// A latched crash (at a write, at a sync, or past the op budget);
    /// all I/O is cut off.
    Crash,
}

/// Counters of what the injector has done, via [`FaultHandle::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads forwarded to the inner stores (successfully or not),
    /// page and log combined.
    pub reads: u64,
    /// Writes forwarded to the inner stores, page and log combined.
    pub writes: u64,
    /// Grows and log truncations forwarded.
    pub grows: u64,
    /// Syncs forwarded, page and log combined.
    pub syncs: u64,
    /// Faults of any kind injected.
    pub injected: u64,
    /// Torn writes performed (prefix persisted, error returned).
    pub torn_writes: u64,
}

const DISARMED: u64 = u64::MAX;

/// Shared state between the injector halves (owned by the page file)
/// and the [`FaultHandle`] (kept by the test).
// The injector half and the test's FaultHandle race on these by design.
#[derive(Debug)]
struct FaultState {
    // Operation counters since creation (never reset; faults are armed
    // relative to "now" by adding the current counter).
    reads: AtomicU64,
    writes: AtomicU64,
    grows: AtomicU64,
    syncs: AtomicU64,
    injected: AtomicU64,
    torn_writes: AtomicU64,
    // Absolute operation numbers at which each fault fires; DISARMED
    // means off.
    fail_read_at: AtomicU64,
    fail_write_at: AtomicU64,
    torn_write_at: AtomicU64,
    torn_keep_bytes: AtomicU64,
    crash_write_at: AtomicU64,
    crash_keep_bytes: AtomicU64,
    crash_sync_at: AtomicU64,
    // Total (read+write+grow+sync) budget after which everything fails.
    crash_at: AtomicU64,
    // Latched once a crash-at-write or crash-at-sync point fires.
    crash_fired: AtomicBool,
}

impl FaultState {
    // srlint: ordering -- SeqCst throughout the fault machinery: tests arm a trigger from one thread and count ops from workers, and a single total order keeps "fail the n-th op" deterministic; this is test-only code where clarity beats throughput
    fn new() -> Self {
        FaultState {
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            grows: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            fail_read_at: AtomicU64::new(DISARMED),
            fail_write_at: AtomicU64::new(DISARMED),
            torn_write_at: AtomicU64::new(DISARMED),
            torn_keep_bytes: AtomicU64::new(0),
            crash_write_at: AtomicU64::new(DISARMED),
            crash_keep_bytes: AtomicU64::new(0),
            crash_sync_at: AtomicU64::new(DISARMED),
            crash_at: AtomicU64::new(DISARMED),
            crash_fired: AtomicBool::new(false),
        }
    }

    fn total_ops(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
            + self.writes.load(Ordering::SeqCst)
            + self.grows.load(Ordering::SeqCst)
            + self.syncs.load(Ordering::SeqCst)
    }

    fn crashed(&self) -> bool {
        self.crash_fired.load(Ordering::SeqCst)
            || self.total_ops() >= self.crash_at.load(Ordering::SeqCst)
    }

    fn inject(&self, kind: FaultKind, op: u64) -> PagerError {
        self.injected.fetch_add(1, Ordering::SeqCst);
        PagerError::Injected { kind, op }
    }

    /// Count a write and decide its fate. Returns `Ok(None)` for a clean
    /// pass-through, `Ok(Some(keep))` when only a `keep`-byte prefix may
    /// reach the device (torn or crash — the caller persists the prefix
    /// and then returns the given error by calling `inject`), or the
    /// injected error outright.
    fn on_write(&self) -> std::result::Result<Option<(usize, FaultKind, u64)>, PagerError> {
        if self.crashed() {
            return Err(self.inject(FaultKind::Crash, self.total_ops()));
        }
        let n = self.writes.fetch_add(1, Ordering::SeqCst);
        if n == self.fail_write_at.load(Ordering::SeqCst) {
            return Err(self.inject(FaultKind::Write, n));
        }
        if n == self.torn_write_at.load(Ordering::SeqCst) {
            let keep =
                usize::try_from(self.torn_keep_bytes.load(Ordering::SeqCst)).unwrap_or(usize::MAX);
            return Ok(Some((keep, FaultKind::TornWrite, n)));
        }
        if n == self.crash_write_at.load(Ordering::SeqCst) {
            self.crash_fired.store(true, Ordering::SeqCst);
            let keep =
                usize::try_from(self.crash_keep_bytes.load(Ordering::SeqCst)).unwrap_or(usize::MAX);
            return Ok(Some((keep, FaultKind::Crash, n)));
        }
        Ok(None)
    }

    fn on_read(&self) -> Result<()> {
        if self.crashed() {
            return Err(self.inject(FaultKind::Crash, self.total_ops()));
        }
        let n = self.reads.fetch_add(1, Ordering::SeqCst);
        if n == self.fail_read_at.load(Ordering::SeqCst) {
            return Err(self.inject(FaultKind::Read, n));
        }
        Ok(())
    }

    fn on_grow(&self) -> Result<()> {
        if self.crashed() {
            return Err(self.inject(FaultKind::Crash, self.total_ops()));
        }
        self.grows.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn on_sync(&self) -> Result<()> {
        if self.crashed() {
            return Err(self.inject(FaultKind::Crash, self.total_ops()));
        }
        let n = self.syncs.fetch_add(1, Ordering::SeqCst);
        if n == self.crash_sync_at.load(Ordering::SeqCst) {
            self.crash_fired.store(true, Ordering::SeqCst);
            return Err(self.inject(FaultKind::Crash, n));
        }
        Ok(())
    }
}

/// Test-side handle for arming faults and reading statistics.
///
/// Cloning is cheap; all clones share the same state.
#[derive(Clone, Debug)]
pub struct FaultHandle {
    state: Arc<FaultState>,
}

impl FaultHandle {
    // srlint: ordering -- SeqCst: arming a fault must be visible to the injector's very next op-counter read, and stats() must see every increment the workers published; see the FaultState note
    /// Fail the `n`-th read from now (0 = the very next read).
    pub fn fail_nth_read(&self, n: u64) {
        let at = self.state.reads.load(Ordering::SeqCst) + n;
        self.state.fail_read_at.store(at, Ordering::SeqCst);
    }

    /// Fail the `n`-th write from now (0 = the very next write).
    pub fn fail_nth_write(&self, n: u64) {
        let at = self.state.writes.load(Ordering::SeqCst) + n;
        self.state.fail_write_at.store(at, Ordering::SeqCst);
    }

    /// Make the `n`-th write from now *torn*: only the first
    /// `keep_bytes` bytes of the data reach the store, the rest of the
    /// target range keeps its previous contents, and the call errors.
    pub fn torn_nth_write(&self, n: u64, keep_bytes: usize) {
        let at = self.state.writes.load(Ordering::SeqCst) + n;
        self.state
            .torn_keep_bytes
            .store(keep_bytes as u64, Ordering::SeqCst);
        self.state.torn_write_at.store(at, Ordering::SeqCst);
    }

    /// Crash at the `n`-th write from now: the write persists only its
    /// first `keep_bytes` bytes (a torn tail at the crash point), the
    /// call errors, and every subsequent operation fails until
    /// [`FaultHandle::clear`]. `keep_bytes = usize::MAX` persists the
    /// whole write before cutting off.
    pub fn crash_at_write(&self, n: u64, keep_bytes: usize) {
        let at = self.state.writes.load(Ordering::SeqCst) + n;
        self.state
            .crash_keep_bytes
            .store(keep_bytes as u64, Ordering::SeqCst);
        self.state.crash_write_at.store(at, Ordering::SeqCst);
    }

    /// Crash at the `n`-th sync from now: the sync fails (nothing is
    /// made durable by it) and every subsequent operation fails until
    /// [`FaultHandle::clear`].
    pub fn crash_at_sync(&self, n: u64) {
        let at = self.state.syncs.load(Ordering::SeqCst) + n;
        self.state.crash_sync_at.store(at, Ordering::SeqCst);
    }

    /// Cut off all I/O after `n` more operations (reads + writes +
    /// grows + syncs). `n = 0` makes every subsequent operation fail.
    pub fn crash_after(&self, n: u64) {
        let at = self.state.total_ops() + n;
        self.state.crash_at.store(at, Ordering::SeqCst);
    }

    /// Disarm every pending fault (crash points and the latched crash
    /// included). Statistics are kept.
    pub fn clear(&self) {
        self.state.fail_read_at.store(DISARMED, Ordering::SeqCst);
        self.state.fail_write_at.store(DISARMED, Ordering::SeqCst);
        self.state.torn_write_at.store(DISARMED, Ordering::SeqCst);
        self.state.crash_write_at.store(DISARMED, Ordering::SeqCst);
        self.state.crash_sync_at.store(DISARMED, Ordering::SeqCst);
        self.state.crash_at.store(DISARMED, Ordering::SeqCst);
        self.state.crash_fired.store(false, Ordering::SeqCst);
    }

    /// Whether a crash point has fired or the crash budget has been
    /// reached.
    pub fn crashed(&self) -> bool {
        self.state.crash_fired.load(Ordering::SeqCst)
            || (self.state.crash_at.load(Ordering::SeqCst) != DISARMED && self.state.crashed())
    }

    /// Snapshot of the injector's counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            reads: self.state.reads.load(Ordering::SeqCst),
            writes: self.state.writes.load(Ordering::SeqCst),
            grows: self.state.grows.load(Ordering::SeqCst),
            syncs: self.state.syncs.load(Ordering::SeqCst),
            injected: self.state.injected.load(Ordering::SeqCst),
            torn_writes: self.state.torn_writes.load(Ordering::SeqCst),
        }
    }
}

/// A [`PageStore`] adapter that injects deterministic faults.
///
/// Built with [`FaultInjector::wrap`] (page store only) or
/// [`FaultInjector::wrap_parts`] (page store + log store sharing one
/// fault state), which return the boxed store(s) to hand to the page
/// file plus the [`FaultHandle`] to keep.
pub struct FaultInjector {
    inner: Box<dyn PageStore>,
    state: Arc<FaultState>,
}

impl FaultInjector {
    /// Wrap `inner`, returning the injector (as a boxed store, ready for
    /// [`PageFile::create_from_store`](crate::PageFile::create_from_store))
    /// and the handle that controls it. Note that a page file built this
    /// way logs to an *unfaulted* in-memory WAL; tests that want faults
    /// on the write path should use [`FaultInjector::wrap_parts`].
    pub fn wrap(inner: Box<dyn PageStore>) -> (Box<dyn PageStore>, FaultHandle) {
        let state = Arc::new(FaultState::new());
        let handle = FaultHandle {
            state: state.clone(),
        };
        (Box::new(FaultInjector { inner, state }), handle)
    }

    /// Wrap a page store and a log store around one shared fault state,
    /// ready for
    /// [`PageFile::create_from_parts`](crate::PageFile::create_from_parts)
    /// or [`PageFile::open_from_parts`](crate::PageFile::open_from_parts).
    /// Write, read, and sync counters span both stores, so a crash point
    /// enumerates every I/O the pager performs, wherever it lands.
    pub fn wrap_parts(
        page_store: Box<dyn PageStore>,
        log_store: Box<dyn LogStore>,
    ) -> (Box<dyn PageStore>, Box<dyn LogStore>, FaultHandle) {
        let state = Arc::new(FaultState::new());
        let handle = FaultHandle {
            state: state.clone(),
        };
        (
            Box::new(FaultInjector {
                inner: page_store,
                state: state.clone(),
            }),
            Box::new(FaultLogInjector {
                inner: log_store,
                state,
            }),
            handle,
        )
    }
}

impl PageStore for FaultInjector {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.state.on_read()?;
        self.inner.read_page(id, buf)
    }

    // srlint: ordering -- SeqCst torn-write counter: pairs with the armed trigger loads; see the FaultState note
    fn write_page(&self, id: PageId, data: &[u8]) -> Result<()> {
        match self.state.on_write()? {
            None => self.inner.write_page(id, data),
            Some((keep, kind, n)) => {
                let keep = keep.min(data.len());
                // Persist the prefix over the page's previous contents:
                // read the old page, splice the new prefix in, write it
                // back.
                let mut old = vec![0u8; self.inner.page_size()];
                if self.inner.read_page(id, &mut old).is_ok() {
                    if let (Some(dst), Some(src)) = (old.get_mut(..keep), data.get(..keep)) {
                        dst.copy_from_slice(src);
                    }
                    let _ = self.inner.write_page(id, &old);
                }
                self.state.torn_writes.fetch_add(1, Ordering::SeqCst);
                Err(self.state.inject(kind, n))
            }
        }
    }

    fn grow(&self, new_num_pages: u64) -> Result<()> {
        self.state.on_grow()?;
        self.inner.grow(new_num_pages)
    }

    fn sync(&self) -> Result<()> {
        self.state.on_sync()?;
        self.inner.sync()
    }
}

/// The [`LogStore`] half of [`FaultInjector::wrap_parts`].
struct FaultLogInjector {
    inner: Box<dyn LogStore>,
    state: Arc<FaultState>,
}

impl LogStore for FaultLogInjector {
    fn log_len(&self) -> u64 {
        self.inner.log_len()
    }

    fn read_log_at(&self, off: u64, buf: &mut [u8]) -> Result<()> {
        self.state.on_read()?;
        self.inner.read_log_at(off, buf)
    }

    // srlint: ordering -- SeqCst torn-write counter: pairs with the armed trigger loads; see the FaultState note
    fn write_log_at(&self, off: u64, data: &[u8]) -> Result<()> {
        match self.state.on_write()? {
            None => self.inner.write_log_at(off, data),
            Some((keep, kind, n)) => {
                // A torn log append: only the prefix lands; whatever the
                // log held beyond it (old-generation bytes or nothing)
                // survives as-is, exactly like a power cut mid-append.
                let keep = keep.min(data.len());
                if let Some(prefix) = data.get(..keep) {
                    if !prefix.is_empty() {
                        let _ = self.inner.write_log_at(off, prefix);
                    }
                }
                self.state.torn_writes.fetch_add(1, Ordering::SeqCst);
                Err(self.state.inject(kind, n))
            }
        }
    }

    fn truncate_log(&self, new_len: u64) -> Result<()> {
        self.state.on_grow()?;
        self.inner.truncate_log(new_len)
    }

    fn sync_log(&self) -> Result<()> {
        self.state.on_sync()?;
        self.inner.sync_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logstore::MemLogStore;
    use crate::store::MemPageStore;

    fn wrapped(page_size: usize) -> (Box<dyn PageStore>, FaultHandle) {
        FaultInjector::wrap(Box::new(MemPageStore::new(page_size)))
    }

    #[test]
    fn passthrough_when_disarmed() {
        let (store, faults) = wrapped(64);
        store.grow(2).unwrap();
        store.write_page(0, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        let s = faults.stats();
        assert_eq!((s.reads, s.writes, s.grows, s.injected), (1, 1, 1, 0));
    }

    #[test]
    fn nth_read_fails_once() {
        let (store, faults) = wrapped(64);
        store.grow(1).unwrap();
        store.write_page(0, &[1u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        faults.fail_nth_read(1); // the read after the next
        store.read_page(0, &mut buf).unwrap();
        let err = store.read_page(0, &mut buf).unwrap_err();
        assert!(matches!(
            err,
            PagerError::Injected {
                kind: FaultKind::Read,
                ..
            }
        ));
        // One-shot: the counter has moved past the armed point.
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(faults.stats().injected, 1);
    }

    #[test]
    fn nth_write_fails_and_leaves_page_untouched() {
        let (store, faults) = wrapped(64);
        store.grow(1).unwrap();
        store.write_page(0, &[1u8; 64]).unwrap();
        faults.fail_nth_write(0);
        let err = store.write_page(0, &[2u8; 64]).unwrap_err();
        assert!(matches!(
            err,
            PagerError::Injected {
                kind: FaultKind::Write,
                ..
            }
        ));
        let mut buf = [0u8; 64];
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64], "failed write must not reach the store");
    }

    #[test]
    fn torn_write_persists_only_the_prefix() {
        let (store, faults) = wrapped(64);
        store.grow(1).unwrap();
        store.write_page(0, &[0xAA; 64]).unwrap();
        faults.torn_nth_write(0, 3);
        let err = store.write_page(0, &[0xBB; 64]).unwrap_err();
        assert!(matches!(
            err,
            PagerError::Injected {
                kind: FaultKind::TornWrite,
                ..
            }
        ));
        let mut buf = [0u8; 64];
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(&buf[..3], &[0xBB; 3], "prefix must be the new data");
        assert_eq!(&buf[3..], &[0xAA; 61], "suffix must be the old data");
        assert_eq!(faults.stats().torn_writes, 1);
    }

    #[test]
    fn crash_budget_cuts_off_everything() {
        let (store, faults) = wrapped(64);
        store.grow(1).unwrap();
        faults.crash_after(2);
        let mut buf = [0u8; 64];
        store.write_page(0, &[1u8; 64]).unwrap();
        store.read_page(0, &mut buf).unwrap();
        assert!(faults.crashed());
        for _ in 0..3 {
            assert!(matches!(
                store.read_page(0, &mut buf),
                Err(PagerError::Injected {
                    kind: FaultKind::Crash,
                    ..
                })
            ));
            assert!(matches!(
                store.write_page(0, &[2u8; 64]),
                Err(PagerError::Injected {
                    kind: FaultKind::Crash,
                    ..
                })
            ));
            assert!(matches!(
                store.grow(4),
                Err(PagerError::Injected {
                    kind: FaultKind::Crash,
                    ..
                })
            ));
            assert!(
                store.sync().is_err(),
                "a crashed device must not pretend to sync"
            );
        }
        faults.clear();
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);
    }

    #[test]
    fn crash_at_write_tears_and_latches() {
        let (store, faults) = wrapped(64);
        store.grow(1).unwrap();
        store.write_page(0, &[0xAA; 64]).unwrap();
        faults.crash_at_write(0, 5);
        let err = store.write_page(0, &[0xBB; 64]).unwrap_err();
        assert!(matches!(
            err,
            PagerError::Injected {
                kind: FaultKind::Crash,
                ..
            }
        ));
        assert!(faults.crashed(), "crash point must latch");
        let mut buf = [0u8; 64];
        assert!(store.read_page(0, &mut buf).is_err(), "latched: no reads");
        assert!(store.sync().is_err(), "latched: no syncs");
        faults.clear();
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(&buf[..5], &[0xBB; 5], "crash kept the 5-byte prefix");
        assert_eq!(&buf[5..], &[0xAA; 59], "suffix survived from before");
    }

    #[test]
    fn crash_at_sync_fails_the_barrier_and_latches() {
        let (store, faults) = wrapped(64);
        store.grow(1).unwrap();
        store.sync().unwrap();
        faults.crash_at_sync(1); // the sync after the next
        store.sync().unwrap();
        assert!(matches!(
            store.sync(),
            Err(PagerError::Injected {
                kind: FaultKind::Crash,
                ..
            })
        ));
        assert!(faults.crashed());
        assert!(store.write_page(0, &[1u8; 64]).is_err());
        faults.clear();
        assert!(!faults.crashed());
        store.sync().unwrap();
        assert_eq!(faults.stats().syncs, 4);
    }

    #[test]
    fn shared_state_spans_page_and_log_stores() {
        let (store, log, faults) = FaultInjector::wrap_parts(
            Box::new(MemPageStore::new(64)),
            Box::new(MemLogStore::new()),
        );
        store.grow(1).unwrap();
        // Writes share one counter: arm the 2nd write, then do one page
        // write and one log write — the log write is the one that fails.
        faults.fail_nth_write(1);
        store.write_page(0, &[1u8; 64]).unwrap();
        let err = log.write_log_at(0, b"frame").unwrap_err();
        assert!(matches!(
            err,
            PagerError::Injected {
                kind: FaultKind::Write,
                ..
            }
        ));
        faults.clear();

        // A torn log write keeps only the prefix.
        faults.torn_nth_write(0, 2); // the very next write
        assert!(log.write_log_at(0, b"abcdef").is_err());
        assert_eq!(log.log_len(), 2, "only the 2-byte prefix landed");
        let mut buf = [0u8; 2];
        log.read_log_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ab");

        // Log syncs and truncations are crashable too.
        faults.clear();
        faults.crash_at_sync(0);
        assert!(log.sync_log().is_err());
        assert!(log.truncate_log(0).is_err(), "latched after the sync crash");
        assert!(store.read_page(0, &mut [0u8; 64]).is_err());
        faults.clear();
        log.truncate_log(0).unwrap();
    }

    #[test]
    fn clear_disarms_pending_faults() {
        let (store, faults) = wrapped(64);
        store.grow(1).unwrap();
        faults.fail_nth_write(0);
        faults.fail_nth_read(0);
        faults.clear();
        store.write_page(0, &[1u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        store.read_page(0, &mut buf).unwrap();
        assert_eq!(faults.stats().injected, 0);
    }
}
