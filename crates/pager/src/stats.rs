//! I/O statistics — the measurement instrument behind every "number of
//! disk reads" series in the paper.
//!
//! Recording happens through [`AtomicIoStats`] (relaxed atomics, so the
//! sharded buffer pool can count from many threads without a lock);
//! [`IoStats`] is the plain snapshot type the public API hands out.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::page::PageKind;

/// Counters for page traffic, split by [`PageKind`].
///
/// * **Logical** reads/writes count every request made to the
///   [`crate::PageFile`], hit or miss. With the buffer pool disabled
///   (capacity 0), logical = physical, which is the cold-cache accounting
///   the paper's per-query disk-read plots use.
/// * **Physical** reads/writes count only requests that reached the
///   underlying [`crate::PageStore`].
/// * **Cache** hits/misses count buffer-pool probes on the read path
///   (every logical read is exactly one hit or one miss, and every miss
///   is exactly one physical read); evictions count pages pushed out of
///   the pool to make room, dirty or clean.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    logical_reads: [u64; 4],
    logical_writes: [u64; 4],
    physical_reads: u64,
    physical_writes: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

/// The live, thread-safe counters behind a `PageFile`. All increments are
/// relaxed atomics: counts from concurrent readers are never lost, though a
/// [`AtomicIoStats::snapshot`] taken mid-operation may observe one counter
/// of a pair (e.g. miss/physical-read) before the other. Snapshots taken
/// at a quiescent point are exact.
// The misses == physical-reads pairing is kept exact by the shard lock
// in `PageFile::read_raw`, not by this type.
#[derive(Default)]
pub(crate) struct AtomicIoStats {
    logical_reads: [AtomicU64; 4],
    logical_writes: [AtomicU64; 4],
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
}

impl AtomicIoStats {
    // srlint: ordering -- relaxed everywhere: each counter is an independent monotone tally, and the misses == physical_reads invariant is enforced by incrementing both under the same shard lock in read_raw, not by memory ordering; quiescent snapshots are therefore exact
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_logical_read(&self, kind: PageKind) {
        if let Some(c) = self.logical_reads.get(kind as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_logical_write(&self, kind: PageKind) {
        if let Some(c) = self.logical_writes.get(kind as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_physical_read(&self) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_physical_write(&self) {
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cache_evictions(&self, n: u64) {
        self.cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Copy the counters into a plain [`IoStats`] value.
    pub(crate) fn snapshot(&self) -> IoStats {
        let arr = |a: &[AtomicU64; 4]| {
            let mut out = [0u64; 4];
            for (o, c) in out.iter_mut().zip(a.iter()) {
                *o = c.load(Ordering::Relaxed);
            }
            out
        };
        IoStats {
            logical_reads: arr(&self.logical_reads),
            logical_writes: arr(&self.logical_writes),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter.
    pub(crate) fn reset(&self) {
        for c in &self.logical_reads {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.logical_writes {
            c.store(0, Ordering::Relaxed);
        }
        self.physical_reads.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.cache_evictions.store(0, Ordering::Relaxed);
    }
}

impl IoStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logical reads of pages of `kind`.
    pub fn logical_reads(&self, kind: PageKind) -> u64 {
        self.logical_reads.get(kind as usize).copied().unwrap_or(0)
    }

    /// Logical writes of pages of `kind`.
    pub fn logical_writes(&self, kind: PageKind) -> u64 {
        self.logical_writes.get(kind as usize).copied().unwrap_or(0)
    }

    /// Total logical reads of node and leaf pages — the paper's
    /// "number of disk reads" for a query.
    pub fn tree_reads(&self) -> u64 {
        self.logical_reads(PageKind::Node) + self.logical_reads(PageKind::Leaf)
    }

    /// Total logical node+leaf accesses (reads + writes) — the paper's
    /// "number of disk accesses" for insertion cost (Figure 9-b).
    pub fn tree_accesses(&self) -> u64 {
        self.tree_reads()
            + self.logical_writes(PageKind::Node)
            + self.logical_writes(PageKind::Leaf)
    }

    /// Physical reads that reached the backing store.
    pub fn physical_reads(&self) -> u64 {
        self.physical_reads
    }

    /// Physical writes that reached the backing store.
    pub fn physical_writes(&self) -> u64 {
        self.physical_writes
    }

    /// Read-path buffer-pool probes answered from memory.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Read-path buffer-pool probes that had to go to the store. Always
    /// equal to [`IoStats::physical_reads`].
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Pages evicted from the buffer pool to make room (dirty or clean),
    /// including those spilled by a capacity shrink.
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions
    }

    /// Hit fraction of read-path probes, or `None` before the first probe.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        #[allow(clippy::cast_precision_loss)] // display-only ratio
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Difference `self - earlier`, for windowed measurements around a
    /// single query. Saturates rather than panicking if counters were
    /// reset in between.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        let mut d = IoStats::new();
        let sub = |now: &[u64; 4], then: &[u64; 4], out: &mut [u64; 4]| {
            for (o, (a, b)) in out.iter_mut().zip(now.iter().zip(then)) {
                *o = a.saturating_sub(*b);
            }
        };
        sub(
            &self.logical_reads,
            &earlier.logical_reads,
            &mut d.logical_reads,
        );
        sub(
            &self.logical_writes,
            &earlier.logical_writes,
            &mut d.logical_writes,
        );
        d.physical_reads = self.physical_reads.saturating_sub(earlier.physical_reads);
        d.physical_writes = self.physical_writes.saturating_sub(earlier.physical_writes);
        d.cache_hits = self.cache_hits.saturating_sub(earlier.cache_hits);
        d.cache_misses = self.cache_misses.saturating_sub(earlier.cache_misses);
        d.cache_evictions = self.cache_evictions.saturating_sub(earlier.cache_evictions);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_kind() {
        let a = AtomicIoStats::new();
        a.record_logical_read(PageKind::Node);
        a.record_logical_read(PageKind::Node);
        a.record_logical_read(PageKind::Leaf);
        a.record_logical_write(PageKind::Leaf);
        let s = a.snapshot();
        assert_eq!(s.logical_reads(PageKind::Node), 2);
        assert_eq!(s.logical_reads(PageKind::Leaf), 1);
        assert_eq!(s.logical_reads(PageKind::Meta), 0);
        assert_eq!(s.tree_reads(), 3);
        assert_eq!(s.tree_accesses(), 4);
    }

    #[test]
    fn since_subtracts() {
        let a = AtomicIoStats::new();
        a.record_logical_read(PageKind::Leaf);
        let snapshot = a.snapshot();
        a.record_logical_read(PageKind::Leaf);
        a.record_physical_read();
        let d = a.snapshot().since(&snapshot);
        assert_eq!(d.logical_reads(PageKind::Leaf), 1);
        assert_eq!(d.physical_reads(), 1);
    }

    #[test]
    fn since_saturates_after_reset() {
        let a = AtomicIoStats::new();
        a.record_physical_read();
        let old = a.snapshot();
        a.reset();
        assert_eq!(a.snapshot().since(&old).physical_reads(), 0);
    }

    #[test]
    fn cache_counters_accumulate_and_window() {
        let a = AtomicIoStats::new();
        assert_eq!(a.snapshot().cache_hit_rate(), None, "no probes yet");
        a.record_cache_hit();
        a.record_cache_hit();
        a.record_cache_hit();
        a.record_cache_miss();
        a.record_cache_evictions(2);
        let s = a.snapshot();
        assert_eq!(s.cache_hits(), 3);
        assert_eq!(s.cache_misses(), 1);
        assert_eq!(s.cache_evictions(), 2);
        assert_eq!(s.cache_hit_rate(), Some(0.75));

        let snapshot = s.clone();
        a.record_cache_miss();
        a.record_cache_evictions(1);
        let d = a.snapshot().since(&snapshot);
        assert_eq!(d.cache_hits(), 0);
        assert_eq!(d.cache_misses(), 1);
        assert_eq!(d.cache_evictions(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let a = AtomicIoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        a.record_cache_hit();
                        a.record_logical_read(PageKind::Leaf);
                    }
                });
            }
        });
        let s = a.snapshot();
        assert_eq!(s.cache_hits(), 4000);
        assert_eq!(s.logical_reads(PageKind::Leaf), 4000);
    }
}
