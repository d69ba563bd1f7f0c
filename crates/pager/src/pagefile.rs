//! The [`PageFile`]: a page store + write-ahead log + buffer pool +
//! free list + metadata page, with per-kind I/O accounting.
//!
//! ## On-disk layout
//!
//! * Page 0 is the **metadata page**: magic, format version, page size,
//!   free-list head, and an opaque *user metadata* blob the index crates
//!   use to persist their root page id, dimensionality, and entry counts.
//! * Every other page carries a 5-byte header — kind byte + payload
//!   length (`u32`) — followed by the payload. [`PageFile::capacity`]
//!   reports the usable payload bytes per page; the index crates size
//!   their fanout from it (Table 1 of the paper).
//! * Freed pages are chained into a free list through their payload.
//! * A sibling **write-ahead log** ([`crate::wal`]) holds every page
//!   image written since the last checkpoint.
//!
//! ## Durability: redo-only WAL
//!
//! Between [`PageFile::flush`] calls the store is never written in
//! place: every mutation appends a checksummed full-page redo frame to
//! the log and caches a clean copy. `flush` is the commit point — it
//! appends a commit marker, fsyncs the log (the durability barrier),
//! copies the latest image of each logged page into the store
//! (checkpoint), fsyncs the store, and truncates the log. A crash at
//! any instant therefore leaves the store at its last checkpoint plus a
//! log whose committed frames [`PageFile::open`] replays before the
//! pager serves reads; uncommitted or torn tail frames are discarded by
//! checksum. Recovery is idempotent: replaying a committed generation
//! twice rewrites the same images.
//!
//! ## Concurrency
//!
//! The read path is safe to drive from many threads at once. The buffer
//! pool is split into [`PageFile::CACHE_SHARDS`] lock-striped LRU shards
//! keyed by `page_id % CACHE_SHARDS`, so concurrent readers touching
//! different shards never contend; I/O counters are relaxed atomics
//! ([`crate::stats`]). A shard's lock is held across the read-through
//! (probe → WAL-index probe → log or store read → insert), which keeps
//! the accounting exact — every miss is exactly one physical read, with
//! no duplicate fetches of the same page — at the cost of serializing
//! same-shard misses.
//!
//! The metadata state (free-list head, user metadata) has its own
//! mutex, as does the WAL append state (frame index, log length,
//! epoch). The lock order is the total chain meta → shard → wal:
//! allocate/free take meta first, the read path takes a shard lock and
//! probes the WAL index under it, and nothing acquires meta or a shard
//! while holding the WAL lock (log I/O is staged under the WAL lock but
//! performed after releasing it). Mutating operations (`allocate`/
//! `free`/`write`/`set_user_meta`/`flush`) remain single-writer by
//! contract: they are internally consistent, but the index crates'
//! `&mut self` update paths are what actually serializes structural
//! changes.

// srlint: lock-order(meta < shard) -- allocate and free touch a page's cache shard while holding the free-list mutex; the read/write path takes only shard locks, so acquiring meta after a shard would invert the order and deadlock
// srlint: lock-order(meta < wal) -- allocate reads free-list pages (and so probes the WAL index) while holding the free-list mutex; the WAL lock is always innermost
// srlint: lock-order(shard < wal) -- the read-through probes the WAL index while holding the page's shard lock; acquiring a shard while holding the WAL lock would invert the order and deadlock

use std::io::Read;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;

use crate::cache::{LruCache, PageIdMap};
use crate::error::{PagerError, Result};
use crate::logstore::{wal_file_path, FileLogStore, LogStore, MemLogStore};
use crate::page::{PageCodec, PageId, PageKind, PageReader, DEFAULT_PAGE_SIZE};
use crate::stats::{AtomicIoStats, IoStats};
use crate::store::{FilePageStore, MemPageStore, PageStore};
use crate::wal::{
    encode_commit_frame, encode_header, encode_page_frame, scan_log, AtomicWalStats, WalStats,
    FRAME_HEADER,
};

const MAGIC: u32 = 0x5352_5047; // "SRPG"
const VERSION: u32 = 1;
/// kind (u8) + payload length (u32)
const PAGE_HEADER: usize = 5;
/// magic + version + page_size + free_head + user_meta_len
const META_HEADER: usize = 4 + 4 + 4 + 8 + 4;
/// "no page" sentinel for the free list (page 0 is the meta page).
const NIL: PageId = 0;

/// Free-list head and user metadata, guarded together because both live
/// on the meta page and are flushed as one unit.
struct MetaState {
    free_head: PageId,
    user_meta: Vec<u8>,
    meta_dirty: bool,
}

/// Append state of the current write-ahead-log generation.
struct WalState {
    /// Offset of the latest logged frame of each page in this
    /// generation. The read path serves these pages from the log; the
    /// checkpoint in [`PageFile::flush`] copies them into the store.
    index: PageIdMap<u64>,
    /// Logical length of the log: the next append offset. Advanced only
    /// after the log write succeeds, so a failed or torn append is
    /// overwritten in place by the retry instead of burying garbage
    /// mid-log.
    len: u64,
    /// Checksum salt of this generation; bumped on every truncation so
    /// stale frames from earlier generations can never replay.
    epoch: u64,
    /// Commit markers appended in this generation.
    commit_seq: u64,
}

/// Build a page image in one allocation: `len` zero bytes, shared as the
/// `Arc<[u8]>` the buffer pool and the log append hold, and filled by
/// `fill` before anyone else can see them.
fn build_page(len: usize, fill: impl FnOnce(&mut [u8]) -> Result<()>) -> Result<Arc<[u8]>> {
    let mut page: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
    let bytes = Arc::get_mut(&mut page)
        .ok_or_else(|| PagerError::Corrupt("a fresh page image is already shared".into()))?;
    fill(bytes)?;
    Ok(page)
}

/// A zero-copy view of one page's payload.
///
/// Holds a shared reference to the buffer pool's immutable page image
/// plus the payload's byte range, and dereferences to `&[u8]`. Page
/// images are never mutated in place — a write installs a fresh image —
/// so the view is immutable and remains valid after eviction or
/// overwrite of the page it came from.
#[derive(Clone)]
pub struct PageBuf {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Deref for PageBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        // The range is validated against the image in `PageFile::read`;
        // an out-of-sync view degrades to empty rather than panicking.
        self.data.get(self.start..self.end).unwrap_or(&[])
    }
}

impl AsRef<[u8]> for PageBuf {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq<[u8]> for PageBuf {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for PageBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for PageBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == other[..]
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageBuf")
            .field("len", &(self.end - self.start))
            .finish()
    }
}

/// A page file: fixed-size pages addressed by [`PageId`], with a
/// write-ahead log, a sharded LRU buffer pool, a free list, persistent
/// user metadata, and I/O statistics.
///
/// All methods take `&self`. The read path (`read`, `stats`) is safe and
/// scalable under concurrent use; see the module docs for the locking
/// contract.
pub struct PageFile {
    store: Box<dyn PageStore>,
    log: Box<dyn LogStore>,
    page_size: usize,
    /// Lock-striped buffer pool; shard of page `id` is
    /// `id % CACHE_SHARDS`.
    shards: Vec<Mutex<LruCache>>,
    /// Total requested pool capacity (the sum of per-shard capacities).
    cache_pages: AtomicUsize,
    stats: AtomicIoStats,
    meta: Mutex<MetaState>,
    wal: Mutex<WalState>,
    wal_stats: AtomicWalStats,
}

impl PageFile {
    /// Default buffer-pool capacity for freshly created files, in pages.
    pub const DEFAULT_CACHE_PAGES: usize = 256;

    /// Number of lock stripes in the buffer pool. A small power of two:
    /// enough stripes that a typical batch-query worker pool (≤ 8-ish
    /// threads) rarely collides on a stripe, few enough that even modest
    /// pool capacities spread usefully across them.
    pub const CACHE_SHARDS: usize = 8;

    /// Split a total pool capacity across the shards: `total / SHARDS`
    /// each, with the remainder going one page at a time to the lowest
    /// shards. The sum is always exactly `total`, so the pool never holds
    /// more pages than asked for; capacities below [`Self::CACHE_SHARDS`]
    /// leave some shards cache-less (their pages read through).
    fn shard_capacities(total: usize) -> Vec<usize> {
        let base = total / Self::CACHE_SHARDS;
        let rem = total % Self::CACHE_SHARDS;
        (0..Self::CACHE_SHARDS)
            .map(|i| base + usize::from(i < rem))
            .collect()
    }

    fn new_shards(total: usize) -> Vec<Mutex<LruCache>> {
        Self::shard_capacities(total)
            .into_iter()
            .map(|cap| Mutex::new(LruCache::new(cap)))
            .collect()
    }

    /// The shard holding page `id`. Infallible in practice (the index is
    /// a modulus of the shard count); typed rather than panicking per the
    /// workspace's no-panic policy.
    fn shard(&self, id: PageId) -> Result<&Mutex<LruCache>> {
        let n = u64::try_from(self.shards.len())
            .map_err(|_| PagerError::Corrupt("shard count does not fit u64".into()))?;
        let idx = usize::try_from(id % n.max(1))
            .map_err(|_| PagerError::Corrupt("shard index does not fit usize".into()))?;
        self.shards
            .get(idx)
            .ok_or_else(|| PagerError::Corrupt(format!("shard {idx} out of range")))
    }

    /// Create a page file over an in-memory store (with an in-memory
    /// write-ahead log).
    pub fn create_in_memory(page_size: usize) -> Result<PageFile> {
        Self::create_from_store(Box::new(MemPageStore::new(page_size)))
    }

    /// Create a page file at `path` with the default 8192-byte pages.
    /// The write-ahead log lives beside it at `<path>.wal`.
    pub fn create(path: &Path) -> Result<PageFile> {
        Self::create_with_page_size(path, DEFAULT_PAGE_SIZE)
    }

    /// Create a page file at `path` with an explicit page size.
    pub fn create_with_page_size(path: &Path, page_size: usize) -> Result<PageFile> {
        Self::create_from_parts(
            Box::new(FilePageStore::create(path, page_size)?),
            Box::new(FileLogStore::create(&wal_file_path(path))?),
        )
    }

    /// Create a page file over any store (the store must be empty), with
    /// an in-memory write-ahead log.
    pub fn create_from_store(store: Box<dyn PageStore>) -> Result<PageFile> {
        Self::create_from_parts(store, Box::new(MemLogStore::new()))
    }

    /// Create a page file over an explicit page store and log store
    /// (both must be empty).
    pub fn create_from_parts(
        store: Box<dyn PageStore>,
        log: Box<dyn LogStore>,
    ) -> Result<PageFile> {
        let page_size = store.page_size();
        if page_size <= META_HEADER + PAGE_HEADER + 64 {
            return Err(PagerError::Corrupt(format!(
                "page size {page_size} too small to be useful"
            )));
        }
        log.truncate_log(0)?;
        store.grow(1)?;
        let pf = PageFile {
            store,
            log,
            page_size,
            shards: Self::new_shards(Self::DEFAULT_CACHE_PAGES),
            cache_pages: AtomicUsize::new(Self::DEFAULT_CACHE_PAGES),
            stats: AtomicIoStats::new(),
            meta: Mutex::new(MetaState {
                free_head: NIL,
                user_meta: Vec::new(),
                meta_dirty: true,
            }),
            wal: Mutex::new(WalState {
                index: PageIdMap::default(),
                len: 0,
                epoch: 1,
                commit_seq: 0,
            }),
            wal_stats: AtomicWalStats::new(),
        };
        pf.flush()?;
        Ok(pf)
    }

    /// Open an existing page file at `path`, replaying its write-ahead
    /// log (`<path>.wal`, if present) and recovering page size and user
    /// metadata from the metadata page.
    pub fn open(path: &Path) -> Result<PageFile> {
        // The page size lives inside the meta page; peek at the raw header
        // first, reading only its bytes.
        let mut raw = Vec::with_capacity(META_HEADER);
        std::fs::File::open(path)?
            .take(META_HEADER as u64)
            .read_to_end(&mut raw)?;
        if raw.len() < META_HEADER {
            return Err(PagerError::Corrupt("file too short for a meta page".into()));
        }
        let mut c = PageReader::new(&raw);
        let magic = c.get_u32()?;
        let version = c.get_u32()?;
        let page_size = usize::try_from(c.get_u32()?)
            .map_err(|_| PagerError::Corrupt("page size does not fit usize".into()))?;
        if magic != MAGIC {
            return Err(PagerError::Corrupt(format!("bad magic {magic:#x}")));
        }
        if version != VERSION {
            return Err(PagerError::Corrupt(format!(
                "unsupported version {version}"
            )));
        }
        Self::open_from_parts(
            Box::new(FilePageStore::open(path, page_size)?),
            Box::new(FileLogStore::open_or_create(&wal_file_path(path))?),
        )
    }

    /// Open a page file over an explicit page store and log store,
    /// replaying the log's committed frames into the store *before* the
    /// pager serves any read. Torn or uncommitted tail frames are
    /// discarded by checksum; the surviving log is truncated and a new
    /// generation (strictly larger epoch) begins.
    pub fn open_from_parts(store: Box<dyn PageStore>, log: Box<dyn LogStore>) -> Result<PageFile> {
        let page_size = store.page_size();
        let wal_stats = AtomicWalStats::new();

        // Replay scan over the whole surviving log image.
        let log_len = usize::try_from(log.log_len())
            .map_err(|_| PagerError::Corrupt("log length does not fit usize".into()))?;
        let mut raw = vec![0u8; log_len];
        if log_len > 0 {
            log.read_log_at(0, &mut raw)?;
        }
        let scan = scan_log(&raw, page_size)?;
        wal_stats.record_replay(&scan);

        // Reapply committed images, then make the store durable. This is
        // idempotent: a crash mid-replay leaves the same committed log,
        // and the next open rewrites the same images.
        if !scan.committed.is_empty() {
            for (id, image) in &scan.committed {
                let need = id.saturating_add(1);
                if need > store.num_pages() {
                    store.grow(need)?;
                }
                store.write_page(*id, image)?;
            }
            store.sync()?;
        }

        // The old generation is spent; drop it durably and start a new
        // one with a strictly larger epoch so any bytes the filesystem
        // resurrects from it can never pass a checksum again.
        log.truncate_log(0)?;
        log.sync_log()?;
        let epoch = scan.header_epoch.wrapping_add(1).max(1);

        let mut buf = vec![0u8; page_size];
        store.read_page(0, &mut buf)?;
        let mut c = PageReader::new(&buf);
        if c.get_u32()? != MAGIC {
            return Err(PagerError::Corrupt("bad magic in meta page".into()));
        }
        if c.get_u32()? != VERSION {
            return Err(PagerError::Corrupt("unsupported version".into()));
        }
        let stored_ps = usize::try_from(c.get_u32()?)
            .map_err(|_| PagerError::Corrupt("page size does not fit usize".into()))?;
        if stored_ps != page_size {
            return Err(PagerError::Corrupt(format!(
                "meta page says page size {stored_ps}, store says {page_size}"
            )));
        }
        let free_head = c.get_u64()?;
        let meta_len = usize::try_from(c.get_u32()?)
            .map_err(|_| PagerError::Corrupt("metadata length does not fit usize".into()))?;
        if meta_len > page_size - META_HEADER {
            return Err(PagerError::Corrupt(format!(
                "user metadata length {meta_len} exceeds page"
            )));
        }
        let user_meta = c.get_bytes(meta_len)?.to_vec();
        Ok(PageFile {
            store,
            log,
            page_size,
            shards: Self::new_shards(Self::DEFAULT_CACHE_PAGES),
            cache_pages: AtomicUsize::new(Self::DEFAULT_CACHE_PAGES),
            stats: AtomicIoStats::new(),
            meta: Mutex::new(MetaState {
                free_head,
                user_meta,
                meta_dirty: false,
            }),
            wal: Mutex::new(WalState {
                index: PageIdMap::default(),
                len: 0,
                epoch,
                commit_seq: 0,
            }),
            wal_stats,
        })
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Usable payload bytes per page — what the index crates size their
    /// node fanout against.
    pub fn capacity(&self) -> usize {
        self.page_size - PAGE_HEADER
    }

    /// Maximum user-metadata blob size.
    pub fn user_meta_capacity(&self) -> usize {
        self.page_size - META_HEADER
    }

    /// Total pages in the file, including the meta page and free pages.
    pub fn num_pages(&self) -> u64 {
        self.store.num_pages()
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Zero the I/O counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Snapshot of the write-ahead-log counters.
    pub fn wal_stats(&self) -> WalStats {
        let wal_bytes = self.wal.lock().len;
        self.wal_stats.snapshot(wal_bytes)
    }

    /// Resize the buffer pool; `0` disables caching (every read goes
    /// straight to the log or store — the paper's cold-cache query
    /// mode). The capacity is split across the shards per
    /// [`PageFile::CACHE_SHARDS`]. The pool only ever holds clean copies
    /// of logged or checkpointed images, so spilled pages are simply
    /// dropped.
    pub fn set_cache_capacity(&self, pages: usize) -> Result<()> {
        // srlint: ordering -- cache_pages is advisory bookkeeping read only by cache_capacity(); no other state is published through it
        self.cache_pages.store(pages, Ordering::Relaxed);
        for (shard, cap) in self.shards.iter().zip(Self::shard_capacities(pages)) {
            let spilled = shard.lock().set_capacity(cap);
            self.stats.record_cache_evictions(spilled as u64);
        }
        Ok(())
    }

    /// Current total buffer-pool capacity in pages (`0` = caching
    /// disabled).
    pub fn cache_capacity(&self) -> usize {
        // srlint: ordering -- pairs with the relaxed store in set_cache_capacity; a plain monotonic-ish counter read, nothing is synchronized through it
        self.cache_pages.load(Ordering::Relaxed)
    }

    /// The persistent user metadata blob (index root id etc.).
    pub fn user_meta(&self) -> Vec<u8> {
        self.meta.lock().user_meta.clone()
    }

    /// Replace the user metadata blob. Persisted on the next
    /// [`PageFile::flush`].
    pub fn set_user_meta(&self, meta: &[u8]) -> Result<()> {
        if meta.len() > self.user_meta_capacity() {
            return Err(PagerError::PayloadTooLarge {
                len: meta.len(),
                capacity: self.user_meta_capacity(),
            });
        }
        let mut state = self.meta.lock();
        state.user_meta = meta.to_vec();
        state.meta_dirty = true;
        Ok(())
    }

    /// Allocate a page, reusing the free list when possible. The page is
    /// initialized with an empty payload of the given kind.
    pub fn allocate(&self, kind: PageKind) -> Result<PageId> {
        if kind == PageKind::Meta || kind == PageKind::Free {
            return Err(PagerError::InvalidRequest(format!(
                "cannot allocate {kind:?}"
            )));
        }
        let id = {
            // meta → shard → wal lock order: read_raw below probes a
            // cache shard and the WAL index while we hold the meta lock.
            let mut state = self.meta.lock();
            if state.free_head != NIL {
                let id = state.free_head;
                // Next pointer lives in the freed page's payload.
                let data = self.read_raw(id)?;
                let mut c = PageReader::new(&data);
                let k = c.get_u8()?;
                if k != PageKind::Free.as_u8() {
                    return Err(PagerError::Corrupt(format!(
                        "free-list page {id} has kind {k}"
                    )));
                }
                c.skip(4)?; // stored payload length, unused here
                state.free_head = c.get_u64()?;
                state.meta_dirty = true;
                Some(id)
            } else {
                None
            }
        };
        let id = match id {
            Some(id) => id,
            None => {
                let id = self.store.num_pages();
                self.store.grow(id + 1)?;
                id
            }
        };
        self.write(id, kind, &[])?;
        Ok(id)
    }

    /// Return a page to the free list.
    pub fn free(&self, id: PageId) -> Result<()> {
        if id == 0 {
            return Err(PagerError::InvalidRequest(
                "cannot free the meta page".into(),
            ));
        }
        let head = {
            // meta → shard: drop the page from its cache shard while the
            // free-list head is pinned, then release both before the log
            // append. free() is a mutating op — single-writer by contract
            // — so the head cannot move between this block and the
            // re-lock below.
            let state = self.meta.lock();
            self.shard(id)?.lock().remove(id);
            state.free_head
        };
        let page = build_page(self.page_size, |page| {
            let mut c = PageCodec::new(page);
            c.put_u8(PageKind::Free.as_u8())?;
            c.put_u32(8)?;
            c.put_u64(head)
        })?;
        // The log append lands before the in-memory head moves, so a
        // failed append leaves the free list pointing at the old chain.
        self.log_page(id, page)?;
        let mut state = self.meta.lock();
        state.free_head = id;
        state.meta_dirty = true;
        Ok(())
    }

    /// Append a full-page redo frame for `id` to the write-ahead log and
    /// install the image as a *clean* cache entry. This is the only
    /// mutation path to page data between checkpoints — the store itself
    /// is written exclusively by [`PageFile::flush`] and replay.
    fn log_page(&self, id: PageId, page: Arc<[u8]>) -> Result<()> {
        // Stage the append under the WAL lock, run the log I/O after
        // releasing it (mutations are single-writer by contract, so the
        // append offset cannot move in between), publish on success. A
        // failed write never advances `len`, so the retry overwrites its
        // own garbage at the same offset.
        let (off, frame_off, buf) = {
            let wal = self.wal.lock();
            let frame = encode_page_frame(id, &page, wal.epoch)?;
            if wal.len == 0 {
                // First append of a generation carries the log header.
                let mut b = encode_header(self.page_size, wal.epoch)?;
                let frame_off = b.len() as u64;
                b.extend_from_slice(&frame);
                (0u64, frame_off, b)
            } else {
                (wal.len, wal.len, frame)
            }
        };
        self.stats.record_physical_write();
        self.log.write_log_at(off, &buf)?;
        {
            let mut wal = self.wal.lock();
            wal.len = off + buf.len() as u64;
            wal.index.insert(id, frame_off);
        }
        self.wal_stats.record_frame_appended();
        let mut cache = self.shard(id)?.lock();
        if cache.insert(id, page) {
            self.stats.record_cache_evictions(1);
        }
        Ok(())
    }

    /// Cache-through read of the raw page bytes. The shard lock is held
    /// across probe → WAL-index probe → log/store read → insert so that
    /// accounting stays exact under concurrency: every miss is exactly
    /// one physical read. Pages written since the last checkpoint are
    /// served from the write-ahead log; everything else from the store.
    fn read_raw(&self, id: PageId) -> Result<Arc<[u8]>> {
        let mut cache = self.shard(id)?.lock();
        if let Some(data) = cache.get(id) {
            self.stats.record_cache_hit();
            return Ok(data);
        }
        self.stats.record_cache_miss();
        self.stats.record_physical_read();
        let frame_off = self.wal.lock().index.get(&id).copied();
        let buf = build_page(self.page_size, |buf| match frame_off {
            Some(off) => {
                // srlint: allow(lock-io) -- the sanctioned read-through, WAL arm: releasing the shard between probe and log read would double-fetch concurrent misses and break misses == physical_reads
                let res = self.log.read_log_at(off + FRAME_HEADER as u64, buf);
                if let Err(e) = res {
                    if self.wal.lock().index.get(&id).copied() == Some(off) {
                        return Err(e);
                    }
                    // A checkpoint truncated that log generation between
                    // the index probe and the read; its images are in the
                    // store now.
                    // srlint: allow(lock-io) -- read-through fallback after a checkpoint race, under the same shard guard for the same exactness reason
                    self.store.read_page(id, buf)?;
                }
                Ok(())
            }
            None => {
                // srlint: allow(lock-io) -- the sanctioned read-through, store arm: releasing the shard between probe and store read would double-fetch concurrent misses and break misses == physical_reads
                self.store.read_page(id, buf)
            }
        })?;
        if cache.insert(id, Arc::clone(&buf)) {
            self.stats.record_cache_evictions(1);
        }
        Ok(buf)
    }

    /// Read the payload of page `id`, checking that its kind matches.
    ///
    /// The returned [`PageBuf`] is a zero-copy view into the shared page
    /// image the buffer pool holds: a cache hit costs an `Arc` clone, not
    /// a page-sized memcpy, and the view stays valid even if the page is
    /// evicted or rewritten after this call returns (later writes install
    /// a fresh image; they never mutate a published one).
    pub fn read(&self, id: PageId, expected: PageKind) -> Result<PageBuf> {
        self.stats.record_logical_read(expected);
        let data = self.read_raw(id)?;
        let mut c = PageReader::new(&data);
        let kind = c.get_u8()?;
        if kind != expected.as_u8() {
            return Err(PagerError::KindMismatch {
                id,
                found: kind,
                expected: expected.as_u8(),
            });
        }
        let len = usize::try_from(c.get_u32()?)
            .map_err(|_| PagerError::Corrupt("payload length does not fit usize".into()))?;
        if len > self.capacity() {
            return Err(PagerError::Corrupt(format!(
                "page {id} claims payload of {len} bytes"
            )));
        }
        let start = c.pos();
        let end = start.checked_add(len).filter(|&e| e <= data.len()).ok_or(
            PagerError::CodecOverrun {
                pos: start,
                want: len,
                len: data.len(),
            },
        )?;
        Ok(PageBuf { data, start, end })
    }

    /// Write `payload` to page `id` with the given kind. The image goes
    /// to the write-ahead log only; the store is updated at the next
    /// [`PageFile::flush`] (checkpoint).
    pub fn write(&self, id: PageId, kind: PageKind, payload: &[u8]) -> Result<()> {
        if payload.len() > self.capacity() {
            return Err(PagerError::PayloadTooLarge {
                len: payload.len(),
                capacity: self.capacity(),
            });
        }
        let len = u32::try_from(payload.len()).map_err(|_| PagerError::PayloadTooLarge {
            len: payload.len(),
            capacity: self.capacity(),
        })?;
        let page = build_page(self.page_size, |page| {
            let mut c = PageCodec::new(page);
            c.put_u8(kind.as_u8())?;
            c.put_u32(len)?;
            c.put_bytes(payload)
        })?;
        self.stats.record_logical_write(kind);
        self.log_page(id, page)
    }

    /// Serialize the meta page from the guarded state.
    fn encode_meta_page(page_size: usize, state: &MetaState) -> Result<Arc<[u8]>> {
        let ps = u32::try_from(page_size)
            .map_err(|_| PagerError::Corrupt("page size does not fit u32".into()))?;
        let meta_len = u32::try_from(state.user_meta.len())
            .map_err(|_| PagerError::Corrupt("user metadata length does not fit u32".into()))?;
        build_page(page_size, |page| {
            let mut c = PageCodec::new(page);
            c.put_u32(MAGIC)?;
            c.put_u32(VERSION)?;
            c.put_u32(ps)?;
            c.put_u64(state.free_head)?;
            c.put_u32(meta_len)?;
            c.put_bytes(&state.user_meta)
        })
    }

    /// Commit and checkpoint: append a commit marker sealing every frame
    /// logged since the last checkpoint, fsync the log (the durability
    /// barrier), copy the latest image of each logged page into the
    /// store, fsync the store, and truncate the log. After a successful
    /// flush the store alone holds the full committed state; after a
    /// crash anywhere inside it, replay-on-open restores exactly the
    /// state of the last completed commit.
    pub fn flush(&self) -> Result<()> {
        // Stage a dirty meta page as a logged frame like any other page.
        let meta_page = {
            let state = self.meta.lock();
            if state.meta_dirty {
                Some(Self::encode_meta_page(self.page_size, &state)?)
            } else {
                None
            }
        };
        if let Some(page) = meta_page {
            self.log_page(0, page)?;
            // The image is staged in the log; whichever flush next seals
            // a commit marker persists it, so the dirty bit can drop now.
            self.meta.lock().meta_dirty = false;
        }

        // Nothing logged since the last checkpoint → nothing to commit.
        let (epoch, seq, commit_off, mut index) = {
            let mut wal = self.wal.lock();
            if wal.index.is_empty() {
                return Ok(());
            }
            wal.commit_seq += 1;
            let index: Vec<(PageId, u64)> = wal.index.iter().map(|(&id, &off)| (id, off)).collect();
            (wal.epoch, wal.commit_seq, wal.len, index)
        };

        // Commit marker + log fsync: the durability barrier.
        let frame = encode_commit_frame(seq, epoch)?;
        self.stats.record_physical_write();
        self.log.write_log_at(commit_off, &frame)?;
        {
            let mut wal = self.wal.lock();
            wal.len = commit_off + frame.len() as u64;
        }
        self.log.sync_log()?;
        self.wal_stats.record_commit();

        // Checkpoint: copy each committed image into the store, in page
        // order for locality, then make the store durable. These log
        // reads are recovery bookkeeping, not page traffic, so they are
        // not counted in IoStats (misses == physical_reads stays exact).
        index.sort_unstable_by_key(|&(id, _)| id);
        let mut buf = vec![0u8; self.page_size];
        for (id, off) in index {
            self.log.read_log_at(off + FRAME_HEADER as u64, &mut buf)?;
            self.stats.record_physical_write();
            self.store.write_page(id, &buf)?;
        }
        self.store.sync()?;

        // Start a new log generation. The in-memory state resets before
        // the truncate I/O: if the truncate fails (or a power cut undoes
        // it), the bumped epoch makes every stale frame fail its
        // checksum at the next replay scan.
        {
            let mut wal = self.wal.lock();
            wal.index.clear();
            wal.len = 0;
            wal.epoch += 1;
        }
        self.log.truncate_log(0)?;
        self.log.sync_log()?;
        self.wal_stats.record_truncation();
        Ok(())
    }
}

impl Drop for PageFile {
    fn drop(&mut self) {
        // Best-effort durability; errors on drop have nowhere to go.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_in_memory() {
        let pf = PageFile::create_in_memory(512).unwrap();
        let id = pf.allocate(PageKind::Leaf).unwrap();
        pf.write(id, PageKind::Leaf, b"payload").unwrap();
        assert_eq!(pf.read(id, PageKind::Leaf).unwrap(), b"payload");
    }

    #[test]
    fn kind_mismatch_detected() {
        let pf = PageFile::create_in_memory(512).unwrap();
        let id = pf.allocate(PageKind::Leaf).unwrap();
        assert!(matches!(
            pf.read(id, PageKind::Node),
            Err(PagerError::KindMismatch { .. })
        ));
    }

    #[test]
    fn payload_too_large_rejected() {
        let pf = PageFile::create_in_memory(512).unwrap();
        let id = pf.allocate(PageKind::Node).unwrap();
        let big = vec![0u8; pf.capacity() + 1];
        assert!(matches!(
            pf.write(id, PageKind::Node, &big),
            Err(PagerError::PayloadTooLarge { .. })
        ));
        // exactly at capacity is fine
        let fit = vec![7u8; pf.capacity()];
        pf.write(id, PageKind::Node, &fit).unwrap();
        assert_eq!(pf.read(id, PageKind::Node).unwrap(), fit);
    }

    #[test]
    fn free_list_reuses_pages() {
        let pf = PageFile::create_in_memory(512).unwrap();
        let a = pf.allocate(PageKind::Leaf).unwrap();
        let b = pf.allocate(PageKind::Leaf).unwrap();
        let before = pf.num_pages();
        pf.free(a).unwrap();
        pf.free(b).unwrap();
        // LIFO reuse
        assert_eq!(pf.allocate(PageKind::Node).unwrap(), b);
        assert_eq!(pf.allocate(PageKind::Node).unwrap(), a);
        assert_eq!(pf.num_pages(), before, "no growth while free pages exist");
    }

    #[test]
    fn stats_count_logical_and_physical() {
        let pf = PageFile::create_in_memory(512).unwrap();
        let id = pf.allocate(PageKind::Leaf).unwrap();
        pf.write(id, PageKind::Leaf, b"x").unwrap();
        pf.reset_stats();

        // cached: two logical reads, zero physical
        let _ = pf.read(id, PageKind::Leaf).unwrap();
        let _ = pf.read(id, PageKind::Leaf).unwrap();
        let s = pf.stats();
        assert_eq!(s.logical_reads(PageKind::Leaf), 2);
        assert_eq!(s.physical_reads(), 0);

        // disable the cache: now every logical read is physical
        pf.set_cache_capacity(0).unwrap();
        pf.reset_stats();
        let _ = pf.read(id, PageKind::Leaf).unwrap();
        let s = pf.stats();
        assert_eq!(s.logical_reads(PageKind::Leaf), 1);
        assert_eq!(s.physical_reads(), 1);
    }

    #[test]
    fn cold_cache_write_goes_straight_to_log() {
        let pf = PageFile::create_in_memory(512).unwrap();
        pf.set_cache_capacity(0).unwrap();
        let id = pf.allocate(PageKind::Node).unwrap();
        pf.reset_stats();
        pf.write(id, PageKind::Node, b"data").unwrap();
        assert_eq!(pf.stats().physical_writes(), 1, "one WAL append");
        assert_eq!(pf.read(id, PageKind::Node).unwrap(), b"data");
    }

    #[test]
    fn reads_between_checkpoints_come_from_the_log() {
        let pf = PageFile::create_in_memory(512).unwrap();
        let id = pf.allocate(PageKind::Leaf).unwrap();
        pf.flush().unwrap();
        pf.write(id, PageKind::Leaf, b"logged-only").unwrap();
        // Cold cache: the read must be served from the WAL, because the
        // store still holds the pre-write image.
        pf.set_cache_capacity(0).unwrap();
        assert_eq!(pf.read(id, PageKind::Leaf).unwrap(), b"logged-only");
        let ws = pf.wal_stats();
        assert!(ws.frames_appended > 0);
        assert!(ws.wal_bytes > 0, "frames pending until the next flush");
    }

    #[test]
    fn flush_checkpoints_and_truncates_the_log() {
        let pf = PageFile::create_in_memory(512).unwrap();
        let id = pf.allocate(PageKind::Leaf).unwrap();
        pf.write(id, PageKind::Leaf, b"committed").unwrap();
        pf.flush().unwrap();
        let ws = pf.wal_stats();
        assert!(ws.commits >= 1);
        assert!(ws.truncations >= 1);
        assert_eq!(ws.wal_bytes, 0, "flush must truncate the log");
        // The store now serves the page without the log.
        pf.set_cache_capacity(0).unwrap();
        assert_eq!(pf.read(id, PageKind::Leaf).unwrap(), b"committed");
    }

    #[test]
    fn empty_flush_is_a_no_op() {
        let pf = PageFile::create_in_memory(512).unwrap();
        pf.flush().unwrap();
        let before = pf.wal_stats();
        pf.flush().unwrap();
        let after = pf.wal_stats();
        assert_eq!(before.commits, after.commits, "nothing to commit");
        assert_eq!(before.truncations, after.truncations);
    }

    #[test]
    fn user_meta_roundtrip_and_limit() {
        let pf = PageFile::create_in_memory(512).unwrap();
        pf.set_user_meta(b"root=42").unwrap();
        assert_eq!(pf.user_meta(), b"root=42");
        let too_big = vec![0u8; pf.user_meta_capacity() + 1];
        assert!(pf.set_user_meta(&too_big).is_err());
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = std::env::temp_dir().join(format!("sr-pagefile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist.pages");
        let (a, b);
        {
            let pf = PageFile::create_with_page_size(&path, 512).unwrap();
            a = pf.allocate(PageKind::Node).unwrap();
            b = pf.allocate(PageKind::Leaf).unwrap();
            pf.write(a, PageKind::Node, b"node-data").unwrap();
            pf.write(b, PageKind::Leaf, b"leaf-data").unwrap();
            pf.set_user_meta(b"meta!").unwrap();
            pf.flush().unwrap();
        }
        {
            let pf = PageFile::open(&path).unwrap();
            assert_eq!(pf.page_size(), 512);
            assert_eq!(pf.user_meta(), b"meta!");
            assert_eq!(pf.read(a, PageKind::Node).unwrap(), b"node-data");
            assert_eq!(pf.read(b, PageKind::Leaf).unwrap(), b"leaf-data");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_file_path(&path)).ok();
    }

    #[test]
    fn unflushed_writes_survive_reopen_via_drop_flush() {
        let dir = std::env::temp_dir().join(format!("sr-pagefile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dropflush.pages");
        let id;
        {
            let pf = PageFile::create_with_page_size(&path, 512).unwrap();
            id = pf.allocate(PageKind::Leaf).unwrap();
            pf.write(id, PageKind::Leaf, b"dropped").unwrap();
            // No explicit flush: Drop checkpoints.
        }
        {
            let pf = PageFile::open(&path).unwrap();
            assert_eq!(pf.read(id, PageKind::Leaf).unwrap(), b"dropped");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_file_path(&path)).ok();
    }

    #[test]
    fn free_list_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("sr-pagefile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("freelist.pages");
        let freed;
        {
            let pf = PageFile::create_with_page_size(&path, 512).unwrap();
            let _keep = pf.allocate(PageKind::Leaf).unwrap();
            freed = pf.allocate(PageKind::Leaf).unwrap();
            pf.free(freed).unwrap();
            pf.flush().unwrap();
        }
        {
            let pf = PageFile::open(&path).unwrap();
            assert_eq!(pf.allocate(PageKind::Leaf).unwrap(), freed);
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_file_path(&path)).ok();
    }

    #[test]
    fn open_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("sr-pagefile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.pages");
        std::fs::write(&path, vec![0x55u8; 1024]).unwrap();
        match PageFile::open(&path) {
            Err(PagerError::Corrupt(msg)) => assert_eq!(msg, "bad magic 0x55555555"),
            other => panic!("expected bad magic, got {:?}", other.err()),
        }
        std::fs::write(&path, [0u8; META_HEADER - 1]).unwrap();
        match PageFile::open(&path) {
            Err(PagerError::Corrupt(msg)) => assert_eq!(msg, "file too short for a meta page"),
            other => panic!("expected a short-file error, got {:?}", other.err()),
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_file_path(&path)).ok();
    }

    #[test]
    fn cache_counters_track_hits_misses_and_evictions() {
        // One page of pool per shard, two pages of data per shard: a sweep
        // over all pages thrashes every shard deterministically.
        let shards = PageFile::CACHE_SHARDS;
        let pf = PageFile::create_in_memory(512).unwrap();
        pf.set_cache_capacity(shards).unwrap();
        let ids: Vec<_> = (0..2 * shards)
            .map(|i| {
                let id = pf.allocate(PageKind::Leaf).unwrap();
                pf.write(id, PageKind::Leaf, &[i as u8; 8]).unwrap();
                id
            })
            .collect();
        pf.reset_stats();

        // Sweep all pages: each shard's single slot always holds the
        // other page of its pair, so every read misses, and because the
        // writes above left each slot full, every miss also evicts.
        for &id in &ids {
            let _ = pf.read(id, PageKind::Leaf).unwrap();
        }
        let s = pf.stats();
        assert_eq!(s.cache_misses(), 2 * shards as u64);
        assert_eq!(
            s.cache_misses(),
            s.physical_reads(),
            "every miss is exactly one physical read"
        );
        assert_eq!(
            s.cache_evictions(),
            2 * shards as u64,
            "full pool: one eviction per miss"
        );

        // Re-read the second half (the resident page of each shard): pure
        // hits.
        pf.reset_stats();
        for &id in &ids[shards..] {
            let _ = pf.read(id, PageKind::Leaf).unwrap();
        }
        let s = pf.stats();
        assert_eq!(s.cache_hits(), shards as u64);
        assert_eq!(s.cache_misses(), 0);
        assert_eq!(s.cache_hit_rate(), Some(1.0));

        // Shrinking the pool counts its spills as evictions.
        pf.reset_stats();
        pf.set_cache_capacity(0).unwrap();
        assert_eq!(pf.stats().cache_evictions(), shards as u64);
        assert_eq!(pf.cache_capacity(), 0);
    }

    #[test]
    fn concurrent_reads_keep_accounting_exact() {
        let pf = PageFile::create_in_memory(512).unwrap();
        let ids: Vec<_> = (0..32u8)
            .map(|i| {
                let id = pf.allocate(PageKind::Leaf).unwrap();
                pf.write(id, PageKind::Leaf, &[i; 8]).unwrap();
                id
            })
            .collect();
        pf.flush().unwrap();
        // Small pool so concurrent sweeps force misses and evictions.
        pf.set_cache_capacity(8).unwrap();
        pf.reset_stats();

        const THREADS: u64 = 4;
        const ROUNDS: u64 = 50;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        for (i, &id) in ids.iter().enumerate() {
                            let data = pf.read(id, PageKind::Leaf).unwrap();
                            assert_eq!(data, vec![i as u8; 8], "torn or misrouted page");
                        }
                    }
                });
            }
        });

        let s = pf.stats();
        assert_eq!(
            s.logical_reads(PageKind::Leaf),
            THREADS * ROUNDS * ids.len() as u64,
            "no logical read lost"
        );
        assert_eq!(
            s.cache_hits() + s.cache_misses(),
            s.logical_reads(PageKind::Leaf),
            "every probe is exactly one hit or one miss"
        );
        assert_eq!(
            s.cache_misses(),
            s.physical_reads(),
            "every miss is exactly one physical read, even under contention"
        );
    }

    #[test]
    fn tiny_pool_stays_readable_under_spills() {
        let pf = PageFile::create_in_memory(512).unwrap();
        pf.set_cache_capacity(2).unwrap();
        let ids: Vec<_> = (0..8)
            .map(|i| {
                let id = pf.allocate(PageKind::Leaf).unwrap();
                pf.write(id, PageKind::Leaf, &[i as u8; 16]).unwrap();
                id
            })
            .collect();
        // Everything must still be readable even though only 2 pages fit
        // in the pool — evicted images are always recoverable from the
        // log (or the store after a checkpoint).
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pf.read(id, PageKind::Leaf).unwrap(), vec![i as u8; 16]);
        }
        pf.flush().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pf.read(id, PageKind::Leaf).unwrap(), vec![i as u8; 16]);
        }
    }
}
