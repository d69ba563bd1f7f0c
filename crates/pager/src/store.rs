//! Raw page storage backends: an in-memory store for tests and benchmarks
//! that must not measure host-disk noise, and a real file-backed store.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::RwLock;

use crate::error::{PagerError, Result};
use crate::page::PageId;

/// A flat array of fixed-size pages. Implementations are internally
/// synchronized so the buffer-pool layer can read through `&self`.
pub trait PageStore: Send + Sync {
    /// Size of every page in bytes.
    fn page_size(&self) -> usize;

    /// Number of pages currently allocated in the store.
    fn num_pages(&self) -> u64;

    /// Read page `id` into `buf` (which must be exactly `page_size` long).
    #[doc = "srlint: io"]
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Overwrite page `id` with `data` (exactly `page_size` long).
    #[doc = "srlint: io"]
    fn write_page(&self, id: PageId, data: &[u8]) -> Result<()>;

    /// Extend the store to hold `new_num_pages` pages (no-op if already
    /// that large). New pages read as zeroes.
    #[doc = "srlint: io"]
    fn grow(&self, new_num_pages: u64) -> Result<()>;

    /// Flush to durable storage where applicable.
    #[doc = "srlint: io"]
    fn sync(&self) -> Result<()>;
}

/// An in-memory page store. Used by tests and by query benchmarks, where
/// "disk reads" are counted logically and real disk latency would only add
/// noise.
///
/// Cloning shares the underlying pages: crash-recovery tests keep a
/// clone, "lose power" on the [`crate::PageFile`], and reopen a fresh
/// pager over the very same surviving bytes.
#[derive(Clone)]
pub struct MemPageStore {
    page_size: usize,
    pages: Arc<RwLock<Vec<u8>>>,
}

impl MemPageStore {
    /// Create an empty store with the given page size.
    pub fn new(page_size: usize) -> Self {
        // srlint: allow(assert) -- page size is construction-time
        // configuration chosen by the caller, never decoded data.
        assert!(page_size >= 64, "page size {page_size} is unusably small");
        MemPageStore {
            page_size,
            pages: Arc::new(RwLock::new(Vec::new())),
        }
    }

    /// Byte range of page `id`, or `None` if it lies past `len` (or the
    /// offset arithmetic would overflow).
    fn page_range(&self, id: PageId, len: usize) -> Option<std::ops::Range<usize>> {
        let off = usize::try_from(id).ok()?.checked_mul(self.page_size)?;
        let end = off.checked_add(self.page_size)?;
        (end <= len).then_some(off..end)
    }
}

impl PageStore for MemPageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        (self.pages.read().len() / self.page_size) as u64
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let pages = self.pages.read();
        match self.page_range(id, pages.len()).and_then(|r| pages.get(r)) {
            Some(src) => {
                buf.copy_from_slice(src);
                Ok(())
            }
            None => Err(PagerError::PageOutOfRange {
                id,
                num_pages: (pages.len() / self.page_size) as u64,
            }),
        }
    }

    fn write_page(&self, id: PageId, data: &[u8]) -> Result<()> {
        debug_assert_eq!(data.len(), self.page_size);
        let mut pages = self.pages.write();
        let len = pages.len();
        match self.page_range(id, len).and_then(|r| pages.get_mut(r)) {
            Some(dst) => {
                dst.copy_from_slice(data);
                Ok(())
            }
            None => Err(PagerError::PageOutOfRange {
                id,
                num_pages: (len / self.page_size) as u64,
            }),
        }
    }

    fn grow(&self, new_num_pages: u64) -> Result<()> {
        let mut pages = self.pages.write();
        let want = new_num_pages as usize * self.page_size;
        if want > pages.len() {
            pages.resize(want, 0);
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// A file-backed page store using positioned reads/writes, so concurrent
/// readers need no seek coordination.
pub struct FilePageStore {
    page_size: usize,
    file: File,
    num_pages: AtomicU64,
}

impl FilePageStore {
    /// Create (truncating) a page file at `path`.
    pub fn create(path: &Path, page_size: usize) -> Result<Self> {
        // srlint: allow(assert) -- page size is construction-time
        // configuration chosen by the caller, never decoded data.
        assert!(page_size >= 64, "page size {page_size} is unusably small");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FilePageStore {
            page_size,
            file,
            num_pages: AtomicU64::new(0),
        })
    }

    /// Open an existing page file whose page size is already known (the
    /// `PageFile` layer records it in the metadata page and validates).
    pub fn open(path: &Path, page_size: usize) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(PagerError::Corrupt(format!(
                "file length {len} is not a multiple of page size {page_size}"
            )));
        }
        Ok(FilePageStore {
            page_size,
            file,
            num_pages: AtomicU64::new(len / page_size as u64),
        })
    }
}

impl PageStore for FilePageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        // srlint: ordering -- acquire pairs with the release store in grow(): a loaded count guarantees set_len has already extended the file that far
        self.num_pages.load(Ordering::Acquire)
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        debug_assert_eq!(buf.len(), self.page_size);
        if id >= self.num_pages() {
            return Err(PagerError::PageOutOfRange {
                id,
                num_pages: self.num_pages(),
            });
        }
        self.file.read_exact_at(buf, id * self.page_size as u64)?;
        Ok(())
    }

    fn write_page(&self, id: PageId, data: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        debug_assert_eq!(data.len(), self.page_size);
        if id >= self.num_pages() {
            return Err(PagerError::PageOutOfRange {
                id,
                num_pages: self.num_pages(),
            });
        }
        self.file.write_all_at(data, id * self.page_size as u64)?;
        Ok(())
    }

    fn grow(&self, new_num_pages: u64) -> Result<()> {
        let cur = self.num_pages();
        if new_num_pages > cur {
            self.file.set_len(new_num_pages * self.page_size as u64)?;
            // srlint: ordering -- release publishes the count only after set_len succeeds; pairs with the acquire load in num_pages()
            self.num_pages.store(new_num_pages, Ordering::Release);
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn PageStore) {
        assert_eq!(store.num_pages(), 0);
        store.grow(3).unwrap();
        assert_eq!(store.num_pages(), 3);

        let ps = store.page_size();
        let mut page = vec![0xABu8; ps];
        page[0] = 1;
        store.write_page(1, &page).unwrap();

        let mut out = vec![0u8; ps];
        store.read_page(1, &mut out).unwrap();
        assert_eq!(out, page);

        // untouched pages read as zero
        store.read_page(2, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));

        // out-of-range access is an error, not UB
        assert!(matches!(
            store.read_page(3, &mut out),
            Err(PagerError::PageOutOfRange { .. })
        ));
        assert!(matches!(
            store.write_page(9, &page),
            Err(PagerError::PageOutOfRange { .. })
        ));

        // grow is monotone
        store.grow(2).unwrap();
        assert_eq!(store.num_pages(), 3);
        store.sync().unwrap();
    }

    #[test]
    fn mem_store_basics() {
        exercise(&MemPageStore::new(256));
    }

    #[test]
    fn mem_store_clones_share_pages() {
        let a = MemPageStore::new(128);
        let b = a.clone();
        a.grow(2).unwrap();
        a.write_page(1, &[3u8; 128]).unwrap();
        assert_eq!(b.num_pages(), 2);
        let mut buf = vec![0u8; 128];
        b.read_page(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 3));
    }

    #[test]
    fn file_store_basics() {
        let dir = std::env::temp_dir().join(format!("sr-pager-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("basics.pages");
        exercise(&FilePageStore::create(&path, 256).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("sr-pager-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.pages");
        {
            let s = FilePageStore::create(&path, 128).unwrap();
            s.grow(2).unwrap();
            s.write_page(1, &[7u8; 128]).unwrap();
            s.sync().unwrap();
        }
        {
            let s = FilePageStore::open(&path, 128).unwrap();
            assert_eq!(s.num_pages(), 2);
            let mut buf = vec![0u8; 128];
            s.read_page(1, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 7));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_rejects_misaligned_length() {
        let dir = std::env::temp_dir().join(format!("sr-pager-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("misaligned.pages");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        assert!(matches!(
            FilePageStore::open(&path, 128),
            Err(PagerError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
