//! Raw byte-log storage backends for the write-ahead log: an in-memory
//! log for tests (shareable, so a test can "reboot" from the same bytes)
//! and a real file-backed log.
//!
//! A [`LogStore`] is deliberately dumber than a [`crate::PageStore`]: a
//! growable byte array with positioned reads and writes. All framing,
//! checksumming, and torn-tail handling lives in [`crate::wal`]; the
//! store only has to persist bytes. Writes are *positioned* rather than
//! appending so that a failed or torn append can be retried at the same
//! logical offset, overwriting its own garbage instead of burying it
//! mid-log where it would sever every later frame from the replay scan.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{PagerError, Result};
use crate::sync::Mutex;

/// A flat, growable byte log. Implementations are internally
/// synchronized so the pager's read path can fetch frames through
/// `&self` while the (single, by contract) writer appends.
pub trait LogStore: Send + Sync {
    /// Current physical length of the log in bytes. After a crash this
    /// may exceed the *logical* length tracked by the WAL layer; the
    /// replay scan resolves the difference via checksums.
    fn log_len(&self) -> u64;

    /// Read exactly `buf.len()` bytes starting at `off`.
    #[doc = "srlint: io"]
    fn read_log_at(&self, off: u64, buf: &mut [u8]) -> Result<()>;

    /// Write `data` at `off`, extending the log if it ends past the
    /// current length. Gaps created by writing past the end read as
    /// zeroes.
    #[doc = "srlint: io"]
    fn write_log_at(&self, off: u64, data: &[u8]) -> Result<()>;

    /// Shrink the log to `new_len` bytes (no-op if already shorter).
    #[doc = "srlint: io"]
    fn truncate_log(&self, new_len: u64) -> Result<()>;

    /// Flush to durable storage where applicable.
    #[doc = "srlint: io"]
    fn sync_log(&self) -> Result<()>;
}

/// An in-memory log store. Cloning shares the underlying bytes, which is
/// what lets crash tests keep a handle, "lose power" on the page file,
/// and reopen a fresh pager over the very same surviving bytes.
#[derive(Clone, Default)]
pub struct MemLogStore {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemLogStore {
    /// Create an empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogStore for MemLogStore {
    fn log_len(&self) -> u64 {
        self.bytes.lock().len() as u64
    }

    fn read_log_at(&self, off: u64, buf: &mut [u8]) -> Result<()> {
        let bytes = self.bytes.lock();
        let off = usize::try_from(off)
            .map_err(|_| PagerError::Corrupt("log offset does not fit usize".into()))?;
        let end = off
            .checked_add(buf.len())
            .ok_or_else(|| PagerError::Corrupt("log read range overflows".into()))?;
        match bytes.get(off..end) {
            Some(src) => {
                buf.copy_from_slice(src);
                Ok(())
            }
            None => Err(PagerError::Corrupt(format!(
                "log read of {} byte(s) at {off} past end {}",
                buf.len(),
                bytes.len()
            ))),
        }
    }

    fn write_log_at(&self, off: u64, data: &[u8]) -> Result<()> {
        let mut bytes = self.bytes.lock();
        let off = usize::try_from(off)
            .map_err(|_| PagerError::Corrupt("log offset does not fit usize".into()))?;
        let end = off
            .checked_add(data.len())
            .ok_or_else(|| PagerError::Corrupt("log write range overflows".into()))?;
        if end > bytes.len() {
            bytes.resize(end, 0);
        }
        match bytes.get_mut(off..end) {
            Some(dst) => {
                dst.copy_from_slice(data);
                Ok(())
            }
            None => Err(PagerError::Corrupt("log write range out of bounds".into())),
        }
    }

    fn truncate_log(&self, new_len: u64) -> Result<()> {
        let mut bytes = self.bytes.lock();
        let new_len = usize::try_from(new_len)
            .map_err(|_| PagerError::Corrupt("log length does not fit usize".into()))?;
        if new_len < bytes.len() {
            bytes.truncate(new_len);
        }
        Ok(())
    }

    fn sync_log(&self) -> Result<()> {
        Ok(())
    }
}

/// A file-backed log store using positioned I/O, mirroring
/// [`crate::FilePageStore`].
pub struct FileLogStore {
    file: File,
    len: AtomicU64,
}

impl FileLogStore {
    /// Create (truncating) a log file at `path`.
    pub fn create(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileLogStore {
            file,
            len: AtomicU64::new(0),
        })
    }

    /// Open the log file at `path`, creating an empty one if absent —
    /// a page file written before the WAL existed (or whose log was
    /// cleanly truncated away) simply has nothing to replay.
    pub fn open_or_create(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileLogStore {
            file,
            len: AtomicU64::new(len),
        })
    }
}

impl LogStore for FileLogStore {
    fn log_len(&self) -> u64 {
        // srlint: ordering -- acquire pairs with the release in write_log_at: a loaded length guarantees the bytes up to it were handed to the OS
        self.len.load(Ordering::Acquire)
    }

    fn read_log_at(&self, off: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, off)?;
        Ok(())
    }

    fn write_log_at(&self, off: u64, data: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(data, off)?;
        let end = off
            .checked_add(data.len() as u64)
            .ok_or_else(|| PagerError::Corrupt("log write range overflows".into()))?;
        // srlint: ordering -- release publishes the new length only after write_all_at returns; pairs with the acquire load in log_len()
        self.len.fetch_max(end, Ordering::Release);
        Ok(())
    }

    fn truncate_log(&self, new_len: u64) -> Result<()> {
        if new_len < self.log_len() {
            self.file.set_len(new_len)?;
            // srlint: ordering -- release after set_len, same publication contract as write_log_at
            self.len.store(new_len, Ordering::Release);
        }
        Ok(())
    }

    fn sync_log(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// The conventional sibling path of a page file's write-ahead log:
/// `<page-file-path>.wal`.
pub fn wal_file_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(log: &dyn LogStore) {
        assert_eq!(log.log_len(), 0);
        log.write_log_at(0, b"hello").unwrap();
        assert_eq!(log.log_len(), 5);

        // Positioned overwrite does not move the end.
        log.write_log_at(1, b"a").unwrap();
        assert_eq!(log.log_len(), 5);
        let mut buf = [0u8; 5];
        log.read_log_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hallo");

        // Writing past the end zero-fills the gap.
        log.write_log_at(8, b"x").unwrap();
        assert_eq!(log.log_len(), 9);
        let mut buf = [9u8; 3];
        log.read_log_at(5, &mut buf).unwrap();
        assert_eq!(&buf, &[0, 0, 0]);

        // Reads past the end are typed errors.
        let mut buf = [0u8; 4];
        assert!(log.read_log_at(7, &mut buf).is_err());

        log.truncate_log(2).unwrap();
        assert_eq!(log.log_len(), 2);
        log.truncate_log(100).unwrap();
        assert_eq!(log.log_len(), 2, "truncate never grows");
        log.sync_log().unwrap();
    }

    #[test]
    fn mem_log_basics() {
        exercise(&MemLogStore::new());
    }

    #[test]
    fn mem_log_clones_share_bytes() {
        let a = MemLogStore::new();
        let b = a.clone();
        a.write_log_at(0, b"shared").unwrap();
        let mut buf = [0u8; 6];
        b.read_log_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
    }

    #[test]
    fn file_log_basics() {
        let dir = std::env::temp_dir().join(format!("sr-logstore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("basics.wal");
        exercise(&FileLogStore::create(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_log_reopens_with_length() {
        let dir = std::env::temp_dir().join(format!("sr-logstore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.wal");
        {
            let log = FileLogStore::create(&path).unwrap();
            log.write_log_at(0, b"abc").unwrap();
            log.sync_log().unwrap();
        }
        {
            let log = FileLogStore::open_or_create(&path).unwrap();
            assert_eq!(log.log_len(), 3);
            let mut buf = [0u8; 3];
            log.read_log_at(0, &mut buf).unwrap();
            assert_eq!(&buf, b"abc");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wal_path_is_a_sibling() {
        let p = wal_file_path(Path::new("/tmp/x.pages"));
        assert_eq!(p, Path::new("/tmp/x.pages.wal"));
    }
}
