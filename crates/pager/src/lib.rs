//! Disk page store for the SR-tree reproduction.
//!
//! Every index structure in the workspace is disk-based the way the paper's
//! C++ implementation was: nodes and leaves are serialized into fixed-size
//! pages (8192 bytes by default, matching the paper's choice of "the disk
//! block size of the operating system") and fetched through a buffer pool.
//!
//! The pager exists for two reasons:
//!
//! 1. **Persistence** — an index can be built, closed, and reopened from its
//!    page file ([`PageFile::open`]).
//! 2. **Measurement** — the paper's principal cost metric is the *number of
//!    disk reads* per query, split into node-level and leaf-level reads
//!    (Figure 14). [`IoStats`] counts logical and physical page accesses per
//!    [`PageKind`]; query experiments read with the buffer pool disabled so
//!    logical = physical, reproducing the paper's cold-cache counts.
//!
//! ```
//! use sr_pager::{PageFile, PageKind};
//!
//! let pf = PageFile::create_in_memory(8192).unwrap();
//! let id = pf.allocate(PageKind::Leaf).unwrap();
//! pf.write(id, PageKind::Leaf, b"hello").unwrap();
//! assert_eq!(&pf.read(id, PageKind::Leaf).unwrap()[..5], b"hello");
//! assert_eq!(pf.stats().logical_reads(PageKind::Leaf), 1);
//! ```

#![forbid(unsafe_code)]

mod cache;
mod error;
mod fault;
mod leaf;
mod logstore;
mod page;
mod pagefile;
mod stats;
mod store;
mod sync;
mod wal;

pub use error::{PagerError, Result};
pub use fault::{FaultHandle, FaultInjector, FaultKind, FaultStats};
pub use leaf::{put_leaf_columns, LeafColumns, LEAF_HEADER};
pub use logstore::{wal_file_path, FileLogStore, LogStore, MemLogStore};
pub use page::{narrow_lane, PageCodec, PageId, PageKind, PageReader, DEFAULT_PAGE_SIZE};
pub use pagefile::{PageBuf, PageFile};
pub use stats::IoStats;
pub use store::{FilePageStore, MemPageStore, PageStore};
pub use sync::{Mutex, RwLock};
pub use wal::{
    crc32, crc32_begin, crc32_finish, crc32_update, decode_frame, encode_commit_frame,
    encode_frame, encode_header, encode_page_frame, scan_log, FrameDecode, ScanOutcome, WalFrame,
    WalStats, FRAME_COMMIT, FRAME_HEADER, FRAME_PAGE, WAL_HEADER, WAL_MAGIC, WAL_VERSION,
};
