//! Write-ahead log framing: checksummed, length-prefixed redo records.
//!
//! ## Commit protocol
//!
//! Between checkpoints, every page mutation appends a full-page redo
//! frame here and **nothing** is written to the page store in place. A
//! [`crate::PageFile::flush`] appends a commit marker, syncs the log
//! (the fsync barrier), and only then copies the latest frame of each
//! page into the store — so a crash at any instant leaves the store in
//! its last-checkpoint state plus a log whose committed suffix can be
//! replayed verbatim. Frames past the last commit marker, and any
//! torn/corrupt tail, are discarded by the replay scan.
//!
//! ## On-disk layout
//!
//! ```text
//! header:  magic  version  page_size  epoch  crc32      (24 bytes)
//! frame:   kind  page_id  payload_len  crc32  payload   (17 + len)
//! ```
//!
//! `kind` is [`FRAME_PAGE`] (payload = one page image) or
//! [`FRAME_COMMIT`] (payload empty, `page_id` carries the commit
//! sequence number). The frame checksum is CRC-32 (IEEE) seeded with the
//! header's **epoch**, a counter bumped on every open and every
//! truncation. The seed is what makes truncate-then-append safe even if
//! the filesystem resurrects pre-truncation bytes after a power cut: all
//! page frames are the same size, so a stale frame from an earlier log
//! generation can land exactly on a frame boundary of the current one,
//! where only the epoch-salted checksum tells it apart from a frame this
//! generation wrote.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::error::{PagerError, Result};
use crate::page::PageId;

/// "SRWL" — distinct from the page file's "SRPG".
pub const WAL_MAGIC: u32 = 0x5352_574C;
/// Bumped on incompatible layout changes.
pub const WAL_VERSION: u32 = 1;
/// magic + version + page_size + epoch + crc.
pub const WAL_HEADER: usize = 4 + 4 + 4 + 8 + 4;
/// kind + page_id + payload_len + crc.
pub const FRAME_HEADER: usize = 1 + 8 + 4 + 4;
/// Frame kind: a full-page redo image.
pub const FRAME_PAGE: u8 = 1;
/// Frame kind: a commit marker sealing every frame before it.
pub const FRAME_COMMIT: u8 = 2;

const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Bytes folded per step of the slicing kernel in [`crc32_update`].
const SLICE: usize = 16;

/// The slicing tables: `t[0]` is the classic bytewise table of the
/// reflected IEEE polynomial, and `t[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so one step folds [`SLICE`] bytes with one
/// lookup per byte and no dependency between the lookups.
fn crc_tables() -> &'static [[u32; 256]; SLICE] {
    static TABLES: OnceLock<[[u32; 256]; SLICE]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let base: [u32; 256] = std::array::from_fn(|i| {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
            crc
        });
        let mut prev = base;
        std::array::from_fn(|k| {
            if k > 0 {
                prev = prev.map(|crc| lookup(&base, crc as u8) ^ (crc >> 8));
            }
            prev
        })
    })
}

#[inline(always)]
fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or(0)
}

/// Fold `bytes` into a running CRC-32 state (start from [`crc32_begin`],
/// finish with [`crc32_finish`]).
///
/// Slicing-by-16: each step XORs the state into the first four bytes of
/// a 16-byte block and sums sixteen independent table lookups, one per
/// byte. The tail shorter than a block goes bytewise through `t[0]`. The
/// values are exactly those of the bytewise CRC-32 (IEEE), so frame and
/// header checksums on disk do not change.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let tables = crc_tables();
    let mut crc = state;
    let (blocks, tail) = bytes.as_chunks::<SLICE>();
    for block in blocks {
        let [b0, b1, b2, b3, rest @ ..] = *block;
        let head = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        // Byte j of the block is followed by SLICE - 1 - j more bytes, so
        // it looks up table SLICE - 1 - j.
        crc = head
            .iter()
            .chain(rest.iter())
            .zip(tables.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ lookup(table, b));
    }
    let [base, ..] = tables;
    for &b in tail {
        crc = lookup(base, crc as u8 ^ b) ^ (crc >> 8);
    }
    crc
}

/// Initial CRC-32 state.
pub fn crc32_begin() -> u32 {
    CRC_INIT
}

/// Final XOR of a CRC-32 state.
pub fn crc32_finish(state: u32) -> u32 {
    !state
}

/// One-shot CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(crc32_begin(), bytes))
}

fn rd_u32(buf: &[u8], off: usize) -> Option<u32> {
    buf.get(off..off.checked_add(4)?)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_le_bytes)
}

fn rd_u64(buf: &[u8], off: usize) -> Option<u64> {
    buf.get(off..off.checked_add(8)?)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .map(u64::from_le_bytes)
}

/// A decoded WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalFrame {
    /// A full-page redo image.
    Page {
        /// The page this image belongs to.
        id: PageId,
        /// The page bytes (exactly one page long).
        image: Vec<u8>,
    },
    /// A commit marker: every frame appended before it is durable once
    /// the log is synced.
    Commit {
        /// Monotone commit sequence number within this log generation.
        seq: u64,
    },
}

/// Outcome of decoding one frame at the start of a buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameDecode {
    /// A valid frame and the number of bytes it occupied.
    Frame(WalFrame, usize),
    /// The buffer ends before the frame does — a cleanly truncated tail.
    Incomplete,
    /// The bytes are not a valid frame of this epoch (bad kind, bad
    /// length, or checksum mismatch) — a torn or stale tail.
    Corrupt,
}

/// Encode the WAL file header for a log generation.
pub fn encode_header(page_size: usize, epoch: u64) -> Result<Vec<u8>> {
    let page_size = u32::try_from(page_size)
        .map_err(|_| PagerError::Corrupt("page size does not fit u32".into()))?;
    let mut buf = Vec::with_capacity(WAL_HEADER);
    buf.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    buf.extend_from_slice(&WAL_VERSION.to_le_bytes());
    buf.extend_from_slice(&page_size.to_le_bytes());
    buf.extend_from_slice(&epoch.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

fn encode_raw(kind: u8, id: u64, payload: &[u8], epoch: u64) -> Result<Vec<u8>> {
    let len = u32::try_from(payload.len())
        .map_err(|_| PagerError::Corrupt("frame payload does not fit u32".into()))?;
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    buf.push(kind);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&len.to_le_bytes());
    let mut state = crc32_update(crc32_begin(), &epoch.to_le_bytes());
    state = crc32_update(state, &buf);
    state = crc32_update(state, payload);
    buf.extend_from_slice(&crc32_finish(state).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Encode one frame, salting its checksum with `epoch`.
pub fn encode_frame(frame: &WalFrame, epoch: u64) -> Result<Vec<u8>> {
    match frame {
        WalFrame::Page { id, image } => encode_raw(FRAME_PAGE, *id, image, epoch),
        WalFrame::Commit { seq } => encode_raw(FRAME_COMMIT, *seq, &[], epoch),
    }
}

/// Encode a page-image frame without copying the image into a
/// [`WalFrame`] first — the pager's hot write path.
pub fn encode_page_frame(id: PageId, image: &[u8], epoch: u64) -> Result<Vec<u8>> {
    encode_raw(FRAME_PAGE, id, image, epoch)
}

/// Encode a commit marker.
pub fn encode_commit_frame(seq: u64, epoch: u64) -> Result<Vec<u8>> {
    encode_raw(FRAME_COMMIT, seq, &[], epoch)
}

/// Decode the frame at the start of `buf` against this log generation's
/// `epoch` and `page_size`.
// srlint: untrusted-source -- log bytes may be torn or stale; lengths decoded here are only trusted after the CRC and bounds checks
pub fn decode_frame(buf: &[u8], epoch: u64, page_size: usize) -> FrameDecode {
    if buf.len() < FRAME_HEADER {
        return FrameDecode::Incomplete;
    }
    let (Some(&kind), Some(id), Some(len), Some(stored)) =
        (buf.first(), rd_u64(buf, 1), rd_u32(buf, 9), rd_u32(buf, 13))
    else {
        return FrameDecode::Incomplete;
    };
    let Ok(len) = usize::try_from(len) else {
        return FrameDecode::Corrupt;
    };
    let valid_len = match kind {
        FRAME_PAGE => len == page_size,
        FRAME_COMMIT => len == 0,
        _ => return FrameDecode::Corrupt,
    };
    if !valid_len {
        return FrameDecode::Corrupt;
    }
    let Some(total) = FRAME_HEADER.checked_add(len) else {
        return FrameDecode::Corrupt;
    };
    if buf.len() < total {
        return FrameDecode::Incomplete;
    }
    let (Some(head), Some(payload)) = (buf.get(..13), buf.get(FRAME_HEADER..total)) else {
        return FrameDecode::Incomplete;
    };
    let mut state = crc32_update(crc32_begin(), &epoch.to_le_bytes());
    state = crc32_update(state, head);
    state = crc32_update(state, payload);
    if crc32_finish(state) != stored {
        return FrameDecode::Corrupt;
    }
    let frame = match kind {
        FRAME_PAGE => WalFrame::Page {
            id,
            image: payload.to_vec(),
        },
        _ => WalFrame::Commit { seq: id },
    };
    FrameDecode::Frame(frame, total)
}

/// What a replay scan found in a log.
#[derive(Clone, Debug, Default)]
pub struct ScanOutcome {
    /// Latest committed image per page, in ascending page order.
    pub committed: Vec<(PageId, Vec<u8>)>,
    /// Commit markers honored.
    pub commits: u64,
    /// Complete, checksum-valid frames discarded because no commit
    /// marker sealed them.
    pub dropped_frames: u64,
    /// Whether the scan stopped at a torn, truncated, or stale tail
    /// (including an unreadable header).
    pub torn_tail: bool,
    /// Epoch recorded in the header (best-effort raw field when the
    /// header itself failed validation; 0 for an empty log). The next
    /// generation must use a strictly larger epoch.
    pub header_epoch: u64,
}

/// Scan a whole log image: validate the header, walk frames, honor
/// commit markers, and stop at the first invalid byte.
///
/// Only a genuine configuration error (a valid header whose page size
/// disagrees with the store) is an `Err`; every torn or stale shape
/// degrades to a truncating recovery described by the outcome.
pub fn scan_log(buf: &[u8], page_size: usize) -> Result<ScanOutcome> {
    let mut out = ScanOutcome::default();
    if buf.is_empty() {
        return Ok(out);
    }
    // Even when the header fails validation, its epoch field is the
    // best available lower bound for picking the next generation's
    // epoch; a garbage value only makes the epoch jump, never repeat.
    out.header_epoch = rd_u64(buf, 12).unwrap_or(0);
    let header_ok = buf.len() >= WAL_HEADER
        && rd_u32(buf, 0) == Some(WAL_MAGIC)
        && rd_u32(buf, 4) == Some(WAL_VERSION)
        && buf
            .get(..20)
            .map(crc32)
            .zip(rd_u32(buf, 20))
            .is_some_and(|(a, b)| a == b);
    if !header_ok {
        out.torn_tail = true;
        return Ok(out);
    }
    let stored_ps = rd_u32(buf, 8).and_then(|v| usize::try_from(v).ok());
    if stored_ps != Some(page_size) {
        return Err(PagerError::Corrupt(format!(
            "wal header says page size {stored_ps:?}, store says {page_size}"
        )));
    }
    let epoch = out.header_epoch;
    let mut committed: BTreeMap<PageId, Vec<u8>> = BTreeMap::new();
    let mut pending: Vec<(PageId, Vec<u8>)> = Vec::new();
    let mut pos = WAL_HEADER;
    while let Some(rest) = buf.get(pos..) {
        if rest.is_empty() {
            break;
        }
        match decode_frame(rest, epoch, page_size) {
            FrameDecode::Frame(WalFrame::Page { id, image }, used) => {
                pending.push((id, image));
                pos += used;
            }
            FrameDecode::Frame(WalFrame::Commit { .. }, used) => {
                for (id, image) in pending.drain(..) {
                    committed.insert(id, image);
                }
                out.commits += 1;
                pos += used;
            }
            FrameDecode::Incomplete | FrameDecode::Corrupt => {
                out.torn_tail = true;
                break;
            }
        }
    }
    out.dropped_frames = pending.len() as u64;
    out.committed = committed.into_iter().collect();
    Ok(out)
}

/// Counters of what the write-ahead log has done — the recovery-side
/// companion of [`crate::IoStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Page-image redo frames appended (commit markers not included).
    pub frames_appended: u64,
    /// Commit markers appended.
    pub commits: u64,
    /// Times the log was truncated after a successful checkpoint.
    pub truncations: u64,
    /// Opens that found committed frames and reapplied them.
    pub replays: u64,
    /// Committed page images reapplied to the store across all replays.
    pub replayed_frames: u64,
    /// Complete but uncommitted frames discarded at replay.
    pub dropped_frames: u64,
    /// Torn/corrupt tails (including unreadable headers) discarded at
    /// replay.
    pub torn_tails: u64,
    /// Current logical length of the log in bytes.
    pub wal_bytes: u64,
}

/// Live counters behind a `PageFile`'s WAL, mirroring the shape of
/// [`crate::stats::AtomicIoStats`].
// srlint: send-sync -- independent atomic tallies; cross-counter exactness only holds at quiescent points, same contract as AtomicIoStats
#[derive(Default)]
pub(crate) struct AtomicWalStats {
    frames_appended: AtomicU64,
    commits: AtomicU64,
    truncations: AtomicU64,
    replays: AtomicU64,
    replayed_frames: AtomicU64,
    dropped_frames: AtomicU64,
    torn_tails: AtomicU64,
}

impl AtomicWalStats {
    // srlint: ordering -- relaxed: independent monotone tallies like AtomicIoStats; mutations are single-writer by the pager's contract, and replay-side counts are recorded before the PageFile is shared, so quiescent snapshots are exact
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_frame_appended(&self) {
        self.frames_appended.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_truncation(&self) {
        self.truncations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_replay(&self, outcome: &ScanOutcome) {
        if !outcome.committed.is_empty() {
            self.replays.fetch_add(1, Ordering::Relaxed);
            self.replayed_frames
                .fetch_add(outcome.committed.len() as u64, Ordering::Relaxed);
        }
        self.dropped_frames
            .fetch_add(outcome.dropped_frames, Ordering::Relaxed);
        if outcome.torn_tail {
            self.torn_tails.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self, wal_bytes: u64) -> WalStats {
        WalStats {
            frames_appended: self.frames_appended.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            truncations: self.truncations.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            replayed_frames: self.replayed_frames.load(Ordering::Relaxed),
            dropped_frames: self.dropped_frames.load(Ordering::Relaxed),
            torn_tails: self.torn_tails.load(Ordering::Relaxed),
            wal_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 64;

    fn page_frame(id: PageId, fill: u8) -> WalFrame {
        WalFrame::Page {
            id,
            image: vec![fill; PS],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bytewise CRC-32 (IEEE) state update, bit by bit: the
    /// reference the slicing kernel must agree with.
    fn crc32_update_reference(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    fn reference_crc32(bytes: &[u8]) -> u32 {
        !crc32_update_reference(CRC_INIT, bytes)
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                s.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes()[7]
            })
            .collect()
    }

    #[test]
    fn slicing_kernel_equals_bytewise_reference() {
        let buf = noise(3 * 8192 + 64, 0x5EED);
        // Every short length, at every start offset within a block, so
        // each split of a buffer into blocks and a tail is covered.
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    reference_crc32(bytes),
                    "start {start} len {len}"
                );
            }
        }
        // Random lengths up to three 8 KiB pages, random starts.
        let picks = noise(400, 0xC0FFEE);
        for pair in picks.chunks_exact(4) {
            let len = usize::from(u16::from_le_bytes([pair[0], pair[1]])) % (3 * 8192 + 1);
            let start = usize::from(pair[2]) % 8;
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc32(bytes),
                reference_crc32(bytes),
                "start {start} len {len}"
            );
        }
        // Non-initial states, as the epoch-salted frame checksums use.
        for state in [0, 0x1234_5678, u32::MAX] {
            let bytes = &buf[..1000];
            assert_eq!(
                crc32_update(state, bytes),
                crc32_update_reference(state, bytes)
            );
        }
    }

    #[test]
    fn chained_updates_equal_one_shot_at_every_split() {
        let buf = noise(100, 0xAB);
        let whole = reference_crc32(&buf);
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            let state = crc32_update(crc32_update(crc32_begin(), a), b);
            assert_eq!(crc32_finish(state), whole, "split at {cut}");
        }
    }

    #[test]
    fn frame_roundtrip_page_and_commit() {
        for (frame, epoch) in [
            (page_frame(7, 0xAB), 1u64),
            (page_frame(0, 0x00), 99),
            (WalFrame::Commit { seq: 3 }, 1),
        ] {
            let bytes = encode_frame(&frame, epoch).unwrap();
            match decode_frame(&bytes, epoch, PS) {
                FrameDecode::Frame(got, used) => {
                    assert_eq!(got, frame);
                    assert_eq!(used, bytes.len());
                }
                other => panic!("decode failed: {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_epoch_rejects_frame() {
        let bytes = encode_frame(&page_frame(1, 0x55), 4).unwrap();
        assert_eq!(decode_frame(&bytes, 5, PS), FrameDecode::Corrupt);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode_frame(&page_frame(9, 0x3C), 2).unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut flipped = bytes.clone();
                if let Some(b) = flipped.get_mut(byte) {
                    *b ^= 1 << bit;
                }
                assert_ne!(
                    decode_frame(&flipped, 2, PS),
                    FrameDecode::Frame(page_frame(9, 0x3C), bytes.len()),
                    "flip at byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn truncated_frame_is_incomplete() {
        let bytes = encode_frame(&page_frame(2, 0x11), 1).unwrap();
        for keep in [0, 1, FRAME_HEADER - 1, FRAME_HEADER, bytes.len() - 1] {
            let cut = bytes.get(..keep).unwrap();
            assert_eq!(
                decode_frame(cut, 1, PS),
                FrameDecode::Incomplete,
                "prefix of {keep} bytes"
            );
        }
    }

    fn log_with(frames: &[WalFrame], epoch: u64) -> Vec<u8> {
        let mut buf = encode_header(PS, epoch).unwrap();
        for f in frames {
            buf.extend_from_slice(&encode_frame(f, epoch).unwrap());
        }
        buf
    }

    #[test]
    fn scan_honors_only_committed_frames() {
        let buf = log_with(
            &[
                page_frame(1, 0xA1),
                page_frame(2, 0xA2),
                WalFrame::Commit { seq: 1 },
                page_frame(1, 0xB1), // newer image, never committed
            ],
            7,
        );
        let out = scan_log(&buf, PS).unwrap();
        assert_eq!(out.commits, 1);
        assert_eq!(out.dropped_frames, 1);
        assert!(!out.torn_tail);
        assert_eq!(out.header_epoch, 7);
        assert_eq!(out.committed.len(), 2);
        assert_eq!(out.committed[0], (1, vec![0xA1; PS]));
        assert_eq!(out.committed[1], (2, vec![0xA2; PS]));
    }

    #[test]
    fn scan_takes_latest_committed_image() {
        let buf = log_with(
            &[
                page_frame(1, 0xA1),
                WalFrame::Commit { seq: 1 },
                page_frame(1, 0xB1),
                WalFrame::Commit { seq: 2 },
            ],
            1,
        );
        let out = scan_log(&buf, PS).unwrap();
        assert_eq!(out.commits, 2);
        assert_eq!(out.committed, vec![(1, vec![0xB1; PS])]);
    }

    #[test]
    fn scan_drops_torn_tail_but_keeps_earlier_commits() {
        let mut buf = log_with(&[page_frame(1, 0xA1), WalFrame::Commit { seq: 1 }], 1);
        let torn = encode_frame(&page_frame(2, 0xC2), 1).unwrap();
        buf.extend_from_slice(torn.get(..torn.len() / 2).unwrap());
        let out = scan_log(&buf, PS).unwrap();
        assert!(out.torn_tail);
        assert_eq!(out.committed, vec![(1, vec![0xA1; PS])]);
    }

    #[test]
    fn scan_tolerates_empty_and_torn_headers() {
        let out = scan_log(&[], PS).unwrap();
        assert!(!out.torn_tail);
        assert_eq!(out.header_epoch, 0);

        let header = encode_header(PS, 12).unwrap();
        for keep in [1, 5, WAL_HEADER - 1] {
            let out = scan_log(header.get(..keep).unwrap(), PS).unwrap();
            assert!(out.torn_tail, "prefix of {keep} bytes");
            assert!(out.committed.is_empty());
        }

        let mut garbage = header.clone();
        if let Some(b) = garbage.first_mut() {
            *b ^= 0xFF;
        }
        let out = scan_log(&garbage, PS).unwrap();
        assert!(out.torn_tail, "clobbered magic must scan as torn");
    }

    #[test]
    fn scan_rejects_page_size_mismatch() {
        let buf = log_with(&[], 1);
        assert!(matches!(
            scan_log(&buf, PS * 2),
            Err(PagerError::Corrupt(_))
        ));
    }

    #[test]
    fn stale_epoch_frames_scan_as_torn_tail() {
        // A truncate-then-append crash can leave frames of an older
        // generation exactly on a frame boundary; the epoch salt must
        // stop the scan there.
        let mut buf = log_with(&[page_frame(1, 0xA1), WalFrame::Commit { seq: 1 }], 9);
        let stale = encode_frame(&page_frame(3, 0xEE), 8).unwrap();
        buf.extend_from_slice(&stale);
        buf.extend_from_slice(&encode_frame(&WalFrame::Commit { seq: 4 }, 8).unwrap());
        let out = scan_log(&buf, PS).unwrap();
        assert!(out.torn_tail);
        assert_eq!(out.commits, 1, "stale commit must not be honored");
        assert_eq!(out.committed, vec![(1, vec![0xA1; PS])]);
    }
}
