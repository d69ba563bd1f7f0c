//! Page identifiers, kinds, and a little-endian codec for page payloads.
//!
//! No slice indexing (the workspace clippy deny-set) and no `as` numeric
//! casts (`clippy::as_conversions`, denied below; [`narrow_lane`] is the
//! one exception), so a corrupted length field can only surface as a
//! typed [`PagerError::CodecOverrun`], never as a panic or a silently
//! wrapped value.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::error::{PagerError, Result};

/// Identifier of a page within a page file. Page 0 is always the metadata
/// page; user pages start at 1.
pub type PageId = u64;

/// Default page size, matching the paper: "The size of nodes and leaves is
/// set to 8192 bytes to meet with the disk block size of the operating
/// system."
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// What a page holds. The distinction between `Node` and `Leaf` is what
/// lets [`crate::IoStats`] reproduce Figure 14's node-level vs leaf-level
/// read counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PageKind {
    /// The page-file metadata page (always page 0).
    Meta = 0,
    /// An internal node of an index structure.
    Node = 1,
    /// A leaf of an index structure.
    Leaf = 2,
    /// A page on the free list.
    Free = 3,
}

impl PageKind {
    /// Decode from the header byte.
    pub fn from_u8(v: u8) -> Option<PageKind> {
        match v {
            0 => Some(PageKind::Meta),
            1 => Some(PageKind::Node),
            2 => Some(PageKind::Leaf),
            3 => Some(PageKind::Free),
            _ => None,
        }
    }

    /// The header byte for this kind (the inverse of [`PageKind::from_u8`]).
    pub fn as_u8(self) -> u8 {
        match self {
            PageKind::Meta => 0,
            PageKind::Node => 1,
            PageKind::Leaf => 2,
            PageKind::Free => 3,
        }
    }
}

/// A cursor-based little-endian encoder over a byte buffer; its reading
/// mirror is [`PageReader`].
///
/// All node serialization in the index crates goes through this type, so
/// the on-disk format is uniform: fixed-width little-endian scalars, no
/// padding, no self-description. Every accessor is fallible: writes past
/// the end of the buffer return [`PagerError::CodecOverrun`] instead of
/// panicking.
pub struct PageCodec<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> PageCodec<'a> {
    /// Wrap a buffer for encoding from offset 0.
    pub fn new(buf: &'a mut [u8]) -> Self {
        PageCodec { buf, pos: 0 }
    }

    /// Current cursor position (bytes produced so far).
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining after the cursor.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Claim the next `n` bytes, advancing the cursor.
    fn take(&mut self, n: usize) -> Result<&mut [u8]> {
        let overrun = PagerError::CodecOverrun {
            pos: self.pos,
            want: n,
            len: self.buf.len(),
        };
        let end = match self.pos.checked_add(n) {
            Some(end) => end,
            None => return Err(overrun),
        };
        match self.buf.get_mut(self.pos..end) {
            Some(s) => {
                self.pos = end;
                Ok(s)
            }
            None => Err(overrun),
        }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) -> Result<()> {
        self.take(1)?.copy_from_slice(&[v]);
        Ok(())
    }

    /// Append a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) -> Result<()> {
        self.take(2)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) -> Result<()> {
        self.take(4)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) -> Result<()> {
        self.take(8)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Append an `f64` (little-endian bit pattern).
    pub fn put_f64(&mut self, v: f64) -> Result<()> {
        self.take(8)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Append coordinates widened to `f64` — the on-disk coordinate format
    /// of every index crate, reproducing the paper's 8-byte-per-coordinate
    /// fanout arithmetic (Table 1). The whole row is claimed once and
    /// written lane by lane.
    pub fn put_coords(&mut self, vs: &[f32]) -> Result<()> {
        // An f32 slice is at most isize::MAX / 4 long, so this cannot wrap.
        let (lanes, _) = self.take(vs.len() * 8)?.as_chunks_mut::<8>();
        for (lane, &v) in lanes.iter_mut().zip(vs) {
            *lane = f64::from(v).to_le_bytes();
        }
        Ok(())
    }

    /// Skip `n` bytes, zero-filling them (reserved areas, e.g. the paper's
    /// 512-byte per-entry data area).
    pub fn put_padding(&mut self, n: usize) -> Result<()> {
        self.take(n)?.fill(0);
        Ok(())
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, bs: &[u8]) -> Result<()> {
        self.take(bs.len())?.copy_from_slice(bs);
        Ok(())
    }
}

/// A read-only cursor over a borrowed page image: the one page decoder.
///
/// The reading mirror of [`PageCodec`]: the same little-endian scalars
/// and the same [`PagerError::CodecOverrun`] contract, but over `&[u8]`,
/// so pages served straight from the buffer pool (shared, immutable
/// images) are parsed without copying them into a scratch buffer first.
/// Every read is fallible, which is what lets the fault injector corrupt
/// arbitrary pages without aborting the process.
pub struct PageReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PageReader<'a> {
    /// Wrap a buffer for decoding from offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        PageReader { buf, pos: 0 }
    }

    /// Current cursor position (bytes consumed so far).
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining after the cursor.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Claim the next `n` bytes, advancing the cursor.
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let overrun = PagerError::CodecOverrun {
            pos: self.pos,
            want: n,
            len: self.buf.len(),
        };
        let end = match self.pos.checked_add(n) {
            Some(end) => end,
            None => return Err(overrun),
        };
        match self.buf.get(self.pos..end) {
            Some(s) => {
                self.pos = end;
                Ok(s)
            }
            None => Err(overrun),
        }
    }

    /// Read the next `N` bytes as a fixed-size array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let s = self.take(N)?;
        <[u8; N]>::try_from(s)
            .map_err(|_| PagerError::Corrupt("reader take() length mismatch".into()))
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.take_array()?))
    }

    /// Read a `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Read an `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// Read `n` coordinates stored as `f64`, narrowing back to `f32`. The
    /// whole row is claimed once and narrowed lane by lane into a vector
    /// of exactly `n` values.
    pub fn get_coords(&mut self, n: usize) -> Result<Vec<f32>> {
        // A saturated length overruns any buffer, so a huge `n` fails in
        // `take` like any other overrun.
        let (lanes, _) = self.take(n.saturating_mul(8))?.as_chunks::<8>();
        Ok(lanes.iter().map(narrow_lane).collect())
    }

    /// Skip `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n)?;
        Ok(())
    }

    /// Read `n` raw bytes; the slice borrows from the underlying buffer.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

/// One on-disk `f64` coordinate lane, narrowed back to the in-memory
/// `f32` format (paper Table 1 layout). Every stored value originated as
/// an `f32`, so this is lossless; it is the only `as` cast in the page
/// and leaf codecs.
#[inline]
#[allow(clippy::as_conversions)]
pub fn narrow_lane(lane: &[u8; 8]) -> f32 {
    f64::from_le_bytes(*lane) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        for k in [
            PageKind::Meta,
            PageKind::Node,
            PageKind::Leaf,
            PageKind::Free,
        ] {
            assert_eq!(PageKind::from_u8(k.as_u8()), Some(k));
        }
        assert_eq!(PageKind::from_u8(42), None);
    }

    #[test]
    fn codec_roundtrip_scalars() {
        let mut buf = vec![0u8; 64];
        let mut w = PageCodec::new(&mut buf);
        w.put_u8(7).unwrap();
        w.put_u16(0xBEEF).unwrap();
        w.put_u32(0xDEAD_BEEF).unwrap();
        w.put_u64(u64::MAX - 1).unwrap();
        w.put_f64(-1.5).unwrap();
        let end = w.pos();

        let mut r = PageReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), -1.5);
        assert_eq!(r.pos(), end);
    }

    #[test]
    fn codec_roundtrip_slices() {
        let mut buf = vec![0u8; 64];
        let vals = [1.0f32, -0.25, f32::MIN_POSITIVE, 3.25e7];
        let mut w = PageCodec::new(&mut buf);
        w.put_coords(&vals).unwrap();
        w.put_bytes(b"tail").unwrap();
        let mut r = PageReader::new(&buf);
        assert_eq!(r.get_coords(4).unwrap(), vals);
        assert_eq!(r.get_bytes(4).unwrap(), b"tail");
    }

    #[test]
    fn remaining_tracks_cursor() {
        let mut buf = vec![0u8; 10];
        let mut c = PageCodec::new(&mut buf);
        assert_eq!(c.remaining(), 10);
        c.put_u32(1).unwrap();
        assert_eq!(c.remaining(), 6);
    }

    #[test]
    fn coords_roundtrip_losslessly() {
        // f32 -> f64 -> f32 is exact for every f32.
        let mut buf = vec![0u8; 64];
        let coords = [0.1f32, -1.0e-20, 3.4e38, 0.0];
        let mut w = PageCodec::new(&mut buf);
        w.put_u8(9).unwrap();
        w.put_coords(&coords).unwrap();
        assert_eq!(w.pos(), 1 + 4 * 8);
        let mut r = PageReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 9);
        let back = r.get_coords(4).unwrap();
        assert_eq!((back.as_slice(), back.capacity()), (&coords[..], 4));
        assert_eq!(r.pos(), 1 + 4 * 8);
        // The row is the f64 widening of each value, little-endian.
        let mut f = PageReader::new(&buf);
        f.skip(1).unwrap();
        for &c in &coords {
            assert_eq!(f.get_f64().unwrap(), f64::from(c));
        }
    }

    #[test]
    fn coords_overrun_claims_nothing() {
        let mut buf = vec![0u8; 20];
        let mut w = PageCodec::new(&mut buf);
        assert!(matches!(
            w.put_coords(&[1.0, 2.0, 3.0]),
            Err(PagerError::CodecOverrun {
                pos: 0,
                want: 24,
                len: 20
            })
        ));
        assert_eq!(w.pos(), 0);
        w.put_coords(&[1.0, 2.0]).unwrap();
        let mut r = PageReader::new(&buf);
        assert!(r.get_coords(3).is_err());
        assert_eq!(r.pos(), 0);
        assert!(r.get_coords(usize::MAX).is_err());
        assert_eq!(r.get_coords(2).unwrap(), [1.0, 2.0]);
        assert!(r.get_coords(0).unwrap().is_empty());
    }

    #[test]
    fn padding_zero_fills_and_skips() {
        let mut buf = vec![0xFFu8; 16];
        let mut w = PageCodec::new(&mut buf);
        w.put_u8(1).unwrap();
        w.put_padding(8).unwrap();
        w.put_u8(2).unwrap();
        let mut r = PageReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_bytes(8).unwrap(), &[0u8; 8]);
        assert_eq!(r.get_u8().unwrap(), 2);
        let mut r2 = PageReader::new(&buf);
        r2.skip(9).unwrap();
        assert_eq!(r2.get_u8().unwrap(), 2);
    }

    #[test]
    fn nan_and_infinity_roundtrip() {
        let mut buf = vec![0u8; 24];
        let mut w = PageCodec::new(&mut buf);
        w.put_coords(&[f32::INFINITY, f32::NEG_INFINITY, f32::NAN])
            .unwrap();
        let back = PageReader::new(&buf).get_coords(3).unwrap();
        assert_eq!(back[..2], [f32::INFINITY, f32::NEG_INFINITY]);
        assert!(back[2].is_nan());
    }

    #[test]
    fn narrow_lane_inverts_every_f32_widening() {
        // Stored lanes are widened f32s, so narrowing one is exact: a
        // strided sweep of the f32 bit space (normals, subnormals, both
        // zeros, infinities) plus the extremes comes back bit for bit.
        let extremes = [f32::MIN, f32::MAX, f32::MIN_POSITIVE, -0.0, f32::EPSILON];
        let sweep = (0..=u32::MAX).step_by(65_521).map(f32::from_bits);
        for x in sweep.chain(extremes).filter(|x| !x.is_nan()) {
            let lane = f64::from(x).to_le_bytes();
            assert_eq!(narrow_lane(&lane).to_bits(), x.to_bits(), "{x:e}");
        }
        assert!(narrow_lane(&f64::from(f32::NAN).to_le_bytes()).is_nan());
    }

    #[test]
    fn narrow_lane_rounds_a_foreign_f64_like_a_cast() {
        // A lane no f32 produced (a corrupt or hand-made page) narrows
        // exactly as the `as f32` casts it replaced: round to nearest,
        // overflow to an infinity (which the leaf checks reject as
        // non-finite), underflow to zero.
        for v in [
            0.1,
            -2.5e-45,
            1.0e-50,
            3.5e38,
            -1.0e300,
            f64::MAX,
            1.0 / 3.0,
        ] {
            let got = narrow_lane(&v.to_le_bytes());
            assert_eq!(got.to_bits(), (v as f32).to_bits(), "{v:e}");
        }
        assert_eq!(narrow_lane(&1.0e300f64.to_le_bytes()), f32::INFINITY);
        assert_eq!(narrow_lane(&1.0e-50f64.to_le_bytes()), 0.0);
    }

    #[test]
    fn overrun_is_an_error_not_a_panic() {
        let mut buf = vec![0u8; 4];
        let mut r = PageReader::new(&buf);
        assert!(r.get_u16().is_ok());
        assert!(matches!(
            r.get_u32(),
            Err(PagerError::CodecOverrun {
                pos: 2,
                want: 4,
                len: 4
            })
        ));
        let mut w = PageCodec::new(&mut buf);
        assert!(matches!(w.put_u64(1), Err(PagerError::CodecOverrun { .. })));
        // a failed access leaves the cursor where it was
        assert_eq!(w.pos(), 0);
        let mut s = PageReader::new(&buf);
        assert!(s.skip(5).is_err());
        assert!(s.skip(4).is_ok());
    }
}
