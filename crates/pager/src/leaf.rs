//! The shared columnar (structure-of-arrays) leaf payload format.
//!
//! Every index crate in the workspace stores the same three things per
//! leaf entry: `dim` coordinates (widened to `f64`, paper Table 1), a
//! `u64` data id, and a zero-filled reserved area padding the entry to
//! the paper's `data_area` bytes. Since PR 8 the entries are laid out
//! **dimension-major** so the query scan can score a whole leaf straight
//! from the page buffer with the columnar kernels in `sr-geometry`:
//!
//! ```text
//! offset 0                  u16  level (must be 0)
//! offset 2                  u16  n — entry count
//! offset 4                  n * f64  dimension-0 values, one per entry
//! offset 4 +     n*8        n * f64  dimension-1 values
//! ...
//! offset 4 + dim*n*8        n * u64  data ids
//! offset 4 + (dim+1)*n*8    n * (data_area - 8) zero padding
//! ```
//!
//! The total payload size equals the old row-major layout's —
//! `4 + n * (dim*8 + data_area)` — so fanout and the paper's page-size
//! arithmetic are unchanged; only the order of the bytes moved. All
//! values are little-endian. There is no alignment requirement: readers
//! decode through `[u8; 8]` lanes (`f64::from_le_bytes`), never by
//! reinterpreting the buffer, which is also what keeps the zero-copy
//! path compatible with `forbid(unsafe_code)`.
//!
//! No slice indexing (the workspace clippy deny-set) and no `as` casts
//! (`clippy::as_conversions`, denied below), so a corrupted count can
//! only surface as a typed error, never as a panic.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::error::{PagerError, Result};
use crate::page::{narrow_lane, PageCodec, PageReader};

/// Bytes of the `(level, count)` leaf header — the same `NODE_HEADER`
/// every index crate uses.
pub const LEAF_HEADER: usize = 4;

/// A parsed, zero-copy view of a columnar leaf payload.
///
/// Borrows the payload (typically a [`crate::PageBuf`] served straight
/// from the buffer pool) and exposes the coordinate block and data-id
/// column without materialising per-entry points.
pub struct LeafColumns<'a> {
    payload: &'a [u8],
    n: usize,
    dim: usize,
}

impl<'a> LeafColumns<'a> {
    /// Parse a leaf payload: read its `(level, n)` header once, then
    /// check the level (a leaf is level 0) and that the payload holds `n`
    /// whole entries of `dim` coordinates and `data_area` bytes each,
    /// reserved area included — the size [`put_leaf_columns`] writes.
    ///
    /// # Errors
    /// [`PagerError::CodecOverrun`] for a payload shorter than its header;
    /// [`PagerError::Corrupt`] for a nonzero level, a `data_area` too small
    /// for the data id, or a body shorter than its count.
    pub fn parse(payload: &'a [u8], dim: usize, data_area: usize) -> Result<Self> {
        let mut header = PageReader::new(payload);
        let level = header.get_u16()?;
        if level != 0 {
            return Err(PagerError::Corrupt(format!(
                "stored level {level} but expected 0"
            )));
        }
        let n = usize::from(header.get_u16()?);
        let entry = entry_bytes(dim, data_area)?;
        let have = header.remaining();
        if n.checked_mul(entry).is_none_or(|need| need > have) {
            return Err(PagerError::Corrupt(format!(
                "leaf claims {n} entries of {entry} bytes but {have} bytes follow the header"
            )));
        }
        Ok(LeafColumns { payload, n, dim })
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the leaf is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality the view was parsed with.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The dimension-major coordinate block: `dim * n` f64-LE values,
    /// ready for the columnar distance kernels.
    #[inline]
    pub fn coords(&self) -> &'a [u8] {
        self.payload
            .get(LEAF_HEADER..LEAF_HEADER + self.dim * self.n * 8)
            .unwrap_or(&[])
    }

    /// The data ids, in entry order.
    pub fn data_ids(&self) -> impl Iterator<Item = u64> + 'a {
        let start = LEAF_HEADER + self.dim * self.n * 8;
        let col = self.payload.get(start..start + self.n * 8).unwrap_or(&[]);
        let (lanes, _tail) = col.as_chunks::<8>();
        lanes.iter().map(|lane| u64::from_le_bytes(*lane))
    }

    /// Materialise entry `i`'s coordinates (narrowed back to `f32`) into
    /// `out` — the row-major view the insert/delete/verify paths work
    /// with.
    pub fn point_into(&self, i: usize, out: &mut Vec<f32>) -> Result<()> {
        if i >= self.n {
            return Err(PagerError::Corrupt(format!(
                "leaf entry {i} out of range ({} entries)",
                self.n
            )));
        }
        out.clear();
        out.reserve(self.dim);
        for d in 0..self.dim {
            let off = LEAF_HEADER + (d * self.n + i) * 8;
            let lane = self
                .payload
                .get(off..)
                .and_then(|s| s.first_chunk::<8>())
                .ok_or_else(|| PagerError::Corrupt("leaf coordinate out of range".into()))?;
            out.push(narrow_lane(lane));
        }
        Ok(())
    }
}

fn overflow() -> PagerError {
    PagerError::Corrupt("columnar leaf size overflows usize".into())
}

/// Bytes one leaf entry occupies on the page: `dim` f64 coordinates plus
/// the `data_area` that holds the data id and the reserved padding.
fn entry_bytes(dim: usize, data_area: usize) -> Result<usize> {
    if data_area < 8 {
        return Err(PagerError::Corrupt(format!(
            "data_area {data_area} smaller than the data id"
        )));
    }
    dim.checked_mul(8)
        .and_then(|b| b.checked_add(data_area))
        .ok_or_else(overflow)
}

/// Encode a leaf payload in the columnar layout: `(level=0, n)` header,
/// then the dimension-major coordinate columns, the data-id column, and
/// the zero-filled reserved area (`n * (data_area - 8)` bytes).
///
/// `entries` pairs each entry's coordinates with its data id; every
/// coordinate slice must have length `dim`.
pub fn put_leaf_columns(
    c: &mut PageCodec<'_>,
    dim: usize,
    data_area: usize,
    entries: &[(&[f32], u64)],
) -> Result<()> {
    let n = u16::try_from(entries.len())
        .map_err(|_| PagerError::Corrupt("leaf entry count overflows u16".into()))?;
    c.put_u16(0)?;
    c.put_u16(n)?;
    for d in 0..dim {
        for (coords, _) in entries {
            let v = coords.get(d).copied().ok_or_else(|| {
                PagerError::Corrupt(format!(
                    "leaf entry has {} coords, index expects {dim}",
                    coords.len()
                ))
            })?;
            c.put_f64(f64::from(v))?;
        }
    }
    for (_, data) in entries {
        c.put_u64(*data)?;
    }
    let reserved = data_area.checked_sub(8).ok_or_else(|| {
        PagerError::Corrupt(format!("data_area {data_area} smaller than the data id"))
    })?;
    c.put_padding(entries.len().checked_mul(reserved).ok_or_else(overflow)?)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(dim: usize, data_area: usize, entries: &[(Vec<f32>, u64)]) -> Vec<u8> {
        let mut buf = vec![0u8; 4 + entries.len() * (dim * 8 + data_area)];
        let borrowed: Vec<(&[f32], u64)> =
            entries.iter().map(|(c, d)| (c.as_slice(), *d)).collect();
        let mut c = PageCodec::new(&mut buf);
        put_leaf_columns(&mut c, dim, data_area, &borrowed).unwrap();
        assert_eq!(c.pos(), buf.len(), "payload size arithmetic must agree");
        buf
    }

    #[test]
    fn roundtrip_columnar() {
        let entries = vec![(vec![1.0f32, 2.0, 3.0], 10u64), (vec![-4.5, 0.25, 6.0], 11)];
        let payload = encode(3, 16, &entries);
        let cols = LeafColumns::parse(&payload, 3, 16).unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols.data_ids().collect::<Vec<_>>(), vec![10, 11]);
        let mut p = Vec::new();
        for (i, (coords, _)) in entries.iter().enumerate() {
            cols.point_into(i, &mut p).unwrap();
            assert_eq!(&p, coords);
        }
    }

    #[test]
    fn coords_block_is_dimension_major() {
        let entries = vec![(vec![1.0f32, 3.0], 0u64), (vec![2.0, 4.0], 1)];
        let payload = encode(2, 8, &entries);
        let cols = LeafColumns::parse(&payload, 2, 8).unwrap();
        let block = cols.coords();
        let vals: Vec<f64> = block
            .as_chunks::<8>()
            .0
            .iter()
            .map(|l| f64::from_le_bytes(*l))
            .collect();
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn truncated_payload_rejected() {
        let entries = vec![(vec![1.0f32, 2.0], 7u64)];
        let mut payload = encode(2, 8, &entries);
        payload.truncate(payload.len() - 1);
        assert!(LeafColumns::parse(&payload, 2, 8).is_err());
        // The reserved area is part of the entry: a page cut inside it
        // is as truncated as one cut inside the coordinates.
        let mut payload = encode(2, 24, &entries);
        payload.truncate(payload.len() - 1);
        assert!(matches!(
            LeafColumns::parse(&payload, 2, 24),
            Err(PagerError::Corrupt(msg))
                if msg == "leaf claims 1 entries of 40 bytes but 39 bytes follow the header"
        ));
        assert!(LeafColumns::parse(&payload[..3], 2, 24).is_err());
    }

    #[test]
    fn wrong_level_rejected() {
        let mut payload = encode(1, 8, &[(vec![0.0f32], 0u64)]);
        payload[0] = 3; // level = 3
        assert!(matches!(
            LeafColumns::parse(&payload, 1, 8),
            Err(PagerError::Corrupt(msg)) if msg == "stored level 3 but expected 0"
        ));
    }

    #[test]
    fn empty_leaf_parses() {
        let payload = encode(4, 512, &[]);
        let cols = LeafColumns::parse(&payload, 4, 512).unwrap();
        assert!(cols.is_empty());
        assert_eq!(cols.coords(), &[] as &[u8]);
        assert_eq!(cols.data_ids().count(), 0);
    }
}
