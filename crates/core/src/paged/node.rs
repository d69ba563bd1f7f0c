//! The in-memory node and its page codec, shared by every tree.
//!
//! Every node page starts with a `(level, n)` header. Leaves continue in
//! the columnar (dimension-major) layout of [`sr_pager::LeafColumns`];
//! inner nodes with `n` entries of region bytes plus a child page id.
//! [`Layout::parse`] is the one reader of that header; [`NodePage`] is
//! the one writer that edits a page without decoding it.

// Tree internals index into child/entry vectors whose bounds are
// maintained as structural invariants (checked by `verify`); the
// clippy index ban applies to the audited geometry/pager hot paths.
#![allow(clippy::indexing_slicing)]

use std::fmt;
use std::marker::PhantomData;

use sr_geometry::Point;
use sr_pager::{
    narrow_lane, put_leaf_columns, LeafColumns, PageCodec, PageId, PageKind, PageReader,
    PagerError, LEAF_HEADER,
};
use sr_query::IndexError;

use super::params::{Params, NODE_HEADER};
use super::region::Region;
use crate::Result;

/// One point stored in a leaf.
#[derive(Clone, Debug)]
pub struct LeafEntry {
    /// The indexed point.
    pub point: Point,
    /// Its payload (typically a row id).
    pub data: u64,
}

/// One child reference stored in an internal node.
#[derive(Clone, Debug)]
pub struct Entry<R> {
    /// The child's region, as its parent records it.
    pub region: R,
    /// The child page.
    pub child: PageId,
}

/// An entry being inserted at some level: a point (level 0) or a subtree
/// reference (level ≥ 1, produced by forced reinsertion).
#[derive(Clone, Debug)]
pub enum AnyEntry<R> {
    /// A point for a leaf.
    Leaf(LeafEntry),
    /// A subtree for an inner node.
    Inner(Entry<R>),
}

/// A materialized node. Level 0 is the leaf level.
#[derive(Clone, Debug)]
pub enum Node<R> {
    /// A leaf: points with payloads.
    Leaf(Vec<LeafEntry>),
    /// An internal node at `level` ≥ 1.
    Inner {
        /// Height above the leaves.
        level: u16,
        /// Child references.
        entries: Vec<Entry<R>>,
    },
}

impl<R: Region> Node<R> {
    /// Height above the leaves (0 for a leaf).
    pub fn level(&self) -> u16 {
        match self {
            Node::Leaf(_) => 0,
            Node::Inner { level, .. } => *level,
        }
    }

    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(e) => e.len(),
            Node::Inner { entries, .. } => entries.len(),
        }
    }

    /// Whether the node holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The page kind this node is stored as.
    pub fn kind(&self) -> PageKind {
        if self.is_leaf() {
            PageKind::Leaf
        } else {
            PageKind::Node
        }
    }

    /// Serialize into a page payload.
    ///
    /// # Errors
    /// [`IndexError::Corrupt`] when the node violates the on-disk format's
    /// field widths or the encoded entries overrun `capacity`.
    pub fn encode(&self, params: &Params<R>, capacity: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; capacity];
        let mut c = PageCodec::new(&mut buf);
        match self {
            Node::Leaf(entries) => {
                let refs: Vec<(&[f32], u64)> =
                    entries.iter().map(|e| (e.point.coords(), e.data)).collect();
                put_leaf_columns(&mut c, params.dim, params.data_area, &refs)?;
            }
            Node::Inner { level, entries } => {
                c.put_u16(*level)?;
                let n = u16::try_from(entries.len()).map_err(|_| {
                    IndexError::Corrupt(format!("{} entries overflow the u16 count", entries.len()))
                })?;
                c.put_u16(n)?;
                for e in entries {
                    e.region.encode(&mut c)?;
                    c.put_u64(e.child)?;
                }
            }
        }
        let len = c.pos();
        buf.truncate(len);
        Ok(buf)
    }

    /// Deserialize page `id`'s payload, which its parent puts at `level`:
    /// the header checks every walk shares (stored level, then count
    /// against body), then every field whose misvalue would later feed a
    /// panicking constructor.
    ///
    /// # Errors
    /// [`IndexError::Corrupt`] starting `page N:` for a bad header, a
    /// non-finite leaf coordinate, or an invalid region.
    pub fn decode(id: PageId, level: u16, payload: &[u8], params: &Params<R>) -> Result<Self> {
        let dim = params.dim;
        let node = match Layout::parse(id, level, payload, params)? {
            Layout::Leaf(cols) => decode_leaf(&cols, dim).map(Node::Leaf),
            Layout::Inner { n, rest } => {
                decode_inner(n, rest, dim).map(|entries| Node::Inner { level, entries })
            }
        };
        node.map_err(|e| in_page(id, e))
    }
}

/// Materialise an inner node's `n` entries, each region validated by
/// [`Region::decode`].
fn decode_inner<R: Region>(
    n: usize,
    mut rest: PageReader<'_>,
    dim: usize,
) -> Result<Vec<Entry<R>>> {
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let region = R::decode(&mut rest, dim)?;
        let child = rest.get_u64()?;
        entries.push(Entry { region, child });
    }
    Ok(entries)
}

/// Materialise a leaf's entries, rejecting every field whose misvalue
/// would later feed a panicking constructor.
fn decode_leaf(cols: &LeafColumns<'_>, dim: usize) -> Result<Vec<LeafEntry>> {
    let mut entries = Vec::with_capacity(cols.len());
    let mut coords = Vec::with_capacity(dim);
    for (i, data) in cols.data_ids().enumerate() {
        cols.point_into(i, &mut coords)?;
        if !coords.iter().all(|v| v.is_finite()) {
            return Err(non_finite_leaf());
        }
        // On-disk bytes are untrusted input: the fallible constructor
        // turns a zero-dimensional page into a typed error instead of a
        // panic.
        let point =
            Point::try_new(coords.as_slice()).map_err(|e| IndexError::Corrupt(e.to_string()))?;
        entries.push(LeafEntry { point, data });
    }
    Ok(entries)
}

/// `e`, met while reading the entries of page `id`, as a fault of that
/// page: a `Corrupt` text gets the `page N: ` prefix [`Layout::parse`]'s
/// own errors carry. Other errors pass unchanged.
pub(crate) fn in_page(id: PageId, e: IndexError) -> IndexError {
    match e {
        IndexError::Corrupt(msg) => page_fault(id, msg),
        e => e,
    }
}

/// The error of a leaf holding a NaN or infinite coordinate.
pub(crate) fn non_finite_leaf() -> IndexError {
    IndexError::Corrupt("non-finite leaf coordinate".into())
}

/// A node page with its `(level, n)` header checked and its entries left
/// on the page. [`Layout::parse`] is the only reader of that header, so
/// `expand()`, `find_leaf` and [`Node::decode`] (hence `read_node`,
/// `verify`, the leaf walks and the update paths) reject a bad page alike.
/// It reads the header once and checks, in order:
///
/// 1. the stored level against the level the parent puts the page at
///    (`stored level S but expected L`: a misplaced page);
/// 2. the count against the body: `n` whole entries of
///    [`Params::leaf_entry_bytes`] for a leaf (reserved area included;
///    [`LeafColumns::parse`] checks it) or [`Params::node_entry_bytes`]
///    for an inner node (`… claims n entries of B bytes but H bytes
///    follow the header`), and at least one entry in an inner node
///    (`inner node holds no entries`).
///
/// A payload too short for its header fails at the field it cuts. Every
/// error is [`IndexError::Corrupt`] starting `page N:`; entry bytes are
/// the reader's to check, and a reader that rejects them names the page
/// the same way ([`in_page`]).
pub(crate) enum Layout<'a> {
    /// A columnar leaf.
    Leaf(LeafColumns<'a>),
    /// An inner node whose payload holds all `n` entries.
    Inner {
        /// The entry count.
        n: usize,
        /// A reader at the first entry.
        rest: PageReader<'a>,
    },
}

impl<'a> Layout<'a> {
    /// Check the header of page `id`, which its parent puts at `level`.
    /// Allocates only on the error path.
    pub(crate) fn parse<R: Region>(
        id: PageId,
        level: u16,
        payload: &'a [u8],
        params: &Params<R>,
    ) -> Result<Self> {
        let fault = |e: PagerError| match e {
            PagerError::Corrupt(msg) => page_fault(id, msg),
            e => page_fault(id, e),
        };
        if level == 0 {
            return LeafColumns::parse(payload, params.dim, params.data_area)
                .map(Layout::Leaf)
                .map_err(fault);
        }
        let mut rest = PageReader::new(payload);
        let stored = rest.get_u16().map_err(fault)?;
        if stored != level {
            return Err(page_fault(
                id,
                format_args!("stored level {stored} but expected {level}"),
            ));
        }
        let n = usize::from(rest.get_u16().map_err(fault)?);
        if n == 0 {
            // Every inner node routes to at least one child; an empty one
            // would answer every query as if its subtree were empty.
            return Err(page_fault(id, "inner node holds no entries"));
        }
        let entry = Params::<R>::node_entry_bytes(params.dim);
        let have = rest.remaining();
        if n * entry > have {
            return Err(page_fault(
                id,
                format_args!(
                    "inner node claims {n} entries of {entry} bytes but {have} bytes follow the header"
                ),
            ));
        }
        Ok(Layout::Inner { n, rest })
    }
}

/// A node page copied out of the pool once and edited on its bytes: the
/// write path's view of a node. It keeps exactly the bytes
/// [`Node::encode`] would write — `n` whole entries after the header, no
/// stale tail — so a patched page equals the encoding of its decoded
/// self. Every edit keeps entry order: removal shifts, appending adds at
/// the end, as `Vec::remove` and `Vec::push` do on a [`Node`].
///
/// Leaves are columnar ([`sr_pager::LeafColumns`]): `dim` coordinate
/// columns, then the data-id column, then the zeroed reserved area, each
/// column `n` lanes long. Inner entries are row-major: region bytes, then
/// the child id.
pub struct NodePage<R> {
    id: PageId,
    level: u16,
    n: usize,
    dim: usize,
    /// Bytes of one entry: a leaf's coordinates and data area, or an
    /// inner entry's region and child id.
    entry: usize,
    /// The payload, `NODE_HEADER + n * entry` bytes long.
    buf: Vec<u8>,
    region: PhantomData<fn() -> R>,
}

impl<R: Region> NodePage<R> {
    /// Copy page `id`'s payload, which its parent puts at `level`, and
    /// check it as [`Node::decode`] does: the header by [`Layout::parse`],
    /// then every leaf coordinate or inner region, failing with the same
    /// `page N:` text on the same bytes. Allocates only the copy.
    pub(crate) fn parse(
        id: PageId,
        level: u16,
        payload: &[u8],
        params: &Params<R>,
    ) -> Result<Self> {
        let (n, entry) = match Layout::parse(id, level, payload, params)? {
            Layout::Leaf(cols) => {
                let (lanes, _) = cols.coords().as_chunks::<8>();
                if !lanes.iter().all(|lane| narrow_lane(lane).is_finite()) {
                    return Err(in_page(id, non_finite_leaf()));
                }
                let entry = Params::<R>::leaf_entry_bytes(params.dim, params.data_area);
                (cols.len(), entry)
            }
            Layout::Inner { n, .. } => (n, Params::<R>::node_entry_bytes(params.dim)),
        };
        let len = NODE_HEADER + n * entry;
        let page = NodePage {
            id,
            level,
            n,
            dim: params.dim,
            entry,
            buf: payload.get(..len).unwrap_or(payload).to_vec(),
            region: PhantomData,
        };
        for raw in page.regions() {
            R::check_raw(raw, page.dim).map_err(|e| in_page(id, e))?;
        }
        Ok(page)
    }

    /// The page `node` encodes to, as page `id`.
    ///
    /// # Errors
    /// [`Node::encode`]'s.
    pub fn encode(id: PageId, node: &Node<R>, params: &Params<R>, capacity: usize) -> Result<Self> {
        let level = node.level();
        let entry = if level == 0 {
            Params::<R>::leaf_entry_bytes(params.dim, params.data_area)
        } else {
            Params::<R>::node_entry_bytes(params.dim)
        };
        Ok(NodePage {
            id,
            level,
            n: node.len(),
            dim: params.dim,
            entry,
            buf: node.encode(params, capacity)?,
            region: PhantomData,
        })
    }

    /// The page this view is of.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the page holds no entries.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality of the tree the page belongs to.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The page kind this node is stored as.
    pub fn kind(&self) -> PageKind {
        if self.is_leaf() {
            PageKind::Leaf
        } else {
            PageKind::Node
        }
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.buf
    }

    /// Decode the page into a [`Node`], for the edits that rearrange
    /// entries (split, reinsertion, condense).
    pub(crate) fn decode(&self, params: &Params<R>) -> Result<Node<R>> {
        Node::decode(self.id, self.level, &self.buf, params)
    }

    /// A leaf's points in entry order, row-major, each lane narrowed
    /// exactly as [`PageReader::get_coords`] narrows it. Empty for an
    /// inner node.
    pub fn points(&self) -> Vec<f32> {
        let (n, dim) = (self.n, self.dim);
        if !self.is_leaf() || n == 0 {
            return Vec::new();
        }
        let (lanes, _) = self.buf[LEAF_HEADER..].as_chunks::<8>();
        let mut rows = vec![0.0f32; n * dim];
        // Coordinate `d` of entry `i` is lane `d * n + i`.
        for (d, column) in lanes[..n * dim].chunks_exact(n).enumerate() {
            for (i, lane) in column.iter().enumerate() {
                rows[i * dim + d] = narrow_lane(lane);
            }
        }
        rows
    }

    /// Each inner entry's region lanes (its trailing weight, if any,
    /// excluded), narrowed once exactly as [`PageReader::get_coords`]
    /// narrows them. Empty for a leaf.
    pub fn region_rows(&self) -> RegionRows {
        let width = R::bytes(self.dim) / 8;
        let mut rows = Vec::with_capacity(self.n * width);
        for raw in self.regions() {
            let (lanes, _) = raw.as_chunks::<8>();
            rows.extend(lanes.iter().map(narrow_lane));
        }
        RegionRows {
            rows,
            width,
            dim: self.dim,
        }
    }

    /// The region bytes ([`Region::bytes`] of them) of each inner entry,
    /// in entry order. Nothing for a leaf.
    pub fn regions(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let bytes = R::bytes(self.dim);
        let body = if self.is_leaf() {
            &[][..]
        } else {
            &self.buf[NODE_HEADER..]
        };
        body.chunks_exact(self.entry).map(move |e| &e[..bytes])
    }

    /// The slot of the entry pointing at `child`.
    pub(crate) fn slot_of(&self, child: PageId) -> Result<usize> {
        let bytes = R::bytes(self.dim);
        (0..self.n)
            .find(|&slot| {
                let at = NODE_HEADER + slot * self.entry + bytes;
                self.buf[at..at + 8] == child.to_le_bytes()
            })
            .ok_or_else(|| IndexError::Corrupt("parent lost track of its child".into()))
    }

    /// The region recorded in inner slot `slot`.
    pub(crate) fn region(&self, slot: usize) -> Result<R> {
        let at = NODE_HEADER + slot * self.entry;
        R::decode(
            &mut PageReader::new(&self.buf[at..at + R::bytes(self.dim)]),
            self.dim,
        )
    }

    /// Overwrite the region lanes of inner slot `slot`.
    pub(crate) fn set_region(&mut self, slot: usize, region: &R) -> Result<()> {
        let at = NODE_HEADER + slot * self.entry;
        region.encode(&mut PageCodec::new(
            &mut self.buf[at..at + R::bytes(self.dim)],
        ))
    }

    /// The first leaf entry equal to `(point, data)`, coordinates compared
    /// as `f32`s (so `-0.0` matches `0.0`, as `Point` equality does).
    pub(crate) fn position(&self, point: &[f32], data: u64) -> Option<usize> {
        let n = self.n;
        let (lanes, _) = self.buf[LEAF_HEADER..].as_chunks::<8>();
        let ids = &lanes[self.dim * n..(self.dim + 1) * n];
        (0..n).find(|&i| {
            u64::from_le_bytes(ids[i]) == data
                && point
                    .iter()
                    .enumerate()
                    .all(|(d, &x)| narrow_lane(&lanes[d * n + i]) == x)
        })
    }

    /// Remove leaf entry `i`, shifting the later entries of every column
    /// down by one.
    pub(crate) fn remove_point(&mut self, i: usize) -> Result<()> {
        let n = self.n;
        let mut to = LEAF_HEADER;
        for col in 0..=self.dim {
            let from = LEAF_HEADER + col * n * 8;
            self.buf.copy_within(from..from + i * 8, to);
            to += i * 8;
            self.buf.copy_within(from + (i + 1) * 8..from + n * 8, to);
            to += (n - 1 - i) * 8;
        }
        self.resize(n - 1, to)
    }

    /// Append `entry` after the last entry: a point to a leaf, a subtree
    /// to an inner node.
    ///
    /// # Errors
    /// [`IndexError::Corrupt`] when the entry's kind does not match the
    /// page's, or a field overflows its on-disk width.
    pub(crate) fn push(&mut self, entry: &AnyEntry<R>) -> Result<()> {
        let n = self.n;
        match entry {
            AnyEntry::Leaf(e) if self.is_leaf() => {
                let coords = e.point.coords();
                if coords.len() != self.dim {
                    return Err(IndexError::Corrupt(format!(
                        "leaf entry has {} coords, index expects {}",
                        coords.len(),
                        self.dim
                    )));
                }
                let end = LEAF_HEADER + (self.dim + 1) * (n + 1) * 8;
                self.buf.resize(NODE_HEADER + (n + 1) * self.entry, 0);
                // Widen each column by one lane, the data-id column first,
                // so no column lands on one not yet moved.
                for col in (0..=self.dim).rev() {
                    let (from, to) = (LEAF_HEADER + col * n * 8, LEAF_HEADER + col * (n + 1) * 8);
                    self.buf.copy_within(from..from + n * 8, to);
                    let lane = if col == self.dim {
                        e.data.to_le_bytes()
                    } else {
                        f64::from(coords[col]).to_le_bytes()
                    };
                    self.buf[to + n * 8..to + (n + 1) * 8].copy_from_slice(&lane);
                }
                self.resize(n + 1, end)
            }
            AnyEntry::Inner(e) if !self.is_leaf() => {
                let at = self.buf.len();
                self.buf.resize(at + self.entry, 0);
                let mut c = PageCodec::new(&mut self.buf[at..]);
                e.region.encode(&mut c)?;
                c.put_u64(e.child)?;
                self.resize(n + 1, self.buf.len())
            }
            _ => Err(IndexError::Corrupt(
                "insertion target level does not match the node kind on disk".into(),
            )),
        }
    }

    /// Record `n` entries: zero from `from` (the end of the moved lanes)
    /// to the end of the last entry, the reserved area of a leaf, and cut
    /// the payload there.
    fn resize(&mut self, n: usize, from: usize) -> Result<()> {
        let count = u16::try_from(n)
            .map_err(|_| IndexError::Corrupt(format!("{n} entries overflow the u16 count")))?;
        let len = NODE_HEADER + n * self.entry;
        self.buf.resize(len, 0);
        self.buf[from.min(len)..].fill(0);
        self.buf[2..NODE_HEADER].copy_from_slice(&count.to_le_bytes());
        self.n = n;
        Ok(())
    }
}

/// The regions of an inner page as [`NodePage::region_rows`] narrows
/// them: one row of `f32` lanes per entry, read by field.
pub struct RegionRows {
    rows: Vec<f32>,
    /// Lanes per entry.
    width: usize,
    dim: usize,
}

impl RegionRows {
    /// The center and radius of each entry's sphere, for regions that
    /// start with one (`put_sphere`).
    pub fn spheres(&self) -> impl Iterator<Item = (&[f32], f32)> + '_ {
        let dim = self.dim;
        self.rows
            .chunks_exact(self.width)
            .map(move |row| (&row[..dim], row[dim]))
    }

    /// The `min` and `max` corners of each entry's rectangle, which
    /// starts `at` lanes into its region (`put_rect`).
    pub fn rects(&self, at: usize) -> impl Iterator<Item = (&[f32], &[f32])> + '_ {
        let dim = self.dim;
        self.rows
            .chunks_exact(self.width)
            .map(move |row| row[at..at + 2 * dim].split_at(dim))
    }
}

/// The `Corrupt` error of page `id`.
fn page_fault(id: PageId, what: impl fmt::Display) -> IndexError {
    IndexError::Corrupt(format!("page {id}: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_geometry::Rect;

    fn params() -> Params<Rect> {
        Params::derive(8187, 4, 512)
    }

    #[test]
    fn leaf_roundtrip() {
        let p = params();
        let node: Node<Rect> = Node::Leaf(vec![
            LeafEntry {
                point: Point::new(vec![1.0, 2.0, 3.0, 4.0]),
                data: 42,
            },
            LeafEntry {
                point: Point::new(vec![-1.0, 0.5, 0.0, 9.0]),
                data: u64::MAX,
            },
        ]);
        let back = Node::decode(1, 0, &node.encode(&p, 8187).unwrap(), &p).unwrap();
        let Node::Leaf(entries) = back else {
            panic!("expected leaf")
        };
        assert_eq!(entries[0].point.coords(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((entries[0].data, entries[1].data), (42, u64::MAX));
    }

    #[test]
    fn inner_roundtrip() {
        let p = params();
        let rect = Rect::new(vec![0.0, 0.0, 0.0, 0.0], vec![1.0, 2.0, 3.0, 4.0]);
        let node = Node::Inner {
            level: 3,
            entries: vec![Entry {
                region: rect.clone(),
                child: 77,
            }],
        };
        let back = Node::decode(1, 3, &node.encode(&p, 8187).unwrap(), &p).unwrap();
        assert_eq!(back.level(), 3);
        let Node::Inner { entries, .. } = back else {
            panic!("expected inner")
        };
        assert_eq!((entries[0].child, &entries[0].region), (77, &rect));
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let p = params();
        let back = Node::decode(
            1,
            0,
            &Node::<Rect>::Leaf(vec![]).encode(&p, 8187).unwrap(),
            &p,
        );
        assert!(back.unwrap().is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        let p = params();
        let corrupt = |level, payload: &[u8]| match Node::decode(7, level, payload, &p) {
            Err(IndexError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        assert!(corrupt(0, &[1]).starts_with("page 7: page codec overrun"));
        assert!(corrupt(1, &[1]).starts_with("page 7: page codec overrun"));
        // claims 100 entries but has no bytes
        assert_eq!(
            corrupt(0, &[0, 0, 100, 0]),
            "page 7: leaf claims 100 entries of 544 bytes but 0 bytes follow the header"
        );
        assert_eq!(
            corrupt(1, &[1, 0, 100, 0]),
            "page 7: inner node claims 100 entries of 72 bytes but 0 bytes follow the header"
        );
        // The level is checked before the count, on both kinds.
        assert_eq!(
            corrupt(0, &[1, 0, 100, 0]),
            "page 7: stored level 1 but expected 0"
        );
        assert_eq!(
            corrupt(2, &[0, 0, 100, 0]),
            "page 7: stored level 0 but expected 2"
        );
    }
}
