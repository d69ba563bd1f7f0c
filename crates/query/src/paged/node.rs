//! The in-memory node and its page codec, shared by every tree.
//!
//! Every node page starts with a `(level, n)` header. Leaves continue in
//! the columnar (dimension-major) layout of [`sr_pager::LeafColumns`];
//! inner nodes with `n` entries of region bytes plus a child page id.
//! [`Layout::parse`] is the one reader of that header.

use std::fmt;

use sr_geometry::Point;
use sr_pager::{
    put_leaf_columns, LeafColumns, PageCodec, PageId, PageKind, PageReader, PagerError,
};

use super::params::Params;
use super::region::Region;
use super::Result;
use crate::IndexError;

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
pub(super) fn in_page(id: PageId, e: IndexError) -> IndexError {
    match e {
        IndexError::Corrupt(msg) => page_fault(id, msg),
        e => e,
    }
}

/// The error of a leaf holding a NaN or infinite coordinate.
pub(super) fn non_finite_leaf() -> IndexError {
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
///    follow the header`).
///
/// A payload too short for its header fails at the field it cuts. Every
/// error is [`IndexError::Corrupt`] starting `page N:`; entry bytes are
/// the reader's to check, and a reader that rejects them names the page
/// the same way ([`in_page`]).
pub(super) enum Layout<'a> {
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
    pub(super) fn parse<R: Region>(
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
