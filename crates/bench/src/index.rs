//! A uniform wrapper over the five index structures so experiments can
//! iterate over them. Construction goes through the tree registry
//! ([`sr_tree::TreeKind`]) and everything after it through `sr-query`'s
//! [`SpatialIndex`] trait; only the few experiments that need
//! structure-specific accessors like `leaf_regions` name a concrete tree
//! type, built by [`build_tree`].

use sr_geometry::Point;
use sr_pager::{IoStats, PageFile};
use sr_query::{Neighbor, SpatialIndex};
use sr_tree::{Incremental, SrTree, Tree};

/// Which structure to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeKind {
    /// K-D-B-tree (Robinson 1981).
    Kdb,
    /// R\*-tree (Beckmann et al. 1990).
    Rstar,
    /// SS-tree (White & Jain 1996).
    Ss,
    /// VAMSplit R-tree (White & Jain 1996), static.
    Vam,
    /// SR-tree (Katayama & Satoh 1997) — the paper's contribution.
    Sr,
}

impl TreeKind {
    /// Label used in tables (matching the paper's naming).
    pub fn label(self) -> &'static str {
        match self {
            TreeKind::Kdb => "K-D-B-tree",
            TreeKind::Rstar => "R*-tree",
            TreeKind::Ss => "SS-tree",
            TreeKind::Vam => "VAMSplit R-tree",
            TreeKind::Sr => "SR-tree",
        }
    }

    /// The registry's row for this structure.
    fn registry(self) -> sr_tree::TreeKind {
        match self {
            TreeKind::Kdb => sr_tree::TreeKind::Kdb,
            TreeKind::Rstar => sr_tree::TreeKind::Rstar,
            TreeKind::Ss => sr_tree::TreeKind::Ss,
            TreeKind::Vam => sr_tree::TreeKind::Vam,
            TreeKind::Sr => sr_tree::TreeKind::Sr,
        }
    }

    /// The dynamic structures (everything but the VAMSplit R-tree).
    pub const DYNAMIC: &'static [TreeKind] =
        &[TreeKind::Kdb, TreeKind::Rstar, TreeKind::Ss, TreeKind::Sr];

    /// All five structures.
    pub const ALL: &'static [TreeKind] = &[
        TreeKind::Kdb,
        TreeKind::Rstar,
        TreeKind::Ss,
        TreeKind::Vam,
        TreeKind::Sr,
    ];
}

/// One of the five index structures behind [`SpatialIndex`].
pub struct AnyIndex {
    kind: TreeKind,
    index: Box<dyn SpatialIndex>,
}

/// The paper's page size.
pub const PAGE_SIZE: usize = 8192;
/// The paper's per-leaf-entry data area.
pub const DATA_AREA: usize = sr_tree::paged::DEFAULT_DATA_AREA;

fn paper_pagefile() -> PageFile {
    PageFile::create_in_memory(PAGE_SIZE).expect("in-memory page file")
}

/// Build a tree over `points` with the paper's layout, inserting them
/// one at a time with their indices as payloads (for experiments that
/// need a structure's own accessors, such as
/// [`sr_tree::sstree::SsTree::leaf_regions`]).
pub fn build_tree<P: Incremental>(points: &[Point]) -> Tree<P> {
    let mut t = Tree::<P>::create_from(paper_pagefile(), points[0].dim(), DATA_AREA).unwrap();
    for (i, p) in points.iter().enumerate() {
        t.insert(p.clone(), i as u64).unwrap();
    }
    t
}

impl AnyIndex {
    /// Build an index of `kind` over `points` (in-memory page file, the
    /// paper's page layout) through the tree registry: dynamic trees
    /// insert one point at a time, the VAMSplit R-tree bulk-builds.
    /// Payloads are the points' indices.
    ///
    /// # Panics
    /// Panics on I/O errors (in-memory page files cannot fail) and on
    /// K-D-B overflows of coincident points (the paper's data sets are
    /// continuous).
    pub fn build(kind: TreeKind, points: &[Point]) -> AnyIndex {
        let with_ids = points.iter().cloned().zip(0u64..).collect();
        let index = (kind.registry())
            .build(paper_pagefile(), points[0].dim(), DATA_AREA, with_ids)
            .unwrap();
        AnyIndex { kind, index }
    }

    /// Wrap an already-built SR-tree (e.g. from `bulk_load`).
    pub fn from_sr(tree: SrTree) -> AnyIndex {
        AnyIndex {
            kind: TreeKind::Sr,
            index: Box::new(tree),
        }
    }

    /// Which structure this is.
    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// k-nearest-neighbor query, depth-first (see [`AnyIndex::knn_with`]).
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.knn_with(query, k, &sr_obs::Noop)
    }

    /// [`AnyIndex::knn`] with a metrics recorder (see `sr-obs`).
    ///
    /// The harness asks for the paper's depth-first order (§4.4), so its
    /// figures count the reads the paper counts; served queries run
    /// best-first and read fewer.
    pub fn knn_with(&self, query: &[f32], k: usize, rec: &dyn sr_obs::Recorder) -> Vec<Neighbor> {
        self.index
            .query(&sr_query::QuerySpec::knn(query, k).depth_first(), rec)
            .unwrap()
            .rows
    }

    /// Range query.
    pub fn range(&self, query: &[f32], radius: f64) -> Vec<Neighbor> {
        self.index.range(query, radius).unwrap()
    }

    /// The underlying page file.
    pub fn pager(&self) -> &PageFile {
        self.index.pager()
    }

    /// Tree height in levels.
    pub fn height(&self) -> u32 {
        self.index.height()
    }

    /// Number of leaf pages.
    pub fn num_leaves(&self) -> u64 {
        self.index.num_leaves().unwrap()
    }

    /// Disable the buffer pool (cold-cache query accounting) and zero the
    /// I/O counters.
    pub fn reset_for_queries(&self) {
        self.reset_for_queries_at(0);
    }

    /// Set the buffer pool to `pages` pages and zero the I/O counters.
    pub fn reset_for_queries_at(&self, pages: usize) {
        self.pager().set_cache_capacity(pages).unwrap();
        self.pager().reset_stats();
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStats {
        self.pager().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_dataset::uniform;

    #[test]
    fn all_kinds_build_and_agree_on_knn() {
        let pts = uniform(300, 8, 3);
        let q = pts[5].coords();
        let mut answers: Vec<Vec<u64>> = Vec::new();
        for &kind in TreeKind::ALL {
            let idx = AnyIndex::build(kind, &pts);
            assert_eq!(idx.kind(), kind);
            let hits = idx.knn(q, 7);
            assert_eq!(hits.len(), 7, "{}", kind.label());
            answers.push(hits.iter().map(|n| n.data).collect());
        }
        // Identical point set, identical ties-broken ordering → identical
        // id lists across all five structures.
        for w in answers.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn labels_are_the_registry_names() {
        for &kind in TreeKind::ALL {
            assert_eq!(kind.label(), kind.registry().kind_name());
        }
    }

    #[test]
    fn reset_for_queries_gives_cold_cache_counts() {
        let pts = uniform(500, 8, 5);
        let idx = AnyIndex::build(TreeKind::Sr, &pts);
        idx.reset_for_queries();
        idx.knn(pts[0].coords(), 21);
        let s = idx.stats();
        assert!(s.tree_reads() > 0);
        assert_eq!(s.tree_reads(), s.physical_reads());
    }
}
