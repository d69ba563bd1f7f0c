//! The tree registry: the one place that names the five index
//! structures.
//!
//! The paper runs its five trees through identical workloads (§5), and
//! everything after construction already goes through
//! [`SpatialIndex`]. [`TreeKind`] covers the remaining per-tree step —
//! creating, bulk-building and reopening — so the CLI, the differential
//! executor, the crash harness, the benchmark harness and the
//! integration suites hold a `Box<dyn SpatialIndex>` and never match on
//! a tree type themselves.

use sr_geometry::Point;
use sr_pager::PageFile;
use sr_query::paged::{stored_magic, Kind};
use sr_query::{IndexError, SpatialIndex};

use crate::tree::kdbtree::{KdbPolicy, KdbTree};
use crate::tree::rstar::{RstarPolicy, RstarTree};
use crate::tree::sr::{SrPolicy, SrTree};
use crate::tree::sstree::{SsPolicy, SsTree};
use crate::tree::vamsplit::{VamPolicy, VamTree};
use crate::tree::TreePolicy;

/// One of the five index structures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeKind {
    /// The paper's SR-tree.
    Sr,
    /// The SS-tree baseline.
    Ss,
    /// The R*-tree baseline.
    Rstar,
    /// The K-D-B-tree baseline.
    Kdb,
    /// The static, bulk-built VAMSplit R-tree baseline.
    Vam,
}

impl TreeKind {
    /// The four dynamic structures. The order is part of the `SEED=`
    /// replay contract: the crash-and-recover fuzz arm picks
    /// `DYNAMIC[seed % 4]`.
    pub const DYNAMIC: [TreeKind; 4] = [TreeKind::Sr, TreeKind::Ss, TreeKind::Rstar, TreeKind::Kdb];

    /// All five structures: the dynamic four, then the VAMSplit R-tree.
    pub const ALL: [TreeKind; 5] = [
        TreeKind::Sr,
        TreeKind::Ss,
        TreeKind::Rstar,
        TreeKind::Kdb,
        TreeKind::Vam,
    ];

    /// Parse a command-line name: `sr`, `ss`, `rstar` (or `r*`), `kdb`,
    /// `vam`.
    pub fn parse(s: &str) -> Option<TreeKind> {
        match s {
            "sr" => Some(TreeKind::Sr),
            "ss" => Some(TreeKind::Ss),
            "rstar" | "r*" => Some(TreeKind::Rstar),
            "kdb" => Some(TreeKind::Kdb),
            "vam" => Some(TreeKind::Vam),
            _ => None,
        }
    }

    /// The identity the structure writes into its page file's metadata.
    fn kind(self) -> Kind {
        match self {
            TreeKind::Sr => SrPolicy::KIND,
            TreeKind::Ss => SsPolicy::KIND,
            TreeKind::Rstar => RstarPolicy::KIND,
            TreeKind::Kdb => KdbPolicy::KIND,
            TreeKind::Vam => VamPolicy::KIND,
        }
    }

    /// The structure's name, equal to [`SpatialIndex::kind_name`] of the
    /// trees it creates (e.g. `"SR-tree"`).
    pub fn kind_name(self) -> &'static str {
        self.kind().name
    }

    /// Create an empty tree over an empty page file. The VAMSplit
    /// R-tree is bulk-built only, so it is [`IndexError::Unsupported`]
    /// here; use [`TreeKind::build`].
    pub fn create(
        self,
        pf: PageFile,
        dim: usize,
        data_area: usize,
    ) -> Result<Box<dyn SpatialIndex>, IndexError> {
        Ok(match self {
            TreeKind::Sr => Box::new(SrTree::create_from(pf, dim, data_area)?),
            TreeKind::Ss => Box::new(SsTree::create_from(pf, dim, data_area)?),
            TreeKind::Rstar => Box::new(RstarTree::create_from(pf, dim, data_area)?),
            TreeKind::Kdb => Box::new(KdbTree::create_from(pf, dim, data_area)?),
            TreeKind::Vam => {
                return Err(IndexError::Unsupported(
                    "the VAMSplit R-tree is bulk-built only",
                ))
            }
        })
    }

    /// Build a tree over `points` on an empty page file: the VAMSplit
    /// R-tree bulk-builds, the four dynamic trees insert point by point
    /// in the given order. Nothing is flushed.
    pub fn build(
        self,
        pf: PageFile,
        dim: usize,
        data_area: usize,
        points: Vec<(Point, u64)>,
    ) -> Result<Box<dyn SpatialIndex>, IndexError> {
        if self == TreeKind::Vam {
            return Ok(Box::new(VamTree::build_from(pf, points, dim, data_area)?));
        }
        let mut index = self.create(pf, dim, data_area)?;
        for (p, id) in &points {
            index.insert(p.coords(), *id)?;
        }
        Ok(index)
    }

    /// The structure whose metadata `pf` holds, if any.
    fn stored_in(pf: &PageFile) -> Option<TreeKind> {
        let magic = stored_magic(pf)?;
        TreeKind::ALL.into_iter().find(|k| k.kind().magic == magic)
    }

    /// Reopen whichever tree `pf` holds, reading its metadata magic once.
    /// A page file with no tree metadata of a known kind is
    /// [`IndexError::NotThisIndex`].
    pub fn open(pf: PageFile) -> Result<Box<dyn SpatialIndex>, IndexError> {
        TreeKind::stored_in(&pf)
            .ok_or_else(|| IndexError::NotThisIndex("no known tree metadata".into()))?
            .open_as(pf)
    }

    /// Reopen `pf` as this structure, whatever its metadata says: a file
    /// of another kind is [`IndexError::NotThisIndex`].
    fn open_as(self, pf: PageFile) -> Result<Box<dyn SpatialIndex>, IndexError> {
        Ok(match self {
            TreeKind::Sr => Box::new(SrTree::open_from(pf)?),
            TreeKind::Ss => Box::new(SsTree::open_from(pf)?),
            TreeKind::Rstar => Box::new(RstarTree::open_from(pf)?),
            TreeKind::Kdb => Box::new(KdbTree::open_from(pf)?),
            TreeKind::Vam => Box::new(VamTree::open_from(pf)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_pager::{MemLogStore, MemPageStore};
    use sr_query::paged::DEFAULT_DATA_AREA;

    #[test]
    fn parse_accepts_every_cli_name() {
        for (name, kind) in [
            ("sr", TreeKind::Sr),
            ("ss", TreeKind::Ss),
            ("rstar", TreeKind::Rstar),
            ("r*", TreeKind::Rstar),
            ("kdb", TreeKind::Kdb),
            ("vam", TreeKind::Vam),
        ] {
            assert_eq!(TreeKind::parse(name), Some(kind));
        }
        assert_eq!(TreeKind::parse("btree"), None);
    }

    #[test]
    fn magics_are_distinct() {
        for a in TreeKind::ALL {
            for b in TreeKind::ALL {
                assert_eq!(a == b, a.kind().magic == b.kind().magic, "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn vam_cannot_be_created_empty() {
        let pf = PageFile::create_in_memory(4096).expect("in-memory pager");
        assert!(matches!(
            TreeKind::Vam.create(pf, 2, 64),
            Err(IndexError::Unsupported(_))
        ));
    }

    /// Build each kind at a real path, drop it, and reopen it through
    /// the registry: the same structure, shape and k-NN answers come back.
    #[test]
    fn build_drop_open_roundtrips_at_temp_paths() {
        let dir = std::env::temp_dir().join(format!("sr-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let points = sr_dataset::uniform(400, 4, 0x5EED);
        let queries = sr_dataset::sample_queries(&points, 8, 0xF00D);
        let with_ids: Vec<(Point, u64)> = points.into_iter().zip(0u64..).collect();
        for kind in TreeKind::ALL {
            let path = dir.join(format!("{kind:?}.pages"));
            let pf = PageFile::create(&path).expect("create page file");
            let built = kind
                .build(pf, 4, DEFAULT_DATA_AREA, with_ids.clone())
                .expect("build");
            built.flush().expect("flush");
            let before = (built.kind_name(), built.dim(), built.len());
            let answers: Vec<_> = (queries.iter())
                .map(|q| built.knn(q.coords(), 7).expect("knn"))
                .collect();
            drop(built);

            let pf = PageFile::open(&path).expect("reopen page file");
            assert_eq!(TreeKind::stored_in(&pf), Some(kind));
            let opened = TreeKind::open(pf).expect("open");
            assert_eq!((opened.kind_name(), opened.dim(), opened.len()), before);
            assert_eq!(opened.kind_name(), kind.kind_name());
            for (q, want) in queries.iter().zip(&answers) {
                assert_eq!(&opened.knn(q.coords(), 7).expect("knn"), want, "{kind:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The cross-kind open matrix. Build each kind, drop it, and reopen
    /// its bytes as every kind: its own kind comes back with the same
    /// shape and k-NN answers (as does the magic dispatch of
    /// [`TreeKind::open`]), and every other kind refuses the file. The
    /// R*- and VAMSplit R-trees share `Rect` pages, so only the magic
    /// tells their files apart. A last row has all-zero metadata, which
    /// no kind accepts.
    #[test]
    fn every_kind_reopens_as_itself_and_no_other() {
        let points = sr_dataset::uniform(400, 4, 0x5EED);
        let queries = sr_dataset::sample_queries(&points, 8, 0xF00D);
        let with_ids: Vec<(Point, u64)> = points.into_iter().zip(0u64..).collect();
        let seen = |t: &dyn SpatialIndex| {
            let answers: Vec<_> = (queries.iter())
                .map(|q| t.knn(q.coords(), 7).expect("knn"))
                .collect();
            (t.kind_name(), t.dim(), t.len(), t.height(), answers)
        };
        for built in TreeKind::ALL {
            let (store, log) = (MemPageStore::new(8192), MemLogStore::new());
            let reopen = || {
                let (store, log) = (Box::new(store.clone()), Box::new(log.clone()));
                PageFile::open_from_parts(store, log).expect("reopen page file")
            };
            let pf = PageFile::create_from_parts(Box::new(store.clone()), Box::new(log.clone()))
                .expect("create page file");
            let tree = built
                .build(pf, 4, DEFAULT_DATA_AREA, with_ids.clone())
                .expect("build");
            tree.flush().expect("flush");
            let want = seen(tree.as_ref());
            assert_eq!(want.0, built.kind_name());
            drop(tree);

            let pf = reopen();
            assert_eq!(TreeKind::stored_in(&pf), Some(built));
            assert_eq!(seen(TreeKind::open(pf).expect("open").as_ref()), want);
            for kind in TreeKind::ALL {
                match kind.open_as(reopen()) {
                    Ok(tree) if kind == built => assert_eq!(seen(tree.as_ref()), want),
                    Err(IndexError::NotThisIndex(_)) if kind != built => {}
                    other => panic!("{built:?} file opened as {kind:?}: {:?}", other.err()),
                }
            }
        }
        for kind in TreeKind::ALL {
            let pf = PageFile::create_in_memory(4096).expect("in-memory pager");
            pf.set_user_meta(&[0u8; 40]).expect("metadata");
            assert!(
                matches!(kind.open_as(pf), Err(IndexError::NotThisIndex(_))),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn open_refuses_a_page_file_without_tree_metadata() {
        let pf = PageFile::create_in_memory(4096).expect("in-memory pager");
        assert_eq!(TreeKind::stored_in(&pf), None);
        assert!(matches!(
            TreeKind::open(pf),
            Err(IndexError::NotThisIndex(_))
        ));
    }
}
