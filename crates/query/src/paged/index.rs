//! [`PagedTree`]: what a tree type hands the core, and the one
//! [`SpatialIndex`] implementation all five trees share.

use sr_geometry::Point;
use sr_obs::Recorder;
use sr_pager::{PageFile, PageId};

use super::node::Node;
use super::region::Region;
use super::tree::Paged;
use super::verify::verify;
use super::Result;
use crate::{IndexError, QueryOutput, QuerySpec, SpatialIndex};

/// A tree built on the [`Paged`] core. Implementing it yields the
/// [`SpatialIndex`] implementation; the tree type keeps only its own
/// policies.
pub trait PagedTree: Send + Sync {
    /// The region its inner entries store.
    type Region: Region;

    /// The shared core.
    fn core(&self) -> &Paged<Self::Region>;

    /// The structure's own invariants for the node at page `id`, given
    /// the region its parent records for it (`None` at the root). The
    /// shared walker (`paged::verify`) has already checked the node's
    /// level; it checks point containment and counts afterwards.
    fn check_node(
        &self,
        id: PageId,
        node: &Node<Self::Region>,
        stored: Option<&Self::Region>,
    ) -> Result<()>;

    /// Insert one point, or refuse with [`IndexError::Unsupported`] if
    /// the structure is only bulk-built.
    fn insert_point(&mut self, point: Point, data: u64) -> Result<()>;

    /// Remove one exact entry, reporting whether it was present, or
    /// refuse with [`IndexError::Unsupported`] if the structure has no
    /// delete path.
    fn delete_point(&mut self, point: &Point, data: u64) -> Result<bool>;
}

/// Turn an API-level point into a [`Point`], refusing the empty slice
/// (which no tree can hold) as a dimension mismatch.
fn to_point<T: PagedTree>(tree: &T, point: &[f32]) -> Result<Point> {
    Point::try_new(point).map_err(|_| IndexError::DimensionMismatch {
        expected: tree.core().dim(),
        got: point.len(),
    })
}

impl<T: PagedTree> SpatialIndex for T {
    fn kind_name(&self) -> &'static str {
        self.core().kind().name
    }

    fn dim(&self) -> usize {
        self.core().dim()
    }

    fn len(&self) -> u64 {
        self.core().len()
    }

    fn height(&self) -> u32 {
        self.core().height()
    }

    fn num_leaves(&self) -> Result<u64> {
        self.core().num_leaves()
    }

    fn insert(&mut self, point: &[f32], data: u64) -> Result<()> {
        let point = to_point(self, point)?;
        self.insert_point(point, data)
    }

    fn delete(&mut self, point: &[f32], data: u64) -> Result<bool> {
        let point = to_point(self, point)?;
        self.delete_point(&point, data)
    }

    fn query(&self, spec: &QuerySpec<'_>, rec: &dyn Recorder) -> Result<QueryOutput> {
        self.core().search(spec, Default::default(), rec)
    }

    fn pager(&self) -> &PageFile {
        self.core().pager()
    }

    fn flush(&self) -> Result<()> {
        self.core().flush()
    }

    fn verify(&self) -> Result<String> {
        verify(self).map(|report| report.to_string())
    }
}
