//! Columnar (structure-of-arrays) distance kernels.
//!
//! Leaf pages store coordinates **dimension-major**: every entry's
//! dimension-0 value first, then every entry's dimension-1 value, and so
//! on — each value an `f64` in little-endian byte order, exactly the
//! widened form the page codec's `put_coords` writes. The kernels here
//! score a query against such a block straight from the page buffer,
//! without materialising a per-entry `Point`, and with inner loops that
//! run over fixed-width `[u8; 8]` lanes so rustc can autovectorize them.
//!
//! # Accumulation-order contract
//!
//! [`dist2`](crate::dist2) is the canonical distance: a single `f64`
//! accumulator updated once per dimension, in ascending dimension order.
//! The columnar kernels vectorize **across points, not across
//! dimensions** — the outer loop walks dimensions in ascending order and
//! updates every point's private accumulator once per iteration — so each
//! point's sum is evaluated in exactly the canonical order and the result
//! is bit-identical to the scalar path and to the brute-force oracle.
//! Reassociating the per-point sum (chunking dimensions into partial
//! sums) would drift near-tied neighbor sets; see the kernel-equivalence
//! suite in `tests/kernel_equivalence.rs`.
//!
//! The contract extends to the region bounds of inner-node entries,
//! which are stored **row-major** (one entry's region, then the next).
//! The one-entry kernels ([`sphere_rect_min_dist2_f64le`] and friends)
//! give each bound one accumulator in ascending dimension order; the
//! multi-entry kernels ([`sphere_rect_min_dist2_rows_f64le`],
//! [`sphere_min_dist2_rows_f64le`], [`rect_min_dist2_rows_f64le`]) run
//! **across entries**, four in lockstep, each entry keeping its own
//! accumulators in that same order, so every bound is bit-identical to
//! the one-entry kernel's.
//!
//! # Early abandon
//!
//! [`dist2_columnar_early_abandon`] stops scoring a point once its
//! partial sum **strictly exceeds** the caller's threshold (the running
//! k-th candidate distance, or a range query's squared radius). Strict
//! comparison matters: the candidate set breaks distance ties toward the
//! smaller data id, so a point that exactly ties the k-th distance must
//! still be scored to completion. Partial sums of squares are
//! monotonically non-decreasing in `f64` (each term is non-negative and
//! rounding is monotone), so a strict overshoot at any prefix proves the
//! full distance also exceeds the threshold. No comparison against
//! `+inf` ever abandons, and a NaN partial compares false, so a NaN that
//! reaches the accumulator completes to the same NaN total as the scalar
//! path. (A NaN in a dimension the scan never reaches — because a finite
//! prefix already overshot — can still be abandoned; the trees refuse
//! non-finite coordinates on insert, so that case only arises from page
//! corruption.)

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::error::GeometryError;
use crate::rect::min_dist_term;
use crate::sphere::surface_dist2;

/// Leading dimensions scored columnar for every point before the first
/// early-abandon check; past this prefix, survivors are finished one
/// point at a time with a check before every further dimension.
pub const EARLY_ABANDON_HEAD_DIMS: usize = 8;

/// Iterate a row-major f64-LE slice as `f64` values, bounds-check-free.
#[inline]
fn f64le_lanes(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    let (lanes, _tail) = bytes.as_chunks::<8>();
    lanes.iter().map(|l| f64::from_le_bytes(*l))
}

/// Validate that `bytes` holds exactly `dim` f64-LE values.
#[inline]
fn check_row(bytes: &[u8], dim: usize) -> Result<(), GeometryError> {
    let expected = dim.checked_mul(8).ok_or(GeometryError::Layout {
        expected: usize::MAX,
        actual: bytes.len(),
    })?;
    if bytes.len() != expected {
        return Err(GeometryError::Layout {
            expected,
            actual: bytes.len(),
        });
    }
    Ok(())
}

/// Squared Euclidean distance from `query` to one row-major f64-LE point
/// (an inner-node entry's sphere center as the node codec stores it),
/// bit-identical to [`dist2`](crate::dist2) of the narrowed coordinates.
///
/// Every stored `f64` is the exact widening of an in-memory `f32`, so
/// subtracting the raw value equals widening the decoded `f32` — this is
/// what lets the query path skip materialising entries entirely.
// srlint: hot
pub fn dist2_f64le(point: &[u8], query: &[f32]) -> Result<f64, GeometryError> {
    check_row(point, query.len())?;
    let mut acc = 0.0f64;
    for (c, q) in f64le_lanes(point).zip(query.iter()) {
        let d = c - f64::from(*q);
        acc += d * d;
    }
    Ok(acc)
}

/// `d_s²`: squared distance from `query` to the surface of a bounding
/// sphere stored raw (`center` as row-major f64-LE, `radius` as the
/// stored f64), zero inside, less the rounding allowance that keeps it a
/// lower bound — bit-identical to
/// [`Sphere::min_dist2`](crate::Sphere::min_dist2) of the decoded sphere.
// srlint: hot
pub fn sphere_min_dist2_f64le(
    center: &[u8],
    radius: f64,
    query: &[f32],
) -> Result<f64, GeometryError> {
    Ok(surface_dist2(dist2_f64le(center, query)?, radius))
}

/// `MINDIST²`: squared distance from `query` to a bounding rectangle
/// stored raw (`lo`/`hi` as row-major f64-LE) — bit-identical to
/// [`Rect::min_dist2`](crate::Rect::min_dist2) of the decoded rectangle.
///
/// Both forms widen each bound to `f64` and compute the same
/// branch-free per-axis term, `(lo − x).max(0) + (x − hi).max(0)`;
/// widening is exact, so the stored `f64` image is the same operand.
// srlint: hot
pub fn rect_min_dist2_f64le(lo: &[u8], hi: &[u8], query: &[f32]) -> Result<f64, GeometryError> {
    check_row(lo, query.len())?;
    check_row(hi, query.len())?;
    let mut acc = 0.0f64;
    for ((l, h), x) in f64le_lanes(lo).zip(f64le_lanes(hi)).zip(query.iter()) {
        let d = min_dist_term(l, h, f64::from(*x));
        acc += d * d;
    }
    Ok(acc)
}

/// The SR-tree's two region bounds in one pass over the dimensions:
/// `(d_s², MINDIST²)` of a sphere and a rectangle stored raw, as
/// [`sphere_min_dist2_f64le`] and [`rect_min_dist2_f64le`] lay them out.
///
/// Each bound keeps its own accumulator, summed in ascending dimension
/// order, so each half is bit-identical to its single-shape kernel; one
/// loop instead of two reads the query once and overlaps the two
/// dependency chains.
// srlint: hot
pub fn sphere_rect_min_dist2_f64le(
    center: &[u8],
    radius: f64,
    lo: &[u8],
    hi: &[u8],
    query: &[f32],
) -> Result<(f64, f64), GeometryError> {
    check_row(center, query.len())?;
    check_row(lo, query.len())?;
    check_row(hi, query.len())?;
    let (mut center2, mut rect2) = (0.0f64, 0.0f64);
    let bounds = f64le_lanes(lo).zip(f64le_lanes(hi));
    for ((c, (l, h)), x) in f64le_lanes(center).zip(bounds).zip(query.iter()) {
        let x = f64::from(*x);
        let dc = c - x;
        center2 += dc * dc;
        let d = min_dist_term(l, h, x);
        rect2 += d * d;
    }
    Ok((surface_dist2(center2, radius), rect2))
}

/// Inner entries the multi-entry bound kernels score per pass. Four
/// independent accumulator chains hide the add latency that serializes
/// one entry's sum; eight measured slower.
const LOCKSTEP: usize = 4;

/// One stored f64-LE value.
type Lane = [u8; 8];

/// `n` rows of `lanes` f64-LE lanes, `stride` bytes apart: the region
/// lanes of `n` row-major inner entries. Only the bytes the regions
/// cover must exist, so the last row may end where its region does.
struct Rows<'a> {
    bytes: &'a [u8],
    stride: usize,
    n: usize,
    lanes: usize,
}

impl<'a> Rows<'a> {
    fn new(bytes: &'a [u8], stride: usize, n: usize, lanes: usize) -> Result<Self, GeometryError> {
        let overflow = GeometryError::Layout {
            expected: usize::MAX,
            actual: bytes.len(),
        };
        let width = lanes.checked_mul(8).ok_or(overflow)?;
        let expected = match n.checked_sub(1) {
            None => 0,
            Some(last) => last
                .checked_mul(stride)
                .and_then(|v| v.checked_add(width))
                .ok_or(overflow)?,
        };
        if stride < width || bytes.len() < expected {
            return Err(GeometryError::Layout {
                expected,
                actual: bytes.len(),
            });
        }
        Ok(Rows {
            bytes,
            stride,
            n,
            lanes,
        })
    }

    /// The lanes of row `i < n`.
    fn row(&self, i: usize) -> Result<&'a [Lane], GeometryError> {
        let lanes = self
            .bytes
            .get(i * self.stride..)
            .map(|r| r.as_chunks::<8>().0);
        lanes
            .and_then(|l| l.get(..self.lanes))
            .ok_or(GeometryError::Layout {
                expected: i * self.stride + self.lanes * 8,
                actual: self.bytes.len(),
            })
    }

    /// Rows `i .. i + LOCKSTEP`, the last row repeated past the end: a
    /// short group runs the same lockstep, and [`Rows::live`] drops the
    /// repeats' results.
    fn group(&self, i: usize) -> Result<[&'a [Lane]; LOCKSTEP], GeometryError> {
        let row = |j: usize| self.row((i + j).min(self.n.saturating_sub(1)));
        Ok([row(0)?, row(1)?, row(2)?, row(3)?])
    }

    /// How many entries of the group at `i` are real.
    fn live(&self, i: usize) -> usize {
        self.n.saturating_sub(i).min(LOCKSTEP)
    }
}

/// Lanes `at .. at + len` of each row of `group`.
fn fields<'a>(
    group: &[&'a [Lane]; LOCKSTEP],
    at: usize,
    len: usize,
) -> Result<[&'a [Lane]; LOCKSTEP], GeometryError> {
    let field = |row: &'a [Lane]| {
        row.get(at..at + len).ok_or(GeometryError::Layout {
            expected: (at + len) * 8,
            actual: row.len() * 8,
        })
    };
    let [a, b, c, d] = *group;
    Ok([field(a)?, field(b)?, field(c)?, field(d)?])
}

/// Four fields in lockstep: item `d` holds each field's `d`-th value.
/// Zipped slice iterators index without bounds checks.
#[inline]
fn lockstep<'a>(
    [a, b, c, d]: [&'a [Lane]; LOCKSTEP],
) -> impl Iterator<Item = [f64; LOCKSTEP]> + 'a {
    let lane = |l: &Lane| f64::from_le_bytes(*l);
    (a.iter().zip(b).zip(c).zip(d))
        .map(move |(((a, b), c), d)| [lane(a), lane(b), lane(c), lane(d)])
}

/// Each entry's squared distance from `query` to its center lanes, in
/// ascending dimension order, as [`dist2_f64le`] sums it.
#[inline]
fn center_dist2(centers: [&[Lane]; LOCKSTEP], query: &[f32]) -> [f64; LOCKSTEP] {
    let mut acc = [0.0f64; LOCKSTEP];
    for (x, c) in query.iter().zip(lockstep(centers)) {
        let x = f64::from(*x);
        for (acc, c) in acc.iter_mut().zip(c) {
            let d = c - x;
            *acc += d * d;
        }
    }
    acc
}

/// Each entry's `MINDIST²` from `query` to its `lo`/`hi` lanes, in
/// ascending dimension order, as [`rect_min_dist2_f64le`] sums it.
#[inline]
fn rect_dist2(lo: [&[Lane]; LOCKSTEP], hi: [&[Lane]; LOCKSTEP], query: &[f32]) -> [f64; LOCKSTEP] {
    let mut acc = [0.0f64; LOCKSTEP];
    for (x, (l, h)) in query.iter().zip(lockstep(lo).zip(lockstep(hi))) {
        let x = f64::from(*x);
        for (acc, (l, h)) in acc.iter_mut().zip(l.into_iter().zip(h)) {
            let d = min_dist_term(l, h, x);
            *acc += d * d;
        }
    }
    acc
}

/// [`sphere_rect_min_dist2_f64le`] of `n` row-major inner entries, four
/// per pass. Row `i` starts `i · stride` bytes into `rows` with the
/// sphere's center and radius, then the rectangle's `lo` and `hi` — the
/// page codec's order. `each` receives `(d_s², MINDIST²)` per entry, in
/// entry order.
///
/// Each entry keeps its own two accumulators, summed in ascending
/// dimension order, so every bound is bit-identical to the one-entry
/// kernel's; one loop over the dimensions advances all eight chains.
// srlint: hot
pub fn sphere_rect_min_dist2_rows_f64le(
    rows: &[u8],
    stride: usize,
    n: usize,
    query: &[f32],
    mut each: impl FnMut(f64, f64),
) -> Result<(), GeometryError> {
    let dim = query.len();
    let rows = Rows::new(rows, stride, n, 3 * dim + 1)?;
    for i in (0..n).step_by(LOCKSTEP) {
        let group = rows.group(i)?;
        let (centers, lo, hi) = (
            fields(&group, 0, dim)?,
            fields(&group, dim + 1, dim)?,
            fields(&group, 2 * dim + 1, dim)?,
        );
        let (mut center2, mut rect2) = ([0.0f64; LOCKSTEP], [0.0f64; LOCKSTEP]);
        let bounds = lockstep(lo).zip(lockstep(hi));
        for ((x, c), (l, h)) in query.iter().zip(lockstep(centers)).zip(bounds) {
            let x = f64::from(*x);
            let accs = center2.iter_mut().zip(rect2.iter_mut());
            for ((acc_c, acc_r), (c, (l, h))) in accs.zip(c.into_iter().zip(l.into_iter().zip(h))) {
                let dc = c - x;
                *acc_c += dc * dc;
                let d = min_dist_term(l, h, x);
                *acc_r += d * d;
            }
        }
        let radii = lockstep(fields(&group, dim, 1)?).flatten();
        let bounds = center2.into_iter().zip(radii).zip(rect2);
        for ((center2, radius), rect2) in bounds.take(rows.live(i)) {
            each(surface_dist2(center2, radius), rect2);
        }
    }
    Ok(())
}

/// [`sphere_min_dist2_f64le`] of `n` row-major inner entries, four per
/// pass: row `i` starts `i · stride` bytes into `rows` with the sphere's
/// center and radius. `each` receives `d_s²` per entry, in entry order,
/// bit-identical to the one-entry kernel's.
// srlint: hot
pub fn sphere_min_dist2_rows_f64le(
    rows: &[u8],
    stride: usize,
    n: usize,
    query: &[f32],
    mut each: impl FnMut(f64),
) -> Result<(), GeometryError> {
    let dim = query.len();
    let rows = Rows::new(rows, stride, n, dim + 1)?;
    for i in (0..n).step_by(LOCKSTEP) {
        let group = rows.group(i)?;
        let center2 = center_dist2(fields(&group, 0, dim)?, query);
        let radii = lockstep(fields(&group, dim, 1)?).flatten();
        for (center2, radius) in center2.into_iter().zip(radii).take(rows.live(i)) {
            each(surface_dist2(center2, radius));
        }
    }
    Ok(())
}

/// [`rect_min_dist2_f64le`] of `n` row-major inner entries, four per
/// pass: row `i` starts `i · stride` bytes into `rows` with the
/// rectangle's `lo` then `hi`. `each` receives `MINDIST²` per entry, in
/// entry order, bit-identical to the one-entry kernel's.
// srlint: hot
pub fn rect_min_dist2_rows_f64le(
    rows: &[u8],
    stride: usize,
    n: usize,
    query: &[f32],
    mut each: impl FnMut(f64),
) -> Result<(), GeometryError> {
    let dim = query.len();
    let rows = Rows::new(rows, stride, n, 2 * dim)?;
    for i in (0..n).step_by(LOCKSTEP) {
        let group = rows.group(i)?;
        let rect2 = rect_dist2(fields(&group, 0, dim)?, fields(&group, dim, dim)?, query);
        rect2.into_iter().take(rows.live(i)).for_each(&mut each);
    }
    Ok(())
}

/// Validate that `coords` holds exactly `n * dim` f64-LE values.
#[inline]
fn check_layout(coords: &[u8], n: usize, dim: usize) -> Result<(), GeometryError> {
    let expected =
        n.checked_mul(dim)
            .and_then(|v| v.checked_mul(8))
            .ok_or(GeometryError::Layout {
                expected: usize::MAX,
                actual: coords.len(),
            })?;
    if coords.len() != expected {
        return Err(GeometryError::Layout {
            expected,
            actual: coords.len(),
        });
    }
    Ok(())
}

/// Accumulate one dimension's column into every point's partial sum:
/// `acc[i] += (col[i] - q)^2`. The lane iterator is bounds-check-free;
/// on little-endian targets `f64::from_le_bytes` is a plain load and the
/// loop autovectorizes.
#[inline]
fn accumulate_column(acc: &mut [f64], col: &[u8], q: f64) {
    let (lanes, _tail) = col.as_chunks::<8>();
    for (a, lane) in acc.iter_mut().zip(lanes.iter()) {
        let d = f64::from_le_bytes(*lane) - q;
        *a += d * d;
    }
}

/// Squared Euclidean distance from `query` to each of `n` points stored
/// as a dimension-major f64-LE block, abandoning points that cannot
/// beat `threshold`.
///
/// Scores the first [`EARLY_ABANDON_HEAD_DIMS`] dimensions columnar for
/// every point, then finishes each point individually, abandoning as soon
/// as its partial sum strictly exceeds `threshold`. Returns the number of
/// abandoned points. After the call, `out` and `alive` hold exactly `n`
/// values, index `i` belonging to the block's `i`-th point: `alive[i]` is
/// `true` iff point `i` survived, in which case `out[i]` is its full
/// squared distance, bit-identical to [`dist2`](crate::dist2) of the
/// materialised entry; for abandoned points `out[i]` is a partial sum,
/// already `> threshold`, and must not be used as a distance.
///
/// Pass `threshold = f64::INFINITY` to disable abandonment: every point
/// then survives with its full distance.
// srlint: hot
pub fn dist2_columnar_early_abandon(
    coords: &[u8],
    n: usize,
    query: &[f32],
    threshold: f64,
    out: &mut Vec<f64>,
    alive: &mut Vec<bool>,
) -> Result<u64, GeometryError> {
    let dim = query.len();
    check_layout(coords, n, dim)?;
    out.clear();
    out.resize(n, 0.0);
    alive.clear();
    alive.resize(n, true);
    if n == 0 {
        return Ok(0);
    }
    let head = dim.min(EARLY_ABANDON_HEAD_DIMS);
    for (qd, col) in query.iter().take(head).zip(coords.chunks_exact(n * 8)) {
        accumulate_column(out, col, f64::from(*qd));
    }
    if head == dim {
        return Ok(0);
    }
    let mut abandoned = 0u64;
    for (i, (acc, live)) in out.iter_mut().zip(alive.iter_mut()).enumerate() {
        for (d, qd) in query.iter().enumerate().skip(head) {
            // Strictly-greater: a tie with the k-th candidate can still
            // win the candidate set's data-id tie-break, and a NaN
            // partial compares false, so NaN totals match the scalar
            // path. A partial overshoot is final: later terms are
            // non-negative and f64 addition of non-negatives is
            // monotone, so the full sum can only be larger.
            if *acc > threshold {
                *live = false;
                abandoned += 1;
                break;
            }
            let off = (d * n + i) * 8;
            let lane = coords.get(off..).and_then(|s| s.first_chunk::<8>()).ok_or(
                GeometryError::Layout {
                    expected: n * dim * 8,
                    actual: coords.len(),
                },
            )?;
            let dq = f64::from_le_bytes(*lane) - f64::from(*qd);
            *acc += dq * dq;
        }
    }
    Ok(abandoned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist2;

    /// Build a dimension-major f64-LE block from row-major points.
    fn columnar(points: &[Vec<f32>], dim: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for d in 0..dim {
            for p in points {
                out.extend_from_slice(&f64::from(p[d]).to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn early_abandon_infinite_threshold_is_exact() {
        let points: Vec<Vec<f32>> = (0..7)
            .map(|i| (0..13).map(|d| (i * 13 + d) as f32 * 0.37 - 2.0).collect())
            .collect();
        let q: Vec<f32> = (0..13).map(|d| d as f32 * 0.11).collect();
        let block = columnar(&points, 13);
        let (mut out, mut alive) = (Vec::new(), Vec::new());
        let ab = dist2_columnar_early_abandon(&block, 7, &q, f64::INFINITY, &mut out, &mut alive)
            .unwrap();
        assert_eq!(ab, 0);
        assert!(alive.iter().all(|&a| a));
        for (p, got) in points.iter().zip(&out) {
            assert_eq!(got.to_bits(), dist2(p, &q).to_bits());
        }
    }

    #[test]
    fn early_abandon_never_drops_a_tie() {
        // Two points at exactly the threshold distance, one strictly
        // beyond: only the strict overshoot may be abandoned.
        let dim = 12;
        let near: Vec<f32> = vec![1.0; dim];
        let far: Vec<f32> = vec![2.0; dim];
        let q: Vec<f32> = vec![0.0; dim];
        let thr = dist2(&near, &q); // exact tie for `near`
        let block = columnar(&[near.clone(), far.clone()], dim);
        let (mut out, mut alive) = (Vec::new(), Vec::new());
        let ab = dist2_columnar_early_abandon(&block, 2, &q, thr, &mut out, &mut alive).unwrap();
        assert_eq!(ab, 1);
        assert!(alive[0], "exact tie must survive");
        assert!(!alive[1]);
        assert_eq!(out[0].to_bits(), thr.to_bits());
    }

    #[test]
    fn layout_mismatch_is_an_error() {
        let block = vec![0u8; 24];
        let (mut out, mut alive) = (Vec::new(), Vec::new());
        let err = dist2_columnar_early_abandon(
            &block,
            2,
            &[0.0, 0.0],
            f64::INFINITY,
            &mut out,
            &mut alive,
        )
        .unwrap_err();
        assert_eq!(
            err,
            GeometryError::Layout {
                expected: 32,
                actual: 24
            }
        );
    }

    #[test]
    fn empty_block_is_fine() {
        let (mut out, mut alive) = (vec![1.0], vec![true]);
        let ab =
            dist2_columnar_early_abandon(&[], 0, &[1.0, 2.0], 0.0, &mut out, &mut alive).unwrap();
        assert_eq!(ab, 0);
        assert!(out.is_empty() && alive.is_empty());
    }
}
