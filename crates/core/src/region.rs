//! The SR-tree region — the intersection of a bounding sphere and a
//! bounding rectangle — with its §4.2 update rule and §4.4 search bound.

use sr_geometry::{
    bounding_rect_of_points, bounding_sphere_of_points, enclosing_radius_rects, next_radius_up,
    rect_min_dist2_f64le, sphere_min_dist2_f64le, sphere_rect_min_dist2_f64le, GeometryError,
    Point, Rect, Sphere, CONTAINMENT_EPS,
};
use sr_pager::{PageCodec, PageReader};
use sr_query::{Expansion, IndexError};

use crate::paged::centroid::{self, Centered};
use crate::paged::{
    check_rect_raw, check_sphere_raw, get_rect, get_sphere, leaf_rect, put_rect, put_sphere,
    rect_contains_raw, rect_union, sphere_contains_raw, LeafEntry, NodePage, Region,
};
use crate::Result;

/// How the parent bounding-sphere radius is computed — an ablation knob
/// for the paper's §4.2 rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RadiusRule {
    /// `min(d_s, d_r)` — the SR-tree rule; `d_r` (the rectangle bound)
    /// is what shrinks spheres below what the SS-tree can achieve.
    #[default]
    MinDsDr,
    /// `d_s` only — the SS-tree rule, retained inside an SR-tree to
    /// measure how much the §4.2 radius refinement contributes.
    SphereOnly,
}

/// Construction options for ablation studies, persisted in the metadata
/// flags word. The defaults are the paper's SR-tree; the variants exist
/// to measure each design choice's contribution (see the `ablation`
/// experiment in `sr-bench`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SrOptions {
    /// Parent-sphere radius rule (§4.2).
    pub radius_rule: RadiusRule,
    /// Disable forced reinsertion (always split on overflow).
    pub disable_reinsertion: bool,
}

/// Which lower bound scores a region during search — an ablation knob
/// for the paper's §4.4 design choice. [`DistanceBound::Both`] is the
/// SR-tree's bound and the default everywhere; the single-shape bounds
/// exist to measure how much each shape contributes (see the `ablation`
/// experiment in `sr-bench`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DistanceBound {
    /// `max(d_sphere, d_rect)` — the SR-tree rule (§4.4).
    #[default]
    Both,
    /// Sphere distance only — what the SS-tree would prune with.
    SphereOnly,
    /// Rectangle `MINDIST` only — what the R\*-tree would prune with.
    RectOnly,
}

/// An SR-tree entry's region — the paper's `(S, R, w)` of the
/// `(S, R, w, child_pointer)` tuple: bounding sphere, bounding rectangle
/// and subtree point count. The actual region is the intersection of the
/// two shapes. On disk it takes `(D+1)·8 + 2·D·8 + 4` bytes, three times
/// the SS-tree entry — the fanout problem of §5.3.
#[derive(Clone, Debug, PartialEq)]
pub struct SrRegion {
    /// Bounding sphere of the subtree.
    pub sphere: Sphere,
    /// Bounding rectangle of the subtree.
    pub rect: Rect,
    /// Points in the subtree.
    pub weight: u64,
}

fn corrupt(e: GeometryError) -> IndexError {
    IndexError::Corrupt(e.to_string())
}

/// The lane an SR region's rectangle starts at: after the sphere's
/// center and radius.
fn rect_lane(dim: usize) -> usize {
    dim + 1
}

impl Region for SrRegion {
    type Policy = SrOptions;
    type Bound = DistanceBound;

    fn bytes(dim: usize) -> usize {
        (rect_lane(dim) + 2 * dim) * 8 + 4
    }

    fn encode(&self, c: &mut PageCodec<'_>) -> Result<()> {
        put_sphere(c, &self.sphere)?;
        put_rect(c, &self.rect)?;
        centroid::put_weight(c, self.weight)
    }

    fn decode(c: &mut PageReader<'_>, dim: usize) -> Result<Self> {
        let sphere = get_sphere(c, dim)?;
        let rect = get_rect(c, dim, false)?;
        let weight = u64::from(c.get_u32()?);
        Ok(SrRegion {
            sphere,
            rect,
            weight,
        })
    }

    /// "Because a region of the SR-tree is the intersection of a bounding
    /// sphere and a bounding rectangle, the minimum distance from a
    /// search point to a region is defined as the longer one between the
    /// minimum distance to its bounding sphere and the minimum distance
    /// to its bounding rectangle" (§4.4): `max(d_s, d_r)`, a valid lower
    /// bound for the intersection and tighter than either shape alone.
    /// The combined form keeps both components so prune events can be
    /// attributed to the shape that earned them, and computes them in one
    /// pass over the entry ([`sphere_rect_min_dist2_f64le`]).
    fn push_branch<N>(
        raw: &[u8],
        query: &[f32],
        bound: DistanceBound,
        node: N,
        out: &mut Expansion<N>,
    ) -> Result<()> {
        let row = query.len() * 8;
        let mut r = PageReader::new(raw);
        let center = r.get_bytes(row)?;
        let radius = r.get_f64()?;
        let lo = r.get_bytes(row)?;
        let hi = r.get_bytes(row)?;
        match bound {
            DistanceBound::Both => {
                let (sphere, rect) =
                    sphere_rect_min_dist2_f64le(center, radius, lo, hi, query).map_err(corrupt)?;
                out.push_max_branch(sphere, rect, node);
            }
            DistanceBound::SphereOnly => out.push_sphere_branch(
                sphere_min_dist2_f64le(center, radius, query).map_err(corrupt)?,
                node,
            ),
            DistanceBound::RectOnly => {
                out.push_rect_branch(rect_min_dist2_f64le(lo, hi, query).map_err(corrupt)?, node)
            }
        }
        Ok(())
    }

    /// The rectangle is maintained with exact f32 min/max, so its test
    /// is authoritative; the sphere is rebuilt from rounded centroids, so
    /// a stored point can sit a few ulps outside it and the test needs
    /// tolerance or live entries become unfindable.
    fn contains_point(&self, p: &[f32]) -> bool {
        self.rect.contains_point(p) && self.sphere.contains_point(p, CONTAINMENT_EPS)
    }

    /// Sphere then rectangle, in `decode`'s order, so a region with both
    /// shapes corrupt fails with the sphere's error as it does there.
    fn contains_raw(raw: &[u8], p: &[f32]) -> Result<bool> {
        let mut c = PageReader::new(raw);
        let in_sphere = sphere_contains_raw(&mut c, p)?;
        let in_rect = rect_contains_raw(&mut c, p, false, Rect::contains_coord)?;
        Ok(in_rect && in_sphere)
    }

    fn check_raw(raw: &[u8], dim: usize) -> Result<()> {
        let mut c = PageReader::new(raw);
        check_sphere_raw(&mut c, dim)?;
        check_rect_raw(&mut c, dim, false)
    }

    fn policy_flags(options: &SrOptions) -> Option<u32> {
        let sphere_only = u32::from(options.radius_rule == RadiusRule::SphereOnly);
        Some(sphere_only | u32::from(options.disable_reinsertion) << 1)
    }

    fn policy_from_flags(flags: u32) -> SrOptions {
        SrOptions {
            radius_rule: if flags & 1 != 0 {
                RadiusRule::SphereOnly
            } else {
                RadiusRule::MinDsDr
            },
            disable_reinsertion: flags & 2 != 0,
        }
    }
}

impl Centered for SrRegion {
    fn center(&self) -> &Point {
        self.sphere.center()
    }

    fn weight(&self) -> u64 {
        self.weight
    }
}

/// The bounding sphere and rectangle of a leaf's points, or `None` for
/// an empty leaf.
pub(crate) fn leaf_shapes(entries: &[LeafEntry]) -> Option<(Sphere, Rect)> {
    let pts: Vec<&[f32]> = entries.iter().map(|e| e.point.coords()).collect();
    Some((
        bounding_sphere_of_points(&pts)?,
        bounding_rect_of_points(pts.iter().copied())?,
    ))
}

/// The §4.2 region computation, from the lanes of the node's page.
///
/// * Center: the weighted centroid of the children (the points, for a
///   leaf).
/// * Radius: `min(d_s, d_r)` — `d_s` encloses the child spheres,
///   `d_r = max_k MAXDIST(center, R_k)` encloses the child rectangles.
///   Choosing the smaller is what "permits the radius of the SR-tree to
///   be smaller than that of the SS-tree".
/// * Rectangle: the minimum bounding rectangle of the child rectangles
///   (R-tree rule).
///
/// # Errors
/// [`IndexError::Corrupt`] for an empty or zero-weight node — both are
/// reachable from a corrupted page, never from a well-formed tree.
pub(crate) fn region_of(page: &NodePage<SrRegion>, rule: RadiusRule) -> Result<SrRegion> {
    let weight = centroid::page_weight(page);
    if page.is_leaf() {
        let (sphere, rect) = centroid::leaf_sphere(page)
            .zip(leaf_rect(page))
            .ok_or_else(|| IndexError::Corrupt("region of an empty leaf".into()))?;
        return Ok(SrRegion {
            sphere,
            rect,
            weight,
        });
    }
    let rows = page.region_rows();
    let (center, d_s) = centroid::inner_sphere(page, &rows)?;
    let rects = || rows.rects(rect_lane(page.dim()));
    let radius = match rule {
        RadiusRule::MinDsDr => next_radius_up(d_s.min(enclosing_radius_rects(&center, rects()))),
        RadiusRule::SphereOnly => next_radius_up(d_s),
    };
    let rect =
        rect_union(rects()).ok_or_else(|| IndexError::Corrupt("region of an empty node".into()))?;
    Ok(SrRegion {
        sphere: Sphere::new(center, radius),
        rect,
        weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::{Entry, Node, Params};
    use sr_dataset::SeededRng;
    use sr_geometry::enclosing_radius_spheres;

    /// The page `node` encodes to, in a tree of `dim` dimensions.
    fn page_in(node: &Node<SrRegion>, dim: usize) -> NodePage<SrRegion> {
        NodePage::encode(1, node, &Params::derive(8187, dim, 64), 8187).unwrap()
    }

    fn page(node: &Node<SrRegion>) -> NodePage<SrRegion> {
        page_in(node, 2)
    }

    fn entry(x: f32, y: f32, r: f32, w: u64) -> Entry<SrRegion> {
        Entry {
            region: SrRegion {
                sphere: Sphere::new(Point::new(vec![x, y]), r),
                rect: Rect::new(vec![x - r, y - r], vec![x + r, y + r]),
                weight: w,
            },
            child: 1,
        }
    }

    #[test]
    fn empty_nodes_are_corrupt_not_a_panic() {
        let leaf = Node::<SrRegion>::Leaf(Vec::new());
        let inner = Node::<SrRegion>::Inner {
            level: 1,
            entries: Vec::new(),
        };
        for node in [&leaf, &inner] {
            assert!(matches!(
                centroid::centroid(node),
                Err(IndexError::Corrupt(_))
            ));
            for rule in [RadiusRule::MinDsDr, RadiusRule::SphereOnly] {
                assert!(matches!(
                    region_of(&page(node), rule),
                    Err(IndexError::Corrupt(_))
                ));
            }
        }
    }

    #[test]
    fn inner_roundtrip() {
        let p = Params::<SrRegion>::derive(8187, 2, 512);
        let node = Node::Inner {
            level: 4,
            entries: vec![entry(1.0, 2.0, 0.5, 17)],
        };
        let back = Node::decode(1, 4, &node.encode(&p, 8187).unwrap(), &p).unwrap();
        let Node::Inner { entries, level } = back else {
            panic!("expected inner")
        };
        assert_eq!(level, 4);
        assert_eq!(entries[0].region, entry(1.0, 2.0, 0.5, 17).region);
    }

    #[test]
    fn leaf_region_is_sphere_and_rect_of_points() {
        let node = Node::Leaf(
            [[0.0, 0.0], [2.0, 0.0]]
                .iter()
                .enumerate()
                .map(|(i, c)| LeafEntry {
                    point: Point::new(c.to_vec()),
                    data: i as u64,
                })
                .collect(),
        );
        let r = region_of(&page(&node), RadiusRule::MinDsDr).unwrap();
        assert_eq!(
            (r.rect.min(), r.rect.max()),
            (&[0.0, 0.0][..], &[2.0, 0.0][..])
        );
        assert_eq!(r.sphere.center().coords(), &[1.0, 0.0]);
        assert!((r.sphere.radius() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sr_radius_is_at_most_the_ss_radius() {
        // A child whose sphere is much larger than its rectangle: the SR
        // rule must use the rectangle bound d_r.
        let child = Entry {
            region: SrRegion {
                sphere: Sphere::new(Point::new(vec![3.0, 0.0]), 5.0), // loose sphere
                rect: Rect::new(vec![2.9, -0.1], vec![3.1, 0.1]),     // tight rect
                weight: 4,
            },
            child: 1,
        };
        let node = Node::Inner {
            level: 1,
            entries: vec![child.clone()],
        };
        let r = region_of(&page(&node), RadiusRule::MinDsDr).unwrap();
        // d_s = 5.0; d_r = MAXDIST from (3,0) to the farthest corner ≈ 0.1414.
        assert!(r.sphere.radius() < 0.2, "radius {}", r.sphere.radius());
        assert_eq!(r.rect, child.region.rect);
        let ss = region_of(&page(&node), RadiusRule::SphereOnly).unwrap();
        assert!(ss.sphere.radius() >= 5.0);
    }

    #[test]
    fn region_encloses_points_of_child_intersections() {
        // The region only has to contain points lying in *both* child
        // shapes (the child region is their intersection). Child centers
        // qualify by construction; so do axis-aligned points at the
        // sphere boundary, which sit inside the rect too.
        let entries = vec![entry(0.0, 0.0, 0.5, 3), entry(4.0, 1.0, 0.25, 9)];
        let node = Node::Inner {
            level: 1,
            entries: entries.clone(),
        };
        let r = region_of(&page(&node), RadiusRule::MinDsDr).unwrap();
        for e in &entries {
            let (c, rad) = (e.region.sphere.center(), e.region.sphere.radius());
            for p in [
                vec![c[0], c[1]],
                vec![c[0] + rad, c[1]],
                vec![c[0] - rad, c[1]],
                vec![c[0], c[1] + rad],
                vec![c[0], c[1] - rad],
            ] {
                assert!(e.region.contains_point(&p));
                assert!(r.contains_point(&p), "point {p:?} escapes {r:?}");
            }
        }
        // The weighted centroid: (0·3 + 4·9) / 12 = 3.
        assert!((r.sphere.center()[0] - 3.0).abs() < 1e-6);
        assert_eq!(r.weight, 12);
    }

    /// The §4.2 computation over a decoded node, with the geometry
    /// crate's point-set and enclosing-radius functions.
    fn decoded_region_of(node: &Node<SrRegion>, rule: RadiusRule) -> SrRegion {
        match node {
            Node::Leaf(entries) => {
                let (sphere, rect) = leaf_shapes(entries).unwrap();
                let weight = entries.len() as u64;
                SrRegion {
                    sphere,
                    rect,
                    weight,
                }
            }
            Node::Inner { entries, .. } => {
                let center = centroid::centroid(node).unwrap();
                let d_s = enclosing_radius_spheres(
                    &center,
                    entries
                        .iter()
                        .map(|e| (e.region.sphere.center().coords(), e.region.sphere.radius())),
                );
                let d_r = enclosing_radius_rects(
                    &center,
                    entries
                        .iter()
                        .map(|e| (e.region.rect.min(), e.region.rect.max())),
                );
                let radius = match rule {
                    RadiusRule::MinDsDr => next_radius_up(d_s.min(d_r)),
                    RadiusRule::SphereOnly => next_radius_up(d_s),
                };
                let mut rect = entries[0].region.rect.clone();
                for e in &entries[1..] {
                    rect.expand_to_rect(&e.region.rect);
                }
                SrRegion {
                    sphere: Sphere::new(center, radius),
                    rect,
                    weight: entries.iter().map(|e| e.region.weight).sum(),
                }
            }
        }
    }

    fn bytes_of(region: &SrRegion, dim: usize) -> Vec<u8> {
        let mut buf = vec![0u8; SrRegion::bytes(dim)];
        region.encode(&mut PageCodec::new(&mut buf)).unwrap();
        buf
    }

    #[test]
    fn lane_regions_are_bit_identical_to_decoded_ones() {
        // Few distinct values, signed zeros among them, so ties, repeats
        // and `-0.0` against `0.0` in min/max all occur.
        const VALUES: [f32; 7] = [-0.0, 0.0, 0.25, -1.5, 3.0, 1e-3, -7.125];
        let mut rng = SeededRng::seed_from_u64(0x5EED_0036);
        let value = |rng: &mut SeededRng| {
            let v = VALUES[rng.random_range(0..VALUES.len())];
            if rng.random_range(0..3) == 0 {
                v * (1.0 + rng.random_range(0..1000) as f32 * 1e-4)
            } else {
                v
            }
        };
        for case in 0..400 {
            let dim = 1 + rng.random_range(0..6);
            let n = 1 + rng.random_range(0..12);
            let node = if case % 2 == 0 {
                Node::Leaf(
                    (0..n)
                        .map(|i| LeafEntry {
                            point: Point::new(
                                (0..dim).map(|_| value(&mut rng)).collect::<Vec<_>>(),
                            ),
                            data: i as u64,
                        })
                        .collect(),
                )
            } else {
                let entries = (0..n)
                    .map(|i| {
                        let center: Vec<f32> = (0..dim).map(|_| value(&mut rng)).collect();
                        let (lo, hi): (Vec<f32>, Vec<f32>) = center
                            .iter()
                            .map(|&c| {
                                let (a, b) = (c - value(&mut rng).abs(), c + value(&mut rng).abs());
                                (a.min(b), a.max(b))
                            })
                            .unzip();
                        Entry {
                            region: SrRegion {
                                sphere: Sphere::new(Point::new(center), value(&mut rng).abs()),
                                rect: Rect::new(lo, hi),
                                weight: 1 + rng.random_range(0..50) as u64,
                            },
                            child: i as u64,
                        }
                    })
                    .collect();
                Node::Inner { level: 1, entries }
            };
            for rule in [RadiusRule::MinDsDr, RadiusRule::SphereOnly] {
                let lanes = region_of(&page_in(&node, dim), rule).unwrap();
                let decoded = decoded_region_of(&node, rule);
                assert_eq!(
                    bytes_of(&lanes, dim),
                    bytes_of(&decoded, dim),
                    "case {case} {rule:?}: {lanes:?} != {decoded:?}"
                );
            }
        }
    }

    #[test]
    fn policy_flags_roundtrip() {
        for options in [
            SrOptions::default(),
            SrOptions {
                radius_rule: RadiusRule::SphereOnly,
                disable_reinsertion: true,
            },
        ] {
            let flags = SrRegion::policy_flags(&options).unwrap();
            assert_eq!(SrRegion::policy_from_flags(flags), options);
        }
    }
}
