//! Unit tests of the tree types: the SR-tree's defaults and the Table 1
//! capacities, the SS-tree's region and reinsertion, and the K-D-B-tree's
//! half-open cells.

use sr_geometry::{Point, Rect, Sphere};
use sr_pager::PageFile;
use sr_query::IndexError;

use super::kdbtree::{clip_above, clip_below, full_space, kdb_contains, KdbRegion};
use super::sstree::{self, SsPolicy, SsRegion, SsTree};
use crate::paged::centroid;
use crate::paged::{AnyEntry, Dynamic, Entry, LeafEntry, Node, NodePage, Params};
use crate::{RadiusRule, SrOptions, SrParams, SrTree};

#[test]
fn options_default_is_the_paper_configuration() {
    let o = SrOptions::default();
    assert_eq!(o.radius_rule, RadiusRule::MinDsDr);
    assert!(!o.disable_reinsertion);
}

#[test]
fn empty_tree_roundtrips_metadata() {
    let t = SrTree::create_in_memory(7, 4096).unwrap();
    assert_eq!((t.dim(), t.len(), t.height()), (7, 0, 1));
    assert_eq!(t.options(), SrOptions::default());
}

#[test]
fn open_rejects_foreign_magic() {
    let pf = PageFile::create_in_memory(4096).unwrap();
    pf.set_user_meta(&[0u8; 40]).unwrap();
    assert!(matches!(
        SrTree::open_from(pf),
        Err(IndexError::NotThisIndex(_))
    ));
}

#[test]
fn paper_capacities_at_16_dimensions() {
    // SR-tree: node entry = 136 + 256 + 12 = 404 → (8187-4)/404 = 20:
    // one third of the SS-tree's 55, two thirds of the R*-tree's 30.
    let p = SrParams::derive(8187, 16, 512);
    assert_eq!((p.max_node, p.min_node, p.reinsert_node), (20, 8, 6));
    assert_eq!((p.max_leaf, p.min_leaf, p.reinsert_leaf), (12, 4, 3));
    // SS-tree: node entry = 17*8 + 12 = 148 → (8187-4)/148 = 55: nearly
    // double the R*-tree's 30 (§2.3). Minimums are 40%, reinsertion 30%.
    let p = Params::<SsRegion>::derive(8187, 16, 512);
    assert_eq!((p.max_node, p.min_node, p.reinsert_node), (55, 22, 16));
    assert_eq!((p.max_leaf, p.min_leaf, p.reinsert_leaf), (12, 4, 3));
    // K-D-B-tree: the R*-tree's entry size, so region pages hold 30,
    // point pages 12.
    let p = Params::<KdbRegion>::derive(8187, 16, 512);
    assert_eq!((p.max_node, p.max_leaf), (30, 12));
}

#[test]
fn fanout_relationship_of_section_5_3() {
    // SR fanout ≈ 1/3 of the SS-tree's, 2/3 of the R*-tree's.
    let sr = SrParams::derive(8187, 16, 512).max_node as f64;
    let ss = Params::<SsRegion>::derive(8187, 16, 512).max_node as f64;
    let rstar = Params::<Rect>::derive(8187, 16, 512).max_node;
    assert_eq!(rstar, 30);
    assert!((sr / ss - 1.0 / 3.0).abs() < 0.05);
    assert!((sr / rstar as f64 - 2.0 / 3.0).abs() < 0.05);
}

/// The page `node` encodes to, in a 3-d tree.
fn page(node: &Node<SsRegion>) -> NodePage<SsRegion> {
    NodePage::encode(1, node, &Params::derive(8187, 3, 512), 8187).unwrap()
}

#[test]
fn leaf_region_contains_points() {
    let node = Node::Leaf(
        [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.3, 0.9]]
            .iter()
            .enumerate()
            .map(|(i, c)| LeafEntry {
                point: Point::new(c.to_vec()),
                data: i as u64,
            })
            .collect(),
    );
    let r = sstree::region_of(&page(&node)).unwrap();
    let Node::Leaf(entries) = &node else {
        panic!("built as a leaf")
    };
    assert!(entries
        .iter()
        .all(|e| r.sphere.contains_point(e.point.coords(), 0.0)));
    assert_eq!(r.weight, 3);
}

#[test]
fn inner_region_contains_child_spheres() {
    let mk = |x: f32, r: f32, w: u64| Entry {
        region: SsRegion {
            sphere: Sphere::new(Point::new(vec![x, 0.0, 0.0]), r),
            weight: w,
        },
        child: 0,
    };
    let node = Node::Inner {
        level: 1,
        entries: vec![mk(0.0, 0.5, 10), mk(4.0, 1.0, 30)],
    };
    let r = sstree::region_of(&page(&node)).unwrap();
    let Node::Inner { entries, .. } = &node else {
        panic!("built as a leaf")
    };
    for e in entries {
        assert!(r.sphere.contains_sphere(&e.region.sphere, 1e-6));
    }
    // centroid weighted 10:30 toward x=4 → x = 3.0
    assert!((r.sphere.center()[0] - 3.0).abs() < 1e-6);
    assert_eq!(r.weight, 40);
}

#[test]
fn empty_nodes_are_corrupt_not_a_panic() {
    let leaf = Node::<SsRegion>::Leaf(Vec::new());
    let inner = Node::<SsRegion>::Inner {
        level: 1,
        entries: Vec::new(),
    };
    for node in [&leaf, &inner] {
        assert!(matches!(
            centroid::centroid(node),
            Err(IndexError::Corrupt(_))
        ));
        assert!(matches!(
            sstree::region_of(&page(node)),
            Err(IndexError::Corrupt(_))
        ));
    }
}

#[test]
fn inner_roundtrip() {
    let p = Params::<SsRegion>::derive(8187, 3, 512);
    let region = SsRegion {
        sphere: Sphere::new(Point::new(vec![0.5, 0.5, 0.5]), 1.25),
        weight: 99,
    };
    let node = Node::Inner {
        level: 2,
        entries: vec![Entry {
            region: region.clone(),
            child: 31,
        }],
    };
    let back = Node::decode(1, 2, &node.encode(&p, 8187).unwrap(), &p).unwrap();
    let Node::Inner { entries, .. } = back else {
        panic!("expected inner")
    };
    assert_eq!((&entries[0].region, entries[0].child), (&region, 31));
}

#[test]
fn take_reinsert_removes_the_centroid_outlier_first() {
    // Unlike the R*-tree, the SS-tree measures from the *centroid*,
    // so a single extreme outlier is removed first.
    let t = SsTree::create_from(PageFile::create_in_memory(1024).unwrap(), 2, 64).unwrap();
    let mut node = Node::Leaf(
        (0..9)
            .map(|i| LeafEntry {
                point: Point::new(if i == 8 {
                    vec![1000.0, 1000.0]
                } else {
                    vec![i as f32 * 0.1, 0.0]
                }),
                data: i as u64,
            })
            .collect(),
    );
    let removed = SsPolicy::take_reinsert(&t, &mut node).unwrap();
    assert!(matches!(&removed[0], AnyEntry::Leaf(e) if e.data == 8));
}

#[test]
fn half_open_containment() {
    let r = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
    assert!(kdb_contains(&r, &[0.0, 0.0])); // lower bound inclusive
    assert!(kdb_contains(&r, &[0.5, 0.999]));
    assert!(!kdb_contains(&r, &[1.0, 0.5])); // upper bound exclusive
    assert!(!kdb_contains(&r, &[-0.1, 0.5]));
}

#[test]
fn infinite_upper_bound_is_inclusive() {
    let r = full_space(2);
    assert!(kdb_contains(&r, &[f32::MAX, -1.0e30]));
    assert!(kdb_contains(&r, &[0.0, 0.0]));
}

#[test]
fn boundary_point_belongs_to_exactly_one_side() {
    let whole = Rect::new(vec![0.0], vec![10.0]);
    let p = [5.0f32];
    assert!(!kdb_contains(&clip_below(&whole, 0, 5.0), &p));
    assert!(kdb_contains(&clip_above(&whole, 0, 5.0), &p));
}

#[test]
fn clip_preserves_other_dimensions() {
    let r = Rect::new(vec![0.0, -1.0], vec![4.0, 1.0]);
    let lo = clip_below(&r, 0, 2.0);
    let hi = clip_above(&r, 0, 2.0);
    assert_eq!((lo.min(), lo.max()), (&[0.0, -1.0][..], &[2.0, 1.0][..]));
    assert_eq!((hi.min(), hi.max()), (&[2.0, -1.0][..], &[4.0, 1.0][..]));
}

#[test]
fn codec_roundtrip_with_infinite_bounds() {
    let p = Params::<KdbRegion>::derive(8187, 2, 512);
    let node = Node::Inner {
        level: 1,
        entries: vec![Entry {
            region: KdbRegion(full_space(2)),
            child: 3,
        }],
    };
    let back = Node::decode(1, 1, &node.encode(&p, 8187).unwrap(), &p).unwrap();
    let Node::Inner { entries, .. } = back else {
        panic!("expected region page")
    };
    assert_eq!(
        (&entries[0].region.0, entries[0].child),
        (&full_space(2), 3)
    );
    // A rectangle tree refuses the same infinite bounds.
    let rect = Params::<Rect>::derive(8187, 2, 512);
    assert!(Node::<Rect>::decode(1, 1, &node.encode(&p, 8187).unwrap(), &rect).is_err());
    let leaf: Node<KdbRegion> = Node::Leaf(vec![LeafEntry {
        point: Point::new(vec![3.5, -1.25]),
        data: 77,
    }]);
    assert!(Node::decode(1, 0, &leaf.encode(&p, 8187).unwrap(), &p).is_ok());
}
