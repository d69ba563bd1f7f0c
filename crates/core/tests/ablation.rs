//! Tests of the ablation knobs: every variant must stay *correct* (k-NN
//! equals brute force, invariants hold); only the efficiency differs.

#![cfg(test)]

use sr_dataset::{real_sim, sample_queries, uniform};
use sr_obs::Noop;
use sr_pager::PageFile;
use sr_query::{brute_force_knn, QuerySpec, SpatialIndex};
use sr_tree::{verify, DistanceBound, RadiusRule, SrOptions, SrTree};

fn build_with(points: &[sr_geometry::Point], options: SrOptions) -> SrTree {
    let mut t = SrTree::create_with_options(
        PageFile::create_in_memory(2048).unwrap(),
        points[0].dim(),
        64,
        options,
    )
    .unwrap();
    for (i, p) in points.iter().enumerate() {
        t.insert(p.clone(), i as u64).unwrap();
    }
    t
}

#[test]
fn every_variant_is_correct() {
    let points = uniform(600, 8, 301);
    let flat: Vec<(&[f32], u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.coords(), i as u64))
        .collect();
    for options in [
        SrOptions::default(),
        SrOptions {
            radius_rule: RadiusRule::SphereOnly,
            ..Default::default()
        },
        SrOptions {
            disable_reinsertion: true,
            ..Default::default()
        },
        SrOptions {
            radius_rule: RadiusRule::SphereOnly,
            disable_reinsertion: true,
        },
    ] {
        let t = build_with(&points, options);
        verify::check(&t).unwrap_or_else(|e| panic!("{options:?}: {e}"));
        for qi in [0usize, 100, 599] {
            let q = points[qi].coords();
            let got = t.knn(q, 9).unwrap();
            let want = brute_force_knn(flat.iter().copied(), q, 9);
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.dist2 - w.dist2).abs() < 1e-9, "{options:?}");
            }
        }
    }
}

#[test]
fn all_distance_bounds_agree_on_results() {
    let points = real_sim(2_000, 16, 303);
    let t = build_with(&points, SrOptions::default());
    let queries = sample_queries(&points, 10, 305);
    for q in &queries {
        let both = t
            .knn_with_bound(q.coords(), 21, DistanceBound::Both)
            .unwrap();
        let sphere = t
            .knn_with_bound(q.coords(), 21, DistanceBound::SphereOnly)
            .unwrap();
        let rect = t
            .knn_with_bound(q.coords(), 21, DistanceBound::RectOnly)
            .unwrap();
        let ids = |v: &[sr_tree::Neighbor]| v.iter().map(|n| n.data).collect::<Vec<_>>();
        assert_eq!(ids(&both), ids(&sphere));
        assert_eq!(ids(&both), ids(&rect));
    }
}

#[test]
fn combined_bound_prunes_at_least_as_well() {
    // The max of two lower bounds dominates each one, so the combined
    // bound can never read *more* pages on the same tree.
    let points = real_sim(4_000, 16, 307);
    let t = build_with(&points, SrOptions::default());
    let queries = sample_queries(&points, 40, 309);
    let reads = |bound: DistanceBound| {
        t.pager().set_cache_capacity(0).unwrap();
        t.pager().reset_stats();
        for q in &queries {
            t.knn_with_bound(q.coords(), 21, bound).unwrap();
        }
        t.pager().stats().tree_reads()
    };
    let both = reads(DistanceBound::Both);
    let sphere = reads(DistanceBound::SphereOnly);
    let rect = reads(DistanceBound::RectOnly);
    assert!(both <= sphere, "combined {both} vs sphere {sphere}");
    assert!(both <= rect, "combined {both} vs rect {rect}");
    // And on non-uniform data it should be strictly better than at least
    // one single-shape bound.
    assert!(both < sphere.max(rect));
}

#[test]
fn sr_radius_rule_shrinks_spheres() {
    let points = real_sim(3_000, 16, 311);
    let sr_rule = build_with(&points, SrOptions::default());
    let ss_rule = build_with(
        &points,
        SrOptions {
            radius_rule: RadiusRule::SphereOnly,
            ..Default::default()
        },
    );
    let mean_radius = |t: &SrTree| {
        let rs = t.leaf_regions().unwrap();
        rs.iter().map(|(s, _)| s.radius() as f64).sum::<f64>() / rs.len() as f64
    };
    // Leaf spheres are identical (no children to take d_r over), so look
    // at query pruning instead: the min(d_s, d_r) tree must not read
    // more pages.
    let queries = sample_queries(&points, 40, 313);
    let reads = |t: &SrTree| {
        t.pager().set_cache_capacity(0).unwrap();
        t.pager().reset_stats();
        for q in &queries {
            t.knn(q.coords(), 21).unwrap();
        }
        t.pager().stats().tree_reads()
    };
    let _ = mean_radius(&sr_rule); // exercised for coverage of the walker
    let with_rule = reads(&sr_rule);
    let without = reads(&ss_rule);
    assert!(
        with_rule <= without,
        "min(d_s,d_r) reads {with_rule} vs d_s-only {without}"
    );
}

#[test]
fn options_survive_reopen() {
    let dir = std::env::temp_dir().join(format!("sr-ablation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("opts.pages");
    let points = uniform(300, 4, 317);
    {
        let mut t = SrTree::create_with_options(
            sr_pager::PageFile::create_with_page_size(&path, 2048).unwrap(),
            4,
            64,
            SrOptions {
                radius_rule: RadiusRule::SphereOnly,
                disable_reinsertion: true,
            },
        )
        .unwrap();
        for (i, p) in points.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        t.flush().unwrap();
    }
    let t = SrTree::open(&path).unwrap();
    assert_eq!(t.options().radius_rule, RadiusRule::SphereOnly);
    assert!(t.options().disable_reinsertion);
    // The verifier recomputes regions with the persisted rule; a rule
    // mismatch would fail here.
    verify::check(&t).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn best_first_equals_depth_first_and_reads_no_more() {
    let points = real_sim(4_000, 16, 601);
    let t = build_with(&points, SrOptions::default());
    let queries = sample_queries(&points, 40, 603);
    let mut df_reads = 0u64;
    let mut bf_reads = 0u64;
    for q in &queries {
        t.pager().set_cache_capacity(0).unwrap();
        t.pager().reset_stats();
        let df = t
            .query(&QuerySpec::knn(q.coords(), 21).depth_first(), &Noop)
            .unwrap()
            .rows;
        df_reads += t.pager().stats().tree_reads();

        t.pager().reset_stats();
        let bf = t.knn(q.coords(), 21).unwrap();
        bf_reads += t.pager().stats().tree_reads();

        assert_eq!(
            df.iter().map(|n| n.data).collect::<Vec<_>>(),
            bf.iter().map(|n| n.data).collect::<Vec<_>>()
        );
    }
    // Best-first is I/O-optimal: never more page reads than DFS.
    assert!(
        bf_reads <= df_reads,
        "best-first {bf_reads} vs DFS {df_reads}"
    );
}
