//! Integration: seeded-schedule concurrency stress across all five
//! trees.
//!
//! The dynamic counterpart to the compiler's `Send + Sync` proof: eight
//! threads of deterministic mixed k-NN / range traffic hammer one shared
//! index through a deliberately small buffer pool, with per-thread yield/spin
//! perturbation shuffling the interleavings between runs. After the
//! join, the pager's accounting must be exact — every cache miss is one
//! physical read and every logical read is one hit or one miss — and
//! every answer produced mid-storm must have matched the brute-force
//! oracle. Three root seeds per structure keep the schedule space
//! honest without making the suite slow.

use srtree::dataset::{sample_queries, uniform};
use srtree::geometry::Point;
use srtree::pager::PageFile;
use srtree::query::SpatialIndex;
use srtree::tree::SrTree;

use sr_testkit::{run_stress, total_logical_reads, Model, StressConfig, TreeKind};

const DIM: usize = 8;
const N_POINTS: usize = 1_500;
const PAGE_SIZE: usize = 8192;
const DATA_AREA: usize = 512;
const CACHE_PAGES: usize = 16;
const SEEDS: [u64; 3] = [0x5EED_0001, 0xD15C_0CAB, 0x0BAD_CAFE];

fn pagefile() -> PageFile {
    PageFile::create_in_memory(PAGE_SIZE).unwrap()
}

/// Build all five structures over the same seeded point set.
fn build_all(points: &[Point]) -> Vec<Box<dyn SpatialIndex>> {
    let with_ids: Vec<(Point, u64)> = points.iter().cloned().zip(0u64..).collect();
    TreeKind::ALL
        .into_iter()
        .map(|kind| {
            kind.build(pagefile(), DIM, DATA_AREA, with_ids.clone())
                .unwrap()
        })
        .collect()
}

/// Eight threads, three seeds, five trees: oracle-exact answers and
/// exact I/O accounting at every join point.
#[test]
fn stress_all_five_trees_under_eight_threads() {
    let points = uniform(N_POINTS, DIM, 0xACE5);
    let queries = sample_queries(&points, 64, 0xF1E1D);

    let mut oracle = Model::new();
    for (i, p) in points.iter().enumerate() {
        oracle.insert(p.clone(), i as u64);
    }

    for index in build_all(&points) {
        // A small pool forces eviction churn, so hits, misses, and
        // physical reads all move under contention.
        index.pager().set_cache_capacity(CACHE_PAGES).unwrap();
        for seed in SEEDS {
            let cfg = StressConfig {
                threads: 8,
                ops_per_thread: 48,
                seed,
                ..StressConfig::default()
            };
            let report = run_stress(index.as_ref(), &oracle, &queries, &cfg)
                .unwrap_or_else(|msg| panic!("{msg}"));
            assert_eq!(
                report.ops,
                (cfg.threads * cfg.ops_per_thread) as u64,
                "{}: every scheduled op must run",
                index.kind_name()
            );
            assert!(
                report.knn_ops > 0 && report.range_ops > 0,
                "{}: seed {seed:#x} must exercise both query kinds",
                index.kind_name()
            );
            assert!(
                report.io.cache_misses() > 0,
                "{}: a {CACHE_PAGES}-page pool must miss under this load",
                index.kind_name()
            );
            assert!(
                total_logical_reads(&report.io) > 0,
                "{}: queries must read pages",
                index.kind_name()
            );
        }
    }
}

/// The same seed replays the same per-thread schedules: total operation
/// mix and logical read counts are identical across repeat runs even
/// though thread interleavings differ.
#[test]
fn stress_schedules_replay_deterministically() {
    let points = uniform(600, DIM, 0xACE5);
    let queries = sample_queries(&points, 32, 0xF1E1D);
    let mut oracle = Model::new();
    for (i, p) in points.iter().enumerate() {
        oracle.insert(p.clone(), i as u64);
    }
    let mut tree = SrTree::create_from(pagefile(), DIM, DATA_AREA).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    tree.pager().set_cache_capacity(CACHE_PAGES).unwrap();

    let cfg = StressConfig {
        threads: 4,
        ops_per_thread: 32,
        seed: 0x7EA7,
        ..StressConfig::default()
    };
    let a = run_stress(&tree, &oracle, &queries, &cfg).unwrap();
    let b = run_stress(&tree, &oracle, &queries, &cfg).unwrap();
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.knn_ops, b.knn_ops);
    assert_eq!(a.range_ops, b.range_ops);
    // Logical reads are a pure function of the op tapes, which the seed
    // pins; only hit/miss split may shift with cache state.
    assert_eq!(total_logical_reads(&a.io), total_logical_reads(&b.io));
}
