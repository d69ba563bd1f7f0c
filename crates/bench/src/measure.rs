//! Measurement primitives: query cost, build cost, and the two
//! experiment scales.

use std::time::Instant;

use sr_geometry::Point;
use sr_obs::{Counter, StatsRecorder};
use sr_pager::PageKind;

use crate::index::{AnyIndex, TreeKind};

/// The paper queries "the nearest 21 points".
pub const K: usize = 21;

/// Experiment scale: default (fast) or `--paper` (exact paper sizes).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Whether paper-exact sizes are in force.
    pub paper: bool,
}

impl Scale {
    /// Build a scale; `paper = true` reproduces the paper's exact sizes.
    pub fn new(paper: bool) -> Self {
        Scale { paper }
    }

    /// Data-set sizes for the uniform experiments (paper: 10k..100k).
    pub fn uniform_sizes(&self) -> Vec<usize> {
        if self.paper {
            (1..=10).map(|i| i * 10_000).collect()
        } else {
            vec![5_000, 10_000, 20_000, 40_000]
        }
    }

    /// Data-set sizes for the real-data experiments (paper: 2k..20k).
    pub fn real_sizes(&self) -> Vec<usize> {
        if self.paper {
            (1..=10).map(|i| i * 2_000).collect()
        } else {
            vec![2_000, 5_000, 10_000, 20_000]
        }
    }

    /// Number of query trials averaged per measurement (paper: 1,000).
    pub fn trials(&self) -> usize {
        if self.paper {
            1_000
        } else {
            200
        }
    }

    /// Dimensionalities for the dimensionality sweeps (paper: 1..64).
    pub fn dims(&self) -> Vec<usize> {
        if self.paper {
            vec![1, 2, 4, 8, 16, 32, 64]
        } else {
            vec![1, 2, 4, 8, 16, 32]
        }
    }

    /// Data-set size for the dimensionality sweep on uniform data
    /// (paper: 100,000).
    pub fn dim_sweep_size(&self) -> usize {
        if self.paper {
            100_000
        } else {
            20_000
        }
    }

    /// Cluster counts for the uniformity sweep (paper: 1..100,000 with a
    /// fixed 100,000 total points).
    pub fn cluster_counts(&self) -> Vec<usize> {
        if self.paper {
            vec![1, 10, 100, 1_000, 10_000, 100_000]
        } else {
            vec![1, 10, 100, 1_000, 20_000]
        }
    }

    /// Total points for the uniformity sweep.
    pub fn cluster_total(&self) -> usize {
        if self.paper {
            100_000
        } else {
            20_000
        }
    }
}

/// Averages over a query workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryCost {
    /// Mean CPU milliseconds per query.
    pub cpu_ms: f64,
    /// Mean node+leaf page reads per query (the paper's "disk reads").
    pub reads: f64,
    /// Mean node-level reads per query (Figure 14).
    pub node_reads: f64,
    /// Mean leaf-level reads per query (Figure 14).
    pub leaf_reads: f64,
    /// Mean node expansions per query (sr-obs).
    pub expansions: f64,
    /// Mean prune events per query, however attributed.
    pub prune_events: f64,
    /// Mean prunes per query the sphere bound alone would deliver (§4.4).
    pub prune_sphere: f64,
    /// Mean prunes per query the rectangle bound alone would deliver.
    pub prune_rect: f64,
    /// Buffer-pool hit rate over the workload (0 under the cold cache).
    pub cache_hit_rate: f64,
}

/// Run the paper's query workload (k = 21 nearest neighbors, cold cache)
/// and average the costs.
pub fn measure_knn(index: &AnyIndex, queries: &[Point], k: usize) -> QueryCost {
    measure_knn_at_capacity(index, queries, k, 0)
}

/// [`measure_knn`] with a buffer pool of `cache_pages` pages instead of
/// the paper's cold cache (`cache_hit_rate` is only meaningful here).
pub fn measure_knn_at_capacity(
    index: &AnyIndex,
    queries: &[Point],
    k: usize,
    cache_pages: usize,
) -> QueryCost {
    index.reset_for_queries_at(cache_pages);
    let rec = StatsRecorder::new();
    let before = index.stats();
    let t0 = Instant::now();
    for q in queries {
        let hits = index.knn_with(q.coords(), k, &rec);
        std::hint::black_box(&hits);
    }
    let elapsed = t0.elapsed();
    let after = index.stats();
    let d = after.since(&before);
    let m = rec.snapshot();
    let probes = d.cache_hits() + d.cache_misses();
    let n = queries.len() as f64;
    QueryCost {
        cpu_ms: elapsed.as_secs_f64() * 1e3 / n,
        reads: d.tree_reads() as f64 / n,
        node_reads: d.logical_reads(PageKind::Node) as f64 / n,
        leaf_reads: d.logical_reads(PageKind::Leaf) as f64 / n,
        expansions: m.counter(Counter::NodeExpansions) as f64 / n,
        prune_events: m.counter(Counter::PruneEvents) as f64 / n,
        prune_sphere: m.counter(Counter::PruneSphere) as f64 / n,
        prune_rect: m.counter(Counter::PruneRect) as f64 / n,
        cache_hit_rate: if probes == 0 {
            0.0
        } else {
            d.cache_hits() as f64 / probes as f64
        },
    }
}

/// Averages over an insertion workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildCost {
    /// Mean CPU milliseconds per insertion.
    pub cpu_ms: f64,
    /// Mean node+leaf page accesses (reads + writes) per insertion — the
    /// paper's "number of disk accesses" (Figure 9-b).
    pub accesses: f64,
}

/// Build an index while measuring per-insert cost (bulk build for the
/// VAMSplit R-tree, whole-build cost spread over the points).
pub fn measure_build(kind: TreeKind, points: &[Point]) -> (AnyIndex, BuildCost) {
    // A modest buffer pool mimics a real insertion workload; accesses are
    // logical, so the pool does not distort the paper's metric.
    let t0 = Instant::now();
    let index = AnyIndex::build(kind, points);
    let elapsed = t0.elapsed();
    let stats = index.stats();
    let n = points.len() as f64;
    (
        index,
        BuildCost {
            cpu_ms: elapsed.as_secs_f64() * 1e3 / n,
            accesses: stats.tree_accesses() as f64 / n,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_dataset::{sample_queries, uniform};

    #[test]
    fn measure_knn_reports_positive_costs() {
        let pts = uniform(2_000, 8, 1);
        let idx = AnyIndex::build(TreeKind::Sr, &pts);
        let qs = sample_queries(&pts, 20, 2);
        let c = measure_knn(&idx, &qs, K);
        assert!(c.reads > 0.0);
        assert!(c.cpu_ms > 0.0);
        assert!((c.node_reads + c.leaf_reads - c.reads).abs() < 1e-9);
    }

    #[test]
    fn measure_knn_reports_prune_breakdown_and_hit_rate() {
        let pts = uniform(2_000, 8, 7);
        let idx = AnyIndex::build(TreeKind::Sr, &pts);
        let qs = sample_queries(&pts, 20, 4);
        let cold = measure_knn(&idx, &qs, K);
        assert!(cold.expansions > 0.0);
        assert!(cold.prune_events >= cold.prune_sphere.max(cold.prune_rect));
        assert!(
            (cold.cache_hit_rate - 0.0).abs() < f64::EPSILON,
            "cold cache never hits"
        );
        let warm = measure_knn_at_capacity(&idx, &qs, K, 4096);
        assert!(warm.cache_hit_rate > 0.0, "large pool must absorb rereads");
    }

    #[test]
    fn measure_build_counts_accesses() {
        let pts = uniform(1_000, 8, 3);
        let (_, cost) = measure_build(TreeKind::Ss, &pts);
        assert!(cost.accesses > 1.0, "accesses {}", cost.accesses);
    }

    #[test]
    fn scales_differ() {
        let fast = Scale::new(false);
        let paper = Scale::new(true);
        assert!(fast.trials() < paper.trials());
        assert_eq!(paper.uniform_sizes().last(), Some(&100_000));
        assert_eq!(paper.real_sizes().last(), Some(&20_000));
    }
}
