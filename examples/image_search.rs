//! Content-based image retrieval — the paper's motivating application.
//!
//! A simulated image database stores 16-bin color histograms (the
//! paper's "real data set" format). Given a query image, the SR-tree
//! retrieves the most similar images; we check the answers against an
//! exact linear scan and compare the page reads of all five index
//! structures on the same workload.
//!
//! ```text
//! cargo run --release --example image_search
//! ```

use srtree::dataset::{real_sim, sample_queries};
use srtree::query::{brute_force_knn, SpatialIndex};
use srtree::tree::SrTree;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const DIM: usize = 16;
    const IMAGES: usize = 20_000;
    const K: usize = 10;

    println!("indexing {IMAGES} simulated image color histograms ({DIM}-d)...");
    let histograms = real_sim(IMAGES, DIM, 7);

    let mut tree = SrTree::create_in_memory(DIM, 8192)?;
    for (i, h) in histograms.iter().enumerate() {
        tree.insert(h.clone(), i as u64)?;
    }

    // --- similarity search for a few query images -----------------------
    let queries = sample_queries(&histograms, 5, 99);
    let flat: Vec<(&[f32], u64)> = histograms
        .iter()
        .enumerate()
        .map(|(i, h)| (h.coords(), i as u64))
        .collect();

    for (qi, q) in queries.iter().enumerate() {
        let hits = tree.knn(q.coords(), K)?;
        let exact = brute_force_knn(flat.iter().copied(), q.coords(), K);
        assert_eq!(hits.len(), exact.len());
        for (h, e) in hits.iter().zip(exact.iter()) {
            assert!(
                (h.dist2 - e.dist2).abs() < 1e-9,
                "index disagrees with scan"
            );
        }
        println!(
            "query {}: top-{} similar images {:?} (exact match with linear scan)",
            qi,
            K,
            hits.iter().map(|n| n.data).take(5).collect::<Vec<_>>()
        );
    }

    // --- compare the cost across index structures ----------------------
    println!("\npage reads per {K}-NN query (average over 100 queries, cold cache):");
    let workload = sample_queries(&histograms, 100, 3);
    let with_ids: Vec<(srtree::geometry::Point, u64)> = histograms
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();

    let mut rstar = srtree::rstar::RstarTree::create_in_memory(DIM, 8192)?;
    let mut sstree = srtree::sstree::SsTree::create_in_memory(DIM, 8192)?;
    let mut kdb = srtree::kdbtree::KdbTree::create_in_memory(DIM, 8192)?;
    for (i, h) in histograms.iter().enumerate() {
        rstar.insert(h.clone(), i as u64)?;
        sstree.insert(h.clone(), i as u64)?;
        kdb.insert(h.clone(), i as u64)?;
    }
    let vam = srtree::vamsplit::VamTree::build_in_memory(with_ids, DIM, 8192)?;

    let mut results: Vec<(&str, f64)> = Vec::new();
    macro_rules! measure {
        ($label:expr, $t:expr) => {{
            $t.pager().set_cache_capacity(0)?;
            $t.pager().reset_stats();
            for q in &workload {
                let _ = $t.knn(q.coords(), K)?;
            }
            results.push((
                $label,
                $t.pager().stats().tree_reads() as f64 / workload.len() as f64,
            ));
        }};
    }
    measure!("K-D-B-tree", kdb);
    measure!("R*-tree", rstar);
    measure!("SS-tree", sstree);
    measure!("VAMSplit R-tree", vam);
    measure!("SR-tree", tree);

    for (label, reads) in &results {
        println!("  {label:<16} {reads:>8.1}");
    }
    let ss = results.iter().find(|(l, _)| *l == "SS-tree").unwrap().1;
    let sr = results.iter().find(|(l, _)| *l == "SR-tree").unwrap().1;
    println!(
        "\nSR-tree reads are {:.0}% of the SS-tree's — the paper's ~68% real-data result",
        100.0 * sr / ss
    );
    Ok(())
}
