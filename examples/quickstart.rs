//! Quickstart: build an SR-tree, run nearest-neighbor and range queries,
//! persist it to disk, and reopen it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use srtree::dataset::uniform;
use srtree::query::SpatialIndex;
use srtree::tree::SrTree;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- build an index over 10,000 random 16-d feature vectors --------
    let dim = 16;
    let points = uniform(10_000, dim, 42);
    let mut tree = SrTree::create_in_memory(dim, 8192)?;
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64)?;
    }
    println!(
        "built an SR-tree: {} points, height {}, fanout {} (node) / {} (leaf)",
        tree.len(),
        tree.height(),
        tree.params().max_node,
        tree.params().max_leaf,
    );

    // --- k nearest neighbors -------------------------------------------
    let query = points[0].coords();
    let hits = tree.knn(query, 5)?;
    println!("\n5 nearest neighbors of point 0:");
    for n in &hits {
        println!("  id {:>6}  distance {:.4}", n.data, n.dist2.sqrt());
    }
    assert_eq!(hits[0].data, 0, "a point is its own nearest neighbor");

    // --- range query ----------------------------------------------------
    let within = tree.range(query, 0.8)?;
    println!("\n{} points within distance 0.8 of point 0", within.len());

    // --- how many pages did that cost? ----------------------------------
    tree.pager().set_cache_capacity(0)?; // cold-cache accounting
    tree.pager().reset_stats();
    tree.knn(query, 21)?;
    let stats = tree.pager().stats();
    println!(
        "\na 21-NN query reads {} pages ({} node-level, {} leaf-level)",
        stats.tree_reads(),
        stats.logical_reads(srtree::pager::PageKind::Node),
        stats.logical_reads(srtree::pager::PageKind::Leaf),
    );

    // --- persistence -----------------------------------------------------
    let path = std::env::temp_dir().join("srtree-quickstart.pages");
    {
        let mut on_disk = SrTree::create(&path, dim)?;
        for (i, p) in points.iter().take(1000).enumerate() {
            on_disk.insert(p.clone(), i as u64)?;
        }
        on_disk.flush()?;
    }
    let reopened = SrTree::open(&path)?;
    println!(
        "\nreopened {} from disk: {} points, height {}",
        path.display(),
        reopened.len(),
        reopened.height()
    );
    let again = reopened.knn(points[0].coords(), 3)?;
    assert_eq!(again[0].data, 0);
    std::fs::remove_file(&path).ok();
    println!("quickstart OK");
    Ok(())
}
