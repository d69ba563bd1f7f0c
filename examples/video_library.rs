//! A digital-video-library scenario (the paper's Informedia motivation):
//! frames from the same shot form tight clusters in feature space; "find
//! frames like this one" should mostly return frames of the same shot.
//!
//! The cluster data set of §5.4 models exactly this. We index clustered
//! frame features with the SR-tree, run similarity queries, and measure
//! how much of the top-k comes from the correct shot, plus the
//! non-uniformity advantage over the SS-tree.
//!
//! ```text
//! cargo run --release --example video_library
//! ```

use srtree::dataset::{cluster, ClusterSpec};
use srtree::query::SpatialIndex;
use srtree::sstree::SsTree;
use srtree::tree::SrTree;

type KnnProbe<'a> = (&'a srtree::pager::PageFile, &'a dyn Fn(&[f32]) -> usize);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const DIM: usize = 16;
    const SHOTS: usize = 200; // clusters
    const FRAMES_PER_SHOT: usize = 100;
    const K: usize = 21;

    let spec = ClusterSpec {
        clusters: SHOTS,
        points_per_cluster: FRAMES_PER_SHOT,
        max_radius: 0.05,
    };
    println!(
        "indexing {} frames from {SHOTS} shots ({FRAMES_PER_SHOT} frames each, {DIM}-d features)...",
        SHOTS * FRAMES_PER_SHOT
    );
    let frames = cluster(spec, DIM, 2024);

    // Frame i belongs to shot i / FRAMES_PER_SHOT (generation order).
    let shot_of = |frame: u64| frame as usize / FRAMES_PER_SHOT;

    let mut sr = SrTree::create_in_memory(DIM, 8192)?;
    let mut ss = SsTree::create_in_memory(DIM, 8192)?;
    for (i, f) in frames.iter().enumerate() {
        sr.insert(f.clone(), i as u64)?;
        ss.insert(f.clone(), i as u64)?;
    }

    // --- shot recall of similarity queries ------------------------------
    let mut same_shot = 0usize;
    let mut total = 0usize;
    for probe in (0..frames.len()).step_by(997) {
        let hits = sr.knn(frames[probe].coords(), K)?;
        for h in &hits {
            total += 1;
            if shot_of(h.data) == shot_of(probe as u64) {
                same_shot += 1;
            }
        }
    }
    println!(
        "top-{K} similarity results from the same shot: {:.1}% \
         (tight clusters make neighbors shot-mates)",
        100.0 * same_shot as f64 / total as f64
    );
    assert!(same_shot * 2 > total, "clusters should dominate the top-k");

    // --- the SR-tree's non-uniform-data advantage -----------------------
    let probes: Vec<usize> = (0..frames.len()).step_by(199).collect();
    let mut reads = Vec::new();
    for (label, tree_reads) in [("SS-tree", false), ("SR-tree", true)] {
        let (pager, knn): KnnProbe = if tree_reads {
            (sr.pager(), &|q| sr.knn(q, K).unwrap().len())
        } else {
            (ss.pager(), &|q| ss.knn(q, K).unwrap().len())
        };
        pager.set_cache_capacity(0)?;
        pager.reset_stats();
        for &p in &probes {
            let _ = knn(frames[p].coords());
        }
        let avg = pager.stats().tree_reads() as f64 / probes.len() as f64;
        println!("{label}: {avg:.1} page reads per query");
        reads.push(avg);
    }
    println!(
        "SR-tree reads are {:.0}% of the SS-tree's on clustered video features",
        100.0 * reads[1] / reads[0]
    );
    Ok(())
}
