//! The bounded candidate set of the k-NN search.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One answer of a k-NN or range query: a squared distance plus the opaque
/// 64-bit payload the tree stored alongside the point (typically a row id).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Squared Euclidean distance from the query point.
    pub dist2: f64,
    /// The data payload stored with the point.
    pub data: u64,
}

/// Max-heap entry ordered by distance (largest on top), so the worst
/// candidate is always ready for replacement.
#[derive(Clone, Copy, Debug)]
struct HeapEntry(Neighbor);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.dist2 == other.0.dist2 && self.0.data == other.0.data
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Distances are produced by our own geometry kernel and are never
        // NaN; enforce that in debug builds and order totally.
        debug_assert!(!self.0.dist2.is_nan() && !other.0.dist2.is_nan());
        self.0
            .dist2
            .partial_cmp(&other.0.dist2)
            .unwrap_or(Ordering::Equal)
            // Deterministic tie order keeps query results reproducible.
            .then_with(|| self.0.data.cmp(&other.0.data))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The candidate set of the Roussopoulos et al. search: the best `k`
/// points seen so far, with O(log k) replacement of the current worst.
///
/// [`CandidateSet::prune_dist2`] is the branch-pruning bound: `+inf` until
/// the set is full, then the k-th best squared distance.
pub struct CandidateSet {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

/// Largest `k` whose whole heap [`CandidateSet::new`] allocates up front.
/// A larger `k` (a wire request may carry `k: u32::MAX`) grows the heap
/// with the candidates actually kept, which never outnumber the index.
const PREALLOC_CAP: usize = 1 << 16;

impl CandidateSet {
    /// A candidate set for the `k` nearest neighbors. With `k == 0` it
    /// holds nothing; [`crate::search`] answers a 0-NN query before
    /// reading a page.
    pub fn new(k: usize) -> Self {
        CandidateSet {
            k,
            heap: BinaryHeap::with_capacity(k.min(PREALLOC_CAP).saturating_add(1)),
        }
    }

    /// Offer a candidate; it is kept only if it beats the current worst
    /// (or the set is not yet full).
    ///
    /// **Tie-break contract.** Candidates are ordered by the lexicographic
    /// pair `(dist2, data)`: a candidate at exactly the k-th distance but
    /// with a smaller data id *replaces* the current worst. Three
    /// consequences every search must respect:
    ///
    /// 1. `dist2` must be computed in the pinned accumulation order
    ///    (ascending dimension, one f64 accumulator — see
    ///    `sr_geometry::dist2`) so equal points produce bit-equal
    ///    distances in the leaf kernel and the brute-force oracle.
    /// 2. Early-abandon may drop an entry only when its *partial* distance
    ///    strictly exceeds [`CandidateSet::prune_dist2`]. An entry whose
    ///    full distance ties the threshold must complete, because the data
    ///    tie-break can still admit it.
    /// 3. For the same reason a region may be pruned only when its lower
    ///    bound strictly exceeds [`CandidateSet::prune_dist2`], and that
    ///    bound must never round above a stored point's distance.
    pub fn offer(&mut self, dist2: f64, data: u64) {
        if self.heap.len() < self.k {
            // A NaN distance (a corrupt leaf's) orders against nothing, so
            // it is never a candidate; a full set's comparison below
            // refuses it on its own.
            if !dist2.is_nan() {
                self.heap.push(HeapEntry(Neighbor { dist2, data }));
            }
        } else if let Some(worst) = self.heap.peek() {
            // The payload tie-break keeps results deterministic even when
            // several points sit at exactly the k-th distance.
            if (dist2, data) < (worst.0.dist2, worst.0.data) {
                self.heap.pop();
                self.heap.push(HeapEntry(Neighbor { dist2, data }));
            }
        }
    }

    /// The pruning bound: squared distance beyond which no branch or point
    /// can improve the result.
    pub fn prune_dist2(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map(|e| e.0.dist2).unwrap_or(f64::INFINITY)
        }
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consume the set, returning neighbors sorted by ascending distance
    /// (ties broken by payload for determinism).
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.heap.into_iter().map(|e| e.0).collect();
        v.sort_by(|a, b| {
            a.dist2
                .partial_cmp(&b.dist2)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.data.cmp(&b.data))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_best() {
        let mut c = CandidateSet::new(3);
        for (d, id) in [(5.0, 5), (1.0, 1), (4.0, 4), (2.0, 2), (3.0, 3)] {
            c.offer(d, id);
        }
        let got = c.into_sorted();
        assert_eq!(
            got.iter().map(|n| n.data).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn prune_bound_is_infinite_until_full() {
        let mut c = CandidateSet::new(2);
        assert_eq!(c.prune_dist2(), f64::INFINITY);
        c.offer(1.0, 1);
        assert_eq!(c.prune_dist2(), f64::INFINITY);
        c.offer(9.0, 2);
        assert_eq!(c.prune_dist2(), 9.0);
        c.offer(4.0, 3); // replaces the 9.0
        assert_eq!(c.prune_dist2(), 4.0);
    }

    #[test]
    fn worse_candidate_rejected_when_full() {
        let mut c = CandidateSet::new(1);
        c.offer(1.0, 1);
        c.offer(2.0, 2);
        let got = c.into_sorted();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data, 1);
    }

    #[test]
    fn ties_break_by_payload() {
        let mut c = CandidateSet::new(2);
        c.offer(1.0, 9);
        c.offer(1.0, 3);
        c.offer(1.0, 7); // same distance, lowest ids win deterministically
        let got = c.into_sorted();
        assert_eq!(got.iter().map(|n| n.data).collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut c = CandidateSet::new(10);
        c.offer(2.0, 2);
        c.offer(1.0, 1);
        let got = c.into_sorted();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].data, 1);
    }

    #[test]
    fn nan_distance_is_never_a_candidate() {
        // Not full, then full: a NaN offer is refused either way, and
        // neither panics nor disturbs the heap's order.
        let mut c = CandidateSet::new(2);
        c.offer(f64::NAN, 9);
        assert!(c.is_empty());
        c.offer(2.0, 2);
        c.offer(1.0, 1);
        c.offer(f64::NAN, 0);
        assert_eq!(c.prune_dist2(), 2.0);
        let got = c.into_sorted();
        assert_eq!(got.iter().map(|n| n.data).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn zero_k_holds_nothing() {
        let mut c = CandidateSet::new(0);
        c.offer(1.0, 1);
        assert!(c.is_empty());
        assert!(c.into_sorted().is_empty());
    }

    #[test]
    fn k_up_to_the_cap_preallocates_the_whole_heap() {
        // Below the cap the set reserves k + 1 slots up front, as it
        // always did, so a full set never reallocates.
        for k in [0, 1, 10, PREALLOC_CAP - 1, PREALLOC_CAP] {
            let c = CandidateSet::new(k);
            assert!(c.heap.capacity() > k, "k = {k}: {}", c.heap.capacity());
        }
    }

    #[test]
    fn huge_k_preallocates_at_most_the_cap() {
        // A wire request may carry k = u32::MAX; reserving k + 1 entries
        // would ask for 64 GiB, and k = usize::MAX would overflow.
        for k in [PREALLOC_CAP + 1, u32::MAX as usize, usize::MAX] {
            let c = CandidateSet::new(k);
            assert!(
                c.heap.capacity() < 2 * (PREALLOC_CAP + 1),
                "k = {k}: {}",
                c.heap.capacity()
            );
        }
    }

    #[test]
    fn huge_k_keeps_every_candidate_in_order() {
        let mut c = CandidateSet::new(usize::MAX);
        for (d, id) in [(3.0, 3), (1.0, 1), (2.0, 2), (1.0, 0)] {
            c.offer(d, id);
        }
        assert_eq!(c.prune_dist2(), f64::INFINITY);
        let got = c.into_sorted();
        assert_eq!(
            got.iter().map(|n| n.data).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }
}
