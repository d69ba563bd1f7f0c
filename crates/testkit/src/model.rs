//! The oracle: a trivially correct reference implementation of the
//! index contract, backed by a flat vector and brute-force search.
//!
//! Extracted from the ad-hoc `Model` structs the integration suites
//! grew independently; the differential executor compares every tree
//! against this single source of truth.

use sr_geometry::Point;
use sr_query::{brute_force_knn, brute_force_range, Neighbor, QueryShape, QuerySpec};

/// Reference set mirroring what every index should contain.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// The live `(point, id)` entries, in insertion order.
    pub live: Vec<(Point, u64)>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Model { live: Vec::new() }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Record an insert.
    pub fn insert(&mut self, point: Point, id: u64) {
        self.live.push((point, id));
    }

    /// Remove `(point, id)` if present; returns whether it was live,
    /// matching the `delete` contract of every tree.
    pub fn delete(&mut self, point: &Point, id: u64) -> bool {
        match self.live.iter().position(|(p, i)| *i == id && p == point) {
            Some(pos) => {
                self.live.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// Ground-truth k-NN over the live set.
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        brute_force_knn(self.live.iter().map(|(p, id)| (p.coords(), *id)), query, k)
    }

    /// Ground-truth answer to either query shape.
    pub fn query(&self, spec: &QuerySpec<'_>) -> Vec<Neighbor> {
        match spec.shape {
            QueryShape::Knn { k } => self.knn(spec.point, k),
            QueryShape::Range { radius } => self.range(spec.point, radius),
        }
    }

    /// Ground-truth range query over the live set.
    pub fn range(&self, query: &[f32], radius: f64) -> Vec<Neighbor> {
        brute_force_range(
            self.live.iter().map(|(p, id)| (p.coords(), *id)),
            query,
            radius,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coords: &[f32]) -> Point {
        Point::new(coords.to_vec())
    }

    #[test]
    fn insert_delete_roundtrip() {
        let mut m = Model::new();
        m.insert(p(&[0.0, 0.0]), 1);
        m.insert(p(&[1.0, 1.0]), 2);
        assert_eq!(m.len(), 2);
        assert!(m.delete(&p(&[0.0, 0.0]), 1));
        assert!(!m.delete(&p(&[0.0, 0.0]), 1), "second delete is a miss");
        assert!(!m.delete(&p(&[1.0, 1.0]), 99), "wrong id is a miss");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn knn_orders_by_distance() {
        let mut m = Model::new();
        m.insert(p(&[0.0, 0.0]), 0);
        m.insert(p(&[3.0, 0.0]), 1);
        m.insert(p(&[1.0, 0.0]), 2);
        let got = m.knn(&[0.0, 0.0], 3);
        assert_eq!(
            got.iter().map(|n| n.data).collect::<Vec<_>>(),
            vec![0, 2, 1]
        );
    }

    #[test]
    fn range_respects_radius() {
        let mut m = Model::new();
        m.insert(p(&[0.0, 0.0]), 0);
        m.insert(p(&[0.5, 0.0]), 1);
        m.insert(p(&[2.0, 0.0]), 2);
        let got = m.range(&[0.0, 0.0], 1.0);
        assert_eq!(got.iter().map(|n| n.data).collect::<Vec<_>>(), vec![0, 1]);
    }
}
