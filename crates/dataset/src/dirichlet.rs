//! Dirichlet-mixture sampling for the simulated color-histogram data set.
//!
//! The paper's "real data set consists of the real feature vectors of
//! images which are 16-element histograms computed over a quantized
//! version of the color space" (§3.1). Real color histograms are
//! non-negative, sum to one, have a handful of dominant bins per image,
//! and cluster by scene type. A mixture of Dirichlet distributions with
//! sparse, skewed concentration vectors has exactly those properties, so
//! it is the substitution this reproduction uses (see DESIGN.md §2).
//!
//! `rand_distr` is not among the approved dependencies, so the Gamma
//! sampler (Marsaglia & Tsang 2000) is implemented here.

use crate::rng::SeededRng;

/// Standard normal via Box–Muller (we only need modest statistical
/// quality, not extreme-tail accuracy).
fn gauss(rng: &mut SeededRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Gamma(shape, 1) via Marsaglia & Tsang's squeeze method, with the
/// standard `U^{1/a}` boost for `shape < 1`.
fn gamma(rng: &mut SeededRng, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Boosting: G(a) = G(a+1) * U^(1/a)
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = gauss(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        if u < 1.0 - 0.0331 * x * x * x * x {
            return d * v;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// A mixture of Dirichlet distributions over the `dim`-simplex.
///
/// Each component has a concentration vector with a few "dominant" bins
/// (large alpha) and many near-empty ones (small alpha), mimicking the
/// color histogram of one scene type.
pub struct DirichletMixture {
    components: Vec<Vec<f64>>,
    rng: SeededRng,
}

impl DirichletMixture {
    /// Build a mixture with `k` components over `dim` bins, seeded
    /// deterministically.
    ///
    /// # Panics
    /// Panics if `k == 0` or `dim == 0`.
    pub fn new(dim: usize, k: usize, seed: u64) -> Self {
        assert!(
            dim > 0 && k > 0,
            "need at least one dimension and component"
        );
        let mut rng = SeededRng::seed_from_u64(seed ^ 0x5EED_D1A1);
        let mut components = Vec::with_capacity(k);
        for _ in 0..k {
            // 2–4 dominant bins per component, like an image dominated by
            // a few hues.
            let dominant = 2 + rng.random_range(0..3usize).min(dim - 1);
            let mut alpha = vec![0.15f64; dim];
            for _ in 0..dominant {
                let bin = rng.random_range(0..dim);
                alpha[bin] += 4.0 + 8.0 * rng.random::<f64>();
            }
            components.push(alpha);
        }
        DirichletMixture { components, rng }
    }

    /// Draw one histogram vector (non-negative, sums to 1).
    pub fn sample(&mut self) -> Vec<f32> {
        let c = self.rng.random_range(0..self.components.len());
        let alpha = self.components[c].clone();
        let mut v: Vec<f64> = alpha.iter().map(|&a| gamma(&mut self.rng, a)).collect();
        let sum: f64 = v.iter().sum();
        if sum <= 0.0 {
            // Astronomically unlikely; fall back to the mode of the
            // component rather than divide by zero.
            let total: f64 = alpha.iter().sum();
            v = alpha.iter().map(|&a| a / total).collect();
        } else {
            for x in v.iter_mut() {
                *x /= sum;
            }
        }
        v.into_iter().map(|x| x as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_live_on_the_simplex() {
        let mut m = DirichletMixture::new(16, 8, 7);
        for _ in 0..200 {
            let v = m.sample();
            assert_eq!(v.len(), 16);
            let sum: f32 = v.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "sum = {sum}");
            assert!(v.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn samples_are_skewed_not_uniform() {
        // A uniform histogram has every bin ≈ 1/16 ≈ 0.0625. Dirichlet
        // components with dominant bins should routinely produce a bin
        // over 0.3.
        let mut m = DirichletMixture::new(16, 8, 11);
        let peaked = (0..200)
            .filter(|_| {
                let v = m.sample();
                v.iter().cloned().fold(0.0f32, f32::max) > 0.3
            })
            .count();
        assert!(peaked > 100, "only {peaked}/200 samples were peaked");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DirichletMixture::new(8, 4, 99);
        let mut b = DirichletMixture::new(8, 4, 99);
        for _ in 0..10 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DirichletMixture::new(8, 4, 1);
        let mut b = DirichletMixture::new(8, 4, 2);
        assert_ne!(a.sample(), b.sample());
    }

    #[test]
    fn gamma_mean_is_roughly_shape() {
        let mut rng = SeededRng::seed_from_u64(5);
        for shape in [0.3f64, 1.0, 4.5] {
            let n = 4000;
            let mean: f64 = (0..n).map(|_| gamma(&mut rng, shape)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.15 * shape.max(0.5),
                "shape {shape}: mean {mean}"
            );
        }
    }
}
