//! A Zipf(θ) sampler over ranks `0..n`, via an inverse-CDF table.
//!
//! Frequency of rank `k` is proportional to `1/(k+1)^θ`. θ = 0 degenerates
//! to uniform; θ ≈ 0.99 is the classic YCSB skew. A sample is the first
//! rank whose CDF value is ≥ a uniform draw, found by binary search: O(n)
//! memory and O(log n) per sample. Regions and hot-set sizes here are a
//! few thousand at most, and a guide table that started the search near
//! the answer measured no clear gain in trace generation, so this is the
//! simple, exact choice.

use rand::Rng;

/// Precomputed Zipf distribution over `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler for `n` ranks with skew `theta ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative/non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(theta >= 0.0 && theta.is_finite(), "bad skew {theta}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against FP slop at the top end.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks in the distribution.
    #[inline]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false: construction requires at least one rank.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // construction requires n > 0
    }

    /// Sample a rank in `0..n`; rank 0 is the most popular. Takes exactly
    /// one draw from `rng`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // partition_point returns the first rank whose CDF value is ≥ u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// The probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_prefers_low_ranks() {
        let z = Zipf::new(100, 0.99);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
        // Head-heavy: rank 0 of Zipf(0.99, 100) holds ~19 % of the mass.
        assert!(z.pmf(0) > 0.15);
    }

    #[test]
    fn samples_match_pmf_roughly() {
        let z = Zipf::new(10, 1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0u64; 10];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.pmf(k)).abs() < 0.01,
                "rank {k}: empirical {emp} vs pmf {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(57, 0.7);
        let total: f64 = (0..57).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
