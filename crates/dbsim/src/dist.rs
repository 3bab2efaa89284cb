//! Random distributions used by the workload model.
//!
//! The paper's memory-contention streams use Poisson arrivals (exponential
//! inter-arrival times), exponentially distributed holding times, and
//! uniformly distributed request sizes (Table 2).

use rand::Rng;

/// An exponential distribution with a given mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Create a distribution with the given mean (must be positive and finite).
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Exponential { mean }
    }

    /// Create a distribution with the given rate (events per unit time).
    pub fn with_rate(rate: f64) -> Self {
        Self::with_mean(1.0 / rate)
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse transform sampling; guard against ln(0).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -self.mean * u.ln()
    }
}

/// Draw a uniform fraction in `[0, hi]`.
pub fn uniform_fraction<R: Rng + ?Sized>(rng: &mut R, hi: f64) -> f64 {
    assert!((0.0..=1.0).contains(&hi), "fraction bound must be in [0,1]");
    if hi == 0.0 {
        0.0
    } else {
        rng.gen_range(0.0..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Exponential::with_mean(0.8);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.8).abs() < 0.03, "empirical mean {mean}");
    }

    #[test]
    fn exponential_from_rate() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Exponential::with_rate(5.0);
        let n = 20_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.2).abs() < 0.01, "empirical mean {mean}");
    }

    #[test]
    fn samples_are_positive() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Exponential::with_mean(1.0);
        assert!((0..1000).all(|_| d.sample(&mut rng) > 0.0));
    }

    #[test]
    fn uniform_fraction_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = uniform_fraction(&mut rng, 0.2);
            assert!((0.0..=0.2).contains(&x));
        }
        assert_eq!(uniform_fraction(&mut rng, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_rejected() {
        Exponential::with_mean(0.0);
    }
}
