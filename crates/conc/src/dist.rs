//! Samplers for the distributions used by the paper's algorithms.
//!
//! The Elkin–Neiman decomposition (Lemma C.1) draws exponential shifts
//! `T_v ~ Exponential(λ)` capped at `4·ln ñ/λ`; the sparse-cover analysis
//! (Lemma C.2) compares cluster multiplicities against geometric random
//! variables. Both are provided here with exact inverse-CDF sampling so the
//! algorithms stay reproducible under seeded RNGs.

use rand::Rng;

/// An exponential distribution with rate `λ > 0`.
///
/// ```
/// use dapc_conc::dist::Exponential;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let exp = Exponential::new(0.5);
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Exponential { rate }
    }

    /// The rate `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Draws one sample via inversion: `−ln(U)/λ`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.rate
    }

    /// Draws one sample, **resetting to zero** any value `≥ cap` — exactly
    /// the clipping rule of Lemma C.1 ("should such event happen, the
    /// vertex simply resets `T_v = 0` and proceeds as usual").
    pub fn sample_reset_at<R: Rng>(&self, rng: &mut R, cap: f64) -> f64 {
        let x = self.sample(rng);
        if x >= cap {
            0.0
        } else {
            x
        }
    }

    /// `Pr[X ≥ x]` (survival function).
    pub fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-self.rate * x).exp()
        }
    }
}

/// A geometric distribution on `{1, 2, 3, …}` with success probability `p`:
/// `Pr[X = k] = (1−p)^{k−1} p`, `E[X] = 1/p` — the convention of
/// Appendix A of the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        Geometric { p }
    }

    /// Mean `1/p`.
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// Draws one sample by inversion: `⌈ln U / ln(1−p)⌉`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let k = (u.ln() / (1.0 - self.p).ln()).ceil();
        (k as u64).max(1)
    }

    /// `Pr[X ≥ k] = (1−p)^{k−1}` for `k ≥ 1`.
    pub fn survival(&self, k: u64) -> f64 {
        if k <= 1 {
            1.0
        } else {
            (1.0 - self.p).powi((k - 1) as i32)
        }
    }
}

/// Samples a Bernoulli event of probability `p` (clamped to `[0, 1]`).
pub fn bernoulli<R: Rng>(rng: &mut R, p: f64) -> bool {
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng.random::<f64>() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDAC)
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = rng();
        let d = Exponential::new(0.5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn exponential_reset_caps() {
        let mut r = rng();
        let d = Exponential::new(0.1);
        for _ in 0..5_000 {
            let x = d.sample_reset_at(&mut r, 5.0);
            assert!(x < 5.0);
        }
    }

    #[test]
    fn exponential_survival_matches_empirical() {
        let mut r = rng();
        let d = Exponential::new(1.0);
        let n = 40_000;
        let count = (0..n).filter(|_| d.sample(&mut r) >= 1.0).count();
        let emp = count as f64 / n as f64;
        assert!((emp - d.survival(1.0)).abs() < 0.01, "emp {emp}");
    }

    #[test]
    fn geometric_mean_and_support() {
        let mut r = rng();
        let d = Geometric::new(0.25);
        let n = 20_000;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().all(|&x| x >= 1));
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn geometric_p1_is_constant() {
        let mut r = rng();
        let d = Geometric::new(1.0);
        assert_eq!(d.sample(&mut r), 1);
        assert_eq!(d.survival(2), 0.0);
    }

    #[test]
    fn geometric_survival() {
        let d = Geometric::new(0.5);
        assert!((d.survival(3) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        assert!(!bernoulli(&mut r, 0.0));
        assert!(bernoulli(&mut r, 1.0));
        assert!(!bernoulli(&mut r, -3.0));
        assert!(bernoulli(&mut r, 7.0));
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    #[should_panic]
    fn geometric_rejects_zero_p() {
        let _ = Geometric::new(0.0);
    }
}
