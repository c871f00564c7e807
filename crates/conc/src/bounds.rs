//! The concentration bounds of Appendix A, as numeric certificates.
//!
//! Each function evaluates the right-hand side of the corresponding lemma.
//! Experiments use these to print "theory bound" columns next to measured
//! tail frequencies, and tests check that empirical tails never exceed the
//! certified bounds (up to sampling noise).

/// Lemma A.1 (Chernoff, upper tail): for independent 0–1 summands with mean
/// `μ`, `Pr[X > (1+δ)μ] ≤ exp(−δ²μ/(2+δ))`, `δ ≥ 0`.
///
/// # Panics
///
/// Panics if `delta < 0` or `mu < 0`.
pub fn chernoff_upper(mu: f64, delta: f64) -> f64 {
    assert!(delta >= 0.0, "delta must be non-negative");
    assert!(mu >= 0.0, "mu must be non-negative");
    (-delta * delta * mu / (2.0 + delta)).exp().min(1.0)
}

/// Lemma A.1 (Chernoff, lower tail): `Pr[X < (1−δ)μ] ≤ exp(−δ²μ/2)`,
/// `0 ≤ δ ≤ 1`.
///
/// # Panics
///
/// Panics unless `0 <= delta <= 1` and `mu >= 0`.
pub fn chernoff_lower(mu: f64, delta: f64) -> f64 {
    assert!((0.0..=1.0).contains(&delta), "delta must be in [0, 1]");
    assert!(mu >= 0.0, "mu must be non-negative");
    (-delta * delta * mu / 2.0).exp().min(1.0)
}

/// Lemma A.2 (sum of geometrics): for `n` independent `Geometric(p)`
/// variables with sum mean `μ = n/p` and `δ > 1/p − 1`,
/// `Pr[X > μ + δn] ≤ exp(−p²δn/6)`.
///
/// # Panics
///
/// Panics unless `0 < p <= 1`, `n >= 1` and `δ > 1/p − 1`.
pub fn geometric_sum_upper(n: u64, p: f64, delta: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
    assert!(n >= 1, "need at least one summand");
    assert!(delta > 1.0 / p - 1.0, "delta must exceed 1/p − 1");
    (-p * p * delta * n as f64 / 6.0).exp().min(1.0)
}

/// Lemma A.3 (Chernoff with bounded dependence, \[Pem01\]): for 0–1 summands
/// whose dependency graph has maximum degree `d` and `μ ≥ E[X]`,
/// `Pr[X ≥ (1+δ)μ] ≤ O(d)·exp(−Ω(δ²μ/d))`.
///
/// We use the explicit constants that fall out of the equitable-colouring
/// proof: the `d+1` colour classes each contain at least `⌊n/(2(d+1))⌋`
/// summands, giving `(d+1)·exp(−δ²μ/((2+δ)(d+1)))`.
///
/// # Panics
///
/// Panics if `delta < 0`, `mu < 0`.
pub fn chernoff_bounded_dependence(mu: f64, delta: f64, d: f64) -> f64 {
    assert!(delta >= 0.0 && mu >= 0.0 && d >= 0.0);
    let classes = d + 1.0;
    (classes * (-delta * delta * mu / ((2.0 + delta) * classes)).exp()).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chernoff_upper_matches_formula() {
        let b = chernoff_upper(100.0, 0.5);
        assert!((b - (-0.25 * 100.0 / 2.5f64).exp()).abs() < 1e-12);
        assert!(chernoff_upper(0.0, 1.0) <= 1.0);
    }

    #[test]
    fn chernoff_lower_matches_formula() {
        let b = chernoff_lower(50.0, 0.2);
        assert!((b - (-0.04 * 50.0 / 2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn bounds_decrease_with_mu() {
        assert!(chernoff_upper(200.0, 0.5) < chernoff_upper(100.0, 0.5));
        assert!(chernoff_lower(200.0, 0.5) < chernoff_lower(100.0, 0.5));
    }

    #[test]
    fn bounded_dependence_weakens_with_d() {
        let tight = chernoff_bounded_dependence(1000.0, 0.5, 1.0);
        let loose = chernoff_bounded_dependence(1000.0, 0.5, 50.0);
        assert!(tight < loose);
        assert!(loose <= 1.0);
    }

    #[test]
    fn geometric_sum_bound_valid_region() {
        let b = geometric_sum_upper(100, 0.5, 1.5);
        assert!(b < 1.0);
        assert!(b > 0.0);
    }

    #[test]
    #[should_panic]
    fn geometric_sum_rejects_small_delta() {
        // delta must exceed 1/p − 1 = 1.
        let _ = geometric_sum_upper(100, 0.5, 0.5);
    }

    #[test]
    fn empirical_tail_never_beats_chernoff() {
        // Sanity experiment: 2000 sums of 400 Bernoulli(0.1); compare
        // empirical tails with the certificate at a few deltas.
        use crate::dist::bernoulli;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        let (n, trials, p) = (400usize, 2000usize, 0.1f64);
        let mu = n as f64 * p;
        let sums: Vec<f64> = (0..trials)
            .map(|_| (0..n).filter(|_| bernoulli(&mut rng, p)).count() as f64)
            .collect();
        for delta in [0.3, 0.5, 0.8] {
            let thr = (1.0 + delta) * mu;
            let emp = sums.iter().filter(|&&s| s > thr).count() as f64 / trials as f64;
            let bound = chernoff_upper(mu, delta);
            assert!(
                emp <= bound + 3.0 * (bound / trials as f64).sqrt() + 0.01,
                "empirical {emp} exceeds certificate {bound} at delta {delta}"
            );
        }
    }
}
