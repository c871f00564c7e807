//! Empirical tail estimation for "with high probability" experiments.
//!
//! The headline difference between the paper's decomposition (Theorem 1.1)
//! and the classical ones (Lemma C.1, \[MPX13\]) is not the expectation but
//! the *tail*: on the Appendix C families the classical algorithms exceed
//! the `ε|V|` deletion budget with probability `Ω(ε)`. The experiments
//! estimate such failure probabilities over many seeded trials; this module
//! holds the estimator and its confidence interval.

/// Accumulates scalar samples and answers tail/quantile queries.
///
/// ```
/// use dapc_conc::empirical::TailEstimator;
/// let mut t = TailEstimator::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     t.push(x);
/// }
/// assert_eq!(t.len(), 4);
/// assert_eq!(t.mean(), 2.5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TailEstimator {
    samples: Vec<f64>,
    sorted: bool,
}

impl TailEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean (0 for the empty estimator).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Maximum sample (−∞ for the empty estimator).
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
    }

    /// Empirical `q`-quantile (nearest-rank), `0 <= q <= 1`.
    ///
    /// # Panics
    ///
    /// Panics on the empty estimator or `q` outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(!self.samples.is_empty(), "quantile of empty estimator");
        assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]");
        self.ensure_sorted();
        let idx = ((q * self.samples.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.samples.len() - 1);
        self.samples[idx]
    }

    /// Wilson 95% confidence interval for `Pr[X >= threshold]`.
    // dapc-allow(dead-pub): ROADMAP item 10, step 1 reads the tail verdicts' intervals from it
    pub fn tail_confidence(&self, threshold: f64) -> (f64, f64) {
        wilson_interval(
            self.samples.iter().filter(|&&x| x >= threshold).count(),
            self.samples.len(),
        )
    }
}

/// Wilson score interval (95%) for a binomial proportion with `k` successes
/// out of `n` trials. Returns `(0, 1)` when `n == 0`.
pub fn wilson_interval(k: usize, n: usize) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let z = 1.959_963_985f64; // 97.5th normal percentile
    let n_ = n as f64;
    let p = k as f64 / n_;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_;
    let centre = p + z2 / (2.0 * n_);
    let margin = z * (p * (1.0 - p) / n_ + z2 / (4.0 * n_ * n_)).sqrt();
    (
        ((centre - margin) / denom).max(0.0),
        ((centre + margin) / denom).min(1.0),
    )
}

/// Counts failures of a repeated boolean experiment and reports the
/// empirical probability with its confidence interval.
#[derive(Clone, Debug, Default)]
pub struct FailureCounter {
    trials: usize,
    failures: usize,
}

impl FailureCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one trial outcome (`true` = failure).
    pub fn record(&mut self, failed: bool) {
        self.trials += 1;
        if failed {
            self.failures += 1;
        }
    }

    /// Number of recorded trials.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Number of recorded failures.
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Empirical failure probability (0 if no trials).
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.failures as f64 / self.trials as f64
        }
    }

    /// Wilson 95% interval for the failure probability.
    pub fn confidence(&self) -> (f64, f64) {
        wilson_interval(self.failures, self.trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_data() {
        let mut t = TailEstimator::new();
        for x in 1..=100 {
            t.push(x as f64);
        }
        assert_eq!(t.quantile(0.5), 50.0);
        assert_eq!(t.quantile(0.95), 95.0);
        assert_eq!(t.quantile(1.0), 100.0);
        assert_eq!(t.quantile(0.0), 1.0);
        assert_eq!(t.max(), 100.0);
    }

    #[test]
    fn wilson_interval_brackets_estimate() {
        let (lo, hi) = wilson_interval(10, 100);
        assert!(lo < 0.1 && 0.1 < hi);
        assert!(lo > 0.04 && hi < 0.2);
        let (lo0, hi0) = wilson_interval(0, 100);
        assert_eq!(lo0, 0.0);
        assert!(hi0 < 0.05);
    }

    #[test]
    fn failure_counter_rates() {
        let mut c = FailureCounter::new();
        for i in 0..10 {
            c.record(i % 5 == 0);
        }
        assert_eq!(c.trials(), 10);
        assert_eq!(c.failures(), 2);
        assert!((c.rate() - 0.2).abs() < 1e-12);
        let (lo, hi) = c.confidence();
        assert!(lo < 0.2 && 0.2 < hi);
    }

    #[test]
    fn empty_estimator_is_safe() {
        let t = TailEstimator::new();
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
    }
}
