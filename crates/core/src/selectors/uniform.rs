//! Uniform sampling with confidence intervals: Algorithms 2 and 3.

use rand::RngCore;

use super::{
    precision_threshold, recall_threshold, SelectorConfig, TauEstimate, ThresholdSelector,
};
use crate::error::SupgError;
use crate::oracle::Oracle;
use crate::prepared::DataView;
use crate::query::{ApproxQuery, TargetKind};
use crate::sample::OracleSample;
use supg_sampling::sample_with_replacement;

/// `U-CI-R` (Algorithm 2): uniform sample, then a conservative recall
/// target `γ′` built from Lemma-1 bounds on the split positive mass.
/// Guarantees `Pr[Recall(R) ≥ γ] ≥ 1 − δ`.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformRecall {
    cfg: SelectorConfig,
}

impl UniformRecall {
    /// Creates the selector with the given configuration (only the CI
    /// method is consulted; weights do not apply to uniform sampling).
    pub fn new(cfg: SelectorConfig) -> Self {
        Self { cfg }
    }
}

impl ThresholdSelector for UniformRecall {
    fn name(&self) -> &'static str {
        "U-CI-R"
    }

    fn estimate(
        &self,
        view: DataView<'_>,
        query: &ApproxQuery,
        oracle: &mut dyn Oracle,
        rng: &mut dyn RngCore,
    ) -> Result<TauEstimate, SupgError> {
        debug_assert_eq!(query.target(), TargetKind::Recall);
        let data = view.data();
        let indices = sample_with_replacement(rng, data.len(), query.budget());
        let sample = OracleSample::label(data, indices, oracle, |_| 1.0)?;
        let tau = recall_threshold(&sample, query.gamma(), query.delta(), self.cfg.ci, rng);
        Ok(TauEstimate { tau, sample })
    }
}

/// `U-CI-P` (Algorithm 3): uniform sample, candidate thresholds at every
/// `m`-th order statistic, per-candidate lower precision bounds at
/// `δ/⌈s/m⌉` (union bound). Guarantees `Pr[Precision(R) ≥ γ] ≥ 1 − δ`.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformPrecision {
    cfg: SelectorConfig,
}

impl UniformPrecision {
    /// Creates the selector with the given configuration.
    pub fn new(cfg: SelectorConfig) -> Self {
        Self { cfg }
    }
}

impl ThresholdSelector for UniformPrecision {
    fn name(&self) -> &'static str {
        "U-CI-P"
    }

    fn estimate(
        &self,
        view: DataView<'_>,
        query: &ApproxQuery,
        oracle: &mut dyn Oracle,
        rng: &mut dyn RngCore,
    ) -> Result<TauEstimate, SupgError> {
        debug_assert_eq!(query.target(), TargetKind::Precision);
        let data = view.data();
        let indices = sample_with_replacement(rng, data.len(), query.budget());
        let sample = OracleSample::label(data, indices, oracle, |_| 1.0)?;
        let tau = precision_threshold(&sample, query.gamma(), query.delta(), &self.cfg, rng);
        Ok(TauEstimate { tau, sample })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ScoredDataset;
    use crate::metrics::evaluate;
    use crate::oracle::CachedOracle;
    use crate::selectors::cold;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use supg_stats::dist::{Bernoulli, Beta};

    /// A calibrated Beta(0.3, 2) dataset — dense enough in positives for
    /// uniform sampling to work with a small budget.
    fn calibrated(n: usize, seed: u64) -> (ScoredDataset, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Beta::new(0.3, 2.0);
        let mut scores = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a = dist.sample(&mut rng);
            scores.push(a);
            labels.push(Bernoulli::new(a).sample(&mut rng));
        }
        (ScoredDataset::new(scores).unwrap(), labels)
    }

    fn run_recall_trial(seed: u64) -> f64 {
        let (data, labels) = calibrated(20_000, 1234);
        let prepared = cold(&data);
        let query = ApproxQuery::recall_target(0.9, 0.05, 2_000);
        let mut oracle = CachedOracle::from_labels(labels.clone(), 2_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let est = UniformRecall::new(SelectorConfig::default())
            .estimate(DataView::prepared(&prepared), &query, &mut oracle, &mut rng)
            .unwrap();
        // Recall of the full result (τ-selection ∪ labeled positives).
        let mut result: Vec<usize> = data.select(est.tau).iter().map(|&i| i as usize).collect();
        result.extend(est.sample.positive_indices());
        result.sort_unstable();
        result.dedup();
        evaluate(&result, &labels).recall
    }

    #[test]
    fn u_ci_r_meets_recall_target_with_high_probability() {
        let trials = 30;
        let failures = (0..trials)
            .map(|t| run_recall_trial(1000 + t))
            .filter(|&r| r < 0.9)
            .count();
        // δ = 0.05: with 30 trials, more than 4 failures would be wildly
        // out of spec (P[Binom(30, 0.05) > 4] ≈ 1.6%).
        assert!(failures <= 4, "{failures}/{trials} recall failures");
    }

    #[test]
    fn u_ci_p_meets_precision_target() {
        let (data, labels) = calibrated(20_000, 99);
        let prepared = cold(&data);
        let query = ApproxQuery::precision_target(0.8, 0.05, 2_000);
        let mut failures = 0;
        for t in 0..20 {
            let mut oracle = CachedOracle::from_labels(labels.clone(), 2_000);
            let mut rng = StdRng::seed_from_u64(500 + t);
            let est = UniformPrecision::new(SelectorConfig::default())
                .estimate(DataView::prepared(&prepared), &query, &mut oracle, &mut rng)
                .unwrap();
            let mut result: Vec<usize> = data.select(est.tau).iter().map(|&i| i as usize).collect();
            result.extend(est.sample.positive_indices());
            result.sort_unstable();
            result.dedup();
            if evaluate(&result, &labels).precision < 0.8 {
                failures += 1;
            }
        }
        assert!(failures <= 2, "{failures}/20 precision failures");
    }

    #[test]
    fn u_ci_r_is_more_conservative_than_naive() {
        let (data, labels) = calibrated(20_000, 7);
        let prepared = cold(&data);
        let query = ApproxQuery::recall_target(0.9, 0.05, 2_000);
        let mut o1 = CachedOracle::from_labels(labels.clone(), 2_000);
        let mut o2 = CachedOracle::from_labels(labels, 2_000);
        let mut rng1 = StdRng::seed_from_u64(11);
        let mut rng2 = StdRng::seed_from_u64(11);
        let guaranteed = UniformRecall::new(SelectorConfig::default())
            .estimate(DataView::prepared(&prepared), &query, &mut o1, &mut rng1)
            .unwrap();
        let naive = super::super::UniformNoCiRecall
            .estimate(DataView::prepared(&prepared), &query, &mut o2, &mut rng2)
            .unwrap();
        // Same sample (same seed stream) → the CI version must pick a τ no
        // larger than the empirical one.
        assert!(guaranteed.tau <= naive.tau);
    }

    #[test]
    fn budget_is_respected_exactly() {
        let (data, labels) = calibrated(5_000, 3);
        let prepared = cold(&data);
        let query = ApproxQuery::recall_target(0.9, 0.05, 300);
        let mut oracle = CachedOracle::from_labels(labels, 300);
        let mut rng = StdRng::seed_from_u64(21);
        UniformRecall::new(SelectorConfig::default())
            .estimate(DataView::prepared(&prepared), &query, &mut oracle, &mut rng)
            .unwrap();
        assert!(oracle.calls_used() <= 300);
    }
}
