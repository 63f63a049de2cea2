//! The guarantee-free baselines of prior systems (paper §5.1).
//!
//! `U-NoCI` uniformly samples records, labels them, and treats the sample as
//! an exact mirror of the dataset: it picks the threshold that meets the
//! target *empirically on the sample*, with no confidence correction. This
//! is what NoScope and probabilistic predicates do, and §6.2 of the paper
//! shows it misses the target up to 75% of the time.

use rand::RngCore;

use super::{TauEstimate, ThresholdSelector};
use crate::error::SupgError;
use crate::oracle::Oracle;
use crate::prepared::DataView;
use crate::query::{ApproxQuery, TargetKind};
use crate::sample::OracleSample;
use supg_sampling::sample_with_replacement;

fn uniform_sample(
    view: DataView<'_>,
    query: &ApproxQuery,
    oracle: &mut dyn Oracle,
    rng: &mut dyn RngCore,
) -> Result<OracleSample, SupgError> {
    let data = view.data();
    let indices = sample_with_replacement(rng, data.len(), query.budget());
    OracleSample::label(data, indices, oracle, |_| 1.0)
}

/// `U-NoCI-R`: the empirical recall threshold
/// `τ = max{τ : Recall_S(τ) ≥ γ}` with no correction. **No guarantee.**
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformNoCiRecall;

impl ThresholdSelector for UniformNoCiRecall {
    fn name(&self) -> &'static str {
        "U-NoCI-R"
    }

    fn estimate(
        &self,
        view: DataView<'_>,
        query: &ApproxQuery,
        oracle: &mut dyn Oracle,
        rng: &mut dyn RngCore,
    ) -> Result<TauEstimate, SupgError> {
        debug_assert_eq!(query.target(), TargetKind::Recall);
        let sample = uniform_sample(view, query, oracle, rng)?;
        let tau = sample.max_tau_for_recall(query.gamma()).unwrap_or(0.0);
        Ok(TauEstimate { tau, sample })
    }
}

/// `U-NoCI-P`: the empirical precision threshold
/// `τ = min{τ : Precision_S(τ) ≥ γ}` with no correction. **No guarantee.**
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformNoCiPrecision;

impl ThresholdSelector for UniformNoCiPrecision {
    fn name(&self) -> &'static str {
        "U-NoCI-P"
    }

    fn estimate(
        &self,
        view: DataView<'_>,
        query: &ApproxQuery,
        oracle: &mut dyn Oracle,
        rng: &mut dyn RngCore,
    ) -> Result<TauEstimate, SupgError> {
        debug_assert_eq!(query.target(), TargetKind::Precision);
        let sample = uniform_sample(view, query, oracle, rng)?;
        let tau = empirical_precision_threshold(&sample, query.gamma());
        Ok(TauEstimate { tau, sample })
    }
}

/// `min{τ : Precision_S(τ) ≥ γ}` over every sampled score, i.e. Equation 5.
/// Returns `f64::INFINITY` when no sampled threshold reaches the target
/// (only labeled positives will be returned).
fn empirical_precision_threshold(sample: &OracleSample, gamma: f64) -> f64 {
    for tau in sample.candidate_thresholds(1) {
        let (ys, xs) = sample.precision_pairs(tau);
        let total: f64 = xs.iter().sum();
        if total <= 0.0 {
            continue;
        }
        let precision = ys.iter().sum::<f64>() / total;
        if precision >= gamma {
            return tau;
        }
    }
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ScoredDataset;
    use crate::oracle::CachedOracle;
    use crate::selectors::cold;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Separable data: scores above 0.5 are positives.
    fn separable(n: usize) -> (ScoredDataset, Vec<bool>) {
        let scores: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let labels: Vec<bool> = scores.iter().map(|&s| s > 0.5).collect();
        (ScoredDataset::new(scores).unwrap(), labels)
    }

    #[test]
    fn naive_recall_hits_empirical_target_on_separable_data() {
        let (data, labels) = separable(10_000);
        let prepared = cold(&data);
        let mut oracle = CachedOracle::from_labels(labels, 1_000);
        let query = ApproxQuery::recall_target(0.9, 0.05, 1_000);
        let mut rng = StdRng::seed_from_u64(5);
        let est = UniformNoCiRecall
            .estimate(DataView::prepared(&prepared), &query, &mut oracle, &mut rng)
            .unwrap();
        // Separable: true positives live in (0.5, 1]; a 90%-recall τ lands
        // near the 10th percentile of the positive range.
        assert!(est.tau > 0.5 && est.tau < 0.62, "tau {}", est.tau);
        assert!(oracle.calls_used() <= 1_000);
    }

    #[test]
    fn naive_precision_picks_minimal_pure_threshold() {
        let (data, labels) = separable(10_000);
        let prepared = cold(&data);
        let mut oracle = CachedOracle::from_labels(labels, 1_000);
        let query = ApproxQuery::precision_target(0.9, 0.05, 1_000);
        let mut rng = StdRng::seed_from_u64(6);
        let est = UniformNoCiPrecision
            .estimate(DataView::prepared(&prepared), &query, &mut oracle, &mut rng)
            .unwrap();
        // Population precision at τ is 0.5/(1−τ), so the true minimal
        // 0.9-precision threshold is 1 − 0.5/0.9 ≈ 0.444 — naive lands
        // near it with no slack at all.
        assert!(est.tau > 0.40 && est.tau < 0.50, "tau {}", est.tau);
    }

    #[test]
    fn naive_recall_with_no_positives_returns_everything() {
        let scores: Vec<f64> = (0..500).map(|i| i as f64 / 500.0).collect();
        let data = ScoredDataset::new(scores).unwrap();
        let prepared = cold(&data);
        let mut oracle = CachedOracle::from_labels(vec![false; 500], 100);
        let query = ApproxQuery::recall_target(0.9, 0.05, 100);
        let mut rng = StdRng::seed_from_u64(7);
        let est = UniformNoCiRecall
            .estimate(DataView::prepared(&prepared), &query, &mut oracle, &mut rng)
            .unwrap();
        assert_eq!(est.tau, 0.0);
    }

    #[test]
    fn naive_precision_unattainable_returns_infinity() {
        let scores: Vec<f64> = (0..500).map(|i| i as f64 / 500.0).collect();
        let data = ScoredDataset::new(scores).unwrap();
        let prepared = cold(&data);
        let mut oracle = CachedOracle::from_labels(vec![false; 500], 100);
        let query = ApproxQuery::precision_target(0.9, 0.05, 100);
        let mut rng = StdRng::seed_from_u64(8);
        let est = UniformNoCiPrecision
            .estimate(DataView::prepared(&prepared), &query, &mut oracle, &mut rng)
            .unwrap();
        assert_eq!(est.tau, f64::INFINITY);
    }
}
