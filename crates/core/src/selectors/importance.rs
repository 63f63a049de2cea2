//! Importance sampling with confidence intervals: Algorithm 4 (recall) and
//! the one-stage precision variant compared in the paper's Figure 7.

use rand::RngCore;

use super::{
    precision_threshold, recall_threshold, SelectorConfig, TauEstimate, ThresholdSelector,
};
use crate::error::SupgError;
use crate::oracle::Oracle;
use crate::prepared::DataView;
use crate::query::{ApproxQuery, TargetKind};
use crate::sample::draw_weighted;

/// `IS-CI-R` (Algorithm 4): weighted sampling with `A(x)^p` weights
/// (default `p = 1/2`, the Theorem-1 optimum) defensively mixed with 10%
/// uniform mass, reweighted recall estimates, and the same `γ′`
/// conservative-target construction as Algorithm 2.
/// Guarantees `Pr[Recall(R) ≥ γ] ≥ 1 − δ`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImportanceRecall {
    cfg: SelectorConfig,
}

impl ImportanceRecall {
    /// Creates the selector with the given configuration.
    pub fn new(cfg: SelectorConfig) -> Self {
        Self { cfg }
    }

    /// The "Importance, prop" baseline of Figure 8: proportional (`p = 1`)
    /// weights instead of the optimal square root.
    pub fn proportional() -> Self {
        Self::new(SelectorConfig::default().with_exponent(1.0))
    }
}

impl ThresholdSelector for ImportanceRecall {
    fn name(&self) -> &'static str {
        "IS-CI-R"
    }

    fn estimate(
        &self,
        view: DataView<'_>,
        query: &ApproxQuery,
        oracle: &mut dyn Oracle,
        rng: &mut dyn RngCore,
    ) -> Result<TauEstimate, SupgError> {
        debug_assert_eq!(query.target(), TargetKind::Recall);
        let artifacts = view.artifacts_with(
            self.cfg.weight_exponent,
            self.cfg.uniform_mix,
            self.cfg.sampler,
        );
        let sample = draw_weighted(view.data(), &artifacts, query.budget(), oracle, rng)?;
        let tau = recall_threshold(&sample, query.gamma(), query.delta(), self.cfg.ci, rng);
        Ok(TauEstimate { tau, sample })
    }
}

/// One-stage importance-sampled precision selector: Algorithm 3's candidate
/// search over a weighted sample with reweighted (ratio-estimator) precision
/// bounds. The paper plots this as "Importance, one-stage" in Figure 7;
/// [`super::TwoStagePrecision`] usually dominates it.
/// Guarantees `Pr[Precision(R) ≥ γ] ≥ 1 − δ`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImportancePrecision {
    cfg: SelectorConfig,
}

impl ImportancePrecision {
    /// Creates the selector with the given configuration.
    pub fn new(cfg: SelectorConfig) -> Self {
        Self { cfg }
    }
}

impl ThresholdSelector for ImportancePrecision {
    fn name(&self) -> &'static str {
        "IS-CI-P-1stage"
    }

    fn estimate(
        &self,
        view: DataView<'_>,
        query: &ApproxQuery,
        oracle: &mut dyn Oracle,
        rng: &mut dyn RngCore,
    ) -> Result<TauEstimate, SupgError> {
        debug_assert_eq!(query.target(), TargetKind::Precision);
        let artifacts = view.artifacts_with(
            self.cfg.weight_exponent,
            self.cfg.uniform_mix,
            self.cfg.sampler,
        );
        let sample = draw_weighted(view.data(), &artifacts, query.budget(), oracle, rng)?;
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

    /// Rare-positive calibrated dataset in the SUPG regime: uniform
    /// sampling sees almost no positives at modest budgets, importance
    /// sampling sees many.
    fn rare(n: usize, seed: u64) -> (ScoredDataset, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Beta::new(0.05, 2.0);
        let mut scores = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a = dist.sample(&mut rng);
            scores.push(a);
            labels.push(Bernoulli::new(a).sample(&mut rng));
        }
        (ScoredDataset::new(scores).unwrap(), labels)
    }

    fn result_set(data: &ScoredDataset, est: &TauEstimate) -> Vec<usize> {
        let mut result: Vec<usize> = data.select(est.tau).iter().map(|&i| i as usize).collect();
        result.extend(est.sample.positive_indices());
        result.sort_unstable();
        result.dedup();
        result
    }

    #[test]
    fn importance_meets_recall_target() {
        let (data, labels) = rare(50_000, 31);
        let prepared = cold(&data);
        let query = ApproxQuery::recall_target(0.9, 0.05, 2_000);
        let mut failures = 0;
        for t in 0..20 {
            let mut oracle = CachedOracle::from_labels(labels.clone(), 2_000);
            let mut rng = StdRng::seed_from_u64(9000 + t);
            let est = ImportanceRecall::new(SelectorConfig::default())
                .estimate(DataView::prepared(&prepared), &query, &mut oracle, &mut rng)
                .unwrap();
            if evaluate(&result_set(&data, &est), &labels).recall < 0.9 {
                failures += 1;
            }
        }
        assert!(failures <= 2, "{failures}/20 recall failures");
    }

    #[test]
    fn importance_beats_uniform_on_rare_positives() {
        // Result quality for RT queries is precision: IS should return a
        // much smaller (higher-precision) set than U-CI at the same target.
        let (data, labels) = rare(50_000, 32);
        let prepared = cold(&data);
        let query = ApproxQuery::recall_target(0.9, 0.05, 2_000);
        let mut is_prec = 0.0;
        let mut u_prec = 0.0;
        let trials = 5;
        for t in 0..trials {
            let mut o1 = CachedOracle::from_labels(labels.clone(), 2_000);
            let mut o2 = CachedOracle::from_labels(labels.clone(), 2_000);
            let mut r1 = StdRng::seed_from_u64(100 + t);
            let mut r2 = StdRng::seed_from_u64(100 + t);
            let is_est = ImportanceRecall::new(SelectorConfig::default())
                .estimate(DataView::prepared(&prepared), &query, &mut o1, &mut r1)
                .unwrap();
            let u_est = super::super::UniformRecall::new(SelectorConfig::default())
                .estimate(DataView::prepared(&prepared), &query, &mut o2, &mut r2)
                .unwrap();
            is_prec += evaluate(&result_set(&data, &is_est), &labels).precision;
            u_prec += evaluate(&result_set(&data, &u_est), &labels).precision;
        }
        assert!(
            is_prec > u_prec,
            "importance precision {is_prec} vs uniform {u_prec}"
        );
    }

    #[test]
    fn one_stage_precision_meets_target() {
        let (data, labels) = rare(50_000, 33);
        let prepared = cold(&data);
        let query = ApproxQuery::precision_target(0.8, 0.05, 2_000);
        let mut failures = 0;
        for t in 0..20 {
            let mut oracle = CachedOracle::from_labels(labels.clone(), 2_000);
            let mut rng = StdRng::seed_from_u64(7000 + t);
            let est = ImportancePrecision::new(SelectorConfig::default())
                .estimate(DataView::prepared(&prepared), &query, &mut oracle, &mut rng)
                .unwrap();
            if evaluate(&result_set(&data, &est), &labels).precision < 0.8 {
                failures += 1;
            }
        }
        assert!(failures <= 2, "{failures}/20 precision failures");
    }

    #[test]
    fn budget_is_never_exceeded() {
        let (data, labels) = rare(10_000, 34);
        let prepared = cold(&data);
        let query = ApproxQuery::recall_target(0.9, 0.05, 500);
        let mut oracle = CachedOracle::from_labels(labels, 500);
        let mut rng = StdRng::seed_from_u64(35);
        ImportanceRecall::new(SelectorConfig::default())
            .estimate(DataView::prepared(&prepared), &query, &mut oracle, &mut rng)
            .unwrap();
        assert!(oracle.calls_used() <= 500);
    }

    #[test]
    fn proportional_constructor_sets_exponent() {
        let sel = ImportanceRecall::proportional();
        assert_eq!(sel.cfg.weight_exponent, 1.0);
    }
}
