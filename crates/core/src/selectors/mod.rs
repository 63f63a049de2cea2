//! Threshold-estimation algorithms (paper §5).
//!
//! Every algorithm consumes the oracle budget to label a sample and returns
//! a proxy-score threshold `τ`; Algorithm 1 (the [`crate::executor`]) then
//! answers the query with `R = {labeled positives} ∪ {x : A(x) ≥ τ}`.
//!
//! | Paper name | Type | Guarantee |
//! |---|---|---|
//! | U-NoCI-R / U-NoCI-P (§5.1, = NoScope / probabilistic predicates) | [`UniformNoCiRecall`], [`UniformNoCiPrecision`] | none |
//! | U-CI-R (Algorithm 2) | [`UniformRecall`] | `Pr[recall ≥ γ] ≥ 1−δ` |
//! | U-CI-P (Algorithm 3) | [`UniformPrecision`] | `Pr[precision ≥ γ] ≥ 1−δ` |
//! | IS-CI-R (Algorithm 4) | [`ImportanceRecall`] | `Pr[recall ≥ γ] ≥ 1−δ` |
//! | one-stage IS precision (Figure 7) | [`ImportancePrecision`] | `Pr[precision ≥ γ] ≥ 1−δ` |
//! | IS-CI-P (Algorithm 5, two-stage) | [`TwoStagePrecision`] | `Pr[precision ≥ γ] ≥ 1−δ` |
//!
//! All guaranteed selectors are generic over the confidence-bound method
//! ([`supg_stats::CiMethod`]) for the paper's §6.4 sensitivity study, and
//! the importance selectors expose the weight exponent (Figure 12) and the
//! defensive mixing ratio (Figure 11).

mod importance;
mod naive;
pub mod reference;
mod two_stage;
mod uniform;

pub use importance::{ImportancePrecision, ImportanceRecall};
pub use naive::{UniformNoCiPrecision, UniformNoCiRecall};
pub use two_stage::TwoStagePrecision;
pub use uniform::{UniformPrecision, UniformRecall};

use rand::RngCore;
use supg_stats::ci::{ratio_bounds_paired, CiMethod};

use crate::error::SupgError;
use crate::oracle::Oracle;
use crate::prepared::{DataView, SamplerStrategy};
use crate::query::ApproxQuery;
use crate::sample::OracleSample;

/// Shared tuning knobs for the guaranteed selectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorConfig {
    /// Confidence-bound method (default: the paper's Lemma-1 normal bound).
    pub ci: CiMethod,
    /// Exponent applied to proxy scores when building importance weights.
    /// The paper proves 0.5 optimal (Theorem 1) and sweeps it in Figure 12.
    pub weight_exponent: f64,
    /// Defensive uniform mixing ratio of Algorithms 4–5 (paper: 0.1).
    pub uniform_mix: f64,
    /// Candidate-threshold stride `m` of Algorithms 3 and 5 (paper: 100).
    pub precision_step: usize,
    /// Weighted-sampler backend the importance selectors draw through
    /// (default [`SamplerStrategy::Alias`]; `Cdf`/`Auto` trade the alias
    /// table's O(n) construction for O(log n) draws on cold one-shot
    /// queries — see [`SamplerStrategy`] for the seed-stream contract).
    pub sampler: SamplerStrategy,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        Self {
            ci: CiMethod::PaperNormal,
            weight_exponent: 0.5,
            uniform_mix: 0.1,
            precision_step: 100,
            sampler: SamplerStrategy::Alias,
        }
    }
}

impl SelectorConfig {
    /// Config with a different confidence-interval method.
    pub fn with_ci(mut self, ci: CiMethod) -> Self {
        self.ci = ci;
        self
    }

    /// Config with a different importance-weight exponent.
    pub fn with_exponent(mut self, exponent: f64) -> Self {
        self.weight_exponent = exponent;
        self
    }

    /// Config with a different defensive mixing ratio.
    pub fn with_mix(mut self, mix: f64) -> Self {
        self.uniform_mix = mix;
        self
    }

    /// Config with a different candidate stride `m`.
    pub fn with_precision_step(mut self, step: usize) -> Self {
        self.precision_step = step;
        self
    }

    /// Config with a different weighted-sampler backend.
    pub fn with_sampler(mut self, sampler: SamplerStrategy) -> Self {
        self.sampler = sampler;
        self
    }
}

/// A fresh, unshared preparation of `data` — what a cold session runs
/// over — for the selector unit tests.
#[cfg(test)]
pub(crate) fn cold(data: &crate::data::ScoredDataset) -> crate::prepared::PreparedDataset {
    crate::prepared::PreparedDataset::new(data.clone())
}

/// A selector's output: the estimated threshold plus the labeled sample
/// (whose positives become the `R1` part of the final result).
#[derive(Debug, Clone)]
pub struct TauEstimate {
    /// Estimated proxy threshold. `0.0` selects the entire dataset;
    /// `f64::INFINITY` selects nothing beyond the labeled positives.
    pub tau: f64,
    /// Every record labeled while estimating (all stages concatenated).
    pub sample: OracleSample,
}

/// A threshold-estimation algorithm (`SampleOracle` + `EstimateTau` of the
/// paper's Algorithm 1). Object-safe so experiment harnesses can mix
/// selectors freely.
pub trait ThresholdSelector {
    /// Short name as used in the paper's figures (e.g. `"IS-CI-R"`).
    fn name(&self) -> &'static str;

    /// Samples records, labels them through `oracle` and estimates `τ`.
    ///
    /// `view` carries the dataset plus — for sessions running over a
    /// [`PreparedDataset`](crate::prepared::PreparedDataset) — the shared
    /// sampling-artifact cache the importance selectors amortize their
    /// O(n) setup through.
    ///
    /// # Errors
    /// Propagates oracle failures; selectors never exceed `query.budget()`
    /// distinct oracle calls.
    fn estimate(
        &self,
        view: DataView<'_>,
        query: &ApproxQuery,
        oracle: &mut dyn Oracle,
        rng: &mut dyn RngCore,
    ) -> Result<TauEstimate, SupgError>;
}

/// Shared core of the recall selectors (Algorithms 2 and 4): pick the
/// empirical threshold, inflate the recall target to `γ′` via the UB/LB
/// split, and re-pick.
///
/// Sweep form: the split indicators `z1`/`z2` are never materialized —
/// their moment sketches come from **one fused pass** over the sample's
/// contiguous canonical `y` array (each element folds into exactly one
/// sketch; the zero padding collapses to O(1) absorption — see
/// [`OracleSample::z_sketches`]), so the whole routine is O(s) with a
/// small constant and zero allocation (closed-form CI methods).
/// Bit-identical to [`reference::recall_threshold_naive`], which
/// materializes the split.
pub fn recall_threshold(
    sample: &OracleSample,
    gamma: f64,
    delta: f64,
    ci: CiMethod,
    rng: &mut dyn RngCore,
) -> f64 {
    let Some(tau_hat) = sample.max_tau_for_recall(gamma) else {
        // No positives sampled: no information about recall — the only
        // conservative choice is to return everything.
        return 0.0;
    };
    let cut = sample.cut_for(tau_hat);
    let (z1, z2) = sample.z_sketches(cut);
    let ub1 = ci.upper_sketch(&z1, delta / 2.0, rng, |r| sample.z_value(r, cut, true));
    let lb2 = ci
        .lower_sketch(&z2, delta / 2.0, rng, |r| sample.z_value(r, cut, false))
        .max(0.0);
    if !ub1.is_finite() || ub1 <= 0.0 {
        return 0.0;
    }
    let gamma_prime = (ub1 / (ub1 + lb2)).min(1.0);
    sample.max_tau_for_recall(gamma_prime).unwrap_or(0.0)
}

/// Shared core of the precision selectors (Algorithms 3 and 5): evaluate a
/// lower precision bound on every `m`-th order statistic of the sampled
/// scores with a union-bound-corrected per-candidate `δ`, and return the
/// smallest certified threshold (`f64::INFINITY` when none certifies).
///
/// Sweep form: candidates are read off the sample's canonical index and
/// each candidate's bound comes from an O(1)
/// [`window_sketch`](OracleSample::window_sketch) lookup — O(s log s)
/// total (the assembly sort) instead of the naive O(M·s) rescan, with
/// zero allocation after sample assembly for the closed-form CI methods.
/// Bit-identical to [`reference::precision_threshold_naive`].
pub fn precision_threshold(
    sample: &OracleSample,
    gamma: f64,
    delta_budget: f64,
    cfg: &SelectorConfig,
    rng: &mut dyn RngCore,
) -> f64 {
    assert!(
        cfg.precision_step > 0,
        "precision_threshold: step must be > 0"
    );
    let s = sample.len();
    let step = cfg.precision_step;
    // The paper budgets δ/M with M = ⌈s/m⌉, fixed before seeing labels.
    let m_hypotheses = s.div_ceil(step).max(1);
    let per_candidate = delta_budget / m_hypotheses as f64;
    let mut prev: Option<f64> = None;
    let mut i = step;
    while i <= s {
        // Ascending candidate at 1-indexed order statistic i, dedup'd so
        // tied candidates are evaluated (and charge the rng stream) once.
        let tau = sample.sorted_scores()[s - i];
        i += step;
        if prev == Some(tau) {
            continue;
        }
        prev = Some(tau);
        let cut = sample.cut_for(tau);
        let sketch = sample.window_sketch(cut);
        let bounds =
            ratio_bounds_paired(&sketch, per_candidate, cfg.ci, rng, |r| sample.pair_at(r));
        if bounds.lower > gamma {
            // Candidates ascend, so the first certified one is the minimum.
            return tau;
        }
    }
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn synthetic_sample(n: usize, positives_high: usize) -> OracleSample {
        // `positives_high` positives with high scores, the rest negatives
        // spread below.
        let mut indices = Vec::new();
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            indices.push(i);
            if i < positives_high {
                scores.push(0.9 - 0.001 * i as f64);
                labels.push(true);
            } else {
                scores.push(0.5 - 0.0001 * i as f64);
                labels.push(false);
            }
        }
        OracleSample::from_parts(indices, scores, labels, vec![1.0; n])
    }

    #[test]
    fn recall_threshold_is_below_empirical() {
        let sample = synthetic_sample(1000, 50);
        let mut rng = StdRng::seed_from_u64(1);
        let empirical = sample.max_tau_for_recall(0.9).unwrap();
        let tau = recall_threshold(&sample, 0.9, 0.05, CiMethod::PaperNormal, &mut rng);
        assert!(
            tau <= empirical,
            "guaranteed τ {tau} must be ≤ empirical {empirical}"
        );
        assert!(tau > 0.0);
    }

    #[test]
    fn recall_threshold_no_positives_returns_zero() {
        let sample = synthetic_sample(100, 0);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            recall_threshold(&sample, 0.9, 0.05, CiMethod::PaperNormal, &mut rng),
            0.0
        );
    }

    #[test]
    fn precision_threshold_certifies_pure_region() {
        let sample = synthetic_sample(1000, 200);
        let cfg = SelectorConfig::default().with_precision_step(50);
        let mut rng = StdRng::seed_from_u64(3);
        let tau = precision_threshold(&sample, 0.9, 0.05, &cfg, &mut rng);
        // Everything above 0.5 is a positive, so a certified τ exists near
        // or just below the top of the negative band (the first few
        // negatives cost almost no precision).
        assert!(tau.is_finite());
        assert!(tau > 0.45, "tau {tau}");
        // And its true precision is indeed ≥ 0.9 (here: 1.0).
        let (ys, xs) = sample.precision_pairs(tau);
        let p = ys.iter().sum::<f64>() / xs.iter().sum::<f64>();
        assert!(p >= 0.9);
    }

    #[test]
    fn precision_threshold_gives_up_when_unattainable() {
        // All negatives: no threshold can be certified.
        let sample = synthetic_sample(500, 0);
        let cfg = SelectorConfig::default();
        let mut rng = StdRng::seed_from_u64(4);
        let tau = precision_threshold(&sample, 0.9, 0.05, &cfg, &mut rng);
        assert_eq!(tau, f64::INFINITY);
    }

    #[test]
    fn config_builders() {
        let cfg = SelectorConfig::default()
            .with_exponent(1.0)
            .with_mix(0.3)
            .with_precision_step(200)
            .with_ci(CiMethod::Hoeffding);
        assert_eq!(cfg.weight_exponent, 1.0);
        assert_eq!(cfg.uniform_mix, 0.3);
        assert_eq!(cfg.precision_step, 200);
        assert_eq!(cfg.ci, CiMethod::Hoeffding);
    }
}
