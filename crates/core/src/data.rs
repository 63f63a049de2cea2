//! Proxy-scored dataset view shared by selectors, executor and metrics.

use std::sync::{Arc, OnceLock};

use crate::error::SupgError;
use crate::rank::RankIndex;
use crate::runtime::RuntimeConfig;

/// A dataset's proxy scores together with its (lazily built) global
/// [`RankIndex`].
///
/// SUPG evaluates the proxy on every record up front (proxy calls are
/// assumed cheap); the algorithms then work only with scores and record
/// indices. The rank index — the descending-score permutation, its
/// inverse, and the sorted score view — is built **once** per dataset and
/// reused for:
///
/// * `|D(τ)|`, membership and set materialization (`count_at_least`,
///   `select`, [`RankIndex::materialize_union`]),
/// * the top-`k` cutoff of the two-stage precision estimator
///   (`kth_highest_score`),
/// * canonical ordering of oracle samples ([`crate::sample`]),
/// * fast precision/recall evaluation in [`crate::metrics`].
///
/// Construction only validates (O(n)); the O(n log n) sort happens on
/// first use — serially via [`rank_index`](ScoredDataset::rank_index), or
/// eagerly on the worker pool via
/// [`prepare_rank_index`](ScoredDataset::prepare_rank_index) (what
/// [`crate::prepared::PreparedDataset::prepare`] calls). Both produce
/// bit-identical indexes, so when and how the index is built is
/// unobservable in results.
///
/// A `ScoredDataset` is an `Arc`-shared handle: cloning it is O(1), and
/// every clone shares one score buffer and one rank index, built at most
/// once whichever clone asks first.
#[derive(Debug, Clone)]
pub struct ScoredDataset {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    scores: Vec<f64>,
    index: OnceLock<Arc<RankIndex>>,
}

impl ScoredDataset {
    /// Validates scores. The rank index is built lazily on first use.
    ///
    /// # Errors
    /// [`SupgError::EmptyDataset`] for zero records;
    /// [`SupgError::InvalidScore`] if any score is non-finite or outside
    /// `[0, 1]`.
    pub fn new(scores: Vec<f64>) -> Result<Self, SupgError> {
        if scores.is_empty() {
            return Err(SupgError::EmptyDataset);
        }
        if scores.len() > u32::MAX as usize {
            return Err(SupgError::InvalidQuery(
                "datasets above u32::MAX records are unsupported".to_owned(),
            ));
        }
        for (index, &value) in scores.iter().enumerate() {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(SupgError::InvalidScore { index, value });
            }
        }
        Ok(Self {
            inner: Arc::new(Inner {
                scores,
                index: OnceLock::new(),
            }),
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.inner.scores.len()
    }

    /// True when the dataset has no records (construction forbids this,
    /// so this is always false; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.inner.scores.is_empty()
    }

    /// Proxy scores in record order.
    pub fn scores(&self) -> &[f64] {
        &self.inner.scores
    }

    /// Proxy score of record `i`.
    pub fn score(&self, i: usize) -> f64 {
        self.inner.scores[i]
    }

    /// The global rank index, built serially on first call and cached.
    pub fn rank_index(&self) -> &RankIndex {
        self.inner
            .index
            .get_or_init(|| Arc::new(RankIndex::build_serial(self.scores())))
    }

    /// The global rank index, built **on the worker pool** (chunked
    /// sorts combined in pairwise merge rounds) when absent.
    /// Bit-identical to the serial build at any
    /// `parallelism`; a no-op when the index already exists.
    pub fn prepare_rank_index(&self, rt: &RuntimeConfig) -> &RankIndex {
        self.inner
            .index
            .get_or_init(|| Arc::new(RankIndex::build(self.scores(), rt)))
    }

    /// A shared handle to the rank index (building it serially if absent),
    /// for callers that outlive the dataset borrow (benchmarks, services).
    pub fn share_rank_index(&self) -> Arc<RankIndex> {
        self.rank_index();
        Arc::clone(self.inner.index.get().expect("index just initialized"))
    }

    /// Record indices in descending score order (ties ascending by index).
    pub fn order_desc(&self) -> &[u32] {
        self.rank_index().order()
    }

    /// Canonical rank of record `i` (0 = highest score).
    pub fn rank_of(&self, i: usize) -> usize {
        self.rank_index().rank_of(i)
    }

    /// Number of records with `A(x) ≥ tau`, i.e. `|D(τ)|`.
    pub fn count_at_least(&self, tau: f64) -> usize {
        self.rank_index().cut_for(tau)
    }

    /// Record indices with `A(x) ≥ tau`, in descending score order.
    pub fn select(&self, tau: f64) -> &[u32] {
        self.rank_index().select(tau)
    }

    /// The `k`-th highest score (1-indexed). `k` is clamped to `[1, n]`.
    pub fn kth_highest_score(&self, k: usize) -> f64 {
        self.rank_index().kth_highest_score(k)
    }

    /// The top-`k` record indices by score (k clamped to `[1, n]`),
    /// including any records tied with the `k`-th score — so the returned
    /// slice is exactly `D(τ)` for `τ` = the `k`-th highest score.
    pub fn top_k(&self, k: usize) -> &[u32] {
        self.select(self.kth_highest_score(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> ScoredDataset {
        ScoredDataset::new(vec![0.1, 0.9, 0.5, 0.9, 0.0]).unwrap()
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            ScoredDataset::new(vec![]).unwrap_err(),
            SupgError::EmptyDataset
        );
        assert!(matches!(
            ScoredDataset::new(vec![0.5, f64::NAN]),
            Err(SupgError::InvalidScore { index: 1, .. })
        ));
        assert!(matches!(
            ScoredDataset::new(vec![-0.1]),
            Err(SupgError::InvalidScore { index: 0, .. })
        ));
    }

    #[test]
    fn order_is_descending() {
        let d = dataset();
        let sorted: Vec<f64> = d
            .order_desc()
            .iter()
            .map(|&i| d.score(i as usize))
            .collect();
        assert!(sorted.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn rank_is_the_inverse_permutation() {
        let d = dataset();
        for (r, &i) in d.order_desc().iter().enumerate() {
            assert_eq!(d.rank_of(i as usize), r);
        }
    }

    #[test]
    fn lazy_serial_and_pool_builds_agree() {
        let scores: Vec<f64> = (0..40_000)
            .map(|i| ((i * 13) % 101) as f64 / 101.0)
            .collect();
        let lazy = ScoredDataset::new(scores.clone()).unwrap();
        let pooled = ScoredDataset::new(scores).unwrap();
        pooled.prepare_rank_index(&RuntimeConfig::default().with_parallelism(4));
        assert_eq!(lazy.rank_index(), pooled.rank_index());
        // share_rank_index aliases the cached build.
        assert!(std::ptr::eq(
            Arc::as_ptr(&pooled.share_rank_index()),
            pooled.rank_index()
        ));
    }

    #[test]
    fn count_at_least_handles_ties_and_bounds() {
        let d = dataset();
        assert_eq!(d.count_at_least(0.9), 2); // both 0.9 records
        assert_eq!(d.count_at_least(0.91), 0);
        assert_eq!(d.count_at_least(0.5), 3);
        assert_eq!(d.count_at_least(0.0), 5);
        assert_eq!(d.count_at_least(f64::INFINITY), 0);
    }

    #[test]
    fn select_returns_matching_indices() {
        let d = dataset();
        let mut sel: Vec<u32> = d.select(0.5).to_vec();
        sel.sort_unstable();
        assert_eq!(sel, vec![1, 2, 3]);
        assert!(d.select(f64::INFINITY).is_empty());
    }

    #[test]
    fn kth_highest_score_clamps() {
        let d = dataset();
        assert_eq!(d.kth_highest_score(1), 0.9);
        assert_eq!(d.kth_highest_score(2), 0.9);
        assert_eq!(d.kth_highest_score(3), 0.5);
        assert_eq!(d.kth_highest_score(0), 0.9); // clamped to 1
        assert_eq!(d.kth_highest_score(99), 0.0); // clamped to n
    }

    #[test]
    fn top_k_includes_ties() {
        let d = dataset();
        // k = 1 hits the tied 0.9 score, so both tied records come back.
        assert_eq!(d.top_k(1).len(), 2);
        assert_eq!(d.top_k(3).len(), 3);
        assert_eq!(d.top_k(5).len(), 5);
    }
}
