//! Property-based tests for the SUPG core invariants.

use proptest::prelude::*;
use supg_core::selectors::SelectorConfig;
use supg_core::{
    ApproxQuery, BatchOracle, CachedOracle, Oracle, OracleSample, RuntimeConfig, ScoredDataset,
    SelectorKind, SupgSession, TargetKind,
};

/// Strategy: a small dataset of (score, label) pairs with at least one
/// record.
fn dataset_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<bool>)> {
    prop::collection::vec((0.0f64..=1.0, any::<bool>()), 10..300)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

/// Every registry entry as `(kind, target)` pairs.
fn all_registry_pairs() -> Vec<(SelectorKind, TargetKind)> {
    SelectorKind::registry().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn no_selector_ever_exceeds_the_budget(
        (scores, labels) in dataset_strategy(),
        budget in 4usize..60,
        seed in 0u64..1000,
    ) {
        let data = ScoredDataset::new(scores).unwrap();
        for (kind, target) in all_registry_pairs() {
            let query = ApproxQuery::new(target, 0.8, 0.1, budget).unwrap();
            let owned = labels.clone();
            let mut oracle = CachedOracle::new(owned.len(), budget, move |i| owned[i]);
            let result = SupgSession::over(&data)
                .query(&query)
                .selector(kind)
                .selector_config(SelectorConfig::default().with_precision_step(5))
                .seed(seed)
                .run(&mut oracle);
            let name = kind.paper_name(target).unwrap();
            prop_assert!(result.is_ok(), "{name}: {:?}", result.err());
            prop_assert!(oracle.calls_used() <= budget, "{name} overspent");
            prop_assert_eq!(result.unwrap().selector, name);
        }
    }

    #[test]
    fn executor_result_contains_all_sampled_positives(
        (scores, labels) in dataset_strategy(),
        seed in 0u64..1000,
    ) {
        let data = ScoredDataset::new(scores).unwrap();
        let budget = 20;
        let query = ApproxQuery::recall_target(0.9, 0.1, budget);
        let owned = labels.clone();
        let mut oracle = CachedOracle::new(owned.len(), budget, move |i| owned[i]);
        let outcome = SupgSession::over(&data)
            .query(&query)
            .selector(SelectorKind::Uniform)
            .seed(seed)
            .run(&mut oracle)
            .unwrap();
        // Every record the oracle labeled positive must be in the result.
        for idx in oracle.known_positives() {
            prop_assert!(outcome.result.contains(idx));
        }
        // Every returned record is above τ or a known positive.
        for idx in outcome.result.iter() {
            let above = data.score(idx) >= outcome.tau;
            let known = oracle.cached(idx) == Some(true);
            prop_assert!(above || known);
        }
    }

    #[test]
    fn recall_curve_is_monotone_in_tau(
        pairs in prop::collection::vec((0.0f64..=1.0, any::<bool>(), 0.2f64..5.0), 1..100),
    ) {
        let indices: Vec<usize> = (0..pairs.len()).collect();
        let scores: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let labels: Vec<bool> = pairs.iter().map(|p| p.1).collect();
        let weights: Vec<f64> = pairs.iter().map(|p| p.2).collect();
        let sample = OracleSample::from_parts(indices, scores, labels, weights);
        let mut last = f64::INFINITY;
        for i in 0..=20 {
            let tau = i as f64 / 20.0;
            let r = sample.recall_at(tau);
            prop_assert!(r <= last + 1e-9, "recall increased with tau");
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r));
            last = r;
        }
    }

    #[test]
    fn max_tau_for_recall_achieves_requested_recall(
        pairs in prop::collection::vec((0.0f64..=1.0, any::<bool>(), 0.2f64..5.0), 1..100),
        gamma in 0.05f64..=1.0,
    ) {
        let scores: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let labels: Vec<bool> = pairs.iter().map(|p| p.1).collect();
        let weights: Vec<f64> = pairs.iter().map(|p| p.2).collect();
        let sample = OracleSample::from_parts(
            (0..pairs.len()).collect(), scores, labels, weights,
        );
        if let Some(tau) = sample.max_tau_for_recall(gamma) {
            prop_assert!(sample.recall_at(tau) + 1e-9 >= gamma.min(1.0));
        } else {
            prop_assert_eq!(sample.positive_count(), 0);
        }
    }

    #[test]
    fn selection_is_consistent_with_counts(
        scores in prop::collection::vec(0.0f64..=1.0, 1..200),
        tau in 0.0f64..=1.0,
    ) {
        let data = ScoredDataset::new(scores.clone()).unwrap();
        let selected = data.select(tau);
        prop_assert_eq!(selected.len(), data.count_at_least(tau));
        let direct = scores.iter().filter(|&&s| s >= tau).count();
        prop_assert_eq!(selected.len(), direct);
        for &i in selected {
            prop_assert!(scores[i as usize] >= tau);
        }
    }

    #[test]
    fn top_k_is_a_superset_of_k(scores in prop::collection::vec(0.0f64..=1.0, 1..100), k in 1usize..100) {
        let data = ScoredDataset::new(scores).unwrap();
        let top = data.top_k(k);
        prop_assert!(top.len() >= k.min(data.len()));
        // Everything in the top-k set scores at least the k-th score.
        let kth = data.kth_highest_score(k);
        for &i in top {
            prop_assert!(data.score(i as usize) >= kth);
        }
    }

    #[test]
    fn oracle_cache_makes_repeats_free(
        labels in prop::collection::vec(any::<bool>(), 1..100),
        queries in prop::collection::vec(0usize..100, 1..50),
    ) {
        let n = labels.len();
        let mut oracle = CachedOracle::from_labels(labels.clone(), n);
        let mut distinct = std::collections::HashSet::new();
        for q in queries {
            let idx = q % n;
            distinct.insert(idx);
            let got = oracle.label(idx).unwrap();
            prop_assert_eq!(got, labels[idx]);
        }
        prop_assert_eq!(oracle.calls_used(), distinct.len());
    }

    #[test]
    fn batch_native_oracle_matches_the_serial_model(
        labels in prop::collection::vec(any::<bool>(), 1..48),
        raw_batches in prop::collection::vec(prop::collection::vec(0usize..1_000, 0..40), 1..6),
        budget in 0usize..60,
        batch_size in 1usize..8,
    ) {
        // Indices fold into 0..n + 2: small corpora repeat records often
        // (duplicates within and across batches), and the two slots past
        // the end exercise the out-of-range error.
        let n = labels.len();
        let batches: Vec<Vec<usize>> = raw_batches
            .iter()
            .map(|b| b.iter().map(|&r| r % (n + 2)).collect())
            .collect();
        for parallelism in [1, 2, 4] {
            let mut native = CachedOracle::from_labels(labels.clone(), budget).with_runtime(
                RuntimeConfig::default()
                    .with_parallelism(parallelism)
                    .with_batch_size(batch_size),
            );
            let owned = labels.clone();
            let mut model = CachedOracle::new(n, budget, move |i| owned[i]);
            for batch in &batches {
                let got = native.label_batch(batch);
                // The model: record by record, stopping at the first error.
                let expected = batch
                    .iter()
                    .map(|&i| model.label(i))
                    .collect::<Result<Vec<bool>, _>>();
                prop_assert_eq!(&got, &expected, "p={} batch={:?}", parallelism, batch);
                prop_assert_eq!(native.calls_used(), model.calls_used());
                for i in 0..n + 2 {
                    prop_assert_eq!(native.cached(i), model.cached(i), "record {}", i);
                }
                prop_assert_eq!(native.known_positives(), model.known_positives());
            }
        }
    }
}
