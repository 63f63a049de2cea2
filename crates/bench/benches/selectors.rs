//! Threshold-selector latency across dataset sizes and budgets — the
//! query-processing cost that Table 5 prices (it must be negligible
//! against proxy/oracle execution).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

use supg_core::selectors::{SelectorConfig, ThresholdSelector};
use supg_core::{
    ApproxQuery, CachedOracle, DataView, PreparedDataset, ScoredDataset, SelectorKind, TargetKind,
};
use supg_datasets::BetaDataset;

struct Bench {
    data: ScoredDataset,
    labels: Vec<bool>,
}

fn setup(n: usize) -> Bench {
    let (scores, labels) = BetaDataset::new(0.01, 2.0, n).generate(7).into_parts();
    Bench {
        data: ScoredDataset::new(scores).unwrap(),
        labels,
    }
}

fn run_selector(bench: &Bench, selector: &dyn ThresholdSelector, query: &ApproxQuery) {
    let labels = bench.labels.clone();
    let mut oracle = CachedOracle::new(labels.len(), query.budget(), move |i| labels[i]);
    let mut rng = StdRng::seed_from_u64(11);
    selector
        .estimate(
            DataView::prepared(&PreparedDataset::new(bench.data.clone())),
            query,
            &mut oracle,
            &mut rng,
        )
        .expect("selector failed");
}

fn bench_selectors_by_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("selector_by_n");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_millis(500));
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let bench = setup(n);
        let budget = 1_000;
        let rt = ApproxQuery::recall_target(0.9, 0.05, budget);
        let pt = ApproxQuery::precision_target(0.9, 0.05, budget);
        // Every registry algorithm, labeled by its paper identifier.
        for kind in SelectorKind::ALL {
            for (target, query) in [(TargetKind::Recall, &rt), (TargetKind::Precision, &pt)] {
                let Ok(selector) = kind.build(target, SelectorConfig::default()) else {
                    continue;
                };
                let name = kind.paper_name(target).expect("buildable implies named");
                g.bench_with_input(BenchmarkId::new(name, n), &bench, |b, bench| {
                    b.iter(|| run_selector(bench, selector.as_ref(), query))
                });
            }
        }
    }
    g.finish();
}

fn bench_selectors_by_budget(c: &mut Criterion) {
    let mut g = c.benchmark_group("selector_by_budget");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_millis(500));
    let bench = setup(500_000);
    for &budget in &[1_000usize, 10_000] {
        let rt = ApproxQuery::recall_target(0.9, 0.05, budget);
        let sel = SelectorKind::ImportanceSampling
            .build(TargetKind::Recall, SelectorConfig::default())
            .expect("registry entry");
        g.bench_with_input(BenchmarkId::new("IS-CI-R", budget), &bench, |b, bench| {
            b.iter(|| run_selector(bench, sel.as_ref(), &rt))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_selectors_by_size, bench_selectors_by_budget);
criterion_main!(benches);
