//! The four workloads: corpus, registration, query streams, tenants and
//! oracles. Everything a workload sends is a pure function of the
//! workload seed; the server only ever sees the generated inputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use supg_core::runtime::{split_seed, split_unit};
use supg_core::selectors::SelectorConfig;
use supg_core::{
    CachedOracle, FaultPlan, FaultyOracle, PreparedDataset, RetryPolicy, SelectorKind,
    SessionOracle, SupgSession,
};
use supg_datasets::BetaDataset;
use supg_serve::{QuerySpec, QueryTarget, ServerConfig, SupgServer};

/// Query streams per workload. Stream `s` is served by client
/// `s % clients`, so each stream's queries (and, on `joint_tenants`,
/// each tenant's budget) run in one fixed order whatever the client
/// count.
const STREAMS: usize = 256;

/// Every stream's first `ROUNDS` queries form the scored prefix:
/// 1,024 queries that every run completes, checks in full and scores
/// against ground truth.
const ROUNDS: usize = 4;

/// The tenant that pays for the set-up query.
pub const SETUP_TENANT: &str = "setup";

/// The tenant of the single-tenant workloads.
const SHARED_TENANT: &str = "all";

/// `joint_tenants` grants each tenant one budget refill every `PERIOD`
/// of its queries.
const PERIOD: usize = 10;

/// Mean oracle calls a `joint_tenants` query bills, as a share of the
/// corpus (the exhaustive filter labels the whole recall-stage
/// candidate set, ≈ 16% of this corpus).
const JT_BILL_SHARE: f64 = 0.16;

/// A refill covers this many mean JT bills per period of `PERIOD`
/// queries; the shortfall is what makes about one query in ten shed.
const REFILL_BILLS: f64 = 8.5;

/// Per-record latency of the `slow_oracle` source.
const SLOW_ORACLE_LATENCY: Duration = Duration::from_micros(50);

/// Seeded transient-fault rate of the `joint_tenants` oracles.
const TRANSIENT_RATE: f64 = 0.01;

const TAG_DATA: u64 = 0xDA7A;
const TAG_QUERY: u64 = 0x0E27;
const TAG_SETUP: u64 = 0x5E7F;
const TAG_FAULT: u64 = 0xFA17;
const TAG_RECIPE: u64 = 0x2EC1;

/// Which of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Warm 1M-record RT: materialization and oracle bookkeeping.
    WarmRecall,
    /// Segmented 500k-record PT with a never-seen recipe per query.
    ColdPrecision,
    /// 200k-record JT over 256 budgeted tenants and a faulty oracle.
    JointTenants,
    /// 200k-record RT against a 50 µs-per-record oracle.
    SlowOracle,
}

impl Kind {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::WarmRecall,
        Kind::ColdPrecision,
        Kind::JointTenants,
        Kind::SlowOracle,
    ];

    /// The workload's name on the command line and in the pool.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmRecall => "warm_recall",
            Kind::ColdPrecision => "cold_precision",
            Kind::JointTenants => "joint_tenants",
            Kind::SlowOracle => "slow_oracle",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The ground truth of a generated corpus, which the oracles and the
/// quality checks read.
pub struct Corpus {
    pub labels: Arc<Vec<bool>>,
    pub positives: usize,
}

/// Wall time of the three set-up steps.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub register: Duration,
    pub warm: Duration,
    pub first_query: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.register + self.warm + self.first_query
    }
}

/// A server set up for a workload.
pub struct Deployment {
    pub server: SupgServer,
    pub prepared: Arc<PreparedDataset>,
    pub times: SetupTimes,
    /// Oracle calls the set-up query consumed (billed to
    /// [`SETUP_TENANT`]).
    pub setup_calls: usize,
}

/// The traced run times one in `SAMPLE_EVERY` per-record calls (and
/// scales up): a clock read costs about as much as an in-memory label.
pub const SAMPLE_EVERY: u32 = 8;

/// Per-query counters filled in by the oracle's label closure in the
/// traced run, from the worker threads that call it.
#[derive(Debug, Default)]
pub struct SourceProbe {
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
}

impl SourceProbe {
    /// Label closure invocations.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Estimated time inside the label closure, summed over workers.
    pub fn busy_ns(&self) -> u64 {
        let timed = self.timed.load(Ordering::Relaxed);
        if timed == 0 {
            return 0;
        }
        let ns = self.timed_ns.load(Ordering::Relaxed) as f64;
        (ns * self.calls() as f64 / timed as f64) as u64
    }
}

/// One workload at one size.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub records: usize,
    pub streams: usize,
    pub rounds: usize,
    tenants: Vec<String>,
}

impl Workload {
    /// The workload at its benchmark size.
    pub fn new(kind: Kind) -> Self {
        let records = match kind {
            Kind::WarmRecall => 1_000_000,
            Kind::ColdPrecision => 500_000,
            Kind::JointTenants | Kind::SlowOracle => 200_000,
        };
        Self::sized(kind, records, STREAMS, ROUNDS)
    }

    /// The workload over a corpus of `records` with `streams` streams
    /// of which the first `rounds` queries are scored.
    pub fn sized(kind: Kind, records: usize, streams: usize, rounds: usize) -> Self {
        let tenants = (0..streams)
            .map(|s| match kind {
                Kind::JointTenants => format!("t{s:03}"),
                _ => SHARED_TENANT.to_owned(),
            })
            .collect();
        Self {
            kind,
            records,
            streams,
            rounds,
            tenants,
        }
    }

    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Generates the corpus: Beta(0.05, 2) proxy scores, which go to
    /// the pool, with Bernoulli(score) labels, the `serving_workload`
    /// generator.
    pub fn corpus(&self, seed: u64) -> (Vec<f64>, Corpus) {
        let (scores, labels) = BetaDataset::new(0.05, 2.0, self.records)
            .generate(split_seed(seed, TAG_DATA))
            .into_parts();
        let positives = labels.iter().filter(|&&l| l).count();
        let corpus = Corpus {
            labels: Arc::new(labels),
            positives,
        };
        (scores, corpus)
    }

    /// The tenant stream `stream` bills.
    pub fn tenant(&self, stream: usize) -> &str {
        &self.tenants[stream]
    }

    /// Whether every stream is a tenant of its own with a finite budget;
    /// otherwise all streams share one unlimited tenant.
    pub fn budgeted(&self) -> bool {
        self.kind == Kind::JointTenants
    }

    /// Distinct tenants with their initial budgets.
    pub fn initial_budgets(&self) -> Vec<(String, usize)> {
        if self.budgeted() {
            (0..self.streams)
                .map(|s| (self.tenants[s].clone(), self.initial_budget(s)))
                .collect()
        } else {
            vec![(SHARED_TENANT.to_owned(), usize::MAX)]
        }
    }

    /// Mean oracle calls one `joint_tenants` query bills.
    fn mean_bill(&self) -> f64 {
        JT_BILL_SHARE * self.records as f64
    }

    /// A `joint_tenants` refill: `REFILL_BILLS` mean bills.
    fn refill(&self) -> usize {
        (REFILL_BILLS * self.mean_bill()) as usize
    }

    /// The initial budget of stream `stream`'s tenant. A budgeted
    /// tenant starts `stream % PERIOD` queries into its refill period,
    /// with the budget those queries would have left, so sheds spread
    /// evenly over every round, the scored prefix included.
    pub fn initial_budget(&self, stream: usize) -> usize {
        if !self.budgeted() {
            return usize::MAX;
        }
        let phase = (stream % PERIOD) as f64;
        ((REFILL_BILLS - phase).max(0.0) * self.mean_bill()) as usize
    }

    /// The refill granted to stream `stream`'s tenant just before its
    /// query `j`, if any.
    pub fn grant_before(&self, stream: usize, j: usize) -> Option<usize> {
        (self.budgeted() && j > 0 && (j + stream % PERIOD).is_multiple_of(PERIOD))
            .then(|| self.refill())
    }

    /// The seed of stream `stream`'s query `j`.
    pub fn query_seed(&self, seed: u64, stream: usize, j: usize) -> u64 {
        split_seed(
            split_seed(split_seed(seed, TAG_QUERY), stream as u64),
            j as u64,
        )
    }

    /// The seed of the set-up query.
    pub fn setup_seed(&self, seed: u64) -> u64 {
        split_seed(seed, TAG_SETUP)
    }

    /// The query a client sends for `qseed`.
    pub fn spec(&self, qseed: u64) -> QuerySpec {
        match self.kind {
            Kind::WarmRecall => {
                QuerySpec::recall(0.9, 1_000).with_selector(SelectorKind::ImportanceSampling)
            }
            Kind::ColdPrecision => {
                // A never-seen recipe, otherwise a default spec.
                let recipe = split_seed(qseed, TAG_RECIPE);
                let config = SelectorConfig::default()
                    .with_exponent(0.3 + 0.4 * split_unit(recipe, 0))
                    .with_mix(0.05 + 0.2 * split_unit(recipe, 1));
                QuerySpec::precision(0.95, 1_000)
                    .with_selector(SelectorKind::ImportanceSampling)
                    .with_config(config)
            }
            Kind::JointTenants => {
                QuerySpec::joint(0.9, 0.9, 1_000).with_retry(RetryPolicy::default())
            }
            Kind::SlowOracle => QuerySpec::recall(0.9, 500),
        }
        .with_delta(0.05)
        .with_seed(qseed)
    }

    /// The oracle a client brings for one query. With a probe, the
    /// label closure also counts and times its own invocations.
    pub fn oracle(
        &self,
        labels: &Arc<Vec<bool>>,
        spec: &QuerySpec,
        qseed: u64,
        probe: Option<Arc<SourceProbe>>,
    ) -> Box<dyn SessionOracle> {
        let labels = Arc::clone(labels);
        let n = labels.len();
        let slow = self.kind == Kind::SlowOracle;
        let cached = match probe {
            None if slow => CachedOracle::parallel(n, spec.budget, move |i| {
                std::thread::sleep(SLOW_ORACLE_LATENCY);
                labels[i]
            }),
            None => CachedOracle::parallel(n, spec.budget, move |i| labels[i]),
            Some(probe) => CachedOracle::parallel(n, spec.budget, move |i| {
                let timed =
                    probe.calls.fetch_add(1, Ordering::Relaxed) % u64::from(SAMPLE_EVERY) == 0;
                let start = timed.then(Instant::now);
                if slow {
                    std::thread::sleep(SLOW_ORACLE_LATENCY);
                }
                let label = labels[i];
                if let Some(start) = start {
                    probe.timed.fetch_add(1, Ordering::Relaxed);
                    probe
                        .timed_ns
                        .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                label
            }),
        };
        match self.kind {
            Kind::JointTenants => Box::new(FaultyOracle::new(
                cached,
                FaultPlan::new(split_seed(qseed, TAG_FAULT)).with_transient_rate(TRANSIENT_RATE),
            )),
            _ => Box::new(cached),
        }
    }

    /// Registers the corpus, warms it and serves the first query,
    /// timing each step. Tenant registration happens before the clock.
    pub fn set_up(
        &self,
        scores: Vec<f64>,
        labels: &Arc<Vec<bool>>,
        seed: u64,
    ) -> Result<Deployment, String> {
        let server = SupgServer::new(ServerConfig::default());
        server.tenants().register(SETUP_TENANT, usize::MAX);
        for (name, budget) in self.initial_budgets() {
            server.tenants().register(name, budget);
        }
        let pool = server.pool();

        let start = Instant::now();
        let prepared = match self.kind {
            Kind::ColdPrecision => {
                let prepared = pool
                    .register_segmented(self.name(), scores, self.records.div_ceil(8))
                    .map_err(|e| format!("register: {e}"))?;
                prepared.set_cache_capacity(8);
                prepared
            }
            _ => pool
                .register_scores(self.name(), scores)
                .map_err(|e| format!("register: {e}"))?,
        };
        let register = start.elapsed();

        let start = Instant::now();
        pool.warm(self.name(), &SelectorConfig::default())
            .map_err(|e| format!("warm: {e}"))?;
        let warm = start.elapsed();

        let qseed = self.setup_seed(seed);
        let spec = self.spec(qseed);
        let mut oracle = self.oracle(labels, &spec, qseed, None);
        let start = Instant::now();
        let outcome = server
            .serve(SETUP_TENANT, self.name(), &spec, &mut *oracle)
            .map_err(|e| format!("set-up query: {e}"))?;
        let first_query = start.elapsed();

        Ok(Deployment {
            server,
            prepared,
            times: SetupTimes {
                register,
                warm,
                first_query,
            },
            setup_calls: outcome.oracle_calls,
        })
    }
}

/// The session `SupgServer::serve` builds for `spec`, through the
/// public builder.
pub fn session(spec: &QuerySpec, prepared: Arc<PreparedDataset>) -> SupgSession<'static> {
    let session = SupgSession::over_shared(prepared)
        .delta(spec.delta)
        .selector_config(spec.config)
        .seed(spec.seed);
    let session = match spec.selector {
        Some(kind) => session.selector(kind),
        None => session,
    };
    match spec.target {
        QueryTarget::Recall(gamma) => session.recall(gamma).budget(spec.budget),
        QueryTarget::Precision(gamma) => session.precision(gamma).budget(spec.budget),
        QueryTarget::Joint { recall, precision } => session
            .recall(recall)
            .precision(precision)
            .joint(spec.budget),
    }
}
