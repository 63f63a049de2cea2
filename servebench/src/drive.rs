//! The untraced closed-loop phase, the output checks, and the
//! end-to-end metrics computed from it.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use supg_core::{CachedOracle, QueryOutcome, SelectionResult};
use supg_serve::{QuerySpec, QueryTarget, ServeError};

use crate::stats;
use crate::workload::{session, Corpus, Deployment, Workload, SETUP_TENANT};

/// Queries replayed through a single-threaded session for the parity
/// check.
const PARITY_QUERIES: usize = 16;

/// How one attempted query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// Refused for tenant budget before running.
    Shed,
    Failed,
}

/// The answer bits of a completed query: what two runs of the same
/// query must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub tau_bits: u64,
    pub k: usize,
    pub fingerprint: u64,
    pub oracle_calls: usize,
}

/// A completed query's accounting.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub k: usize,
    pub oracle_calls: usize,
    pub elapsed_ns: u64,
    pub oracle_ns: u64,
    pub draws: usize,
    pub retries: u64,
    pub parallelism: usize,
    pub batch_size: usize,
    pub cdf: bool,
    /// Set for scored-prefix queries only.
    pub scored: Option<Scored>,
}

/// A scored-prefix query checked in full against ground truth.
#[derive(Debug, Clone, Copy)]
pub struct Scored {
    pub answer: Answer,
    pub quality: f64,
    pub met: bool,
}

/// One attempted query.
#[derive(Debug, Clone)]
pub struct Record {
    pub stream: usize,
    pub j: usize,
    pub status: Status,
    pub wall_ns: u64,
    pub summary: Option<Summary>,
}

/// Everything the untraced phase produced.
pub struct Phase {
    /// Per client, in issue order.
    pub records: Vec<Vec<Record>>,
    pub wall: Duration,
    /// Per tenant, the remaining budget the client-side model expects.
    pub expected_budgets: Vec<(String, usize)>,
    pub violations: Vec<String>,
}

impl Phase {
    pub fn all(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().flatten()
    }

    /// Records of the scored prefix.
    pub fn prefix<'a>(&'a self, w: &'a Workload) -> impl Iterator<Item = &'a Record> {
        self.all().filter(move |r| r.j < w.rounds)
    }
}

/// The client-side model of a tenant budget: what `try_reserve` and
/// `settle` must leave behind. A JT bill beyond the remaining budget
/// saturates at zero.
fn bill(budget: usize, calls: usize) -> usize {
    budget.saturating_sub(calls)
}

/// FNV-1a over the result indices in result order.
fn fingerprint(indices: &[usize]) -> u64 {
    indices.iter().fold(0xcbf2_9ce4_8422_2325, |h, &i| {
        (h ^ i as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Full per-query checks for a scored-prefix query: indices unique and
/// in range, the oracle budget respected, a JT result made of true
/// positives only. Returns the answer and its quality against ground
/// truth: precision for RT, recall for PT and JT.
fn score(
    spec: &QuerySpec,
    outcome: &QueryOutcome,
    corpus_labels: &[bool],
    positives: usize,
    seen: &mut [u64],
) -> Result<Scored, String> {
    let indices = outcome.result.indices();
    let mut hits = 0usize;
    let mut bad = None;
    for &i in indices {
        if i >= corpus_labels.len() {
            bad = Some(format!("index {i} out of range"));
            break;
        }
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if seen[word] & bit != 0 {
            bad = Some(format!("index {i} returned twice"));
            break;
        }
        seen[word] |= bit;
        hits += usize::from(corpus_labels[i]);
    }
    for &i in indices.iter().filter(|&&i| i < corpus_labels.len()) {
        seen[i / 64] = 0;
    }
    if let Some(bad) = bad {
        return Err(bad);
    }
    let k = indices.len();
    let precision = if k == 0 { 1.0 } else { hits as f64 / k as f64 };
    let recall = if positives == 0 {
        1.0
    } else {
        hits as f64 / positives as f64
    };
    let (quality, met) = match spec.target {
        QueryTarget::Recall(gamma) => {
            if outcome.oracle_calls > spec.budget {
                return Err(format!(
                    "{} oracle calls over budget {}",
                    outcome.oracle_calls, spec.budget
                ));
            }
            (precision, recall >= gamma)
        }
        QueryTarget::Precision(gamma) => {
            if outcome.oracle_calls > spec.budget {
                return Err(format!(
                    "{} oracle calls over budget {}",
                    outcome.oracle_calls, spec.budget
                ));
            }
            (recall, precision >= gamma)
        }
        QueryTarget::Joint { recall: gamma, .. } => {
            if outcome.stage_calls > spec.budget {
                return Err(format!(
                    "{} stage calls over stage budget {}",
                    outcome.stage_calls, spec.budget
                ));
            }
            if hits != k {
                return Err(format!("JT result holds {} negatives", k - hits));
            }
            (recall, recall >= gamma)
        }
    };
    Ok(Scored {
        answer: answer(outcome.tau, &outcome.result, outcome.oracle_calls),
        quality,
        met,
    })
}

pub fn answer(tau: f64, result: &SelectionResult, oracle_calls: usize) -> Answer {
    Answer {
        tau_bits: tau.to_bits(),
        k: result.len(),
        fingerprint: fingerprint(result.indices()),
        oracle_calls,
    }
}

fn summarize(outcome: &QueryOutcome, scored: Option<Scored>) -> Summary {
    let plan = outcome.plan.as_deref();
    Summary {
        k: outcome.result.len(),
        oracle_calls: outcome.oracle_calls,
        elapsed_ns: outcome.elapsed.as_nanos() as u64,
        oracle_ns: outcome.oracle_elapsed.as_nanos() as u64,
        draws: outcome.sample_draws,
        retries: outcome.oracle_retries,
        parallelism: plan.map_or(0, |p| p.parallelism),
        batch_size: plan.map_or(0, |p| p.batch_size),
        cdf: plan.is_some_and(|p| p.sampler == supg_core::SamplerStrategy::Cdf),
        scored,
    }
}

/// The streams client `client` of `clients` serves.
fn owned_streams(w: &Workload, client: usize, clients: usize) -> Vec<usize> {
    (client..w.streams).step_by(clients).collect()
}

/// Runs the closed loop: `clients` threads, each sending its streams'
/// queries round-robin and waiting for every reply, until `seconds` have
/// passed and it has finished its scored prefix.
pub fn run_phase(
    w: &Workload,
    dep: &Deployment,
    corpus: &Corpus,
    seed: u64,
    seconds: Duration,
    clients: usize,
) -> Phase {
    let barrier = Barrier::new(clients);
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    client_loop(w, dep, corpus, seed, start + seconds, c, clients)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();

    let mut phase = Phase {
        records: Vec::new(),
        wall,
        expected_budgets: Vec::new(),
        violations: Vec::new(),
    };
    for run in runs {
        phase.records.push(run.records);
        phase.expected_budgets.extend(run.budgets);
        phase.violations.extend(run.violations);
    }
    phase
}

/// What one client saw: its records, its tenants' budgets as the
/// client-side model expects them, and any failed checks.
struct ClientRun {
    records: Vec<Record>,
    budgets: Vec<(String, usize)>,
    violations: Vec<String>,
}

fn client_loop(
    w: &Workload,
    dep: &Deployment,
    corpus: &Corpus,
    seed: u64,
    deadline: Instant,
    client: usize,
    clients: usize,
) -> ClientRun {
    let streams = owned_streams(w, client, clients);
    let mut budgets: Vec<usize> = streams.iter().map(|&s| w.initial_budget(s)).collect();
    let mut seen = vec![0u64; corpus.labels.len().div_ceil(64)];
    let mut records = Vec::new();
    let mut violations = Vec::new();

    'run: for j in 0.. {
        for (slot, &s) in streams.iter().enumerate() {
            if j >= w.rounds && Instant::now() >= deadline {
                break 'run;
            }
            let tenant = w.tenant(s);
            if let Some(grant) = w.grant_before(s, j) {
                dep.server
                    .tenants()
                    .get(tenant)
                    .expect("tenant registered")
                    .add_budget(grant);
                budgets[slot] += grant;
            }
            let qseed = w.query_seed(seed, s, j);
            let spec = w.spec(qseed);
            let mut oracle = w.oracle(&corpus.labels, &spec, qseed, None);

            let t0 = Instant::now();
            let result = dep.server.serve(tenant, w.name(), &spec, &mut *oracle);
            let wall_ns = t0.elapsed().as_nanos() as u64;

            let (status, summary) = match result {
                Ok(outcome) => {
                    let scored = if j < w.rounds {
                        match score(&spec, &outcome, &corpus.labels, corpus.positives, &mut seen) {
                            Ok(s) => Some(s),
                            Err(e) => {
                                violations.push(format!("stream {s} query {j}: {e}"));
                                None
                            }
                        }
                    } else {
                        None
                    };
                    if budgets[slot] < spec.declared_calls() {
                        violations.push(format!(
                            "stream {s} query {j}: admitted with {} < {} budget",
                            budgets[slot],
                            spec.declared_calls()
                        ));
                    }
                    budgets[slot] = bill(budgets[slot], outcome.oracle_calls);
                    (Status::Ok, Some(summarize(&outcome, scored)))
                }
                Err(ServeError::BudgetExhausted { .. }) => {
                    if budgets[slot] >= spec.declared_calls() {
                        violations.push(format!(
                            "stream {s} query {j}: shed with {} budget left",
                            budgets[slot]
                        ));
                    }
                    (Status::Shed, None)
                }
                Err(e) => {
                    eprintln!("stream {s} query {j} failed: {e}");
                    (Status::Failed, None)
                }
            };
            records.push(Record {
                stream: s,
                j,
                status,
                wall_ns,
                summary,
            });
        }
    }
    // A shared tenant's budget is checked over all clients at the end.
    let expected = if w.budgeted() {
        streams
            .iter()
            .zip(budgets)
            .map(|(&s, b)| (w.tenant(s).to_owned(), b))
            .collect()
    } else {
        Vec::new()
    };
    ClientRun {
        records,
        budgets: expected,
        violations,
    }
}

/// Conservation at quiescence: every attempt is accounted for once,
/// every oracle call is counted identically by the clients, the server
/// and the tenants, and every tenant's budget matches the client-side
/// model.
pub fn check_conservation(w: &Workload, dep: &Deployment, phase: &Phase) -> Vec<String> {
    let mut problems = Vec::new();
    let m = dep.server.metrics();
    let attempted = phase.all().count() as u64 + 1;
    let accounted =
        m.queries_ok + m.queries_failed + m.shed_overload + m.shed_budget + m.shed_circuit;
    if attempted != accounted {
        problems.push(format!(
            "attempted {attempted} != ok + failed + shed {accounted}"
        ));
    }
    let client_calls: u64 = phase
        .all()
        .filter_map(|r| r.summary.map(|s| s.oracle_calls as u64))
        .sum::<u64>()
        + dep.setup_calls as u64;
    let names = dep.server.tenants().names();
    let tenant_calls: u64 = names
        .iter()
        .map(|n| {
            dep.server
                .tenants()
                .get(n)
                .expect("listed tenant")
                .stats()
                .oracle_calls
        })
        .sum();
    if client_calls != m.oracle_calls || client_calls != tenant_calls {
        problems.push(format!(
            "oracle calls: clients {client_calls}, server {}, tenants {tenant_calls}",
            m.oracle_calls
        ));
    }

    let mut expected = phase.expected_budgets.clone();
    expected.push((SETUP_TENANT.to_owned(), usize::MAX - dep.setup_calls));
    if !w.budgeted() {
        let used: usize = phase
            .all()
            .filter_map(|r| r.summary.map(|s| s.oracle_calls))
            .sum();
        expected.push((w.tenant(0).to_owned(), usize::MAX - used));
    }
    for (name, budget) in expected {
        let remaining = dep
            .server
            .tenants()
            .get(&name)
            .map(|t| t.remaining_budget())
            .unwrap_or(0);
        if remaining != budget {
            problems.push(format!(
                "tenant {name}: remaining budget {remaining}, expected {budget}"
            ));
        }
    }
    problems
}

/// Replays the first completed scored queries through a single-threaded
/// `SupgSession` with a fault-free oracle; each must equal the served
/// answer bit for bit.
pub fn check_parity(
    w: &Workload,
    dep: &Deployment,
    corpus: &Corpus,
    seed: u64,
    phase: &Phase,
) -> Vec<String> {
    let mut served: Vec<(usize, usize, Answer)> = phase
        .prefix(w)
        .filter_map(|r| {
            r.summary
                .and_then(|s| s.scored)
                .map(|s| (r.j, r.stream, s.answer))
        })
        .collect();
    served.sort_unstable_by_key(|&(j, s, _)| (j, s));
    let mut problems = Vec::new();
    for &(j, s, want) in served.iter().take(PARITY_QUERIES) {
        let spec = w.spec(w.query_seed(seed, s, j));
        let labels = Arc::clone(&corpus.labels);
        let mut oracle = CachedOracle::parallel(labels.len(), spec.budget, move |i| labels[i]);
        match session(&spec, Arc::clone(&dep.prepared)).run(&mut oracle) {
            Ok(out) => {
                let got = answer(out.tau, &out.result, out.oracle_calls);
                if got != want {
                    problems.push(format!(
                        "stream {s} query {j}: single-threaded replay {got:?} != served {want:?}"
                    ));
                }
            }
            Err(e) => problems.push(format!("stream {s} query {j}: replay failed: {e}")),
        }
    }
    if served.len() < PARITY_QUERIES.min(w.streams * w.rounds) {
        problems.push(format!(
            "only {} scored queries completed for the parity check",
            served.len()
        ));
    }
    problems
}

/// The end-to-end metrics of one untraced phase.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
    pub throughput_qps: f64,
    pub attempted: usize,
    pub completed: usize,
    pub shed: usize,
    pub failed: usize,
    /// Over the scored prefix.
    pub error_rate: f64,
    pub oracle_calls_per_query: f64,
    pub result_quality: f64,
    pub target_miss_rate: f64,
}

pub fn end_to_end(w: &Workload, phase: &Phase) -> EndToEnd {
    let mut walls: Vec<f64> = phase
        .all()
        .filter(|r| r.status == Status::Ok)
        .map(|r| r.wall_ns as f64 / 1e6)
        .collect();
    walls.sort_by(f64::total_cmp);
    let count = |status| phase.all().filter(|r| r.status == status).count();

    let prefix: Vec<&Record> = phase.prefix(w).collect();
    let scored: Vec<(Summary, Scored)> = prefix
        .iter()
        .filter_map(|r| r.summary.and_then(|s| s.scored.map(|sc| (s, sc))))
        .collect();
    let ok = prefix.iter().filter(|r| r.status == Status::Ok).count();
    EndToEnd {
        p50_ms: stats::nearest_rank(&walls, 50.0),
        p99_ms: stats::nearest_rank(&walls, 99.0),
        samples: walls.len(),
        throughput_qps: walls.len() as f64 / phase.wall.as_secs_f64(),
        attempted: phase.all().count(),
        completed: walls.len(),
        shed: count(Status::Shed),
        failed: count(Status::Failed),
        error_rate: (prefix.len() - ok) as f64 / prefix.len() as f64,
        oracle_calls_per_query: stats::mean(
            &scored
                .iter()
                .map(|(s, _)| s.oracle_calls as f64)
                .collect::<Vec<_>>(),
        ),
        result_quality: stats::mean(&scored.iter().map(|(_, s)| s.quality).collect::<Vec<_>>()),
        target_miss_rate: scored.iter().filter(|(_, s)| !s.met).count() as f64
            / scored.len() as f64,
    }
}
