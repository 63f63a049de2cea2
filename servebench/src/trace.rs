//! The traced run: spans recorded by the benchmark's own code around
//! the public calls `SupgServer::serve` composes, replayed against the
//! same server, plus the self-time arithmetic over them.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use supg_core::{
    BatchOracle, Oracle, Planner, ResilientOracle, RetryStats, RuntimeConfig, SessionOracle,
    SupgError,
};

use crate::drive::{self, Answer, Phase, Status};
use crate::workload::{session, Corpus, Deployment, SourceProbe, Workload, SAMPLE_EVERY};

/// One timed interval of one layer.
///
/// A span normally covers one call (`calls == 1`, `busy_ns == end_ns −
/// start_ns`). A coalesced span stands for a run of back-to-back
/// per-record calls into one layer under one parent (the retry runtime
/// labels record by record): it runs from the first call's start to the
/// last timed call's end, and `busy_ns` estimates the time of the calls
/// alone. Its first call and one in [`SAMPLE_EVERY`] after that are
/// timed, and `busy_ns` scales their sum by `calls / timed`: a clock read
/// costs about as much as the per-record work it would measure.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u32,
    /// For a coalesced span: calls timed and their summed time.
    timed: Option<(u32, u64)>,
}

impl Span {
    /// A span of one call, for hand-built trees.
    pub fn new(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Self {
        Self {
            name,
            parent,
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            calls: 1,
            timed: None,
        }
    }
}

/// The spans of one query, in the order they were opened.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.ns(Instant::now());
        let span = Span::new(name, self.stack.last().copied(), now, now);
        self.spans.push(span);
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        let now = self.ns(Instant::now());
        assert_eq!(self.stack.pop(), Some(idx), "spans closed out of order");
        let span = &mut self.spans[idx];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Records a finished call under the innermost open span.
    fn call(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span::new(
            name,
            self.stack.last().copied(),
            self.ns(start),
            self.ns(end),
        );
        self.spans.push(span);
    }

    /// The coalesced span a per-record call named `name` would extend.
    fn open_run(&mut self, name: &'static str) -> Option<&mut Span> {
        let parent = self.stack.last().copied();
        self.spans
            .last_mut()
            .filter(|s| s.timed.is_some() && s.name == name && s.parent == parent)
    }

    /// Whether the next per-record call named `name` is to be timed.
    fn times_next(&mut self, name: &'static str) -> bool {
        self.open_run(name)
            .is_none_or(|s| s.calls % SAMPLE_EVERY == 0)
    }

    /// Counts an untimed per-record call into the open run.
    fn count(&mut self, name: &'static str) {
        if let Some(run) = self.open_run(name) {
            run.calls += 1;
        }
    }

    /// Records a timed per-record call, extending the open run or
    /// starting one.
    fn coalesce(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (start, end) = (self.ns(start), self.ns(end));
        if let Some(run) = self.open_run(name) {
            let (timed, ns) = run.timed.expect("open run");
            run.timed = Some((timed + 1, ns + end - start));
            run.calls += 1;
            run.end_ns = end;
            return;
        }
        let mut span = Span::new(name, self.stack.last().copied(), start, end);
        span.timed = Some((1, end - start));
        self.spans.push(span);
    }

    /// The finished spans, coalesced runs scaled to their call count.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "spans left open");
        let mut spans = std::mem::take(&mut self.spans);
        for s in &mut spans {
            if let Some((timed, ns)) = s.timed {
                let scaled = ns as f64 * f64::from(s.calls) / f64::from(timed);
                s.busy_ns = (scaled as u64).min(s.end_ns - s.start_ns);
            }
        }
        spans
    }
}

fn children(spans: &[Span], idx: usize) -> impl Iterator<Item = &Span> {
    spans.iter().filter(move |s| s.parent == Some(idx))
}

/// A span's self time: its busy time minus its children's.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let child: u64 = children(spans, idx).map(|c| c.busy_ns).sum();
    spans[idx].busy_ns - child
}

/// Checks that every span's children lie inside it and do not overlap
/// one another, so children plus self time add up to the span.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (idx, span) in spans.iter().enumerate() {
        let mut kids: Vec<&Span> = children(spans, idx).collect();
        kids.sort_by_key(|k| k.start_ns);
        let mut cursor = span.start_ns;
        for k in &kids {
            if k.start_ns < cursor || k.end_ns > span.end_ns {
                return Err(format!(
                    "{} [{}, {}] is not nested in {} [{}, {}] after its siblings",
                    k.name, k.start_ns, k.end_ns, span.name, span.start_ns, span.end_ns
                ));
            }
            cursor = k.end_ns;
        }
        let child: u64 = kids.iter().map(|k| k.busy_ns).sum();
        if child > span.busy_ns || child + self_ns(spans, idx) != span.busy_ns {
            return Err(format!(
                "{}: children {child} ns exceed the span",
                span.name
            ));
        }
    }
    Ok(())
}

/// Sum of `busy_ns` (and of `calls`) over the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(b, c), s| (b + s.busy_ns, c + u64::from(s.calls)))
}

/// Sum of self time over the spans named `name`.
pub fn total_self(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, _)| self_ns(spans, i))
        .sum()
}

/// Which layer a [`Traced`] wrapper stands at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// Directly around the caller's oracle: every request that reaches
    /// it is an `oracle.batch` call.
    Batch,
    /// Around the retry runtime: each `label_batch` the session issues
    /// is one `oracle.retry` span.
    Retry,
}

/// A forwarding oracle wrapper that records spans.
struct Traced<'r, O> {
    inner: O,
    rec: &'r RefCell<Recorder>,
    layer: Layer,
}

impl<O: Oracle> Oracle for Traced<'_, O> {
    fn label(&mut self, index: usize) -> Result<bool, SupgError> {
        let name = match self.layer {
            Layer::Batch => "oracle.batch",
            Layer::Retry => "oracle.retry",
        };
        if !self.rec.borrow_mut().times_next(name) {
            let label = self.inner.label(index);
            self.rec.borrow_mut().count(name);
            return label;
        }
        let start = Instant::now();
        let label = self.inner.label(index);
        self.rec.borrow_mut().coalesce(name, start, Instant::now());
        label
    }

    fn calls_used(&self) -> usize {
        self.inner.calls_used()
    }

    fn budget(&self) -> usize {
        self.inner.budget()
    }

    fn label_batch_native(&mut self, indices: &[usize]) -> Option<Result<Vec<bool>, SupgError>> {
        match self.layer {
            Layer::Batch => {
                let start = Instant::now();
                let labels = self.inner.label_batch_native(indices)?;
                self.rec
                    .borrow_mut()
                    .call("oracle.batch", start, Instant::now());
                Some(labels)
            }
            Layer::Retry => {
                let span = self.rec.borrow_mut().enter("oracle.retry");
                let labels = self.inner.label_batch(indices);
                self.rec.borrow_mut().exit(span);
                Some(labels)
            }
        }
    }

    fn configure_runtime(&mut self, runtime: RuntimeConfig) {
        self.inner.configure_runtime(runtime);
    }

    fn retry_stats(&self) -> RetryStats {
        self.inner.retry_stats()
    }
}

impl<O: SessionOracle> SessionOracle for Traced<'_, O> {
    fn set_budget(&mut self, budget: usize) {
        self.inner.set_budget(budget);
    }
}

/// One replayed query.
#[derive(Debug)]
pub struct QueryTrace {
    pub client: usize,
    pub stream: usize,
    pub j: usize,
    pub status: Status,
    pub spans: Vec<Span>,
    pub source_calls: u64,
    pub source_busy_ns: u64,
    pub answer: Option<Answer>,
}

/// Replays every client's scored prefix, in the order the client sent
/// it, through the calls `serve` makes — `tenants().get` →
/// `try_reserve` → `pool().get` → `SupgSession::over_shared(..)
/// .planned_shared(planner).run_view(oracle)` (under `ResilientOracle`
/// when the spec retries) → `into_owned` → `settle` + `record` — with a
/// span around each. Tenants are re-registered at their initial budgets
/// first so every replayed admission sees the budget the served query
/// saw.
pub fn replay(
    w: &Workload,
    dep: &Deployment,
    corpus: &Corpus,
    seed: u64,
    phase: &Phase,
    planner: &Arc<Planner>,
) -> Vec<QueryTrace> {
    for (name, budget) in w.initial_budgets() {
        dep.server.tenants().register(name, budget);
    }
    let clients = phase.records.len();
    let barrier = Barrier::new(clients);
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = phase
            .records
            .iter()
            .enumerate()
            .map(|(c, records)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let queries: Vec<(usize, usize)> = records
                        .iter()
                        .filter(|r| r.j < w.rounds)
                        .map(|r| (r.stream, r.j))
                        .collect();
                    let rec = RefCell::new(Recorder::new(origin));
                    queries
                        .into_iter()
                        .map(|(s, j)| replay_one(w, dep, corpus, seed, planner, &rec, c, s, j))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay client panicked"))
            .collect()
    })
}

#[allow(clippy::too_many_arguments)]
fn replay_one(
    w: &Workload,
    dep: &Deployment,
    corpus: &Corpus,
    seed: u64,
    planner: &Arc<Planner>,
    rec: &RefCell<Recorder>,
    client: usize,
    stream: usize,
    j: usize,
) -> QueryTrace {
    let tenant_name = w.tenant(stream);
    if let Some(grant) = w.grant_before(stream, j) {
        dep.server
            .tenants()
            .get(tenant_name)
            .expect("tenant registered")
            .add_budget(grant);
    }
    let qseed = w.query_seed(seed, stream, j);
    let spec = w.spec(qseed);
    let probe = Arc::new(SourceProbe::default());
    let mut base = w.oracle(&corpus.labels, &spec, qseed, Some(Arc::clone(&probe)));
    let declared = spec.declared_calls();

    let query = rec.borrow_mut().enter("query");
    let span = rec.borrow_mut().enter("serve.reserve");
    let tenant = dep
        .server
        .tenants()
        .get(tenant_name)
        .expect("tenant registered");
    let reserved = tenant.try_reserve(declared);
    rec.borrow_mut().exit(span);
    let (status, answer) = match reserved {
        Ok(()) => {
            let span = rec.borrow_mut().enter("serve.pool_get");
            let prepared = dep.server.pool().get(w.name()).expect("dataset registered");
            rec.borrow_mut().exit(span);
            let session = session(&spec, prepared).planned_shared(Arc::clone(planner));
            let span = rec.borrow_mut().enter("session.run_view");
            let run = match spec.retry {
                Some(policy) => {
                    let inner = Traced {
                        inner: &mut *base,
                        rec,
                        layer: Layer::Batch,
                    };
                    let mut outer = Traced {
                        inner: ResilientOracle::new(inner, policy),
                        rec,
                        layer: Layer::Retry,
                    };
                    session.run_view(&mut outer)
                }
                None => session.run_view(&mut Traced {
                    inner: &mut *base,
                    rec,
                    layer: Layer::Batch,
                }),
            };
            rec.borrow_mut().exit(span);
            match run {
                Ok(view) => {
                    let span = rec.borrow_mut().enter("executor.into_owned");
                    let outcome = view.into_owned();
                    rec.borrow_mut().exit(span);
                    let span = rec.borrow_mut().enter("serve.settle");
                    tenant.settle(declared, outcome.oracle_calls);
                    tenant.record(&outcome);
                    rec.borrow_mut().exit(span);
                    let answer = drive::answer(outcome.tau, &outcome.result, outcome.oracle_calls);
                    (Status::Ok, Some(answer))
                }
                Err(_) => {
                    tenant.release(declared);
                    (Status::Failed, None)
                }
            }
        }
        Err(_) => (Status::Shed, None),
    };
    rec.borrow_mut().exit(query);
    let spans = rec.borrow_mut().take();
    QueryTrace {
        client,
        stream,
        j,
        status,
        spans,
        source_calls: probe.calls(),
        source_busy_ns: probe.busy_ns(),
        answer,
    }
}

/// Coverage checks over the replay: every span tree nests, and every
/// replayed query ended exactly as the served one did.
pub fn check_replay(w: &Workload, phase: &Phase, traces: &[QueryTrace]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut served: Vec<(usize, usize, Status, Option<Answer>)> = phase
        .prefix(w)
        .map(|r| {
            (
                r.stream,
                r.j,
                r.status,
                r.summary.and_then(|s| s.scored).map(|s| s.answer),
            )
        })
        .collect();
    served.sort_unstable_by_key(|&(s, j, _, _)| (s, j));
    if served.len() != traces.len() {
        problems.push(format!(
            "replayed {} queries, served {}",
            traces.len(),
            served.len()
        ));
    }
    for t in traces {
        if let Err(e) = check_nesting(&t.spans) {
            problems.push(format!("stream {} query {}: {e}", t.stream, t.j));
        }
        let found = served
            .binary_search_by_key(&(t.stream, t.j), |&(s, j, _, _)| (s, j))
            .ok()
            .map(|i| served[i]);
        match found {
            Some((_, _, status, answer)) if status == t.status && answer == t.answer => {}
            other => problems.push(format!(
                "stream {} query {}: replay {:?} {:?} != served {other:?}",
                t.stream, t.j, t.status, t.answer
            )),
        }
    }
    problems
}

/// Writes every span as one JSON line.
pub fn write_spans(path: &std::path::Path, traces: &[QueryTrace]) -> std::io::Result<()> {
    let mut out = String::new();
    for t in traces {
        for (id, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"client\":{},\"stream\":{},\"query\":{},\"id\":{id},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
                t.client, t.stream, t.j, s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Median over completed replayed queries of `f`.
pub fn median_of(traces: &[QueryTrace], f: impl Fn(&QueryTrace) -> f64) -> f64 {
    let mut v: Vec<f64> = traces
        .iter()
        .filter(|t| t.status == Status::Ok)
        .map(f)
        .collect();
    crate::stats::median(&mut v)
}

/// Duration in microseconds.
pub fn us(ns: u64) -> f64 {
    Duration::from_nanos(ns).as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    /// query [0,100] ─┬─ a [10,30]
    ///                └─ b [40,90] ─┬─ c [45,55]
    ///                              └─ d (coalesced: [60,85], busy 15)
    fn tree() -> Vec<Span> {
        let mut d = Span::new("d", Some(2), 60, 85);
        d.busy_ns = 15;
        d.calls = 3;
        vec![
            Span::new("query", None, 0, 100),
            Span::new("a", Some(0), 10, 30),
            Span::new("b", Some(0), 40, 90),
            Span::new("c", Some(2), 45, 55),
            d,
        ]
    }

    #[test]
    fn self_time_subtracts_children_busy_time() {
        let spans = tree();
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 50);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 2), 50 - 10 - 15);
        assert_eq!(self_ns(&spans, 4), 15);
        assert_eq!(check_nesting(&spans), Ok(()));
        assert_eq!(total(&spans, "d"), (15, 3));
        assert_eq!(total_self(&spans, "b"), 25);
        // Children plus self add up to the span.
        let kids: u64 = [1, 2].iter().map(|&i| spans[i].busy_ns).sum();
        assert_eq!(kids + self_ns(&spans, 0), spans[0].busy_ns);
    }

    #[test]
    fn nesting_rejects_overlap_and_escape() {
        let mut overlap = tree();
        overlap[1] = Span::new("a", Some(0), 10, 45);
        assert!(check_nesting(&overlap).is_err());
        let mut escape = tree();
        escape[3] = Span::new("c", Some(2), 35, 55);
        assert!(check_nesting(&escape).is_err());
    }

    #[test]
    fn recorder_coalesces_and_scales_sampled_runs() {
        let origin = Instant::now();
        let at = |ns| origin + Duration::from_nanos(ns);
        let mut rec = Recorder::new(origin);
        let q = rec.enter("query");
        // A run of 2 × SAMPLE_EVERY calls: the first and the
        // (SAMPLE_EVERY + 1)-th are timed, 3 ns and 5 ns.
        for n in 0..2 * SAMPLE_EVERY {
            if rec.times_next("x") {
                let t = 10 + 10 * u64::from(n);
                rec.coalesce("x", at(t), at(t + if n == 0 { 3 } else { 5 }));
            } else {
                rec.count("x");
            }
        }
        // Another span ends the run; the next call starts a new one.
        let inner = rec.enter("y");
        rec.exit(inner);
        assert!(rec.times_next("x"));
        rec.coalesce("x", at(1_000), at(1_002));
        rec.exit(q);
        let spans = rec.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].calls, 2 * SAMPLE_EVERY);
        assert_eq!(spans[1].busy_ns, u64::from(SAMPLE_EVERY) * 8);
        assert_eq!((spans[3].calls, spans[3].busy_ns), (1, 2));
    }
}
