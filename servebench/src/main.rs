//! Served-query benchmark for the SUPG server.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's corpus and queries from the seed, sets up a
//! `SupgServer`, drives it from `available_parallelism` closed-loop
//! client threads for `--seconds`, checks every output, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! replay (`--trace 1`). The last line of standard output is one JSON
//! object; the exit code is non-zero when any check fails. See
//! `README.md` next to this package for the metrics and workloads.

mod drive;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use supg_core::{CacheStats, Planner, RuntimeConfig, WeightArtifacts};

use crate::drive::{Phase, Status};
use crate::trace::{median_of, total, total_self, us};
use crate::workload::{Corpus, Deployment, Kind, SetupTimes, Workload};

/// Set-up repetitions per run (this process plus fresh child
/// processes, so each pays the lazy per-process calibration); the
/// median is reported.
const SETUP_REPS: usize = 5;

/// Standalone artifact builds per kind in the traced run.
const BUILD_REPS: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = Workload::new(args.kind);
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());

    let gen_start = Instant::now();
    let (scores, corpus) = w.corpus(args.seed);
    let gen = gen_start.elapsed();
    let dep = w.set_up(scores, &corpus.labels, args.seed)?;
    if args.setup_only {
        let t = dep.times;
        println!(
            "setup {} {} {}",
            t.register.as_nanos(),
            t.warm.as_nanos(),
            t.first_query.as_nanos()
        );
        return Ok(true);
    }
    let setups = setup_samples(args, dep.times)?;

    let cache_before = dep.prepared.cache_stats();
    let steal_before = cpu_steal();
    let phase = drive::run_phase(
        &w,
        &dep,
        &corpus,
        args.seed,
        Duration::from_secs(args.seconds),
        clients,
    );
    let steal_after = cpu_steal();
    let mut problems = phase.violations.clone();
    problems.extend(drive::check_conservation(&w, &dep, &phase));
    problems.extend(drive::check_parity(&w, &dep, &corpus, args.seed, &phase));
    let e2e = drive::end_to_end(&w, &phase);

    println!(
        "workload {} seed {} clients {clients} records {} positives {} (generated in {:.3} s)",
        w.name(),
        args.seed,
        w.records,
        corpus.positives,
        gen.as_secs_f64()
    );
    println!(
        "attempted {} completed {} shed {} failed {} in {:.3} s; scored prefix {} queries",
        e2e.attempted,
        e2e.completed,
        e2e.shed,
        e2e.failed,
        phase.wall.as_secs_f64(),
        w.streams * w.rounds
    );
    println!(
        "CPU time stolen by the hypervisor during the phase: {:.1}%",
        100.0 * (steal_after.0 - steal_before.0) as f64
            / (steal_after.1 - steal_before.1).max(1) as f64
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let cache = dep.prepared.cache_stats();
        let cache = CacheStats {
            hits: cache.hits - cache_before.hits,
            misses: cache.misses - cache_before.misses,
            evictions: cache.evictions - cache_before.evictions,
        };
        metrics = per_layer(
            args,
            &w,
            &dep,
            &corpus,
            &phase,
            &setups,
            cache,
            &mut problems,
        )?;
    } else {
        let setup_s = median_secs(setups.iter().map(SetupTimes::total));
        metrics.extend([
            ("query_p50_ms", e2e.p50_ms, "ms"),
            ("throughput_qps", e2e.throughput_qps, "1/s"),
            ("ok_rate", 1.0 - e2e.error_rate, "ratio"),
            (
                "oracle_calls_per_query",
                e2e.oracle_calls_per_query,
                "count",
            ),
            ("result_quality", e2e.result_quality, "ratio"),
            ("target_met_rate", 1.0 - e2e.target_miss_rate, "ratio"),
            ("setup_s", setup_s, "s"),
            ("rss_peak_mib", rss_peak_mib()?, "MiB"),
        ]);
        // p99 is reported, not gated: on a VM with shifting steal it
        // moves too much from run to run to bound (see README.md).
        println!(
            "latency sample {} queries; query_p99_ms {}; error_rate {}; target_miss_rate {}",
            e2e.samples, e2e.p99_ms, e2e.error_rate, e2e.target_miss_rate
        );
    }
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
        if !value.is_finite() {
            problems.push(format!("{name} is not finite"));
        }
    }
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if json.is_empty() { "" } else { ", " }
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        e2e.attempted, e2e.failed
    );
    Ok(correct)
}

/// This process's set-up times plus those of `SETUP_REPS − 1` fresh
/// child processes.
fn setup_samples(args: &Args, first: SetupTimes) -> Result<Vec<SetupTimes>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = vec![first];
    for _ in 1..SETUP_REPS {
        let out = Command::new(&exe)
            .args(["--workload", args.kind.name(), "--seed"])
            .arg(args.seed.to_string())
            .arg("--setup-only")
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().unwrap_or_default();
        let ns: Vec<u64> = line
            .strip_prefix("setup ")
            .map(|rest| rest.split(' ').filter_map(|v| v.parse().ok()).collect())
            .unwrap_or_default();
        if !out.status.success() || ns.len() != 3 {
            return Err(format!("set-up child failed: {}", out.status));
        }
        samples.push(SetupTimes {
            register: Duration::from_nanos(ns[0]),
            warm: Duration::from_nanos(ns[1]),
            first_query: Duration::from_nanos(ns[2]),
        });
    }
    Ok(samples)
}

fn median_secs(values: impl Iterator<Item = Duration>) -> f64 {
    let mut v: Vec<f64> = values.map(|d| d.as_secs_f64()).collect();
    stats::median(&mut v)
}

/// Machine-wide stolen and total CPU time so far, in clock ticks, from
/// `/proc/stat` (zeros where it is unavailable). Other virtual machines
/// on the same host slow every wall-clock metric by about this share.
fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set of this process (`VmHWM`).
fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Replays the scored prefix traced and derives the per-layer metrics;
/// `cache` holds the artifact-cache counters of the untraced phase.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    w: &Workload,
    dep: &Deployment,
    corpus: &Corpus,
    phase: &Phase,
    setups: &[SetupTimes],
    cache: CacheStats,
    problems: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let ok: Vec<drive::Summary> = phase.all().filter_map(|r| r.summary).collect();
    let served = dep.server.metrics();

    // Prime the replay's planner with the served queries' per-call
    // oracle latency, as the server's own planner saw them.
    let planner = Arc::new(Planner::new());
    for s in &ok {
        if s.oracle_calls > 0 {
            planner.observe_ns_per_call(s.oracle_ns as f64 / s.oracle_calls as f64);
        }
    }
    let mut prefix_walls: Vec<f64> = phase
        .prefix(w)
        .filter(|r| r.status == Status::Ok)
        .map(|r| r.wall_ns as f64)
        .collect();
    let serve_p50_us = stats::median(&mut prefix_walls) / 1e3;

    let traces = trace::replay(w, dep, corpus, args.seed, phase, &planner);
    problems.extend(trace::check_replay(w, phase, &traces));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
    trace::write_spans(&path, &traces).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());

    let replay_p50_us = median_of(&traces, |t| us(total(&t.spans, "query").0));
    let span_us = |name: &'static str| median_of(&traces, move |t| us(total(&t.spans, name).0));
    let (alias_ms, cdf_ms) = artifact_builds(dep);
    let mean_of =
        |f: &dyn Fn(&drive::Summary) -> f64| stats::mean(&ok.iter().map(f).collect::<Vec<_>>());
    let setup_ms = |f: fn(&SetupTimes) -> Duration| median_secs(setups.iter().map(f)) * 1e3;
    let completed = ok.len() as f64;
    let oracle_calls: u64 = traces
        .iter()
        .filter_map(|t| t.answer.map(|a| a.oracle_calls as u64))
        .sum();
    let source_calls: u64 = traces
        .iter()
        .filter(|t| t.status == Status::Ok)
        .map(|t| t.source_calls)
        .sum();

    Ok(vec![
        ("serve.reserve_us", span_us("serve.reserve"), "us"),
        ("serve.pool_get_us", span_us("serve.pool_get"), "us"),
        ("serve.settle_us", span_us("serve.settle"), "us"),
        ("serve.remainder_us", serve_p50_us - replay_p50_us, "us"),
        (
            "serve.elapsed_gap_us",
            {
                let mut gaps: Vec<f64> = phase
                    .all()
                    .filter_map(|r| {
                        r.summary
                            .map(|s| (r.wall_ns as f64 - s.elapsed_ns as f64) / 1e3)
                    })
                    .collect();
                stats::median(&mut gaps)
            },
            "us",
        ),
        ("serve.shed_budget", served.shed_budget as f64, "count"),
        ("serve.failed", served.queries_failed as f64, "count"),
        ("session.run_view_us", span_us("session.run_view"), "us"),
        (
            "session.self_us",
            median_of(&traces, |t| us(total_self(&t.spans, "session.run_view"))),
            "us",
        ),
        (
            "sample.draws_per_query",
            {
                let mut d: Vec<f64> = ok.iter().map(|s| s.draws as f64).collect();
                stats::median(&mut d)
            },
            "count",
        ),
        (
            "plan.cdf_share",
            mean_of(&|s| f64::from(u8::from(s.cdf))),
            "ratio",
        ),
        (
            "plan.parallelism_mean",
            mean_of(&|s| s.parallelism as f64),
            "count",
        ),
        (
            "plan.batch_size_mean",
            mean_of(&|s| s.batch_size as f64),
            "count",
        ),
        (
            "plan.ewma_ns_per_call",
            planner.oracle_ns_per_call().unwrap_or(0.0),
            "ns",
        ),
        ("cache.hit_rate", cache.hit_rate(), "ratio"),
        (
            "cache.evictions_per_query",
            cache.evictions as f64 / completed,
            "count",
        ),
        ("artifacts.build_alias_ms", alias_ms, "ms"),
        ("artifacts.build_cdf_ms", cdf_ms, "ms"),
        ("setup.register_ms", setup_ms(|t| t.register), "ms"),
        ("setup.warm_ms", setup_ms(|t| t.warm), "ms"),
        ("setup.first_query_ms", setup_ms(|t| t.first_query), "ms"),
        ("oracle.batch_us", span_us("oracle.batch"), "us"),
        (
            "oracle.batches",
            median_of(&traces, |t| total(&t.spans, "oracle.batch").1 as f64),
            "count",
        ),
        (
            "oracle.source_busy_us",
            median_of(&traces, |t| us(t.source_busy_ns)),
            "us",
        ),
        (
            "oracle.overlap",
            median_of(&traces, |t| {
                t.source_busy_ns as f64 / total(&t.spans, "oracle.batch").0.max(1) as f64
            }),
            "ratio",
        ),
        (
            "oracle.source_calls_per_call",
            source_calls as f64 / oracle_calls.max(1) as f64,
            "ratio",
        ),
        (
            "retry.self_us",
            median_of(&traces, |t| us(total_self(&t.spans, "oracle.retry"))),
            "us",
        ),
        (
            "retry.retries_per_query",
            mean_of(&|s| s.retries as f64),
            "count",
        ),
        (
            "executor.into_owned_us",
            span_us("executor.into_owned"),
            "us",
        ),
        ("result.k_mean", mean_of(&|s| s.k as f64), "count"),
        ("trace.serve_p50_us", serve_p50_us, "us"),
        ("trace.replay_p50_us", replay_p50_us, "us"),
        ("trace.overhead", replay_p50_us / serve_p50_us, "ratio"),
    ])
}

/// Median wall time (ms) of standalone alias and CDF artifact builds on
/// the workload's corpus, with never-seen recipes.
fn artifact_builds(dep: &Deployment) -> (f64, f64) {
    let rt: RuntimeConfig = dep.prepared.runtime();
    let corpus = dep.prepared.corpus();
    let mut alias = Vec::new();
    let mut cdf = Vec::new();
    for rep in 0..BUILD_REPS {
        let exponent = 0.31 + 0.01 * rep as f64;
        let mix = 0.11;
        for (cdf_build, out) in [(false, &mut alias), (true, &mut cdf)] {
            let start = Instant::now();
            let built = match (corpus, cdf_build) {
                (supg_core::Corpus::Flat(d), false) => {
                    WeightArtifacts::build_with(d.scores(), exponent, mix, &rt)
                }
                (supg_core::Corpus::Flat(d), true) => {
                    WeightArtifacts::build_cdf_with(d.scores(), exponent, mix, &rt)
                }
                (supg_core::Corpus::Segmented(s), false) => {
                    WeightArtifacts::build_segmented_with(s, exponent, mix, &rt)
                }
                (supg_core::Corpus::Segmented(s), true) => {
                    WeightArtifacts::build_segmented_cdf_with(s, exponent, mix, &rt)
                }
            };
            out.push(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(built);
        }
    }
    (stats::median(&mut alias), stats::median(&mut cdf))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two runs of the same seed agree exactly on the four
    /// seed-determined metrics, on every workload (scaled down; 20
    /// streams so `joint_tenants` tenants reach their sheds), and the
    /// traced replay reproduces every served answer.
    #[test]
    fn same_seed_same_answers() {
        for kind in Kind::ALL {
            let w = Workload::sized(kind, 20_000, 20, 2);
            let runs: Vec<[f64; 4]> = (0..2)
                .map(|run| {
                    let (scores, corpus) = w.corpus(11);
                    let dep = w.set_up(scores, &corpus.labels, 11).unwrap();
                    let phase = drive::run_phase(&w, &dep, &corpus, 11, Duration::ZERO, 2);
                    assert!(phase.violations.is_empty(), "{:?}", phase.violations);
                    assert_eq!(
                        drive::check_conservation(&w, &dep, &phase),
                        Vec::<String>::new()
                    );
                    assert_eq!(
                        drive::check_parity(&w, &dep, &corpus, 11, &phase),
                        Vec::<String>::new()
                    );
                    if run == 0 {
                        let planner = Arc::new(Planner::new());
                        let traces = trace::replay(&w, &dep, &corpus, 11, &phase, &planner);
                        assert_eq!(
                            trace::check_replay(&w, &phase, &traces),
                            Vec::<String>::new()
                        );
                    }
                    let e = drive::end_to_end(&w, &phase);
                    [
                        e.oracle_calls_per_query,
                        e.result_quality,
                        e.target_miss_rate,
                        e.error_rate,
                    ]
                })
                .collect();
            assert_eq!(runs[0], runs[1], "{}", kind.name());
            assert!(runs[0][0] > 0.0, "{}", kind.name());
            assert_eq!(
                runs[0][3] > 0.0,
                kind == Kind::JointTenants,
                "{}",
                kind.name()
            );
        }
    }
}
