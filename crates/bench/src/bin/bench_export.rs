//! Bench-to-JSON exporter: measures the sweep-estimator and
//! prepared-serving workloads and records them in `BENCH_selectors.json`
//! at the repo root — the performance trajectory each PR extends.
//!
//! ```text
//! bench_export            # quick suite, rewrite BENCH_selectors.json
//! bench_export --full     # more iterations (slower, steadier medians)
//! bench_export --check    # quick suite, gate first: exit 1 (without
//!                         # touching the file) when any recorded speedup
//!                         # ratio — threshold search, recall sweep, set
//!                         # materialization, cold build, cold-path alias
//!                         # build, CDF-vs-alias cold one-shot and
//!                         # oracle-stack efficiency —
//!                         # regressed > 2× vs the committed baseline
//!                         # (ratio-based, machine-independent), or the
//!                         # traffic simulator's same-seed replay is not
//!                         # bit-identical; on a pass, regenerate the
//!                         # file like a plain run
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use supg_bench::perf::{extract_number, run_suite};

fn repo_root() -> PathBuf {
    // crates/bench → workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let full = args.iter().any(|a| a == "--full");
    if let Some(unknown) = args
        .iter()
        .find(|a| a.as_str() != "--check" && a.as_str() != "--full")
    {
        eprintln!("bench_export: unknown flag {unknown} (use --check / --full)");
        return ExitCode::from(2);
    }

    let path = repo_root().join("BENCH_selectors.json");
    eprintln!(
        "bench_export: running {} suite…",
        if full { "full" } else { "quick" }
    );
    let report = run_suite(!full);
    let json = report.to_json();
    println!("{json}");
    eprintln!(
        "threshold search: sweep {:.1}µs vs naive {:.1}µs → {:.1}×; \
         recall sweep: {:.1}×; \
         serving: cold {:.2}ms vs prepared {:.2}ms per query → {:.1}×; \
         materialization: rank {:.1}µs vs linear {:.1}µs → {:.1}×; \
         cold build: parallel {:.1}ms vs serial {:.1}ms → {:.1}×; \
         cold path: alias build {:.1}ms vs legacy {:.1}ms → {:.2}×, \
         cdf one-shot {:.1}ms vs alias one-shot {:.1}ms → {:.2}×",
        report.precision.sweep_ns / 1e3,
        report.precision.naive_ns / 1e3,
        report.precision.speedup(),
        report.recall.speedup(),
        report.serving.cold_ns_per_query / 1e6,
        report.serving.prepared_ns_per_query / 1e6,
        report.serving.speedup(),
        report.materialization.rank_ns / 1e3,
        report.materialization.linear_ns / 1e3,
        report.materialization.speedup(),
        report.cold_build.parallel_ns / 1e6,
        report.cold_build.serial_ns / 1e6,
        report.cold_build.speedup(),
        report.cold_path.alias_parallel_ns / 1e6,
        report.cold_path.alias_serial_ns / 1e6,
        report.cold_path.alias_build_speedup(),
        report.cold_path.cdf_cold_query_ns / 1e6,
        report.cold_path.alias_cold_query_ns / 1e6,
        report.cold_path.cdf_speedup(),
    );
    eprintln!(
        "resilience (rate {:.0}%): fault-free {:.2}ms vs retried {:.2}ms per query → \
         {:.2}× overhead ({} retries)",
        report.resilience.transient_rate * 100.0,
        report.resilience.fault_free_ns_per_query / 1e6,
        report.resilience.retried_ns_per_query / 1e6,
        report.resilience.overhead(),
        report.resilience.retries,
    );
    eprintln!(
        "oracle stacks: JT {:.1}ns vs raw {:.2}ns per label → efficiency {:.3}; \
         batch-native {:.1}ns vs raw {:.2}ns per label → efficiency {:.3}",
        report.oracle.jt_stack_ns_per_label,
        report.oracle.jt_raw_ns_per_label,
        report.oracle.jt_efficiency(),
        report.oracle.batch_stack_ns_per_label,
        report.oracle.batch_raw_ns_per_label,
        report.oracle.batch_efficiency(),
    );
    eprintln!(
        "serving saturation ({} cores): qps 1 client {:.0}, 4 clients {:.0} → {:.2}× \
         (efficiency {:.2})",
        report.saturation.cores,
        report.saturation.qps_at(1).unwrap_or(0.0),
        report.saturation.qps_at(4).unwrap_or(0.0),
        report.saturation.scaling_4v1(),
        report.saturation.scaling_efficiency(),
    );
    eprintln!(
        "segmented (n={}, segment {}): cdf build {:.1}ms vs flat {:.1}ms → {:.2}×; \
         stitched search {:.2}ms vs linear {:.1}ms → {:.1}×",
        report.segmented.n,
        report.segmented.segment_size,
        report.segmented.segmented_cdf_build_ns / 1e6,
        report.segmented.flat_cdf_build_ns / 1e6,
        report.segmented.cdf_build_speedup(),
        report.segmented.segmented_search_ns / 1e6,
        report.segmented.flat_search_ns / 1e6,
        report.segmented.search_speedup(),
    );
    eprintln!(
        "planner grid (small {}, huge {}, budget {}): worst auto/best-hand ratio {:.3}; \
         cold build: planner chose {} chunk(s), serial-floor speedup {:.2}×, \
         legacy comparator {:.2}×",
        report.planner.small_n,
        report.planner.huge_n,
        report.planner.budget,
        report.planner.worst_ratio(),
        report.cold_build.workers,
        report.cold_build.speedup(),
        report.cold_build.legacy_speedup(),
    );
    eprintln!(
        "traffic (seed {:#x}): {} arrivals over {} tenants → {} completed \
         ({:.0}%), sheds {}/{}/{} (overload/budget/circuit), {} retries, \
         cache hit rate {:.2}, replay {}, hash {:08x}{:08x}",
        report.traffic.seed,
        report.traffic.queries,
        report.traffic.tenants,
        report.traffic.completed,
        100.0 * report.traffic.completion_ratio,
        report.traffic.shed_overload,
        report.traffic.shed_budget,
        report.traffic.shed_circuit,
        report.traffic.oracle_retries,
        report.traffic.cache_hit_rate,
        if report.traffic.determinism == 1.0 {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        report.traffic.hash_hi,
        report.traffic.hash_lo,
    );

    if check {
        let Ok(committed) = std::fs::read_to_string(&path) else {
            eprintln!(
                "bench_export --check: no committed {} baseline",
                path.display()
            );
            return ExitCode::FAILURE;
        };
        // Every gate is a *within-run* speedup ratio, so it transfers
        // across machines; a halved ratio means the fast path regressed
        // > 2× relative to its (stable) in-process reference. Sections a
        // committed baseline predates are skipped — the schema is
        // additive, and the next write records them.
        let gates = [
            (
                "threshold_search",
                "speedup",
                report.precision.speedup(),
                true,
            ),
            (
                "recall_threshold",
                "speedup",
                report.recall.speedup(),
                false,
            ),
            (
                "materialization",
                "speedup",
                report.materialization.speedup(),
                false,
            ),
            ("cold_build", "speedup", report.cold_build.speedup(), false),
            (
                "cold_path",
                "alias_build_speedup",
                report.cold_path.alias_build_speedup(),
                false,
            ),
            (
                "cold_path",
                "cdf_speedup",
                report.cold_path.cdf_speedup(),
                false,
            ),
            // Segmented gates are not required: a committed baseline from
            // before the segmented section exists is simply skipped.
            (
                "segmented",
                "cdf_build_speedup",
                report.segmented.cdf_build_speedup(),
                false,
            ),
            (
                "segmented",
                "search_speedup",
                report.segmented.search_speedup(),
                false,
            ),
            // Oracle-stack efficiency (raw label / labeled through the
            // stack): a halved ratio means the stack's bookkeeping per
            // label more than doubled relative to the label itself.
            (
                "oracle",
                "jt_efficiency",
                report.oracle.jt_efficiency(),
                false,
            ),
            (
                "oracle",
                "batch_efficiency",
                report.oracle.batch_efficiency(),
                false,
            ),
            // Concurrent-serving scaling, normalized by min(4, cores) so
            // the committed ratio transfers between single-core and
            // multi-core runners: ≥ half baseline on a ≥ 4-core machine
            // means 4 clients still deliver ≥ 2× the QPS of one.
            (
                "serving",
                "scaling_efficiency",
                report.saturation.scaling_efficiency(),
                false,
            ),
        ];
        for (section, key, current, required) in gates {
            let Some(baseline) = extract_number(&committed, section, key) else {
                if required {
                    eprintln!("bench_export --check: baseline is missing {section}.{key}");
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "bench_export --check: baseline predates {section}.{key}; skipping its gate"
                );
                continue;
            };
            if current < baseline / 2.0 {
                eprintln!(
                    "bench_export --check: {section}.{key} regressed: \
                     current {current:.1}× < half of baseline {baseline:.1}×"
                );
                return ExitCode::FAILURE;
            }
            eprintln!(
                "bench_export --check: {section}.{key} ok (current {current:.1}× vs baseline \
                 {baseline:.1}×)"
            );
        }
        // Retry overhead gates in the opposite direction from the
        // speedups above (lower is better), so it gets its own check:
        // non-required — a baseline predating the resilience section is
        // skipped — and failing only when surviving faults costs more
        // than twice what the committed baseline paid.
        let overhead = report.resilience.overhead();
        match extract_number(&committed, "resilience", "overhead") {
            None => eprintln!(
                "bench_export --check: baseline predates resilience.overhead; skipping its gate"
            ),
            Some(baseline) => {
                if overhead > baseline * 2.0 {
                    eprintln!(
                        "bench_export --check: resilience.overhead regressed: \
                         current {overhead:.2}× > twice baseline {baseline:.2}×"
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "bench_export --check: resilience.overhead ok (current {overhead:.2}× vs \
                     baseline {baseline:.2}×)"
                );
            }
        }
        // The planner ratio also gates in the lower-is-better
        // direction: non-required (a baseline predating the planner
        // section is skipped), failing only when Auto's worst
        // loss-to-hand-tuning doubles over the committed baseline.
        let worst = report.planner.worst_ratio();
        match extract_number(&committed, "planner", "worst_ratio") {
            None => eprintln!(
                "bench_export --check: baseline predates planner.worst_ratio; skipping its gate"
            ),
            Some(baseline) => {
                if worst > baseline * 2.0 {
                    eprintln!(
                        "bench_export --check: planner.worst_ratio regressed: \
                         current {worst:.2}× > twice baseline {baseline:.2}×"
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "bench_export --check: planner.worst_ratio ok (current {worst:.2}× vs \
                     baseline {baseline:.2}×)"
                );
            }
        }
        // The traffic determinism gate needs no baseline at all: the
        // simulator's contract is that two same-seed runs replay
        // bit-identically on *this* machine, so anything below 1.0 is
        // a correctness failure, not a perf regression.
        if report.traffic.determinism != 1.0 {
            eprintln!(
                "bench_export --check: traffic.determinism failed: two same-seed \
                 simulator runs produced different reports"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("bench_export --check: traffic.determinism ok (bit-identical replay)");
        // The completion ratio gates additively like the speedups: a
        // baseline predating the traffic section is skipped, and a
        // halved ratio means the admission path started shedding or
        // failing queries it used to serve.
        let completion = report.traffic.completion_ratio;
        match extract_number(&committed, "traffic", "completion_ratio") {
            None => eprintln!(
                "bench_export --check: baseline predates traffic.completion_ratio; \
                 skipping its gate"
            ),
            Some(baseline) => {
                if completion < baseline / 2.0 {
                    eprintln!(
                        "bench_export --check: traffic.completion_ratio regressed: \
                         current {completion:.3} < half of baseline {baseline:.3}"
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "bench_export --check: traffic.completion_ratio ok (current \
                     {completion:.3} vs baseline {baseline:.3})"
                );
            }
        }
        // Fall through: a passing check regenerates the measurements so
        // the file stays fresh wherever the run happened.
    }

    std::fs::write(&path, json + "\n").expect("write BENCH_selectors.json");
    eprintln!("bench_export: wrote {}", path.display());
    ExitCode::SUCCESS
}
