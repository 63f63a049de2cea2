//! Batched, multi-threaded execution runtime for oracle labeling.
//!
//! The paper's premise is that the oracle — a human labeler or a heavyweight
//! DNN — dominates query cost, and real model-serving oracles are
//! batch-native: a GPU answers a batch of records in roughly the time it
//! answers one. This module provides the execution substrate that lets the
//! whole pipeline exploit that:
//!
//! * [`RuntimeConfig`] — the two knobs, `parallelism` (worker threads) and
//!   `batch_size` (records per batch request), surfaced on
//!   [`SupgSession`](crate::session::SupgSession) as
//!   `.parallelism(n).batch_size(b)` and on the query engine's
//!   `EngineConfig`.
//! * [`parallel_map`] — a scoped worker pool (plain `std::thread::scope`,
//!   no external dependencies) that chunks a work list into batches and
//!   fans the batches out over `parallelism` workers, reassembling results
//!   **in input order**.
//! * [`split_seed`] — SplitMix64 stream splitting for deriving independent
//!   per-index RNG seeds, the pattern every parallel caller must use
//!   instead of sharing one sequential stream.
//!
//! ## Determinism contract
//!
//! Results must be bit-for-bit identical for every `parallelism` and
//! `batch_size` setting, and `parallelism = 1` must reproduce the plain
//! sequential path exactly. The design enforces this by construction:
//!
//! 1. **Sampling stays sequential.** All random draws happen on the session
//!    thread from the session's seeded RNG, in the same order as the
//!    sequential pipeline. Only oracle *labeling* — a pure function of the
//!    record index — is fanned out.
//! 2. **Placement by index.** [`parallel_map`] assigns batches to workers
//!    dynamically (work stealing over an atomic cursor), but each result is
//!    written back at its input position, so the output vector never
//!    depends on scheduling.
//! 3. **Streams split by index.** Code that *does* need randomness inside
//!    parallel work (e.g. the experiment harness's trial runner) derives a
//!    seed per work item with [`split_seed`]`(base, index)` rather than
//!    consuming a shared stream in call order.
//!
//! Batch-native oracle sources
//! ([`CachedOracle::parallel`](crate::oracle::CachedOracle::parallel)) must
//! be pure functions of the record index — label value independent of call
//! order and interleaving — for the contract to hold; the trait docs on
//! [`BatchOracle`](crate::oracle::BatchOracle) restate this obligation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Default records per batch request when none is configured.
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// Execution knobs for batched oracle labeling.
///
/// The default is fully sequential (`parallelism = 1`), which is
/// guaranteed bit-for-bit identical to the historical one-record-at-a-time
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of worker threads labeling batches (min 1).
    pub parallelism: usize,
    /// Records per batch request handed to one worker at a time (min 1).
    pub batch_size: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

impl RuntimeConfig {
    /// The sequential configuration: one worker, default batch size.
    pub fn sequential() -> Self {
        Self {
            parallelism: 1,
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }

    /// Config with `parallelism` workers (clamped to ≥ 1).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Config with `batch_size` records per batch request (clamped to ≥ 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// True when this config runs on the calling thread without spawning.
    pub fn is_sequential(&self) -> bool {
        self.parallelism <= 1
    }
}

/// Applies `f` to every item, chunking the input into batches of
/// `cfg.batch_size` and executing the batches on a scoped pool of
/// `cfg.parallelism` worker threads.
///
/// The output is always in input order, and — provided `f` is a pure
/// function of its argument — identical for every `parallelism` /
/// `batch_size` setting. With `parallelism = 1` no thread is spawned and
/// the items are mapped on the calling thread in order, exactly like
/// `items.iter().map(f).collect()`.
///
/// # Panics
/// Propagates panics from `f` (workers are joined before returning).
pub fn parallel_map<T, R, F>(cfg: &RuntimeConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let batch = cfg.batch_size.max(1);
    let n_batches = items.len().div_ceil(batch);
    let workers = cfg.parallelism.max(1).min(n_batches.max(1));
    if workers == 1 {
        return items.iter().map(&f).collect();
    }

    // Work stealing over an atomic batch cursor: assignment of batches to
    // workers is scheduling-dependent, but every result lands at its input
    // position, so the assembled output is not.
    let cursor = AtomicUsize::new(0);
    let mut pieces: Vec<(usize, Vec<R>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= n_batches {
                            break;
                        }
                        let start = b * batch;
                        let end = (start + batch).min(items.len());
                        let labels: Vec<R> = items[start..end].iter().map(&f).collect();
                        done.push((start, labels));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                // Re-raise a worker panic with its original payload so the
                // parallel path is as debuggable as the sequential one.
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });

    pieces.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(items.len());
    for (_, mut chunk) in pieces {
        out.append(&mut chunk);
    }
    out
}

/// Applies `f` to every item in place, on up to `cfg.parallelism` scoped
/// worker threads that each take one contiguous run of items. Each item
/// is visited exactly once, so an element-wise `f` gives the same result
/// at every setting; with one worker no thread is spawned.
///
/// # Panics
/// Propagates panics from `f` (workers are joined before returning).
pub(crate) fn for_each_mut<T, F>(cfg: &RuntimeConfig, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let workers = cfg.parallelism.max(1).min(items.len().max(1));
    if workers == 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let run = items.len().div_ceil(workers);
    let f = &f;
    thread::scope(|scope| {
        for part in items.chunks_mut(run) {
            scope.spawn(move || part.iter_mut().for_each(f));
        }
    });
}

/// Inputs below this size are not worth dispatching to the pool for pure
/// CPU work — the chunk/merge bookkeeping would cost more than it saves.
/// Shared by every CPU-bound chunked stage (rank-index build, weight
/// feeds).
pub const MIN_PARALLEL_INPUT: usize = 1 << 14;

/// Number of workers a **CPU-bound** parallel stage should actually use:
/// `requested` clamped to the machine's available cores (≥ 1). Oracle
/// labeling deliberately does not clamp — it may be latency-bound and
/// profit from over-subscription — but for pure CPU work extra threads
/// only add dispatch overhead.
pub fn cpu_workers(requested: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    requested.max(1).min(cores)
}

/// The machine's effective core count: what [`cpu_workers`] clamps to,
/// and the ceiling the adaptive planner ([`crate::plan`]) plans against.
/// Equivalent to `cpu_workers(usize::MAX)`.
pub fn effective_cores() -> usize {
    cpu_workers(usize::MAX)
}

/// Splits `0..n` into `parts` contiguous, non-empty ranges — the
/// deterministic chunk layout of the CPU-bound chunked stages. The layout
/// never influences results (chunked stages are element-wise maps or
/// total-order merges); it only balances work.
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = n.div_ceil(parts.max(1)).max(1);
    (0..parts.max(1))
        .map(|w| (w * chunk).min(n)..((w + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// The chunk-dispatch scaffold shared by every CPU-bound chunked stage
/// (rank-index chunk sorts, weight-transform and alias feeds): split
/// `0..n` into `parts` ranges and map each on the pool, one range per
/// worker, returning the per-chunk results in range order. The caller
/// combines the pieces (concatenate, merge, …) — and decides *whether*
/// to dispatch at all ([`cpu_workers`], [`MIN_PARALLEL_INPUT`]).
pub fn map_chunks<R, F>(n: usize, parts: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let ranges = chunk_ranges(n, parts);
    let pool = RuntimeConfig::default()
        .with_parallelism(ranges.len())
        .with_batch_size(1);
    parallel_map(&pool, &ranges, |range| f(range.clone()))
}

/// Derives an independent RNG seed for work item `index` from a base seed
/// (SplitMix64 finalizer over the pair).
///
/// Parallel code must split per-item streams **by index**, never by call
/// order: `split_seed(base, i)` gives item `i` the same stream no matter
/// which worker processes it or when, which is what keeps multi-threaded
/// runs deterministic. The experiment harness seeds trial `i` of a run
/// this way.
pub fn split_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`split_seed`] mapped to a uniform float in `[0, 1)` — the per-index
/// coin the deterministic fault-injection layer ([`crate::fault`]) and
/// seeded-jitter backoff flip. Uses the top 53 bits of the split stream,
/// so the value is an exact dyadic rational identical on every platform.
pub fn split_unit(base: u64, index: u64) -> f64 {
    (split_seed(base, index) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_config_is_default_and_clamps() {
        assert_eq!(RuntimeConfig::default(), RuntimeConfig::sequential());
        let cfg = RuntimeConfig::default()
            .with_parallelism(0)
            .with_batch_size(0);
        assert_eq!(cfg.parallelism, 1);
        assert_eq!(cfg.batch_size, 1);
        assert!(cfg.is_sequential());
        assert!(!RuntimeConfig::default().with_parallelism(4).is_sequential());
    }

    #[test]
    fn split_unit_is_uniform_enough_and_in_range() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| split_unit(42, i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
        for i in 0..n {
            let u = split_unit(42, i);
            assert!((0.0..1.0).contains(&u));
            // Pure function of (base, index): stable across calls.
            assert_eq!(u.to_bits(), split_unit(42, i).to_bits());
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..1_000).collect();
        for parallelism in [1, 2, 3, 8] {
            for batch_size in [1, 7, 64, 5_000] {
                let cfg = RuntimeConfig::default()
                    .with_parallelism(parallelism)
                    .with_batch_size(batch_size);
                let out = parallel_map(&cfg, &items, |&i| i * 2);
                assert_eq!(
                    out,
                    items.iter().map(|&i| i * 2).collect::<Vec<_>>(),
                    "parallelism={parallelism} batch_size={batch_size}"
                );
            }
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let cfg = RuntimeConfig::default().with_parallelism(8);
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&cfg, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&cfg, &[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn parallel_map_spawns_workers_off_the_calling_thread() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let cfg = RuntimeConfig::default()
            .with_parallelism(4)
            .with_batch_size(1);
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map(&cfg, &items, |&i| {
            // Slow items force the batches to overlap across workers.
            thread::sleep(std::time::Duration::from_millis(1));
            seen.lock().unwrap().insert(thread::current().id());
            i
        });
        assert_eq!(out, items);
        let seen = seen.lock().unwrap();
        // parallelism > 1 always labels on pool workers, never inline.
        assert!(!seen.contains(&thread::current().id()));
        assert!(!seen.is_empty());
    }

    #[test]
    fn sequential_map_stays_on_the_calling_thread() {
        let cfg = RuntimeConfig::default().with_parallelism(1);
        let caller = thread::current().id();
        let out = parallel_map(&cfg, &[1, 2, 3], |&i| {
            assert_eq!(thread::current().id(), caller);
            i + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn split_seed_streams_are_index_sensitive() {
        let mut seeds: Vec<u64> = (0..1_000).map(|i| split_seed(7, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1_000);
        // And base-sensitive.
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }
}
