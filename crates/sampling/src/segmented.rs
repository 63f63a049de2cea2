//! Segmented weighted-sampling artifacts: per-segment storage, global
//! semantics.
//!
//! A corpus of 10⁸–10⁹ records cannot keep its sampling artifacts in one
//! contiguous allocation, and the chunk-parallel builds of the flat path
//! waste their multicore win on a final re-merge into a single array.
//! This module keeps every artifact in **per-segment chunks** end to end:
//!
//! * [`SegmentedWeights`] — the importance distribution in per-segment
//!   probability chunks, **bit-identical** to the flat
//!   [`ImportanceWeights`](crate::ImportanceWeights) recipe (the lone
//!   floating-point reduction — the normalizer Σ — is one serial
//!   accumulator walked over the chunks in order, exactly the flat sum;
//!   everything else is element-wise per chunk).
//! * [`SegmentedCdf`] — the two-level CDF sampler: a per-segment level of
//!   global cumulative weights plus a segment-total top level
//!   (`tops[c]` = cumulative mass through segment `c`). The build is
//!   genuinely two-level — per-segment local totals, a serial offset
//!   scan over the segment totals, then per-segment global prefix sums
//!   seeded at each offset — so the per-segment phases parallelize with
//!   **no re-merge** and the result depends only on the segment layout,
//!   never on how many workers ran the phases. Because the offsets group
//!   the flat left-to-right sum per segment, cumulative values may differ
//!   from the flat [`CdfSampler`](crate::CdfSampler) by final-ulp
//!   rounding near segment boundaries; each layout is individually
//!   deterministic and samples the identical distribution.
//!
//! There is no segmented alias table: Vose's pairing loop is serial and
//! jumps between arbitrary slots, so a chunk-resident table pays a chunk
//! lookup on every access. A segmented corpus builds the flat
//! [`AliasTable`] over its segments' probabilities instead
//! ([`AliasTable::from_normalized`]), which is bit-identical to the flat
//! build.
//!
//! All samplers honor the zero-weight contract: an index with zero weight
//! is never drawn, including when the uniform draw rounds up to the total
//! mass (draws clamp to the last *positive-weight* index, not merely the
//! last index).

use rand::{Rng, RngCore};

use crate::alias::AliasTable;
use crate::sampler::WeightedSampler;

/// Maps a global index to its `(chunk, local)` position over contiguous,
/// possibly unequal chunk sizes. Lookup is O(log #chunks) — segments
/// number in the dozens while draws touch millions of records, so the
/// chunk directory stays cache-resident.
#[derive(Debug, Clone, PartialEq)]
struct ChunkMap {
    /// Start offset of each chunk, ascending; `offsets[0] == 0`.
    offsets: Vec<usize>,
    /// Total records across all chunks.
    len: usize,
}

impl ChunkMap {
    fn new<I: IntoIterator<Item = usize>>(sizes: I) -> Self {
        let mut offsets = Vec::new();
        let mut acc = 0usize;
        for size in sizes {
            assert!(size > 0, "segmented artifact: empty segment");
            offsets.push(acc);
            acc += size;
        }
        assert!(acc > 0, "segmented artifact: no segments");
        Self { offsets, len: acc }
    }

    fn locate(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        let chunk = self.offsets.partition_point(|&o| o <= i) - 1;
        (chunk, i - self.offsets[chunk])
    }

    fn offset(&self, chunk: usize) -> usize {
        self.offsets[chunk]
    }
}

/// Normalizes one chunk of already-exponentiated weights in place:
/// `p ← (1 − mix) · p / total + mix / n` — exactly the element-wise map of
/// [`ImportanceWeights::from_powered`](crate::ImportanceWeights::from_powered),
/// split out so per-segment chunks can be normalized independently (on a
/// worker pool) with a result bit-identical to the flat serial pass.
/// With `total ≤ 0` the chunk falls back to the exact uniform
/// distribution, matching the flat all-zero fallback.
pub fn normalize_powered_chunk(chunk: &mut [f64], total: f64, uniform_mix: f64, n: usize) {
    let uniform = 1.0 / n as f64;
    if total <= 0.0 {
        for p in chunk.iter_mut() {
            *p = uniform;
        }
        return;
    }
    for p in chunk.iter_mut() {
        *p = (1.0 - uniform_mix) * (*p / total) + uniform_mix * uniform;
    }
}

/// The importance distribution of a segmented corpus, stored as
/// per-segment probability chunks. Probabilities are **bit-identical** to
/// the flat [`ImportanceWeights`](crate::ImportanceWeights) built over the
/// concatenated scores (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct SegmentedWeights {
    chunks: Vec<Vec<f64>>,
    map: ChunkMap,
}

impl SegmentedWeights {
    /// Builds the distribution from per-segment chunks of
    /// already-exponentiated values — the segmented counterpart of
    /// [`ImportanceWeights::from_powered`](crate::ImportanceWeights::from_powered).
    /// The normalizer Σ is one serial accumulator walked over the chunks
    /// in order (the flat left-to-right sum), then each chunk is
    /// normalized element-wise; callers that have a worker pool normalize
    /// the chunks in parallel with [`normalize_powered_chunk`] and
    /// assemble via [`from_normalized_chunks`](Self::from_normalized_chunks)
    /// — the results are bit-identical.
    ///
    /// # Panics
    /// Panics if there are no records, any chunk is empty, or
    /// `uniform_mix` is outside `[0, 1]`.
    pub fn from_powered_chunks(mut chunks: Vec<Vec<f64>>, uniform_mix: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&uniform_mix),
            "SegmentedWeights: uniform_mix={uniform_mix} outside [0, 1]"
        );
        let map = ChunkMap::new(chunks.iter().map(Vec::len));
        // The lone floating-point reduction, kept serial in chunk order so
        // it is bit-identical to the flat `powered.iter().sum()`.
        let mut total = 0.0f64;
        for chunk in &chunks {
            for &p in chunk {
                total += p;
            }
        }
        let n = map.len;
        for chunk in chunks.iter_mut() {
            normalize_powered_chunk(chunk, total, uniform_mix, n);
        }
        Self { chunks, map }
    }

    /// Wraps chunks that were already normalized (each element produced by
    /// [`normalize_powered_chunk`]) — the assembly step of a parallel
    /// per-segment build.
    ///
    /// # Panics
    /// Panics if there are no records or any chunk is empty.
    pub fn from_normalized_chunks(chunks: Vec<Vec<f64>>) -> Self {
        let map = ChunkMap::new(chunks.iter().map(Vec::len));
        Self { chunks, map }
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.map.len
    }

    /// True when the distribution has no entries (construction forbids
    /// this, so this is always false; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.map.len == 0
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.chunks.len()
    }

    /// The probability chunk of segment `c`.
    pub fn chunk(&self, c: usize) -> &[f64] {
        &self.chunks[c]
    }

    /// Sampling probability `w(x)` of global index `i`.
    pub fn prob(&self, i: usize) -> f64 {
        let (c, local) = self.map.locate(i);
        self.chunks[c][local]
    }

    /// Reweighting factor `m(x) = u(x) / w(x) = 1 / (n · w(x))` of global
    /// index `i` — same recipe as the flat
    /// [`reweight_factor`](crate::ImportanceWeights::reweight_factor).
    pub fn reweight_factor(&self, i: usize) -> f64 {
        1.0 / (self.map.len as f64 * self.prob(i))
    }

    /// Alias sampler over a subset of global indices, renormalizing
    /// lazily — the segmented counterpart of
    /// [`ImportanceWeights::restricted_sampler`](crate::ImportanceWeights::restricted_sampler);
    /// since the per-index probabilities are bit-identical to the flat
    /// distribution, so is the restricted table.
    ///
    /// # Panics
    /// Panics if `subset` is empty, contains an out-of-range index, or
    /// carries zero total mass.
    pub fn restricted_sampler(&self, subset: &[usize]) -> AliasTable {
        assert!(
            !subset.is_empty(),
            "SegmentedWeights::restricted_sampler: empty subset"
        );
        let raw: Vec<f64> = subset.iter().map(|&i| self.prob(i)).collect();
        AliasTable::new(&raw)
    }
}

/// Validates one segment's weights and returns its local total mass (one
/// serial accumulator) — phase 1 of the two-level [`SegmentedCdf`] build,
/// independent per segment so a worker pool runs the segments in
/// parallel.
///
/// # Panics
/// Panics on a negative or non-finite weight.
pub fn segment_total(weights: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for &w in weights {
        assert!(w.is_finite() && w >= 0.0, "SegmentedCdf: bad weight {w}");
        acc += w;
    }
    acc
}

/// Computes one segment's **global** cumulative weights, seeding the
/// running sum at the segment's global offset `start` — phase 2 of the
/// two-level [`SegmentedCdf`] build, independent per segment once the
/// offsets are known.
pub fn segment_cumulative(weights: &[f64], start: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(weights.len());
    let mut acc = start;
    for &w in weights {
        acc += w;
        out.push(acc);
    }
    out
}

/// The two-level CDF-inversion sampler of a segmented corpus: a top level
/// of per-segment cumulative totals plus per-segment chunks of global
/// cumulative weights. A draw is one uniform float, a binary search over
/// the (tiny) top level for the segment, and a binary search inside that
/// segment's chunk — O(log #segments + log segment_size) with no
/// contiguous allocation. See the [module docs](self) for the build's
/// determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedCdf {
    /// Global cumulative weights, chunk-resident; chunk `c` continues from
    /// `tops[c - 1]`.
    cumulative: Vec<Vec<f64>>,
    /// `tops[c]` = cumulative mass through segment `c` (the top level);
    /// non-decreasing, last element = total mass.
    tops: Vec<f64>,
    map: ChunkMap,
    /// Last positive-weight global index — the clamp target that keeps
    /// the zero-weight contract when a draw rounds up to the total mass.
    max_draw: usize,
    total: f64,
}

impl SegmentedCdf {
    /// Builds the sampler from per-segment weight chunks with the serial
    /// two-level recipe: per-segment local totals ([`segment_total`]), a
    /// serial offset scan, then per-segment global prefix sums
    /// ([`segment_cumulative`]). Callers with a worker pool run phases 1
    /// and 3 in parallel and assemble with
    /// [`from_cumulative_chunks`](Self::from_cumulative_chunks) — the
    /// result is identical (each phase is independent per segment).
    ///
    /// # Panics
    /// Panics if there are no records, any chunk is empty, any weight is
    /// negative/non-finite, or the weights sum to zero.
    pub fn from_weight_chunks(chunks: &[Vec<f64>]) -> Self {
        let totals: Vec<f64> = chunks.iter().map(|c| segment_total(c)).collect();
        let mut offsets = Vec::with_capacity(chunks.len());
        let mut acc = 0.0f64;
        for &t in &totals {
            offsets.push(acc);
            acc += t;
        }
        let cumulative: Vec<Vec<f64>> = chunks
            .iter()
            .zip(&offsets)
            .map(|(chunk, &start)| segment_cumulative(chunk, start))
            .collect();
        Self::from_cumulative_chunks(cumulative)
    }

    /// Assembles the sampler from per-segment chunks of **global**
    /// cumulative weights (each produced by [`segment_cumulative`] seeded
    /// at its segment's offset).
    ///
    /// # Panics
    /// Panics if there are no records, any chunk is empty, or the total
    /// mass is not positive.
    pub fn from_cumulative_chunks(cumulative: Vec<Vec<f64>>) -> Self {
        let map = ChunkMap::new(cumulative.iter().map(Vec::len));
        let tops: Vec<f64> = cumulative
            .iter()
            .map(|c| *c.last().expect("non-empty chunk"))
            .collect();
        let total = *tops.last().expect("non-empty");
        assert!(total > 0.0, "SegmentedCdf: weights sum to zero");
        // Last positive-weight global index: scan back for the first slot
        // whose cumulative strictly exceeds its predecessor (zero-weight
        // slots repeat their predecessor's cumulative exactly — `acc += 0`
        // is the identity).
        let mut max_draw = None;
        'outer: for c in (0..cumulative.len()).rev() {
            let chunk = &cumulative[c];
            let chunk_start = if c == 0 { 0.0 } else { tops[c - 1] };
            for local in (0..chunk.len()).rev() {
                let prev = if local == 0 {
                    chunk_start
                } else {
                    chunk[local - 1]
                };
                if chunk[local] > prev {
                    max_draw = Some(map.offset(c) + local);
                    break 'outer;
                }
            }
        }
        let max_draw = max_draw.expect("positive total implies a positive weight");
        Self {
            cumulative,
            tops,
            map,
            max_draw,
            total,
        }
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.map.len
    }

    /// True when the sampler has no entries (construction forbids this,
    /// so this is always false; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.map.len == 0
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.cumulative.len()
    }

    /// The top level: cumulative mass through each segment.
    pub fn tops(&self) -> &[f64] {
        &self.tops
    }

    /// The last positive-weight global index (the draw clamp target).
    pub fn max_draw(&self) -> usize {
        self.max_draw
    }

    /// Normalized sampling probability of global index `i`.
    pub fn prob(&self, i: usize) -> f64 {
        let (c, local) = self.map.locate(i);
        let prev = if local == 0 {
            if c == 0 {
                0.0
            } else {
                self.tops[c - 1]
            }
        } else {
            self.cumulative[c][local - 1]
        };
        (self.cumulative[c][local] - prev) / self.total
    }

    /// Locates the drawn index for a mass coordinate `u ∈ [0, total]`:
    /// top-level segment search, then the in-segment search. Clamps to
    /// [`max_draw`](Self::max_draw) so `u` rounding up to the total mass
    /// can never select a trailing zero-weight index.
    fn locate(&self, u: f64) -> usize {
        // A zero-total segment repeats its predecessor's top and is
        // skipped by the strict comparison, like zero-weight indices
        // inside a chunk.
        let seg = self.tops.partition_point(|&t| t <= u);
        if seg >= self.cumulative.len() {
            return self.max_draw;
        }
        let local = self.cumulative[seg].partition_point(|&c| c <= u);
        debug_assert!(local < self.cumulative[seg].len());
        self.map.offset(seg) + local
    }

    /// Draws one index — one uniform float, like the flat
    /// [`CdfSampler`](crate::CdfSampler), so both consume the seeded RNG
    /// stream identically.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.locate(rng.gen::<f64>() * self.total)
    }
}

impl WeightedSampler for SegmentedCdf {
    fn len(&self) -> usize {
        SegmentedCdf::len(self)
    }

    fn prob(&self, i: usize) -> f64 {
        SegmentedCdf::prob(self, i)
    }

    fn draw(&self, rng: &mut dyn RngCore) -> usize {
        self.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{apply_exponent, ImportanceWeights};
    use crate::CdfSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chunked(values: &[f64], chunk: usize) -> Vec<Vec<f64>> {
        values.chunks(chunk.max(1)).map(<[f64]>::to_vec).collect()
    }

    #[test]
    fn segmented_weights_match_flat_bitwise_at_every_chunking() {
        let scores: Vec<f64> = (0..257).map(|i| ((i * 31) % 97) as f64 / 97.0).collect();
        let flat = ImportanceWeights::from_scores(&scores, 0.5, 0.1);
        for chunk in [1, 7, 64, 100, 257] {
            let powered = chunked(&apply_exponent(&scores, 0.5), chunk);
            let seg = SegmentedWeights::from_powered_chunks(powered, 0.1);
            assert_eq!(seg.len(), flat.len());
            for i in 0..scores.len() {
                assert_eq!(
                    seg.prob(i).to_bits(),
                    flat.prob(i).to_bits(),
                    "chunk={chunk} i={i}"
                );
                assert_eq!(
                    seg.reweight_factor(i).to_bits(),
                    flat.reweight_factor(i).to_bits(),
                    "chunk={chunk} i={i}"
                );
            }
        }
    }

    #[test]
    fn segmented_weights_all_zero_falls_back_to_uniform() {
        let seg = SegmentedWeights::from_powered_chunks(vec![vec![0.0; 3], vec![0.0; 2]], 0.1);
        for i in 0..5 {
            assert!((seg.prob(i) - 0.2).abs() < 1e-15, "i={i}");
        }
    }

    #[test]
    fn segmented_cdf_single_segment_matches_flat_bitwise() {
        let weights: Vec<f64> = (0..300).map(|i| ((i * 17) % 29) as f64 / 29.0).collect();
        let flat = CdfSampler::new(&weights);
        let seg = SegmentedCdf::from_weight_chunks(std::slice::from_ref(&weights));
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..2_000 {
            assert_eq!(seg.sample(&mut a), flat.sample(&mut b));
        }
        for i in 0..weights.len() {
            assert_eq!(seg.prob(i).to_bits(), flat.prob(i).to_bits(), "prob {i}");
        }
    }

    #[test]
    fn segmented_cdf_build_depends_only_on_layout() {
        // The two-level build's phases are independent per segment, so
        // running them in any order (a worker pool's prerogative) yields
        // the same sampler. Emulate out-of-order phase execution by
        // building phase results separately and assembling.
        let weights: Vec<f64> = (0..1_000).map(|i| ((i * 7) % 101) as f64 / 101.0).collect();
        let chunks = chunked(&weights, 137);
        let serial = SegmentedCdf::from_weight_chunks(&chunks);
        let totals: Vec<f64> = chunks.iter().map(|c| segment_total(c)).collect();
        let mut offsets = Vec::new();
        let mut acc = 0.0;
        for &t in &totals {
            offsets.push(acc);
            acc += t;
        }
        // Phase 2 in reverse segment order — same bits.
        let mut cum: Vec<Vec<f64>> = vec![Vec::new(); chunks.len()];
        for c in (0..chunks.len()).rev() {
            cum[c] = segment_cumulative(&chunks[c], offsets[c]);
        }
        let assembled = SegmentedCdf::from_cumulative_chunks(cum);
        assert_eq!(serial, assembled);
    }

    #[test]
    fn segmented_cdf_marginals_match_weights() {
        let weights = [5.0, 0.0, 1.0, 4.0, 0.0, 2.0];
        let seg = SegmentedCdf::from_weight_chunks(&chunked(&weights, 2));
        let mut rng = StdRng::seed_from_u64(13);
        let n = 300_000;
        let mut counts = [0usize; 6];
        for _ in 0..n {
            counts[seg.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let expected = weights[i] / total;
            let emp = c as f64 / n as f64;
            assert!((emp - expected).abs() < 0.005, "index {i}: emp={emp}");
        }
    }

    #[test]
    fn segmented_cdf_never_draws_zero_weight_even_at_total_mass() {
        // Trailing zero-weight records — including a whole zero-weight
        // trailing segment — plus the forced `u == total` edge.
        let weights = [0.0, 2.0, 1.0, 0.0, 0.0, 0.0];
        let seg = SegmentedCdf::from_weight_chunks(&chunked(&weights, 2));
        assert_eq!(seg.max_draw(), 2);
        let total: f64 = weights.iter().sum();
        assert_eq!(seg.locate(total), 2, "u == total must clamp to max_draw");
        assert_eq!(seg.locate(0.0), 1, "zero mass coordinate skips index 0");
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20_000 {
            let i = seg.sample(&mut rng);
            assert!(i == 1 || i == 2, "drew zero-weight index {i}");
        }
    }

    #[test]
    fn segmented_cdf_skips_zero_total_segments() {
        let chunks = vec![
            vec![0.0, 0.0],
            vec![3.0, 1.0],
            vec![0.0, 0.0],
            vec![2.0, 0.0],
        ];
        let seg = SegmentedCdf::from_weight_chunks(&chunks);
        assert_eq!(seg.max_draw(), 6);
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..20_000 {
            let i = seg.sample(&mut rng);
            assert!(matches!(i, 2 | 3 | 6), "drew zero-weight index {i}");
        }
    }

    #[test]
    fn erased_draws_match_inherent_draws() {
        let weights: Vec<f64> = (1..=64).map(|i| (i as f64).sqrt()).collect();
        let cdf = SegmentedCdf::from_weight_chunks(&chunked(&weights, 10));
        let mut a = StdRng::seed_from_u64(29);
        let mut b = StdRng::seed_from_u64(29);
        for _ in 0..500 {
            assert_eq!(WeightedSampler::draw(&cdf, &mut a), cdf.sample(&mut b));
        }
        assert_eq!(WeightedSampler::len(&cdf), 64);
        assert!(!WeightedSampler::is_empty(&cdf));
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn segmented_cdf_rejects_all_zero_weights() {
        SegmentedCdf::from_weight_chunks(&[vec![0.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "empty segment")]
    fn rejects_empty_segments() {
        SegmentedWeights::from_normalized_chunks(vec![vec![0.5], vec![]]);
    }
}
