//! Property-based tests for the streaming F0 sketches: estimates depend only
//! on the set of distinct items (order- and duplication-invariance), small
//! streams are counted exactly, and the sketches degrade gracefully on
//! adversarial inputs.

use proptest::prelude::*;

use mcf0_hashing::Xoshiro256StarStar;
use mcf0_streaming::{
    compute_f0, AmsF2, BucketingF0, EstimationF0, ExactDistinct, F0Config, F0Sketch,
    FlajoletMartinF0, MinimumF0, SketchStrategy,
};
use std::collections::HashSet;

fn rng_from(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed)
}

/// A stream of up to `max_len` items over a `bits`-bit universe, plus a
/// permutation seed used by the order-invariance properties.
fn stream(bits: usize, max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    prop::collection::vec(any::<u64>().prop_map(move |v| v & mask), 0..max_len)
}

fn exact_f0(stream: &[u64]) -> usize {
    stream.iter().collect::<HashSet<_>>().len()
}

const BITS: usize = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exact_distinct_counts_exactly(items in stream(BITS, 400)) {
        let mut sketch = ExactDistinct::new(BITS);
        sketch.process_stream(&items);
        prop_assert_eq!(sketch.estimate() as usize, exact_f0(&items));
    }

    #[test]
    fn minimum_sketch_is_order_and_duplication_invariant(items in stream(BITS, 200), seed in any::<u64>(), perm_seed in any::<u64>()) {
        let config = F0Config::explicit(0.8, 0.3, 40, 5);
        let mut rng_a = rng_from(seed);
        let mut rng_b = rng_from(seed);
        let mut a = MinimumF0::new(BITS, &config, &mut rng_a);
        let mut b = MinimumF0::new(BITS, &config, &mut rng_b);

        // Same distinct set, permuted and with every item duplicated.
        let mut shuffled = items.clone();
        let mut perm_rng = rng_from(perm_seed);
        perm_rng.shuffle(&mut shuffled);
        let mut doubled = shuffled.clone();
        doubled.extend_from_slice(&items);

        a.process_stream(&items);
        b.process_stream(&doubled);
        prop_assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn bucketing_sketch_is_order_and_duplication_invariant(items in stream(BITS, 200), seed in any::<u64>(), perm_seed in any::<u64>()) {
        let config = F0Config::explicit(0.8, 0.3, 40, 5);
        let mut rng_a = rng_from(seed);
        let mut rng_b = rng_from(seed);
        let mut a = BucketingF0::new(BITS, &config, &mut rng_a);
        let mut b = BucketingF0::new(BITS, &config, &mut rng_b);

        let mut shuffled = items.clone();
        let mut perm_rng = rng_from(perm_seed);
        perm_rng.shuffle(&mut shuffled);
        let mut doubled = shuffled.clone();
        doubled.extend_from_slice(&items);

        a.process_stream(&items);
        b.process_stream(&doubled);
        prop_assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn estimation_sketch_cells_are_duplication_invariant(items in stream(BITS, 120), seed in any::<u64>()) {
        let config = F0Config::explicit(0.5, 0.3, 12, 3);
        let mut rng_a = rng_from(seed);
        let mut rng_b = rng_from(seed);
        let mut a = EstimationF0::new(BITS, &config, &mut rng_a);
        let mut b = EstimationF0::new(BITS, &config, &mut rng_b);

        let mut doubled = items.clone();
        doubled.extend_from_slice(&items);
        doubled.reverse();

        a.process_stream(&items);
        b.process_stream(&doubled);
        for i in 0..a.num_rows() {
            for j in 0..a.thresh() {
                prop_assert_eq!(a.cell(i, j), b.cell(i, j));
            }
        }
    }

    #[test]
    fn small_streams_are_counted_exactly_by_minimum_and_bucketing(items in stream(BITS, 30), seed in any::<u64>()) {
        // F0 < Thresh means no row ever overflows/evicts, so both sketches
        // are exact regardless of the hash draws.
        let config = F0Config::explicit(0.8, 0.3, 64, 5);
        let truth = exact_f0(&items) as f64;

        let mut rng = rng_from(seed);
        let mut min_sketch = MinimumF0::new(BITS, &config, &mut rng);
        min_sketch.process_stream(&items);
        prop_assert_eq!(min_sketch.estimate(), truth);

        let mut rng = rng_from(seed);
        let mut bucket_sketch = BucketingF0::new(BITS, &config, &mut rng);
        bucket_sketch.process_stream(&items);
        prop_assert_eq!(bucket_sketch.estimate(), truth);
    }

    #[test]
    fn empty_streams_estimate_zero(seed in any::<u64>()) {
        let config = F0Config::explicit(0.8, 0.3, 16, 3);
        let mut rng = rng_from(seed);
        prop_assert_eq!(MinimumF0::new(BITS, &config, &mut rng).estimate(), 0.0);
        let mut rng = rng_from(seed);
        prop_assert_eq!(BucketingF0::new(BITS, &config, &mut rng).estimate(), 0.0);
        let mut rng = rng_from(seed);
        let fm = FlajoletMartinF0::new(BITS, &mut rng);
        prop_assert_eq!(fm.estimate(), 0.0);
    }

    #[test]
    fn flajolet_martin_statistic_is_monotone(items in stream(BITS, 150), split in 0.0f64..=1.0, seed in any::<u64>()) {
        let cut = ((items.len() as f64) * split) as usize;
        let mut rng = rng_from(seed);
        let mut full = FlajoletMartinF0::new(BITS, &mut rng);
        let mut rng = rng_from(seed);
        let mut partial = FlajoletMartinF0::new(BITS, &mut rng);
        full.process_stream(&items);
        partial.process_stream(&items[..cut]);
        prop_assert!(full.estimate() >= partial.estimate());
    }

    #[test]
    fn sketch_space_is_reported_and_bounded(items in stream(BITS, 200), seed in any::<u64>()) {
        let config = F0Config::explicit(0.8, 0.3, 32, 4);
        let mut rng = rng_from(seed);
        let mut sketch = MinimumF0::new(BITS, &config, &mut rng);
        sketch.process_stream(&items);
        let space = sketch.space_bits();
        prop_assert!(space > 0);
        // The reservoir never stores more than rows × Thresh hashed values of
        // 3n bits each, plus Θ(n) representation bits per Toeplitz hash.
        let bound = 4 * (32 * 3 * BITS + 8 * BITS);
        prop_assert!(space <= bound, "space {space} exceeds bound {bound}");
    }
}

// ---------------------------------------------------------------------------
// Batched / parallel engine parity: the batched `process_stream` and the
// row-parallel layer must reproduce the item-at-a-time sequential state bit
// for bit, for every sketch (the F0Sketch batching contract, DESIGN.md §6).
// Width 24 exercises the wide-field (`w > 20`) window-table path, width 16
// the discrete-log-table path.
// ---------------------------------------------------------------------------

/// Runs `items` through two identically-seeded copies of each sketch — one
/// item at a time, one batched (with `parallel_rows = threads`) — and
/// asserts identical estimates, space, and per-cell state.
fn assert_batched_matches_sequential(
    bits: usize,
    items: &[u64],
    seed: u64,
    threads: usize,
) -> Result<(), TestCaseError> {
    let config = F0Config::explicit(0.5, 0.3, 24, 5);
    let batched_config = config.with_parallel_rows(threads);

    // MinimumF0: estimate + space (space counts the stored minima).
    let mut a = MinimumF0::new(bits, &config, &mut rng_from(seed));
    let mut b = MinimumF0::new(bits, &batched_config, &mut rng_from(seed));
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.space_bits(), b.space_bits());

    // BucketingF0: estimate + space + every row's level.
    let mut a = BucketingF0::new(bits, &config, &mut rng_from(seed));
    let mut b = BucketingF0::new(bits, &batched_config, &mut rng_from(seed));
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.space_bits(), b.space_bits());
    for i in 0..5 {
        prop_assert_eq!(a.level(i), b.level(i));
    }

    // EstimationF0: every cell.
    let mut a = EstimationF0::new(bits, &config, &mut rng_from(seed));
    let mut b = EstimationF0::new(bits, &batched_config, &mut rng_from(seed));
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.space_bits(), b.space_bits());
    for i in 0..a.num_rows() {
        for j in 0..a.thresh() {
            prop_assert_eq!(a.cell(i, j), b.cell(i, j));
        }
    }

    // FlajoletMartinF0 (single row; batched = deduplicated).
    let mut a = FlajoletMartinF0::new(bits, &mut rng_from(seed));
    let mut b = FlajoletMartinF0::new(bits, &mut rng_from(seed));
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.max_trailing_zeros(), b.max_trailing_zeros());

    // ExactDistinct (trait-default loop — the contract's reference point).
    let mut a = ExactDistinct::new(bits);
    let mut b = ExactDistinct::new(bits);
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.space_bits(), b.space_bits());

    // AmsF2 (multiplicity-sensitive: batched path folds counts first).
    let mut a = AmsF2::new(bits, 3, 8, &mut rng_from(seed));
    let mut b = AmsF2::new(bits, 3, 8, &mut rng_from(seed));
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.items_processed(), b.items_processed());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_process_stream_matches_item_at_a_time(items in stream(BITS, 250), seed in any::<u64>()) {
        // Wide-field path (24 > 20): sequential batched engine.
        assert_batched_matches_sequential(BITS, &items, seed, 1)?;
        // Discrete-log-table path.
        let narrow: Vec<u64> = items.iter().map(|x| x & 0xffff).collect();
        assert_batched_matches_sequential(16, &narrow, seed, 1)?;
    }

    #[test]
    fn parallel_repetitions_match_sequential_bit_for_bit(items in stream(BITS, 250), seed in any::<u64>(), threads in 2usize..6) {
        assert_batched_matches_sequential(BITS, &items, seed, threads)?;
    }
}

// ---------------------------------------------------------------------------
// Merge semantics: merge(sketch(A), sketch(B)) == sketch(A ∪ B) for every
// mergeable sketch (distinct-union; multiset-sum for the linear AMS sketch),
// including empty streams and duplicate-heavy overlap. The two sketches must
// share their hash draws (same seed), which is exactly the service's
// merge-compatibility precondition.
// ---------------------------------------------------------------------------

/// Builds sketch(A), sketch(B) and sketch(A ++ B) from one seed, merges the
/// first pair both ways, and asserts full-state agreement with the third.
fn assert_merge_matches_union(
    a_items: &[u64],
    b_items: &[u64],
    seed: u64,
) -> Result<(), TestCaseError> {
    let config = F0Config::explicit(0.5, 0.3, 16, 3);
    let union: Vec<u64> = a_items.iter().chain(b_items).copied().collect();

    // MinimumF0: estimate + space (space covers the merged reservoirs).
    let mut a = MinimumF0::new(BITS, &config, &mut rng_from(seed));
    let mut b = MinimumF0::new(BITS, &config, &mut rng_from(seed));
    let mut u = MinimumF0::new(BITS, &config, &mut rng_from(seed));
    a.process_stream(a_items);
    b.process_stream(b_items);
    u.process_stream(&union);
    let mut ba = b.clone();
    ba.merge_from(&a);
    a.merge_from(&b);
    prop_assert_eq!(a.estimate(), u.estimate());
    prop_assert_eq!(a.space_bits(), u.space_bits());
    // Merge is symmetric: B ← A reaches the identical state.
    prop_assert_eq!(ba.estimate(), u.estimate());
    prop_assert_eq!(ba.space_bits(), u.space_bits());

    // BucketingF0: estimate + space + levels.
    let mut a = BucketingF0::new(BITS, &config, &mut rng_from(seed));
    let mut b = BucketingF0::new(BITS, &config, &mut rng_from(seed));
    let mut u = BucketingF0::new(BITS, &config, &mut rng_from(seed));
    a.process_stream(a_items);
    b.process_stream(b_items);
    u.process_stream(&union);
    a.merge_from(&b);
    prop_assert_eq!(a.estimate(), u.estimate());
    prop_assert_eq!(a.space_bits(), u.space_bits());
    for i in 0..a.num_rows() {
        prop_assert_eq!(a.level(i), u.level(i));
    }

    // EstimationF0: every cell.
    let mut a = EstimationF0::new(BITS, &config, &mut rng_from(seed));
    let mut b = EstimationF0::new(BITS, &config, &mut rng_from(seed));
    let mut u = EstimationF0::new(BITS, &config, &mut rng_from(seed));
    a.process_stream(a_items);
    b.process_stream(b_items);
    u.process_stream(&union);
    a.merge_from(&b);
    for i in 0..a.num_rows() {
        for j in 0..a.thresh() {
            prop_assert_eq!(a.cell(i, j), u.cell(i, j));
        }
    }

    // FlajoletMartinF0 (covers the empty-stream `saw_item` flag).
    let mut a = FlajoletMartinF0::new(BITS, &mut rng_from(seed));
    let mut b = FlajoletMartinF0::new(BITS, &mut rng_from(seed));
    let mut u = FlajoletMartinF0::new(BITS, &mut rng_from(seed));
    a.process_stream(a_items);
    b.process_stream(b_items);
    u.process_stream(&union);
    a.merge_from(&b);
    prop_assert_eq!(a.max_trailing_zeros(), u.max_trailing_zeros());
    prop_assert_eq!(a.estimate(), u.estimate());

    // AmsF2: linear sketch, so merge is concatenation (multiset sum).
    let mut a = AmsF2::new(BITS, 3, 8, &mut rng_from(seed));
    let mut b = AmsF2::new(BITS, 3, 8, &mut rng_from(seed));
    let mut u = AmsF2::new(BITS, 3, 8, &mut rng_from(seed));
    a.process_stream(a_items);
    b.process_stream(b_items);
    u.process_stream(&union);
    a.merge_from(&b);
    prop_assert_eq!(a.estimate(), u.estimate());
    prop_assert_eq!(a.items_processed(), u.items_processed());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merged_sketches_match_the_union_stream(a_items in stream(BITS, 150), b_items in stream(BITS, 150), seed in any::<u64>()) {
        assert_merge_matches_union(&a_items, &b_items, seed)?;
    }

    #[test]
    fn merged_sketches_match_the_union_on_heavy_overlap(items in stream(8, 200), cut in 0.0f64..=1.0, seed in any::<u64>()) {
        // Both halves draw from a 256-item universe, so A ∩ B is large and
        // duplicates dominate; the halves also share a boundary region.
        let mid = ((items.len() as f64) * cut) as usize;
        assert_merge_matches_union(&items[..mid], &items[mid / 2..], seed)?;
    }

    #[test]
    fn merging_an_empty_sketch_is_the_identity(items in stream(BITS, 150), seed in any::<u64>()) {
        assert_merge_matches_union(&items, &[], seed)?;
        assert_merge_matches_union(&[], &items, seed)?;
        assert_merge_matches_union(&[], &[], seed)?;
    }
}

// ---------------------------------------------------------------------------
// The unified ComputeF0 driver
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn compute_f0_is_accurate_on_planted_streams(seed in any::<u64>(), truth in 50usize..400) {
        let mut rng = rng_from(seed);
        let stream = mcf0_streaming::workloads::planted_f0_stream(&mut rng, BITS, truth, truth + 50);
        for strategy in [SketchStrategy::Bucketing, SketchStrategy::Minimum] {
            let config = F0Config::explicit(0.5, 0.2, 128, 9);
            let mut rng = rng_from(seed ^ 0x5EED);
            let outcome = compute_f0(strategy, BITS, &config, &stream, &mut rng);
            let est = outcome.estimate;
            prop_assert!(
                est >= truth as f64 / 2.0 && est <= truth as f64 * 2.0,
                "strategy {strategy:?}: estimate {est} vs truth {truth}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The Minimum reservoir against a `BTreeSet<BitVec>` model
// ---------------------------------------------------------------------------

/// The reference Minimum rows: each row a `BTreeSet` of `3n`-bit hash values
/// from the `BitVec` evaluation, truncated to the `Thresh` smallest.
struct MinimumModel {
    hashes: Vec<mcf0_hashing::ToeplitzHash>,
    sets: Vec<std::collections::BTreeSet<mcf0_gf2::BitVec>>,
    bits: usize,
    thresh: usize,
}

impl MinimumModel {
    fn of(sketch: &MinimumF0, bits: usize) -> Self {
        let rows = sketch.num_rows();
        MinimumModel {
            hashes: (0..rows).map(|i| sketch.row_parts(i).0.clone()).collect(),
            sets: vec![Default::default(); rows],
            bits,
            thresh: sketch.thresh(),
        }
    }

    fn process(&mut self, item: u64) {
        use mcf0_hashing::LinearHash;
        let x = mcf0_gf2::BitVec::from_u64(item, self.bits);
        for (hash, set) in self.hashes.iter().zip(&mut self.sets) {
            set.insert(hash.eval(&x));
            while set.len() > self.thresh {
                set.pop_last();
            }
        }
    }

    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.sets.iter_mut().zip(&other.sets) {
            mine.extend(theirs.iter().cloned());
            while mine.len() > self.thresh {
                mine.pop_last();
            }
        }
    }

    /// The pre-packing estimate: the same per-row formula over the model's
    /// `BitVec` maxima, median over rows.
    fn estimate(&self) -> f64 {
        let rows: Vec<f64> = self
            .sets
            .iter()
            .map(|set| match set.last() {
                Some(max) if set.len() >= self.thresh => {
                    self.thresh as f64 / mcf0_streaming::minimum::bitvec_to_unit_fraction(max)
                }
                _ => set.len() as f64,
            })
            .collect();
        mcf0_streaming::config::median(&rows)
    }

    fn assert_matches(&self, sketch: &MinimumF0) -> Result<(), TestCaseError> {
        for (i, set) in self.sets.iter().enumerate() {
            let expected: Vec<_> = set.iter().cloned().collect();
            prop_assert_eq!(sketch.row_parts(i).1, expected, "row {}", i);
        }
        prop_assert_eq!(sketch.estimate().to_bits(), self.estimate().to_bits());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn minimum_reservoir_matches_btreeset_model(
        seed in any::<u64>(),
        bits in 1usize..=64,
        thresh in 1usize..24,
        first in prop::collection::vec(any::<u64>(), 0..120),
        second in prop::collection::vec(any::<u64>(), 0..120),
        third in prop::collection::vec(any::<u64>(), 0..60),
    ) {
        // Small universes force repeated items and hash values; the wide
        // ones cross every word boundary of the packed values.
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let config = F0Config::explicit(0.8, 0.2, thresh, 3);
        let mut a = MinimumF0::new(bits, &config, &mut rng_from(seed));
        let mut b = MinimumF0::new(bits, &config, &mut rng_from(seed));
        let mut model_a = MinimumModel::of(&a, bits);
        let mut model_b = MinimumModel::of(&b, bits);
        for &item in &first {
            a.process(item & mask);
            model_a.process(item & mask);
        }
        model_a.assert_matches(&a)?;
        let second: Vec<u64> = second.iter().map(|x| x & mask).collect();
        b.process_stream(&second);
        for &item in &second {
            model_b.process(item);
        }
        model_b.assert_matches(&b)?;

        a.merge_from(&b);
        model_a.merge(&model_b);
        model_a.assert_matches(&a)?;

        let parts = (0..a.num_rows())
            .map(|i| {
                let (hash, smallest) = a.row_parts(i);
                (hash.clone(), smallest)
            })
            .collect();
        let mut restored = MinimumF0::from_parts(bits, thresh, parts);
        model_a.assert_matches(&restored)?;
        for &item in &third {
            restored.process(item & mask);
            model_a.process(item & mask);
        }
        model_a.assert_matches(&restored)?;
    }
}
