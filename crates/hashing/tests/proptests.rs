//! Property-based tests for the hash families: the affine families agree
//! with their explicit matrix representation, prefix slices behave like
//! prefixes, cube images are exact, and the s-wise polynomial family is
//! consistent across its `u64` and bit-vector entry points.

use proptest::prelude::*;

use mcf0_gf2::BitVec;
use mcf0_hashing::{
    pack192, unpack192, LinearHash, SWiseHash, SplitMix64, ToeplitzHash, XorHash,
    Xoshiro256StarStar,
};

fn rng_from(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn toeplitz_eval_matches_affine_form(seed in any::<u64>(), n in 1usize..40, m in 1usize..40, x_raw in any::<u64>()) {
        let mut rng = rng_from(seed);
        let h = ToeplitzHash::sample(&mut rng, n, m);
        let (a, b) = h.to_affine();
        let x = BitVec::from_u64(x_raw & mask(n), n);
        prop_assert_eq!(h.eval(&x), a.mul_vec(&x).xor(&b));
    }

    #[test]
    fn xor_hash_eval_matches_affine_form(seed in any::<u64>(), n in 1usize..40, m in 1usize..40, x_raw in any::<u64>()) {
        let mut rng = rng_from(seed);
        let h = XorHash::sample(&mut rng, n, m);
        let (a, b) = h.to_affine();
        let x = BitVec::from_u64(x_raw & mask(n), n);
        prop_assert_eq!(h.eval(&x), a.mul_vec(&x).xor(&b));
    }

    #[test]
    fn prefix_slice_is_a_prefix(seed in any::<u64>(), n in 1usize..32, m in 1usize..32, x_raw in any::<u64>()) {
        let mut rng = rng_from(seed);
        let h = ToeplitzHash::sample(&mut rng, n, m);
        let x = BitVec::from_u64(x_raw & mask(n), n);
        let full = h.eval(&x);
        for m_prime in 0..=m {
            prop_assert_eq!(h.eval_prefix(&x, m_prime), full.prefix(m_prime));
            prop_assert_eq!(h.prefix_is_zero(&x, m_prime), full.prefix_is_zero(m_prime));
        }
    }

    #[test]
    fn prefix_affine_matches_prefix_slice(seed in any::<u64>(), n in 1usize..24, m in 2usize..24, x_raw in any::<u64>()) {
        let mut rng = rng_from(seed);
        let h = ToeplitzHash::sample(&mut rng, n, m);
        let x = BitVec::from_u64(x_raw & mask(n), n);
        for m_prime in 1..=m {
            let (a, b) = h.prefix_affine(m_prime);
            prop_assert_eq!(a.mul_vec(&x).xor(&b), h.eval_prefix(&x, m_prime));
        }
    }

    #[test]
    fn hashing_is_deterministic_per_draw(seed in any::<u64>(), n in 1usize..32, x_raw in any::<u64>()) {
        let mut rng = rng_from(seed);
        let h = ToeplitzHash::sample(&mut rng, n, n);
        let x = BitVec::from_u64(x_raw & mask(n), n);
        prop_assert_eq!(h.eval(&x), h.eval(&x));
    }

    #[test]
    fn linearity_of_the_matrix_part(seed in any::<u64>(), n in 1usize..32, m in 1usize..32, x_raw in any::<u64>(), y_raw in any::<u64>()) {
        // h(x) ⊕ h(y) ⊕ h(0) = A(x ⊕ y), i.e. the affine offset cancels.
        let mut rng = rng_from(seed);
        let h = ToeplitzHash::sample(&mut rng, n, m);
        let x = BitVec::from_u64(x_raw & mask(n), n);
        let y = BitVec::from_u64(y_raw & mask(n), n);
        let zero = BitVec::zeros(n);
        let lhs = h.eval(&x).xor(&h.eval(&y)).xor(&h.eval(&zero));
        prop_assert_eq!(lhs, h.eval(&x.xor(&y)).xor(&h.eval(&zero)).xor(&h.eval(&zero)));
    }

    #[test]
    fn image_of_cube_contains_every_hashed_cube_member(
        seed in any::<u64>(),
        n in 2usize..10,
        m in 1usize..10,
        fixed_bits in any::<u64>(),
    ) {
        let mut rng = rng_from(seed);
        let h = XorHash::sample(&mut rng, n, m);
        // Fix roughly half the variables according to fixed_bits.
        let fixed: Vec<(usize, bool)> = (0..n)
            .filter(|i| (fixed_bits >> i) & 1 == 1)
            .map(|i| (i, (fixed_bits >> (i + 32)) & 1 == 1))
            .collect();
        let image = h.image_of_cube(&fixed);
        for v in 0..(1u64 << n) {
            let x = BitVec::from_u64(v, n);
            let in_cube = fixed.iter().all(|&(var, val)| x.get(var) == val);
            if in_cube {
                prop_assert!(image.contains(&h.eval(&x)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The packed Toeplitz evaluation of the Minimum sketch (m = 3n ≤ 192)
// ---------------------------------------------------------------------------

/// `eval_u64` must equal the `BitVec` evaluation bit for bit (and
/// `eval_u64_first_word` its first word), and the packed arrays must order
/// exactly like the bit vectors they pack.
fn check_packed_eval(seed: u64, n: usize, x_raw: u64, y_raw: u64) -> Result<(), TestCaseError> {
    let mut rng = rng_from(seed);
    let h = ToeplitzHash::sample(&mut rng, n, 3 * n);
    let (x, y) = (x_raw & mask(n), y_raw & mask(n));
    let hx = h.eval(&BitVec::from_u64(x, n));
    let hy = h.eval(&BitVec::from_u64(y, n));
    prop_assert_eq!(h.eval_u64(x), pack192(&hx));
    prop_assert_eq!(h.eval_u64_first_word(x), h.eval_u64(x)[0]);
    prop_assert_eq!(unpack192(&h.eval_u64(y), 3 * n), hy.clone());
    prop_assert_eq!(h.eval_u64(x).cmp(&h.eval_u64(y)), hx.cmp(&hy));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn toeplitz_packed_eval_matches_bitvec_eval(seed in any::<u64>(), n in 1usize..=64, x_raw in any::<u64>(), y_raw in any::<u64>()) {
        check_packed_eval(seed, n, x_raw, y_raw)?;
    }

    #[test]
    fn toeplitz_packed_eval_at_word_boundaries(seed in any::<u64>(), pick in 0usize..9, x_raw in any::<u64>(), y_raw in any::<u64>()) {
        // 3n crosses the first word boundary between n = 21 (63 bits) and
        // n = 22 (66 bits), the second between 42 (126) and 43 (129), and
        // fills all three words at 64; 1, 3, 30 and 61 leave a partial
        // last 4-bit window.
        let n = [1, 3, 21, 22, 30, 42, 43, 61, 64][pick];
        check_packed_eval(seed, n, x_raw, y_raw)?;
    }
}

fn mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

// ---------------------------------------------------------------------------
// The s-wise polynomial family
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn swise_bitvec_and_u64_entry_points_agree(seed in any::<u64>(), width in 1u32..=64, s in 2usize..8, x in any::<u64>()) {
        let mut rng = rng_from(seed);
        let h = SWiseHash::sample(&mut rng, width, s);
        let x = x & mask(width as usize);
        let bv = BitVec::from_u64(x, width as usize);
        prop_assert_eq!(h.eval(&bv).to_u64(), h.eval_u64(x));
        prop_assert_eq!(h.independence(), s);
        prop_assert_eq!(h.width(), width);
    }

    #[test]
    fn swise_trailing_zero_statistic_matches_bitvec(seed in any::<u64>(), width in 1u32..=64, s in 2usize..6, x in any::<u64>()) {
        let mut rng = rng_from(seed);
        let h = SWiseHash::sample(&mut rng, width, s);
        let x = x & mask(width as usize);
        let bv = BitVec::from_u64(x, width as usize);
        prop_assert_eq!(h.trail_zero_u64(x) as usize, h.eval(&bv).trailing_zeros());
    }

    #[test]
    fn swise_from_coeffs_is_the_stated_polynomial(width in 2u32..=16, coeffs in prop::collection::vec(any::<u64>(), 2..5), x in any::<u64>()) {
        use mcf0_gf2::{Gf2Ext, Gf2Poly};
        let field = Gf2Ext::new(width);
        let coeffs: Vec<u64> = coeffs.into_iter().map(|c| field.element(c)).collect();
        let h = SWiseHash::from_coeffs(width, coeffs.clone());
        let poly = Gf2Poly::new(field, coeffs);
        let x = field.element(x);
        prop_assert_eq!(h.eval_u64(x), poly.eval(x));
    }
}

// ---------------------------------------------------------------------------
// The seedable RNG: determinism and range behaviour
// ---------------------------------------------------------------------------

proptest! {
    // Pinned explicitly so the RNG determinism checks keep a fixed budget
    // independent of the runner's default case count.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rng_is_reproducible_from_the_seed(seed in any::<u64>()) {
        let mut a = rng_from(seed);
        let mut b = rng_from(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_and_xoshiro_streams_differ(seed in any::<u64>()) {
        let mut sm = SplitMix64::new(seed);
        let mut xo = rng_from(seed);
        // Not a statistical claim — just that the two generators are not the
        // same stream (they seed different algorithms).
        let same = (0..8).all(|_| sm.next_u64() == xo.next_u64());
        prop_assert!(!same);
    }

    #[test]
    fn gen_range_respects_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = rng_from(seed);
        for _ in 0..32 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    #[test]
    fn gen_range_inclusive_respects_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut rng = rng_from(seed);
        let hi = lo + span;
        for _ in 0..16 {
            let v = rng.gen_range_inclusive(lo, hi);
            prop_assert!(v >= lo && v <= hi);
        }
    }

    #[test]
    fn sample_distinct_returns_distinct_indices(seed in any::<u64>(), n in 1usize..200, k_frac in 0.0f64..=1.0) {
        let mut rng = rng_from(seed);
        let k = ((n as f64) * k_frac) as usize;
        let sample = rng.sample_distinct(n, k);
        prop_assert_eq!(sample.len(), k);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
        prop_assert!(sample.iter().all(|&i| i < n));
    }

    #[test]
    fn random_bitvec_has_requested_length(seed in any::<u64>(), len in 1usize..300) {
        let mut rng = rng_from(seed);
        prop_assert_eq!(rng.random_bitvec(len).len(), len);
    }

    #[test]
    fn shuffle_is_a_permutation(seed in any::<u64>(), n in 0usize..100) {
        let mut rng = rng_from(seed);
        let mut items: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn forked_rng_diverges_from_parent(seed in any::<u64>()) {
        let mut parent = rng_from(seed);
        let mut fork = parent.fork();
        let same = (0..8).all(|_| parent.next_u64() == fork.next_u64());
        prop_assert!(!same);
    }
}
