//! Affine hash families over GF(2): `H_Toeplitz(n, m)` and `H_xor(n, m)`.
//!
//! Both families consist of maps `h(x) = Ax + b` from `{0,1}^n` to `{0,1}^m`
//! and are 2-wise independent. They differ only in how `A` is drawn:
//! a uniformly random Toeplitz matrix (Θ(n + m) bits of randomness) versus a
//! fully random matrix (Θ(n·m) bits). The `m'`-th *prefix slice* `h_{m'}` is
//! the map given by the first `m'` rows of `A` and the first `m'` bits of
//! `b` — the structural property that lets the bucketing algorithms tighten
//! cells one level at a time without redrawing hash functions.

use crate::rng::Xoshiro256StarStar;
use mcf0_gf2::{AffineSubspace, BitMatrix, BitVec};
use std::sync::Arc;

/// Common interface of the affine (2-wise independent) hash families.
pub trait LinearHash {
    /// Input width `n`.
    fn input_bits(&self) -> usize;

    /// Output width `m`.
    fn output_bits(&self) -> usize;

    /// Row `i` of the matrix `A` (a vector of `n` bits).
    fn matrix_row(&self, i: usize) -> BitVec;

    /// Offset bit `b_i`.
    fn offset_bit(&self, i: usize) -> bool;

    /// Evaluates the full hash `h(x) = Ax + b`.
    fn eval(&self, x: &BitVec) -> BitVec {
        let n = self.input_bits();
        let m = self.output_bits();
        assert_eq!(x.len(), n, "input width mismatch");
        let mut out = BitVec::zeros(m);
        for i in 0..m {
            let bit = self.matrix_row(i).dot(x) ^ self.offset_bit(i);
            out.set(i, bit);
        }
        out
    }

    /// Evaluates the prefix slice `h_{m'}(x)` (first `m'` output bits).
    fn eval_prefix(&self, x: &BitVec, m_prime: usize) -> BitVec {
        assert!(m_prime <= self.output_bits());
        let mut out = BitVec::zeros(m_prime);
        for i in 0..m_prime {
            let bit = self.matrix_row(i).dot(x) ^ self.offset_bit(i);
            out.set(i, bit);
        }
        out
    }

    /// True iff `h_{m'}(x) = 0^{m'}` — the cell-membership test used by the
    /// Bucketing strategy and by `ApproxMC`.
    fn prefix_is_zero(&self, x: &BitVec, m_prime: usize) -> bool {
        (0..m_prime).all(|i| self.matrix_row(i).dot(x) == self.offset_bit(i))
    }

    /// The affine representation `(A, b)` of the full hash.
    fn to_affine(&self) -> (BitMatrix, BitVec) {
        let m = self.output_bits();
        let rows: Vec<BitVec> = (0..m).map(|i| self.matrix_row(i)).collect();
        let mut b = BitVec::zeros(m);
        for i in 0..m {
            b.set(i, self.offset_bit(i));
        }
        (BitMatrix::from_rows(rows), b)
    }

    /// The affine representation of the prefix slice `h_{m'}`.
    fn prefix_affine(&self, m_prime: usize) -> (BitMatrix, BitVec) {
        assert!(m_prime <= self.output_bits());
        let rows: Vec<BitVec> = (0..m_prime).map(|i| self.matrix_row(i)).collect();
        let mut b = BitVec::zeros(m_prime);
        for i in 0..m_prime {
            b.set(i, self.offset_bit(i));
        }
        (BitMatrix::from_rows(rows), b)
    }

    /// Image of a sub-cube of the input space under the hash, as an affine
    /// subspace of `{0,1}^m`.
    ///
    /// `fixed` assigns some input variables a constant; the remaining
    /// variables are free. This is the "hashed solution set of a DNF term"
    /// construction from the proof of Proposition 2.
    fn image_of_cube(&self, fixed: &[(usize, bool)]) -> AffineSubspace {
        let n = self.input_bits();
        let m = self.output_bits();
        let mut is_fixed = vec![false; n];
        let mut x0 = BitVec::zeros(n);
        for &(var, value) in fixed {
            assert!(var < n, "fixed variable index out of range");
            is_fixed[var] = true;
            x0.set(var, value);
        }
        // Offset = h(x0) where free variables are zero.
        let offset = self.eval(&x0);
        // Generators: for each free variable j, the column A·e_j.
        let mut generators = Vec::new();
        for (j, _) in is_fixed.iter().enumerate().filter(|&(_, &fixed)| !fixed) {
            let mut col = BitVec::zeros(m);
            for i in 0..m {
                if self.matrix_row(i).get(j) {
                    col.set(i, true);
                }
            }
            generators.push(col);
        }
        AffineSubspace::new(offset, generators)
    }
}

/// A hash value of at most 192 bits in three words: MSB-first
/// inside each word and the unused tail bits zero — the layout of
/// [`BitVec::words`], padded with zero words. With that layout the derived
/// `Ord` on the array is exactly `BitVec`'s lexicographic order.
pub type Packed192 = [u64; 3];

/// Widest output [`ToeplitzHash::eval_u64`] packs (`m ≤ 192`, i.e. the
/// Minimum sketch's `3n` for every `n ≤ 64`).
const PACKED_BITS: usize = 192;

/// Input bits per lookup window of the packed evaluation: `⌈n/4⌉` windows
/// of 16 entries each (3 KiB per hash at `n = 32`). Byte windows would
/// halve the lookups but need 16× the table.
const WINDOW_BITS: usize = 4;
const WINDOW_ENTRIES: usize = 1 << WINDOW_BITS;

/// `v` in the [`Packed192`] layout (requires `v.len() ≤ 192`).
pub fn pack192(v: &BitVec) -> Packed192 {
    assert!(v.len() <= PACKED_BITS, "at most {PACKED_BITS} bits pack");
    let mut out = [0u64; 3];
    out[..v.words().len()].copy_from_slice(v.words());
    out
}

/// Inverse of [`pack192`]: the first `len` bits of `p` as a [`BitVec`].
pub fn unpack192(p: &Packed192, len: usize) -> BitVec {
    assert!(len <= PACKED_BITS, "at most {PACKED_BITS} bits pack");
    BitVec::from_words(len, &p[..len.div_ceil(64)])
}

fn xor192(a: &Packed192, b: &Packed192) -> Packed192 {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2]]
}

/// A hash drawn from `H_Toeplitz(n, m)`: `A` is a random Toeplitz matrix
/// (constant along diagonals), `b` a random vector. The randomness is the
/// `n + m − 1` diagonal bits plus `b`, i.e. Θ(n + m) bits as in the paper.
///
/// Every expansion of the draw is built once, at sampling time, and shared
/// by all clones behind one `Arc` (a clone bumps a refcount; the sketches
/// clone their hashes for every ring slot, shard extract, merge and
/// snapshot). The expansions are: the rows (for dot-product evaluation);
/// the *columns* (so `h(x)` is the word-wise XOR of `popcount(x)` columns
/// into `b` — the fast path of [`LinearHash::eval`] and `image_of_cube`);
/// when `n ≤ 64`, each row as a raw `u64` mask (so the Bucketing cell test
/// `h_{m'}(x) = 0^{m'}` is `m'` AND+popcount word operations on the item
/// itself); and, when also `m ≤ 192`, 4-bit window tables over the packed
/// columns, so the Minimum sketch's [`ToeplitzHash::eval_u64`] is `⌈n/4⌉`
/// table lookups per output word into a [`Packed192`] with no allocation.
#[derive(Clone, Debug)]
pub struct ToeplitzHash {
    draw: Arc<ToeplitzDraw>,
}

#[derive(Debug)]
struct ToeplitzDraw {
    n: usize,
    m: usize,
    /// `diag[k]` is the matrix entry `A[i][j]` for all `i − j = k − (n − 1)`.
    diag: BitVec,
    b: BitVec,
    rows: Vec<BitVec>,
    /// Column `j` of `A` as an `m`-bit vector.
    cols: Vec<BitVec>,
    /// Row `i` of `A` packed into a `u64` (MSB-first, matching
    /// `BitVec::from_u64`); present iff `n ≤ 64`.
    row_masks: Option<Vec<u64>>,
    /// Window `w`'s entry `j` is the XOR of the columns selected by the
    /// item bits `4w..4w+4` set in `j`, window 0 with `b` folded in. Word
    /// `k` of that entry sits at `k·len/3 + w·16 + j`: one plane per
    /// output word, so the first word alone is a pass over a third of the
    /// table. Present iff `n ≤ 64` and `m ≤ 192`.
    windows: Option<Vec<u64>>,
}

impl ToeplitzHash {
    /// Samples a uniformly random member of `H_Toeplitz(n, m)`.
    pub fn sample(rng: &mut Xoshiro256StarStar, n: usize, m: usize) -> Self {
        assert!(n > 0 && m > 0);
        let diag = rng.random_bitvec(n + m - 1);
        let b = rng.random_bitvec(m);
        Self::from_parts(n, m, diag, b)
    }

    /// Rebuilds the hash from its randomness `(diag, b)` — the lossless
    /// import matching [`ToeplitzHash::diagonal`] / [`ToeplitzHash::offset`],
    /// used by the sketch-service snapshot restore path. The cached
    /// expansions are rederived, so a round trip is bit-identical to the
    /// originally sampled hash.
    pub fn from_parts(n: usize, m: usize, diag: BitVec, b: BitVec) -> Self {
        assert!(n > 0 && m > 0);
        assert_eq!(diag.len(), n + m - 1, "diagonal width mismatch");
        assert_eq!(b.len(), m, "offset width mismatch");
        let rows: Vec<BitVec> = (0..m)
            .map(|i| {
                let mut row = BitVec::zeros(n);
                for j in 0..n {
                    // index into diag: (i - j) + (n - 1) ∈ 0..n+m-1
                    if diag.get(i + (n - 1) - j) {
                        row.set(j, true);
                    }
                }
                row
            })
            .collect();
        let cols: Vec<BitVec> = (0..n)
            .map(|j| {
                let mut col = BitVec::zeros(m);
                for i in 0..m {
                    if diag.get(i + (n - 1) - j) {
                        col.set(i, true);
                    }
                }
                col
            })
            .collect();
        let row_masks = (n <= 64).then(|| rows.iter().map(BitVec::to_u64).collect());
        let windows = (n <= 64 && m <= PACKED_BITS).then(|| window_table(&cols, &b));
        ToeplitzHash {
            draw: Arc::new(ToeplitzDraw {
                n,
                m,
                diag,
                b,
                rows,
                cols,
                row_masks,
                windows,
            }),
        }
    }

    /// Number of random bits this representation stores (Θ(n + m)); the
    /// cached expansions are derived data, not randomness.
    pub fn representation_bits(&self) -> usize {
        self.draw.diag.len() + self.draw.b.len()
    }

    /// The diagonal bits of `A` (the matrix half of the hash's randomness).
    pub fn diagonal(&self) -> &BitVec {
        &self.draw.diag
    }

    /// The offset vector `b` (the other half of the randomness).
    pub fn offset(&self) -> &BitVec {
        &self.draw.b
    }

    /// Evaluates `h(x)` for an item given as the low-`n`-bit integer `x`
    /// (the streaming-sketch item encoding), packed as a [`Packed192`]:
    /// per 4 input bits, one table lookup and XOR for each output word.
    /// Requires `n ≤ 64` and `m ≤ 192`. Bits of `x` at or above `n` are
    /// ignored, so callers that take untrusted items check the range first.
    pub fn eval_u64(&self, x: u64) -> Packed192 {
        let planes = self.window_planes(x);
        let len = planes.len() / 3;
        [0, 1, 2].map(|k| eval_plane(&planes[k * len..(k + 1) * len], x))
    }

    /// The first word of [`ToeplitzHash::eval_u64`] — its 64 most
    /// significant output bits — for a third of the lookups. The Minimum
    /// sketch rejects most items on this word alone.
    pub fn eval_u64_first_word(&self, x: u64) -> u64 {
        let planes = self.window_planes(x);
        eval_plane(&planes[..planes.len() / 3], x)
    }

    fn window_planes(&self, x: u64) -> &[u64] {
        debug_assert!(
            self.draw.n == 64 || x >> self.draw.n == 0,
            "item out of range"
        );
        self.draw
            .windows
            .as_deref()
            .expect("eval_u64 requires n ≤ 64 and m ≤ 192")
    }

    /// `h_{m'}(x) = 0^{m'}` for a `u64`-encoded item, via the packed row
    /// masks: one AND+popcount per row, no `BitVec` materialisation
    /// (requires `n ≤ 64`).
    pub fn prefix_is_zero_u64(&self, x: u64, m_prime: usize) -> bool {
        let masks = self
            .draw
            .row_masks
            .as_ref()
            .expect("prefix_is_zero_u64 requires an input width of at most 64");
        debug_assert!(m_prime <= self.draw.m);
        masks[..m_prime]
            .iter()
            .enumerate()
            .all(|(i, &mask)| ((mask & x).count_ones() & 1 == 1) == self.draw.b.get(i))
    }
}

/// One output word of the packed evaluation: a lookup per 4-bit window of
/// `x` into that word's plane of the window table.
fn eval_plane(plane: &[u64], x: u64) -> u64 {
    plane
        .chunks_exact(WINDOW_ENTRIES)
        .enumerate()
        .fold(0, |acc, (w, table)| {
            acc ^ table[(x >> (WINDOW_BITS * w)) as usize & (WINDOW_ENTRIES - 1)]
        })
}

/// The 4-bit window tables of [`ToeplitzDraw::windows`]: item bit `p` (of
/// the `u64` encoding) is `BitVec` index `n − 1 − p` and so selects column
/// `cols[n − 1 − p]`. Each entry is one XOR of an earlier entry and one
/// packed column; the entries are then split into word planes.
fn window_table(cols: &[BitVec], b: &BitVec) -> Vec<u64> {
    let n = cols.len();
    let by_item_bit: Vec<Packed192> = cols.iter().rev().map(pack192).collect();
    let mut table = Vec::with_capacity(n.div_ceil(WINDOW_BITS) * WINDOW_ENTRIES);
    for w in 0..n.div_ceil(WINDOW_BITS) {
        table.push(if w == 0 { pack192(b) } else { [0; 3] });
        for k in 1..WINDOW_ENTRIES {
            let rest = table[w * WINDOW_ENTRIES + (k & (k - 1))];
            let bit = WINDOW_BITS * w + k.trailing_zeros() as usize;
            let col = by_item_bit.get(bit).copied().unwrap_or([0; 3]);
            table.push(xor192(&rest, &col));
        }
    }
    (0..3)
        .flat_map(|k| table.iter().map(move |entry| entry[k]))
        .collect()
}

impl PartialEq for ToeplitzHash {
    /// Two hashes are equal iff they were drawn identically: same dimensions
    /// and same randomness `(diag, b)`. The cached expansions are derived
    /// data, so they are not compared. This is the compatibility check the
    /// mergeable sketches use — distinct-union merge semantics only make
    /// sense between sketches sharing their hash draws.
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.draw, &*other.draw);
        Arc::ptr_eq(&self.draw, &other.draw)
            || (a.n == b.n && a.m == b.m && a.diag == b.diag && a.b == b.b)
    }
}

impl Eq for ToeplitzHash {}

impl LinearHash for ToeplitzHash {
    fn input_bits(&self) -> usize {
        self.draw.n
    }

    fn output_bits(&self) -> usize {
        self.draw.m
    }

    fn matrix_row(&self, i: usize) -> BitVec {
        self.draw.rows[i].clone()
    }

    fn offset_bit(&self, i: usize) -> bool {
        self.draw.b.get(i)
    }

    fn eval(&self, x: &BitVec) -> BitVec {
        assert_eq!(x.len(), self.draw.n, "input width mismatch");
        // Column-wise: XOR the columns picked out by the set bits of `x`
        // into `b` — word operations instead of `m` row dot products.
        let mut out = self.draw.b.clone();
        for j in x.iter_ones() {
            out.xor_assign(&self.draw.cols[j]);
        }
        out
    }

    fn eval_prefix(&self, x: &BitVec, m_prime: usize) -> BitVec {
        assert!(m_prime <= self.draw.m);
        let mut out = self.draw.b.prefix(m_prime);
        for (i, row) in self.draw.rows[..m_prime].iter().enumerate() {
            if row.dot(x) {
                out.flip(i);
            }
        }
        out
    }

    fn prefix_is_zero(&self, x: &BitVec, m_prime: usize) -> bool {
        self.draw.rows[..m_prime]
            .iter()
            .enumerate()
            .all(|(i, row)| row.dot(x) == self.draw.b.get(i))
    }

    fn image_of_cube(&self, fixed: &[(usize, bool)]) -> AffineSubspace {
        // The generators are exactly the cached columns of the free
        // variables; the default trait implementation would rebuild each one
        // bit by bit from `m` row clones.
        let mut is_fixed = vec![false; self.draw.n];
        let mut x0 = BitVec::zeros(self.draw.n);
        for &(var, value) in fixed {
            assert!(var < self.draw.n, "fixed variable index out of range");
            is_fixed[var] = true;
            x0.set(var, value);
        }
        let offset = self.eval(&x0);
        let generators = is_fixed
            .iter()
            .enumerate()
            .filter(|&(_, &f)| !f)
            .map(|(j, _)| self.draw.cols[j].clone())
            .collect();
        AffineSubspace::new(offset, generators)
    }
}

/// A hash drawn from `H_xor(n, m)`: `A` fully random, `b` random
/// (Θ(n·m) representation bits).
#[derive(Clone, Debug)]
pub struct XorHash {
    a: BitMatrix,
    b: BitVec,
}

impl XorHash {
    /// Samples a uniformly random member of `H_xor(n, m)`.
    pub fn sample(rng: &mut Xoshiro256StarStar, n: usize, m: usize) -> Self {
        assert!(n > 0 && m > 0);
        let a = BitMatrix::from_rows((0..m).map(|_| rng.random_bitvec(n)).collect());
        XorHash {
            a,
            b: rng.random_bitvec(m),
        }
    }

    /// Builds a hash from an explicit affine representation (used in tests
    /// and by the structured-stream reductions).
    pub fn from_affine(a: BitMatrix, b: BitVec) -> Self {
        assert_eq!(a.nrows(), b.len());
        XorHash { a, b }
    }

    /// Number of random bits this representation stores (Θ(n·m)).
    pub fn representation_bits(&self) -> usize {
        self.a.nrows() * self.a.ncols() + self.b.len()
    }
}

impl LinearHash for XorHash {
    fn input_bits(&self) -> usize {
        self.a.ncols()
    }

    fn output_bits(&self) -> usize {
        self.a.nrows()
    }

    fn matrix_row(&self, i: usize) -> BitVec {
        self.a.row(i).clone()
    }

    fn offset_bit(&self, i: usize) -> bool {
        self.b.get(i)
    }

    fn eval(&self, x: &BitVec) -> BitVec {
        assert_eq!(x.len(), self.a.ncols(), "input width mismatch");
        let mut out = self.b.clone();
        for i in 0..self.a.nrows() {
            if self.a.row(i).dot(x) {
                out.flip(i);
            }
        }
        out
    }

    fn eval_prefix(&self, x: &BitVec, m_prime: usize) -> BitVec {
        assert!(m_prime <= self.a.nrows());
        let mut out = self.b.prefix(m_prime);
        for i in 0..m_prime {
            if self.a.row(i).dot(x) {
                out.flip(i);
            }
        }
        out
    }

    fn prefix_is_zero(&self, x: &BitVec, m_prime: usize) -> bool {
        (0..m_prime).all(|i| self.a.row(i).dot(x) == self.b.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(0xC0FF_EE00)
    }

    #[test]
    fn eval_matches_affine_representation() {
        let mut rng = rng();
        for _ in 0..5 {
            let h = ToeplitzHash::sample(&mut rng, 12, 8);
            let (a, b) = h.to_affine();
            for _ in 0..20 {
                let x = rng.random_bitvec(12);
                assert_eq!(h.eval(&x), a.mul_vec(&x).xor(&b));
            }
            let g = XorHash::sample(&mut rng, 12, 8);
            let (a, b) = g.to_affine();
            for _ in 0..20 {
                let x = rng.random_bitvec(12);
                assert_eq!(g.eval(&x), a.mul_vec(&x).xor(&b));
            }
        }
    }

    #[test]
    fn prefix_slice_is_prefix_of_full_hash() {
        let mut rng = rng();
        let h = ToeplitzHash::sample(&mut rng, 16, 10);
        for _ in 0..20 {
            let x = rng.random_bitvec(16);
            let full = h.eval(&x);
            for m in 0..=10 {
                assert_eq!(h.eval_prefix(&x, m), full.prefix(m));
                assert_eq!(h.prefix_is_zero(&x, m), full.prefix_is_zero(m));
            }
        }
    }

    #[test]
    fn u64_fast_paths_match_bitvec_paths() {
        let mut rng = rng();
        for (n, m) in [
            (1usize, 3usize),
            (12, 8),
            (24, 72),
            (32, 32),
            (64, 64),
            (64, 192),
        ] {
            let h = ToeplitzHash::sample(&mut rng, n, m);
            for _ in 0..30 {
                let x = if n == 64 {
                    rng.next_u64()
                } else {
                    rng.next_u64() & ((1u64 << n) - 1)
                };
                let bits = BitVec::from_u64(x, n);
                assert_eq!(h.eval_u64(x), pack192(&h.eval(&bits)), "n={n} m={m}");
                for level in [0usize, 1, m / 2, m] {
                    assert_eq!(
                        h.prefix_is_zero_u64(x, level),
                        h.prefix_is_zero(&bits, level),
                        "n={n} m={m} level={level}"
                    );
                }
            }
        }
    }

    #[test]
    fn clones_share_one_expansion() {
        let mut rng = rng();
        let h = ToeplitzHash::sample(&mut rng, 32, 96);
        let copy = h.clone();
        assert!(Arc::ptr_eq(&h.draw, &copy.draw));
        let rebuilt = ToeplitzHash::from_parts(32, 96, h.diagonal().clone(), h.offset().clone());
        assert!(!Arc::ptr_eq(&h.draw, &rebuilt.draw));
        assert_eq!(h, rebuilt);
        assert_eq!(h.eval_u64(0xDEAD_BEEF), rebuilt.eval_u64(0xDEAD_BEEF));
    }

    #[test]
    fn cached_column_image_of_cube_matches_default_impl() {
        // The ToeplitzHash override must produce the exact subspace the
        // generic row-by-row construction yields (same offset, same
        // generator order).
        struct RowView<'a>(&'a ToeplitzHash);
        impl LinearHash for RowView<'_> {
            fn input_bits(&self) -> usize {
                self.0.input_bits()
            }
            fn output_bits(&self) -> usize {
                self.0.output_bits()
            }
            fn matrix_row(&self, i: usize) -> BitVec {
                self.0.matrix_row(i)
            }
            fn offset_bit(&self, i: usize) -> bool {
                self.0.offset_bit(i)
            }
        }
        let mut rng = rng();
        let h = ToeplitzHash::sample(&mut rng, 10, 14);
        let fixed = [(0usize, true), (4usize, false), (9usize, true)];
        let fast = h.image_of_cube(&fixed);
        let slow = RowView(&h).image_of_cube(&fixed);
        assert_eq!(fast.offset(), slow.offset());
        assert_eq!(fast.basis(), slow.basis());
    }

    #[test]
    fn toeplitz_matrix_is_constant_on_diagonals() {
        let mut rng = rng();
        let h = ToeplitzHash::sample(&mut rng, 10, 7);
        let (a, _) = h.to_affine();
        for i in 1..7 {
            for j in 1..10 {
                assert_eq!(a.get(i, j), a.get(i - 1, j - 1), "i={i} j={j}");
            }
        }
    }

    #[test]
    fn representation_sizes_match_paper_claims() {
        let mut rng = rng();
        let t = ToeplitzHash::sample(&mut rng, 100, 60);
        let x = XorHash::sample(&mut rng, 100, 60);
        assert_eq!(t.representation_bits(), 100 + 60 - 1 + 60);
        assert_eq!(x.representation_bits(), 100 * 60 + 60);
        assert!(t.representation_bits() < x.representation_bits());
    }

    #[test]
    fn image_of_cube_matches_exhaustive_image() {
        let mut rng = rng();
        let h = XorHash::sample(&mut rng, 6, 5);
        // Fix x0 = 1, x3 = 0; free variables are x1, x2, x4, x5.
        let fixed = [(0usize, true), (3usize, false)];
        let image = h.image_of_cube(&fixed);
        let mut expected: Vec<u64> = Vec::new();
        for v in 0..64u64 {
            let x = BitVec::from_u64(v, 6);
            if x.get(0) && !x.get(3) {
                let y = h.eval(&x).to_u64();
                if !expected.contains(&y) {
                    expected.push(y);
                }
            }
        }
        expected.sort_unstable();
        let got: Vec<u64> = image
            .lex_smallest(usize::MAX >> 1)
            .iter()
            .map(BitVec::to_u64)
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn empirical_pairwise_independence_of_toeplitz() {
        // For distinct x ≠ y, Pr[h(x) = h(y)] should be close to 2^-m.
        let mut rng = rng();
        let n = 10;
        let m = 4;
        let trials = 4000;
        let x = BitVec::from_u64(0b1011001110, n);
        let y = BitVec::from_u64(0b0000000001, n);
        let mut collisions = 0;
        for _ in 0..trials {
            let h = ToeplitzHash::sample(&mut rng, n, m);
            if h.eval(&x) == h.eval(&y) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expected = 1.0 / 16.0;
        assert!(
            (rate - expected).abs() < 0.02,
            "collision rate {rate} should be near {expected}"
        );
    }
}
