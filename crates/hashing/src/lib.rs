//! Hash families for model counting and F0 estimation.
//!
//! The paper's algorithms use exactly three kinds of hash functions over the
//! universe `{0,1}^n`:
//!
//! * [`ToeplitzHash`] — `h(x) = Ax + b` with `A` a random Toeplitz matrix
//!   (`H_Toeplitz(n, m)`, 2-wise independent, Θ(n + m) bits of randomness);
//! * [`XorHash`] — `h(x) = Ax + b` with `A` a fully random matrix
//!   (`H_xor(n, m)`, 2-wise independent, Θ(n·m) bits);
//! * [`SWiseHash`] — a uniformly random degree-(s−1) polynomial over
//!   GF(2^n) (`H_{s-wise}(n, n)`, s-wise independent), used by the
//!   Estimation strategy.
//!
//! In addition, [`SparseXorHash`] implements the sparse-XOR family that
//! Section 6 of the paper singles out as a future direction: rows of low
//! Hamming weight that are much cheaper for the CNF-XOR oracle, at the price
//! of weaker independence guarantees (see the ablation benchmarks).
//!
//! All linear families expose their affine representation so that the
//! constraint `h_m(x) = 0^m` can be handed to the CNF-XOR oracle as XOR
//! equations, and so that the hashed image of a DNF term / affine space can
//! be built as an [`mcf0_gf2::AffineSubspace`].
//!
//! Randomness is supplied by [`rng::SplitMix64`] / [`rng::Xoshiro256StarStar`]
//! — small, seedable generators so that every experiment in the workspace is
//! reproducible from a printed seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linear;
pub mod rng;
pub mod sparse;
pub mod swise;

pub use linear::{pack192, unpack192, LinearHash, Packed192, ToeplitzHash, XorHash};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use sparse::{RowDensity, SparseXorHash};
pub use swise::{SWiseHash, SWisePoint};
