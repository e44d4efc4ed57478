//! BLAS-substitute kernels for the `ata` workspace.
//!
//! The paper builds on Intel MKL: `?gemm` for general products, `?syrk`
//! for the `A^T A` base case, `?axpy` for block sums (§3.1). MKL is not
//! available to a pure-Rust reproduction, so this crate provides the same
//! contracts with cache-blocked, autovectorizer-friendly implementations:
//!
//! * [`level1`] — `axpy`, `scal`, `dot`, `nrm2` on slices;
//! * [`gemm`] — `C += alpha * A^T B` without materializing `A^T`
//!   (the `?gemm('T','N')` case used everywhere in the paper);
//! * [`syrk`] — lower-triangular `C += alpha * A^T A`
//!   (the `?syrk('L','T')` case);
//! * [`pack`] / [`micro`] — the BLIS-style packed, register-blocked
//!   engine both of the above dispatch to (Huang et al.'s prescription
//!   for making Strassen leaves competitive), with the pre-engine loops
//!   retained as the ablation fallback;
//! * [`calibrate`] — the measured per-scalar blocking table and
//!   base-case cutoff model behind the engine's defaults;
//! * [`par`] — rayon-parallel versions standing in for multi-threaded MKL
//!   in the Figure 5/6 comparisons;
//! * [`simd`] — explicit AVX2+FMA and AVX-512F register kernels behind
//!   one-time runtime CPU-feature detection, with the portable kernels
//!   as the bit-identical fallback on machines without them.
//!
//! Absolute GFLOPs are below MKL's hand-tuned assembly, but every
//! algorithm in the workspace — AtA and all baselines — calls these same
//! kernels, so the *relative* comparisons the paper makes are preserved.
//!
//! [`CacheConfig`] centralizes the "fits in cache" predicate that decides
//! the recursion base cases of Algorithms 1 and 2.

// Unsafe is confined to `simd` (pointer-based intrinsics behind runtime
// feature detection); everything else stays safe and `ata-lint`'s
// safety-comment + allowlist gates keep it that way.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod calibrate;
pub mod gemm;
pub mod level1;
pub mod micro;
pub mod pack;
pub mod par;
pub mod simd;
pub mod syrk;

pub use gemm::gemm_tn;
pub use micro::{KernelConfig, KernelPath, MicroPath};
pub use syrk::{syrk_ln, syrk_ln_beta};

/// Cache-size model driving the base-case tests of the recursive
/// algorithms (Algorithm 1 line 2; Algorithm 2 line 2).
///
/// The paper stops recursing "when the number of entries of the
/// sub-matrix fits in the cache". Here the leaf is the packed
/// register-blocked engine ([`micro`]), which already blocks the row
/// (reduction) dimension by `KC`, so only the *output* block has to fit:
/// a leaf's working set is its `C` block plus one `KC`-deep slab of
/// each operand, whatever the row count. Both predicates therefore size
/// leaves by their output dimensions alone, and a tall operand stays one
/// wide leaf instead of recursing into narrow, memory-bound ones.
/// `words` is the budget measured in matrix elements; on square
/// problems (`m = n`, and `m = n = k` for products) the predicates
/// recurse exactly like the paper's literal "the `m x n` block fits".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Leaf budget in elements: a syrk leaf of order `s` costs `s^2`.
    pub words: usize,
}

impl Default for CacheConfig {
    /// The measured `f64` base-case crossover from the calibration table
    /// (see [`calibrate::tuned_for`]) — recursion stops where one more
    /// Strassen level stops paying for its block sums on this machine.
    /// Override per run with `ATA_KERNEL_PARAMS="words=..."`.
    fn default() -> Self {
        Self::for_scalar::<f64>()
    }
}

impl CacheConfig {
    /// Config with an explicit element budget.
    pub fn with_words(words: usize) -> Self {
        assert!(words >= 1, "cache budget must be positive");
        Self { words }
    }

    /// The measured base-case budget for scalar type `T` from the
    /// calibration table (plus any environment override).
    pub fn for_scalar<T: ata_mat::Scalar>() -> Self {
        Self::with_words(calibrate::tuned_for::<T>().base_words)
    }

    /// Base-case predicate of AtA (Algorithm 1): the `n x n` output
    /// block of an `m x n` input fits the budget, `n^2 <= words`. The
    /// row count `m` does not enter; the leaf streams it in `KC` slabs.
    #[inline]
    pub fn ata_base(&self, m: usize, n: usize) -> bool {
        let _ = m;
        n.saturating_mul(n) <= self.words
    }

    /// Base-case predicate of the general `A^T B` recursion (Algorithm 2)
    /// with `A: m x n`, `B: m x k`: twice the `n x k` output fits the
    /// budget, `2 n k <= words`. The row count `m` does not enter; the
    /// factor 2 keeps square products (`m = n = k`) recursing exactly as
    /// under the paper's both-operands rule `m n + m k <= words`.
    #[inline]
    pub fn gemm_base(&self, m: usize, n: usize, k: usize) -> bool {
        let _ = m;
        n.saturating_mul(k).saturating_mul(2) <= self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_the_calibrated_f64_cutoff() {
        let c = CacheConfig::default();
        let words = calibrate::tuned_for::<f64>().base_words;
        assert_eq!(c.words, words);
        // The ata_base boundary sits exactly at sqrt(words).
        let s = (words as f64).sqrt() as usize;
        assert!(c.ata_base(s, words / s.max(1)));
        assert!(!c.ata_base(s + 1, words / s.max(1) + 1));
    }

    #[test]
    fn predicates_ignore_rows_and_match_the_square_formulas() {
        for words in [1usize, 7, 100, 4096, 131_072, 1 << 20] {
            let c = CacheConfig::with_words(words);
            for n in [1usize, 2, 9, 10, 64, 362, 363, 724, 1024, 1025] {
                for m in [1usize, 3, 1000, 8192, usize::MAX] {
                    assert_eq!(c.ata_base(m, n), c.ata_base(1, n), "ata ({words},{m},{n})");
                    for k in [1usize, n, 2 * n + 1] {
                        assert_eq!(
                            c.gemm_base(m, n, k),
                            c.gemm_base(1, n, k),
                            "gemm ({words},{m},{n},{k})"
                        );
                    }
                }
                // On square problems the output-only rule is the old
                // input-block rule: `m*n` for AtA, `m*n + m*k` for gemm.
                assert_eq!(c.ata_base(n, n), n * n <= words, "ata ({words},{n})");
                assert_eq!(
                    c.gemm_base(n, n, n),
                    n * n + n * n <= words,
                    "gemm ({words},{n})"
                );
            }
        }
    }

    #[test]
    fn saturating_dimensions_do_not_overflow() {
        // Each product below wraps to zero in plain arithmetic, which
        // would turn an astronomically large output into a base case.
        let c = CacheConfig::default();
        let half = 1usize << (usize::BITS / 2);
        let top_bit = 1usize << (usize::BITS - 1);
        assert!(!c.ata_base(usize::MAX, half));
        assert!(!c.ata_base(1, usize::MAX));
        assert!(!c.gemm_base(usize::MAX, half, half));
        assert!(!c.gemm_base(1, top_bit, 1));
        assert!(!c.gemm_base(1, 1, top_bit));
        assert!(!c.gemm_base(1, usize::MAX, usize::MAX));
        // A budget at the top of the range still separates the boundary.
        let top = CacheConfig::with_words(usize::MAX - 1);
        assert!(!top.ata_base(1, half));
        assert!(top.ata_base(1, half - 1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        let _ = CacheConfig::with_words(0);
    }
}
