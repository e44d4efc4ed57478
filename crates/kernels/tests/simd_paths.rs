//! Path-parity properties for the explicit-SIMD microkernel dispatch
//! (`ata_kernels::simd` + the `MicroPath` plumbing in
//! `ata_kernels::micro`):
//!
//! * `portable` and `scalar` are **bit-for-bit** identical — both run the
//!   same unfused per-element accumulation order, so forcing either path
//!   must produce the same bits on every shape, dtype and view.
//! * `intrinsic` is fused (FMA rounds once per multiply-add), so it is
//!   compared against `portable` within the analytic product tolerance,
//!   and must be deterministic run-to-run.
//! * The op-counting `Tracked` scalar has no intrinsic kernels: all three
//!   forced paths must produce the same bits *and* the same op ledger.

use ata_kernels::micro::{
    gemm_tn_micro_path, micro_path_for, syrk_ln_micro_path, KernelConfig, MicroPath,
};
use ata_kernels::simd;
use ata_mat::tracked::{measure, Tracked};
use ata_mat::{gen, Matrix};
use proptest::prelude::*;

const PRIMES: [usize; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Map a generated `(class, m0, n0, k0, p)` tuple onto a stress shape:
/// balanced, prime-sided, very tall (`m >> n`), or very wide (`n >> m`).
fn shape(class: usize, m0: usize, n0: usize, k0: usize, p: usize) -> (usize, usize, usize) {
    match class % 4 {
        0 => (m0, n0, k0),
        1 => (PRIMES[p % 12], PRIMES[(p + 5) % 12], PRIMES[(p + 9) % 12]),
        2 => (16 * m0, 1 + n0 / 8, 1 + k0 / 8), // m >> n, k
        _ => (1 + m0 / 8, 12 * n0, k0),         // n >> m
    }
}

/// A deliberately tiny blocking config (forces multiple KC/MC/NC blocks
/// and ragged edge tiles on small shapes) or the per-scalar default.
fn config(tiny: bool, mr: usize, nr: usize) -> KernelConfig {
    if tiny {
        KernelConfig::new(mr, nr, 8, 12, 16)
    } else {
        KernelConfig::new(mr, nr, 64, 32, 48)
    }
}

fn tol64(m: usize, n: usize) -> f64 {
    ata_mat::ops::product_tol::<f64>(m, n, m as f64) * 4.0
}

fn tol32(m: usize, n: usize) -> f64 {
    ata_mat::ops::product_tol::<f32>(m, n, m as f64) * 4.0
}

/// Bitwise equality for f64 matrices (stricter than `max_abs_diff == 0`:
/// distinguishes `-0.0` from `0.0` and would catch NaN payload drift).
fn bits_eq_f64(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn bits_eq_f32(a: &Matrix<f32>, b: &Matrix<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn portable_and_scalar_gemm_are_bit_identical_f64(
        class in 0usize..4,
        m0 in 1usize..48,
        n0 in 1usize..48,
        k0 in 1usize..48,
        alpha_neg in 0usize..2,
    ) {
        let (m, n, k) = shape(class, m0, n0, k0, m0 + n0);
        let alpha = if alpha_neg == 1 { -1.0 } else { 1.0 };
        let a = gen::standard::<f64>(m as u64 * 7 + n as u64, m, n);
        let b = gen::standard::<f64>(k as u64 * 13 + 1, m, k);
        let seed_c = gen::standard::<f64>(3, n, k);
        let cfg = config(class % 2 == 0, 4, 8);
        let mut c_portable = seed_c.clone();
        let mut c_scalar = seed_c;
        gemm_tn_micro_path(
            MicroPath::Portable, alpha, a.as_ref(), b.as_ref(), &mut c_portable.as_mut(), &cfg,
        );
        gemm_tn_micro_path(
            MicroPath::Scalar, alpha, a.as_ref(), b.as_ref(), &mut c_scalar.as_mut(), &cfg,
        );
        prop_assert!(bits_eq_f64(&c_portable, &c_scalar));
    }

    #[test]
    fn portable_and_scalar_gemm_are_bit_identical_f32(
        class in 0usize..4,
        m0 in 1usize..40,
        n0 in 1usize..40,
        k0 in 1usize..40,
    ) {
        let (m, n, k) = shape(class, m0, n0, k0, m0 + 3);
        let a = gen::standard::<f32>(2 + m as u64, m, n);
        let b = gen::standard::<f32>(4 + k as u64, m, k);
        let seed_c = gen::standard::<f32>(9, n, k);
        let cfg = config(class % 2 == 1, 4, 16);
        let mut c_portable = seed_c.clone();
        let mut c_scalar = seed_c;
        gemm_tn_micro_path(
            MicroPath::Portable, 1.0f32, a.as_ref(), b.as_ref(), &mut c_portable.as_mut(), &cfg,
        );
        gemm_tn_micro_path(
            MicroPath::Scalar, 1.0f32, a.as_ref(), b.as_ref(), &mut c_scalar.as_mut(), &cfg,
        );
        prop_assert!(bits_eq_f32(&c_portable, &c_scalar));
    }

    #[test]
    fn portable_and_scalar_syrk_are_bit_identical(
        class in 0usize..4,
        m0 in 1usize..48,
        n0 in 1usize..48,
    ) {
        let (m, n, _) = shape(class, m0, n0, 1, n0 + 1);
        let a = gen::standard::<f64>(m as u64 * 3 + n as u64, m, n);
        let seed_c = gen::standard::<f64>(11, n, n);
        let cfg = config(class % 2 == 0, 4, 8);
        let mut c_portable = seed_c.clone();
        let mut c_scalar = seed_c;
        syrk_ln_micro_path(
            MicroPath::Portable, 1.0, a.as_ref(), &mut c_portable.as_mut(), &cfg,
        );
        syrk_ln_micro_path(
            MicroPath::Scalar, 1.0, a.as_ref(), &mut c_scalar.as_mut(), &cfg,
        );
        prop_assert!(bits_eq_f64(&c_portable, &c_scalar));
    }

    #[test]
    fn portable_and_scalar_agree_on_strided_quad_views(
        rows in 2usize..48,
        cols in 2usize..48,
        seed in 0u64..500,
    ) {
        // Quadrants of a larger matrix: every operand is a strided view,
        // so packing (including the parallel B-pack) must reproduce the
        // same panels on both paths.
        let big_a = gen::standard::<f64>(seed, rows, cols);
        let big_b = gen::standard::<f64>(seed + 1, rows, cols);
        let (_, _, a21, _) = big_a.as_ref().quad_split();
        let (_, _, b21, b22) = big_b.as_ref().quad_split();
        let cfg = config(true, 4, 8);
        let (_, n) = a21.shape();
        for b in [b21, b22] {
            let k = b.cols();
            let mut c_portable = Matrix::zeros(n, k);
            let mut c_scalar = Matrix::zeros(n, k);
            gemm_tn_micro_path(
                MicroPath::Portable, 1.0, a21, b, &mut c_portable.as_mut(), &cfg,
            );
            gemm_tn_micro_path(
                MicroPath::Scalar, 1.0, a21, b, &mut c_scalar.as_mut(), &cfg,
            );
            prop_assert!(bits_eq_f64(&c_portable, &c_scalar));
        }
    }

    #[test]
    fn intrinsic_gemm_matches_portable_within_tolerance_f64(
        class in 0usize..4,
        m0 in 1usize..48,
        n0 in 1usize..48,
        k0 in 1usize..48,
    ) {
        // On machines without FMA the intrinsic path falls through to the
        // portable kernels, so this property degenerates to bit equality
        // there — still a valid (stronger) instance of the bound.
        let (m, n, k) = shape(class, m0, n0, k0, m0 + n0);
        let a = gen::standard::<f64>(m as u64 * 5 + 1, m, n);
        let b = gen::standard::<f64>(k as u64 * 3 + 2, m, k);
        let seed_c = gen::standard::<f64>(7, n, k);
        let cfg = config(class % 2 == 0, 4, 8);
        let mut c_fused = seed_c.clone();
        let mut c_ref = seed_c;
        gemm_tn_micro_path(
            MicroPath::Intrinsic, 1.0, a.as_ref(), b.as_ref(), &mut c_fused.as_mut(), &cfg,
        );
        gemm_tn_micro_path(
            MicroPath::Portable, 1.0, a.as_ref(), b.as_ref(), &mut c_ref.as_mut(), &cfg,
        );
        prop_assert!(c_fused.max_abs_diff(&c_ref) <= tol64(m.max(n), n.max(k)));
    }

    #[test]
    fn intrinsic_gemm_matches_portable_within_tolerance_f32(
        class in 0usize..4,
        m0 in 1usize..40,
        n0 in 1usize..40,
        k0 in 1usize..40,
    ) {
        let (m, n, k) = shape(class, m0, n0, k0, k0 + 2);
        let a = gen::standard::<f32>(m as u64 + 17, m, n);
        let b = gen::standard::<f32>(k as u64 + 19, m, k);
        let seed_c = gen::standard::<f32>(13, n, k);
        let cfg = config(class % 2 == 1, 4, 16);
        let mut c_fused = seed_c.clone();
        let mut c_ref = seed_c;
        gemm_tn_micro_path(
            MicroPath::Intrinsic, 1.0f32, a.as_ref(), b.as_ref(), &mut c_fused.as_mut(), &cfg,
        );
        gemm_tn_micro_path(
            MicroPath::Portable, 1.0f32, a.as_ref(), b.as_ref(), &mut c_ref.as_mut(), &cfg,
        );
        prop_assert!(c_fused.max_abs_diff(&c_ref) <= tol32(m.max(n), n.max(k)));
    }

    #[test]
    fn intrinsic_syrk_matches_portable_and_spares_upper(
        class in 0usize..4,
        m0 in 1usize..48,
        n0 in 1usize..48,
    ) {
        let (m, n, _) = shape(class, m0, n0, 1, m0 + 5);
        let a = gen::standard::<f64>(m as u64 * 11 + 3, m, n);
        let seed_c = gen::standard::<f64>(21, n, n);
        let cfg = config(class % 2 == 0, 4, 8);
        let mut c_fused = seed_c.clone();
        let mut c_ref = seed_c;
        syrk_ln_micro_path(
            MicroPath::Intrinsic, 1.0, a.as_ref(), &mut c_fused.as_mut(), &cfg,
        );
        syrk_ln_micro_path(
            MicroPath::Portable, 1.0, a.as_ref(), &mut c_ref.as_mut(), &cfg,
        );
        let diff = c_fused.max_abs_diff_lower(&c_ref);
        prop_assert!(diff <= tol64(m.max(n), n));
        // The straddle-tile scratch accumulate must never leak writes
        // into the strict upper triangle.
        prop_assert_eq!(c_fused.max_abs_diff(&c_ref), diff);
    }

    #[test]
    fn intrinsic_path_is_deterministic_across_runs(
        m in 1usize..64,
        n in 1usize..64,
        k in 1usize..64,
    ) {
        let a = gen::standard::<f64>(m as u64 + 29, m, n);
        let b = gen::standard::<f64>(k as u64 + 31, m, k);
        let cfg = config(false, 4, 8);
        let mut first = Matrix::zeros(n, k);
        let mut second = Matrix::zeros(n, k);
        gemm_tn_micro_path(
            MicroPath::Intrinsic, 1.0, a.as_ref(), b.as_ref(), &mut first.as_mut(), &cfg,
        );
        gemm_tn_micro_path(
            MicroPath::Intrinsic, 1.0, a.as_ref(), b.as_ref(), &mut second.as_mut(), &cfg,
        );
        prop_assert!(bits_eq_f64(&first, &second));
    }

    #[test]
    fn tracked_paths_agree_bitwise_with_equal_op_ledgers(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..24,
    ) {
        // `Tracked` has no intrinsic kernels, so a forced-intrinsic run
        // must fall through to the portable kernels: same bits, same op
        // ledger as the portable and scalar paths. This is the contract
        // that keeps Strassen op-count validation independent of the ISA
        // the validating host happens to have.
        let a = gen::standard::<Tracked>(1, m, n);
        let b = gen::standard::<Tracked>(2, m, k);
        let cfg = config(true, 4, 8);
        let mut ledgers = Vec::new();
        let mut results = Vec::new();
        for path in [MicroPath::Intrinsic, MicroPath::Portable, MicroPath::Scalar] {
            let mut c = Matrix::<Tracked>::zeros(n, k);
            let (_, ops) = measure(|| {
                gemm_tn_micro_path(
                    path, Tracked(1.0), a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg,
                );
            });
            ledgers.push(ops);
            results.push(c);
        }
        prop_assert_eq!(ledgers[0], ledgers[1]);
        prop_assert_eq!(ledgers[1], ledgers[2]);
        prop_assert_eq!(ledgers[0].muls, (m * n * k) as u64);
        prop_assert_eq!(results[0].max_abs_diff(&results[1]), 0.0);
        prop_assert_eq!(results[1].max_abs_diff(&results[2]), 0.0);
    }
}

#[test]
fn dispatch_is_coherent_with_the_detected_isa() {
    // The one-time detection result, the kernel-availability probe and
    // the per-scalar menu must all tell the same story.
    let isa = simd::detected();
    assert_eq!(isa, simd::detected(), "detection is cached and stable");
    match isa {
        simd::Isa::Avx512 | simd::Isa::Fma => {
            assert!(simd::has_kernels::<f64>());
            assert!(simd::has_kernels::<f32>());
            let (m64, m32) = if isa == simd::Isa::Avx512 {
                (simd::AVX512_MENU_F64, simd::AVX512_MENU_F32)
            } else {
                (simd::FMA_MENU_F64, simd::FMA_MENU_F32)
            };
            assert_eq!(isa.menu::<f64>(), Some(m64));
            assert_eq!(isa.menu::<f32>(), Some(m32));
        }
        simd::Isa::Generic => {
            assert!(!simd::has_kernels::<f64>());
            assert!(!simd::has_kernels::<f32>());
            assert_eq!(isa.menu::<f64>(), None);
        }
    }
    // Tracked never has fused kernels and never resolves to Intrinsic,
    // whatever the host ISA or ATA_MICRO say.
    assert!(!simd::has_kernels::<Tracked>());
    for tier in [simd::Isa::Generic, simd::Isa::Fma, simd::Isa::Avx512] {
        assert_eq!(tier.menu::<Tracked>(), None);
    }
    assert_ne!(micro_path_for::<Tracked>(), MicroPath::Intrinsic);
}

/// Ragged and prime `(m, n)` shapes: with the wide tiles of the resolved
/// tier, every one of them has ragged edge tiles and (for syrk)
/// partial diagonal straddles, which the intrinsic path runs fused
/// through the scratch tile.
const RAGGED: [(usize, usize); 4] = [(1, 1), (96, 40), (200, 37), (257, 129)];

/// Plant NaN and both infinities in `a` (the positions depend only on
/// the shape, so they coincide on `1 x 1`).
fn poison(a: &mut Matrix<f64>) {
    let (m, n) = a.shape();
    a.as_mut().row_mut(0)[0] = f64::NEG_INFINITY;
    a.as_mut().row_mut(m / 2)[n / 3] = f64::NAN;
    a.as_mut().row_mut(m - 1)[n - 1] = f64::INFINITY;
}

/// Same non-finite pattern: each entry is NaN, infinite or finite on
/// both paths alike (summation order cannot change that class when the
/// finite terms cannot overflow).
fn same_non_finite(x: &Matrix<f64>, y: &Matrix<f64>) -> bool {
    x.as_slice()
        .iter()
        .zip(y.as_slice())
        .all(|(a, b)| a.is_nan() == b.is_nan() && a.is_finite() == b.is_finite())
}

#[test]
fn ragged_gemm_intrinsic_matches_portable_including_non_finite_operands() {
    let cfg = KernelConfig::for_scalar::<f64>();
    for (m, n) in RAGGED {
        let k = n + 3;
        for poisoned in [false, true] {
            let mut a = gen::standard::<f64>(m as u64 + 41, m, n);
            let mut b = gen::standard::<f64>(n as u64 + 43, m, k);
            if poisoned {
                poison(&mut a);
                b.as_mut().row_mut(m / 3)[k / 2] = f64::INFINITY;
            }
            let seed_c = gen::standard::<f64>(47, n, k);
            let mut c_fused = seed_c.clone();
            let mut c_ref = seed_c;
            gemm_tn_micro_path(
                MicroPath::Intrinsic,
                1.0,
                a.as_ref(),
                b.as_ref(),
                &mut c_fused.as_mut(),
                &cfg,
            );
            gemm_tn_micro_path(
                MicroPath::Portable,
                1.0,
                a.as_ref(),
                b.as_ref(),
                &mut c_ref.as_mut(),
                &cfg,
            );
            assert!(
                same_non_finite(&c_fused, &c_ref),
                "({m},{n},{k}) poisoned={poisoned}: non-finite entries differ"
            );
            if !poisoned {
                let diff = c_fused.max_abs_diff(&c_ref);
                assert!(diff <= tol64(m.max(n), k), "({m},{n},{k}): {diff}");
            }
        }
    }
}

#[test]
fn ragged_syrk_intrinsic_matches_portable_and_spares_the_strict_upper() {
    let cfg = KernelConfig::for_scalar::<f64>();
    for (m, n) in RAGGED {
        for poisoned in [false, true] {
            let mut a = gen::standard::<f64>(m as u64 * 3 + 53, m, n);
            if poisoned {
                poison(&mut a);
            }
            let seed_c = gen::standard::<f64>(59, n, n);
            let mut c_fused = seed_c.clone();
            let mut c_ref = seed_c.clone();
            syrk_ln_micro_path(
                MicroPath::Intrinsic,
                1.0,
                a.as_ref(),
                &mut c_fused.as_mut(),
                &cfg,
            );
            syrk_ln_micro_path(
                MicroPath::Portable,
                1.0,
                a.as_ref(),
                &mut c_ref.as_mut(),
                &cfg,
            );
            for i in 0..n {
                let (got, want) = (c_fused.as_ref().row(i), seed_c.as_ref().row(i));
                assert!(
                    got[i + 1..]
                        .iter()
                        .zip(&want[i + 1..])
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "({m},{n}) poisoned={poisoned}: strict upper of row {i} touched"
                );
            }
            assert!(
                same_non_finite(&c_fused, &c_ref),
                "({m},{n}) poisoned={poisoned}: non-finite entries differ"
            );
            if !poisoned {
                let diff = c_fused.max_abs_diff_lower(&c_ref);
                assert!(diff <= tol64(m.max(n), n), "({m},{n}): {diff}");
            }
        }
    }
}
