//! Runtime-dispatched explicit-SIMD microkernels.
//!
//! The portable engine in [`crate::micro`] leans on the autovectorizer
//! over const-generic accumulator arrays — robust, but it plateaus well
//! below the machine's fused-multiply-add peak because the
//! [`ata_mat::Scalar::mul_add`] contract is deliberately unfused. This
//! module adds hand-written [`core::arch`] kernels behind one-time CPU
//! feature detection, one tile set per ISA tier:
//!
//! | detection ([`detected`])                    | kernels (`x86` module, x86-64 only) | tiles                    |
//! |---------------------------------------------|-------------------------------------|--------------------------|
//! | `avx512f` + `avx2` + `fma` → [`Isa::Avx512`]| 512-bit fused `vfmadd` f64/f32      | [`AVX512_MENU_F64`] / [`AVX512_MENU_F32`] |
//! | `avx2` + `fma` → [`Isa::Fma`]               | 256-bit fused `vfmadd` f64/f32      | [`FMA_MENU_F64`] / [`FMA_MENU_F32`] |
//! | otherwise → [`Isa::Generic`]                | none — portable kernels only        | [`crate::micro::KernelConfig::MENU`] |
//!
//! Dispatch is structural, not trusted: the crate-internal `full_tile`
//! entry point returns `false`
//! whenever no intrinsic kernel takes the tile — wrong scalar type
//! (`Tracked` and the exact fields never reach intrinsics, preserving
//! their op-count contract), unsupported ISA, off-menu tile, or operand
//! bounds that fail the preconditions — and the engine then runs the
//! portable kernel on the very same packed panels. A host without FMA
//! therefore falls back *bit-identically* to the portable path: the
//! fallback is not an approximation of it, it *is* it.
//!
//! Rounding: the fused kernels contract each `a * b + acc` step to one
//! rounding, so intrinsic results differ from the portable/scalar paths
//! within the usual product tolerance (never more); portable and scalar
//! agree bit-for-bit with each other. `crates/kernels/tests/simd_paths.rs`
//! property-tests all three pairings.

use ata_mat::{MatMut, Scalar};
use std::any::TypeId;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

/// Instruction-set tier of the running CPU, as far as this module has
/// kernels for it.
///
/// Variants are declared in ascending tier order, so `Ord` compares
/// capability: a CPU at one tier can run every lower tier's kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// No supported vector extension (or not x86-64): every tile runs
    /// the portable const-generic kernels.
    Generic,
    /// AVX2 + FMA detected: 256-bit fused kernels for `f64` and `f32`.
    Fma,
    /// AVX-512F detected (with AVX2 + FMA): 512-bit fused kernels for
    /// `f64` and `f32`.
    Avx512,
}

impl Isa {
    /// Stable lowercase name (used by bench records, `ata calibrate`,
    /// and the README dispatch table).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Generic => "generic",
            Isa::Fma => "fma",
            Isa::Avx512 => "avx512",
        }
    }

    /// This tier's intrinsic tile menu for `T`, or `None` when the tier
    /// has no fused kernels for this scalar type (the calibration sweep
    /// then stays on the portable menu).
    pub fn menu<T: Scalar>(self) -> Option<&'static [(usize, usize)]> {
        let t = TypeId::of::<T>();
        let f64_ = t == TypeId::of::<f64>();
        let f32_ = t == TypeId::of::<f32>();
        match self {
            Isa::Avx512 if f64_ => Some(AVX512_MENU_F64),
            Isa::Avx512 if f32_ => Some(AVX512_MENU_F32),
            Isa::Fma if f64_ => Some(FMA_MENU_F64),
            Isa::Fma if f32_ => Some(FMA_MENU_F32),
            _ => None,
        }
    }
}

/// The running CPU's ISA tier, detected once per process and cached.
pub fn detected() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return Isa::Avx512;
                }
                return Isa::Fma;
            }
        }
        Isa::Generic
    })
}

/// Register tiles with a dedicated fused f64 kernel under [`Isa::Fma`]
/// (4 lanes per vector, so `nr` is a multiple of 4). Ordered with the
/// expected winner first: `6 x 8` fills 15 of AVX2's 16 vector
/// registers (12 accumulators + 2 `B` vectors + 1 broadcast).
pub const FMA_MENU_F64: &[(usize, usize)] = &[(6, 8), (4, 8), (8, 4), (8, 8), (4, 4), (6, 4)];

/// f32 twin of [`FMA_MENU_F64`] (8 lanes per vector, `nr` a multiple
/// of 8); `6 x 16` is the 15-register tile here.
pub const FMA_MENU_F32: &[(usize, usize)] = &[(6, 16), (4, 16), (8, 8), (8, 16), (4, 8), (6, 8)];

/// Register tiles with a dedicated fused f64 kernel under
/// [`Isa::Avx512`] (8 lanes per vector, so `nr` is a multiple of 8).
/// `8 x 16` keeps 16 accumulators in AVX-512's 32 vector registers,
/// leaving room for the 2 `B` vectors and the broadcast.
pub const AVX512_MENU_F64: &[(usize, usize)] = &[(8, 16), (6, 16), (4, 16), (8, 8), (4, 8)];

/// f32 twin of [`AVX512_MENU_F64`] (16 lanes per vector, `nr` a
/// multiple of 16); `8 x 32` is the 16-accumulator tile here.
pub const AVX512_MENU_F32: &[(usize, usize)] = &[(8, 32), (8, 16), (6, 16), (4, 16)];

/// Every tier's intrinsic menus, for the crate's compile-time tile-size
/// guard.
pub(crate) const INTRINSIC_MENUS: &[&[(usize, usize)]] =
    &[FMA_MENU_F64, FMA_MENU_F32, AVX512_MENU_F64, AVX512_MENU_F32];

/// True when the detected ISA has fused kernels for `T` — the predicate
/// behind [`crate::micro::micro_path_for`]'s auto resolution.
pub fn has_kernels<T: Scalar>() -> bool {
    detected().menu::<T>().is_some()
}

/// Try to run one full `mr x nr` tile of `C += Ap^T Bp` through an
/// intrinsic kernel. Returns `false` when no kernel takes the tile —
/// the caller must then fall through to the portable kernel on the same
/// packed operands (the graceful, bit-identical fallback).
#[cfg(target_arch = "x86_64")]
pub(crate) fn full_tile<T: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    ap: &[T],
    bp: &[T],
    c: &mut MatMut<'_, T>,
) -> bool {
    let isa = detected();
    let t = TypeId::of::<T>();
    if t == TypeId::of::<f64>() {
        // SAFETY: `T` is exactly `f64` (TypeId equality above), so these
        // pointer casts only rename the element type — length metadata,
        // layout, lifetimes, and aliasing are untouched.
        let (ap, bp, c) = unsafe {
            (
                &*(ap as *const [T] as *const [f64]),
                &*(bp as *const [T] as *const [f64]),
                &mut *(c as *mut MatMut<'_, T> as *mut MatMut<'_, f64>),
            )
        };
        return x86::tile_f64(isa, mr, nr, kc, ap, bp, c);
    }
    if t == TypeId::of::<f32>() {
        // SAFETY: `T` is exactly `f32` (TypeId equality above); same
        // type-renaming-only argument as the f64 arm.
        let (ap, bp, c) = unsafe {
            (
                &*(ap as *const [T] as *const [f32]),
                &*(bp as *const [T] as *const [f32]),
                &mut *(c as *mut MatMut<'_, T> as *mut MatMut<'_, f32>),
            )
        };
        return x86::tile_f32(isa, mr, nr, kc, ap, bp, c);
    }
    false
}

/// Non-x86-64 stub: no intrinsic kernels, every tile stays portable.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn full_tile<T: Scalar>(
    _mr: usize,
    _nr: usize,
    _kc: usize,
    _ap: &[T],
    _bp: &[T],
    _c: &mut MatMut<'_, T>,
) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::tracked::Tracked;
    use ata_mat::Matrix;

    #[test]
    fn detection_is_cached_and_consistent() {
        assert_eq!(detected(), detected());
        let fused = detected() >= Isa::Fma;
        assert_eq!(has_kernels::<f64>(), fused);
        assert_eq!(has_kernels::<f32>(), fused);
        assert_eq!(Isa::Generic.menu::<f64>(), None);
        assert!(Isa::Generic < Isa::Fma && Isa::Fma < Isa::Avx512);
        #[cfg(target_arch = "x86_64")]
        if detected() == Isa::Avx512 {
            // Tiers nest: the AVX-512 tier implies the AVX2 kernels run.
            assert!(std::arch::is_x86_feature_detected!("avx512f"));
            assert!(std::arch::is_x86_feature_detected!("avx2"));
            assert!(std::arch::is_x86_feature_detected!("fma"));
        }
        assert!(!has_kernels::<Tracked>(), "op counting never vectorizes");
    }

    #[test]
    fn menus_are_lane_aligned() {
        // (tier, f64 lanes, f32 lanes): `nr` must be whole vectors.
        for (isa, l64, l32) in [(Isa::Fma, 4, 8), (Isa::Avx512, 8, 16)] {
            for &(mr, nr) in isa.menu::<f64>().expect("f64 menu") {
                assert!(
                    mr > 0 && nr % l64 == 0,
                    "{} f64 tile ({mr},{nr})",
                    isa.name()
                );
            }
            for &(mr, nr) in isa.menu::<f32>().expect("f32 menu") {
                assert!(
                    mr > 0 && nr % l32 == 0,
                    "{} f32 tile ({mr},{nr})",
                    isa.name()
                );
            }
        }
    }

    #[test]
    fn tracked_tiles_always_fall_through() {
        let kc = 3;
        let ap = vec![Tracked(1.0); kc * 4];
        let bp = vec![Tracked(2.0); kc * 4];
        let mut c = Matrix::<Tracked>::zeros(4, 4);
        let mut cv = c.as_mut();
        assert!(!full_tile(4, 4, kc, &ap, &bp, &mut cv));
        assert_eq!(c.as_ref().row(0)[0], Tracked(0.0), "tile left untouched");
    }

    #[test]
    fn fused_tile_matches_the_unfused_reference_within_tolerance() {
        // Through the detected-tier dispatch, on that tier's widest tile.
        let Some(&(mr, nr)) = detected().menu::<f64>().and_then(|m| m.first()) else {
            return;
        };
        let kc = 17usize;
        let ap: Vec<f64> = (0..kc * mr).map(|i| (i as f64).sin()).collect();
        let bp: Vec<f64> = (0..kc * nr).map(|i| (i as f64).cos()).collect();
        let mut c = Matrix::<f64>::zeros(mr, nr);
        let mut cv = c.as_mut();
        assert!(full_tile(mr, nr, kc, &ap, &bp, &mut cv));
        for i in 0..mr {
            for j in 0..nr {
                let mut want = 0.0f64;
                for p in 0..kc {
                    want += ap[p * mr + i] * bp[p * nr + j];
                }
                let got = c.as_ref().row(i)[j];
                assert!(
                    (got - want).abs() <= 1e-12 * kc as f64,
                    "({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn undersized_operands_are_rejected_not_read() {
        let Some(&(mr, nr)) = detected().menu::<f64>().and_then(|m| m.first()) else {
            return;
        };
        let kc = 8;
        let ap = vec![1.0f64; kc * mr - 1]; // one element short
        let bp = vec![1.0f64; kc * nr];
        let mut c = Matrix::<f64>::zeros(mr, nr);
        let mut cv = c.as_mut();
        assert!(!full_tile(mr, nr, kc, &ap, &bp, &mut cv));
    }
}
