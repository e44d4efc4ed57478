//! Fused register microkernels for x86-64, one tile set per ISA tier:
//! 256-bit AVX2+FMA ([`Isa::Fma`]) and 512-bit AVX-512F
//! ([`Isa::Avx512`]).
//!
//! Each kernel computes one full `MR x NR` tile of `C += Ap^T Bp` over
//! the packed micro-panels from [`crate::pack`], exactly like the
//! portable const-generic kernel in [`crate::micro`], but with explicit
//! vectors and one fused multiply-add per lane-column per k-step. `NR`
//! is a multiple of the tier's vector width, so a tile's accumulators
//! are `MR x NR / LANES` registers: AVX2's 15-register tiles (`6 x 8`
//! f64, `6 x 16` f32) and AVX-512's 16-accumulator tiles (`8 x 16` f64,
//! `8 x 32` f32, out of 32 zmm registers) are the wide ends of the menus.
//!
//! The engine hands ragged edges and diagonal straddles to these kernels
//! too, on the intrinsic path only, by running the full tile over the
//! zero-padded panels into a stack scratch and adding back the valid
//! entries (see `crate::micro`). The portable and scalar paths keep the
//! exact-op bounds-aware kernel, which is what preserves the engine's
//! `Tracked` contract (these kernels are unreachable for
//! non-`f32`/`f64` scalars; see [`super::full_tile`]).
//!
//! The fused accumulation rounds differently from the deliberately
//! unfused [`ata_mat::Scalar::mul_add`] chain of the portable kernel:
//! intrinsic results agree with the portable path to the usual product
//! tolerance, not bit-for-bit (`crates/kernels/tests/simd_paths.rs`
//! pins both properties).

use super::Isa;
use ata_mat::MatMut;
use core::arch::x86_64::{
    __m256, __m256d, __m512, __m512d, _mm256_fmadd_pd, _mm256_fmadd_ps, _mm256_loadu_pd,
    _mm256_loadu_ps, _mm256_set1_pd, _mm256_set1_ps, _mm256_setzero_pd, _mm256_setzero_ps,
    _mm256_storeu_pd, _mm256_storeu_ps, _mm512_fmadd_pd, _mm512_fmadd_ps, _mm512_loadu_pd,
    _mm512_loadu_ps, _mm512_set1_pd, _mm512_set1_ps, _mm512_setzero_pd, _mm512_setzero_ps,
    _mm512_storeu_pd, _mm512_storeu_ps,
};

/// Generate one fused `MR x NR` tile kernel for one tier: seed the
/// accumulators from `C`, run `kc` broadcast-FMA steps over the packed
/// panels, write back once.
macro_rules! fma_tile {
    ($name:ident, $feature:literal, $elem:ty, $vec:ty, $lanes:expr,
     [$setzero:ident, $set1:ident, $loadu:ident, $fmadd:ident, $storeu:ident],
     $mr:expr, $nr:expr) => {
        /// One full register tile of `C += Ap^T Bp`, fused.
        ///
        /// # Safety
        /// The CPU must support the kernel's target features, `ap` must
        /// hold at least `kc * MR` elements, `bp` at least `kc * NR`,
        /// and `c` must be an `MR x NR` tile. [`tile_f64`] /
        /// [`tile_f32`] check all four before calling.
        #[target_feature(enable = $feature)]
        unsafe fn $name(kc: usize, ap: &[$elem], bp: &[$elem], c: &mut MatMut<'_, $elem>) {
            const MR: usize = $mr;
            const NR: usize = $nr;
            const NRV: usize = NR / $lanes;
            const _: () = assert!(NR % $lanes == 0, "tile width must be whole vectors");
            debug_assert_eq!(c.shape(), (MR, NR));
            debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
            // SAFETY: the dispatcher verified the feature set via the
            // cached runtime detection and checked `ap.len() >= kc * MR`,
            // `bp.len() >= kc * NR`, and `c.shape() == (MR, NR)`, so
            // every unaligned load/store below stays inside its slice or
            // row (`p < kc`, lane offsets `< NR`, row indices `< MR`).
            unsafe {
                let mut acc: [[$vec; NRV]; MR] = [[$setzero(); NRV]; MR];
                for (i, arow) in acc.iter_mut().enumerate() {
                    let src = c.row(i).as_ptr();
                    for (v, a) in arow.iter_mut().enumerate() {
                        *a = $loadu(src.add(v * $lanes));
                    }
                }
                let mut app = ap.as_ptr();
                let mut bpp = bp.as_ptr();
                for _ in 0..kc {
                    let mut bvec: [$vec; NRV] = [$setzero(); NRV];
                    for (v, b) in bvec.iter_mut().enumerate() {
                        *b = $loadu(bpp.add(v * $lanes));
                    }
                    for (i, arow) in acc.iter_mut().enumerate() {
                        let ai = $set1(*app.add(i));
                        for (v, a) in arow.iter_mut().enumerate() {
                            *a = $fmadd(ai, bvec[v], *a);
                        }
                    }
                    app = app.add(MR);
                    bpp = bpp.add(NR);
                }
                for (i, arow) in acc.iter().enumerate() {
                    let dst = c.row_mut(i).as_mut_ptr();
                    for (v, a) in arow.iter().enumerate() {
                        $storeu(dst.add(v * $lanes), *a);
                    }
                }
            }
        }
    };
}

/// Generate one tier's tile set for one element type: a kernel per
/// listed `(MR, NR)` and the dispatcher `$dispatch` that matches a tile
/// shape onto its kernel (`false` for a shape the set lacks).
macro_rules! tile_set {
    ($dispatch:ident, $feature:literal, $elem:ty, $vec:ty, $lanes:expr, $ops:tt,
     { $(($mr:literal, $nr:literal) => $name:ident),+ $(,)? }) => {
        $( fma_tile!($name, $feature, $elem, $vec, $lanes, $ops, $mr, $nr); )+

        /// Run the listed kernel for tile `(mr, nr)`; `false` when this
        /// set has none.
        ///
        /// # Safety
        /// As for every kernel of the set: the CPU supports the set's
        /// target features, `ap` holds `kc * mr` elements, `bp` holds
        /// `kc * nr`, and `c` is `mr x nr`.
        unsafe fn $dispatch(
            mr: usize,
            nr: usize,
            kc: usize,
            ap: &[$elem],
            bp: &[$elem],
            c: &mut MatMut<'_, $elem>,
        ) -> bool {
            match (mr, nr) {
                // SAFETY: forwarded verbatim from this function's own
                // contract; the arm fixes `(mr, nr)` to the kernel's tile.
                $( ($mr, $nr) => unsafe { $name(kc, ap, bp, c) }, )+
                _ => return false,
            }
            true
        }
    };
}

tile_set! {
    avx2_f64, "avx2,fma", f64, __m256d, 4,
    [_mm256_setzero_pd, _mm256_set1_pd, _mm256_loadu_pd, _mm256_fmadd_pd, _mm256_storeu_pd],
    {
        (4, 4) => avx2_f64_4x4,
        (4, 8) => avx2_f64_4x8,
        (6, 4) => avx2_f64_6x4,
        (6, 8) => avx2_f64_6x8,
        (8, 4) => avx2_f64_8x4,
        (8, 8) => avx2_f64_8x8,
    }
}

tile_set! {
    avx2_f32, "avx2,fma", f32, __m256, 8,
    [_mm256_setzero_ps, _mm256_set1_ps, _mm256_loadu_ps, _mm256_fmadd_ps, _mm256_storeu_ps],
    {
        (4, 8) => avx2_f32_4x8,
        (4, 16) => avx2_f32_4x16,
        (6, 8) => avx2_f32_6x8,
        (6, 16) => avx2_f32_6x16,
        (8, 8) => avx2_f32_8x8,
        (8, 16) => avx2_f32_8x16,
    }
}

tile_set! {
    avx512_f64, "avx512f", f64, __m512d, 8,
    [_mm512_setzero_pd, _mm512_set1_pd, _mm512_loadu_pd, _mm512_fmadd_pd, _mm512_storeu_pd],
    {
        (4, 8) => avx512_f64_4x8,
        (4, 16) => avx512_f64_4x16,
        (6, 16) => avx512_f64_6x16,
        (8, 8) => avx512_f64_8x8,
        (8, 16) => avx512_f64_8x16,
    }
}

tile_set! {
    avx512_f32, "avx512f", f32, __m512, 16,
    [_mm512_setzero_ps, _mm512_set1_ps, _mm512_loadu_ps, _mm512_fmadd_ps, _mm512_storeu_ps],
    {
        (4, 16) => avx512_f32_4x16,
        (6, 16) => avx512_f32_6x16,
        (8, 16) => avx512_f32_8x16,
        (8, 32) => avx512_f32_8x32,
    }
}

/// True when `isa` names a tier with kernels that the running CPU can
/// execute. Tiers are nested (detection only reports [`Isa::Avx512`]
/// when AVX2 and FMA are present too), so every tier at or below the
/// detected one qualifies.
fn runnable(isa: Isa) -> bool {
    isa != Isa::Generic && isa <= super::detected()
}

/// Run tier `isa`'s fused f64 kernel for tile `(mr, nr)`. `false` means
/// "no kernel took the tile" (a tier this CPU lacks, an off-menu tile,
/// or operands that fail the bounds checks) and the caller must use the
/// portable path.
pub(super) fn tile_f64(
    isa: Isa,
    mr: usize,
    nr: usize,
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    c: &mut MatMut<'_, f64>,
) -> bool {
    if !runnable(isa) || ap.len() < kc * mr || bp.len() < kc * nr || c.shape() != (mr, nr) {
        return false;
    }
    // SAFETY: `runnable` confirmed through the cached runtime detection
    // that the CPU has `isa`'s features, and the operand bounds above
    // are exactly the kernels' preconditions (`ap` holds `kc * mr`, `bp`
    // holds `kc * nr`, `c` is `mr x nr`).
    unsafe {
        match isa {
            Isa::Avx512 => avx512_f64(mr, nr, kc, ap, bp, c),
            Isa::Fma => avx2_f64(mr, nr, kc, ap, bp, c),
            Isa::Generic => false,
        }
    }
}

/// f32 twin of [`tile_f64`].
pub(super) fn tile_f32(
    isa: Isa,
    mr: usize,
    nr: usize,
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut MatMut<'_, f32>,
) -> bool {
    if !runnable(isa) || ap.len() < kc * mr || bp.len() < kc * nr || c.shape() != (mr, nr) {
        return false;
    }
    // SAFETY: as in `tile_f64` — feature set confirmed via the cached
    // detection, operand bounds checked against the kernel
    // preconditions directly above.
    unsafe {
        match isa {
            Isa::Avx512 => avx512_f32(mr, nr, kc, ap, bp, c),
            Isa::Fma => avx2_f32(mr, nr, kc, ap, bp, c),
            Isa::Generic => false,
        }
    }
}

#[cfg(test)]
mod tests {
    //! Every kernel of every tier, run directly (not through the
    //! detected-tier dispatch), so the AVX2 set stays covered on AVX-512
    //! hosts. A tier the CPU lacks is skipped.

    use super::*;
    use crate::pack::{pack_panels, PackScale};
    use ata_mat::{gen, Matrix, Scalar};

    /// [`tile_f64`] or [`tile_f32`].
    type Dispatch<T> = fn(Isa, usize, usize, usize, &[T], &[T], &mut MatMut<'_, T>) -> bool;

    /// Pack a `kc x w` operand into one zero-padded `r`-wide panel,
    /// run tier `isa`'s `(mr, nr)` kernel over `mr_eff x nr_eff` valid
    /// columns, and compare every entry of the full tile with a scalar
    /// loop (padding rows/columns must come out as the untouched seed).
    fn check_tile<T: Scalar>(
        isa: Isa,
        (mr, nr): (usize, usize),
        (mr_eff, nr_eff): (usize, usize),
        run: Dispatch<T>,
        tol: f64,
    ) {
        let kc = 37;
        let a = gen::standard::<T>(mr as u64 * 31 + nr as u64, kc, mr_eff);
        let b = gen::standard::<T>(nr as u64 * 17 + mr as u64, kc, nr_eff);
        let mut ap = vec![T::ZERO; kc * mr];
        let mut bp = vec![T::ZERO; kc * nr];
        pack_panels(a.as_ref(), mr, PackScale::One, &mut ap);
        pack_panels(b.as_ref(), nr, PackScale::One, &mut bp);
        let seed = gen::standard::<T>(5, mr, nr);
        let mut c = seed.clone();
        assert!(
            run(isa, mr, nr, kc, &ap, &bp, &mut c.as_mut()),
            "{} tile {mr}x{nr} has no kernel",
            isa.name()
        );
        for i in 0..mr {
            for j in 0..nr {
                let mut want = seed.as_ref().row(i)[j].to_f64();
                for p in 0..kc {
                    want += ap[p * mr + i].to_f64() * bp[p * nr + j].to_f64();
                }
                let got = c.as_ref().row(i)[j].to_f64();
                assert!(
                    (got - want).abs() <= tol * kc as f64,
                    "{} {mr}x{nr} ({i},{j}): {got} vs {want}",
                    isa.name()
                );
            }
        }
    }

    fn tiers() -> impl Iterator<Item = Isa> {
        [Isa::Fma, Isa::Avx512].into_iter().filter(|&t| runnable(t))
    }

    #[test]
    fn every_f64_tile_of_every_runnable_tier_matches_a_scalar_loop() {
        for isa in tiers() {
            for &tile in isa.menu::<f64>().expect("x86 tiers have f64 kernels") {
                check_tile::<f64>(isa, tile, tile, tile_f64, 1e-13);
                check_tile::<f64>(isa, tile, (tile.0 - 1, tile.1 / 2 + 1), tile_f64, 1e-13);
            }
        }
    }

    #[test]
    fn every_f32_tile_of_every_runnable_tier_matches_a_scalar_loop() {
        for isa in tiers() {
            for &tile in isa.menu::<f32>().expect("x86 tiers have f32 kernels") {
                check_tile::<f32>(isa, tile, tile, tile_f32, 1e-5);
                check_tile::<f32>(isa, tile, (1, tile.1 - 3), tile_f32, 1e-5);
            }
        }
    }

    #[test]
    fn unrunnable_tiers_and_off_menu_tiles_are_refused() {
        let (ap, bp) = (vec![1.0f64; 64], vec![1.0f64; 64]);
        let mut c = Matrix::<f64>::zeros(4, 4);
        assert!(!tile_f64(Isa::Generic, 4, 4, 4, &ap, &bp, &mut c.as_mut()));
        // (4, 4) is not a whole number of 512-bit vectors.
        assert!(!tile_f64(Isa::Avx512, 4, 4, 4, &ap, &bp, &mut c.as_mut()));
        if !runnable(Isa::Avx512) {
            let mut c = Matrix::<f64>::zeros(8, 16);
            assert!(!tile_f64(Isa::Avx512, 8, 16, 4, &ap, &bp, &mut c.as_mut()));
        }
        assert_eq!(c.as_ref().row(0)[0], 0.0, "refused tiles stay untouched");
    }
}
