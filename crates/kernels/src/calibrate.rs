//! Measured kernel tuning: blocking parameters and base-case cutoffs.
//!
//! The pre-engine kernels ran with one guessed blocking (`MC = 32`,
//! `NC = 256`) and one guessed recursion cutoff (32768 cache words) for
//! every scalar type. This module replaces the guesses with a *measured*
//! model, in two layers:
//!
//! 1. [`tuned_for`] — the zero-cost lookup the kernel entry points use.
//!    It returns a per-scalar [`Tuned`] record from a table measured
//!    with [`measure`] (regenerate any time with `ata calibrate`), after
//!    applying the `ATA_KERNEL_PARAMS` environment override.
//! 2. [`measure`] — the calibration run itself: sweeps the register-tile
//!    menu and the `KC/MC/NC` grid with wall-clock timings, then locates
//!    the AtA base-case crossover (the problem size where one
//!    Algorithm 1 recursion level — four half-size syrk leaves plus two
//!    half-size products — stops beating a single syrk leaf).
//!
//! # Per-ISA tables
//!
//! The table is keyed on *(scalar type, resolved tile path, ISA tier)*:
//! each tier of fused kernels in [`crate::simd`] prefers different
//! register tiles and cutoffs than the portable autovectorized kernels
//! and than the other tier, so a machine with AVX-512F resolves the
//! `*_AVX512` rows, one with only AVX2+FMA the `*_FMA` rows, and
//! everything else (including forced `ATA_MICRO=portable|scalar` runs)
//! the portable rows. `ata calibrate` measures and prints the rows of
//! the path and tier it resolves.
//!
//! # Overriding
//!
//! `ATA_KERNEL_PARAMS` accepts comma-separated `key=value` pairs with
//! keys `mr`, `nr`, `kc`, `mc`, `nc`, `words`, `volume`, e.g.
//! `ATA_KERNEL_PARAMS="mr=8,nr=4,kc=128,words=16384"`. Unknown keys and
//! malformed pairs are ignored; the override applies to every scalar
//! type. `ATA_MICRO` selects the tile path (`intrinsic|portable|scalar`)
//! or disables the packed engine entirely (`0`; see
//! [`crate::micro::selected_path`]).

use crate::gemm::{gemm_tn_blocked, BlockSizes};
use crate::micro::{
    gemm_tn_micro_with, micro_path_for, syrk_ln_micro_with, KernelConfig, MicroPath,
    MICRO_MIN_VOLUME,
};
use crate::pack::PackBufs;
use crate::simd::Isa;
use ata_mat::{MatMut, MatRef, Scalar};
use std::sync::OnceLock;
use std::time::Instant;

/// One scalar type's measured kernel parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuned {
    /// Blocking parameters of the packed microkernel engine.
    pub kernel: KernelConfig,
    /// Cache-word budget at which the Strassen-style recursions stop
    /// splitting and call the packed kernel (the measured crossover,
    /// in elements; see [`crate::CacheConfig`]).
    pub base_words: usize,
    /// Minimum flop volume (`m * n * k`) at which the packed engine
    /// beats the blocked rank-1 loops for this scalar/path — below it
    /// [`crate::micro::selected_path`] keeps the blocked loops.
    pub micro_min_volume: usize,
}

/// Measured on the development container (Intel Xeon @ 2.10 GHz,
/// baseline x86-64 SSE2 codegen, single thread) via
/// `ATA_MICRO=portable ata calibrate`. Re-run [`measure`] on new
/// hardware and update these records.
const TUNED_F64: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 4,
        nr: 8,
        kc: 256,
        mc: 64,
        nc: 256,
    },
    // No measured crossover below 256^2 operand pairs: the packed kernel
    // is flat-rate enough that one extra Strassen level only pays once
    // blocks exceed ~256 x 256 (validated end to end at n = 1024, where
    // this cutoff beats both 32768 and no-recursion).
    base_words: 131_072,
    micro_min_volume: MICRO_MIN_VOLUME,
};

/// See [`TUNED_F64`]; f32 packs twice the lanes per register, so the
/// measured register tile is wider (`nr = 12`).
const TUNED_F32: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 4,
        nr: 12,
        kc: 256,
        mc: 64,
        nc: 256,
    },
    base_words: 131_072,
    // The portable f32 engine loses to the blocked loops up to n = 128
    // (14.3 vs 18.9 GF/s gemm in BENCH_kernels.json) and only wins from
    // n = 256 up, so its cutoff sits between those sizes: 128^3 < v <=
    // 192^3 measured, baked as the first losing size cubed plus one.
    micro_min_volume: 128 * 128 * 128 + 1,
};

/// Fused-kernel row for f64 under [`crate::simd::Isa::Fma`], measured
/// on the same container with the cross-size sweep (`ata calibrate`
/// plus 128/256/512 spot checks): the 4 x 8 tile (8 fused accumulator
/// vectors, 2 B vectors, 1 broadcast) beat the deeper 6 x 8 / 8 x 8
/// tiles at every size (33-38 GF/s gemm vs 13.5 portable), and the
/// fused kernel beats the blocked loops from the smallest packed sizes,
/// so the volume floor stays at the packing-overhead default.
const TUNED_F64_FMA: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 4,
        nr: 8,
        kc: 128,
        mc: 64,
        nc: 256,
    },
    // The single-level crossover model lands between s* = 192 and
    // s* = 256 on repeated fused-path runs (timing noise at this
    // machine's resolution); keep the end-to-end-validated portable
    // value above that band.
    base_words: 131_072,
    micro_min_volume: MICRO_MIN_VOLUME,
};

/// Fused-kernel row for f32 under [`crate::simd::Isa::Fma`] (see
/// [`TUNED_F64_FMA`]): 8 lanes per vector, same 4-row accumulator
/// block, twice the tile width (59-69 GF/s gemm, 34-51 syrk measured —
/// above the blocked loops at every benched size, unlike the portable
/// f32 engine).
const TUNED_F32_FMA: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 4,
        nr: 16,
        kc: 256,
        mc: 64,
        nc: 256,
    },
    base_words: 131_072,
    // Measured crossover: the blocked loops still edge out the fused
    // f32 engine below 24^3 (packing overhead on narrow panels).
    micro_min_volume: 24 * 24 * 24 + 1,
};

/// Fused-kernel row for f64 under [`Isa::Avx512`], measured on a 2-vCPU
/// Intel Xeon VM (avx512f, 2.1 GHz class) with `ata calibrate` plus
/// end-to-end serial grams (2048 x 2048 and 8192 x 1024, thread CPU
/// time). The sweep picks the 8 x 16 tile (16 zmm accumulators) on every
/// run; `KC = 256, MC = 256, NC = 512` won the end-to-end blocking grid
/// over `MC = 128` on both shapes (square 0.48-0.51 s vs 0.52-0.54 s,
/// tall 0.53-0.56 s vs 0.61-0.64 s). Best-of-3 leaf rates at n = 512
/// ranged 24-35 GF/s gemm and 15-22 GF/s syrk across the grid (the
/// AVX2 row's 4 x 8 tile measured 28-31 / 20-24 GF/s on the AVX2+FMA
/// reference container).
const TUNED_F64_AVX512: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 8,
        nr: 16,
        kc: 256,
        mc: 256,
        nc: 512,
    },
    // The faster leaves move the crossover up. The single-level model's
    // answer is noise-bound on this host (s* = 128 to 192 across
    // runs), so the cutoff is the end-to-end winner: a 2^20-word budget
    // (1024^2 syrk leaves on the square shape) beat 2^18 and 2^19 on
    // both shapes (square 0.42-0.47 s against 0.58 s at 2^18; tall
    // 0.55-0.65 s against 0.73-0.86 s), while 2^21 gained nothing
    // further.
    base_words: 1_048_576,
    micro_min_volume: MICRO_MIN_VOLUME,
};

/// Fused-kernel row for f32 under [`Isa::Avx512`] (see
/// [`TUNED_F64_AVX512`]): 16 lanes per vector, the same 8-row,
/// 16-accumulator block twice as wide (8 x 32 measured 48-52 GF/s gemm
/// and 36-39 syrk at n = 512-1024, against 33-34 for 8 x 16), beating
/// the blocked loops at every swept size, with the f64 row's blocking
/// and cutoff (tall 8192 x 1024 grams: 0.27 s at 2^20 words against
/// 0.57 s at 2^17).
const TUNED_F32_AVX512: Tuned = Tuned {
    kernel: KernelConfig {
        mr: 8,
        nr: 32,
        kc: 256,
        mc: 256,
        nc: 512,
    },
    base_words: 1_048_576,
    micro_min_volume: MICRO_MIN_VOLUME,
};

/// The baked row for scalar type `T` running tier `tier`'s kernels
/// ([`Isa::Generic`] = the portable and scalar paths).
fn row<T: Scalar>(tier: Isa) -> Tuned {
    match (T::NAME, tier) {
        ("f32", Isa::Avx512) => TUNED_F32_AVX512,
        ("f32", Isa::Fma) => TUNED_F32_FMA,
        ("f32", Isa::Generic) => TUNED_F32,
        ("f64", Isa::Avx512) => TUNED_F64_AVX512,
        ("f64", Isa::Fma) => TUNED_F64_FMA,
        // Types without their own row (the op-counting `Tracked` scalar,
        // exact fields) inherit the portable f64 row: their "speed" is
        // irrelevant, but sharing the row keeps their blocking — and
        // therefore their measured operation *counts* — identical to the
        // f64 reference path on every host ISA.
        _ => TUNED_F64,
    }
}

/// The measured parameters for scalar type `T` on an explicit tile
/// path, with any `ATA_KERNEL_PARAMS` override applied.
///
/// Only a genuinely-available `Intrinsic` path (see
/// [`crate::simd::has_kernels`]) resolves a fused row, the one of the
/// detected tier ([`crate::simd::detected`]); `Portable` and `Scalar` —
/// and any scalar the SIMD module has no kernels for — resolve the
/// portable rows, so the blocking a run uses always matches the kernels
/// it executes.
pub fn tuned_for_path<T: Scalar>(path: MicroPath) -> Tuned {
    let tier = if path == MicroPath::Intrinsic && crate::simd::has_kernels::<T>() {
        crate::simd::detected()
    } else {
        Isa::Generic
    };
    apply_env(row::<T>(tier))
}

/// The measured parameters for scalar type `T` on the tile path the
/// engine resolves under the current `ATA_MICRO` setting and detected
/// ISA, with any `ATA_KERNEL_PARAMS` override applied.
pub fn tuned_for<T: Scalar>() -> Tuned {
    tuned_for_path::<T>(micro_path_for::<T>())
}

/// The register-tile menu the calibration sweep walks for `T`: the
/// intrinsic menu of the detected ISA when the resolved path runs fused
/// kernels, the portable [`KernelConfig::MENU`] otherwise.
pub fn menu_for<T: Scalar>() -> &'static [(usize, usize)] {
    if micro_path_for::<T>() == MicroPath::Intrinsic {
        if let Some(menu) = crate::simd::detected().menu::<T>() {
            return menu;
        }
    }
    KernelConfig::MENU
}

/// Parsed `ATA_KERNEL_PARAMS` override (read once per process).
#[derive(Debug, Default, Clone, Copy)]
struct EnvOverride {
    mr: Option<usize>,
    nr: Option<usize>,
    kc: Option<usize>,
    mc: Option<usize>,
    nc: Option<usize>,
    words: Option<usize>,
    volume: Option<usize>,
}

fn env_override() -> &'static Option<EnvOverride> {
    static PARSED: OnceLock<Option<EnvOverride>> = OnceLock::new();
    PARSED.get_or_init(|| {
        let raw = std::env::var("ATA_KERNEL_PARAMS").ok()?;
        let mut ov = EnvOverride::default();
        for pair in raw.split(',') {
            let Some((key, value)) = pair.split_once('=') else {
                continue;
            };
            let Ok(v) = value.trim().parse::<usize>() else {
                continue;
            };
            if v == 0 {
                continue;
            }
            match key.trim() {
                "mr" => ov.mr = Some(v),
                "nr" => ov.nr = Some(v),
                "kc" => ov.kc = Some(v),
                "mc" => ov.mc = Some(v),
                "nc" => ov.nc = Some(v),
                "words" => ov.words = Some(v),
                "volume" => ov.volume = Some(v),
                _ => {}
            }
        }
        Some(ov)
    })
}

fn apply_env(mut t: Tuned) -> Tuned {
    if let Some(ov) = env_override() {
        let k = &mut t.kernel;
        k.mr = ov.mr.unwrap_or(k.mr);
        k.nr = ov.nr.unwrap_or(k.nr);
        k.kc = ov.kc.unwrap_or(k.kc);
        k.mc = ov.mc.unwrap_or(k.mc);
        k.nc = ov.nc.unwrap_or(k.nc);
        t.base_words = ov.words.unwrap_or(t.base_words);
        t.micro_min_volume = ov.volume.unwrap_or(t.micro_min_volume);
    }
    t
}

// ---------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------

/// Fill a buffer with a cheap deterministic pseudo-random pattern
/// (avoids depending on `gen` and keeps calibration self-contained).
fn fill_pattern<T: Scalar>(buf: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for v in buf.iter_mut() {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let r = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64;
        *v = T::from_f64(r / (1u64 << 53) as f64 - 0.5);
    }
}

/// Median-of-three wall-clock seconds of one `C += A^T B` run at
/// `m = n = k = size` under `cfg`.
fn time_gemm<T: Scalar>(size: usize, cfg: &KernelConfig, bufs: &mut PackBufs<T>) -> f64 {
    let mut a = vec![T::ZERO; size * size];
    let mut b = vec![T::ZERO; size * size];
    let mut c = vec![T::ZERO; size * size];
    fill_pattern(&mut a, 1);
    fill_pattern(&mut b, 2);
    let av = MatRef::from_slice(&a, size, size);
    let bv = MatRef::from_slice(&b, size, size);
    let mut samples = [0.0f64; 3];
    for s in samples.iter_mut() {
        let mut cv = MatMut::from_slice(&mut c, size, size);
        let t0 = Instant::now();
        gemm_tn_micro_with(T::ONE, av, bv, &mut cv, cfg, bufs);
        *s = t0.elapsed().as_secs_f64();
    }
    samples.sort_by(f64::total_cmp);
    std::hint::black_box(&c);
    samples[1]
}

/// Sweep the register-tile menu and a coarse `KC/MC/NC` grid, returning
/// the fastest [`KernelConfig`] by measured square-gemm time.
///
/// `quick` trims the grid for smoke runs (CI, `ata calibrate --quick`).
pub fn measure_kernel<T: Scalar>(quick: bool) -> KernelConfig {
    let size = if quick { 64 } else { 192 };
    let kcs: &[usize] = if quick { &[128] } else { &[128, 256] };
    let mcs: &[usize] = if quick { &[64] } else { &[32, 64, 128] };
    let ncs: &[usize] = if quick { &[256] } else { &[128, 256] };
    let mut bufs = PackBufs::new();
    let mut best = (f64::INFINITY, KernelConfig::for_scalar::<T>());
    for &(mr, nr) in menu_for::<T>() {
        for &kc in kcs {
            for &mc in mcs {
                for &nc in ncs {
                    let cfg = KernelConfig::new(mr, nr, kc, mc, nc);
                    let t = time_gemm::<T>(size, &cfg, &mut bufs);
                    if t < best.0 {
                        best = (t, cfg);
                    }
                }
            }
        }
    }
    best.1
}

/// Median-of-three wall-clock seconds of one syrk-leaf rank update
/// `C_low += A^T A` at `m = n = size` under `cfg` — the base case the
/// AtA recursion actually bottoms out in.
fn time_syrk<T: Scalar>(size: usize, cfg: &KernelConfig, bufs: &mut PackBufs<T>) -> f64 {
    let mut a = vec![T::ZERO; size * size];
    let mut c = vec![T::ZERO; size * size];
    fill_pattern(&mut a, 4);
    let av = MatRef::from_slice(&a, size, size);
    let mut samples = [0.0f64; 3];
    for s in samples.iter_mut() {
        let mut cv = MatMut::from_slice(&mut c, size, size);
        let t0 = Instant::now();
        syrk_ln_micro_with(T::ONE, av, &mut cv, cfg, bufs);
        *s = t0.elapsed().as_secs_f64();
    }
    samples.sort_by(f64::total_cmp);
    std::hint::black_box(&c);
    samples[1]
}

/// The sizes swept for the base-case crossover; the returned cutoff is
/// always `s^2` for some swept `s`, so `[48^2, 1024^2]` is the valid
/// range of any measured (or baked) `base_words`. The top sizes
/// exist for the AVX-512 tier, whose leaves stay efficient well past
/// `256 x 256`.
pub const BASE_SWEEP_SIZES: &[usize] = &[48, 64, 96, 128, 192, 256, 384, 512, 768, 1024];

/// Locate the AtA base-case crossover for `T` under `kernel`, by timing
/// the two sides of one Algorithm 1 recursion level directly:
///
/// * staying at the base case costs one size-`s` syrk leaf;
/// * recursing costs the level's actual kernel mix — four half-size
///   syrk leaves (the recursive AtA calls, themselves base cases at the
///   crossover) plus two half-size `A^T B` products (the off-diagonal
///   FastStrassen calls, which degenerate to direct gemm when their
///   children are base cases).
///
/// The previous model inferred both sides from square-gemm timings
/// alone (`7 t(s/2)` plus an axpy-priced block-sum term) — Strassen's
/// mix, not Algorithm 1's — and mispriced the syrk leaves, which skip
/// the strictly-upper half of every diagonal tile. The crossover `s*`
/// is the smallest swept size where recursing wins; recursion should
/// *stop* at it, so the budget is returned in the units of
/// [`crate::CacheConfig::ata_base`], `n^2 <= words`: a leaf of order `s`
/// costs `s^2` words and the returned `s*^2` puts the square leaf
/// exactly at the measured crossover.
pub fn measure_base_words<T: Scalar>(kernel: &KernelConfig, quick: bool) -> usize {
    let sizes: &[usize] = if quick { &[48, 96] } else { BASE_SWEEP_SIZES };
    let mut bufs = PackBufs::new();
    for &s in sizes {
        let t_full = time_syrk::<T>(s, kernel, &mut bufs);
        let half = s.div_ceil(2);
        let t_level = 4.0 * time_syrk::<T>(half, kernel, &mut bufs)
            + 2.0 * time_gemm::<T>(half, kernel, &mut bufs);
        if t_level < 0.95 * t_full {
            return s * s;
        }
    }
    // No crossover in range: keep recursion rare.
    let s = *sizes.last().expect("size table is non-empty"); // ata-lint: allow(no-unwrap-in-lib): the size table is a non-empty constant
    s * s
}

/// The sizes swept for the micro-vs-blocked crossover; any measured (or
/// baked) `micro_min_volume` is `s^3 + 1` for a swept `s` (or the
/// [`MICRO_MIN_VOLUME`] floor when the engine wins everywhere).
pub const VOLUME_SWEEP_SIZES: &[usize] = &[16, 24, 32, 48, 64, 96, 128, 192];

/// Median-of-three wall-clock seconds of one blocked rank-1
/// `C += A^T B` run at `m = n = k = size` — the path the engine's
/// volume cutoff competes against.
fn time_blocked<T: Scalar>(size: usize) -> f64 {
    let mut a = vec![T::ZERO; size * size];
    let mut b = vec![T::ZERO; size * size];
    let mut c = vec![T::ZERO; size * size];
    fill_pattern(&mut a, 1);
    fill_pattern(&mut b, 2);
    let av = MatRef::from_slice(&a, size, size);
    let bv = MatRef::from_slice(&b, size, size);
    let mut samples = [0.0f64; 3];
    for s in samples.iter_mut() {
        let mut cv = MatMut::from_slice(&mut c, size, size);
        let t0 = Instant::now();
        gemm_tn_blocked(T::ONE, av, bv, &mut cv, BlockSizes::default());
        *s = t0.elapsed().as_secs_f64();
    }
    samples.sort_by(f64::total_cmp);
    std::hint::black_box(&c);
    samples[1]
}

/// Locate the volume above which the packed engine under `kernel` beats
/// the blocked rank-1 loops for `T`, by walking
/// [`VOLUME_SWEEP_SIZES`] downward: the cutoff is the cube of the
/// largest size where the blocked loops still win, plus one (or the
/// [`MICRO_MIN_VOLUME`] packing-overhead floor when the engine wins at
/// every swept size — the f64 situation; portable f32 is the case this
/// sweep exists for).
pub fn measure_min_volume<T: Scalar>(kernel: &KernelConfig, quick: bool) -> usize {
    let sizes: &[usize] = if quick { &[32, 64] } else { VOLUME_SWEEP_SIZES };
    let mut bufs = PackBufs::new();
    for &s in sizes.iter().rev() {
        if s * s * s < MICRO_MIN_VOLUME {
            break;
        }
        let t_micro = time_gemm::<T>(s, kernel, &mut bufs);
        let t_blocked = time_blocked::<T>(s);
        if t_blocked < t_micro {
            return s * s * s + 1;
        }
    }
    MICRO_MIN_VOLUME
}

/// Full calibration for scalar type `T` on its resolved tile path:
/// tile/blocking sweep, the micro-vs-blocked volume crossover, and the
/// AtA base-case crossover. `quick` keeps the run under a second for
/// smoke use; the full run takes a few seconds per type.
pub fn measure<T: Scalar>(quick: bool) -> Tuned {
    let kernel = measure_kernel::<T>(quick);
    let micro_min_volume = measure_min_volume::<T>(&kernel, quick);
    let base_words = measure_base_words::<T>(&kernel, quick);
    Tuned {
        kernel,
        base_words,
        micro_min_volume,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baked_tables_are_on_menu() {
        for t in [TUNED_F64, TUNED_F32] {
            assert!(
                KernelConfig::MENU.contains(&(t.kernel.mr, t.kernel.nr)),
                "baked portable tile {:?} must have an unrolled kernel",
                (t.kernel.mr, t.kernel.nr)
            );
            assert!(t.base_words >= 1024, "cutoff suspiciously small");
        }
        for (t, menu) in [
            (TUNED_F64_FMA, crate::simd::FMA_MENU_F64),
            (TUNED_F32_FMA, crate::simd::FMA_MENU_F32),
            (TUNED_F64_AVX512, crate::simd::AVX512_MENU_F64),
            (TUNED_F32_AVX512, crate::simd::AVX512_MENU_F32),
        ] {
            let tile = (t.kernel.mr, t.kernel.nr);
            assert!(
                menu.contains(&tile),
                "baked fused tile {tile:?} must have an intrinsic kernel"
            );
            assert!(
                KernelConfig::MENU.contains(&tile),
                "baked fused tile {tile:?} needs a portable fallback kernel"
            );
        }
    }

    #[test]
    fn baked_cutoffs_lie_in_the_measured_sweep_range() {
        let lo = BASE_SWEEP_SIZES.first().unwrap().pow(2);
        let hi = BASE_SWEEP_SIZES.last().unwrap().pow(2);
        assert_eq!((lo, hi), (48 * 48, 1024 * 1024));
        for t in [
            TUNED_F64,
            TUNED_F32,
            TUNED_F64_FMA,
            TUNED_F32_FMA,
            TUNED_F64_AVX512,
            TUNED_F32_AVX512,
        ] {
            assert!(
                (lo..=hi).contains(&t.base_words),
                "baked cutoff {} outside the sweep's valid range [{lo}, {hi}]",
                t.base_words
            );
            let vol_hi = VOLUME_SWEEP_SIZES.last().unwrap().pow(3) + 1;
            assert!(
                (MICRO_MIN_VOLUME..=vol_hi).contains(&t.micro_min_volume),
                "baked volume cutoff {} outside [{MICRO_MIN_VOLUME}, {vol_hi}]",
                t.micro_min_volume
            );
        }
    }

    #[test]
    fn tuned_for_covers_every_scalar() {
        let f64_portable = tuned_for_path::<f64>(MicroPath::Portable);
        let f32_t = tuned_for::<f32>();
        let tracked = tuned_for::<ata_mat::tracked::Tracked>();
        assert_eq!(
            tracked, f64_portable,
            "op-counting scalar must share the portable f64 blocking"
        );
        assert!(f32_t.kernel.mr > 0 && f32_t.kernel.nr > 0);
    }

    #[test]
    fn fused_rows_only_resolve_where_kernels_exist() {
        // Forcing Intrinsic for a scalar with no SIMD kernels must fall
        // back to the portable row, never the fused one.
        assert_eq!(
            tuned_for_path::<ata_mat::tracked::Tracked>(MicroPath::Intrinsic),
            tuned_for_path::<f64>(MicroPath::Portable),
        );
        let tier = crate::simd::detected();
        if crate::simd::has_kernels::<f64>() {
            assert_eq!(
                tuned_for_path::<f64>(MicroPath::Intrinsic),
                apply_env(row::<f64>(tier))
            );
            assert_eq!(
                tuned_for_path::<f32>(MicroPath::Intrinsic),
                apply_env(row::<f32>(tier))
            );
        }
        assert_eq!(
            tuned_for_path::<f64>(MicroPath::Scalar),
            apply_env(TUNED_F64)
        );
    }

    #[test]
    fn menus_track_the_resolved_path() {
        use crate::micro::micro_path_for;
        if micro_path_for::<f64>() == MicroPath::Intrinsic {
            let (m64, m32) = match crate::simd::detected() {
                Isa::Avx512 => (crate::simd::AVX512_MENU_F64, crate::simd::AVX512_MENU_F32),
                _ => (crate::simd::FMA_MENU_F64, crate::simd::FMA_MENU_F32),
            };
            assert_eq!(menu_for::<f64>(), m64);
            assert_eq!(menu_for::<f32>(), m32);
        } else {
            assert_eq!(menu_for::<f64>(), KernelConfig::MENU);
        }
        assert_eq!(
            menu_for::<ata_mat::tracked::Tracked>(),
            KernelConfig::MENU,
            "op counting sweeps the portable menu on any host"
        );
    }

    #[test]
    fn avx2_rows_are_unchanged_by_the_avx512_tier() {
        // A host without avx512f must keep resolving exactly the AVX2
        // tile, blocking and cutoffs it always has.
        let f64_fma = Tuned {
            kernel: KernelConfig::new(4, 8, 128, 64, 256),
            base_words: 131_072,
            micro_min_volume: MICRO_MIN_VOLUME,
        };
        let f32_fma = Tuned {
            kernel: KernelConfig::new(4, 16, 256, 64, 256),
            base_words: 131_072,
            micro_min_volume: 24 * 24 * 24 + 1,
        };
        assert_eq!(row::<f64>(Isa::Fma), f64_fma);
        assert_eq!(row::<f32>(Isa::Fma), f32_fma);
        assert_eq!(row::<f64>(Isa::Generic), TUNED_F64);
        if crate::simd::detected() == Isa::Fma && micro_path_for::<f64>() == MicroPath::Intrinsic {
            assert_eq!(
                tuned_for_path::<f64>(MicroPath::Intrinsic),
                apply_env(f64_fma)
            );
        }
    }

    #[test]
    fn quick_measurement_returns_sane_values() {
        // Smoke only: a quick sweep must terminate and produce a menu
        // tile with positive blocking. (The actual numbers are
        // hardware-dependent and not asserted.)
        let t = measure::<f32>(true);
        assert!(menu_for::<f32>().contains(&(t.kernel.mr, t.kernel.nr)));
        assert!(t.base_words >= 48 * 48);
        assert!(t.micro_min_volume >= MICRO_MIN_VOLUME);
    }
}
