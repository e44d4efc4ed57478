//! The register-blocked microkernel engine (BLIS-style `GEMM`/`SYRK`).
//!
//! [`crate::gemm::gemm_tn`] and [`crate::syrk::syrk_ln`] dispatch onto
//! this module by default (see [`selected_path`]); the pre-engine loops
//! remain available as `gemm_tn_blocked` / `gemm_tn_unblocked` for
//! ablation and as the op-counting reference.
//!
//! # Anatomy
//!
//! The engine is the classical three-level blocking of Goto / BLIS,
//! specialized to the transposed-left product `C += alpha * A^T B` that
//! the paper's algorithms need (`A: m x n`, `B: m x k`, `C: n x k`):
//!
//! ```text
//! for jc in steps of NC over k        // C column blocks
//!   for pc in steps of KC over m      // reduction blocks
//!     pack B[pc.., jc..]  -> bpack    // NR-wide panels, alpha folded in
//!     for ic in steps of MC over n    // C row blocks
//!       pack A[pc.., ic..] -> apack   // MR-wide panels
//!       for jr in steps of NR         // micro-tile columns
//!         for ir in steps of MR       // micro-tile rows
//!           microkernel: MR x NR accumulators in registers,
//!           one fused multiply-add per (i, j, p)
//! ```
//!
//! The microkernel keeps an `MR x NR` accumulator array in registers,
//! seeded from `C` and written back once per `KC` block, so `C` traffic
//! is `1/KC` of the rank-1 scheme's and `A`/`B` traffic is `1/NR` and
//! `1/MR` respectively. `MR`/`NR` are const generics from a fixed menu
//! ([`KernelConfig::MENU`]); the blocking parameters come from the
//! measured per-scalar table in [`crate::calibrate`].
//!
//! # Exact operation accounting
//!
//! Every result element is produced by `Scalar::mul_add` chains seeded
//! from the existing `C` value: with `alpha = 1` — the hot path every
//! Strassen product and every measured-flop validation runs — the
//! engine performs *exactly* `m * n * k` multiplications and
//! `m * n * k` additions, the same counts as the rank-1 reference path
//! (a parity the `micro_props` proptests pin down). On the portable and
//! scalar paths ragged edges are computed by a bounds-aware scalar tile
//! ([`edge kernel`](self)) rather than with zero-padding arithmetic,
//! which is what keeps the counts exact for arbitrary shapes; only the
//! intrinsic path, which `Tracked` never reaches, runs them fused over
//! the zero padding. `alpha = -1` stays
//! multiplication-exact too (`m * n * k` muls) by folding the sign into
//! the `B`-pack as `m * k` negations — *cheaper* than the rank-1 path,
//! which re-multiplies by `alpha` per tile, so negated products are not
//! count-identical across the [`selected_path`] dispatch boundary.

use crate::pack::{
    pack_panels, pack_panels_par, packed_elems, with_thread_bufs, PackBufs, PackScale,
};
use ata_mat::{MatMut, MatRef, Scalar};
use std::sync::OnceLock;

/// Blocking parameters of the microkernel engine.
///
/// `(mr, nr)` select the register tile (must come from
/// [`KernelConfig::MENU`] for the fast path; any other pair still
/// computes correctly through the bounds-aware edge kernel). `kc`, `mc`,
/// `nc` are the cache-blocking depths of the loop nest: a `kc x mc`
/// `A`-block should sit in L2 and a `kc x nr` `B`-sliver in L1 while a
/// micro-tile executes.
///
/// Defaults per scalar type come from the measured table in
/// [`crate::calibrate`]; construct explicitly (or set
/// `ATA_KERNEL_PARAMS`) to override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Register-tile rows (micro-panel width of the packed `A` operand).
    pub mr: usize,
    /// Register-tile columns (micro-panel width of the packed `B`
    /// operand).
    pub nr: usize,
    /// Reduction-dimension block depth.
    pub kc: usize,
    /// `C` row-block height (columns of `A` packed per block).
    pub mc: usize,
    /// `C` column-block width (columns of `B` packed per block).
    pub nc: usize,
}

impl KernelConfig {
    /// Register tiles with a dedicated unrolled portable microkernel.
    /// Other `(mr, nr)` pairs run through the (slower) bounds-aware
    /// kernel. Every tier's intrinsic tiles ([`crate::simd::FMA_MENU_F64`],
    /// [`crate::simd::AVX512_MENU_F32`], ...) are a subset, so a forced
    /// `ATA_MICRO=portable` run keeps the unrolled kernel at any
    /// ISA-calibrated tile.
    pub const MENU: &'static [(usize, usize)] = &[
        (4, 4),
        (4, 8),
        (4, 12),
        (4, 16),
        (6, 4),
        (6, 8),
        (6, 16),
        (8, 4),
        (8, 6),
        (8, 8),
        (8, 16),
        (8, 32),
        (12, 4),
    ];

    /// Validated constructor.
    ///
    /// # Panics
    /// If any parameter is zero.
    pub fn new(mr: usize, nr: usize, kc: usize, mc: usize, nc: usize) -> Self {
        assert!(
            mr > 0 && nr > 0 && kc > 0 && mc > 0 && nc > 0,
            "kernel blocking parameters must be positive"
        );
        Self { mr, nr, kc, mc, nc }
    }

    /// The measured default for scalar type `T` (see
    /// [`crate::calibrate::tuned_for`]), after applying any
    /// `ATA_KERNEL_PARAMS` environment override.
    pub fn for_scalar<T: Scalar>() -> Self {
        crate::calibrate::tuned_for::<T>().kernel
    }

    /// Element counts `(apack, bpack)` of the packing buffers one kernel
    /// invocation under this config needs — what `AtaPlan` warms
    /// per-thread so steady-state executes allocate nothing.
    pub fn pack_buffer_elems(&self) -> (usize, usize) {
        (
            packed_elems(self.kc, self.mc, self.mr),
            packed_elems(self.kc, self.nc, self.nr),
        )
    }
}

/// Which implementation a kernel entry point selects for a given problem
/// (the dispatch is observable so CI can guard against silent fallback
/// regressions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// The packed register-blocked engine in this module.
    Micro,
    /// The legacy cache-blocked rank-1 loops
    /// ([`crate::gemm::gemm_tn_blocked`]).
    Blocked,
}

/// Which tile implementation the engine runs inside [`KernelPath::Micro`]
/// — the inner dispatch level below the micro-vs-blocked choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroPath {
    /// Explicit-SIMD fused kernels from [`crate::simd`], for full tiles
    /// and (through a scratch tile) ragged edges and diagonal straddles.
    Intrinsic,
    /// The safe const-generic kernels in this module (unfused
    /// `mul_add`, autovectorizer-scheduled).
    Portable,
    /// The bounds-aware scalar kernel for every tile — bit-identical to
    /// `Portable` (same per-element accumulation order); the ablation
    /// baseline.
    Scalar,
}

impl MicroPath {
    /// Stable lowercase name, matching the `ATA_MICRO` values and the
    /// bench-record `path` field.
    pub fn name(self) -> &'static str {
        match self {
            MicroPath::Intrinsic => "intrinsic",
            MicroPath::Portable => "portable",
            MicroPath::Scalar => "scalar",
        }
    }
}

/// Problems below this flop volume (`m * n * k`) skip packing: the
/// buffer setup costs more than it saves on sub-microtile products.
/// This is the default floor; the effective per-scalar cutoff lives in
/// [`crate::calibrate::Tuned::micro_min_volume`].
pub const MICRO_MIN_VOLUME: usize = 4096;

/// Parsed `ATA_MICRO` ablation switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MicroMode {
    /// No override: engine on, best available tile path per scalar.
    Auto,
    /// `ATA_MICRO=0|off`: engine off, everything runs the blocked loops.
    Off,
    /// `ATA_MICRO=intrinsic|portable|scalar`: engine on, tile path pinned.
    Force(MicroPath),
}

/// The process-wide `ATA_MICRO` setting (read once; unknown values fall
/// back to `Auto` so stale scripts degrade to defaults, not to panics).
fn micro_mode() -> MicroMode {
    static MODE: OnceLock<MicroMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("ATA_MICRO").as_deref() {
        Ok("0") | Ok("off") => MicroMode::Off,
        Ok("intrinsic") => MicroMode::Force(MicroPath::Intrinsic),
        Ok("portable") => MicroMode::Force(MicroPath::Portable),
        Ok("scalar") => MicroMode::Force(MicroPath::Scalar),
        _ => MicroMode::Auto,
    })
}

/// True when `ATA_MICRO=0` disables the engine process-wide (the
/// ablation/escape hatch; read once).
fn micro_disabled() -> bool {
    micro_mode() == MicroMode::Off
}

/// The tile path the engine resolves for scalar type `T` under the
/// current `ATA_MICRO` setting and detected ISA.
///
/// A forced `intrinsic` (and plain `Auto`) degrades gracefully to
/// `Portable` when [`crate::simd`] has no kernels for `T` on this CPU —
/// notably `Tracked` and the exact fields never reach intrinsics, which
/// is what keeps their op-count contract independent of the host ISA.
pub fn micro_path_for<T: Scalar>() -> MicroPath {
    match micro_mode() {
        MicroMode::Force(MicroPath::Scalar) => MicroPath::Scalar,
        MicroMode::Force(MicroPath::Portable) => MicroPath::Portable,
        MicroMode::Force(MicroPath::Intrinsic) | MicroMode::Auto | MicroMode::Off => {
            if crate::simd::has_kernels::<T>() {
                MicroPath::Intrinsic
            } else {
                MicroPath::Portable
            }
        }
    }
}

/// The implementation [`crate::gemm::gemm_tn`] / [`crate::syrk::syrk_ln`]
/// will run for an `(m, n, k)` product of scalar type `T` (for `syrk`,
/// `k == n`).
///
/// The volume cutoff is the *per-scalar, per-path* calibrated
/// [`crate::calibrate::Tuned::micro_min_volume`], not the global
/// [`MICRO_MIN_VOLUME`] floor — f32's portable engine, for instance,
/// loses to the blocked loops up to much larger sizes than f64's and
/// gets a correspondingly higher cutoff.
pub fn selected_path<T: Scalar>(m: usize, n: usize, k: usize) -> KernelPath {
    let volume = m.saturating_mul(n).saturating_mul(k);
    if micro_disabled() || volume < crate::calibrate::tuned_for::<T>().micro_min_volume {
        KernelPath::Blocked
    } else {
        KernelPath::Micro
    }
}

// ---------------------------------------------------------------------
// Microkernels.
// ---------------------------------------------------------------------

/// The full-tile microkernel: `MR x NR` accumulators seeded from `C`,
/// one `mul_add` per `(i, j, p)`, written back once.
///
/// Deliberately *not* inlined: each instantiation must stay a
/// standalone function so LLVM vectorizes its accumulator loops in
/// isolation. Inlining all menu instantiations into the tile sweep
/// (the pre-dispatch layout) blows the optimizer's budget once the
/// menu grows past a handful of tiles and costs the portable path ~4x.
#[inline(never)]
fn kernel<T: Scalar, const MR: usize, const NR: usize>(
    kc: usize,
    ap: &[T],
    bp: &[T],
    c: &mut MatMut<'_, T>,
) {
    debug_assert_eq!(c.shape(), (MR, NR));
    let mut acc = [[T::ZERO; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c.row(i)[..NR]);
    }
    let ap = &ap[..kc * MR];
    let bp = &bp[..kc * NR];
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (ai, row) in av.iter().zip(acc.iter_mut()) {
            for (bj, acc_ij) in bv.iter().zip(row.iter_mut()) {
                *acc_ij = ai.mul_add(*bj, *acc_ij);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        c.row_mut(i)[..NR].copy_from_slice(row);
    }
}

/// Dispatch a full `mr x nr` tile along the resolved [`MicroPath`].
///
/// `Intrinsic` tries the fused SIMD kernel first and falls through to
/// the portable instantiation when none takes the tile (unsupported
/// scalar/ISA or off-menu shape) — the graceful, bit-identical
/// fallback. `Scalar` runs the bounds-aware kernel even on full tiles,
/// which is bit-identical to `Portable` (same per-element accumulation
/// order) and serves as the ablation baseline.
#[inline]
fn full_tile<T: Scalar>(
    path: MicroPath,
    mr: usize,
    nr: usize,
    kc: usize,
    ap: &[T],
    bp: &[T],
    c: &mut MatMut<'_, T>,
) {
    match path {
        MicroPath::Intrinsic => {
            if crate::simd::full_tile(mr, nr, kc, ap, bp, c) {
                return;
            }
        }
        MicroPath::Scalar => {
            edge_tile(kc, mr, nr, ap, bp, c, None);
            return;
        }
        MicroPath::Portable => {}
    }
    match (mr, nr) {
        (4, 4) => kernel::<T, 4, 4>(kc, ap, bp, c),
        (4, 8) => kernel::<T, 4, 8>(kc, ap, bp, c),
        (4, 16) => kernel::<T, 4, 16>(kc, ap, bp, c),
        (6, 8) => kernel::<T, 6, 8>(kc, ap, bp, c),
        (6, 16) => kernel::<T, 6, 16>(kc, ap, bp, c),
        (8, 4) => kernel::<T, 8, 4>(kc, ap, bp, c),
        (8, 6) => kernel::<T, 8, 6>(kc, ap, bp, c),
        (8, 8) => kernel::<T, 8, 8>(kc, ap, bp, c),
        (8, 16) => kernel::<T, 8, 16>(kc, ap, bp, c),
        (8, 32) => kernel::<T, 8, 32>(kc, ap, bp, c),
        (12, 4) => kernel::<T, 12, 4>(kc, ap, bp, c),
        (4, 12) => kernel::<T, 4, 12>(kc, ap, bp, c),
        (6, 4) => kernel::<T, 6, 4>(kc, ap, bp, c),
        _ => edge_tile(kc, mr, nr, ap, bp, c, None),
    }
}

/// Largest register tile (`mr * nr` elements) [`fused_partial_tile`]
/// can stage on the stack. A wider intrinsic tile would silently drop
/// every ragged and straddling tile to the scalar [`edge_tile`], so the
/// assertion below refuses to compile such a menu.
const MAX_TILE: usize = 256;

const _: () = {
    let menus = crate::simd::INTRINSIC_MENUS;
    let mut m = 0;
    while m < menus.len() {
        let mut t = 0;
        while t < menus[m].len() {
            let (mr, nr) = menus[m][t];
            assert!(
                mr * nr <= MAX_TILE,
                "intrinsic tile exceeds the fused scratch tile"
            );
            t += 1;
        }
        m += 1;
    }
};

/// A ragged or diagonal-straddling tile: only `c`'s `mr_eff x nr_eff`
/// entries (capped to the lower triangle when `diag = Some((ir, jr))`,
/// see [`edge_tile`]) are updated.
///
/// The intrinsic path runs the fused kernel over the full zero-padded
/// panels into a zeroed scratch tile, then adds only the valid entries
/// into `C` — fused speed for the ragged edges and the straddle band (a
/// constant fraction of every diagonal block), at the cost of one extra
/// add per stored element. Every other path, and any tile no fused
/// kernel takes, runs the exact-op [`edge_tile`], so `Tracked` counts
/// and portable bitwise behavior are unchanged.
#[allow(clippy::too_many_arguments)]
fn partial_tile<T: Scalar>(
    path: MicroPath,
    kc: usize,
    mr: usize,
    nr: usize,
    ap: &[T],
    bp: &[T],
    c: &mut MatMut<'_, T>,
    diag: Option<(usize, usize)>,
) {
    if path != MicroPath::Intrinsic || !fused_partial_tile(kc, mr, nr, ap, bp, c, diag) {
        edge_tile(kc, mr, nr, ap, bp, c, diag);
    }
}

/// The intrinsic half of [`partial_tile`]; `false` means no fused
/// kernel took the tile and `c` is untouched.
fn fused_partial_tile<T: Scalar>(
    kc: usize,
    mr: usize,
    nr: usize,
    ap: &[T],
    bp: &[T],
    c: &mut MatMut<'_, T>,
    diag: Option<(usize, usize)>,
) -> bool {
    if mr * nr > MAX_TILE {
        return false;
    }
    let mut scratch = [T::ZERO; MAX_TILE];
    let mut sv = MatMut::from_slice(&mut scratch[..mr * nr], mr, nr);
    if !crate::simd::full_tile(mr, nr, kc, ap, bp, &mut sv) {
        return false;
    }
    let (mr_eff, nr_eff) = c.shape();
    for (ii, srow) in scratch.chunks_exact(nr).take(mr_eff).enumerate() {
        let crow = c.row_mut(ii);
        for (cv, s) in crow.iter_mut().zip(srow).take(row_cap(ii, nr_eff, diag)) {
            *cv += *s;
        }
    }
    true
}

/// Columns of row `ii` a partial tile may touch: all `nr_eff`, or for a
/// tile at `(ir, jr)` of a diagonal block the lower-triangle prefix
/// (`ir + ii >= jr + jj`).
#[inline]
fn row_cap(ii: usize, nr_eff: usize, diag: Option<(usize, usize)>) -> usize {
    match diag {
        None => nr_eff,
        Some((ir, jr)) => (ir + ii + 1).saturating_sub(jr).min(nr_eff),
    }
}

/// Bounds-aware tile for ragged edges and diagonal straddles.
///
/// Computes `c[ii, jj] (+)= sum_p ap[p, ii] * bp[p, jj]` over `c`'s
/// `mr_eff x nr_eff` extent, for `jj < row_cap(ii)` where the column cap
/// enforces the lower-triangle constraint when `diag = Some((ir, jr))`
/// (tile placed at rows `ir..`, cols `jr..` of a diagonal block: only
/// `ir + ii >= jr + jj` entries are touched). Performs exactly one
/// multiply and one add per computed `(ii, jj, p)` triple — no padding
/// arithmetic.
fn edge_tile<T: Scalar>(
    kc: usize,
    mr: usize,
    nr: usize,
    ap: &[T],
    bp: &[T],
    c: &mut MatMut<'_, T>,
    diag: Option<(usize, usize)>,
) {
    let (mr_eff, nr_eff) = c.shape();
    for ii in 0..mr_eff {
        let crow = c.row_mut(ii);
        for (jj, cv) in crow.iter_mut().enumerate().take(row_cap(ii, nr_eff, diag)) {
            let mut acc = *cv;
            for p in 0..kc {
                acc = ap[p * mr + ii].mul_add(bp[p * nr + jj], acc);
            }
            *cv = acc;
        }
    }
}

// ---------------------------------------------------------------------
// Loop nests.
// ---------------------------------------------------------------------

/// Sweep the packed `(apack, bpack)` block over the `C` block at
/// `(row0, col0)` of extent `mc_eff x nc_eff`.
#[allow(clippy::too_many_arguments)]
fn sweep_tiles<T: Scalar>(
    path: MicroPath,
    cfg: &KernelConfig,
    kc_eff: usize,
    mc_eff: usize,
    nc_eff: usize,
    apack: &[T],
    bpack: &[T],
    c: &mut MatMut<'_, T>,
    row0: usize,
    col0: usize,
) {
    let (mr, nr) = (cfg.mr, cfg.nr);
    let mut jr = 0;
    while jr < nc_eff {
        let nr_eff = nr.min(nc_eff - jr);
        let bp = &bpack[(jr / nr) * kc_eff * nr..][..kc_eff * nr];
        let mut ir = 0;
        while ir < mc_eff {
            let mr_eff = mr.min(mc_eff - ir);
            let ap = &apack[(ir / mr) * kc_eff * mr..][..kc_eff * mr];
            let mut ctile =
                c.block_mut(row0 + ir, row0 + ir + mr_eff, col0 + jr, col0 + jr + nr_eff);
            if mr_eff == mr && nr_eff == nr {
                full_tile(path, mr, nr, kc_eff, ap, bp, &mut ctile);
            } else {
                partial_tile(path, kc_eff, mr, nr, ap, bp, &mut ctile, None);
            }
            ir += mr;
        }
        jr += nr;
    }
}

/// `C += alpha * A^T B` through the packed engine on an explicit tile
/// path, with caller-provided packing buffers.
///
/// Shapes: `A: m x n`, `B: m x k`, `C: n x k`.
///
/// # Panics
/// On inconsistent shapes.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn_micro_path_with<T: Scalar>(
    path: MicroPath,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
    bufs: &mut PackBufs<T>,
) {
    let (m, n) = a.shape();
    let (mb, k) = b.shape();
    assert_eq!(m, mb, "gemm_tn: A is {m}x{n} but B has {mb} rows");
    assert_eq!(
        c.shape(),
        (n, k),
        "gemm_tn: C must be {n}x{k}, got {:?}",
        c.shape()
    );
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let scale = PackScale::from_alpha(alpha);
    let a_elems = packed_elems(cfg.kc.min(m), cfg.mc.min(n), cfg.mr);
    let b_elems = packed_elems(cfg.kc.min(m), cfg.nc.min(k), cfg.nr);
    let (apack, bpack) = bufs.split(a_elems, b_elems);

    let mut jc = 0;
    while jc < k {
        let jn = (jc + cfg.nc).min(k);
        let mut pc = 0;
        while pc < m {
            let pe = (pc + cfg.kc).min(m);
            let kc_eff = pe - pc;
            pack_panels_par(b.block(pc, pe, jc, jn), cfg.nr, scale, bpack);
            let mut ic = 0;
            while ic < n {
                let im = (ic + cfg.mc).min(n);
                pack_panels(a.block(pc, pe, ic, im), cfg.mr, PackScale::One, apack);
                sweep_tiles(path, cfg, kc_eff, im - ic, jn - jc, apack, bpack, c, ic, jc);
                ic = im;
            }
            pc = pe;
        }
        jc = jn;
    }
}

/// `C += alpha * A^T B` through the packed engine, with caller-provided
/// packing buffers, on the tile path resolved by [`micro_path_for`].
///
/// Shapes: `A: m x n`, `B: m x k`, `C: n x k`.
///
/// # Panics
/// On inconsistent shapes.
pub fn gemm_tn_micro_with<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
    bufs: &mut PackBufs<T>,
) {
    gemm_tn_micro_path_with(micro_path_for::<T>(), alpha, a, b, c, cfg, bufs);
}

/// [`gemm_tn_micro_path_with`] using this thread's cached packing
/// buffers.
pub fn gemm_tn_micro_path<T: Scalar>(
    path: MicroPath,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
) {
    with_thread_bufs(|bufs| gemm_tn_micro_path_with(path, alpha, a, b, c, cfg, bufs));
}

/// [`gemm_tn_micro_with`] using this thread's cached packing buffers.
pub fn gemm_tn_micro<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
) {
    with_thread_bufs(|bufs| gemm_tn_micro_with(alpha, a, b, c, cfg, bufs));
}

/// Sweep the packed `(apack, bpack)` block over the lower-triangle tiles
/// of the `C` block spanning rows `ic..im` and columns `jc..jn`.
///
/// Tiles wholly above the diagonal are skipped, tiles wholly below it
/// take the full kernel, and tiles the diagonal crosses (or ragged edge
/// tiles) run as partial tiles capped to `i >= j`.
#[allow(clippy::too_many_arguments)]
fn sweep_lower_tiles<T: Scalar>(
    path: MicroPath,
    cfg: &KernelConfig,
    kc_eff: usize,
    apack: &[T],
    bpack: &[T],
    c: &mut MatMut<'_, T>,
    (ic, im): (usize, usize),
    (jc, jn): (usize, usize),
) {
    let (mr, nr) = (cfg.mr, cfg.nr);
    let mut j0 = jc;
    // Columns at or past `im` hold no lower entry in these rows.
    while j0 < jn.min(im) {
        let nr_eff = nr.min(jn - j0);
        let bp = &bpack[((j0 - jc) / nr) * kc_eff * nr..][..kc_eff * nr];
        // First micro-row holding an entry `i >= j0`.
        let mut i0 = ic + (j0.saturating_sub(ic) / mr) * mr;
        while i0 < im {
            let mr_eff = mr.min(im - i0);
            let ap = &apack[((i0 - ic) / mr) * kc_eff * mr..][..kc_eff * mr];
            let mut ctile = c.block_mut(i0, i0 + mr_eff, j0, j0 + nr_eff);
            if mr_eff == mr && nr_eff == nr && i0 >= j0 + nr - 1 {
                full_tile(path, mr, nr, kc_eff, ap, bp, &mut ctile);
            } else {
                partial_tile(path, kc_eff, mr, nr, ap, bp, &mut ctile, Some((i0, j0)));
            }
            i0 += mr;
        }
        j0 += nr;
    }
}

/// Lower-triangular `C += alpha * A^T A` through the packed engine on an
/// explicit tile path, with caller-provided packing buffers.
///
/// A triangular macro-kernel in BLIS `herk` order: for each `KC` slab of
/// rows, each `NC`-wide block of `B`-panels (the slab's columns, `alpha`
/// folded in) is packed once, and every block row at or below it packs
/// its `MC`-high `A`-panels and sweeps only the tiles that reach the
/// lower triangle. Each `B` element is packed once per call and both
/// packs fit the buffers [`KernelConfig::pack_buffer_elems`] sizes. Only
/// `i >= j` entries are written and, off the intrinsic path, the flop
/// count is the exact triangle count.
///
/// Shapes: `A: m x n`, `C: n x n`.
///
/// # Panics
/// On inconsistent shapes.
pub fn syrk_ln_micro_path_with<T: Scalar>(
    path: MicroPath,
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
    bufs: &mut PackBufs<T>,
) {
    let (m, n) = a.shape();
    assert_eq!(
        c.shape(),
        (n, n),
        "syrk_ln: C must be {n}x{n}, got {:?}",
        c.shape()
    );
    if m == 0 || n == 0 {
        return;
    }
    let scale = PackScale::from_alpha(alpha);
    let a_elems = packed_elems(cfg.kc.min(m), cfg.mc.min(n), cfg.mr);
    let b_elems = packed_elems(cfg.kc.min(m), cfg.nc.min(n), cfg.nr);
    let (apack, bpack) = bufs.split(a_elems, b_elems);

    let mut pc = 0;
    while pc < m {
        let pe = (pc + cfg.kc).min(m);
        let kc_eff = pe - pc;
        let mut jc = 0;
        while jc < n {
            let jn = (jc + cfg.nc).min(n);
            pack_panels_par(a.block(pc, pe, jc, jn), cfg.nr, scale, bpack);
            let mut ic = jc;
            while ic < n {
                let im = (ic + cfg.mc).min(n);
                pack_panels(a.block(pc, pe, ic, im), cfg.mr, PackScale::One, apack);
                sweep_lower_tiles(path, cfg, kc_eff, apack, bpack, c, (ic, im), (jc, jn));
                ic = im;
            }
            jc = jn;
        }
        pc = pe;
    }
}

/// Lower-triangular `C += alpha * A^T A` with caller-provided packing
/// buffers, on the tile path resolved by [`micro_path_for`].
///
/// # Panics
/// On inconsistent shapes.
pub fn syrk_ln_micro_with<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
    bufs: &mut PackBufs<T>,
) {
    syrk_ln_micro_path_with(micro_path_for::<T>(), alpha, a, c, cfg, bufs);
}

/// [`syrk_ln_micro_path_with`] using this thread's cached packing
/// buffers.
pub fn syrk_ln_micro_path<T: Scalar>(
    path: MicroPath,
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
) {
    with_thread_bufs(|bufs| syrk_ln_micro_path_with(path, alpha, a, c, cfg, bufs));
}

/// [`syrk_ln_micro_with`] using this thread's cached packing buffers.
pub fn syrk_ln_micro<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cfg: &KernelConfig,
) {
    with_thread_bufs(|bufs| syrk_ln_micro_with(alpha, a, c, cfg, bufs));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ata_mat::tracked::{measure, Tracked};
    use ata_mat::{gen, reference, Matrix};

    fn cfg_small() -> KernelConfig {
        // Deliberately tiny blocking so unit-test shapes span many
        // blocks and tiles.
        KernelConfig::new(4, 4, 8, 12, 16)
    }

    fn check_gemm(m: usize, n: usize, k: usize, alpha: f64, cfg: &KernelConfig) {
        let a = gen::standard::<f64>(10_000 + m as u64, m, n);
        let b = gen::standard::<f64>(20_000 + k as u64, m, k);
        let mut c_fast = gen::standard::<f64>(5, n, k);
        let mut c_ref = c_fast.clone();
        gemm_tn_micro(alpha, a.as_ref(), b.as_ref(), &mut c_fast.as_mut(), cfg);
        reference::gemm_tn(alpha, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        let tol = ata_mat::ops::product_tol::<f64>(m.max(n), k, m as f64);
        let diff = c_fast.max_abs_diff(&c_ref);
        assert!(
            diff <= tol,
            "({m},{n},{k}) micro gemm differs from oracle by {diff} > {tol}"
        );
    }

    #[test]
    fn matches_oracle_on_assorted_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (2, 3, 4),
            (7, 5, 3),
            (16, 16, 16),
            (33, 31, 29),
            (64, 1, 64),
            (1, 64, 64),
            (100, 37, 65),
        ] {
            check_gemm(m, n, k, 1.0, &cfg_small());
        }
    }

    #[test]
    fn default_config_matches_oracle() {
        let cfg = KernelConfig::for_scalar::<f64>();
        check_gemm(80, 60, 70, 1.0, &cfg);
        check_gemm(300, 40, 50, 1.0, &cfg);
    }

    #[test]
    fn alpha_paths() {
        for alpha in [1.0, -1.0, 2.5, -0.125] {
            check_gemm(21, 17, 19, alpha, &cfg_small());
        }
    }

    #[test]
    fn every_menu_tile_is_correct() {
        for &(mr, nr) in KernelConfig::MENU {
            let cfg = KernelConfig::new(mr, nr, 16, 2 * mr + 1, 2 * nr + 3);
            check_gemm(40, 2 * mr + 5, 2 * nr + 7, 1.0, &cfg);
        }
    }

    #[test]
    fn off_menu_tile_still_correct() {
        // (5, 3) has no unrolled instantiation: the sweep must fall back
        // to the bounds-aware kernel everywhere.
        let cfg = KernelConfig::new(5, 3, 8, 11, 10);
        check_gemm(25, 23, 22, 1.0, &cfg);
    }

    #[test]
    fn syrk_matches_oracle_and_preserves_upper() {
        for &(m, n) in &[(1, 1), (5, 7), (16, 16), (40, 33), (33, 80), (128, 35)] {
            let cfg = cfg_small();
            let a = gen::standard::<f64>(77 + m as u64, m, n);
            let mut c_fast = gen::standard::<f64>(6, n, n);
            let mut c_ref = c_fast.clone();
            syrk_ln_micro(1.0, a.as_ref(), &mut c_fast.as_mut(), &cfg);
            reference::syrk_ln(1.0, a.as_ref(), &mut c_ref.as_mut());
            let tol = ata_mat::ops::product_tol::<f64>(m.max(n), n, m as f64);
            let diff = c_fast.max_abs_diff_lower(&c_ref);
            assert!(diff <= tol, "({m},{n}) micro syrk differs by {diff}");
            assert_eq!(
                c_fast.max_abs_diff(&c_ref),
                diff,
                "({m},{n}) strict upper must be untouched"
            );
        }
    }

    #[test]
    fn syrk_alpha_and_menu_tiles() {
        for &(mr, nr) in &[(4, 4), (8, 4), (4, 8), (6, 8)] {
            let cfg = KernelConfig::new(mr, nr, 8, 3 * mr, 3 * nr);
            let a = gen::standard::<f64>(9, 30, 26);
            let mut c_fast = Matrix::zeros(26, 26);
            let mut c_ref = Matrix::zeros(26, 26);
            syrk_ln_micro(-1.5, a.as_ref(), &mut c_fast.as_mut(), &cfg);
            reference::syrk_ln(-1.5, a.as_ref(), &mut c_ref.as_mut());
            assert!(
                c_fast.max_abs_diff_lower(&c_ref) < 1e-10,
                "tile ({mr},{nr})"
            );
        }
    }

    #[test]
    fn gemm_op_counts_match_reference_volume_at_unit_alpha() {
        // Exactly m*n*k muls and adds, like the rank-1 path: the measured
        // flop validations of the paper's claims hold on the fast path.
        for &(m, n, k) in &[(8, 8, 8), (13, 7, 9), (20, 5, 30)] {
            let a = gen::standard::<Tracked>(1, m, n);
            let b = gen::standard::<Tracked>(2, m, k);
            let mut c = Matrix::<Tracked>::zeros(n, k);
            let (_, ops) = measure(|| {
                gemm_tn_micro(
                    Tracked(1.0),
                    a.as_ref(),
                    b.as_ref(),
                    &mut c.as_mut(),
                    &cfg_small(),
                );
            });
            let volume = (m * n * k) as u64;
            assert_eq!(ops.muls, volume, "({m},{n},{k}) muls");
            assert_eq!(ops.adds, volume, "({m},{n},{k}) adds");
            assert_eq!(ops.subs, 0);
        }
    }

    #[test]
    fn syrk_op_counts_are_the_exact_triangle_volume() {
        let (m, n) = (14, 11);
        let a = gen::standard::<Tracked>(3, m, n);
        let mut c = Matrix::<Tracked>::zeros(n, n);
        let (_, ops) = measure(|| {
            syrk_ln_micro(Tracked(1.0), a.as_ref(), &mut c.as_mut(), &cfg_small());
        });
        let triangle = (m * n * (n + 1) / 2) as u64;
        assert_eq!(ops.muls, triangle);
        assert_eq!(ops.adds, triangle);
    }

    #[test]
    fn syrk_packs_each_b_element_once() {
        // A general alpha costs one multiply per packed B element, so the
        // count is the exact triangle plus `m * n`: any repacked B
        // element would add a multiply. The shapes span several KC
        // slabs, NC blocks and MC block rows of each config.
        let cfgs = [
            cfg_small(),
            KernelConfig::new(4, 8, 5, 8, 24),
            KernelConfig::new(6, 4, 16, 30, 12),
        ];
        for cfg in &cfgs {
            for &(m, n) in &[(1, 1), (3, 2), (14, 11), (9, 40), (33, 80), (20, 37)] {
                let a = gen::standard::<Tracked>(13 + m as u64, m, n);
                let mut c = Matrix::<Tracked>::zeros(n, n);
                let (_, ops) = measure(|| {
                    syrk_ln_micro(Tracked(3.0), a.as_ref(), &mut c.as_mut(), cfg);
                });
                let triangle = (m * n * (n + 1) / 2) as u64;
                let packed_b = (m * n) as u64;
                assert_eq!(ops.muls, triangle + packed_b, "({m},{n}) {cfg:?} muls");
                assert_eq!(ops.adds, triangle, "({m},{n}) {cfg:?} adds");
            }
        }
    }

    #[test]
    fn syrk_matches_oracle_across_tile_and_block_edges() {
        // Shapes straddle the default blocking's tile, MC, NC and KC
        // edges; both tile paths must match the oracle in the lower
        // triangle and leave the strict upper triangle untouched.
        let cfg = KernelConfig::for_scalar::<f64>();
        for n in [1usize, 15, 17, 255, 257, 513, 1031] {
            for m in [1usize, 7, 256, 257, 700] {
                let a = gen::standard::<f64>((m * 7919 + n) as u64, m, n);
                let c0 = gen::standard::<f64>(n as u64, n, n);
                let mut c_ref = c0.clone();
                reference::syrk_ln(-1.5, a.as_ref(), &mut c_ref.as_mut());
                let tol = ata_mat::ops::product_tol::<f64>(m.max(n), n, m as f64);
                for path in [MicroPath::Intrinsic, MicroPath::Portable] {
                    let mut c = c0.clone();
                    let mut bufs = PackBufs::new();
                    syrk_ln_micro_path_with(
                        path,
                        -1.5,
                        a.as_ref(),
                        &mut c.as_mut(),
                        &cfg,
                        &mut bufs,
                    );
                    let diff = c.max_abs_diff_lower(&c_ref);
                    assert!(diff <= tol, "({m},{n}) {path:?} differs by {diff}");
                    assert_eq!(
                        c.max_abs_diff(&c_ref),
                        diff,
                        "({m},{n}) {path:?} touched the strict upper triangle"
                    );
                }
            }
        }
    }

    #[test]
    fn negative_unit_alpha_is_multiplication_free() {
        let (m, n, k) = (9, 6, 8);
        let a = gen::standard::<Tracked>(4, m, n);
        let b = gen::standard::<Tracked>(5, m, k);
        let mut c = Matrix::<Tracked>::zeros(n, k);
        let (_, ops) = measure(|| {
            gemm_tn_micro(
                Tracked(-1.0),
                a.as_ref(),
                b.as_ref(),
                &mut c.as_mut(),
                &cfg_small(),
            );
        });
        // The sign folds into the B-pack as negations, not multiplies.
        assert_eq!(ops.muls, (m * n * k) as u64);
        assert_eq!(ops.negs, (m * k) as u64);
    }

    #[test]
    fn works_on_strided_views() {
        let big = gen::standard::<f64>(9, 16, 16);
        let (a11, _, _, a22) = big.as_ref().quad_split();
        let mut c = Matrix::zeros(8, 8);
        gemm_tn_micro(1.0, a11, a22, &mut c.as_mut(), &cfg_small());
        let mut c_ref = Matrix::zeros(8, 8);
        reference::gemm_tn(1.0, a11, a22, &mut c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-12);
    }

    #[test]
    fn f32_path() {
        let cfg = KernelConfig::for_scalar::<f32>();
        let a = gen::standard::<f32>(11, 40, 30);
        let b = gen::standard::<f32>(12, 40, 35);
        let mut c = Matrix::<f32>::zeros(30, 35);
        gemm_tn_micro(2.0f32, a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg);
        let mut c_ref = Matrix::<f32>::zeros(30, 35);
        reference::gemm_tn(2.0f32, a.as_ref(), b.as_ref(), &mut c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-3);
    }

    #[test]
    fn selection_guard_micro_is_default_for_f64() {
        // CI guard: the engine must actually be selected for real
        // problems at the default config — a silent fallback to the
        // rank-1 loops would regress every backend at once. Sizes are
        // above every per-scalar, per-path calibrated cutoff so the
        // guard holds across the ATA_MICRO CI matrix.
        assert_eq!(selected_path::<f64>(256, 128, 128), KernelPath::Micro);
        assert_eq!(selected_path::<f64>(181, 181, 181), KernelPath::Micro);
        assert_eq!(selected_path::<f32>(512, 256, 256), KernelPath::Micro);
        // Tiny products stay on the cheap path by design.
        assert_eq!(selected_path::<f64>(4, 4, 4), KernelPath::Blocked);
    }

    #[test]
    fn dispatch_guard_resolves_the_detected_isa_path() {
        // The resolved tile path must follow ATA_MICRO when forced and
        // the detected ISA otherwise (this test runs under the CI
        // ATA_MICRO matrix, so it checks whichever branch is live).
        let expect_auto = |has: bool| {
            if has {
                MicroPath::Intrinsic
            } else {
                MicroPath::Portable
            }
        };
        match std::env::var("ATA_MICRO").as_deref() {
            Ok("portable") => {
                assert_eq!(micro_path_for::<f64>(), MicroPath::Portable);
                assert_eq!(micro_path_for::<f32>(), MicroPath::Portable);
            }
            Ok("scalar") => {
                assert_eq!(micro_path_for::<f64>(), MicroPath::Scalar);
                assert_eq!(micro_path_for::<f32>(), MicroPath::Scalar);
            }
            _ => {
                // Auto or forced-intrinsic: the detected-ISA kernels must
                // actually be selected where available.
                assert_eq!(
                    micro_path_for::<f64>(),
                    expect_auto(crate::simd::has_kernels::<f64>())
                );
                assert_eq!(
                    micro_path_for::<f32>(),
                    expect_auto(crate::simd::has_kernels::<f32>())
                );
            }
        }
        // Op counting never reaches intrinsics, whatever the host ISA.
        assert_ne!(micro_path_for::<Tracked>(), MicroPath::Intrinsic);
    }

    #[test]
    fn pack_buffer_elems_covers_worst_block() {
        let cfg = KernelConfig::new(8, 4, 16, 20, 24);
        let (ae, be) = cfg.pack_buffer_elems();
        assert_eq!(ae, packed_elems(16, 20, 8));
        assert_eq!(be, packed_elems(16, 24, 4));
    }

    #[test]
    #[should_panic(expected = "gemm_tn")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<f64>::zeros(3, 2);
        let b = Matrix::<f64>::zeros(4, 2);
        let mut c = Matrix::<f64>::zeros(2, 2);
        gemm_tn_micro(1.0, a.as_ref(), b.as_ref(), &mut c.as_mut(), &cfg_small());
    }
}
