//! `gram`: one-shot Gram products through reused `AtaContext` plans on
//! the square and the tall shape, serial and shared, with `syrk_ln` on
//! the same operands as the Fig. 3 comparator (traced run only).

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use ata::core::ata_mults;
use ata::core::serial::{ata_into_with, ata_workspace_elems, StrassenKind};
use ata::core::tasktree::{ComputeKind, SharedPlan};
use ata::kernels::{gemm_tn, level1::axpy, syrk_ln, CacheConfig};
use ata::mat::{gen, half_up, Matrix};
use ata::strassen::{fast_strassen_with, required_elems, strassen_mults, StrassenWorkspace};
use ata::{AtaContext, Output, OwnedPlan};

use crate::trace::{time, Tracer};
use crate::util::{busiest_cpu_timed, gram_residual, median, secs, Metrics, Rng, Tally, GRAM_TOL};

/// The two operand shapes: `(name, rows, cols)`.
const SHAPES: [(&str, usize, usize); 2] = [("square", 2048, 2048), ("tall", 8192, 1024)];

/// Seeded operands and probe vectors, one per shape.
pub struct Inputs {
    a: Vec<Matrix<f64>>,
    x: Vec<Vec<f64>>,
}

impl Inputs {
    /// Generate the operands for `seed` (before any timing starts).
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0x6772_616d);
        let a = SHAPES
            .iter()
            .enumerate()
            .map(|(i, &(_, m, n))| gen::standard::<f64>(seed.wrapping_add(i as u64), m, n))
            .collect();
        let x = SHAPES.iter().map(|&(_, _, n)| rng.vector(n)).collect();
        Inputs { a, x }
    }
}

/// Contexts and reused plans: `plans[shape][0]` serial,
/// `plans[shape][1]` shared.
pub struct System {
    plans: Vec<[OwnedPlan<f64>; 2]>,
}

/// Build both contexts and all four plans (the plans warm the arenas
/// and packing buffers they need).
pub fn setup(threads: usize) -> System {
    let serial = AtaContext::serial();
    let shared = AtaContext::shared(NonZeroUsize::new(threads).expect("threads >= 1"));
    let plans = SHAPES
        .iter()
        .map(|&(_, m, n)| {
            [
                serial.plan_owned::<f64>(m, n, Output::Lower),
                shared.plan_owned::<f64>(m, n, Output::Lower),
            ]
        })
        .collect();
    System { plans }
}

const BACKENDS: [&str; 2] = ["serial", "shared"];

/// Times of each `(shape, backend)` gram, keyed by metric name.
pub type Samples = BTreeMap<String, Vec<f64>>;

/// Products run so far, with their times and check outcomes.
pub struct Runner {
    outs: Vec<Matrix<f64>>,
    /// Times per metric name.
    pub samples: Samples,
    /// Wall times per metric name.
    pub wall: Samples,
    /// Check outcomes.
    pub tally: Tally,
    next: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner {
            outs: SHAPES
                .iter()
                .map(|&(_, _, n)| Matrix::zeros(n, n))
                .collect(),
            samples: Samples::new(),
            wall: Samples::new(),
            tally: Tally::default(),
            next: 0,
        }
    }
}

/// Products in one round: every shape on every backend.
pub const VARIANTS: usize = SHAPES.len() * BACKENDS.len();

impl Runner {
    /// Run the next `count` products in the fixed rotation
    /// square.serial, square.shared, tall.serial, tall.shared, checking
    /// each output against its probe. With a tracer, each is a span.
    /// A product's time is the CPU time of the thread that ran longest
    /// meanwhile: the calling thread's for a serial product, the busiest
    /// pool worker's for a shared one. Both leave out what the hypervisor
    /// steals; wall times are kept for the diagnostics.
    pub fn products(&mut self, sys: &System, inp: &Inputs, count: usize, tr: Option<&Tracer>) {
        for _ in 0..count {
            let (s, b) = (
                self.next / BACKENDS.len() % SHAPES.len(),
                self.next % BACKENDS.len(),
            );
            self.next += 1;
            let plan = &sys.plans[s][b];
            let c = &mut self.outs[s];
            let ((_, wall), cpu) = busiest_cpu_timed(|| {
                time(tr, "context.gram", || {
                    plan.execute_into(inp.a[s].as_ref(), &mut c.as_mut())
                })
            });
            let name = format!("gram_s.{}.{}", SHAPES[s].0, BACKENDS[b]);
            self.wall.entry(name.clone()).or_default().push(secs(wall));
            self.samples.entry(name).or_default().push(secs(cpu));
            let residual = gram_residual(inp.a[s].as_ref(), self.outs[s].as_ref(), &inp.x[s]);
            self.tally.record(residual <= GRAM_TOL);
        }
    }
}

/// The end-to-end metrics of a set of samples (medians).
pub fn metrics(samples: &Samples) -> Metrics {
    let mut m = Metrics::default();
    for (k, v) in samples {
        m.put(k.clone(), median(v), "s");
    }
    m
}

/// Syrk leaves `(m, n)` and gemm leaves `(m, n, k)` of the serial AtA
/// recursion on an `m x n` operand, with multiplicities (mirrors
/// `ata_core::serial` and `ata_strassen::fast`).
fn ata_leaves(
    m: usize,
    n: usize,
    cfg: &CacheConfig,
    syrk: &mut BTreeMap<(usize, usize), u64>,
    gemm: &mut BTreeMap<(usize, usize, usize), u64>,
) {
    if m == 0 || n == 0 {
        return;
    }
    if cfg.ata_base(m, n) {
        *syrk.entry((m, n)).or_default() += 1;
        return;
    }
    let (m1, n1) = (half_up(m), half_up(n));
    let (m2, n2) = (m - m1, n - n1);
    for (r, c) in [(m1, n1), (m2, n1), (m1, n2), (m2, n2)] {
        ata_leaves(r, c, cfg, syrk, gemm);
    }
    strassen_leaves(m1, n2, n1, 1, cfg, gemm);
    strassen_leaves(m2, n2, n1, 1, cfg, gemm);
}

fn strassen_base(m: usize, n: usize, k: usize, cfg: &CacheConfig) -> bool {
    cfg.gemm_base(m, n, k) || (m <= 1 && n <= 1 && k <= 1)
}

fn strassen_leaves(
    m: usize,
    n: usize,
    k: usize,
    mult: u64,
    cfg: &CacheConfig,
    gemm: &mut BTreeMap<(usize, usize, usize), u64>,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if strassen_base(m, n, k, cfg) {
        *gemm.entry((m, n, k)).or_default() += mult;
        return;
    }
    strassen_leaves(half_up(m), half_up(n), half_up(k), 7 * mult, cfg, gemm);
}

/// Block-sum calls of the Strassen recursion on `(m, n, k)`: vector
/// length -> count. Per level: five padded `A` sums, five `B` sums, and
/// twelve accumulations plus seven zero-fills of the product slot.
fn blocksum_calls(
    m: usize,
    n: usize,
    k: usize,
    mult: u64,
    cfg: &CacheConfig,
    out: &mut BTreeMap<usize, u64>,
) {
    if m == 0 || n == 0 || k == 0 || strassen_base(m, n, k, cfg) {
        return;
    }
    let (m1, n1, k1) = (half_up(m), half_up(n), half_up(k));
    *out.entry(m1 * n1).or_default() += 5 * mult;
    *out.entry(m1 * k1).or_default() += 5 * mult;
    *out.entry(n1 * k1).or_default() += 19 * mult;
    blocksum_calls(m1, n1, k1, 7 * mult, cfg, out);
}

/// Modeled per-thread flops of the shared schedule for an `m`-row
/// operand: `max / mean` over threads.
fn load_imbalance(plan: &SharedPlan, m: usize) -> f64 {
    let mut per = vec![0.0f64; plan.procs];
    for t in &plan.tasks {
        let wa = (t.a_cols.1 - t.a_cols.0) as f64;
        let wb = (t.b_cols.1 - t.b_cols.0) as f64;
        per[t.proc_id] += match t.kind {
            ComputeKind::AtA => m as f64 * wa * (wa + 1.0),
            ComputeKind::AtB => 2.0 * m as f64 * wa * wb,
        };
    }
    let mean = per.iter().sum::<f64>() / per.len() as f64;
    per.iter().cloned().fold(0.0, f64::max) / mean
}

/// The exact counters of this layer stack (pure functions of the
/// shapes, the cache model and the thread count).
pub fn exact_counters(threads: usize) -> Metrics {
    let cfg = CacheConfig::default();
    let mut m = Metrics::default();
    for &(shape, rows, n) in &SHAPES {
        m.put(
            format!("core.mults.{shape}"),
            ata_mults(rows, n, &cfg) as f64,
            "count",
        );
    }
    let (rows, n) = (SHAPES[0].1, SHAPES[0].2);
    let (m1, n1) = (half_up(rows), half_up(n));
    let (m2, n2) = (rows - m1, n - n1);
    let mults = strassen_mults(m1, n2, n1, &cfg) + strassen_mults(m2, n2, n1, &cfg);
    m.put("strassen.mults.square", mults as f64, "count");
    let ws = required_elems(m1, n2, n1, &cfg).max(required_elems(m2, n2, n1, &cfg));
    m.put("strassen.workspace_elems.square", ws as f64, "count");
    let plan = SharedPlan::build(n, threads);
    m.put("core.tasks", plan.tasks.len() as f64, "count");
    m.put("core.load_imbalance", load_imbalance(&plan, rows), "ratio");
    m
}

/// The traced run: one untraced and one traced round (tracing
/// overhead), then each layer's public functions timed on the same
/// operands. Returns per-layer metrics and the closure findings.
pub fn layers(
    tr: &Tracer,
    sys: &System,
    inp: &Inputs,
    threads: usize,
) -> (Metrics, Tally, Vec<String>) {
    let (mut plain, mut traced) = (Runner::default(), Runner::default());
    plain.products(sys, inp, VARIANTS, None);
    traced.products(sys, inp, VARIANTS, Some(tr));
    let mut tally = plain.tally;
    tally.add(traced.tally);
    // The layer probes are wall times, so the products they are set
    // against are too.
    let (plain, traced, mut outs) = (plain.wall, traced.wall, traced.outs);
    let e2e = metrics(&plain);
    let total = |s: &Samples| s.values().flatten().sum::<f64>();
    let mut m = exact_counters(threads);
    m.put(
        "trace.overhead_share.gram",
        total(&traced) / total(&plain) - 1.0,
        "fraction",
    );

    let mut findings = Vec::new();
    let (mut syrk_flops, mut syrk_time, mut gemm_flops, mut gemm_time) = (0.0, 0.0, 0.0, 0.0);
    let (mut attributed, mut e2e_serial) = (0.0, 0.0);
    for (s, &(shape, rows, n)) in SHAPES.iter().enumerate() {
        let a = inp.a[s].as_ref();
        let cfg = sys.plans[s][0].cache();
        let serial = e2e.get(&format!("gram_s.{shape}.serial"));
        let shared = e2e.get(&format!("gram_s.{shape}.shared"));
        let c = &mut outs[s];

        // ata-kernels: the Fig. 3 comparator and the plan's leaf shapes.
        let syrk_s = tr.probe("kernels.syrk_full", 1, || syrk_ln(1.0, a, &mut c.as_mut()));
        m.put(format!("kernels.syrk_s.{shape}"), syrk_s, "s");
        let (mut sl, mut gl) = (BTreeMap::new(), BTreeMap::new());
        ata_leaves(rows, n, &cfg, &mut sl, &mut gl);
        let mut leaf_time = 0.0;
        for (&(lm, ln), &count) in &sl {
            let t = tr.probe("kernels.syrk_leaf", 5, || {
                syrk_ln(
                    1.0,
                    a.block(0, lm, 0, ln),
                    &mut c.as_mut().block_mut(0, ln, 0, ln),
                )
            });
            leaf_time += count as f64 * t;
            syrk_flops += count as f64 * (lm * ln * (ln + 1)) as f64;
            syrk_time += count as f64 * t;
        }
        for (&(lm, ln, lk), &count) in &gl {
            let t = tr.probe("kernels.gemm_leaf", 5, || {
                gemm_tn(
                    1.0,
                    a.block(0, lm, 0, ln),
                    a.block(0, lm, ln, ln + lk),
                    &mut c.as_mut().block_mut(0, ln, 0, lk),
                )
            });
            leaf_time += count as f64 * t;
            gemm_flops += count as f64 * (2 * lm * ln * lk) as f64;
            gemm_time += count as f64 * t;
        }
        m.put(
            format!("kernels.leaf_share.{shape}"),
            leaf_time / serial,
            "fraction",
        );

        // ata-core: the whole serial recursion, then Algorithm 1's top
        // level driven from outside: four diagonal recursions and two
        // off-diagonal Strassen products.
        let elems = ata_workspace_elems(rows, n, &cfg, StrassenKind::Classic);
        let mut ws = StrassenWorkspace::<f64>::with_capacity(elems);
        let ata_s = tr.probe("core.ata", 1, || {
            ata_into_with(1.0, a, &mut c.as_mut(), &cfg, &mut ws)
        });
        let (m1, n1) = (half_up(rows), half_up(n));
        let (a11, a12, a21, a22) = a.quad_split();
        let (mut diag, mut offdiag) = (0.0, 0.0);
        tr.span("core.alg1_top", None, |top| {
            for (blk, lo, hi) in [(a11, 0, n1), (a21, 0, n1), (a12, n1, n), (a22, n1, n)] {
                diag += secs(
                    tr.span("core.diag", Some(top), |_| {
                        ata_into_with(
                            1.0,
                            blk,
                            &mut c.as_mut().block_mut(lo, hi, lo, hi),
                            &cfg,
                            &mut ws,
                        )
                    })
                    .1,
                );
            }
            for (l, r) in [(a12, a11), (a22, a21)] {
                offdiag += secs(
                    tr.span("strassen.offdiag", Some(top), |_| {
                        fast_strassen_with(
                            1.0,
                            l,
                            r,
                            &mut c.as_mut().block_mut(n1, n, 0, n1),
                            &cfg,
                            &mut ws,
                        )
                    })
                    .1,
                );
            }
        });
        // ata-strassen block sums, through the public axpy proxy over the
        // exact call list of the two off-diagonal products.
        let mut calls = BTreeMap::new();
        blocksum_calls(m1, n - n1, n1, 1, &cfg, &mut calls);
        blocksum_calls(rows - m1, n - n1, n1, 1, &cfg, &mut calls);
        let longest = calls.keys().max().copied().unwrap_or(0);
        let (x, mut y) = (vec![1e-3f64; longest], vec![0.0f64; longest]);
        let blocksum = tr.probe("strassen.blocksum", 1, || {
            for (&len, &count) in &calls {
                for _ in 0..count {
                    axpy(1.0, &x[..len], &mut y[..len]);
                }
            }
        });
        m.put(format!("core.ata_s.{shape}"), ata_s, "s");
        m.put(format!("core.diag_s.{shape}"), diag, "s");
        m.put(format!("strassen.offdiag_s.{shape}"), offdiag, "s");
        m.put(format!("strassen.blocksum_s.{shape}"), blocksum, "s");
        // The off-diagonal span already contains its block sums, so the
        // sum proxy is a child of it and adds no time of its own.
        let unattributed = 1.0 - (diag + offdiag) / ata_s;
        m.put(
            format!("core.unattributed_share.{shape}"),
            unattributed,
            "fraction",
        );
        m.put(
            format!("core.parallel_efficiency.{shape}"),
            serial / (threads as f64 * shared),
            "fraction",
        );
        m.put(
            format!("core.ata_over_syrk.{shape}"),
            serial / syrk_s,
            "ratio",
        );

        // Facade context: planning cost and what the plan adds on top of
        // the bare recursion.
        let plan_ms = 1e3
            * tr.probe("context.plan_build", 3, || {
                AtaContext::serial().plan_with::<f64>(rows, n, Output::Lower);
            });
        m.put(format!("context.plan_build_ms.{shape}"), plan_ms, "ms");
        m.put(
            format!("context.overhead_share.{shape}"),
            (serial - ata_s) / serial,
            "fraction",
        );
        attributed += diag + offdiag;
        e2e_serial += serial;
        findings.push(format!(
            "gram/{shape}: serial {serial:.4}s = diag {diag:.4}s + offdiag {offdiag:.4}s (of which block sums ~{blocksum:.4}s) + unattributed {:.1}% of core.ata {ata_s:.4}s; leaves cover {:.1}%",
            100.0 * unattributed,
            100.0 * leaf_time / serial
        ));
    }
    m.put(
        "kernels.syrk_leaf_gflops",
        syrk_flops / syrk_time / 1e9,
        "GF/s",
    );
    m.put(
        "kernels.gemm_leaf_gflops",
        gemm_flops / gemm_time / 1e9,
        "GF/s",
    );
    let share = 1.0 - attributed / e2e_serial;
    m.put("closure.unattributed_share.gram", share, "fraction");
    findings.push(format!(
        "gram: {:.1}% of serial end-to-end time is attributed to no layer; tracing overhead {:+.2}%",
        100.0 * share,
        100.0 * m.get("trace.overhead_share.gram")
    ));
    (m, tally, findings)
}
