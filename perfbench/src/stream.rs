//! `stream`: one `FactoredGram` of order 512 on a serial context under
//! a seeded sliding window — rank-8 pushes and retracts beside
//! alternating `solve` / `ridge` queries, with a tall Strassen-path
//! chunk every 64th step.

use std::collections::VecDeque;
use std::time::Duration;

use ata::linalg::update::LdltFactor;
use ata::mat::{gen, MatRef, Matrix};
use ata::{AtaContext, FactoredGram};

use crate::trace::{time, Tracer};
use crate::util::{
    cpu_timed, median, quantile, secs, solve_residual, Metrics, Rng, Tally, SOLVE_TOL,
};

/// Order of the factored Gram.
const N: usize = 512;
/// Rows per sliding-window chunk (a rank-8 sweep: `6k <= n`).
const CHUNK: usize = 8;
/// Chunks the window holds before the oldest is retracted.
const WINDOW: usize = 16;
/// Every this-many-th step ingests a tall chunk instead.
const TALL_EVERY: usize = 64;
/// Rows of a tall chunk (`2n`: Strassen accumulate, stale factor).
const TALL: usize = 2 * N;
/// The fixed ridge shift.
const LAMBDA: f64 = 1.0;

const SMALL_POOL: usize = 256;
const TALL_POOL: usize = 4;
const RHS_POOL: usize = 16;

/// Operands, generated before timing: the base block, the small and
/// tall chunk pools and the right-hand sides.
pub struct Inputs {
    base: Matrix<f64>,
    small: Matrix<f64>,
    tall: Matrix<f64>,
    rhs: Vec<Vec<f64>>,
}

impl Inputs {
    /// Operands for `seed`.
    pub fn new(seed: u64) -> Self {
        let s = seed.wrapping_mul(37);
        let mut rng = Rng::new(seed, 0x7374_7265);
        Inputs {
            base: gen::standard::<f64>(s.wrapping_add(1), 2 * N, N),
            small: gen::standard::<f64>(s.wrapping_add(2), SMALL_POOL * CHUNK, N),
            tall: gen::standard::<f64>(s.wrapping_add(3), TALL_POOL * TALL, N),
            rhs: (0..RHS_POOL).map(|_| rng.vector(N)).collect(),
        }
    }

    fn small(&self, i: usize) -> MatRef<'_, f64> {
        self.small.as_ref().block(i * CHUNK, (i + 1) * CHUNK, 0, N)
    }

    fn tall(&self, i: usize) -> MatRef<'_, f64> {
        self.tall.as_ref().block(i * TALL, (i + 1) * TALL, 0, N)
    }
}

/// The live factored Gram and the window bookkeeping.
pub struct System {
    fg: FactoredGram<f64>,
    window: VecDeque<usize>,
    tall: Option<usize>,
    step: usize,
}

/// Refactors [`setup`] performs: the main factor and the ridge factor.
const SETUP_REFACTORS: u64 = 2;

/// Build the serial context and the factored Gram, push the base block
/// and answer one `solve` and one `ridge` (both factors built).
pub fn setup(inp: &Inputs) -> System {
    let ctx = AtaContext::serial();
    let mut fg = ctx.factored_gram::<f64>(N);
    fg.push(inp.base.as_ref());
    fg.solve(&inp.rhs[0])
        .expect("base block is positive definite");
    fg.ridge(LAMBDA, &inp.rhs[0])
        .expect("base block is positive definite");
    System {
        fg,
        window: VecDeque::new(),
        tall: None,
        step: 0,
    }
}

/// Measurements of a run of steps.
#[derive(Debug, Default)]
pub struct Samples {
    /// Rows pushed plus rows retracted.
    pub rows: usize,
    /// CPU time inside push and retract calls.
    pub update_time: Duration,
    /// Rows pushed plus rows retracted per second of push/retract CPU
    /// time, one entry per period.
    pub period_rates: Vec<f64>,
    /// Query CPU times, seconds.
    pub queries: Vec<f64>,
    /// Wall time inside all of these calls.
    pub wall: Duration,
    /// Checked outcomes.
    pub tally: Tally,
}

impl Samples {
    /// Run `f` as [`time`] does, add its wall time to `wall`, and return
    /// its result with the calling thread's CPU time: the calls run on
    /// this thread, and their CPU time leaves out what the hypervisor
    /// steals.
    fn op<R>(
        &mut self,
        tr: Option<&Tracer>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let ((r, wall), cpu) = cpu_timed(|| time(tr, name, f));
        self.wall += wall;
        (r, cpu)
    }
}

/// One step: the writes, then one checked query.
fn step(sys: &mut System, inp: &Inputs, tr: Option<&Tracer>, out: &mut Samples) {
    let s = sys.step;
    sys.step += 1;
    let fg = &mut sys.fg;
    if s % TALL_EVERY == TALL_EVERY - 1 {
        if let Some(p) = sys.tall.take() {
            let (r, d) = out.op(tr, "stream.retract_tall", || fg.retract(inp.tall(p)));
            out.tally.record(r.is_ok());
            out.update_time += d;
            out.rows += TALL;
        }
        let t = (s / TALL_EVERY) % TALL_POOL;
        let d = out.op(tr, "stream.push_tall", || fg.push(inp.tall(t))).1;
        out.update_time += d;
        out.rows += TALL;
        sys.tall = Some(t);
    } else {
        let id = s % SMALL_POOL;
        let d = out.op(tr, "stream.push", || fg.push(inp.small(id))).1;
        out.update_time += d;
        out.rows += CHUNK;
        sys.window.push_back(id);
        if sys.window.len() > WINDOW {
            let old = sys.window.pop_front().expect("window is non-empty");
            let (r, d) = out.op(tr, "stream.retract", || fg.retract(inp.small(old)));
            out.tally.record(r.is_ok());
            out.update_time += d;
            out.rows += CHUNK;
        }
    }
    let b = &inp.rhs[s % RHS_POOL];
    let (x, lambda, d) = if s.is_multiple_of(2) {
        let (x, d) = out.op(tr, "factor.solve", || fg.solve(b));
        (x, 0.0, d)
    } else {
        let (x, d) = out.op(tr, "factor.ridge", || fg.ridge(LAMBDA, b));
        (x, LAMBDA, d)
    };
    out.queries.push(secs(d));
    let ok =
        x.is_ok_and(|x| solve_residual(fg.accumulator().as_lower(), lambda, &x, b) <= SOLVE_TOL);
    out.tally.record(ok);
}

/// Run `periods` whole periods of [`TALL_EVERY`] steps (one tall step
/// each, so every run has the same mix), adding to `out`.
pub fn periods(
    sys: &mut System,
    inp: &Inputs,
    periods: usize,
    tr: Option<&Tracer>,
    out: &mut Samples,
) {
    for _ in 0..periods {
        let (rows, time) = (out.rows, out.update_time);
        for _ in 0..TALL_EVERY {
            step(sys, inp, tr, out);
        }
        out.period_rates
            .push((out.rows - rows) as f64 / secs(out.update_time - time));
    }
}

/// End-to-end metrics of a run of steps: the median period's push rate
/// and the p99 of every query, both in CPU time.
pub fn metrics(s: &Samples) -> Metrics {
    let q: Vec<f64> = s.queries.iter().map(|v| 1e6 * v).collect();
    let mut m = Metrics::default();
    m.put("push_rows_per_s", median(&s.period_rates), "rows/s");
    m.put("query_p99_us", quantile(&q, 0.99), "us");
    m
}

/// Periods in the traced run's fixed-count passes.
const TRACED_PERIODS: usize = 8;
const TRACED_STEPS: usize = TRACED_PERIODS * TALL_EVERY;

/// The exact counters of a fixed-count pass.
pub fn counters(sys: &System) -> Metrics {
    let mut m = Metrics::default();
    m.put("factor.updates", sys.fg.factor_updates() as f64, "count");
    m.put(
        "factor.downdates",
        sys.fg.factor_downdates() as f64,
        "count",
    );
    m.put(
        "factor.refactors",
        sys.fg.factor_refactors() as f64,
        "count",
    );
    let arena = sys.fg.accumulator().arena_stats();
    m.put("stream.arena_misses", arena.misses as f64, "count");
    m.put("stream.arena_grows", arena.grows as f64, "count");
    m
}

/// The traced run: the same fixed-count pass untraced and traced
/// (tracing overhead), then the accumulator and factor layers driven
/// directly on the same chunks.
pub fn layers(tr: &Tracer, inp: &Inputs) -> (Metrics, Tally, Vec<String>) {
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    periods(&mut setup(inp), inp, TRACED_PERIODS, None, &mut plain);
    let mut sys = setup(inp);
    periods(&mut sys, inp, TRACED_PERIODS, Some(tr), &mut traced);
    let mut tally = plain.tally;
    tally.add(traced.tally);
    // The layer probes are wall times, so the pass they are set against
    // is too.
    let busy = |s: &Samples| secs(s.wall);
    let mut m = counters(&sys);
    m.put(
        "stream.query_p50_us",
        1e6 * quantile(&plain.queries, 0.5),
        "us",
    );
    m.put(
        "trace.overhead_share.stream",
        busy(&traced) / busy(&plain) - 1.0,
        "fraction",
    );

    // Facade stream: the accumulator alone on the same chunks.
    let ctx = AtaContext::serial();
    let mut acc = ctx.gram_accumulator::<f64>(N);
    acc.push(inp.base.as_ref());
    let mut i = 0;
    let push = tr.probe("stream.acc_push", 63, || {
        acc.push(inp.small(i % SMALL_POOL));
        i += 1;
    });
    let tall = tr.probe("stream.acc_push_tall", 3, || acc.push(inp.tall(0)));
    m.put("stream.push_us", 1e6 * push, "us");
    m.put("stream.tall_push_ms", 1e3 * tall, "ms");

    // ata-linalg: the factor's sweeps, solve and refactor.
    let g = acc.as_lower().to_matrix();
    let mut f = LdltFactor::from_lower(g.as_ref()).expect("accumulated Gram is positive definite");
    let (mut sweeps, mut downs) = (Vec::new(), Vec::new());
    for k in 0..63 {
        let c = inp.small(k);
        sweeps.push(secs(
            tr.span("linalg.sweep", None, |_| f.rank_update(1.0, c)).1,
        ));
        downs.push(secs(
            tr.span("linalg.downdate", None, |_| f.rank_update(-1.0, c))
                .1,
        ));
    }
    let (sweep, down) = (median(&sweeps), median(&downs));
    m.put("linalg.sweep_us", 1e6 * sweep, "us");
    m.put("linalg.downdate_us", 1e6 * down, "us");
    let solve = tr.probe("linalg.solve", 63, || {
        let _ = f.solve(&inp.rhs[0]);
    });
    m.put("linalg.solve_us", 1e6 * solve, "us");
    let refactor = tr.probe("linalg.refactor", 5, || {
        let _ = f.refactor_from_lower(g.as_ref());
    });
    m.put("linalg.refactor_ms", 1e3 * refactor, "ms");

    // Closure: the proxies over the pass's own operation counts. Small
    // pushes and retracts touch the accumulator once and both factors
    // (main and ridge) once each; tall ones touch only the accumulator.
    let tall_steps = (TRACED_STEPS / TALL_EVERY) as f64;
    let small_steps = TRACED_STEPS as f64 - tall_steps;
    let retracts = (small_steps - WINDOW as f64).max(0.0);
    let attributed = small_steps * (push + 2.0 * sweep)
        + retracts * (push + 2.0 * down)
        + (2.0 * tall_steps - 1.0) * tall
        + TRACED_STEPS as f64 * solve
        + (sys.fg.factor_refactors() - SETUP_REFACTORS) as f64 * refactor;
    let share = 1.0 - attributed / busy(&traced);
    m.put("closure.unattributed_share.stream", share, "fraction");
    let findings = vec![format!(
        "stream: {:.1}% of push/retract/query time ({:.3}s over {} steps) is attributed to no layer; tracing overhead {:+.2}%",
        100.0 * share,
        busy(&traced),
        TRACED_STEPS,
        100.0 * m.get("trace.overhead_share.stream")
    )];
    (m, tally, findings)
}
