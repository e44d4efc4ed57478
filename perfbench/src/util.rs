//! Small shared pieces: a seeded generator, order statistics, the
//! probe-vector correctness check and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ata::mat::MatRef;

/// SplitMix64: the benchmark's own seeded stream for job mixes, shapes
/// and probe vectors (operands come from `ata::mat::gen`).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from the run seed and a per-use salt.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A vector of `n` entries uniform in `[-1, 1)`.
    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 2.0 * self.unit() - 1.0).collect()
    }
}

/// Seconds of a duration as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run `f` once and return its result with its wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (r, t0.elapsed())
}

/// CPU time the calling thread has run, from
/// `/proc/thread-self/schedstat`. Time the hypervisor steals from a
/// virtual CPU is not in it. The kernel brings a running thread's count
/// up to date at its scheduler tick and when the thread yields, so the
/// thread yields first: the reading is then exact to the few
/// microseconds the yield and the read take.
pub fn thread_cpu() -> Option<Duration> {
    std::thread::yield_now();
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    Some(Duration::from_nanos(
        s.split_whitespace().next()?.parse().ok()?,
    ))
}

/// Run `f` once and return its result with the calling thread's CPU
/// time ([`thread_cpu`]). Panics when the count is unreadable; `main`
/// checks it before any run.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let read = || thread_cpu().expect("thread CPU time readable");
    let c0 = read();
    let r = std::hint::black_box(f());
    (r, read().saturating_sub(c0))
}

/// CPU time each live thread of the process has run, by thread id, from
/// `/proc/self/task/<tid>/schedstat` (nanoseconds), stolen time left
/// out. The calling thread yields first, so its count is exact
/// ([`thread_cpu`]); another thread's can lag by one scheduler tick: use
/// it for operations that run far longer than a tick.
pub fn thread_cpu_times() -> Option<BTreeMap<u64, u64>> {
    std::thread::yield_now();
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path();
        let Ok(tid) = path.file_name()?.to_string_lossy().parse::<u64>() else {
            continue;
        };
        // A thread that exits between the listing and the read is skipped.
        if let Ok(s) = std::fs::read_to_string(path.join("schedstat")) {
            out.insert(tid, s.split_whitespace().next()?.parse().ok()?);
        }
    }
    Some(out)
}

/// CPU time every thread of the process has run, exited threads
/// included, from `/proc/self/stat` (`utime + stime`, in the kernel's
/// 10 ms user ticks).
pub fn process_cpu() -> Option<Duration> {
    let s = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, from `state` (field
    // 3) on; `utime` and `stime` are fields 14 and 15.
    let rest: Vec<&str> = s.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks: u64 = rest.get(11)?.parse::<u64>().ok()? + rest.get(12)?.parse::<u64>().ok()?;
    Some(Duration::from_millis(10 * ticks))
}

/// Run `f` once and return its result with the largest CPU time any one
/// thread of the process ran meanwhile ([`thread_cpu_times`]): for work
/// on the calling thread alone, its CPU time; for work spread over a
/// pool, the busiest worker's, its critical path without stolen time.
/// Panics when the counts are unreadable; `main` checks them before any
/// run.
pub fn busiest_cpu_timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let read = || thread_cpu_times().expect("thread CPU times readable");
    let before = read();
    let r = std::hint::black_box(f());
    let busiest = read()
        .into_iter()
        .map(|(tid, ns)| ns.saturating_sub(before.get(&tid).copied().unwrap_or(0)))
        .max()
        .unwrap_or(0);
    (r, Duration::from_nanos(busiest))
}

/// The `q`-quantile (`0 <= q <= 1`) of `xs` by the nearest-rank rule;
/// `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = v.len() / 2;
    if v.len() % 2 == 1 {
        v[h]
    } else {
        0.5 * (v[h - 1] + v[h])
    }
}

/// Euclidean norm.
fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// `y = S x` for the symmetric `S` whose lower triangle `s` holds (the
/// strict upper triangle of `s` is never read).
fn sym_lower_matvec(s: MatRef<'_, f64>, x: &[f64]) -> Vec<f64> {
    let n = s.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let row = &s.row(i)[..=i];
        let mut acc = 0.0;
        for (j, &v) in row[..i].iter().enumerate() {
            acc += v * x[j];
            y[j] += v * x[i];
        }
        y[i] += acc + row[i] * x[i];
    }
    y
}

/// Relative probe residual of a Gram product: `‖C x − Aᵀ(A x)‖ /
/// (‖A‖_F² ‖x‖)` with `C` read from its lower triangle. An `O(mn)`
/// stand-in for the `O(mn²)` oracle: a wrong entry of `C` moves the
/// residual for all but a measure-zero set of probes `x`.
pub fn gram_residual(a: MatRef<'_, f64>, c: MatRef<'_, f64>, x: &[f64]) -> f64 {
    let (m, n) = a.shape();
    let mut ax = vec![0.0; m];
    for (i, axi) in ax.iter_mut().enumerate() {
        *axi = a.row(i).iter().zip(x).map(|(p, q)| p * q).sum();
    }
    let mut atax = vec![0.0; n];
    for (i, &s) in ax.iter().enumerate() {
        for (t, &v) in atax.iter_mut().zip(a.row(i)) {
            *t += v * s;
        }
    }
    let cx = sym_lower_matvec(c, x);
    let diff: Vec<f64> = cx.iter().zip(&atax).map(|(p, q)| p - q).collect();
    let fro = a.frobenius();
    norm(&diff) / (fro * fro * norm(x)).max(f64::MIN_POSITIVE)
}

/// Largest relative probe residual a Gram output may show and still
/// count as correct. Strassen's normwise error grows by a constant per
/// level over the classical `O(m ε)`; observed residuals on the
/// benchmark shapes are `1e-18` to `1e-17`, so this leaves five orders of
/// magnitude for rounding while a wrong block (residual far above) fails.
pub const GRAM_TOL: f64 = 1e-12;

/// Relative residual of a solve: `‖S x + λx − b‖ / (‖S‖_F ‖x‖ + ‖b‖)`
/// with `S` read from its lower triangle.
pub fn solve_residual(s: MatRef<'_, f64>, lambda: f64, x: &[f64], b: &[f64]) -> f64 {
    let sx = sym_lower_matvec(s, x);
    let diff: Vec<f64> = sx
        .iter()
        .zip(x)
        .zip(b)
        .map(|((p, xi), bi)| p + lambda * xi - bi)
        .collect();
    let n = s.rows();
    let mut fro2 = 0.0;
    for i in 0..n {
        for (j, v) in s.row(i)[..=i].iter().enumerate() {
            fro2 += if i == j { v * v } else { 2.0 * v * v };
        }
    }
    norm(&diff) / (fro2.sqrt() * norm(x) + norm(b)).max(f64::MIN_POSITIVE)
}

/// Largest relative solve residual that counts as correct. The LDLᵀ
/// factor drifts under up- and downdates between refactors; observed
/// residuals stay near `1e-16` over 200 sliding-window steps.
pub const SOLVE_TOL: f64 = 1e-9;

/// The metric set of one run, in the order the result line prints it.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Record `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Value of `name`, `NaN` when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| v.0)
    }

    /// Merge another set into this one.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Outcome counts: operations attempted and operations that failed
/// (typed errors, refusals and outputs that miss their check).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Add another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A JSON number: non-finite values print as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
