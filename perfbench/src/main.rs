//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <gram|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` every end-to-end metric is reported: the run
//! repeats rounds of gram products, a serve slice with closed-loop
//! bursts and stream periods for `--seconds`; the named workload gets
//! the larger share of each round, while every metric is sampled across
//! the whole run. With `--trace 1` every layer (the stream system's
//! included) is driven through its public
//! functions inside spans and the per-layer metrics are reported. The
//! last line of standard output is the JSON result; diagnostics go to
//! standard error.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::trace::Tracer;
use perfbench::util::{
    median, process_cpu, result_line, secs, thread_cpu_times, timed, Metrics, Tally,
};
use perfbench::{gram, host, serve, stream};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Gram,
    Serve,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "gram" => Workload::Gram,
                    "serve" => Workload::Serve,
                    w => return Err(format!("unknown workload {w:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, not {t:?}")),
                })
            }
            f => return Err(format!("unknown flag {f:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).clamp(1, 60),
        trace: trace.unwrap_or(false),
    })
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// How one round of an untraced run divides its time: gram products,
/// a serve slice, closed-loop serve bursts and stream periods. Rounds
/// repeat until `--seconds` have passed, so every metric is sampled
/// across the whole run.
struct Mix {
    gram_products: usize,
    serve_slice: Duration,
    serve_bursts: usize,
    stream_periods: usize,
}

fn mix(w: Workload) -> Mix {
    let ms = Duration::from_millis;
    match w {
        Workload::Gram => Mix {
            gram_products: gram::VARIANTS,
            serve_slice: ms(1000),
            serve_bursts: 2,
            stream_periods: 1,
        },
        Workload::Serve => Mix {
            gram_products: 3,
            serve_slice: ms(1500),
            serve_bursts: 4,
            stream_periods: 1,
        },
    }
}

/// A run that cannot be reported as a number.
struct Invalid(String);

/// Every workload's system, built and warmed.
struct Systems {
    gram: gram::System,
    serve: serve::System,
    stream: stream::System,
}

fn build(threads: usize, si: &serve::Inputs, ti: &stream::Inputs) -> Systems {
    Systems {
        gram: gram::setup(threads),
        serve: serve::setup(threads, si),
        stream: stream::setup(ti),
    }
}

/// The untraced run: every end-to-end metric.
fn untraced(a: &Args, threads: usize) -> Result<(Metrics, Tally), Invalid> {
    let (gi, si, ti) = (
        gram::Inputs::new(a.seed),
        serve::Inputs::new(a.seed),
        stream::Inputs::new(a.seed),
    );
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut sys = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up is torn down (the service joins its
        // workers) outside the timed region.
        drop(sys.take());
        let (s, d) = timed(|| build(threads, &si, &ti));
        setups.push(secs(d));
        sys = Some(s);
    }
    let Systems {
        gram: g,
        serve: sv,
        stream: mut st,
    } = sys.expect("SETUP_REPS > 0");

    let mix = mix(a.workload);
    let budget = Duration::from_secs(a.seconds);
    let mut gr = gram::Runner::default();
    let mut served = Vec::new();
    let mut bursts = serve::Bursts::default();
    let mut window = Duration::ZERO;
    let mut ss = stream::Samples::default();
    let t0 = Instant::now();
    let mut round = 0u64;
    while t0.elapsed() < budget || gr.samples.len() < gram::VARIANTS {
        gr.products(&g, &gi, mix.gram_products, None);
        served.extend(serve::flood(
            &sv.svc,
            &si,
            &si.schedule(round, mix.serve_slice, None),
            None,
        ));
        window += mix.serve_slice;
        let first = round * mix.serve_bursts as u64;
        serve::bursts(&sv.svc, &si, first, mix.serve_bursts, &mut bursts);
        stream::periods(&mut st, &ti, mix.stream_periods, None, &mut ss);
        round += 1;
    }
    let stats = sv.svc.shutdown();

    let (late, late_p99) = (serve::late_ms(&served, 0.5), serve::late_ms(&served, 0.99));
    let (gt, mut vt, tt) = (gr.tally, serve::tally(&served, &stats), ss.tally);
    vt.add(bursts.tally);
    for (k, v) in &gr.samples {
        eprintln!(
            "{k}: {} samples, median {:.4}s busiest-thread CPU, {:.4}s wall",
            v.len(),
            median(v),
            median(&gr.wall[k])
        );
    }
    eprintln!(
        "{round} rounds; failed checks: gram {}/{}, serve {}/{}, stream {}/{}",
        gt.failed, gt.attempted, vt.failed, vt.attempted, tt.failed, tt.attempted
    );
    eprintln!(
        "serve: {} jobs over {:.1}s offered, generator late p50 {late:.3}ms p99 {late_p99:.3}ms; {} burst jobs; stream: {} queries",
        served.len(),
        secs(window),
        bursts.jobs,
        ss.queries.len()
    );
    if late > serve::LATE_LIMIT_MS {
        return Err(Invalid(format!(
            "serve generator ran {late:.3}ms behind its due times at p50 (limit {}ms)",
            serve::LATE_LIMIT_MS
        )));
    }
    let mut m = gram::metrics(&gr.samples);
    m.extend(serve::metrics(&served, window, &bursts));
    m.extend(stream::metrics(&ss));
    let mut tally = gt;
    tally.add(vt);
    tally.add(tt);
    m.put("setup_s", median(&setups), "s");
    m.put(
        "ok_frac",
        1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
        "fraction",
    );
    Ok((m, tally))
}

/// The traced run: every per-layer metric, the closure findings and
/// the span file.
fn traced(a: &Args, threads: usize, host: &str) -> Result<(Metrics, Tally), Invalid> {
    let (gi, si, ti) = (
        gram::Inputs::new(a.seed),
        serve::Inputs::new(a.seed),
        stream::Inputs::new(a.seed),
    );
    let tr = Tracer::default();
    let (mut m, mut tally) = (Metrics::default(), Tally::default());
    let mut findings = Vec::new();
    let gram_sys = gram::setup(threads);
    let parts = [
        (
            a.workload == Workload::Gram,
            gram::layers(&tr, &gram_sys, &gi, threads),
        ),
        (
            a.workload == Workload::Serve,
            serve::layers(&tr, threads, &si).map_err(Invalid)?,
        ),
        (false, stream::layers(&tr, &ti)),
    ];
    for (named, (mm, t, f)) in parts {
        m.extend(mm);
        tally.add(t);
        // The named workload's findings first.
        if named {
            findings.splice(0..0, f);
        } else {
            findings.extend(f);
        }
    }
    eprintln!("per-span totals (count, total s, self s):");
    for (name, (count, total, own)) in tr.by_name() {
        eprintln!("  {name:<28} {count:>6} {total:>10.4} {own:>10.4}");
    }
    for f in &findings {
        eprintln!("finding: {f}");
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{:?}-{}.json", a.workload, a.seed).to_lowercase());
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.to_json(host))) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans: {e}"),
    }
    Ok((m, tally))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <gram|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let set = host::overrides_set();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: each selects a different program",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    if thread_cpu_times().is_none() || process_cpu().is_none() {
        eprintln!("perfbench: needs /proc/self/task/*/schedstat and /proc/self/stat for CPU times");
        return ExitCode::from(2);
    }
    let threads = host::threads();
    let fingerprint = host::fingerprint();
    eprintln!("host: {fingerprint}");
    let result = if args.trace {
        traced(&args, threads, &fingerprint)
    } else {
        untraced(&args, threads)
    };
    match result {
        Ok((metrics, tally)) => {
            eprintln!("fail_frac: {} / {}", tally.failed, tally.attempted);
            println!("{}", result_line(tally.failed == 0, tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(Invalid(why)) => {
            eprintln!("perfbench: invalid run: {why}");
            ExitCode::from(3)
        }
    }
}
