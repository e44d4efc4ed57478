//! Self-check of the counters the benchmark reports as exact: each must
//! repeat bit for bit across two runs with the same seed, and the
//! simulated AtA-D traffic must equal the predictor's quote.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (an unoptimized build makes the stream pass slow).

use std::time::Duration;

use perfbench::util::Metrics;
use perfbench::{gram, serve, stream};

const SEED: u64 = 7;
const THREADS: usize = 2;

/// Every exact counter of one pass with `seed`.
fn exact(seed: u64) -> Metrics {
    let mut m = gram::exact_counters(THREADS);

    let si = serve::Inputs::new(seed);
    let (dist, tally) = serve::dist_probe(None, THREADS, &si);
    assert_eq!(tally.failed, 0, "split shape must pass its probe check");
    for k in [
        "dist.words",
        "dist.root_recv_words",
        "dist.msgs",
        "dist.sim_ms",
        "dist.predicted_words",
    ] {
        m.put(k, dist.get(k), "");
    }
    let jobs = si.schedule(0, Duration::ZERO, Some(400));
    let sys = serve::setup(THREADS, &si);
    let out = serve::flood(&sys.svc, &si, &jobs, None);
    let mut bursts = serve::Bursts::default();
    serve::bursts(&sys.svc, &si, 0, 1, &mut bursts);
    let stats = sys.svc.shutdown();
    assert_eq!(serve::tally(&out, &stats).failed, 0, "no job may fail");
    assert_eq!(bursts.tally.failed, 0, "no burst job may fail");
    let splits = jobs
        .iter()
        .chain(&si.burst(0))
        .filter(|j| j.class == serve::Class::Split)
        .count();
    // `serve::setup` warms the split lane with one split job.
    assert_eq!(
        stats.split_jobs,
        splits + 1,
        "every scheduled split job runs split"
    );
    m.put("shard.split_jobs", stats.split_jobs as f64, "");

    let ti = stream::Inputs::new(seed);
    let mut sys = stream::setup(&ti);
    let mut samples = stream::Samples::default();
    stream::periods(&mut sys, &ti, 2, None, &mut samples);
    assert_eq!(
        samples.tally.failed, 0,
        "every query must pass its residual check"
    );
    m.extend(stream::counters(&sys));
    m
}

#[test]
fn exact_counters_repeat_and_match_the_predictor() {
    let (a, b) = (exact(SEED), exact(SEED));
    let names: Vec<&String> = a.0.keys().collect();
    assert_eq!(names, b.0.keys().collect::<Vec<_>>());
    for (k, (va, _)) in &a.0 {
        let vb = b.get(k);
        assert_eq!(va.to_bits(), vb.to_bits(), "{k}: {va} then {vb}");
    }
    assert_eq!(a.get("dist.words"), a.get("dist.predicted_words"));
}
