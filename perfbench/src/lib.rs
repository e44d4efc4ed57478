//! The ata stack's benchmark: three workloads (`gram`, `serve`,
//! `stream`) driven through the public APIs, measured end to end with
//! tracing off and layer by layer in a separate traced run. See
//! `BENCHMARK.json` at the repository root for the metric contract.

pub mod gram;
pub mod host;
pub mod serve;
pub mod stream;
pub mod trace;
pub mod util;
