//! Host fingerprint recorded with every result, and the guard against
//! environment overrides that select a different program.

use ata::kernels::micro::micro_path_for;
use ata::kernels::CacheConfig;

use crate::util::json_str;

/// Environment variables that change which kernels or scheduler the
/// library runs; a run with any of them set measures another program.
const OVERRIDES: [&str; 3] = ["ATA_MICRO", "ATA_KERNEL_PARAMS", "ATA_RAYON_SCOPED"];

/// The overrides set in this process's environment.
pub fn overrides_set() -> Vec<&'static str> {
    OVERRIDES
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

/// Logical CPUs the process may use.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads the library gets: `min(nproc, 4)`.
pub fn threads() -> usize {
    nproc().min(4)
}

/// The CPU's brand string, read with `cpuid` (no file access).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaves above the reported maximum extended leaf are not queried.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}

/// Instruction-set extensions the kernels can dispatch on.
fn isa() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            out.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            out.push("avx512f");
        }
    }
    out
}

/// The fingerprint as one JSON object.
pub fn fingerprint() -> String {
    let isa: Vec<String> = isa().into_iter().map(json_str).collect();
    format!(
        "{{\"nproc\": {}, \"threads\": {}, \"cpu\": {}, \"isa\": [{}], \"micro_path\": {}, \"cache_words\": {}}}",
        nproc(),
        threads(),
        json_str(&cpu_model()),
        isa.join(", "),
        json_str(micro_path_for::<f64>().name()),
        CacheConfig::default().words
    )
}
