//! Process and host probes: CPU time, peak RSS, and the host fingerprint
//! (with an allocation-free calibration loop) that every record carries.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed by the whole process (every thread), in
/// seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the clock id is a
    // constant supported by every Linux kernel.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A fixed, allocation-free scalar workload (a dependent integer/float
/// chain). Its time moves only with the host's speed mode, so a record
/// taken in a slow mode is recognisable. Returns the median of 5 timings,
/// in milliseconds.
pub fn calibration_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            let mut acc = 0.0f64;
            for _ in 0..4_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc * 0.999_999 + (x >> 40) as f64;
            }
            std::hint::black_box(acc);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(target_arch = "x86_64")]
fn runtime_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    if std::is_x86_feature_detected!("avx2") {
        f.push("avx2");
    }
    if std::is_x86_feature_detected!("fma") {
        f.push("fma");
    }
    if std::is_x86_feature_detected!("avx512f") {
        f.push("avx512f");
    }
    f
}

#[cfg(not(target_arch = "x86_64"))]
fn runtime_features() -> Vec<&'static str> {
    Vec::new()
}

fn compiled_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    if cfg!(target_feature = "avx2") {
        f.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        f.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        f.push("avx512f");
    }
    f
}

fn str_list(xs: &[&str]) -> String {
    let items: Vec<String> = xs.iter().map(|s| crate::report::json_str(s)).collect();
    format!("[{}]", items.join(","))
}

/// The host fingerprint as a JSON object.
pub fn fingerprint_json(calib_ms: f64) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let env_threads = std::env::var("TENSOR_THREADS").unwrap_or_default();
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"target_features\":{},\"runtime_features\":{},\
         \"tensor_threads_env\":{},\"tensor_threads\":{},\"rustc\":{},\"git_rev\":{},\
         \"calibration_ms\":{calib_ms:.4}}}",
        crate::report::json_str(&cpu_model()),
        str_list(&compiled_features()),
        str_list(&runtime_features()),
        crate::report::json_str(&env_threads),
        md_tensor::parallel::max_threads(),
        crate::report::json_str(env!("MDBENCH_RUSTC")),
        crate::report::json_str(env!("MDBENCH_GIT_REV")),
    )
}
