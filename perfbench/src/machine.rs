//! Host facts and process counters: the timestamp counter, core count,
//! CPU model, peak resident memory and process CPU time.

use std::time::{Duration, Instant};

/// Raw timestamp-counter read (nanoseconds since first use off x86_64).
#[inline(always)]
pub fn tsc() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` has no preconditions; it only reads the counter.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// A counter read fenced on both sides (`lfence; rdtsc; lfence`): it
/// neither starts before earlier instructions finish nor lets later ones
/// start early, so a pair of them brackets a short region.
#[inline(always)]
pub fn tsc_fenced() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `lfence` and `rdtsc` have no preconditions; SSE2 (which
    // provides `lfence`) is part of the x86_64 baseline.
    unsafe {
        use core::arch::x86_64::{_mm_lfence, _rdtsc};
        _mm_lfence();
        let t = _rdtsc();
        _mm_lfence();
        t
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        tsc()
    }
}

/// Counter ticks per nanosecond, measured against the monotonic clock
/// over `window`.
pub fn tsc_ghz(window: Duration) -> f64 {
    let (t0, c0) = (Instant::now(), tsc());
    while t0.elapsed() < window {
        std::hint::spin_loop();
    }
    let c1 = tsc();
    let ns = t0.elapsed().as_nanos() as f64;
    (c1 - c0) as f64 / ns
}

/// Runs `f` and returns its result with the ticks it took, less the cost
/// of the timer itself measured in place: an empty fenced pair read just
/// before the call, under the same pipeline and cache conditions.
#[inline(always)]
pub fn time_in_place<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let a = tsc_fenced();
    let b = tsc_fenced();
    let r = f();
    let c = tsc_fenced();
    (r, c.wrapping_sub(b) as i64 - b.wrapping_sub(a) as i64)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `model name` of the first CPU in `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's resident-memory high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU seconds of the whole process (all threads, live
/// and exited), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    // utime and stime are fields 14 and 15, counted in USER_HZ ticks,
    // which the Linux ABI fixes at 100 per second. Field 2 (the command
    // name) may contain spaces, so split after its closing parenthesis.
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so field k sits at index k - 3.
    let tick = |k: usize| fields.get(k - 3).and_then(|v| v.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_sane_values() {
        assert!(nproc() >= 1);
        assert!(tsc_ghz(Duration::from_millis(5)) > 0.0);
        assert!(peak_rss_mib() > 0.0);
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::spin_loop();
        }
        assert!(cpu_seconds() > 0.0);
    }
}
