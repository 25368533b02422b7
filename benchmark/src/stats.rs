//! Latency samples, percentiles and the `/proc` readers.

use std::sync::OnceLock;
use std::time::Instant;

/// Latency samples of one kind, in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, us: f64) {
        self.values.push(us);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// The `q`-quantile (`0.0..=1.0`) by linear interpolation between
    /// the two nearest ranks; `0.0` without samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = q.clamp(0.0, 1.0) * (self.values.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        self.values[lo] + (self.values[hi] - self.values[lo]) * (rank - lo as f64)
    }

    /// Arithmetic mean (`0.0` without samples).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }
}

/// FNV-1a over a sequence of small integers (bytes, pixels): the
/// benchmark's content hash for "same tile as before" and for matching
/// a served payload to the wire span that carried it.
pub fn fnv1a<T: Copy + Into<u64>>(items: &[T]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for item in items {
        h = (h ^ (*item).into()).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Median of a small set of plain numbers (`0.0` when empty).
pub fn median_of(values: &[f64]) -> f64 {
    let mut samples = Samples::default();
    for v in values {
        samples.push(*v);
    }
    samples.median()
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(key)?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Resident set size of this process right now, MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS:") / 1024.0
}

/// Microseconds since the first call in this process: one clock for
/// call completions and slice boundaries on every thread.
pub fn now_us() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as f64 / 1_000.0
}

/// OS threads in this process.
pub fn process_threads() -> f64 {
    proc_status_kb("Threads:")
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the libc std already links (the repo's reactor declares its
    // C entry points the same way: the vendored dep set has no libc).
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// User + system CPU time this process (all threads: clients,
/// transport workers, servers) has used, µs, at nanosecond resolution.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_us() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the cfg above pins), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1_000_000.0 + ts.tv_nsec as f64 / 1_000.0
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_us() -> f64 {
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_count() {
        let mut s = Samples::default();
        assert_eq!(s.median(), 0.0);
        for v in [40.0, 10.0, 30.0, 20.0] {
            s.push(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.median(), 25.0);
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(1.0), 40.0);
        s.push(50.0);
        assert_eq!(s.median(), 30.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0 && rss_mb() <= peak_rss_mb());
        assert!(process_threads() >= 1.0);
        let before = process_cpu_us();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(
            process_cpu_us() > before,
            "CPU clock must advance under load"
        );
    }
}
