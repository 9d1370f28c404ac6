//! Exact order statistics over raw samples, windowed medians, the
//! process's peak resident set size, and thread pinning.
//!
//! Percentiles are computed from every sample, never from a bucketed
//! histogram: a latency that lands far above the last bucket must still
//! move the reported figure.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`: the
/// smallest sample with at least `ceil(q · n)` samples at or below it.
/// Reorders `samples` in place (selection, not a full sort). Returns 0
/// for an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    *samples.select_nth_unstable(rank - 1).1
}

/// Median of a list of floats (mean of the two middle values for an
/// even count). Returns 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of integer samples, as a float (reorders `samples`).
pub fn median_u64(samples: &mut [u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len();
    let hi = *samples.select_nth_unstable(n / 2).1 as f64;
    if n % 2 == 1 {
        hi
    } else {
        let lo = *samples[..n / 2].iter().max().expect("non-empty lower half") as f64;
        (lo + hi) / 2.0
    }
}

/// Peak resident set size of this process in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` is not used: Linux
/// carries it across `execve`, so a benchmark started by a larger
/// parent, such as `cargo run`, would report the parent's peak.) NaN
/// when the figure is unavailable, which makes the run incorrect rather
/// than quietly wrong.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Throughput and latency measured in fixed windows of the timed
/// phase. Each window's percentiles are exact over its own samples; the
/// run reports the median window, so a burst of interference from
/// outside the process moves one window, not the run's figure. Samples
/// are dropped when their window closes, so memory stays flat however
/// long the run.
pub struct Windows {
    width: std::time::Duration,
    opened: std::time::Instant,
    ops: u64,
    samples: Vec<u64>,
    /// Per closed window: (ops per second, p50, p99), latencies in ps.
    pub closed: Vec<(f64, u64, u64)>,
}

impl Windows {
    /// Windows of `width`, the first opening now.
    pub fn new(width: std::time::Duration) -> Windows {
        Windows {
            width,
            opened: std::time::Instant::now(),
            ops: 0,
            samples: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Count `ops` completed operations in the open window.
    pub fn add_ops(&mut self, ops: u64) {
        self.ops += ops;
    }

    /// Add a latency sample (ps) to the open window.
    pub fn sample(&mut self, ps: u64) {
        self.samples.push(ps);
    }

    /// Close the open window if it has run its width (or `force`), and
    /// open the next one.
    pub fn tick(&mut self, force: bool) {
        let now = std::time::Instant::now();
        let elapsed = now - self.opened;
        if force || elapsed >= self.width {
            self.close(elapsed);
            self.opened = now;
        }
    }

    /// Close the open window as having lasted `elapsed` (for callers
    /// that keep their own clock); an empty window is discarded.
    pub fn close(&mut self, elapsed: std::time::Duration) {
        if self.ops > 0 {
            let p50 = percentile(&mut self.samples, 0.50);
            let p99 = percentile(&mut self.samples, 0.99);
            self.closed
                .push((self.ops as f64 / elapsed.as_secs_f64().max(1e-9), p50, p99));
        }
        self.samples.clear();
        self.ops = 0;
    }

    /// Median over closed windows of (ops per second, p50 µs, p99 µs).
    pub fn medians(&self) -> (f64, f64, f64) {
        Windows::parallel_medians(std::slice::from_ref(self))
    }

    /// The same over threads that ran side by side, each with its own
    /// windows opened together: window `i`'s rate is the sum of every
    /// thread's window `i`; latencies pool every thread's windows.
    pub fn parallel_medians(threads: &[Windows]) -> (f64, f64, f64) {
        let n = threads.iter().map(|w| w.closed.len()).min().unwrap_or(0);
        let rates: Vec<f64> = (0..n)
            .map(|i| threads.iter().map(|w| w.closed[i].0).sum())
            .collect();
        let all = || threads.iter().flat_map(|w| w.closed.iter());
        let p50s: Vec<f64> = all().map(|w| w.1 as f64 / 1e6).collect();
        let p99s: Vec<f64> = all().map(|w| w.2 as f64 / 1e6).collect();
        (median(&rates), median(&p50s), median(&p99s))
    }
}

#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on, in order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable 1024-bit cpu_set_t; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to the `i`-th allowed CPU counted from the
/// last one (wrapping). Device interrupts and most steal land on the
/// first CPU of a small VM, so single-CPU work goes to the last. Threads
/// the caller spawns afterwards inherit the pin. Returns whether it
/// took.
pub fn pin_to(i: usize) -> bool {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return false;
    }
    let cpu = cpus[cpus.len() - 1 - i % cpus.len()];
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid 1024-bit cpu_set_t naming one allowed
    // CPU; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apram_model::seed::split;

    /// The selection-based percentile agrees with a full sort on values
    /// far above 1,572,864 ns, where a 64-bucket step histogram would
    /// clip every one of them into its last bucket.
    #[test]
    fn percentile_matches_brute_force_sort_above_the_histogram_clip() {
        let mut rng = 0x5EED_u64;
        for n in [1usize, 2, 3, 10, 101, 1000, 4097] {
            let samples: Vec<u64> = (0..n)
                .map(|_| {
                    rng = split(rng, 1);
                    1_572_864 + rng % 5_000_000_000
                })
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let mut work = samples.clone();
                assert_eq!(percentile(&mut work, q), sorted[rank - 1], "n={n} q={q}");
            }
            // Distinct quantiles of spread-out values must differ: a
            // clipped histogram would report them all equal.
            if n >= 1000 {
                let mut work = samples.clone();
                let p50 = percentile(&mut work, 0.5);
                let p99 = percentile(&mut work, 0.99);
                assert!(p99 > p50, "n={n}: p50={p50} p99={p99}");
            }
        }
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_u64(&mut [5, 1, 9]), 5.0);
        assert_eq!(median_u64(&mut [8, 2, 4, 6]), 5.0);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn windows_report_median_window() {
        let mut w = Windows::new(std::time::Duration::ZERO);
        for (ops, lat) in [(10u64, 5u64), (20, 7), (30, 9)] {
            w.add_ops(ops);
            w.sample(lat * 1_000_000);
            w.tick(true);
        }
        assert_eq!(w.closed.len(), 3);
        let (_, p50, p99) = w.medians();
        assert_eq!((p50, p99), (7.0, 7.0));
    }

    #[test]
    fn pinning_keeps_the_thread_on_an_allowed_cpu() {
        let before = allowed_cpus();
        assert!(!before.is_empty());
        std::thread::spawn(move || {
            assert!(pin_to(1));
            let now = allowed_cpus();
            assert_eq!(now.len(), 1);
            assert!(before.contains(&now[0]));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.5);
    }
}
