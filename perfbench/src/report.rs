//! A run's result: correctness, operation accounting and named metrics,
//! printed as the last line of standard output.

use crate::stats::{median, peak_rss_mib};

/// Latency samples are kept in picoseconds, so a per-op mean over a
/// block of sub-microsecond ops keeps its fractional nanoseconds.
pub const PS_PER_NS: u64 = 1_000;

/// Picoseconds in a duration.
pub fn ps(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64 * PS_PER_NS
}

/// Set-ups timed before the timed phase (the last one is kept for it).
pub const SETUPS_BEFORE: usize = 4;
/// Set-ups timed after the timed phase and then dropped. Spreading the
/// set-ups over the run keeps one slow stretch of the host from
/// deciding the median.
pub const SETUPS_AFTER: usize = 3;

/// Run `f` and return its result and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Keep at most this many mismatch descriptions per run.
const MAX_ERRORS: usize = 8;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Operation accounting shared by every workload.
#[derive(Clone, Debug)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed because of a named, known fault.
    pub failed: u64,
    /// False once any other output disagreed with the model.
    pub correct: bool,
    /// The first few disagreements, for stderr.
    pub errors: Vec<String>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
            errors: Vec::new(),
        }
    }
}

impl Tally {
    /// Record a disagreement with the model or a broken property.
    pub fn wrong(&mut self, what: impl FnOnce() -> String) {
        self.correct = false;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what());
        }
    }

    /// Fold another tally's verdict and mismatches into this one, but
    /// not its counts (set-up and warm-up ops are checked, not counted).
    pub fn merge_checks(&mut self, other: Tally) {
        self.merge(Tally {
            attempted: 0,
            failed: 0,
            ..other
        });
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
        for e in other.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Accounting and correctness.
    pub tally: Tally,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(tally: Tally) -> Outcome {
        Outcome {
            tally,
            metrics: Vec::new(),
        }
    }

    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The end-to-end metrics every workload reports: median set-up
    /// time (over [`SETUPS_BEFORE`] + [`SETUPS_AFTER`] set-ups), peak RSS, and the throughput and p50/p99 latency of the
    /// workload's unit operation (per-window medians, see
    /// [`crate::stats::Windows`]).
    pub fn end_to_end(
        tally: Tally,
        setups_s: &[f64],
        (rate, p50_us, p99_us): (f64, f64, f64),
    ) -> Outcome {
        let mut out = Outcome::new(tally);
        out.push("setup_s", median(setups_s), "s");
        out.push("peak_rss_mib", peak_rss_mib(), "MiB");
        out.push("ops_per_s", rate, "1/s");
        out.push("p50_us", p50_us, "us");
        out.push("p99_us", p99_us, "us");
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A non-finite value makes the run
    /// incorrect (and prints as 0) rather than emitting invalid JSON.
    pub fn to_json_line(&self) -> String {
        let mut correct = self.tally.correct && self.tally.attempted > 0;
        let mut fields = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                0.0
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_f64(value),
                m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            self.tally.attempted.max(1),
            self.tally.failed,
            fields.join(", ")
        )
    }
}

/// A float as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn fmt_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let mut o = Outcome::new(Tally {
            attempted: 10,
            failed: 1,
            ..Tally::default()
        });
        o.push("a.b", 1.25, "ns");
        o.push("c", 3.0, "count");
        assert_eq!(
            o.to_json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"a.b\": {\"value\": 1.25, \"unit\": \"ns\"}, \"c\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let mut o = Outcome::new(Tally {
            attempted: 1,
            ..Tally::default()
        });
        o.push("x", f64::NAN, "ns");
        assert!(o.to_json_line().starts_with("{\"correct\": false"));
    }
}
