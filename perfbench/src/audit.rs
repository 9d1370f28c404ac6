//! `audit`: concurrent histories built by the benchmark itself, fed
//! through a real flight recorder and the audit path (drain →
//! `op_spans` → `history_from_spans` → checker).
//!
//! A constructed history is linearizable by construction: each process
//! runs its ops one after another, and each op's interval contains its
//! linearization point in a sequential run of the benchmark's model. A
//! seeded share has one read mutated to a value no linearization can
//! produce. Feeding constructed events (rather than recording live
//! traffic) keeps the verdict known in advance; see the README for the
//! live-traffic false alarm that rules the latter out today.

use std::time::Instant;

use apram_model::seed::split;
use apram_model::{FlightEvent, FlightLog, FlightMode, FlightRecorder};
use apram_objects::spec::{encode_map_arg, OP_READ, OP_UPDATE};
use apram_serve::run_audit;

use crate::report::{ps, timed, Outcome, Tally, SETUPS_AFTER, SETUPS_BEFORE};
use crate::stats::{pin_to, Windows};
use crate::stream::OBJECTS;

/// Processes per history.
pub const PROCS: usize = 4;
/// Constructed or mutated histories per object per round.
pub const PER_OBJECT: usize = 8;
/// Smallest and largest history (ops) of an object's round; the sizes
/// step evenly between them, and both stay within the checker's 128-op
/// limit. Fixed sizes keep every round the same amount of work.
pub const MIN_OPS: u64 = 16;
/// See [`MIN_OPS`].
pub const MAX_OPS: u64 = 112;
/// Histories per object per round that are mutated; which ones is
/// seeded.
pub const MUTATED: usize = 2;
/// Warm-up rounds in each set-up.
pub const WARMUP_ROUNDS: usize = 4;
/// Ops in the oversized history each round carries.
pub const OVERSIZED_OPS: u64 = 160;
/// Fixed seed of the oversized history: its inputs never depend on
/// `--seed`.
pub const OVERSIZED_SEED: u64 = 0x0B16_4157;
/// Spacing of linearization points, ns.
pub const SPACING_NS: u64 = 100;
/// How far an interval may reach past its linearization point, ns.
pub const OVERLAP_NS: u64 = 250;
/// Map keys used by map histories.
pub const MAP_KEYS: u64 = 8;
/// Seeded values stay below this; mutated reads return values at or
/// above it, which no update ever wrote.
pub const VALUE_RANGE: u64 = 1_000_000;
/// Per-process ring capacity (events).
pub const RING: usize = 1024;
/// Width of a measurement window (of audit-phase time).
pub const WINDOW: std::time::Duration = std::time::Duration::from_millis(250);

/// What a history is, and so what the audit must say about it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Linearizable by construction: must be accepted.
    Constructed,
    /// One read changed to an impossible value: must be rejected.
    Mutated,
    /// Linearizable by construction but longer than the checker's
    /// 128-op limit: rejected as `TooLarge` today (a named fault).
    Oversized,
}

/// One generated history as per-process flight events.
#[derive(Clone, Debug)]
pub struct GenHistory {
    /// Index into [`OBJECTS`].
    pub object: usize,
    /// What the audit must conclude.
    pub kind: Kind,
    /// Per-process events in program order.
    pub events: Vec<Vec<FlightEvent>>,
    /// Number of ops.
    pub ops: u64,
}

/// Build a history of `n` ops on `object` from `seed`. With `mutate`,
/// the last op (always a read) gets an impossible response; `kind` is
/// recorded as given, so a test can label an unmutated history
/// "mutated" and watch the verdict check catch it.
pub fn generate(object: usize, n: u64, seed: u64, mutate: bool, kind: Kind) -> GenHistory {
    let mut rng = seed;
    let mut word = move || {
        rng = split(rng, 1);
        rng
    };
    let n = n as usize;
    // Who runs each op, and each op's (op code, arg) in sequential order.
    let procs: Vec<usize> = (0..n).map(|_| (word() % PROCS as u64) as usize).collect();
    let mut incs = 0u64;
    let mut max: Option<u64> = None;
    let mut map = [None::<u64>; MAP_KEYS as usize];
    let mut ops: Vec<(u32, u64, u64)> = Vec::with_capacity(n);
    for i in 0..n {
        let read = i + 1 == n || word() % 2 == 0;
        let value = word() % VALUE_RANGE;
        let key = word() % MAP_KEYS;
        let (code, arg, resp) = match (OBJECTS[object], read) {
            ("counter", false) => {
                incs += 1;
                (OP_UPDATE, 1, 0)
            }
            ("counter", true) => (OP_READ, 0, incs),
            ("maxreg", false) => {
                max = Some(max.map_or(value, |m| m.max(value)));
                (OP_UPDATE, value, 0)
            }
            ("maxreg", true) => (OP_READ, 0, max.unwrap_or(u64::MAX)),
            (_, false) => {
                map[key as usize] = Some(value);
                (OP_UPDATE, encode_map_arg(key as u32, value), 0)
            }
            (_, true) => (
                OP_READ,
                encode_map_arg(key as u32, 0),
                map[key as usize].unwrap_or(u64::MAX),
            ),
        };
        ops.push((code, arg, resp));
    }
    if mutate {
        let last = ops.last_mut().expect("histories are non-empty");
        last.2 = match OBJECTS[object] {
            // More increments than the whole history contains.
            "counter" => incs + 1 + word() % 5,
            // Values never written by any update.
            _ => VALUE_RANGE + word() % VALUE_RANGE,
        };
    }
    // Intervals: op i linearizes at lin(i); it begins after its
    // process's previous op ended and ends before its process's next
    // op linearizes.
    let lin = |i: usize| 1_000 + SPACING_NS * i as u64;
    let mut next_lin = vec![u64::MAX; n];
    let mut later: Vec<Option<usize>> = vec![None; PROCS];
    for i in (0..n).rev() {
        if let Some(j) = later[procs[i]] {
            next_lin[i] = lin(j);
        }
        later[procs[i]] = Some(i);
    }
    let mut last_end = [0u64; PROCS];
    let mut events = vec![Vec::new(); PROCS];
    for (i, &(op, arg, resp)) in ops.iter().enumerate() {
        let p = procs[i];
        let begin = (lin(i) - word() % OVERLAP_NS).max(last_end[p] + 1);
        let end = (lin(i) + word() % OVERLAP_NS).min(next_lin[i] - 1);
        last_end[p] = end;
        events[p].push(FlightEvent::OpBegin {
            t_ns: begin,
            op,
            arg,
        });
        events[p].push(FlightEvent::OpEnd {
            t_ns: end,
            op,
            resp,
        });
    }
    GenHistory {
        object,
        kind,
        events,
        ops: n as u64,
    }
}

/// One round's histories: [`PER_OBJECT`] per object, sized
/// [`MIN_OPS`]..=[`MAX_OPS`] in even steps, [`MUTATED`] of them (seeded
/// choice) mutated; then the fixed oversized counter history.
pub fn round(rng: &mut u64) -> Vec<GenHistory> {
    let mut out = Vec::with_capacity(OBJECTS.len() * PER_OBJECT + 1);
    for object in 0..OBJECTS.len() {
        let mut mutated = [false; PER_OBJECT];
        let mut marked = 0;
        while marked < MUTATED {
            *rng = split(*rng, 1);
            let i = (*rng % PER_OBJECT as u64) as usize;
            if !mutated[i] {
                mutated[i] = true;
                marked += 1;
            }
        }
        for (i, &mutate) in mutated.iter().enumerate() {
            *rng = split(*rng, 1);
            let n = MIN_OPS + (MAX_OPS - MIN_OPS) * i as u64 / (PER_OBJECT as u64 - 1);
            let kind = if mutate {
                Kind::Mutated
            } else {
                Kind::Constructed
            };
            out.push(generate(object, n, *rng, mutate, kind));
        }
    }
    out.push(generate(
        0,
        OVERSIZED_OPS,
        OVERSIZED_SEED,
        false,
        Kind::Oversized,
    ));
    out
}

/// The audit's verdict on one history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every history linearized.
    Accepted,
    /// The checker found no linearization.
    Rejected,
    /// The checker refused the history as longer than 128 ops.
    TooLarge,
}

/// The benchmark's flight recorder plus its running accounting.
pub struct Auditor {
    rec: FlightRecorder,
    /// Events recorded so far.
    pub recorded: u64,
    /// Events drained so far.
    pub drained: u64,
    /// Events dropped so far.
    pub dropped: u64,
}

impl Default for Auditor {
    fn default() -> Self {
        Auditor {
            rec: FlightRecorder::new(FlightMode::Always, PROCS, RING),
            recorded: 0,
            drained: 0,
            dropped: 0,
        }
    }
}

impl Auditor {
    /// Record a history's events, each process into its own ring.
    pub fn record_events(&mut self, h: &GenHistory) {
        for (p, evs) in h.events.iter().enumerate() {
            for ev in evs {
                self.rec.record(p, *ev);
            }
        }
    }

    /// Drain every ring, keeping the running accounting.
    pub fn drain(&mut self) -> FlightLog {
        let log = self.rec.drain();
        self.recorded = log.recorded;
        self.drained += log.drained;
        self.dropped += log.dropped;
        log
    }

    /// Record, drain and audit one history.
    pub fn audit(&mut self, h: &GenHistory) -> Verdict {
        self.record_events(h);
        let log = self.drain();
        let report = run_audit(OBJECTS[h.object], std::slice::from_ref(&log), 1);
        if report.all_linearizable && report.histories == 1 {
            Verdict::Accepted
        } else if report.failures.iter().any(|f| f.contains("TooLarge")) {
            Verdict::TooLarge
        } else {
            Verdict::Rejected
        }
    }

    /// Whether the recorder lost or withheld nothing.
    pub fn accounting_ok(&self) -> bool {
        self.dropped == 0 && self.recorded == self.drained
    }
}

/// Judge a verdict: `Some(true)` right, `Some(false)` wrong, `None` a
/// failure of the named 128-op limit.
pub fn judge(kind: Kind, verdict: Verdict) -> Option<bool> {
    match (kind, verdict) {
        (_, Verdict::TooLarge) if kind == Kind::Oversized => None,
        (Kind::Constructed | Kind::Oversized, Verdict::Accepted) => Some(true),
        (Kind::Mutated, Verdict::Rejected) => Some(true),
        _ => Some(false),
    }
}

/// Audit one round, appending per-history latencies (ps); returns the
/// ops in histories whose verdict was right.
pub fn audit_round(
    auditor: &mut Auditor,
    hs: &[GenHistory],
    samples: &mut Vec<u64>,
    tally: &mut Tally,
) -> u64 {
    let mut right_ops = 0;
    for h in hs {
        let t0 = Instant::now();
        let verdict = auditor.audit(h);
        samples.push(ps(t0.elapsed()));
        tally.attempted += 1;
        match judge(h.kind, verdict) {
            Some(true) => right_ops += h.ops,
            Some(false) => tally.wrong(|| {
                format!(
                    "{} history of {} ops ({:?}) got verdict {verdict:?}",
                    OBJECTS[h.object], h.ops, h.kind
                )
            }),
            None => tally.failed += 1,
        }
    }
    right_ops
}

/// Run the `audit` workload for `seconds`.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    pin_to(0);
    let mut tally = Tally::default();
    let mut checks = Tally::default();
    let set_up = |checks: &mut Tally| {
        let mut auditor = Auditor::default();
        let mut rng = split(seed, 0xA0D1);
        for _ in 0..WARMUP_ROUNDS {
            let warm = round(&mut rng);
            audit_round(&mut auditor, &warm, &mut Vec::new(), checks);
        }
        (auditor, rng)
    };
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS_BEFORE {
        let (st, t) = timed(|| set_up(&mut checks));
        state = Some(st);
        setups.push(t);
    }
    let (mut auditor, mut rng) = state.expect("at least one set-up");

    // Generating the synthetic events is the benchmark's own work: the
    // window clock runs only while the audit path does.
    let mut windows = Windows::new(WINDOW);
    let mut in_window = std::time::Duration::ZERO;
    let mut samples = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let hs = round(&mut rng);
        samples.clear();
        let t0 = Instant::now();
        let right = audit_round(&mut auditor, &hs, &mut samples, &mut tally);
        in_window += t0.elapsed();
        windows.add_ops(right);
        samples.iter().for_each(|&p| windows.sample(p));
        if in_window >= WINDOW {
            windows.close(in_window);
            in_window = std::time::Duration::ZERO;
        }
    }
    if !in_window.is_zero() {
        windows.close(in_window);
    }
    if !auditor.accounting_ok() {
        let a = (auditor.recorded, auditor.drained, auditor.dropped);
        tally.wrong(|| format!("recorder accounting (recorded, drained, dropped) = {a:?}"));
    }
    for _ in 0..SETUPS_AFTER {
        setups.push(timed(|| set_up(&mut checks)).1);
    }
    tally.merge_checks(checks);
    Outcome::end_to_end(tally, &setups, windows.medians())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructed_intervals_are_per_process_sequential() {
        for object in 0..OBJECTS.len() {
            let h = generate(object, 100, 42 + object as u64, false, Kind::Constructed);
            for evs in &h.events {
                let stamps: Vec<u64> = evs.iter().map(|e| e.t_ns()).collect();
                assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
            }
            assert_eq!(h.events.iter().map(Vec::len).sum::<usize>(), 200);
        }
    }

    #[test]
    fn every_object_accepts_constructed_and_rejects_mutated() {
        let mut a = Auditor::default();
        for (object, name) in OBJECTS.iter().enumerate() {
            for seed in 0..6u64 {
                let ok = generate(object, 60, seed, false, Kind::Constructed);
                assert_eq!(a.audit(&ok), Verdict::Accepted, "{name} seed {seed}");
                let bad = generate(object, 60, seed, true, Kind::Mutated);
                assert_eq!(a.audit(&bad), Verdict::Rejected, "{name} seed {seed}");
            }
        }
        assert!(a.accounting_ok());
    }
}
