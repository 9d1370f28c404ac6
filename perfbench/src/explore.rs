//! `explore`: unreduced exhaustive exploration of the paper's Figure 5
//! scan (`ScanObject`, three processes, one scan each), branching on the
//! first [`DEPTH`] decision points, with the sequential explorer.
//!
//! Every explored schedule's views are checked: each contains its own
//! process's input, and every pair is comparable under inclusion (the
//! scan's defining property). Each exploration must visit exactly
//! `3^DEPTH` schedules — which holds while `DEPTH` stays within the
//! per-process step count (an optimized scan of three processes takes
//! 8 reads and 4 writes).

use std::time::{Duration, Instant};

use apram_lattice::SetUnion;
use apram_model::seed::split;
use apram_model::sim::{Budgeted, ExploreConfig, ExploreStats, ProcBody, SimBuilder, SimCtx};
use apram_snapshot::{ScanHandle, ScanObject};

use crate::report::{ps, timed, Outcome, Tally, SETUPS_AFTER, SETUPS_BEFORE};
use crate::stats::{pin_to, Windows};

/// Processes (one scan each).
pub const PROCS: usize = 3;
/// Branching depth of the exploration.
pub const DEPTH: usize = 7;
/// Branching depth of the set-up's warm-up exploration.
pub const WARMUP_DEPTH: usize = 4;

/// The scan lattice: sets of process inputs under union.
pub type View = SetUnion<u64>;

/// Distinct seeded inputs, one per process.
pub fn inputs(seed: u64) -> [u64; PROCS] {
    let mut rng = split(seed, 0x5CA7);
    let mut out = [0u64; PROCS];
    for (p, slot) in out.iter_mut().enumerate() {
        rng = split(rng, 1);
        // The low bits keep the inputs distinct whatever the seed.
        *slot = (rng << 2) | p as u64;
    }
    out
}

/// Per-run bodies: process `p` scans its input.
pub fn factory(
    obj: ScanObject,
    inputs: [u64; PROCS],
) -> impl FnMut() -> Vec<ProcBody<'static, View, View>> {
    move || {
        (0..PROCS)
            .map(|p| {
                Box::new(move |ctx: &mut SimCtx<View>| {
                    let mut h: ScanHandle<View> = ScanHandle::new(obj);
                    h.scan(ctx, View::singleton(inputs[p]))
                }) as ProcBody<'static, View, View>
            })
            .collect()
    }
}

/// The scan's properties on one schedule's views.
pub fn check_views(inputs: &[u64; PROCS], views: &[Option<View>]) -> Result<(), String> {
    let mut sets = Vec::with_capacity(views.len());
    for (p, v) in views.iter().enumerate() {
        let v = v
            .as_ref()
            .ok_or_else(|| format!("process {p} returned no view"))?;
        if !v.contains(&inputs[p]) {
            return Err(format!("view of process {p} lacks its own input: {v:?}"));
        }
        sets.push(&v.0);
    }
    for (i, a) in sets.iter().enumerate() {
        for b in &sets[i + 1..] {
            if !a.is_subset(b) && !b.is_subset(a) {
                return Err(format!("incomparable views {a:?} and {b:?}"));
            }
        }
    }
    Ok(())
}

/// Schedules one exploration at `depth` must visit.
pub fn expected_runs(depth: usize) -> u64 {
    (PROCS as u64).pow(depth as u32)
}

/// One exploration at `depth`: checks every schedule, appends the time
/// between consecutive schedules (ps) to `samples`, and returns the
/// explorer's statistics plus the time spent inside the visit check.
pub fn explore_once(
    seed: u64,
    depth: usize,
    samples: &mut Vec<u64>,
    tally: &mut Tally,
) -> (ExploreStats, Duration) {
    let obj = ScanObject::new(PROCS);
    let inputs = inputs(seed);
    let sim = SimBuilder::new(obj.registers::<View>()).owners(obj.owners());
    let cfg = ExploreConfig::new().max_depth(depth);
    let mut last = Instant::now();
    let mut visit = Duration::ZERO;
    let stats = sim.explore(&cfg, factory(obj, inputs), |out| {
        let now = Instant::now();
        samples.push(ps(now - last));
        if out.panics.iter().any(Option::is_some) {
            tally.wrong(|| format!("scan panicked: {:?}", out.panics));
        } else if let Err(e) = check_views(&inputs, &out.results) {
            tally.wrong(|| e);
        }
        last = Instant::now();
        visit += last - now;
        true
    });
    let want = expected_runs(depth);
    tally.attempted += stats.runs;
    if stats.runs != want {
        let got = stats.runs;
        tally.wrong(|| format!("exploration at depth {depth} visited {got} schedules, not {want}"));
    }
    (stats, visit)
}

/// Run the `explore` workload for `seconds`. Each exploration is one
/// measurement window.
///
/// The explorer runs each simulated process on its own OS thread and
/// hands control between them at every step, so a step costs a thread
/// wake-up. The run pins itself (and so every simulated process) to one
/// CPU: a same-core hand-off costs the same on every run, where an
/// unpinned run's figure depended on how the scheduler happened to
/// place the threads.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    pin_to(0);
    let mut tally = Tally::default();
    let mut checks = Tally::default();
    let set_up =
        |checks: &mut Tally| timed(|| explore_once(seed, WARMUP_DEPTH, &mut Vec::new(), checks)).1;
    let mut setups: Vec<f64> = (0..SETUPS_BEFORE).map(|_| set_up(&mut checks)).collect();

    let mut windows = Windows::new(Duration::ZERO);
    let mut samples = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        samples.clear();
        let (stats, _) = explore_once(seed, DEPTH, &mut samples, &mut tally);
        windows.add_ops(stats.runs);
        samples.iter().for_each(|&p| windows.sample(p));
        windows.tick(true);
    }
    setups.extend((0..SETUPS_AFTER).map(|_| set_up(&mut checks)));
    tally.merge_checks(checks);
    Outcome::end_to_end(tally, &setups, windows.medians())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_distinct() {
        for seed in 0..50 {
            let i = inputs(seed);
            assert!(i[0] != i[1] && i[1] != i[2] && i[0] != i[2]);
        }
    }

    #[test]
    fn depth_three_visits_twenty_seven_schedules() {
        let mut tally = Tally::default();
        let (stats, _) = explore_once(9, 3, &mut Vec::new(), &mut tally);
        assert_eq!(stats.runs, 27);
        assert!(tally.correct, "{:?}", tally.errors);
    }
}
