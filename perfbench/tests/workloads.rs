//! Short runs of every workload with their checks passing, negative
//! controls showing each check can fail, and the printed metric names
//! against `BENCHMARK.json`.

use apram_objects::spec::OpOutput;
use apram_perfbench::audit::{self, Auditor, Kind};
use apram_perfbench::embedded::ThreadModel;
use apram_perfbench::explore::{self, check_views, View};
use apram_perfbench::report::Tally;
use apram_perfbench::served::{self, Session};
use apram_perfbench::stream::{Op, COUNTER, MAXREG};
use apram_serve::{OPC_READ, OPC_UPDATE};

fn assert_clean(name: &str, o: &apram_perfbench::report::Outcome) {
    assert!(o.tally.correct, "{name}: {:?}", o.tally.errors);
    assert!(o.tally.attempted > 0, "{name}");
    for m in &o.metrics {
        assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
    }
}

#[test]
fn served_short_run_passes_and_counts_the_aliasing_fault() {
    let o = served::run(3, 0.3).unwrap();
    assert_clean("served", &o);
    // One aliasing failure per round of 256 seeded + 4 probe requests.
    let rounds = o.tally.attempted / (served::ROUND_SEEDED as u64 + 4);
    assert_eq!(o.tally.failed, rounds);
    assert_eq!(o.tally.attempted % (served::ROUND_SEEDED as u64 + 4), 0);
    assert!(o.get("p99_us").unwrap() >= o.get("p50_us").unwrap());
}

#[test]
fn embedded_short_run_passes_and_counts_the_aliasing_fault() {
    let o = apram_perfbench::embedded::run(4, 0.2).unwrap();
    assert_clean("embedded", &o);
    let per_round = 2 * apram_perfbench::embedded::BLOCK as u64 + 4;
    assert_eq!(o.tally.attempted % per_round, 0);
    assert_eq!(o.tally.failed, o.tally.attempted / per_round);
}

#[test]
fn audit_short_run_passes_and_counts_oversized_histories() {
    let o = audit::run(5, 0.3);
    assert_clean("audit", &o);
    let per_round = (audit::PER_OBJECT * 3 + 1) as u64;
    assert_eq!(o.tally.attempted % per_round, 0);
    assert_eq!(o.tally.failed, o.tally.attempted / per_round);
}

#[test]
fn explore_short_run_passes() {
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    let (stats, _) = explore::explore_once(6, 4, &mut samples, &mut tally);
    assert!(tally.correct, "{:?}", tally.errors);
    assert_eq!(stats.runs, 81);
    assert_eq!(samples.len(), 81);
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let o = apram_perfbench::run("audit", 7, 0.5, true).unwrap();
    assert!(o.tally.correct, "{:?}", o.tally.errors);
    assert_eq!(o.tally.failed, 0);
    let names: Vec<String> = o.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(names, listed("per_layer"));
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let o = audit::run(8, 0.05);
    let names: Vec<String> = o.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(names, listed("end_to_end"));
}

/// Metric names `BENCHMARK.json` lists under `section`, in order.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = apram_model::json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(|s| s.as_arr())
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("named")
                .to_string()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Negative controls: each check must be able to fail.

#[test]
fn served_check_catches_an_off_by_one_model() {
    let mut tally = Tally::default();
    let mut s = Session::start(9, &mut tally).unwrap();
    assert!(tally.correct, "{:?}", tally.errors);
    s.model.counter += 1;
    s.round(&mut Vec::new(), &mut tally).unwrap();
    assert!(!tally.correct, "an off-by-one counter model must be caught");
    s.stop();
}

#[test]
fn served_reconciliation_catches_a_miscounted_request() {
    let mut tally = Tally::default();
    let mut s = Session::start(10, &mut tally).unwrap();
    s.reconcile(&mut tally);
    assert!(tally.correct, "{:?}", tally.errors);
    s.sent += 1;
    s.reconcile(&mut tally);
    assert!(!tally.correct);
    s.stop();
}

#[test]
fn embedded_check_catches_a_read_below_own_contribution() {
    let mut m = ThreadModel::default();
    let inc = Op {
        obj: COUNTER,
        opcode: OPC_UPDATE,
        a: 0,
        b: 0,
    };
    let read = Op {
        obj: COUNTER,
        opcode: OPC_READ,
        a: 0,
        b: 0,
    };
    m.update(&inc);
    m.update(&inc);
    assert!(m.read_ok(&read, &OpOutput::Val(2)));
    assert!(!m.read_ok(&read, &OpOutput::Val(1)));
    let w = Op {
        obj: MAXREG,
        opcode: OPC_UPDATE,
        a: 40,
        b: 0,
    };
    let r = Op {
        obj: MAXREG,
        opcode: OPC_READ,
        a: 0,
        b: 0,
    };
    m.update(&w);
    assert!(!m.read_ok(&r, &OpOutput::Opt(Some(39))));
    assert!(!m.read_ok(&r, &OpOutput::Opt(None)));
}

#[test]
fn explore_check_catches_a_swapped_scan_view() {
    // A chain of views as a scan returns them (process i saw inputs
    // 0..=i); swapping two hands one process a view without its own
    // input.
    let inputs = explore::inputs(11);
    let mut caught = 0;
    for (p, q) in [(0usize, 1usize), (0, 2), (1, 2)] {
        let mut views: Vec<Option<View>> = (0..3)
            .map(|i| Some(View::from_iter(inputs[..=i].iter().copied())))
            .collect();
        assert!(check_views(&inputs, &views).is_ok());
        views.swap(p, q);
        if check_views(&inputs, &views).is_err() {
            caught += 1;
        }
    }
    assert_eq!(caught, 3, "every swap of a chain's views must be caught");
    // Incomparable views are caught too.
    let views = vec![
        Some(View::from_iter([inputs[0], inputs[1]])),
        Some(View::from_iter([inputs[1]])),
        Some(View::from_iter([inputs[2], inputs[0]])),
    ];
    assert!(check_views(&inputs, &views).is_err());
}

#[test]
fn audit_check_catches_an_unmutated_impossible_history() {
    let mut a = Auditor::default();
    let mut tally = Tally::default();
    // Labelled impossible, but the mutation was left out: the audit
    // accepts it, and the verdict check must flag that.
    let h = audit::generate(1, 40, 12, false, Kind::Mutated);
    audit::audit_round(&mut a, &[h], &mut Vec::new(), &mut tally);
    assert!(!tally.correct);
    assert_eq!(tally.failed, 0);
}
