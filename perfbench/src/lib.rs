//! The repository's benchmark: four workloads from the socket down to
//! the register, and a traced run that times each layer from outside
//! through its public functions.
//!
//! * [`served`] — one tenant, one loopback connection, zipfian
//!   read/update traffic over counter, maxreg and lwwmap-direct;
//! * [`embedded`] — two threads on the sharded object table, no socket;
//! * [`audit`] — constructed and mutated histories through the flight
//!   recorder and the linearizability audit;
//! * [`explore`] — exhaustive exploration of the Figure 5 scan;
//! * [`ladder`] — the traced run: every per-layer metric.
//!
//! See `README.md` for inputs, thread counts, the layer-to-metric map
//! and the known faults the workloads count as failed.

pub mod audit;
pub mod embedded;
pub mod explore;
pub mod ladder;
pub mod report;
pub mod served;
pub mod stats;
pub mod stream;

use report::Outcome;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["served", "embedded", "audit", "explore"];

/// Run `workload` for `seconds`: the untraced end-to-end run, or with
/// `trace` the per-layer ladder.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        return ladder::run(workload, seed, seconds);
    }
    match workload {
        "served" => served::run(seed, seconds).map_err(|e| format!("served: {e}")),
        "embedded" => embedded::run(seed, seconds),
        "audit" => Ok(audit::run(seed, seconds)),
        "explore" => Ok(explore::run(seed, seconds)),
        other => Err(format!("unknown workload '{other}'")),
    }
}
