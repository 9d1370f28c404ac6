//! `served`: one tenant on one loopback connection, a closed loop of
//! zipfian read/update requests over the three objects, every reply
//! checked against the sequential model.
//!
//! One client thread and one server worker are busy; the server's
//! accept loop sleeps. At the end the server is scraped over HTTP and
//! its `serve_requests_total` must equal the requests this client sent.

use std::time::{Duration, Instant};

use apram_model::telemetry::validate_prometheus;
use apram_serve::{serve, Client, Response, ServeConfig, ServerHandle, TableConfig};

use crate::report::{ps, timed, Outcome, Tally, SETUPS_AFTER, SETUPS_BEFORE};
use crate::stats::{pin_to, Windows};
use crate::stream::{
    probe_ops, Model, Op, OpStream, KEYS, OBJECTS, PROBE_FAILING_OP, PROBE_PAIRS, SHARDS, SLOTS,
};

/// Seeded requests per round (followed by the four probe requests).
pub const ROUND_SEEDED: usize = 256;
/// Rounds of warm-up in each set-up (builds the lazy slot sessions).
pub const WARMUP_ROUNDS: usize = 8;
/// Width of a measurement window.
pub const WINDOW: Duration = Duration::from_millis(250);

/// The served table: the three objects, [`SHARDS`] shards,
/// [`SLOTS`] slots and [`KEYS`] key slots per map shard.
pub fn table_config() -> TableConfig {
    let mut cfg = TableConfig::new(&OBJECTS, SHARDS, SLOTS);
    cfg.keys = KEYS;
    cfg
}

/// A live server, one connected tenant, and the model of what it must
/// answer.
pub struct Session {
    /// The running server.
    pub server: ServerHandle,
    /// The tenant's connection.
    pub client: Client,
    /// The benchmark's model of the objects.
    pub model: Model,
    /// The tenant's seeded op stream.
    pub stream: OpStream,
    /// Requests sent on this server so far.
    pub sent: u64,
}

impl Session {
    /// Start a server, connect, and warm up.
    pub fn start(seed: u64, tally: &mut Tally) -> std::io::Result<Session> {
        let server = start_server()?;
        let client = Client::connect(server.addr())?;
        let mut s = Session {
            server,
            client,
            model: Model::default(),
            stream: OpStream::all_keys(seed, 0x5E57ED),
            sent: 0,
        };
        for _ in 0..WARMUP_ROUNDS {
            s.round(&mut Vec::new(), tally)?;
        }
        Ok(s)
    }

    /// Send one op, check the reply, and return its round-trip time
    /// (ps).
    fn request(&mut self, op: &Op, probe_fail: bool, tally: &mut Tally) -> std::io::Result<u64> {
        let t0 = Instant::now();
        let resp = self.client.op(op.opcode, op.obj, op.a, op.b)?;
        let dt = ps(t0.elapsed());
        self.sent += 1;
        tally.attempted += 1;
        let want = Response::from_output(&self.model.apply(op));
        if resp != want {
            if probe_fail {
                // The named key-aliasing fault: counted, not a wrong
                // answer to seeded traffic.
                tally.failed += 1;
            } else {
                tally.wrong(|| format!("served {op:?}: got {resp:?}, model says {want:?}"));
            }
        }
        Ok(dt)
    }

    /// One round: [`ROUND_SEEDED`] seeded requests, then the aliasing
    /// probe. Round-trip times (ps) are appended to `samples`.
    pub fn round(&mut self, samples: &mut Vec<u64>, tally: &mut Tally) -> std::io::Result<()> {
        for _ in 0..ROUND_SEEDED {
            let op = self.stream.next_op(None);
            samples.push(self.request(&op, false, tally)?);
        }
        for (i, op) in probe_ops(PROBE_PAIRS[0]).iter().enumerate() {
            samples.push(self.request(op, i == PROBE_FAILING_OP, tally)?);
        }
        Ok(())
    }

    /// Scrape `/metrics` and reconcile it with the requests sent.
    pub fn reconcile(&self, tally: &mut Tally) {
        let text = match Client::scrape_metrics(self.server.addr()) {
            Ok(t) => t,
            Err(e) => {
                tally.wrong(|| format!("metrics scrape failed: {e}"));
                return;
            }
        };
        if let Err(e) = validate_prometheus(&text) {
            tally.wrong(|| format!("metrics scrape is not valid Prometheus text: {e}"));
        }
        let total = scraped_requests(&text);
        if total != Some(self.sent) {
            let sent = self.sent;
            tally.wrong(|| format!("serve_requests_total is {total:?}, client sent {sent}"));
        }
    }

    /// Close the connection and stop the server.
    pub fn stop(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// Start a server for the served table with its threads pinned to one
/// CPU, and pin the calling (client) thread to another. Every request
/// then crosses the same two cores. Left to the scheduler, client and
/// server sometimes shared a core and sometimes not, and throughput
/// ranged 12.8k–29.5k requests/s across seeds; pinned, within 4%.
pub fn start_server() -> std::io::Result<ServerHandle> {
    pin_to(0);
    let server = serve(&ServeConfig::local(table_config()));
    pin_to(1);
    server
}

/// The value of the unlabelled `serve_requests_total` sample.
pub fn scraped_requests(text: &str) -> Option<u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix("serve_requests_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as u64)
}

/// Run the `served` workload for `seconds`.
pub fn run(seed: u64, seconds: f64) -> std::io::Result<Outcome> {
    let mut tally = Tally::default();
    let mut checks = Tally::default();
    let mut setups = Vec::new();
    let mut session: Option<Session> = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some(old) = session.take() {
            old.stop();
        }
        let (s, t) = timed(|| Session::start(seed, &mut checks));
        session = Some(s?);
        setups.push(t);
    }
    let mut s = session.expect("at least one set-up");

    let mut windows = Windows::new(WINDOW);
    let mut samples = Vec::with_capacity(ROUND_SEEDED + 4);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        samples.clear();
        s.round(&mut samples, &mut tally)?;
        windows.add_ops(samples.len() as u64);
        samples.iter().for_each(|&p| windows.sample(p));
        windows.tick(false);
    }
    windows.tick(true);
    s.reconcile(&mut tally);
    s.stop();
    for _ in 0..SETUPS_AFTER {
        let (s, t) = timed(|| Session::start(seed, &mut checks));
        s?.stop();
        setups.push(t);
    }
    tally.merge_checks(checks);
    Ok(Outcome::end_to_end(tally, &setups, windows.medians()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_parser_reads_the_unlabelled_total() {
        let text = "# TYPE serve_requests_total counter\nserve_requests_total 1234\nother 5\n";
        assert_eq!(scraped_requests(text), Some(1234));
        assert_eq!(scraped_requests("nothing 1\n"), None);
    }
}
