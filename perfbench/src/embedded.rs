//! `embedded`: two threads, each holding its own slot, drive the three
//! objects through `ObjectTable` sessions with no socket.
//!
//! Each thread alternates a block of reads and a block of updates
//! (replayed from a small seeded buffer), then runs its aliasing probe.
//! A counter or max-register read merges every shard; an update touches
//! the thread's affinity shard only.

use std::thread;
use std::time::{Duration, Instant};

use apram_objects::spec::OpOutput;
use apram_serve::{ObjectTable, SlotSessions};

use crate::report::{ps, timed, Outcome, Tally, SETUPS_AFTER, SETUPS_BEFORE};
use crate::served::table_config;
use crate::stats::{pin_to, Windows};
use crate::stream::{
    probe_ops, Op, OpStream, CAPACITY, COUNTER, DRAW_KEYS, MAP, MAXREG, PROBE_FAILING_OP,
    PROBE_PAIRS,
};

/// Worker threads (one slot each).
pub const THREADS: usize = 2;
/// Ops per read block and per update block.
pub const BLOCK: usize = 256;
/// Ops per latency sample: each sample is the mean over this many ops,
/// so the clock is read once per sub-block rather than once per op.
pub const SUB_BLOCK: usize = 32;
/// Warm-up rounds per thread in each set-up.
pub const WARMUP_ROUNDS: usize = 64;
/// Width of a measurement window.
pub const WINDOW: Duration = Duration::from_millis(250);

/// The map keys thread `t` owns: bit 1 of the key picks the thread, so
/// each thread's keys spread over both shards, and each thread's probe
/// pair (both keys of an aliased pair) is its own.
pub fn thread_keys(t: usize) -> Vec<u64> {
    (0..DRAW_KEYS)
        .filter(|k| ((k >> 1) & 1) as usize == t)
        .collect()
}

/// What one thread knows for certain about the objects: its own
/// contributions, and exact values for its own map keys.
#[derive(Clone, Debug)]
pub struct ThreadModel {
    /// Increments this thread applied.
    pub incs: u64,
    /// Largest value this thread wrote to the max-register.
    pub max: Option<u64>,
    /// Values of this thread's own map keys.
    pub map: Vec<Option<u64>>,
}

impl Default for ThreadModel {
    fn default() -> Self {
        ThreadModel {
            incs: 0,
            max: None,
            map: vec![None; CAPACITY as usize],
        }
    }
}

impl ThreadModel {
    /// Apply an update to the model.
    pub fn update(&mut self, op: &Op) {
        match op.obj {
            COUNTER => self.incs += 1,
            MAXREG => self.max = Some(self.max.map_or(op.a, |m| m.max(op.a))),
            _ => self.map[op.a as usize] = Some(op.b),
        }
    }

    /// Whether a read's output is consistent with what this thread
    /// itself did (its own map keys are exact).
    pub fn read_ok(&self, op: &Op, out: &OpOutput) -> bool {
        match (op.obj, out) {
            (COUNTER, OpOutput::Val(v)) => *v >= self.incs,
            (MAXREG, OpOutput::Opt(v)) => match self.max {
                Some(m) => v.is_some_and(|v| v >= m),
                None => true,
            },
            (MAP, OpOutput::Opt(v)) => *v == self.map[op.a as usize],
            _ => false,
        }
    }
}

/// One thread's sessions, stream, model and measurements.
pub struct Worker {
    /// Per-object sessions for this thread's slot.
    pub sessions: Vec<SlotSessions>,
    /// Seeded op stream over this thread's keys.
    pub stream: OpStream,
    /// What this thread knows.
    pub model: ThreadModel,
    /// The aliased key pair this thread probes, if probing.
    pub probe: Option<(u64, u64)>,
    /// Accounting.
    pub tally: Tally,
    /// Throughput and per-op latency (sub-block means) by window.
    pub windows: Windows,
    /// Reads and time spent in read blocks.
    pub reads: (u64, Duration),
    /// Updates and time spent in update blocks.
    pub updates: (u64, Duration),
    buf: Vec<Op>,
    outs: Vec<OpOutput>,
}

impl Worker {
    /// Thread `t`'s worker on `table`.
    pub fn new(table: &ObjectTable, seed: u64, t: usize) -> Worker {
        Worker {
            sessions: table.objects().iter().map(|o| o.sessions(t)).collect(),
            stream: OpStream::new(seed, 0xE3B0 + t as u64, thread_keys(t)),
            model: ThreadModel::default(),
            probe: Some(PROBE_PAIRS[t]),
            tally: Tally::default(),
            windows: Windows::new(WINDOW),
            reads: (0, Duration::ZERO),
            updates: (0, Duration::ZERO),
            buf: Vec::with_capacity(BLOCK),
            outs: Vec::with_capacity(SUB_BLOCK),
        }
    }

    fn exec(&mut self, op: &Op) -> OpOutput {
        self.sessions[op.obj as usize].execute(op.opcode, op.a, op.b)
    }

    /// One timed block of reads or updates; checks run outside the
    /// timed sub-blocks.
    fn block(&mut self, read: bool) {
        self.stream.fill(&mut self.buf, BLOCK, Some(read));
        let ops = std::mem::take(&mut self.buf);
        let mut spent = Duration::ZERO;
        for chunk in ops.chunks(SUB_BLOCK) {
            self.outs.clear();
            let t0 = Instant::now();
            for op in chunk {
                let out = self.exec(op);
                self.outs.push(out);
            }
            let dt = t0.elapsed();
            spent += dt;
            self.windows.sample(ps(dt) / chunk.len() as u64);
            for (op, out) in chunk.iter().zip(&self.outs) {
                if read {
                    if !self.model.read_ok(op, out) {
                        let m = &self.model;
                        self.tally.wrong(|| {
                            format!(
                                "embedded read {op:?} returned {out:?}; own incs {} own max {:?}",
                                m.incs, m.max
                            )
                        });
                    }
                } else {
                    self.model.update(op);
                    if *out != OpOutput::Val(0) {
                        self.tally
                            .wrong(|| format!("embedded update {op:?} returned {out:?}"));
                    }
                }
            }
        }
        self.buf = ops;
        self.tally.attempted += BLOCK as u64;
        if read {
            self.reads.0 += BLOCK as u64;
            self.reads.1 += spent;
        } else {
            self.updates.0 += BLOCK as u64;
            self.updates.1 += spent;
        }
    }

    /// The aliasing probe: put both keys of the pair, read both back.
    fn probe(&mut self) {
        let Some(pair) = self.probe else {
            return;
        };
        for (i, op) in probe_ops(pair).iter().enumerate() {
            let out = self.exec(op);
            self.tally.attempted += 1;
            let ok = if op.is_read() {
                self.model.read_ok(op, &out)
            } else {
                self.model.update(op);
                out == OpOutput::Val(0)
            };
            if !ok {
                if i == PROBE_FAILING_OP {
                    self.tally.failed += 1;
                } else {
                    self.tally
                        .wrong(|| format!("embedded probe {op:?} returned {out:?}"));
                }
            }
        }
    }

    /// One round: a read block, an update block, the probe (if set).
    pub fn round(&mut self) {
        let before = self.tally.attempted;
        self.block(true);
        self.block(false);
        self.probe();
        self.windows.add_ops(self.tally.attempted - before);
        self.windows.tick(false);
    }

    /// Forget measurements (after warm-up), keeping the model.
    pub fn reset_measurements(&mut self) {
        self.tally.attempted = 0;
        self.tally.failed = 0;
        self.windows = Windows::new(WINDOW);
        self.reads = (0, Duration::ZERO);
        self.updates = (0, Duration::ZERO);
    }
}

/// Build the table and both workers, warmed up.
/// Without `probes`, rounds skip the aliasing probe.
pub fn setup(seed: u64, probes: bool) -> Result<(ObjectTable, Vec<Worker>), String> {
    let table = ObjectTable::build(&table_config())?;
    let mut workers: Vec<Worker> = (0..THREADS).map(|t| Worker::new(&table, seed, t)).collect();
    for w in &mut workers {
        if !probes {
            w.probe = None;
        }
        for _ in 0..WARMUP_ROUNDS {
            w.round();
        }
        w.reset_measurements();
    }
    Ok((table, workers))
}

/// Run every worker on its own thread (thread `t` pinned to the `t`-th
/// allowed CPU from the last) for `seconds`, whole rounds only.
pub fn drive(workers: Vec<Worker>, seconds: f64) -> Vec<Worker> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(t, mut w)| {
                s.spawn(move || {
                    pin_to(t);
                    w.windows = Windows::new(WINDOW);
                    while Instant::now() < deadline {
                        w.round();
                    }
                    if w.windows.closed.is_empty() {
                        w.windows.tick(true);
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("embedded worker panicked"))
            .collect::<Vec<_>>()
    })
}

/// After both threads joined: the counter equals every increment, the
/// max-register the largest value written, and each thread's own keys
/// (probe keys aside) hold exactly what it last wrote.
pub fn final_check(workers: &mut [Worker], tally: &mut Tally) {
    let incs: u64 = workers.iter().map(|w| w.model.incs).sum();
    let max = workers.iter().filter_map(|w| w.model.max).max();
    let w0 = &mut workers[0];
    let got = w0.exec(&Op {
        obj: COUNTER,
        opcode: apram_serve::OPC_READ,
        a: 0,
        b: 0,
    });
    if got != OpOutput::Val(incs) {
        tally.wrong(|| format!("final counter read {got:?}, {incs} incs applied"));
    }
    let got = w0.exec(&Op {
        obj: MAXREG,
        opcode: apram_serve::OPC_READ,
        a: 0,
        b: 0,
    });
    if got != OpOutput::Opt(max) {
        tally.wrong(|| format!("final maxreg read {got:?}, largest write {max:?}"));
    }
    for t in 0..workers.len() {
        for k in thread_keys(t) {
            let want = workers[t].model.map[k as usize];
            let op = Op {
                obj: MAP,
                opcode: apram_serve::OPC_READ,
                a: k,
                b: 0,
            };
            let got = workers[0].exec(&op);
            if got != OpOutput::Opt(want) {
                tally.wrong(|| format!("final map get({k}) {got:?}, thread {t} wrote {want:?}"));
            }
        }
    }
}

/// Run the `embedded` workload for `seconds`.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS_BEFORE {
        drop(built.take());
        let (b, t) = timed(|| setup(seed, true));
        built = Some(b?);
        setups.push(t);
    }
    let (_table, workers) = built.expect("at least one set-up");
    let mut workers = drive(workers, seconds);

    let mut tally = Tally::default();
    final_check(&mut workers, &mut tally);
    let mut windows = Vec::new();
    for w in workers {
        tally.merge(w.tally);
        windows.push(w.windows);
    }
    for _ in 0..SETUPS_AFTER {
        let (b, t) = timed(|| setup(seed, true));
        for w in b?.1 {
            tally.merge_checks(w.tally);
        }
        setups.push(t);
    }
    Ok(Outcome::end_to_end(
        tally,
        &setups,
        Windows::parallel_medians(&windows),
    ))
}
