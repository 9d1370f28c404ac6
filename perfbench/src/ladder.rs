//! The traced run: every layer timed from outside through its public
//! functions, over the same seeded streams as the untraced workloads.
//!
//! Every traced run reports every per-layer metric. The workload named
//! on the command line gets [`OWN_SHARE`] of the time and each other
//! layer group an equal part of the rest; each group runs at least one
//! whole unit (a block, a history round, an exploration).
//!
//! Per-op means are taken over blocks (one clock pair per block, not
//! per op) and reported as the median block mean. The known-fault
//! probes (key aliasing, the oversized audit history) stay out of the
//! traced run, so its `failed` is 0; the untraced runs count them.

use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use apram_core::counter::{CounterOp, CounterResp};
use apram_core::CounterSpec;
use apram_history::check::CheckerConfig;
use apram_history::{check_histories_parallel, history_from_spans, History};
use apram_model::{AtomicPackable, MemCtx, NativeMemory, OpSpan};
use apram_objects::lwwmap::{LwwMapSpec, MapOp, MapResp};
use apram_objects::maxreg::{MaxRegOp, MaxRegResp, MaxRegSpec};
use apram_objects::spec::{decode_map_arg, native_spec, BuildCtx, OP_READ, OP_UPDATE};
use apram_serve::protocol::{read_frame, write_frame};
use apram_serve::{Client, ObjectTable, Request, Response, SlotSessions};

use crate::audit::{self, Auditor, GenHistory, Kind};
use crate::embedded;
use crate::explore;
use crate::report::{ps, Outcome, Tally, PS_PER_NS};
use crate::served::{self, scraped_requests, table_config};
use crate::stats::median_u64;
use crate::stream::{Model, Op, OpStream, KEYS, OBJECTS, SLOTS};

/// Share of the traced run given to the named workload's own layers.
pub const OWN_SHARE: f64 = 0.55;
/// Ops per timing block.
pub const BLOCK: usize = 64;
/// Served requests per traced (or untraced) block.
pub const NET_BLOCK: usize = 64;

/// The layer groups, named after the workload whose layers they are.
const GROUPS: [&str; 4] = ["served", "embedded", "audit", "explore"];

/// Median of per-block means, ps → ns.
fn med_ns(blocks: &mut [u64]) -> f64 {
    median_u64(blocks) / PS_PER_NS as f64
}

/// Time `ops` through `f` in one block; returns the mean per op (ps).
fn block_mean<T>(ops: &[T], mut f: impl FnMut(&T)) -> u64 {
    let t0 = Instant::now();
    for op in ops {
        f(op);
    }
    ps(t0.elapsed()) / ops.len().max(1) as u64
}

/// Run the traced ladder.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut out = Outcome::new(Tally::default());
    for group in GROUPS {
        let share = if group == workload {
            OWN_SHARE
        } else {
            (1.0 - OWN_SHARE) / (GROUPS.len() - 1) as f64
        };
        let budget = Duration::from_secs_f64(seconds * share);
        match group {
            "served" => served_layers(seed, budget, &mut out, &mut tally)
                .map_err(|e| format!("served layers: {e}"))?,
            "embedded" => embedded_layers(seed, budget, &mut out, &mut tally)?,
            "audit" => audit_layers(seed, budget, &mut out, &mut tally),
            _ => explore_layers(seed, budget, &mut out, &mut tally),
        }
    }
    out.tally = tally;
    Ok(out)
}

// ---------------------------------------------------------------------------
// served: loopback round trip, in-process chain, protocol codecs

/// One request over a raw stream: untraced (round trip only) or traced
/// (each client-side stage timed). Returns the round trip (ps) and the
/// reply.
fn raw_request(
    stream: &mut TcpStream,
    op: &Op,
    stages: Option<&mut [u64; 4]>,
) -> io::Result<(u64, Response)> {
    let req = op.request();
    let bad = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    match stages {
        None => {
            let t0 = Instant::now();
            write_frame(stream, &req.encode())?;
            let payload = read_frame(stream)?.ok_or_else(|| bad("closed".into()))?;
            let resp = Response::decode(&payload).map_err(|e| bad(e.to_string()))?;
            Ok((ps(t0.elapsed()), resp))
        }
        Some(st) => {
            let t0 = Instant::now();
            let bytes = req.encode();
            let t1 = Instant::now();
            write_frame(stream, &bytes)?;
            let t2 = Instant::now();
            let payload = read_frame(stream)?.ok_or_else(|| bad("closed".into()))?;
            let t3 = Instant::now();
            let resp = Response::decode(&payload).map_err(|e| bad(e.to_string()))?;
            let t4 = Instant::now();
            for (s, d) in st.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2, t4 - t3]) {
                *s += ps(d);
            }
            Ok((ps(t4 - t0), resp))
        }
    }
}

fn served_layers(
    seed: u64,
    budget: Duration,
    out: &mut Outcome,
    tally: &mut Tally,
) -> io::Result<()> {
    let deadline = Instant::now() + budget;
    let server = served::start_server()?;
    let mut stream = TcpStream::connect(server.addr())?;
    stream.set_nodelay(true)?;
    let mut model = Model::default();
    let mut ops = OpStream::all_keys(seed, 0x5E57ED);
    let mut sent = 0u64;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut stages = [0u64; 4];
    let mut block = 0usize;
    // Warm-up, then alternate untraced and traced blocks until half the
    // budget is used; the in-process layers get the other half.
    let net_deadline = Instant::now() + budget / 2;
    while block < 2 * (served::WARMUP_ROUNDS + 2) || Instant::now() < net_deadline {
        let warm = block < 2 * served::WARMUP_ROUNDS;
        let trace = !warm && block % 2 == 1;
        for _ in 0..NET_BLOCK {
            let op = ops.next_op(None);
            let (rt, resp) = raw_request(&mut stream, &op, trace.then_some(&mut stages))?;
            sent += 1;
            tally.attempted += 1;
            let want = Response::from_output(&model.apply(&op));
            if resp != want {
                tally.wrong(|| format!("traced served {op:?}: got {resp:?}, model says {want:?}"));
            }
            if !warm {
                if trace {
                    traced.push(rt)
                } else {
                    plain.push(rt)
                }
            }
        }
        block += 1;
    }
    drop(stream);
    let scraped = Client::scrape_metrics(server.addr())
        .ok()
        .and_then(|t| scraped_requests(&t));
    server.shutdown();
    if scraped != Some(sent) {
        tally.wrong(|| format!("serve_requests_total {scraped:?} after sending {sent}"));
    }
    let traced_n = traced.len().max(1) as f64;
    let roundtrip_ns = median_u64(&mut plain) / PS_PER_NS as f64;
    let traced_ns = median_u64(&mut traced) / PS_PER_NS as f64;

    // In process: the same stream through decode → execute → encode on
    // a table of the same shape, no socket.
    let table = ObjectTable::build(&table_config()).map_err(io::Error::other)?;
    let mut sessions: Vec<SlotSessions> = table.objects().iter().map(|o| o.sessions(0)).collect();
    let mut model = Model::default();
    let mut ops = OpStream::all_keys(seed, 0x5E57ED);
    let mut buf = Vec::with_capacity(BLOCK);
    let (mut chain, mut exec, mut req_codec, mut resp_codec, mut frame) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut wire: Vec<u8> = Vec::with_capacity(256);
    let mut sink = 0u64;
    while chain.is_empty() || Instant::now() < deadline {
        ops.fill(&mut buf, BLOCK, None);
        let payloads: Vec<[u8; 20]> = buf.iter().map(|op| op.request().encode()).collect();
        // The full chain; then an execute-only block on the next ops of
        // the same stream, so both see the same mix.
        let mut outs = Vec::with_capacity(BLOCK);
        chain.push(block_mean(&payloads, |p| {
            let req = Request::decode(p).expect("valid request");
            let o = sessions[req.object as usize].execute(req.opcode, req.a, req.b);
            let bytes = Response::from_output(&o).encode();
            sink = sink.wrapping_add(bytes.len() as u64);
            outs.push(o);
        }));
        for (op, o) in buf.iter().zip(&outs) {
            tally.attempted += 1;
            let want = model.apply(op);
            if *o != want {
                tally.wrong(|| format!("in-process {op:?}: got {o:?}, model says {want:?}"));
            }
        }
        // Execute only: the same kind of ops again.
        ops.fill(&mut buf, BLOCK, None);
        let mut outs = Vec::with_capacity(BLOCK);
        exec.push(block_mean(&buf, |op| {
            outs.push(sessions[op.obj as usize].execute(op.opcode, op.a, op.b));
        }));
        for (op, o) in buf.iter().zip(&outs) {
            tally.attempted += 1;
            let want = model.apply(op);
            if *o != want {
                tally.wrong(|| format!("in-process {op:?}: got {o:?}, model says {want:?}"));
            }
        }
        // Codecs and framing over the same payloads and outputs.
        req_codec.push(block_mean(&buf, |op| {
            let bytes = op.request().encode();
            let r = Request::decode(&bytes).expect("round trip");
            sink = sink.wrapping_add(r.a);
        }));
        resp_codec.push(block_mean(&outs, |o| {
            let bytes = Response::from_output(o).encode();
            let r = Response::decode(&bytes).expect("round trip");
            sink = sink.wrapping_add(r.values.len() as u64);
        }));
        let replies: Vec<Vec<u8>> = outs
            .iter()
            .map(|o| Response::from_output(o).encode())
            .collect();
        let pairs: Vec<(&[u8; 20], &Vec<u8>)> = payloads.iter().zip(&replies).collect();
        frame.push(block_mean(&pairs, |(req, resp)| {
            wire.clear();
            write_frame(&mut wire, &req[..]).expect("in-memory write");
            write_frame(&mut wire, resp).expect("in-memory write");
            let mut r = &wire[..];
            let a = read_frame(&mut r).expect("in-memory read");
            let b = read_frame(&mut r).expect("in-memory read");
            sink = sink
                .wrapping_add(a.map_or(0, |v| v.len()) as u64 + b.map_or(0, |v| v.len()) as u64);
        }));
    }
    std::hint::black_box(sink);
    let chain_ns = med_ns(&mut chain);
    out.push("server.roundtrip_ns", roundtrip_ns, "ns");
    out.push("server.inprocess_ns", chain_ns, "ns");
    out.push("server.transport_ns", roundtrip_ns - chain_ns, "ns");
    out.push(
        "server.requests_scraped",
        scraped.unwrap_or(0) as f64,
        "count",
    );
    out.push("protocol.request_codec_ns", med_ns(&mut req_codec), "ns");
    out.push("protocol.response_codec_ns", med_ns(&mut resp_codec), "ns");
    out.push("protocol.frame_ns", med_ns(&mut frame), "ns");
    out.push("table.execute_ns", med_ns(&mut exec), "ns");
    let names = [
        "client.encode_ns",
        "client.write_frame_ns",
        "client.read_frame_ns",
        "client.decode_ns",
    ];
    for (name, total) in names.iter().zip(stages) {
        out.push(*name, total as f64 / traced_n / PS_PER_NS as f64, "ns");
    }
    out.push(
        "trace.overhead_pct",
        (traced_ns / roundtrip_ns - 1.0) * 100.0,
        "%",
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// embedded: table ops per object and kind, one shard's session, the
// register file, and the two-thread run's protocol counters

/// `n` seeded ops on one object of one kind (rejection-sampled from the
/// stream, outside any timer).
fn ops_for(stream: &mut OpStream, obj: u8, read: bool, n: usize) -> Vec<Op> {
    let mut v = Vec::with_capacity(n);
    while v.len() < n {
        let op = stream.next_op(Some(read));
        if op.obj == obj {
            v.push(op);
        }
    }
    v
}

/// Per-op read and write cost of one register-file tier: process 0
/// reads and writes its own registers in a tight loop.
fn native_tier<T: Clone + Send + Sync + 'static>(
    mem: NativeMemory<T>,
    value: impl Fn(u64) -> T,
    budget: Duration,
) -> (f64, f64) {
    let mut ctx = mem.ctx(0);
    let regs = mem.n_regs();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let idx: Vec<usize> = (0..BLOCK * 4).map(|i| (i * 7) % regs).collect();
    let vals: Vec<T> = (0..BLOCK as u64 * 4).map(&value).collect();
    let deadline = Instant::now() + budget;
    let mut sink = 0usize;
    while reads.is_empty() || Instant::now() < deadline {
        writes.push(block_mean(&idx, |&r| {
            ctx.write(r, vals[r % vals.len()].clone())
        }));
        reads.push(block_mean(&idx, |&r| {
            let v = ctx.read(r);
            sink = sink.wrapping_add(std::mem::size_of_val(&v));
        }));
    }
    std::hint::black_box(sink);
    (med_ns(&mut reads), med_ns(&mut writes))
}

fn packed_mem(regs: usize) -> NativeMemory<u64>
where
    u64: AtomicPackable,
{
    NativeMemory::new_packed(SLOTS, vec![0u64; regs])
}

fn embedded_layers(
    seed: u64,
    budget: Duration,
    out: &mut Outcome,
    tally: &mut Tally,
) -> Result<(), String> {
    // A quarter of the budget each: table, spec, native, two threads.
    let part = budget / 4;
    let mut stream = OpStream::new(seed, 0xE3B0, embedded::thread_keys(0));

    // Table: SlotSessions::execute per object and kind.
    let table = ObjectTable::build(&table_config())?;
    let mut sessions: Vec<SlotSessions> = table.objects().iter().map(|o| o.sessions(0)).collect();
    let per_obj = part / OBJECTS.len() as u32;
    for (i, name) in OBJECTS.iter().enumerate() {
        let (mut r, mut u) = (Vec::new(), Vec::new());
        let deadline = Instant::now() + per_obj;
        while r.is_empty() || Instant::now() < deadline {
            let ups = ops_for(&mut stream, i as u8, false, BLOCK);
            let reads = ops_for(&mut stream, i as u8, true, BLOCK);
            let s = &mut sessions[i];
            u.push(block_mean(&ups, |op| {
                std::hint::black_box(s.execute(op.opcode, op.a, op.b));
            }));
            r.push(block_mean(&reads, |op| {
                std::hint::black_box(s.execute(op.opcode, op.a, op.b));
            }));
            tally.attempted += 2 * BLOCK as u64;
        }
        out.push(format!("table.read_ns.{name}"), med_ns(&mut r), "ns");
        out.push(format!("table.update_ns.{name}"), med_ns(&mut u), "ns");
    }

    // Spec: one shard's ObjectSession, built the way the table builds it.
    for (i, name) in OBJECTS.iter().enumerate() {
        let spec = native_spec(name).ok_or_else(|| format!("no spec '{name}'"))?;
        let inst = spec.build(&BuildCtx::new(SLOTS, spec.tiers()[0]).keys(KEYS));
        let mut sess = inst.session(0);
        let (mut r, mut u) = (Vec::new(), Vec::new());
        let deadline = Instant::now() + per_obj;
        while r.is_empty() || Instant::now() < deadline {
            let ups = ops_for(&mut stream, i as u8, false, BLOCK);
            let reads = ops_for(&mut stream, i as u8, true, BLOCK);
            u.push(block_mean(&ups, |op| {
                std::hint::black_box(sess.op(OP_UPDATE, op.a, op.b));
            }));
            r.push(block_mean(&reads, |op| {
                std::hint::black_box(sess.op(OP_READ, op.a, op.b));
            }));
            tally.attempted += 2 * BLOCK as u64;
        }
        out.push(format!("spec.read_ns.{name}"), med_ns(&mut r), "ns");
        out.push(format!("spec.update_ns.{name}"), med_ns(&mut u), "ns");
    }

    // Register file: the packed tier (counter, maxreg) and the buffered
    // multi-writer tier (the map's Option<u64> key registers).
    let (pr, pw) = native_tier(packed_mem(KEYS), |v| v, part / 2);
    let (br, bw) = native_tier(
        NativeMemory::new(SLOTS, vec![None::<u64>; KEYS]),
        Some,
        part / 2,
    );
    out.push("native.read_ns.packed", pr, "ns");
    out.push("native.write_ns.packed", pw, "ns");
    out.push("native.read_ns.buffered", br, "ns");
    out.push("native.write_ns.buffered", bw, "ns");

    // Two threads, as in the untraced workload (probes off): per-kind
    // throughput and the register file's protocol counters.
    let (table, workers) = embedded::setup(seed, false)?;
    let before: (u64, u64) = table.objects().iter().fold((0, 0), |a, o| {
        (a.0 + o.read_retries(), a.1 + o.ticket_draws())
    });
    let mut workers = embedded::drive(workers, part.as_secs_f64());
    let after: (u64, u64) = table.objects().iter().fold((0, 0), |a, o| {
        (a.0 + o.read_retries(), a.1 + o.ticket_draws())
    });
    let mut t = Tally::default();
    embedded::final_check(&mut workers, &mut t);
    let (mut reads, mut updates, mut read_rate, mut update_rate) = (0u64, 0u64, 0.0, 0.0);
    for w in &mut workers {
        reads += w.reads.0;
        updates += w.updates.0;
        read_rate += w.reads.0 as f64 / w.reads.1.as_secs_f64().max(1e-9);
        update_rate += w.updates.0 as f64 / w.updates.1.as_secs_f64().max(1e-9);
        t.merge(std::mem::take(&mut w.tally));
    }
    tally.merge(t);
    let total = (reads + updates).max(1) as f64;
    out.push("embedded.read_ops_per_s", read_rate, "1/s");
    out.push("embedded.update_ops_per_s", update_rate, "1/s");
    out.push(
        "native.read_retries_per_kop",
        (after.0 - before.0) as f64 * 1e3 / total,
        "count",
    );
    out.push(
        "native.ticket_draws_per_update",
        (after.1 - before.1) as f64 / updates.max(1) as f64,
        "count",
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// audit: recorder, drain, span pairing, history rebuild, checker

/// Rebuild a typed history from spans and check it on one thread.
/// Returns (rebuild ps, check ps, accepted).
fn rebuild_and_check(object: &str, spans: &[OpSpan]) -> (u64, u64, bool) {
    let cfg = CheckerConfig::default();
    let opt = |r: u64| (r != u64::MAX).then_some(r);
    fn timed<H>(build: impl FnOnce() -> H, check: impl FnOnce(&H) -> bool) -> (u64, u64, bool) {
        let t0 = Instant::now();
        let h = build();
        let t1 = Instant::now();
        let ok = check(&h);
        (ps(t1 - t0), ps(t1.elapsed()), ok)
    }
    let one = |ok: Vec<apram_history::CheckOutcome>| ok[0].is_ok();
    match object {
        "counter" => timed(
            || -> History<CounterOp, CounterResp> {
                history_from_spans(
                    spans,
                    |s| {
                        if s.op == OP_UPDATE {
                            CounterOp::Inc(1)
                        } else {
                            CounterOp::Read
                        }
                    },
                    |s| {
                        if s.op == OP_UPDATE {
                            CounterResp::Ack
                        } else {
                            CounterResp::Value(s.resp as i64)
                        }
                    },
                )
            },
            |h| {
                one(check_histories_parallel(
                    &CounterSpec,
                    std::slice::from_ref(h),
                    &cfg,
                    1,
                ))
            },
        ),
        "maxreg" => timed(
            || -> History<MaxRegOp, MaxRegResp> {
                history_from_spans(
                    spans,
                    |s| {
                        if s.op == OP_UPDATE {
                            MaxRegOp::WriteMax(s.arg as i64)
                        } else {
                            MaxRegOp::Read
                        }
                    },
                    |s| {
                        if s.op == OP_UPDATE {
                            MaxRegResp::Ack
                        } else {
                            MaxRegResp::Value(opt(s.resp).map(|v| v as i64))
                        }
                    },
                )
            },
            |h| {
                one(check_histories_parallel(
                    &MaxRegSpec,
                    std::slice::from_ref(h),
                    &cfg,
                    1,
                ))
            },
        ),
        _ => timed(
            || -> History<MapOp, MapResp> {
                history_from_spans(
                    spans,
                    |s| {
                        let (k, v) = decode_map_arg(s.arg);
                        if s.op == OP_UPDATE {
                            MapOp::Put(k, v)
                        } else {
                            MapOp::Get(k)
                        }
                    },
                    |s| {
                        if s.op == OP_UPDATE {
                            MapResp::Ack
                        } else {
                            MapResp::Value(opt(s.resp))
                        }
                    },
                )
            },
            |h| {
                one(check_histories_parallel(
                    &LwwMapSpec,
                    std::slice::from_ref(h),
                    &cfg,
                    1,
                ))
            },
        ),
    }
}

fn audit_layers(seed: u64, budget: Duration, out: &mut Outcome, tally: &mut Tally) {
    let mut auditor = Auditor::default();
    let mut rng = apram_model::seed::split(seed, 0xA0D1);
    let (mut record, mut drain, mut spans_t, mut rebuild, mut check, mut reject) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut ops, mut check_ops, mut reject_ops, mut histories) = (0u64, 0u64, 0u64, 0u64);
    let deadline = Instant::now() + budget;
    while histories == 0 || Instant::now() < deadline {
        let round: Vec<GenHistory> = audit::round(&mut rng)
            .into_iter()
            .filter(|h| h.kind != Kind::Oversized)
            .collect();
        for h in &round {
            let t0 = Instant::now();
            auditor.record_events(h);
            let t1 = Instant::now();
            let log = auditor.drain();
            let t2 = Instant::now();
            let spans = log.op_spans();
            let t3 = Instant::now();
            let (rb, ck, accepted) = rebuild_and_check(OBJECTS[h.object], &spans);
            record += ps(t1 - t0);
            drain += ps(t2 - t1);
            spans_t += ps(t3 - t2);
            rebuild += rb;
            ops += h.ops;
            histories += 1;
            tally.attempted += 1;
            let want = h.kind == Kind::Constructed;
            if want {
                check += ck;
                check_ops += h.ops;
            } else {
                reject += ck;
                reject_ops += h.ops;
            }
            if accepted != want || spans.len() as u64 != h.ops {
                tally.wrong(|| {
                    format!(
                        "traced audit of a {:?} {} history: accepted={accepted}",
                        h.kind, OBJECTS[h.object]
                    )
                });
            }
        }
    }
    if !auditor.accounting_ok() {
        tally.wrong(|| "traced audit recorder dropped or withheld events".into());
    }
    let per = |t: u64, n: u64| t as f64 / n.max(1) as f64 / PS_PER_NS as f64;
    out.push("flight.record_ns", per(record, ops), "ns");
    out.push("flight.drain_ns", per(drain, ops), "ns");
    out.push("flight.op_spans_ns", per(spans_t, ops), "ns");
    out.push("history.from_spans_ns", per(rebuild, ops), "ns");
    out.push("history.check_ns", per(check, check_ops), "ns");
    out.push("history.reject_ns", per(reject, reject_ops), "ns");
    out.push("history.histories", histories as f64, "count");
    out.push("history.ops", ops as f64, "count");
}

// ---------------------------------------------------------------------------
// explore: the explorer's own counters and per-step cost

fn explore_layers(seed: u64, budget: Duration, out: &mut Outcome, tally: &mut Tally) {
    let deadline = Instant::now() + budget;
    let (mut elapsed, mut visit, mut steps, mut runs) =
        (Duration::ZERO, Duration::ZERO, 0u64, 0u64);
    let mut last = None;
    while last.is_none() || Instant::now() < deadline {
        let (stats, v) = explore::explore_once(seed, explore::DEPTH, &mut Vec::new(), tally);
        elapsed += stats.elapsed;
        visit += v;
        steps += stats.executed_steps;
        runs += stats.runs;
        last = Some(stats);
    }
    let stats = last.expect("at least one exploration");
    out.push("sim.runs", stats.runs as f64, "count");
    out.push("sim.executed_steps", stats.executed_steps as f64, "count");
    out.push("sim.replayed_steps", stats.replayed_steps as f64, "count");
    out.push("sim.replay_ratio", stats.replay_ratio(), "ratio");
    out.push(
        "sim.step_ns",
        (elapsed - visit).as_nanos() as f64 / steps.max(1) as f64,
        "ns",
    );
    out.push(
        "sim.visit_ns",
        visit.as_nanos() as f64 / runs.max(1) as f64,
        "ns",
    );
}
