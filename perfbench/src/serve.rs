//! The `serve-full` and `serve-sampled` workloads.
//!
//! Both run the real serving stack in-process: `fg_serve::serve` on
//! loopback with `ServeConfig::default()`, against a 2-layer GCN on a
//! 20 000-vertex stochastic-block-model graph with average degree 8 and
//! 64 feature columns. Each run alternates two kinds of one-second slice:
//!
//! * **paced** — an open loop at a fixed rate on one connection, one
//!   sender and one receiver thread; every request is timed from when it
//!   was due (`latency_p50_ms`), and the generator's own lateness is reported;
//! * **capacity** — a closed loop on two connections, each keeping
//!   [`DEPTH`] pipelined requests outstanding (`throughput_per_s`).
//!
//! Throughput is the interquartile mean of the capacity slices' rates;
//! latency is the p50 over every paced request.
//!
//! `serve-full` sends text `INFER` requests for single nodes; each batch
//! answers them with one full-graph forward pass. `serve-sampled` sends
//! FGB1 binary `INFER_SEEDS` requests: 16 power-law seeds, fanout `10,5`,
//! 64 client-supplied feature columns per seed and a fresh sampler seed.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_gnn::data::SbmTask;
use fg_gnn::models::{build_model, Model};
use fg_gnn::trainer::inference;
use fg_gnn::{gather_rows, infer_batch, infer_seeds, prepare_seeds, FeatgraphBackend};
use fg_graph::{sample_subgraph, SampleConfig, VId};
use fg_serve::frame::{self, Frame, WireReply};
use fg_serve::protocol::{self, Reply, Request};
use fg_serve::{Engine, InferResponse, Phase, ServeConfig, ServerHandle, StatsSnapshot};
use fg_telemetry::{counter_value, Counter, MemComponent, MemScope};
use fg_tensor::Dense2;

use crate::load::{self, Paced};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{host, pct, rng};

const VERTICES: usize = 20_000;
const CLASSES: usize = 4;
const AVG_DEG: usize = 8;
/// Noise columns on top of the one-hot class signal: 4 + 60 = 64 features.
const NOISE_DIMS: usize = 60;
const HIDDEN: usize = 16;
const MODEL: &str = "gcn";
const SEEDS_PER_REQUEST: usize = 16;
const FANOUTS: [usize; 2] = [10, 5];
/// Closed-loop connections and requests kept outstanding on each.
const CONNS: usize = 2;
const DEPTH: usize = 8;
/// One paced slice followed by one capacity slice. The run is a train of
/// such cycles, so both end-to-end figures sample the whole run: a host
/// slowdown of a few seconds hits both alike instead of only the phase it
/// falls in.
const CYCLE: Duration = Duration::from_secs(2);
/// Share of each cycle spent in the paced slice; the rest is capacity.
const PACED_SHARE: f64 = 0.5;
/// Every `CHECK_EVERY`-th seeded reply is recomputed in-process.
const CHECK_EVERY: usize = 8;
/// Recorded requests replayed through single layers in the traced run.
const REPLAYS: usize = 200;
/// Full-graph forward passes replayed in the traced run.
const FORWARD_REPLAYS: usize = 20;

/// Request streams, so every request's inputs depend only on the run seed,
/// its stream and its index.
const STREAM_WARMUP: u64 = 0;
const STREAM_PACED: u64 = 1;
const STREAM_CAPACITY: u64 = 2;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Text `INFER`, full-graph forward per batch.
    Full,
    /// Binary `INFER_SEEDS` on sampled subgraphs.
    Sampled,
}

impl Kind {
    /// Paced-phase rate, frozen at about half of what one connection
    /// sustains at this commit on a 2-core host (see the README).
    fn rate_hz(self) -> f64 {
        match self {
            Kind::Full => 16.0,
            Kind::Sampled => 120.0,
        }
    }
}

/// Inputs of one request.
enum Params {
    Node(usize),
    Seeds {
        seeds: Vec<usize>,
        sample_seed: u64,
        feats: Dense2<f32>,
    },
}

/// One request as sent.
struct Req {
    id: String,
    params: Params,
    wire: Vec<u8>,
}

impl Req {
    fn new(kind: Kind, seed: u64, stream: u64, i: usize) -> Req {
        let mut r = rng::Rng::new(seed, stream, i as u64);
        let id = format!("s{stream}r{i}");
        let params = match kind {
            Kind::Full => Params::Node(r.below(VERTICES)),
            Kind::Sampled => {
                // Power-law popularity: squaring a uniform draw puts most
                // seeds on a hot head of low-numbered vertices.
                let seeds = (0..SEEDS_PER_REQUEST)
                    .map(|_| {
                        let u = r.unit();
                        ((VERTICES as f64 * u * u) as usize).min(VERTICES - 1)
                    })
                    .collect();
                let feats = Dense2::from_fn(SEEDS_PER_REQUEST, CLASSES + NOISE_DIMS, |_, _| {
                    (r.unit() * 2.0 - 1.0) as f32
                });
                Params::Seeds {
                    seeds,
                    sample_seed: r.next(),
                    feats,
                }
            }
        };
        let wire = match &params {
            Params::Node(node) => format!("INFER {MODEL} {node} id={id}\n").into_bytes(),
            Params::Seeds {
                seeds,
                sample_seed,
                feats,
            } => frame::encode_request(&Request::InferSeeds {
                model: MODEL.into(),
                seeds: seeds.clone(),
                fanouts: Some(FANOUTS.to_vec()),
                sample_seed: *sample_seed,
                feats: Some(feats.clone()),
                id: Some(id.clone()),
                deadline_ms: None,
            }),
        };
        Req { id, params, wire }
    }
}

/// A decoded reply, in the connection's protocol.
enum Answer {
    Text(Reply),
    Binary(WireReply),
}

impl Answer {
    fn read(kind: Kind, r: &mut BufReader<TcpStream>) -> io::Result<Answer> {
        let bad = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        match kind {
            Kind::Full => {
                let mut line = String::new();
                if r.read_line(&mut line)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                protocol::parse_reply(line.trim_end())
                    .map(Answer::Text)
                    .map_err(bad)
            }
            Kind::Sampled => {
                let f = frame::read_frame(r, false).map_err(|e| bad(e.to_string()))?;
                frame::decode_reply(&f)
                    .map(Answer::Binary)
                    .map_err(|e| bad(e.to_string()))
            }
        }
    }

    /// The echoed id and either the logits rows or the error code.
    fn parts(&self) -> (&str, Result<Vec<&[f32]>, &str>) {
        match self {
            Answer::Text(Reply::Ok { id, logits, .. }) => (id, Ok(vec![logits.as_slice()])),
            Answer::Text(Reply::Err { id, code }) => (id, Err(code)),
            Answer::Binary(WireReply::Seeds { id, resp, .. }) => (
                id,
                Ok(resp.results.iter().map(|r| r.logits.as_slice()).collect()),
            ),
            Answer::Binary(WireReply::Err { id, code, .. }) => (id, Err(code)),
            Answer::Binary(_) => ("", Err("unexpected-reply")),
        }
    }
}

/// What went wrong with the replies of a run, by kind.
#[derive(Default)]
struct Tally {
    sent: u64,
    errors: u64,
    mismatched: u64,
    wrong: u64,
    first_problem: Option<String>,
}

impl Tally {
    fn problem(&mut self, what: String) {
        self.first_problem.get_or_insert(what);
    }

    fn failed(&self) -> u64 {
        self.errors + self.mismatched + self.wrong
    }
}

/// The registered model's task and weights, rebuilt in-process from the
/// same seed for output checks and layer replays.
struct Reference {
    task: SbmTask,
    model: Box<dyn Model>,
    /// Full-graph logits (`serve-full` replies must match rows bitwise).
    logits: Dense2<f32>,
}

impl Reference {
    fn new(seed: u64) -> Reference {
        let task = task(seed);
        let model = model(seed, &task);
        let (logits, _, _) = inference(model.as_ref(), &task, &FeatgraphBackend::cpu(1), None);
        Reference {
            task,
            model,
            logits,
        }
    }
}

fn task(seed: u64) -> SbmTask {
    SbmTask::generate(VERTICES, CLASSES, AVG_DEG, NOISE_DIMS, seed)
}

fn model(seed: u64, task: &SbmTask) -> Box<dyn Model> {
    build_model(MODEL, task.in_dim(), HIDDEN, task.num_classes, seed)
}

/// Check one reply against its request. Seeded replies are checked for id
/// and shape here; a subset is recomputed in [`check_seeded`].
fn check(kind: Kind, req: &Req, ans: &Answer, reference: &Reference, tally: &mut Tally) {
    let (id, rows) = ans.parts();
    if id != req.id {
        tally.mismatched += 1;
        tally.problem(format!("reply id {id:?} for request {:?}", req.id));
        return;
    }
    let rows = match rows {
        Ok(rows) => rows,
        Err(code) => {
            tally.errors += 1;
            tally.problem(format!("request {id} answered ERR {code}"));
            return;
        }
    };
    let ok = match (&req.params, kind) {
        (Params::Node(node), Kind::Full) => {
            rows.len() == 1 && bitwise_eq(rows[0], reference.logits.row(*node))
        }
        (Params::Seeds { seeds, .. }, Kind::Sampled) => {
            let echoed = match ans {
                Answer::Binary(WireReply::Seeds { seeds: s, .. }) => s == seeds,
                _ => false,
            };
            echoed
                && rows.len() == seeds.len()
                && rows
                    .iter()
                    .all(|r| r.len() == CLASSES && r.iter().all(|v| v.is_finite()))
        }
        _ => unreachable!("request kind matches the workload"),
    };
    if !ok {
        tally.wrong += 1;
        tally.problem(format!("request {id}: wrong output"));
    }
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Engine-side inputs of a seeded request: the sampled subgraph with the
/// client's feature rows substituted for the seeds' stored rows, as the
/// engine does before its forward pass.
fn seeded_inputs(
    reference: &Reference,
    seeds: &[usize],
    sample_seed: u64,
    feats: &Dense2<f32>,
) -> (fg_graph::SampledSubgraph, fg_gnn::GnnGraph, Dense2<f32>) {
    let cfg = SampleConfig::new(FANOUTS.to_vec(), sample_seed);
    let (sub, sub_gnn) = prepare_seeds(&reference.task.graph, seeds, &cfg).expect("valid seeds");
    let mut gathered = gather_rows(&reference.task.features, sub.locals());
    for (i, &local) in sub.seed_locals().iter().enumerate() {
        gathered
            .row_mut(local as usize)
            .copy_from_slice(feats.row(i));
    }
    (sub, sub_gnn, gathered)
}

/// Recompute every `CHECK_EVERY`-th seeded reply with `prepare_seeds` +
/// `infer_seeds` on the same sampler seed and feature rows; the logits must
/// be bitwise equal and the subgraph the same size.
fn check_seeded(
    kind: Kind,
    seed: u64,
    sent: &[(u64, usize)],
    answers: &[&Answer],
    reference: &Reference,
    tally: &mut Tally,
) -> usize {
    let mut features = reference.task.features.clone();
    let mut checked = 0;
    for (&(stream, i), ans) in sent.iter().zip(answers).step_by(CHECK_EVERY) {
        let req = Req::new(kind, seed, stream, i);
        let (
            Params::Seeds {
                seeds,
                sample_seed,
                feats,
            },
            Answer::Binary(WireReply::Seeds { resp, .. }),
        ) = (&req.params, ans)
        else {
            continue;
        };
        checked += 1;
        let cfg = SampleConfig::new(FANOUTS.to_vec(), *sample_seed);
        let (sub, _) = prepare_seeds(&reference.task.graph, seeds, &cfg).expect("valid seeds");
        let backend = FeatgraphBackend::cpu_with_partitions(
            1,
            FeatgraphBackend::auto_partitions(sub.graph(), features.cols()),
        );
        // The client's rows replace the seeds' stored rows (later duplicates
        // win, as in the engine); restore them afterwards.
        let saved: Vec<Vec<f32>> = seeds.iter().map(|&s| features.row(s).to_vec()).collect();
        for (i, &s) in seeds.iter().enumerate() {
            features.row_mut(s).copy_from_slice(feats.row(i));
        }
        let want = infer_seeds(
            reference.model.as_ref(),
            &reference.task.graph,
            &features,
            &backend,
            seeds,
            &cfg,
        )
        .expect("in-process seeded inference");
        for (i, &s) in seeds.iter().enumerate().rev() {
            features.row_mut(s).copy_from_slice(&saved[i]);
        }
        let same = want.len() == resp.results.len()
            && want
                .iter()
                .zip(&resp.results)
                .all(|(w, g)| bitwise_eq(w, &g.logits))
            && resp.sub_edges == sub.num_edges()
            && resp.sub_vertices == sub.num_vertices();
        if !same {
            tally.wrong += 1;
            tally.problem(format!(
                "request {}: logits differ from in-process inference",
                req.id
            ));
        }
    }
    checked
}

/// Build, register, bind and answer one request: the timed set-up.
fn setup(kind: Kind, seed: u64) -> (ServerHandle, TcpStream) {
    let task = {
        let _mem = MemScope::enter(MemComponent::Features);
        task(seed)
    };
    let model = model(seed, &task);
    let engine = Arc::new(Engine::new(ServeConfig::default()));
    engine.register_model(MODEL, model, task.graph, task.features);
    let handle = fg_serve::serve(engine, "127.0.0.1:0").expect("bind loopback");
    let mut stream = connect(handle.addr());
    let warm = Req::new(kind, seed, STREAM_WARMUP, 0);
    stream.write_all(&warm.wire).expect("send warm-up request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let answer = Answer::read(kind, &mut reader).expect("warm-up reply");
    let (id, rows) = answer.parts();
    assert!(id == warm.id && rows.is_ok(), "warm-up request failed");
    (handle, stream)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to the server");
    s.set_nodelay(true).expect("TCP_NODELAY");
    s
}

/// Time one set-up and shut the server down again (seconds).
pub fn setup_once(kind: Kind, seed: u64) -> f64 {
    let t0 = Instant::now();
    let (handle, stream) = setup(kind, seed);
    let secs = t0.elapsed().as_secs_f64();
    drop(stream);
    handle.shutdown();
    secs
}

/// Run a serve workload for `seconds`.
pub fn run(kind: Kind, seed: u64, seconds: u64, tracer: &Tracer, out: &mut Outcome) {
    let t0 = Instant::now();
    let (handle, warm_stream) = setup(kind, seed);
    out.metric("setup_s", t0.elapsed().as_secs_f64());
    let engine = Arc::clone(handle.engine());

    let total = Duration::from_secs(seconds);
    let cycles = ((total.as_secs_f64() / CYCLE.as_secs_f64()).round() as u32).max(1);
    let paced_slice = (total / cycles).mul_f64(PACED_SHARE);
    let cap_slice = total / cycles - paced_slice;
    let interval = Duration::from_secs_f64(1.0 / kind.rate_hz());
    let per_slice = ((paced_slice.as_secs_f64() * kind.rate_hz()).round() as usize).max(1);
    // The paced slices reuse the first capacity connection (the set-up's),
    // so the generator never holds more than `CONNS` connections.
    let conns: Vec<TcpStream> = std::iter::once(warm_stream)
        .chain((1..CONNS).map(|_| connect(handle.addr())))
        .collect();

    // Requests are encoded as they are sent and not kept: the checks and
    // replays regenerate them from (stream, index), so the benchmark's own
    // bookkeeping stays out of `peak_rss_mib`.
    let stats0 = engine.stats();
    let compiles0 = counter_value(Counter::KernelCompiles);
    let mut paced = Paced::default();
    let mut capacity: Vec<load::Closed<Answer>> = (0..CONNS).map(|_| Default::default()).collect();
    let mut windows = Vec::new();
    let (mut cap_done, mut cap_batches) = (0, 0);
    let mut first_slice = None;
    for cycle in 0..cycles {
        let offset = paced.replies.len();
        let slice = load::paced(
            conns[0].try_clone().expect("clone stream"),
            per_slice,
            interval,
            |i| Req::new(kind, seed, STREAM_PACED, offset + i).wire,
            |r| Answer::read(kind, r),
        )
        .expect("paced slice");
        paced.append(slice);
        if cycle == 0 {
            // Only paced requests have reached the engine so far, so its
            // latency summary covers the same requests as the client's.
            first_slice = Some((engine.stats(), paced.latency_ms()));
        }

        let before = engine.stats();
        let start = Instant::now();
        let until = start + cap_slice;
        let slices: Vec<load::Closed<Answer>> = std::thread::scope(|s| {
            let capacity = &capacity;
            let one = move |c: usize, conn: &TcpStream| {
                let stream = STREAM_CAPACITY + c as u64;
                let offset = capacity[c].replies.len();
                load::closed(
                    conn.try_clone().expect("clone stream"),
                    DEPTH,
                    until,
                    |i| Req::new(kind, seed, stream, offset + i).wire,
                    |r| Answer::read(kind, r),
                )
                .expect("capacity slice")
            };
            let others: Vec<_> = (1..CONNS)
                .map(|c| {
                    let conn = &conns[c];
                    s.spawn(move || one(c, conn))
                })
                .collect();
            let mut all = vec![one(0, &conns[0])];
            all.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked")),
            );
            all
        });
        let after = engine.stats();
        cap_done += after.completed - before.completed;
        cap_batches += after.batches - before.batches;
        windows.push((start, until));
        for (all, slice) in capacity.iter_mut().zip(slices) {
            all.append(slice);
        }
    }
    let stats_end = engine.stats();
    let compiles = counter_value(Counter::KernelCompiles) - compiles0;
    let peak_rss = host::peak_rss_mib();
    let memory = engine.memory_report();
    drop(conns);
    drop(engine);
    handle.shutdown();
    let completed: usize = capacity.iter().map(|c| c.replies.len()).sum();
    let done: Vec<Instant> = capacity
        .iter()
        .flat_map(|c| c.done.iter().copied())
        .collect();
    let pooled_rate = load::completion_rate(&done, &windows);
    let slice_rates: Vec<f64> = windows
        .iter()
        .map(|w| load::completion_rate(&done, std::slice::from_ref(w)))
        .collect();
    let rate = pct::interquartile_mean(&slice_rates);
    for (i, (due, done)) in paced.due_and_done.iter().enumerate() {
        tracer.record("client.request", i as u64, *due, *done);
    }

    // Output checks over both phases.
    let mut sent: Vec<(u64, usize)> = (0..paced.replies.len())
        .map(|i| (STREAM_PACED, i))
        .collect();
    let mut answers: Vec<&Answer> = paced.replies.iter().collect();
    for (c, closed) in capacity.iter().enumerate() {
        sent.extend((0..closed.replies.len()).map(|i| (STREAM_CAPACITY + c as u64, i)));
        answers.extend(closed.replies.iter());
    }
    let reference = Reference::new(seed);
    let mut tally = Tally {
        sent: sent.len() as u64,
        ..Tally::default()
    };
    for (&(stream, i), ans) in sent.iter().zip(&answers) {
        check(
            kind,
            &Req::new(kind, seed, stream, i),
            ans,
            &reference,
            &mut tally,
        );
    }
    if kind == Kind::Sampled {
        let n = check_seeded(kind, seed, &sent, &answers, &reference, &mut tally);
        out.note(format!("{n} seeded replies recomputed in-process, bitwise"));
    }
    out.attempted += tally.sent;
    out.failed += tally.failed();
    out.note(format!(
        "error_rate {:.6} ratio: {} errors, {} mismatched, {} wrong of {} sent (all slices)",
        tally.failed() as f64 / tally.sent.max(1) as f64,
        tally.errors,
        tally.mismatched,
        tally.wrong,
        tally.sent
    ));
    if let Some(p) = &tally.first_problem {
        out.fail(p.clone());
    }

    // The generator fell behind when its typical send missed the schedule
    // by more than a tenth of the interval. A few late sends (the host
    // descheduling the sender) are not falling behind: they show in the
    // lateness tail, and in the latency of the requests concerned, which is
    // timed from the due time.
    let interval_ms = interval.as_secs_f64() * 1e3;
    let lateness = (
        pct::percentile(&paced.lateness_ms, 0.5),
        pct::tail(&paced.lateness_ms),
    );
    match &lateness {
        (Ok(p50), _) if p50.value > interval_ms / 10.0 => out.fail(format!(
            "generator fell behind: median lateness {p50} ms exceeds a tenth of the {interval_ms:.2} ms interval"
        )),
        (Ok(p50), Ok(tail)) => out.note(format!("generator lateness: p50 {p50} ms, tail {tail} ms")),
        (Err(e), _) | (_, Err(e)) => out.fail(format!("generator lateness: {e}")),
    }
    let latency = paced.latency_ms();
    match pct::percentile(&latency, 0.5) {
        Ok(p50) => out.set_latency(
            p50.value,
            &latency,
            &format!(
                "paced request at {} req/s, from its due time",
                kind.rate_hz()
            ),
        ),
        Err(e) => out.fail(format!("paced latency: {e}")),
    }
    out.metric("peak_rss_mib", peak_rss);
    out.metric("throughput_per_s", rate);
    out.note(format!(
        "capacity: {completed} requests on {CONNS} connections x {DEPTH} outstanding, \
         {cap_batches} batches; {rate:.2} completed/s (interquartile mean of {cycles} slices \
         of {:.2} s), pooled {pooled_rate:.2} completed/s",
        cap_slice.as_secs_f64(),
    ));

    if tracer.on() {
        layer_metrics(
            out,
            LayerInputs {
                stats0: &stats0,
                first_slice: first_slice.as_ref().expect("at least one cycle"),
                stats_end: &stats_end,
                cap_done,
                cap_batches,
                compiles,
                memory: &memory,
                lateness_ms: lateness.1.map_or(f64::NAN, |l| l.value),
            },
        );
        replay(kind, seed, &sent, &answers, &reference, tracer, out);
    }
}

/// Counters the server exports, read at the phase boundaries.
struct LayerInputs<'a> {
    stats0: &'a StatsSnapshot,
    /// The engine's stats after the first paced slice, and the client's
    /// latencies of that slice.
    first_slice: &'a (StatsSnapshot, Vec<f64>),
    stats_end: &'a StatsSnapshot,
    /// Completions and batches summed over the capacity slices.
    cap_done: u64,
    cap_batches: u64,
    compiles: u64,
    memory: &'a fg_serve::MemoryReport,
    lateness_ms: f64,
}

fn layer_metrics(out: &mut Outcome, s: LayerInputs<'_>) {
    let (engine_first, client_first) = s.first_slice;
    out.metric(
        "server.gap_ms_p50",
        pct::median(client_first) - engine_first.latency.p50_ms,
    );
    out.metric("client.lateness_ms_tail", s.lateness_ms);
    out.metric(
        "batcher.batch_size_mean",
        s.cap_done as f64 / s.cap_batches.max(1) as f64,
    );
    out.metric(
        "batcher.queue_wait_ms_p50",
        s.stats_end.phase(Phase::QueueWait).p50_ms,
    );
    out.metric(
        "engine.execute_ms_p50",
        s.stats_end.phase(Phase::Execute).p50_ms,
    );
    out.metric(
        "engine.plan_compile_ms_p50",
        s.stats_end.phase(Phase::PlanCompile).p50_ms,
    );
    out.metric("plan_cache.hit_ratio", s.stats_end.plan_hit_rate);
    let done = s.stats_end.completed - s.stats0.completed;
    out.metric(
        "core.compiles_per_request",
        s.compiles as f64 / done.max(1) as f64,
    );
    let mib = (1u64 << 20) as f64;
    out.metric("mem.accounted_mib", s.memory.total_current as f64 / mib);
    if let Some(rss) = s.memory.rss {
        out.metric(
            "mem.accounted_rss_ratio",
            s.memory.total_current as f64 / rss.current_bytes as f64,
        );
    }
}

/// Time single layers on the run's recorded messages and inputs.
fn replay(
    kind: Kind,
    seed: u64,
    sent: &[(u64, usize)],
    answers: &[&Answer],
    reference: &Reference,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let p50 = |v: &[f64]| pct::percentile(v, 0.5).map_or(f64::NAN, |p| p.value);
    let mut decode = Vec::new();
    let mut encode = Vec::new();
    for (i, (&(stream, j), ans)) in sent.iter().zip(answers).enumerate() {
        let req = Req::new(kind, seed, stream, j);
        let group = i as u64;
        match (kind, ans) {
            (Kind::Full, Answer::Text(reply)) => {
                let line = std::str::from_utf8(&req.wire)
                    .expect("ASCII request")
                    .trim_end();
                let t = Instant::now();
                {
                    let _s = tracer.span("protocol.parse", group);
                    std::hint::black_box(protocol::parse_request(line).expect("own request"));
                }
                decode.push(us(t));
                if let Reply::Ok { id, class, logits } = reply {
                    let resp = InferResponse {
                        class: *class,
                        logits: logits.clone(),
                    };
                    let t = Instant::now();
                    {
                        let _s = tracer.span("protocol.format", group);
                        std::hint::black_box(protocol::format_ok(Some(id), &resp));
                    }
                    encode.push(us(t));
                }
            }
            (Kind::Sampled, Answer::Binary(reply)) => {
                let f = Frame {
                    ty: req.wire[4],
                    payload: req.wire[frame::HEADER_LEN..].to_vec(),
                };
                let t = Instant::now();
                {
                    let _s = tracer.span("frame.decode", group);
                    std::hint::black_box(frame::decode_request(&f).expect("own request"));
                }
                decode.push(us(t));
                let t = Instant::now();
                {
                    let _s = tracer.span("frame.encode", group);
                    std::hint::black_box(frame::encode_reply(reply));
                }
                encode.push(us(t));
            }
            _ => {}
        }
    }
    let (dec, enc) = match kind {
        Kind::Full => ("protocol.parse_us_p50", "protocol.format_us_p50"),
        Kind::Sampled => ("frame.decode_us_p50", "frame.encode_us_p50"),
    };
    out.metric(dec, p50(&decode));
    out.metric(enc, p50(&encode));

    let model = reference.model.as_ref();
    let features = &reference.task.features;
    let mut forward_ms = Vec::new();
    match kind {
        Kind::Full => {
            // Warm backend, batches of two recorded nodes: the batch size
            // the handler pool allows at this commit.
            let backend = FeatgraphBackend::cpu(1);
            let graph = &reference.task.graph;
            infer_batch(model, graph, features, &backend, &[0]).expect("warm-up pass");
            for (i, pair) in sent.chunks(2).take(FORWARD_REPLAYS).enumerate() {
                let nodes: Vec<usize> = pair
                    .iter()
                    .filter_map(
                        |&(stream, j)| match Req::new(kind, seed, stream, j).params {
                            Params::Node(n) => Some(n),
                            Params::Seeds { .. } => None,
                        },
                    )
                    .collect();
                let t = Instant::now();
                {
                    let _s = tracer.span("gnn.batch_forward", i as u64);
                    infer_batch(model, graph, features, &backend, &nodes).expect("replay pass");
                }
                forward_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            out.metric("gnn.batch_forward_ms_p50", p50(&forward_ms));
        }
        Kind::Sampled => {
            let mut sample_ms = Vec::new();
            let mut sub_edges = Vec::new();
            for (i, &(stream, j)) in sent.iter().take(REPLAYS).enumerate() {
                let req = Req::new(kind, seed, stream, j);
                let Params::Seeds {
                    seeds,
                    sample_seed,
                    feats,
                } = &req.params
                else {
                    continue;
                };
                let group = i as u64;
                let seeds_v: Vec<VId> = seeds.iter().map(|&s| s as VId).collect();
                let cfg = SampleConfig::new(FANOUTS.to_vec(), *sample_seed);
                let t = Instant::now();
                let sub = {
                    let _s = tracer.span("sampling.call", group);
                    sample_subgraph(reference.task.graph.fwd(), &seeds_v, &cfg).expect("sample")
                };
                sample_ms.push(t.elapsed().as_secs_f64() * 1e3);
                sub_edges.push(sub.num_edges() as f64);

                // As the engine does per request: sample, gather, substitute
                // the client's rows, build a fresh backend, run the model.
                let t = Instant::now();
                {
                    let _s = tracer.span("gnn.seeds_forward", group);
                    let (sub, sub_gnn, gathered) =
                        seeded_inputs(reference, seeds, *sample_seed, feats);
                    let parts = FeatgraphBackend::auto_partitions(sub_gnn.fwd(), gathered.cols());
                    let backend = FeatgraphBackend::cpu_with_partitions(1, parts);
                    let locals: Vec<usize> =
                        sub.seed_locals().iter().map(|&l| l as usize).collect();
                    infer_batch(model, &sub_gnn, &gathered, &backend, &locals)
                        .expect("replay pass");
                }
                forward_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            out.metric("sampling.call_ms_p50", p50(&sample_ms));
            out.metric("sampling.sub_edges_mean", pct::mean(&sub_edges));
            out.metric("gnn.seeds_forward_ms_p50", p50(&forward_ms));
        }
    }
}
