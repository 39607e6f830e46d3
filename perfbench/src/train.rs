//! The `train` workload: offline full-graph training of GCN and GAT on the
//! FeatGraph CPU backend, with no server.
//!
//! The task is `fgbench table6 --scale 12`'s: a stochastic-block-model
//! stand-in for reddit with 233 000 / 12 vertices, 8 classes, average
//! degree 40 and hidden width 64. The epoch loop is the benchmark's own,
//! over `fg_gnn`'s public API (`Tape`, `Model::forward`, the loss,
//! `Tape::backward`, `Optimizer::update`), so the traced run can put a span
//! around each step.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use fg_check::tolerance::{compare_slices, Tolerance};
use fg_gnn::backend::Dir;
use fg_gnn::data::SbmTask;
use fg_gnn::loss::{accuracy, softmax_cross_entropy};
use fg_gnn::models::{build_model, Model};
use fg_gnn::nn::Optimizer;
use fg_gnn::trainer::inference;
use fg_gnn::{FeatgraphBackend, GnnGraph, GraphBackend, NaiveBackend, Tape};
use fg_tensor::Dense2;

use crate::report::Outcome;
use crate::timed::{self, TimedBackend, FUSED, SDDMM, SPMM};
use crate::trace::Tracer;
use crate::{host, pct};

/// Vertices of the table6 task at `--scale 12`.
const VERTICES: usize = 233_000 / 12;
const CLASSES: usize = 8;
const AVG_DEG: usize = 40;
const NOISE_DIMS: usize = 8;
const HIDDEN: usize = 64;
const MODELS: [&str; 2] = ["gcn", "gat"];
const LEARNING_RATE: f32 = 0.01;
/// The output check runs on the models as they were after this many timed
/// rounds, so its inputs do not depend on how fast the host trained.
const CHECK_ROUNDS: usize = 10;
/// Timed rounds run whatever `--seconds` says: enough for the check and
/// for a round-time tail with [`pct::MIN_BEYOND`] samples beyond it, so a
/// slower program is measured rather than refused.
const MIN_ROUNDS: usize = 2 * pct::MIN_BEYOND;
/// Repetitions of the host bandwidth probe (best one counts).
const STREAM_REPS: usize = 3;

/// One trained model with its optimizer step count.
struct Trainee {
    model: Box<dyn Model>,
    step: usize,
}

/// One training epoch; returns the loss.
fn epoch(
    t: &mut Trainee,
    task: &SbmTask,
    backend: &dyn GraphBackend,
    tracer: &Tracer,
    id: u64,
) -> f64 {
    let _epoch = tracer.span("gnn.epoch", id);
    t.step += 1;
    let mut tape = Tape::new(&task.graph, backend, None);
    let x = tape.leaf(task.features.clone());
    let (logits, pvars) = {
        let _s = tracer.span("gnn.forward", id);
        t.model.forward(&mut tape, x)
    };
    let (loss, grad) = {
        let _s = tracer.span("gnn.loss", id);
        softmax_cross_entropy(tape.value(logits), &task.labels, &task.train_mask)
    };
    {
        let _s = tracer.span("gnn.backward", id);
        tape.backward(logits, grad);
    }
    {
        let _s = tracer.span("gnn.update", id);
        let grads: Vec<Dense2<f32>> = pvars.iter().map(|&v| tape.grad(v)).collect();
        let opt = Optimizer::adam(LEARNING_RATE);
        for (param, g) in t.model.params().into_iter().zip(&grads) {
            opt.update(param, g, t.step);
        }
    }
    loss
}

/// Generate the task, build both models and run each model's first epoch,
/// which compiles its kernel plans.
fn setup(seed: u64, backend: &dyn GraphBackend, tracer: &Tracer) -> (SbmTask, Vec<Trainee>) {
    let task = SbmTask::generate(VERTICES, CLASSES, AVG_DEG, NOISE_DIMS, seed);
    let mut trainees: Vec<Trainee> = MODELS
        .iter()
        .map(|name| Trainee {
            model: build_model(name, task.in_dim(), HIDDEN, task.num_classes, seed),
            step: 0,
        })
        .collect();
    for t in &mut trainees {
        epoch(t, &task, backend, tracer, 0);
    }
    (task, trainees)
}

/// Time one set-up on a fresh backend, untraced (seconds).
pub fn setup_once(seed: u64) -> f64 {
    let t0 = Instant::now();
    let untraced = Tracer::new(false);
    let backend = TimedBackend::new(FeatgraphBackend::cpu(1), &untraced);
    std::hint::black_box(setup(seed, &backend, &untraced));
    t0.elapsed().as_secs_f64()
}

/// Run the workload for `seconds` of timed training.
pub fn run(seed: u64, seconds: u64, tracer: &Tracer, out: &mut Outcome) {
    let t0 = Instant::now();
    let backend = TimedBackend::new(FeatgraphBackend::cpu(1), tracer);
    let (task, mut trainees) = setup(seed, &backend, tracer);
    out.metric("setup_s", t0.elapsed().as_secs_f64());

    // Timed epochs: one epoch of each model per round until time is up.
    let bytes_before = backend.spmm_bytes();
    let mark = tracer.mark();
    let mut epochs = Vec::new();
    let mut rounds_ms = Vec::new();
    let start = Instant::now();
    let until = start + Duration::from_secs(seconds);
    let mut id = 1;
    let mut checked_state = Vec::new();
    while Instant::now() < until || rounds_ms.len() < MIN_ROUNDS.max(CHECK_ROUNDS) {
        let round = Instant::now();
        for t in &mut trainees {
            backend.set_group(id);
            epochs.push(epoch(t, &task, &backend, tracer, id));
            id += 1;
        }
        rounds_ms.push(round.elapsed().as_secs_f64() * 1e3);
        if rounds_ms.len() == CHECK_ROUNDS {
            checked_state = trainees.iter_mut().map(snapshot).collect();
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = host::peak_rss_mib();
    let spmm_bytes = backend.spmm_bytes() - bytes_before;

    out.attempted += epochs.len() as u64;
    out.failed += epochs.iter().filter(|loss| !loss.is_finite()).count() as u64;
    let n_epochs = epochs.len() as f64;
    out.metric("throughput_per_s", n_epochs / wall);
    out.set_latency(
        pct::interquartile_mean(&rounds_ms),
        &rounds_ms,
        "training round (one epoch of each model; interquartile mean of the rounds)",
    );
    out.metric("peak_rss_mib", peak_rss);
    out.note(format!(
        "task: {} vertices, {} edges, hidden {HIDDEN}; {} rounds of {:?} in {wall:.2} s",
        task.graph.num_vertices(),
        task.graph.num_edges(),
        rounds_ms.len(),
        MODELS
    ));

    if tracer.on() {
        // Only the timed epochs' spans count toward the per-epoch layers; the
        // output check below runs after these are read.
        let per_epoch =
            |name: &str| tracer.durations_ms_since(mark, name).iter().sum::<f64>() / n_epochs;
        let self_per_epoch =
            |name: &str| tracer.self_ms_since(mark, name).iter().sum::<f64>() / n_epochs;
        let calls = |name: &str| tracer.durations_ms_since(mark, name).len() as f64 / n_epochs;
        out.metric("gnn.forward_ms", per_epoch("gnn.forward"));
        out.metric("gnn.backward_ms", per_epoch("gnn.backward"));
        out.metric("gnn.update_ms", per_epoch("gnn.update"));
        out.metric(
            "gnn.dense_self_ms",
            self_per_epoch("gnn.forward") + self_per_epoch("gnn.backward"),
        );
        let spmm_ms = per_epoch(SPMM);
        out.metric("core.spmm_ms", spmm_ms);
        out.metric("core.spmm_calls", calls(SPMM));
        out.metric("core.sddmm_ms", per_epoch(SDDMM));
        out.metric("core.sddmm_calls", calls(SDDMM));
        let spmm_gbps = spmm_bytes as f64 / (spmm_ms * n_epochs / 1e3) / 1e9;
        out.metric("core.spmm_gbps", spmm_gbps);
        out.metric(
            "core.compile_ms",
            timed::compile_ms(&task.graph, &task.features),
        );
        let stream = host::stream_triad(STREAM_REPS);
        out.note(format!(
            "host bandwidth probe: STREAM triad, 3 arrays of {} MiB each, sized against {} MiB \
             of summed last-level cache",
            stream.array_bytes >> 20,
            stream.llc_bytes >> 20
        ));
        out.metric("host.stream_gbps", stream.gbps);
        out.metric("core.spmm_roofline_frac", spmm_gbps / stream.gbps);
        out.metric(
            "mem.accounted_mib",
            fg_telemetry::mem_total_current() as f64 / (1 << 20) as f64,
        );
        out.metric(
            "mem.accounted_rss_ratio",
            fg_telemetry::mem_total_current() as f64 / (host::rss_mib() * (1 << 20) as f64),
        );
    }

    // Training runs only the unfused, differentiable attention chain; the
    // fused kernel runs on the inference pass of the output check, which the
    // traced run times through the same decorator.
    let fused_mark = tracer.mark();
    check_outputs(seed, &task, &checked_state, &backend, out);
    if tracer.on() {
        let gat_passes = MODELS.iter().filter(|&&m| m == "gat").count() as f64;
        let fused_ms = tracer.durations_ms_since(fused_mark, FUSED);
        out.metric(
            "core.fused_attention_ms",
            fused_ms.iter().sum::<f64>() / gat_passes,
        );
        out.metric(
            "core.fused_attention_calls",
            fused_ms.len() as f64 / gat_passes,
        );
    }
}

/// Parameter values of a model, in `Model::params` order.
fn snapshot(t: &mut Trainee) -> Vec<Dense2<f32>> {
    t.model
        .params()
        .into_iter()
        .map(|p| p.value.clone())
        .collect()
}

/// Runs every graph kernel on FeatGraph and on the naive backend, returns
/// FeatGraph's output and keeps the first one that differs from the naive
/// output beyond fgcheck's loose tolerance. fgcheck compares single kernels
/// the same way; comparing only the final logits would hold a whole model's
/// compounded rounding to a one-kernel bound.
struct Checked<'a> {
    fast: &'a dyn GraphBackend,
    naive: NaiveBackend,
    first: Mutex<Option<String>>,
}

impl Checked<'_> {
    fn pick(&self, op: &str, fast: Dense2<f32>, naive: Dense2<f32>) -> Dense2<f32> {
        if let Some(m) = compare_slices(naive.as_slice(), fast.as_slice(), Tolerance::loose()) {
            self.first
                .lock()
                .expect("mismatch slot poisoned")
                .get_or_insert(format!("{op}: {m}"));
        }
        fast
    }
}

impl GraphBackend for Checked<'_> {
    fn name(&self) -> &'static str {
        "checked"
    }

    fn weighted_spmm(
        &self,
        g: &GnnGraph,
        dir: Dir,
        x: &Dense2<f32>,
        w: Option<&Dense2<f32>>,
    ) -> Dense2<f32> {
        let f = self.fast.weighted_spmm(g, dir, x, w);
        self.pick("weighted_spmm", f, self.naive.weighted_spmm(g, dir, x, w))
    }

    fn mean_spmm(&self, g: &GnnGraph, x: &Dense2<f32>) -> Dense2<f32> {
        let f = self.fast.mean_spmm(g, x);
        self.pick("mean_spmm", f, self.naive.mean_spmm(g, x))
    }

    fn sddmm_dot(&self, g: &GnnGraph, a: &Dense2<f32>, b: &Dense2<f32>) -> Dense2<f32> {
        let f = self.fast.sddmm_dot(g, a, b);
        self.pick("sddmm_dot", f, self.naive.sddmm_dot(g, a, b))
    }

    fn sddmm_add(&self, g: &GnnGraph, a: &Dense2<f32>, b: &Dense2<f32>) -> Dense2<f32> {
        let f = self.fast.sddmm_add(g, a, b);
        self.pick("sddmm_add", f, self.naive.sddmm_add(g, a, b))
    }

    fn edge_sum(&self, g: &GnnGraph, dir: Dir, e: &Dense2<f32>) -> Dense2<f32> {
        let f = self.fast.edge_sum(g, dir, e);
        self.pick("edge_sum", f, self.naive.edge_sum(g, dir, e))
    }

    fn fused_attention(
        &self,
        g: &GnnGraph,
        x: &Dense2<f32>,
        sl: &Dense2<f32>,
        sr: &Dense2<f32>,
        slope: f32,
    ) -> Dense2<f32> {
        let f = self.fast.fused_attention(g, x, sl, sr, slope);
        self.pick(
            "fused_attention",
            f,
            self.naive.fused_attention(g, x, sl, sr, slope),
        )
    }
}

/// Each model, as it was after [`CHECK_ROUNDS`] timed rounds, runs one
/// inference pass whose every graph kernel must agree with the naive
/// backend (see [`Checked`]), and must beat chance on the validation split.
fn check_outputs(
    seed: u64,
    task: &SbmTask,
    state: &[Vec<Dense2<f32>>],
    fast: &TimedBackend,
    out: &mut Outcome,
) {
    let chance = 1.0 / task.num_classes as f64;
    fast.set_group(0);
    for (name, params) in MODELS.iter().zip(state) {
        out.attempted += 1;
        let mut model = build_model(name, task.in_dim(), HIDDEN, task.num_classes, seed);
        for (p, v) in model.params().into_iter().zip(params) {
            p.value = v.clone();
        }
        let checked = Checked {
            fast,
            naive: NaiveBackend::cpu(),
            first: Mutex::new(None),
        };
        let (logits, _, _) = inference(model.as_ref(), task, &checked, None);
        let val = accuracy(&logits, &task.labels, &task.val_mask);
        if let Some(m) = checked.first.into_inner().expect("mismatch slot poisoned") {
            out.fail(format!("{name}: FeatGraph and naive kernels differ: {m}"));
        } else if val <= 2.0 * chance {
            out.fail(format!(
                "{name}: validation accuracy {val:.3} is not above twice chance ({chance:.3})"
            ));
        } else {
            out.note(format!(
                "{name} after {CHECK_ROUNDS} timed epochs: validation accuracy {val:.3}, every \
                 kernel of its inference pass within fgcheck's loose tolerance of the naive backend"
            ));
        }
    }
}
