//! Tape-based reverse-mode autograd over dense and graph operations.
//!
//! The graph-op gradients implement the duality the paper highlights in
//! §II-A: the backward of a generalized SpMM is a generalized SDDMM (the
//! weight gradient is a per-edge dot product) and the backward of SDDMM-style
//! edge computations is an SpMM-style aggregation. Every graph op dispatches
//! through the active [`GraphBackend`], so the same model trains on the
//! naive or the FeatGraph backend bit-for-bit identically.

use std::borrow::Cow;

use fg_tensor::ops as dops;
use fg_tensor::Dense2;

use crate::backend::{Dir, GpuCostModel, GraphBackend};
use crate::ggraph::GnnGraph;

/// A handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Leaf,
    Matmul(Var, Var),
    Add(Var, Var),
    AddBias(Var, Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Scale(Var, f32),
    /// `out[v] = Σ_{u→v} w_e · x[u]` (w optional).
    Spmm {
        x: Var,
        w: Option<Var>,
    },
    /// `out[v] = mean_{u→v} x[u]`.
    MeanSpmm {
        x: Var,
    },
    /// `out[e] = a[src] + b[dst]`.
    SddmmAdd(Var, Var),
    /// Per-destination softmax over incoming-edge rows.
    EdgeSoftmax(Var),
    /// Fused SDDMM→softmax→SpMM attention (inference tapes only; the
    /// backward pass uses the unfused chain).
    FusedAttention,
}

struct Node<'g> {
    /// Borrowed for [`Tape::input`] leaves (the caller's tensor, never
    /// copied), owned for everything the tape computes.
    value: Cow<'g, Dense2<f32>>,
    grad: Option<Dense2<f32>>,
    op: Op,
}

/// The autograd tape. Build the forward computation through its methods,
/// then call [`Tape::backward`].
pub struct Tape<'g> {
    graph: &'g GnnGraph,
    backend: &'g dyn GraphBackend,
    dense_gpu: Option<&'g GpuCostModel>,
    nodes: Vec<Node<'g>>,
    inference: bool,
}

impl<'g> Tape<'g> {
    /// New tape over a graph and backend. `dense_gpu` charges dense ops to
    /// a GPU roofline for simulated end-to-end GPU timing.
    pub fn new(
        graph: &'g GnnGraph,
        backend: &'g dyn GraphBackend,
        dense_gpu: Option<&'g GpuCostModel>,
    ) -> Self {
        Self {
            graph,
            backend,
            dense_gpu,
            nodes: Vec::new(),
            inference: false,
        }
    }

    /// New inference-only tape: [`Tape::gat_attention`] dispatches to the
    /// backend's fused kernel (no `|E|`-sized intermediates), and calling
    /// [`Tape::backward`] through such a node panics. Training tapes built
    /// with [`Tape::new`] keep the unfused, differentiable chain.
    pub fn for_inference(
        graph: &'g GnnGraph,
        backend: &'g dyn GraphBackend,
        dense_gpu: Option<&'g GpuCostModel>,
    ) -> Self {
        Self {
            inference: true,
            ..Self::new(graph, backend, dense_gpu)
        }
    }

    fn push(&mut self, value: Dense2<f32>, op: Op) -> Var {
        self.push_node(Cow::Owned(value), op)
    }

    fn push_node(&mut self, value: Cow<'g, Dense2<f32>>, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    fn charge(&self, flops: u64, bytes: u64) {
        if let Some(m) = self.dense_gpu {
            m.charge(flops, bytes);
        }
    }

    /// Insert an input/parameter tensor.
    pub fn leaf(&mut self, value: Dense2<f32>) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Insert an input tensor the tape borrows instead of copying: a leaf
    /// like [`Tape::leaf`] (its gradient accumulates as usual), but the
    /// caller's feature matrix is read in place for the tape's lifetime.
    pub fn input(&mut self, value: &'g Dense2<f32>) -> Var {
        self.push_node(Cow::Borrowed(value), Op::Leaf)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Dense2<f32> {
        &self.nodes[v.0].value
    }

    /// Gradient of a node (zeros-shaped if backward never reached it).
    pub fn grad(&self, v: Var) -> Dense2<f32> {
        let n = &self.nodes[v.0];
        n.grad
            .clone()
            .unwrap_or_else(|| Dense2::zeros(n.value.rows(), n.value.cols()))
    }

    /// `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = dops::matmul(self.value(a), self.value(b)).expect("matmul shapes");
        let (m, k) = self.value(a).shape();
        let n = self.value(b).cols();
        self.charge(
            (2 * m * k * n) as u64,
            ((m * k + k * n + m * n) * 4) as u64,
        );
        self.push(value, Op::Matmul(a, b))
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = dops::add(self.value(a), self.value(b)).expect("add shapes");
        let len = value.as_slice().len();
        self.charge(len as u64, (3 * len * 4) as u64);
        self.push(value, Op::Add(a, b))
    }

    /// `x + bias` broadcast over rows (`bias` is `1 × d`).
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let value = dops::add_bias(self.value(x), self.value(bias).row(0)).expect("bias shapes");
        let len = value.as_slice().len();
        self.charge(len as u64, (2 * len * 4) as u64);
        self.push(value, Op::AddBias(x, bias))
    }

    /// Element-wise ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        let value = dops::relu(self.value(x));
        let len = value.as_slice().len();
        self.charge(len as u64, (2 * len * 4) as u64);
        self.push(value, Op::Relu(x))
    }

    /// `x * alpha` (element-wise constant scale; head averaging in
    /// multi-head attention).
    pub fn scale(&mut self, x: Var, alpha: f32) -> Var {
        let value = dops::scale(self.value(x), alpha);
        let len = value.as_slice().len();
        self.charge(len as u64, (2 * len * 4) as u64);
        self.push(value, Op::Scale(x, alpha))
    }

    /// Element-wise leaky ReLU.
    pub fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        let value = dops::leaky_relu(self.value(x), slope);
        let len = value.as_slice().len();
        self.charge(len as u64, (2 * len * 4) as u64);
        self.push(value, Op::LeakyRelu(x, slope))
    }

    /// Sum aggregation `out[v] = Σ_{u→v} w_e · x[u]`; `w` (if given) is an
    /// `|E| × 1` per-edge scalar weight (e.g. attention coefficients).
    pub fn spmm(&mut self, x: Var, w: Option<Var>) -> Var {
        let value = self.backend.weighted_spmm(
            self.graph,
            Dir::Fwd,
            self.value(x),
            w.map(|wv| self.value(wv)),
        );
        self.push(value, Op::Spmm { x, w })
    }

    /// Mean aggregation.
    pub fn mean_spmm(&mut self, x: Var) -> Var {
        let value = self.backend.mean_spmm(self.graph, self.value(x));
        self.push(value, Op::MeanSpmm { x })
    }

    /// `out[e] = a[src_e] + b[dst_e]`.
    pub fn sddmm_add(&mut self, a: Var, b: Var) -> Var {
        let value = self
            .backend
            .sddmm_add(self.graph, self.value(a), self.value(b));
        self.push(value, Op::SddmmAdd(a, b))
    }

    /// Per-destination softmax over incoming-edge rows (DGL's
    /// `edge_softmax`; canonical edge order makes segments contiguous).
    pub fn edge_softmax(&mut self, e: Var) -> Var {
        let value = edge_softmax_forward(self.graph, self.value(e));
        let len = value.as_slice().len();
        self.charge((4 * len) as u64, (4 * len * 4) as u64);
        self.push(value, Op::EdgeSoftmax(e))
    }

    /// The GAT attention chain: per-destination
    /// `softmax(LeakyReLU(sl[src] + sr[dst]))`-weighted aggregation of
    /// `hw`. On an inference tape this is one fused backend call; on a
    /// training tape it builds the unfused SDDMM → leaky-ReLU →
    /// edge-softmax → SpMM chain so every stage has a backward.
    pub fn gat_attention(&mut self, hw: Var, sl: Var, sr: Var, slope: f32) -> Var {
        if self.inference {
            let value = self.backend.fused_attention(
                self.graph,
                self.value(hw),
                self.value(sl),
                self.value(sr),
                slope,
            );
            self.push(value, Op::FusedAttention)
        } else {
            let e = self.sddmm_add(sl, sr);
            let e = self.leaky_relu(e, slope);
            let alpha = self.edge_softmax(e);
            self.spmm(hw, Some(alpha))
        }
    }

    fn accumulate(&mut self, v: Var, g: Dense2<f32>) {
        let node = &mut self.nodes[v.0];
        match &mut node.grad {
            Some(existing) => {
                for (e, &x) in existing.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *e += x;
                }
            }
            None => node.grad = Some(g),
        }
    }

    /// Reverse pass from `seed_var` with gradient `seed_grad`.
    pub fn backward(&mut self, seed_var: Var, seed_grad: Dense2<f32>) {
        assert_eq!(
            self.nodes[seed_var.0].value.shape(),
            seed_grad.shape(),
            "seed gradient shape"
        );
        self.accumulate(seed_var, seed_grad);
        for i in (0..self.nodes.len()).rev() {
            let Some(g) = self.nodes[i].grad.clone() else {
                continue;
            };
            // Dispatch on a shallow copy of the op metadata to appease the
            // borrow checker.
            match self.nodes[i].op {
                Op::Leaf => {}
                Op::Matmul(a, b) => {
                    let ga = dops::matmul_bt(&g, self.value(b)).expect("grad a");
                    let gb = dops::matmul_at(self.value(a), &g).expect("grad b");
                    let (m, k) = self.value(a).shape();
                    let n = self.value(b).cols();
                    self.charge((4 * m * k * n) as u64, (2 * (m * k + k * n + m * n) * 4) as u64);
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
                Op::Add(a, b) => {
                    self.accumulate(a, g.clone());
                    self.accumulate(b, g);
                }
                Op::AddBias(x, bias) => {
                    // bias grad: column sums
                    let d = g.cols();
                    let mut gb = Dense2::zeros(1, d);
                    for r in 0..g.rows() {
                        for (o, &v) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    self.accumulate(x, g);
                    self.accumulate(bias, gb);
                }
                Op::Relu(x) => {
                    let y = &self.nodes[i].value;
                    let mut gx = g.clone();
                    for (gv, &yv) in gx.as_mut_slice().iter_mut().zip(y.as_slice()) {
                        if yv <= 0.0 {
                            *gv = 0.0;
                        }
                    }
                    self.accumulate(x, gx);
                }
                Op::Scale(x, alpha) => {
                    let gx = dops::scale(&g, alpha);
                    self.accumulate(x, gx);
                }
                Op::LeakyRelu(x, slope) => {
                    let xv = &self.nodes[x.0].value;
                    let mut gx = g.clone();
                    for (gv, &v) in gx.as_mut_slice().iter_mut().zip(xv.as_slice()) {
                        if v <= 0.0 {
                            *gv *= slope;
                        }
                    }
                    self.accumulate(x, gx);
                }
                Op::Spmm { x, w } => {
                    // ∂L/∂x[u] = Σ_{u→v} w_e ∂L/∂h[v]  (reverse aggregation)
                    let gx = self.backend.weighted_spmm(
                        self.graph,
                        Dir::Rev,
                        &g,
                        w.map(|wv| self.value(wv)),
                    );
                    self.accumulate(x, gx);
                    if let Some(wv) = w {
                        // ∂L/∂w_e = x[src_e] · ∂L/∂h[dst_e] — an SDDMM,
                        // exactly the paper's §II-A gradient duality.
                        let gw = self.backend.sddmm_dot(self.graph, self.value(x), &g);
                        self.accumulate(wv, gw);
                    }
                }
                Op::MeanSpmm { x } => {
                    // divide incoming grads by destination degree, then
                    // reverse-aggregate
                    let mut gd = g.clone();
                    for v in 0..gd.rows() {
                        let deg = self.graph.in_degrees()[v].max(1) as f32;
                        for o in gd.row_mut(v) {
                            *o /= deg;
                        }
                    }
                    let gx = self.backend.weighted_spmm(self.graph, Dir::Rev, &gd, None);
                    self.accumulate(x, gx);
                }
                Op::SddmmAdd(a, b) => {
                    // ∂L/∂a[u] = Σ_{e out of u} g_e ; ∂L/∂b[v] = Σ_{e into v} g_e
                    let ga = self.backend.edge_sum(self.graph, Dir::Rev, &g);
                    let gb = self.backend.edge_sum(self.graph, Dir::Fwd, &g);
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
                Op::EdgeSoftmax(e) => {
                    let gx = edge_softmax_backward(self.graph, &self.nodes[i].value, &g);
                    self.accumulate(e, gx);
                }
                Op::FusedAttention => {
                    panic!(
                        "fused attention has no backward; build training tapes \
                         with Tape::new, not Tape::for_inference"
                    );
                }
            }
        }
    }
}

/// Segment softmax over contiguous per-destination edge ranges. Also the
/// reference normalization the backends' default `fused_attention` uses.
pub(crate) fn edge_softmax_forward(g: &GnnGraph, e: &Dense2<f32>) -> Dense2<f32> {
    let mut out = e.clone();
    let indptr = g.fwd().in_csr().indptr();
    let d = e.cols();
    for v in 0..g.num_vertices() {
        let (lo, hi) = (indptr[v], indptr[v + 1]);
        if lo == hi {
            continue;
        }
        for c in 0..d {
            let mut mx = f32::MIN;
            for r in lo..hi {
                mx = mx.max(out.at(r, c));
            }
            let mut sum = 0.0f32;
            for r in lo..hi {
                let ev = (out.at(r, c) - mx).exp();
                out.set(r, c, ev);
                sum += ev;
            }
            if sum > 0.0 {
                for r in lo..hi {
                    let v2 = out.at(r, c) / sum;
                    out.set(r, c, v2);
                }
            }
        }
    }
    out
}

/// Segment softmax Jacobian-vector product:
/// `gx_e = y_e (g_e - Σ_seg g·y)` per segment and column.
fn edge_softmax_backward(g: &GnnGraph, y: &Dense2<f32>, grad: &Dense2<f32>) -> Dense2<f32> {
    let mut out = Dense2::zeros(y.rows(), y.cols());
    let indptr = g.fwd().in_csr().indptr();
    let d = y.cols();
    for v in 0..g.num_vertices() {
        let (lo, hi) = (indptr[v], indptr[v + 1]);
        for c in 0..d {
            let mut dot = 0.0f32;
            for r in lo..hi {
                dot += grad.at(r, c) * y.at(r, c);
            }
            for r in lo..hi {
                out.set(r, c, y.at(r, c) * (grad.at(r, c) - dot));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FeatgraphBackend, NaiveBackend};
    use crate::models::Model;
    use fg_graph::generators;

    fn setup() -> (GnnGraph, FeatgraphBackend) {
        (
            GnnGraph::new(generators::uniform(30, 4, 13)),
            FeatgraphBackend::cpu(1),
        )
    }

    fn feats(n: usize, d: usize, salt: usize) -> Dense2<f32> {
        // irrational-ish step keeps ReLU inputs away from exact kinks, so
        // finite differences stay valid
        Dense2::from_fn(n, d, |v, i| {
            ((v * 7 + i * 3 + salt) % 11) as f32 * 0.0937 - 0.4211
        })
    }

    /// Numerical gradient of `loss(x) = Σ target ⊙ f(x)` w.r.t. one leaf.
    fn finite_diff(
        build: &dyn Fn(&mut Tape<'_>, Var) -> Var,
        g: &GnnGraph,
        backend: &dyn GraphBackend,
        x0: &Dense2<f32>,
        target: &Dense2<f32>,
    ) -> Dense2<f32> {
        let eps = 1e-2f32;
        let mut grad = Dense2::zeros(x0.rows(), x0.cols());
        for r in 0..x0.rows() {
            for c in 0..x0.cols() {
                let eval = |delta: f32| -> f32 {
                    let mut xp = x0.clone();
                    xp.set(r, c, xp.at(r, c) + delta);
                    let mut tape = Tape::new(g, backend, None);
                    let x = tape.leaf(xp);
                    let y = build(&mut tape, x);
                    tape.value(y)
                        .as_slice()
                        .iter()
                        .zip(target.as_slice())
                        .map(|(&a, &b)| a * b)
                        .sum()
                };
                let hi = eval(eps);
                let lo = eval(-eps);
                grad.set(r, c, (hi - lo) / (2.0 * eps));
            }
        }
        grad
    }

    fn check_gradient(build: impl Fn(&mut Tape<'_>, Var) -> Var, n: usize, d: usize) {
        let (g, backend) = setup();
        let x0 = feats(n.min(g.num_vertices()), d, 1);
        // forward once to size the target
        let mut tape = Tape::new(&g, &backend, None);
        let x = tape.leaf(x0.clone());
        let y = build(&mut tape, x);
        let target = feats(tape.value(y).rows(), tape.value(y).cols(), 9);
        tape.backward(y, target.clone());
        let got = tape.grad(x);
        let want = finite_diff(&build, &g, &backend, &x0, &target);
        // Finite differences are invalid at ReLU kinks; tolerate a small
        // number of such entries but require the bulk to match tightly.
        let mut mismatches = 0usize;
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            let diff = (a - b).abs();
            if diff > 2e-2 && diff > 2e-2 * a.abs().max(b.abs()) {
                mismatches += 1;
            }
        }
        let allowed = got.as_slice().len() / 50 + 1; // <= ~2%
        assert!(
            mismatches <= allowed,
            "grad mismatch on {mismatches}/{} entries (max diff {})",
            got.as_slice().len(),
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn spmm_gradient_matches_finite_difference() {
        check_gradient(|t, x| t.spmm(x, None), 30, 4);
    }

    #[test]
    fn mean_spmm_gradient() {
        check_gradient(|t, x| t.mean_spmm(x), 30, 3);
    }

    #[test]
    fn reordered_gcn_layers_gradient_matches_finite_difference() {
        // Both GCN layers narrow (6 → 3, then 3 → 2), so each runs
        // transform-first: matmul, then mean SpMM.
        let gcn = crate::models::Gcn::new(6, 3, 2, 4);
        check_gradient(|t, x| gcn.forward_layer(t, x, 0).0, 30, 6);
        check_gradient(|t, x| gcn.forward_layer(t, x, 1).0, 30, 3);
        check_gradient(|t, x| gcn.forward(t, x).0, 30, 6);
    }

    #[test]
    fn input_leaf_gradient_is_bitwise_the_cloned_leaf() {
        let (g, backend) = setup();
        let x0 = feats(30, 6, 2);
        let target = feats(30, 2, 5);
        for name in ["gcn", "graphsage", "gat"] {
            let model = crate::models::build_model(name, 6, 4, 2, 8);
            let run = |borrow: bool| -> Vec<u32> {
                let mut tape = Tape::new(&g, &backend, None);
                let x = if borrow {
                    let x = tape.input(&x0);
                    assert_eq!(tape.value(x).as_slice().as_ptr(), x0.as_slice().as_ptr());
                    x
                } else {
                    tape.leaf(x0.clone())
                };
                let (y, _) = model.forward(&mut tape, x);
                tape.backward(y, target.clone());
                tape.grad(x).as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(run(true), run(false), "{name}");
        }
    }

    #[test]
    fn relu_backward_masks_by_activation() {
        // analytic check (finite differences are invalid at ReLU kinks):
        // grad(relu(h)) = g ⊙ 1[h > 0], then flows through spmm's reverse
        let (g, backend) = setup();
        let x0 = feats(30, 4, 1);
        let target = feats(30, 4, 9);
        let mut tape = Tape::new(&g, &backend, None);
        let x = tape.leaf(x0.clone());
        let h = tape.spmm(x, None);
        let y = tape.relu(h);
        let hval = tape.value(h).clone();
        tape.backward(y, target.clone());
        // expected: mask target by hval > 0, then reverse-aggregate
        let mut masked = target.clone();
        for (m, &hv) in masked.as_mut_slice().iter_mut().zip(hval.as_slice()) {
            if hv <= 0.0 {
                *m = 0.0;
            }
        }
        let want = backend.weighted_spmm(&g, Dir::Rev, &masked, None);
        assert!(
            tape.grad(x).approx_eq(&want, 1e-4),
            "diff {}",
            tape.grad(x).max_abs_diff(&want)
        );
        // and the intermediate grad at h is exactly the masked target
        assert!(tape.grad(h).approx_eq(&masked, 0.0));
    }

    #[test]
    fn scale_gradient_is_constant_multiple() {
        let (g, backend) = setup();
        let x0 = feats(30, 4, 2);
        let target = feats(30, 4, 7);
        let mut tape = Tape::new(&g, &backend, None);
        let x = tape.leaf(x0);
        let y = tape.scale(x, 2.5);
        tape.backward(y, target.clone());
        let want = dops::scale(&target, 2.5);
        assert!(tape.grad(x).approx_eq(&want, 1e-5));
    }

    #[test]
    fn matmul_gradient() {
        let (g, backend) = setup();
        let x0 = feats(30, 4, 2);
        let w0 = feats(4, 5, 3);
        let mut tape = Tape::new(&g, &backend, None);
        let x = tape.leaf(x0.clone());
        let w = tape.leaf(w0.clone());
        let y = tape.matmul(x, w);
        let target = feats(30, 5, 7);
        tape.backward(y, target.clone());
        // analytic: gx = target @ w^T ; gw = x^T @ target
        let gx_want = dops::matmul_bt(&target, &w0).unwrap();
        let gw_want = dops::matmul_at(&x0, &target).unwrap();
        assert!(tape.grad(x).approx_eq(&gx_want, 1e-4));
        assert!(tape.grad(w).approx_eq(&gw_want, 1e-4));
    }

    #[test]
    fn weighted_spmm_weight_gradient_is_sddmm() {
        let (g, backend) = setup();
        let m = g.num_edges();
        let x0 = feats(30, 4, 2);
        let w0 = Dense2::full(m, 1, 0.7f32);
        let mut tape = Tape::new(&g, &backend, None);
        let x = tape.leaf(x0.clone());
        let w = tape.leaf(w0.clone());
        let y = tape.spmm(x, Some(w));
        let target = feats(30, 4, 5);
        tape.backward(y, target.clone());
        let gw = tape.grad(w);
        // analytic: gw[e] = x[src_e] . target[dst_e]
        for (src, dst, eid) in g.fwd().edges() {
            let want: f32 = x0
                .row(src as usize)
                .iter()
                .zip(target.row(dst as usize))
                .map(|(&a, &b)| a * b)
                .sum();
            assert!((gw.at(eid as usize, 0) - want).abs() < 1e-3);
        }
    }

    #[test]
    fn edge_softmax_rows_sum_to_one_per_destination() {
        let (g, backend) = setup();
        let e0 = feats(g.num_edges(), 1, 3);
        let mut tape = Tape::new(&g, &backend, None);
        let e = tape.leaf(e0);
        let sm = tape.edge_softmax(e);
        let y = tape.value(sm);
        let indptr = g.fwd().in_csr().indptr();
        for v in 0..g.num_vertices() {
            let (lo, hi) = (indptr[v], indptr[v + 1]);
            if lo == hi {
                continue;
            }
            let sum: f32 = (lo..hi).map(|r| y.at(r, 0)).sum();
            assert!((sum - 1.0).abs() < 1e-4, "v={v} sum {sum}");
        }
    }

    #[test]
    fn edge_softmax_gradient_matches_finite_difference() {
        let (g, backend) = setup();
        let m = g.num_edges();
        let e0 = feats(m, 1, 3);
        let target = feats(m, 1, 6);
        let mut tape = Tape::new(&g, &backend, None);
        let e = tape.leaf(e0.clone());
        let y = tape.edge_softmax(e);
        tape.backward(y, target.clone());
        let got = tape.grad(e);
        // finite difference
        let eps = 1e-2f32;
        for idx in 0..m.min(20) {
            let eval = |delta: f32| -> f32 {
                let mut ep = e0.clone();
                ep.set(idx, 0, ep.at(idx, 0) + delta);
                let y = edge_softmax_forward(&g, &ep);
                y.as_slice()
                    .iter()
                    .zip(target.as_slice())
                    .map(|(&a, &b)| a * b)
                    .sum()
            };
            let fd = (eval(eps) - eval(-eps)) / (2.0 * eps);
            assert!(
                (fd - got.at(idx, 0)).abs() < 2e-2,
                "edge {idx}: fd {fd} vs {}",
                got.at(idx, 0)
            );
        }
        let _ = backend;
    }

    #[test]
    fn edge_softmax_single_edge_segments_get_weight_one() {
        // v2 has two incoming edges, v3 exactly one; a single-edge segment
        // must normalize to exactly 1.0 regardless of the raw score
        let g = GnnGraph::new(fg_graph::Graph::from_edges(
            4,
            &[(0, 2), (1, 2), (0, 3)],
        ));
        let mut e = Dense2::zeros(3, 1);
        e.set(0, 0, 5.0);
        e.set(1, 0, -3.0);
        e.set(2, 0, 123.456);
        let y = edge_softmax_forward(&g, &e);
        let indptr = g.fwd().in_csr().indptr();
        let (lo3, hi3) = (indptr[3], indptr[4]);
        assert_eq!(hi3 - lo3, 1, "v3 should have one incoming edge");
        assert_eq!(y.at(lo3, 0), 1.0, "single-edge segment weight");
        let (lo2, hi2) = (indptr[2], indptr[3]);
        let sum: f32 = (lo2..hi2).map(|r| y.at(r, 0)).sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn edge_softmax_skips_zero_degree_destinations() {
        // v0 and v1 have no incoming edges; their (empty) segments must not
        // disturb the others or produce NaN anywhere
        let g = GnnGraph::new(fg_graph::Graph::from_edges(3, &[(0, 2), (1, 2)]));
        let e = Dense2::from_fn(2, 2, |r, c| (r + c) as f32);
        let y = edge_softmax_forward(&g, &e);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        let indptr = g.fwd().in_csr().indptr();
        assert_eq!(indptr[0], indptr[1], "v0 zero-degree");
        assert_eq!(indptr[1], indptr[2], "v1 zero-degree");
        for c in 0..2 {
            let sum: f32 = (indptr[2]..indptr[3]).map(|r| y.at(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-6, "col {c} sum {sum}");
        }
    }

    #[test]
    fn edge_softmax_survives_large_negative_scores() {
        // max-subtraction keeps exp() in range even when every raw score is
        // a huge negative number (attention masking produces these)
        let g = GnnGraph::new(fg_graph::Graph::from_edges(2, &[(0, 1), (1, 1)]));
        let mut e = Dense2::zeros(2, 1);
        e.set(0, 0, -1e30);
        e.set(1, 0, -1e30);
        let y = edge_softmax_forward(&g, &e);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert!((y.at(0, 0) - 0.5).abs() < 1e-6);
        assert!((y.at(1, 0) - 0.5).abs() < 1e-6);
        // one edge much less masked than the other: it takes all the weight
        e.set(1, 0, 0.0);
        let y = edge_softmax_forward(&g, &e);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert!((y.at(1, 0) - 1.0).abs() < 1e-6);
        assert!(y.at(0, 0).abs() < 1e-6);
    }

    #[test]
    fn edge_softmax_on_duplicate_edges_and_tied_scores() {
        // the graph layer canonicalizes duplicate (src, dst) pairs away, so
        // edge_softmax never sees a repeated edge in a segment...
        let g = GnnGraph::new(fg_graph::Graph::from_edges(
            3,
            &[(0, 2), (0, 2), (1, 2)],
        ));
        assert_eq!(g.num_edges(), 2, "duplicate edge deduplicated");
        // ...and tied scores within a segment split the weight evenly
        let mut e = Dense2::zeros(2, 1);
        e.set(0, 0, 1.0);
        e.set(1, 0, 1.0);
        let y = edge_softmax_forward(&g, &e);
        let indptr = g.fwd().in_csr().indptr();
        for r in indptr[2]..indptr[3] {
            assert!((y.at(r, 0) - 0.5).abs() < 1e-6, "row {r}: {}", y.at(r, 0));
        }
    }

    #[test]
    fn inference_tape_gat_attention_matches_training_tape() {
        let (g, backend) = setup();
        let hw = feats(30, 4, 1);
        let sl = feats(30, 1, 2);
        let sr = feats(30, 1, 3);
        let run = |inference: bool| -> Dense2<f32> {
            let mut tape = if inference {
                Tape::for_inference(&g, &backend, None)
            } else {
                Tape::new(&g, &backend, None)
            };
            let hwv = tape.leaf(hw.clone());
            let slv = tape.leaf(sl.clone());
            let srv = tape.leaf(sr.clone());
            let out = tape.gat_attention(hwv, slv, srv, 0.2);
            tape.value(out).clone()
        };
        let trained = run(false);
        let fused = run(true);
        assert!(
            fused.approx_eq(&trained, 1e-4),
            "diff {}",
            fused.max_abs_diff(&trained)
        );
    }

    #[test]
    #[should_panic(expected = "fused attention has no backward")]
    fn backward_through_fused_attention_panics() {
        let (g, backend) = setup();
        let mut tape = Tape::for_inference(&g, &backend, None);
        let hw = tape.leaf(feats(30, 4, 1));
        let sl = tape.leaf(feats(30, 1, 2));
        let sr = tape.leaf(feats(30, 1, 3));
        let out = tape.gat_attention(hw, sl, sr, 0.2);
        let seed = Dense2::zeros(30, 4);
        tape.backward(out, seed);
    }

    #[test]
    fn sddmm_add_gradients_scatter_correctly() {
        let (g, backend) = setup();
        let a0 = feats(30, 1, 1);
        let b0 = feats(30, 1, 2);
        let mut tape = Tape::new(&g, &backend, None);
        let a = tape.leaf(a0);
        let b = tape.leaf(b0);
        let e = tape.sddmm_add(a, b);
        let target = Dense2::full(g.num_edges(), 1, 1.0f32);
        tape.backward(e, target);
        let ga = tape.grad(a);
        let gb = tape.grad(b);
        for v in 0..30u32 {
            assert!((ga.at(v as usize, 0) - g.fwd().out_degree(v) as f32).abs() < 1e-4);
            assert!((gb.at(v as usize, 0) - g.fwd().in_degree(v) as f32).abs() < 1e-4);
        }
    }

    #[test]
    fn both_backends_produce_identical_gradients() {
        let g = GnnGraph::new(generators::uniform(25, 3, 5));
        let x0 = feats(25, 4, 4);
        let target = feats(25, 4, 8);
        let naive = NaiveBackend::cpu();
        let fgb = FeatgraphBackend::cpu(1);
        let run = |backend: &dyn GraphBackend| -> Dense2<f32> {
            let mut tape = Tape::new(&g, backend, None);
            let x = tape.leaf(x0.clone());
            let h = tape.spmm(x, None);
            let y = tape.relu(h);
            tape.backward(y, target.clone());
            tape.grad(x)
        };
        let a = run(&naive);
        let b = run(&fgb);
        assert!(a.approx_eq(&b, 1e-4), "diff {}", a.max_abs_diff(&b));
    }
}
