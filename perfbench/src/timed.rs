//! A timing decorator over the public `fg_gnn::GraphBackend` trait.
//!
//! Every graph-kernel call is forwarded to the wrapped `FeatgraphBackend`
//! inside a span named after its kernel family (`core.spmm`, `core.sddmm`,
//! `core.fused_attention`). SpMM-family calls also add the bytes they must
//! move, computed from tensor sizes, so achieved bandwidth can be set
//! against a measured host roofline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fg_gnn::backend::Dir;
use fg_gnn::{FeatgraphBackend, GnnGraph, GraphBackend};
use fg_tensor::Dense2;

use crate::trace::Tracer;

/// Span names of the three kernel families.
pub const SPMM: &str = "core.spmm";
/// See [`SPMM`].
pub const SDDMM: &str = "core.sddmm";
/// See [`SPMM`].
pub const FUSED: &str = "core.fused_attention";

/// `FeatgraphBackend` with every kernel call timed.
pub struct TimedBackend<'t> {
    inner: FeatgraphBackend,
    tracer: &'t Tracer,
    group: AtomicU64,
    spmm_bytes: AtomicU64,
}

impl<'t> TimedBackend<'t> {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: FeatgraphBackend, tracer: &'t Tracer) -> Self {
        TimedBackend {
            inner,
            tracer,
            group: AtomicU64::new(0),
            spmm_bytes: AtomicU64::new(0),
        }
    }

    /// Tag subsequent kernel spans with this request or epoch id.
    pub fn set_group(&self, group: u64) {
        self.group.store(group, Ordering::Relaxed);
    }

    /// Bytes the SpMM-family calls so far had to move (computed).
    pub fn spmm_bytes(&self) -> u64 {
        self.spmm_bytes.load(Ordering::Relaxed)
    }

    fn span(&self, name: &'static str) -> crate::trace::SpanGuard<'_> {
        self.tracer.span(name, self.group.load(Ordering::Relaxed))
    }

    /// Computed traffic of one aggregation producing `d` columns over `g`:
    /// one gathered input row per edge, one output row per vertex, the
    /// CSR column index per edge and row offset per vertex, and one `f32`
    /// per edge for scalar edge weights.
    fn count_spmm(&self, g: &GnnGraph, d: usize, weighted: bool) {
        let (v, e, d) = (g.num_vertices() as u64, g.num_edges() as u64, d as u64);
        let bytes = 4 * (e * d + v * d + e + (v + 1) + if weighted { e } else { 0 });
        self.spmm_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

impl GraphBackend for TimedBackend<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn weighted_spmm(
        &self,
        g: &GnnGraph,
        dir: Dir,
        x: &Dense2<f32>,
        w: Option<&Dense2<f32>>,
    ) -> Dense2<f32> {
        self.count_spmm(g, x.cols(), w.is_some());
        let _s = self.span(SPMM);
        self.inner.weighted_spmm(g, dir, x, w)
    }

    fn mean_spmm(&self, g: &GnnGraph, x: &Dense2<f32>) -> Dense2<f32> {
        self.count_spmm(g, x.cols(), false);
        let _s = self.span(SPMM);
        self.inner.mean_spmm(g, x)
    }

    fn sddmm_dot(&self, g: &GnnGraph, a: &Dense2<f32>, b: &Dense2<f32>) -> Dense2<f32> {
        let _s = self.span(SDDMM);
        self.inner.sddmm_dot(g, a, b)
    }

    fn sddmm_add(&self, g: &GnnGraph, a: &Dense2<f32>, b: &Dense2<f32>) -> Dense2<f32> {
        let _s = self.span(SDDMM);
        self.inner.sddmm_add(g, a, b)
    }

    fn edge_sum(&self, g: &GnnGraph, dir: Dir, e: &Dense2<f32>) -> Dense2<f32> {
        // Reads one edge row per edge instead of a gathered vertex row:
        // the same byte count as an unweighted aggregation.
        self.count_spmm(g, e.cols(), false);
        let _s = self.span(SPMM);
        self.inner.edge_sum(g, dir, e)
    }

    fn fused_attention(
        &self,
        g: &GnnGraph,
        x: &Dense2<f32>,
        sl: &Dense2<f32>,
        sr: &Dense2<f32>,
        slope: f32,
    ) -> Dense2<f32> {
        let _s = self.span(FUSED);
        self.inner.fused_attention(g, x, sl, sr, slope)
    }
}

/// First plan build for an aggregation over `x` on `graph`: a fresh
/// backend's first call minus the median of three calls with the plan
/// cached.
pub fn compile_ms(graph: &GnnGraph, x: &Dense2<f32>) -> f64 {
    let backend = FeatgraphBackend::cpu(1);
    let time = || {
        let t = Instant::now();
        std::hint::black_box(backend.mean_spmm(graph, x));
        t.elapsed().as_secs_f64() * 1e3
    };
    let cold = time();
    let warm = crate::pct::median(&[time(), time(), time()]);
    (cold - warm).max(0.0)
}
