//! The GCN and GraphSage layers pick their aggregation order by weight
//! shape: transform first when `W` narrows the features, aggregate first
//! otherwise. Mean aggregation is linear, so the reordered layers must match
//! the textbook aggregate-first formulation up to rounding — within the
//! loose bound fgcheck grants kernels that divide (`Mean`) or chain a
//! matmul — and must be bitwise the textbook form when nothing is reordered.

use fg_check::{compare_slices, Tolerance};
use fg_gnn::data::SbmTask;
use fg_gnn::models::{Gcn, GraphSage, Model};
use fg_gnn::{FeatgraphBackend, Tape, Var};
use fg_tensor::Dense2;

/// Aggregate-first reference for layer `layer` of either model, from its
/// parameters in [`Model::params`] order.
fn aggregate_first(tape: &mut Tape<'_>, params: &[Dense2<f32>], h: Var, layer: usize) -> Var {
    let leaves: Vec<Var> = params.iter().map(|p| tape.leaf(p.clone())).collect();
    let agg = tape.mean_spmm(h);
    let pre = match leaves.len() {
        // GCN: mean(h)·W + b
        2 => {
            let lin = tape.matmul(agg, leaves[0]);
            tape.add_bias(lin, leaves[1])
        }
        // GraphSage: h·Ws + mean(h)·Wn + b
        3 => {
            let selfpart = tape.matmul(h, leaves[0]);
            let neigh = tape.matmul(agg, leaves[1]);
            let sum = tape.add(selfpart, neigh);
            tape.add_bias(sum, leaves[2])
        }
        n => panic!("unexpected {n} parameters per layer"),
    };
    if layer == 0 {
        tape.relu(pre)
    } else {
        pre
    }
}

/// Run one layer both ways on `task` and compare; returns the widths the
/// layer mapped between.
fn check_layer(
    model: &mut dyn Model,
    task: &SbmTask,
    h0: &Dense2<f32>,
    layer: usize,
) -> (usize, usize) {
    let per_layer = model.params().len() / model.num_layers();
    let params: Vec<Dense2<f32>> = model.params()[layer * per_layer..(layer + 1) * per_layer]
        .iter()
        .map(|p| p.value.clone())
        .collect();
    let (rows, cols) = params[0].shape();
    let backend = FeatgraphBackend::cpu(1);
    let mut tape = Tape::for_inference(&task.graph, &backend, None);
    let h = tape.input(h0);
    let (got, _) = model.forward_layer(&mut tape, h, layer);
    let want = aggregate_first(&mut tape, &params, h, layer);
    let (got, want) = (tape.value(got), tape.value(want));
    assert_eq!(got.shape(), want.shape());
    let what = format!("{} layer {layer} ({rows}→{cols})", model.name());
    if cols < rows {
        if let Some(m) = compare_slices(want.as_slice(), got.as_slice(), Tolerance::loose()) {
            panic!("{what}: reordered layer diverged: {m}");
        }
    } else {
        let bits = |d: &Dense2<f32>| d.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got),
            bits(want),
            "{what}: aggregate-first layer changed"
        );
    }
    (rows, cols)
}

#[test]
fn reordered_layers_match_aggregate_first() {
    let task = SbmTask::generate(400, 4, 10, 20, 17);
    assert_eq!(task.in_dim(), 24);
    let mut seen = [false; 3];
    // The first layer (24 → hidden) narrows, widens or keeps the width; the
    // second (hidden → 4 classes) narrows for 8/48/24, keeps it for 4 and
    // widens for 2.
    for hidden in [8, 48, 24, 4, 2] {
        let models: [Box<dyn Model>; 2] = [
            Box::new(Gcn::new(task.in_dim(), hidden, 4, 3)),
            Box::new(GraphSage::new(task.in_dim(), hidden, 4, 3)),
        ];
        for mut model in models {
            let (r0, c0) = check_layer(model.as_mut(), &task, &task.features, 0);
            // layer 1 runs on the model's own layer-0 output
            let backend = FeatgraphBackend::cpu(1);
            let mut tape = Tape::for_inference(&task.graph, &backend, None);
            let x = tape.input(&task.features);
            let (h1, _) = model.forward_layer(&mut tape, x, 0);
            let h1 = tape.value(h1).clone();
            assert_eq!(h1.cols(), hidden);
            let (r1, c1) = check_layer(model.as_mut(), &task, &h1, 1);
            for (r, c) in [(r0, c0), (r1, c1)] {
                seen[(r.cmp(&c) as i8 + 1) as usize] = true;
            }
        }
    }
    assert_eq!(
        seen, [true; 3],
        "in > out, in == out and in < out all covered"
    );
}

#[test]
fn reordered_full_forward_matches_aggregate_first() {
    // Both layers of the serve-shaped GCN narrow (64 → 16 → 4): compare the
    // whole reordered forward pass with the aggregate-first chain.
    let task = SbmTask::generate(300, 4, 8, 60, 5);
    let mut model = Gcn::new(task.in_dim(), 16, 4, 9);
    let params: Vec<Dense2<f32>> = model.params().iter().map(|p| p.value.clone()).collect();
    let backend = FeatgraphBackend::cpu(1);
    let mut tape = Tape::for_inference(&task.graph, &backend, None);
    let x = tape.input(&task.features);
    let (got, _) = model.forward(&mut tape, x);
    let h = aggregate_first(&mut tape, &params[0..2], x, 0);
    let want = aggregate_first(&mut tape, &params[2..4], h, 1);
    if let Some(m) = compare_slices(
        tape.value(want).as_slice(),
        tape.value(got).as_slice(),
        Tolerance::loose(),
    ) {
        panic!("reordered GCN forward diverged: {m}");
    }
}
