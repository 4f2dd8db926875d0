//! The stacked integer suffix against the reference, byte for byte:
//! every `Int8Backend` pass — one suffix walk per sample chunk, the
//! chunk's samples stacked along the item axis — equals
//! `QGraph::forward` (the direct loops, one sample per walk) under the
//! same mask set. Covered: every Bayesian depth `L ∈ 0..=N` of LeNet-5
//! (at `L = N` the graph input crosses the boundary and both
//! convolutions are in the suffix), a residual net whose shortcut
//! crosses the boundary beside the dropout site's input, sample chunks
//! of 1, 3 and `S` through one reused scratch, and the engine at 1 and
//! 2 threads. The convolution's register block vectorises differently
//! per ISA, and a linear layer's kernel is chosen at run time (VNNI or
//! portable), so CI also runs this under the baseline `x86-64` target.

use bnn_mcd::{
    active_sites, BayesBackend, BayesConfig, Engine, MaskSource, ParallelConfig, Plan,
    RequestResult, SoftwareMaskSource, WorkerPool,
};
use bnn_nn::{models, Graph, GraphBuilder, MaskSet};
use bnn_quant::{Int8Backend, Quantizer};
use bnn_rng::SoftRng;
use bnn_tensor::{softmax_rows, Shape4, Tensor};

/// Samples per check: chunks of 3 leave a short last chunk.
const S: usize = 7;

fn random_input(shape: Shape4, seed: u64) -> Tensor {
    let mut rng = SoftRng::new(seed);
    Tensor::from_vec(
        shape,
        (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
    )
}

/// Every value's bits, so `-0.0` and `0.0` differ.
fn bits(passes: &[Tensor]) -> Vec<Vec<u32>> {
    passes
        .iter()
        .map(|t| t.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Quantize `net` over `x` and check every depth, chunking and thread
/// count against the reference executor.
fn assert_stacked_equals_per_sample(net: &Graph, x: &Tensor, seed: u64) {
    let qg = Quantizer::new(net).calibrate(x).quantize();
    let mut backend = Int8Backend::new(qg.clone());
    let info = backend.info(x.shape());
    let pool = WorkerPool::new(2);
    for l in 0..=info.n_sites {
        let active = active_sites(info.n_sites, l);
        let mut src = SoftwareMaskSource::new(seed + l as u64);
        let masks: Vec<MaskSet> = (0..S)
            .map(|_| src.next_masks(&active, &info.site_channels, 0.25))
            .collect();
        let want: Vec<Tensor> = masks
            .iter()
            .map(|m| {
                let mut logits = qg.forward(x, m);
                let s = logits.shape();
                softmax_rows(logits.as_mut_slice(), s.n, s.item_len());
                logits
            })
            .collect();

        backend.prepare(x, &active);
        let mut scratch = Default::default();
        for chunk in [1, 3, S] {
            let got: Vec<Tensor> = masks
                .chunks(chunk)
                .flat_map(|sets| backend.forward_batch(sets, &mut scratch))
                .collect();
            assert_eq!(
                bits(&got),
                bits(&want),
                "{}: L = {l}, chunks of {chunk}",
                net.name()
            );
        }
        for threads in [1, 2] {
            let engine = Engine::new(&pool, ParallelConfig::with_threads(threads));
            let mut src = SoftwareMaskSource::new(seed + l as u64);
            let cfg = BayesConfig { l, s: S, p: 0.25 };
            let passes =
                RequestResult::single(engine.run(&mut backend, Plan::one(x, &mut src), cfg)).passes;
            assert_eq!(
                bits(&passes),
                bits(&want),
                "{}: L = {l}, {threads} threads",
                net.name()
            );
        }
    }
}

#[test]
fn stacked_lenet_equals_per_sample_at_every_depth() {
    let net = models::lenet5(10, 1, 16, 3).fold_batch_norm();
    assert_stacked_equals_per_sample(&net, &random_input(Shape4::new(2, 1, 16, 16), 1), 40);
}

#[test]
fn stacked_residual_net_equals_per_sample_across_a_crossing_shortcut() {
    // Three conv blocks; the last block's shortcut reads the first
    // block's output. With the last block's site first in the suffix
    // (L = 2), two prefix outputs cross the boundary: that site's input
    // and the shortcut.
    let mut b = GraphBuilder::new("residual", 9);
    let x = b.input();
    let mut cur = x;
    let mut c_in = 2;
    let mut blocks = Vec::new();
    for _ in 0..3 {
        let m = b.mcd(cur, 0.25);
        let conv = b.conv(m, c_in, 3, 3, 1, 1);
        cur = b.relu(conv);
        blocks.push(cur);
        c_in = 3;
    }
    let joined = b.add(cur, blocks[0]);
    let pooled = b.global_avg_pool(joined);
    let flat = b.flatten(pooled);
    let m = b.mcd(flat, 0.25);
    let fc = b.linear(m, 3, 4);
    let net = b.finish(fc);
    assert_stacked_equals_per_sample(&net, &random_input(Shape4::new(2, 2, 6, 6), 2), 50);
}
