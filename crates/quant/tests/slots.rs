//! Slot reuse on the integer path: the walk writes into one slot per
//! node, sized once and overwritten in place — the integer mirror of
//! the f32 walk's `forward_prefix_matches_forward_full_and_reuses_buffers`
//! — and the tiled kernel's operand buffer is sized once beside them.
//! A chunk's scratch holds only what its stacked suffix walk writes or
//! reads: the suffix slots and the crossing prefix outputs, replicated
//! once per sample.

use bnn_mcd::{active_sites, BayesBackend, MaskSource, SoftwareMaskSource};
use bnn_nn::{models, MaskSet};
use bnn_quant::{exec_qnode, Int8Backend, QTensor, Quantizer};
use bnn_rng::SoftRng;
use bnn_tensor::{Shape4, Tensor};

fn ptrs(slots: &[QTensor]) -> Vec<*const u8> {
    slots.iter().map(|t| t.data.as_ptr()).collect()
}

#[test]
fn integer_suffix_reruns_reuse_every_slot() {
    let net = models::lenet5(10, 1, 16, 3).fold_batch_norm();
    let mut rng = SoftRng::new(5);
    let shape = Shape4::new(2, 1, 16, 16);
    let x = Tensor::from_vec(
        shape,
        (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
    );
    let mut backend = Int8Backend::new(Quantizer::new(&net).calibrate(&x).quantize());
    let info = backend.info(shape);
    // L = 4: both fully-connected sites and the second convolution's
    // site are Bayesian, so the suffix holds a convolution and the
    // first pooling output crosses the boundary.
    let active = active_sites(info.n_sites, 4);
    let mut src = SoftwareMaskSource::new(11);
    let samples = 5;
    let masks: Vec<MaskSet> = (0..samples)
        .map(|_| src.next_masks(&active, &info.site_channels, 0.25))
        .collect();

    // Through the backend: the first stacked chunk sizes the chunk's
    // slots, crossing replicas and operand buffer; every later chunk of
    // the same size only overwrites them.
    backend.prepare(&x, &active);
    let qg = backend.qgraph();
    let (n, split) = (qg.nodes().len(), qg.suffix_split(&active));
    let crossing = split - 1;
    assert_eq!(
        qg.nodes()[split].inputs,
        [crossing],
        "the first suffix node reads the node before it"
    );
    let mut scratch = (Vec::new(), Vec::new());
    let warm = backend.forward_batch(&masks, &mut scratch);
    assert_eq!(warm.len(), samples);
    let (sized, operand) = (ptrs(&scratch.0), scratch.1.as_ptr());
    assert!(!scratch.1.is_empty(), "the suffix ran no kernel");
    for (id, slot) in scratch.0.iter().enumerate().take(split) {
        if id == crossing {
            assert_eq!(slot.shape.n, samples * shape.n, "crossing not replicated");
        } else {
            assert!(slot.data.is_empty(), "prefix slot {id} was copied");
        }
    }
    for _ in 0..2 {
        let again = backend.forward_batch(&masks, &mut scratch);
        assert_eq!(again, warm, "a suffix re-run changed the bytes");
        assert_eq!(
            ptrs(&scratch.0),
            sized,
            "a suffix re-run reallocated a slot or a crossing replica"
        );
        assert_eq!(
            scratch.1.as_ptr(),
            operand,
            "a suffix re-run reallocated the kernel's operand buffer"
        );
    }

    // Through the walk itself: suffix re-runs over a full pass keep
    // every pointer and end on exactly `forward_trace`'s outputs.
    let input = qg.quantize_input(&x);
    let mut outs = qg.slots();
    qg.walk(0..n, &input, &masks[..1], &mut outs, exec_qnode);
    let sized = ptrs(&outs);
    for m in &masks {
        qg.walk(
            split..n,
            &input,
            std::slice::from_ref(m),
            &mut outs,
            exec_qnode,
        );
        assert_eq!(ptrs(&outs), sized, "a walk re-run reallocated a slot");
    }
    assert_eq!(outs, qg.forward_trace(&input, &masks[samples - 1]));
}
