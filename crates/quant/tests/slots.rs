//! Slot reuse on the integer path: the walk writes into one slot per
//! node, sized once and overwritten in place — the integer mirror of
//! the f32 walk's `forward_prefix_matches_forward_full_and_reuses_buffers`
//! — and the tiled kernel's operand buffer is sized once beside them.

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
    let active = active_sites(info.n_sites, 3);
    let mut src = SoftwareMaskSource::new(11);
    let masks: Vec<MaskSet> = (0..2)
        .map(|_| src.next_masks(&active, &info.site_channels, 0.25))
        .collect();

    // Through the backend: the first suffix pass sizes the worker's
    // slots and operand buffer, every later one only overwrites them.
    backend.prepare(&x, &active);
    let mut scratch = backend.make_scratch();
    let warm = backend.forward_batch(&masks, &mut scratch);
    let (sized, operand) = (ptrs(&scratch.0), scratch.1.as_ptr());
    assert!(!scratch.1.is_empty(), "the suffix ran no kernel");
    for _ in 0..2 {
        let again = backend.forward_batch(&masks, &mut scratch);
        assert_eq!(again, warm, "a suffix re-run changed the bytes");
        assert_eq!(
            ptrs(&scratch.0),
            sized,
            "a suffix re-run reallocated a slot"
        );
        assert_eq!(
            scratch.1.as_ptr(),
            operand,
            "a suffix re-run reallocated the kernel's operand buffer"
        );
    }

    // Through the walk itself: suffix re-runs over a full pass keep
    // every pointer and end on exactly `forward_trace`'s outputs.
    let qg = backend.qgraph();
    let input = qg.quantize_input(&x);
    let (n, split) = (qg.nodes().len(), qg.suffix_split(&active));
    let mut outs = qg.slots();
    qg.walk(0..n, &input, &masks[0], &mut outs, exec_qnode);
    let sized = ptrs(&outs);
    for m in &masks {
        qg.walk(split..n, &input, m, &mut outs, exec_qnode);
        assert_eq!(ptrs(&outs), sized, "a walk re-run reallocated a slot");
    }
    assert_eq!(outs, qg.forward_trace(&input, &masks[1]));
}
