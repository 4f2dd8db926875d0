//! The integer dropout unit against its formula. A kept code `v` at a
//! site with zero point `z` becomes `clamp(z + m·(v − z))`, where `m` is
//! the fixed-point rescale of the mask it is handed — the multiplier the
//! quantizer baked when the mask's scale is the graph's `1/(1-p)`, else
//! the mask's scale quantized — and a dropped code becomes `z`. The
//! reference executor and the serving kernel share the dropout unit,
//! which computes each kept code with `FixedMul::apply`: a
//! fully-connected site selects it against `z` by a byte mask, a site
//! with planes writes each kept plane. These checks run both arms
//! against the formula; `FixedMul::apply` itself is pinned bit for bit
//! against an `i128` reference by `bnn-quant`'s unit tests.

use bnn_nn::{models, Mask, MaskSet};
use bnn_quant::{exec_qnode, quantize_multiplier, FixedMul, QNode, QNodeOp, QTensor, Quantizer};
use bnn_rng::SoftRng;
use bnn_tensor::{Shape4, Tensor};

/// The zero points of the exhaustive check: both ends, both sides of
/// the middle, and one off the bottom.
const ZEROS: [i32; 5] = [0, 1, 127, 128, 255];

/// Drop probabilities of the exhaustive check.
const PS: [f32; 4] = [0.1, 0.25, 0.5, 0.9];

/// The kept-channel rescale a mask drawn at `p` carries
/// (`MaskSet::draw`'s `f32` arithmetic).
fn scale(p: f32) -> f32 {
    1.0 / (1.0 - p)
}

/// What the quantizer bakes into a site of a graph built at `p`.
fn baked(p: f32) -> FixedMul {
    quantize_multiplier(1.0 / (1.0 - f64::from(p)))
}

fn site(mul: FixedMul, z: i32) -> QNode {
    QNode {
        op: QNodeOp::McdSite { site: 0, mul, z },
        inputs: vec![0],
        name: "mcd".into(),
    }
}

/// Run one dropout site over `x` with one mask set per sample group.
fn run_site(node: &QNode, x: &QTensor, masks: &[MaskSet]) -> QTensor {
    let mut y = QTensor {
        data: vec![0xA5; x.data.len()],
        shape: x.shape,
    };
    exec_qnode(node, std::slice::from_ref(x), x, masks, &mut y);
    y
}

fn mask(keep: Vec<bool>, scale: f32) -> MaskSet {
    MaskSet::from_masks(vec![Some(Mask { keep, scale })])
}

/// Check `y` against the formula element by element: item `i` of the
/// input belongs to sample group `i / per_group`, whose keep bits are
/// `keeps[group]`.
fn assert_formula(x: &QTensor, y: &QTensor, keeps: &[Vec<bool>], mul: FixedMul, z: i32) {
    let s = x.shape;
    let (plane, per_group) = (s.h * s.w, s.n / keeps.len());
    for (i, (&v, &got)) in x.data.iter().zip(&y.data).enumerate() {
        let (item, c) = (i / s.item_len(), i % s.item_len() / plane);
        let want = if keeps[item / per_group][c] {
            (z + mul.apply(i32::from(v) - z)).clamp(0, 255)
        } else {
            z
        };
        assert_eq!(
            i32::from(got),
            want,
            "code {v}, channel {c}, item {item}, z {z}, m {}",
            mul.value()
        );
    }
}

#[test]
fn dropout_table_matches_the_formula_on_every_code() {
    let mut rng = SoftRng::new(3);
    let mut keep_bits = |c: usize| (0..c).map(|_| rng.next_u64() & 3 != 0).collect::<Vec<_>>();
    // Flat sites (one element per channel): every code is a channel,
    // two samples of two items each, each sample its own keep bits.
    let codes: Vec<u8> = (0..=255).collect();
    let flat = QTensor {
        data: [&codes[..], &codes[..], &codes[..], &codes[..]].concat(),
        shape: Shape4::new(4, 256, 1, 1),
    };
    // One plane > 1 site: every code once per item, four 8×8 channels.
    let planar = QTensor {
        data: codes.iter().rev().copied().collect(),
        shape: Shape4::new(1, 4, 8, 8),
    };
    for z in ZEROS {
        for p in PS {
            // The mask drawn at the graph's own `p` (the baked
            // multiplier is used), and at a graph quantized at 0.25.
            for (graph_p, want_mul) in [
                (p, baked(p)),
                (0.25, quantize_multiplier(f64::from(scale(p)))),
            ] {
                if graph_p == 0.25 && p == 0.25 {
                    continue;
                }
                let node = site(baked(graph_p), z);
                let keeps = [keep_bits(256), keep_bits(256)];
                let sets = keeps.clone().map(|k| mask(k, scale(p)));
                assert_formula(&flat, &run_site(&node, &flat, &sets), &keeps, want_mul, z);
                let keep = vec![true, false, true, true];
                let y = run_site(&node, &planar, &[mask(keep.clone(), scale(p))]);
                assert_formula(&planar, &y, &[keep], want_mul, z);
            }
        }
    }
}

#[test]
fn each_group_of_a_walk_follows_its_own_scale() {
    // Two sample groups in one walk, the first drawn at the graph's p,
    // the second at 0.5 (another rescale), then the first again: each
    // group must use its own set's multiplier, on both arms.
    let codes: Vec<u8> = (0..=255).collect();
    for z in ZEROS {
        let node = site(baked(0.25), z);
        let muls = [baked(0.25), quantize_multiplier(2.0), baked(0.25)];
        let scales = [scale(0.25), scale(0.5), scale(0.25)];
        for shape in [Shape4::new(3, 256, 1, 1), Shape4::new(3, 4, 8, 8)] {
            let x = QTensor {
                data: [&codes[..], &codes[..], &codes[..]].concat(),
                shape,
            };
            let keep: Vec<bool> = (0..shape.c).map(|c| c % 3 != 1).collect();
            let sets = scales.map(|sc| mask(keep.clone(), sc));
            let y = run_site(&node, &x, &sets);
            let item = shape.item_len();
            for (g, &mul) in muls.iter().enumerate() {
                let one = Shape4 { n: 1, ..shape };
                let part = |t: &QTensor| QTensor {
                    data: t.data[g * item..][..item].to_vec(),
                    shape: one,
                };
                assert_formula(&part(&x), &part(&y), std::slice::from_ref(&keep), mul, z);
            }
        }
    }
}

#[test]
fn a_set_without_the_site_copies_its_group() {
    let x = QTensor {
        data: (0..8).map(|v| v * 30).collect(),
        shape: Shape4::new(2, 4, 1, 1),
    };
    let sets = [MaskSet::none(), mask(vec![false; 4], scale(0.25))];
    let y = run_site(&site(baked(0.25), 7), &x, &sets);
    assert_eq!(&y.data[..4], &x.data[..4], "inactive group copied");
    assert_eq!(&y.data[4..], &[7; 4], "dropped group at the zero point");
}

#[test]
fn a_kept_channel_follows_the_configured_p() {
    // LeNet-5 quantized at the paper's p = 0.25, served at p = 0.5: a
    // kept channel must double around the zero point, as the f32 walk
    // scales it by `Mask::scale` (it used to gain 4/3, the graph's p).
    let net = models::lenet5(10, 1, 16, 3).fold_batch_norm();
    let mut rng = SoftRng::new(8);
    let shape = Shape4::new(2, 1, 16, 16);
    let x = Tensor::from_vec(
        shape,
        (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
    );
    let qg = Quantizer::new(&net).calibrate(&x).quantize();
    let channels = qg.site_channels(shape);
    let masks = MaskSet::draw(&vec![true; qg.n_sites()], &channels, 0.5, |c| vec![true; c]);
    let trace = qg.forward_trace(&qg.quantize_input(&x), &masks);
    let mut checked = 0;
    for (id, node) in qg.nodes().iter().enumerate() {
        let QNodeOp::McdSite { z, .. } = node.op else {
            continue;
        };
        for (&v, &got) in trace[node.inputs[0]].data.iter().zip(&trace[id].data) {
            let doubled = z + 2 * (i32::from(v) - z);
            if (0..=255).contains(&doubled) {
                assert!(
                    (i32::from(got) - doubled).abs() <= 1,
                    "{}: {v} -> {got}",
                    node.name
                );
                checked += 1;
            } else {
                assert_eq!(i32::from(got), doubled.clamp(0, 255), "{}", node.name);
            }
        }
    }
    assert!(checked > 100, "only {checked} unclamped codes");
}

#[test]
#[should_panic(expected = "mcd: drop probability p = 0.984375")]
fn a_scale_beyond_fixed_point_is_refused_naming_p() {
    let x = QTensor::zeros(Shape4::new(1, 2, 1, 1));
    let masks = MaskSet::draw(&[true], &[2], 63.0 / 64.0, |c| vec![true; c]);
    let _ = run_site(&site(baked(0.25), 128), &x, &[masks]);
}
