//! Cross-crate integration: train on synthetic data, quantize, run on
//! the simulated accelerator, and check the paper's core claims hold
//! end to end.

use bnn_fpga::accel::{AccelConfig, Accelerator};
use bnn_fpga::data::{gaussian_noise_like, synth_mnist};
use bnn_fpga::mcd::{accuracy, avg_predictive_entropy, BayesConfig};
use bnn_fpga::nn::{evaluate_accuracy, models, MaskSet, SgdConfig, Trainer};
use bnn_fpga::quant::Quantizer;
use bnn_fpga::rng::SoftRng;
use bnn_fpga::tensor::{Shape4, Tensor};
use bnn_fpga::Session;

/// Train a small LeNet on a small synthetic MNIST (shared by tests).
fn trained_lenet() -> (bnn_fpga::nn::Graph, bnn_fpga::data::Dataset) {
    let ds = synth_mnist(400, 96, 33);
    let mut net = models::lenet5(10, 1, 28, 5);
    let mut tr = Trainer::new(&net, SgdConfig::default(), 2, 0.25, 7);
    for _ in 0..3 {
        let _ = tr.train_epoch(&mut net, &ds.train_x, &ds.train_y, 32);
    }
    (net, ds)
}

#[test]
fn training_learns_synthetic_mnist() {
    let (net, ds) = trained_lenet();
    let acc = evaluate_accuracy(&net, &ds.test_x, &ds.test_y, 32);
    assert!(acc > 0.5, "LeNet must beat chance comfortably, acc = {acc}");
}

#[test]
fn bnn_is_more_uncertain_on_noise_than_on_data() {
    let (net, ds) = trained_lenet();
    let noise = gaussian_noise_like(&ds, 48, 9);
    let cfg = BayesConfig::new(net.n_sites(), 20);
    let mut session = Session::for_graph(&net)
        .bayes(cfg)
        .hardware_masks(3)
        .build();

    let test_subset = {
        let mut t = Tensor::zeros(Shape4::new(48, 1, 28, 28));
        for i in 0..48 {
            t.item_mut(i).copy_from_slice(ds.test_x.item(i));
        }
        t
    };
    let p_data = session.predictive(&test_subset);
    let p_noise = session.predictive(&noise);
    let ape_data = avg_predictive_entropy(&p_data);
    let ape_noise = avg_predictive_entropy(&p_noise);
    assert!(
        ape_noise > ape_data,
        "OOD noise must be more uncertain: noise {ape_noise} vs data {ape_data}"
    );
}

#[test]
fn accelerator_matches_reference_on_trained_resnet() {
    // The residual/projection path through the simulator, end to end.
    let mut net = models::resnet18(10, 3, 4, 11);
    let mut rng = SoftRng::new(2);
    let shape = Shape4::new(4, 3, 16, 16);
    let calib = Tensor::from_vec(
        shape,
        (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
    );
    // A couple of training steps so BN stats and weights are non-trivial.
    let mut tr = Trainer::new(&net, SgdConfig::default(), 18, 0.25, 3);
    let _ = tr.train_batch(&mut net, &calib, &[0, 1, 2, 3]);

    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&calib).quantize();
    let accel = Accelerator::new(AccelConfig::paper_default(), &folded, &qg, shape);

    let img = calib.select_item(0);
    let channels = folded.site_channels(img.shape());
    let mut mask_rng = SoftRng::new(17);
    let active = vec![true; folded.n_sites()];
    let masks = MaskSet::sample_software(&active, &channels, 0.25, &mut mask_rng);

    let run = accel.run_with_masks(
        &img,
        BayesConfig {
            l: folded.n_sites(),
            s: 1,
            p: 0.25,
        },
        std::slice::from_ref(&masks),
    );
    let reference = qg.forward(&img, &masks);
    assert_eq!(
        run.logits_per_sample[0].as_slice(),
        reference.as_slice(),
        "ResNet path (residual + projection) must be bit-exact on the accelerator"
    );
}

#[test]
fn quantized_model_tracks_f32_accuracy() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();

    let n = 64;
    let mut test = Tensor::zeros(Shape4::new(n, 1, 28, 28));
    for i in 0..n {
        test.item_mut(i).copy_from_slice(ds.test_x.item(i));
    }
    let labels = &ds.test_y[..n];

    let f32_logits = folded.forward(&test, &MaskSet::none());
    let q_logits = qg.forward(&test, &MaskSet::none());
    let acc_f = accuracy(&f32_logits, labels);
    let acc_q = accuracy(&q_logits, labels);
    assert!(
        (acc_f - acc_q).abs() <= 0.1,
        "int8 accuracy must track f32: {acc_f} vs {acc_q}"
    );
}

#[test]
fn accelerator_predictive_close_to_software_predictive() {
    // Hardware (int8 + LFSR masks) and software (f32 + PRNG masks)
    // predictive distributions agree on the argmax for most inputs.
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::paper_default(), &folded, &qg, ds.image_shape());

    let cfg = BayesConfig::new(2, 16);
    let mut agree = 0;
    let total = 12;
    for i in 0..total {
        let img = ds.test_x.select_item(i);
        let hw = accel.run(&img, cfg, 100 + i as u64);
        let sw = Session::for_graph(&folded)
            .bayes(cfg)
            .hardware_masks(200 + i as u64)
            .build()
            .predictive(&img);
        if hw.predictive.argmax_item(0) == sw.argmax_item(0) {
            agree += 1;
        }
    }
    assert!(
        agree >= total - 2,
        "hardware/software argmax agreement {agree}/{total}"
    );
}
