//! The two competing BNN accelerators, functionally reproduced:
//! VIBNN's Gaussian weight sampling and BYNQNet's sampling-free moment
//! propagation — the paper's Table IV baselines.
//!
//! ```bash
//! cargo run --release --example baseline_comparison
//! ```

use bnn_fpga::platforms::bynqnet::{BynqnetNetwork, BynqnetPerfModel};
use bnn_fpga::platforms::vibnn::{VibnnNetwork, VibnnPerfModel};
use bnn_fpga::rng::SoftRng;

fn entropy(p: &[f32]) -> f64 {
    p.iter()
        .filter(|&&v| v > 0.0)
        .map(|&v| -f64::from(v) * f64::from(v).ln())
        .sum()
}

fn main() {
    // --- VIBNN: sample weights per inference with a hardware Gaussian RNG.
    let vibnn = VibnnNetwork::mnist_784_400_400_10(7);
    let mut grng = VibnnNetwork::hardware_sampler(42);
    let mut rng = SoftRng::new(3);
    let x: Vec<f32> = (0..784).map(|_| rng.next_f32()).collect();
    let pred = vibnn.predictive(&x, 20, &mut grng);
    println!("VIBNN (784-400-400-10, CLT Gaussian sampler):");
    println!(
        "  predictive entropy over 20 weight samples: {:.3} nats",
        entropy(&pred)
    );
    let perf = VibnnPerfModel::default();
    println!(
        "  perf model: {:.1} GOP/s -> {:.3} ms per weight sample\n",
        perf.throughput_gops(),
        perf.sample_latency_ms(&vibnn)
    );

    // --- BYNQNet: one pass propagates (mean, variance) analytically.
    let bynq = BynqnetNetwork::new(&[784, 128, 64, 10], 11);
    let mean: Vec<f32> = (0..784).map(|_| rng.next_f32()).collect();
    let var = vec![0.01f32; 784];
    let (m, v) = bynq.forward_moments(&mean, &var);
    println!("BYNQNet (quadratic activations, moment propagation):");
    let top = m
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty");
    println!(
        "  top logit: class {} with mean {:.3} +- {:.3} (one pass, no sampling)",
        top.0,
        top.1,
        v[top.0].sqrt()
    );
    let perf = BynqnetPerfModel::default();
    println!(
        "  perf model: {:.2} GOP/s on {} DSPs",
        perf.throughput_gops(),
        perf.dsps
    );

    println!("\nTable IV context: the paper's accelerator reaches ~1590 GOP/s on");
    println!("ResNet-101 — see the Table IV cells of `cargo run -p bnn-bench --release`.");
}
