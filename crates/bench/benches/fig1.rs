//! Figure 1 — confidence histograms on random-noise input:
//! Bayesian vs standard neural network.

use bnn_bench::{seed, write_csv, Workload};
use bnn_data::gaussian_noise_like;
use bnn_fpga::Session;
use bnn_mcd::{avg_predictive_entropy, BayesConfig, ParallelConfig};
use bnn_nn::{MaskSet, SgdConfig, Trainer};
use bnn_tensor::{softmax_rows, Tensor};

fn confidence_histogram(probs: &Tensor, bins: usize) -> Vec<f64> {
    let mut hist = vec![0.0f64; bins];
    for i in 0..probs.shape().n {
        let conf = probs.item(i)[probs.argmax_item(i)];
        let b = ((f64::from(conf) * bins as f64) as usize).min(bins - 1);
        hist[b] += 1.0;
    }
    let n = probs.shape().n as f64;
    for h in &mut hist {
        *h /= n;
    }
    hist
}

fn main() {
    let w = Workload::LeNet5;
    let ds = w.dataset();
    let epochs = if bnn_bench::fast_mode() { 2 } else { 8 };

    // Two networks trained identically except for MCD: the standard NN
    // (no dropout anywhere) and the Bayesian one (MCD at every site).
    let mut std_net = w.network();
    let mut std_tr = Trainer::new(&std_net, SgdConfig::default(), 0, 0.25, seed());
    let mut bnn_net = w.network();
    let n_sites = bnn_net.n_sites();
    let mut bnn_tr = Trainer::new(&bnn_net, SgdConfig::default(), n_sites, 0.25, seed());
    for e in 0..epochs {
        let (sl, sa) = std_tr.train_epoch(&mut std_net, &ds.train_x, &ds.train_y, 32);
        let (bl, ba) = bnn_tr.train_epoch(&mut bnn_net, &ds.train_x, &ds.train_y, 32);
        println!("epoch {e}: std loss {sl:.3} acc {sa:.3} | bnn loss {bl:.3} acc {ba:.3}");
    }

    let noise_n = if bnn_bench::fast_mode() { 64 } else { 200 };
    let noise = gaussian_noise_like(&ds, noise_n, seed() ^ 0xF16);

    // Standard NN: single deterministic pass.
    let mut std_probs = std_net.forward(&noise, &MaskSet::none());
    let (n, k) = (std_probs.shape().n, std_probs.shape().item_len());
    softmax_rows(std_probs.as_mut_slice(), n, k);

    // BNN: MCD, full network, S = 50.
    let s = if bnn_bench::fast_mode() { 10 } else { 50 };
    let bnn_probs = Session::for_graph(&bnn_net)
        .bayes(BayesConfig::new(n_sites, s))
        .parallel(ParallelConfig::max_parallel())
        .seed(seed() ^ 0xB)
        .build()
        .predictive(&noise);

    let hs = confidence_histogram(&std_probs, 10);
    let hb = confidence_histogram(&bnn_probs, 10);

    println!("\nFigure 1 — normalized confidence frequency on Gaussian noise\n");
    println!("{:>10} {:>12} {:>12}", "conf bin", "BNN", "standard NN");
    let mut rows = Vec::new();
    for b in 0..10 {
        let lo = b as f64 / 10.0;
        println!(
            "{:>4.1}-{:>4.1} {:>12.3} {:>12.3}",
            lo,
            lo + 0.1,
            hb[b],
            hs[b]
        );
        rows.push(format!("{:.1},{:.4},{:.4}", lo, hb[b], hs[b]));
    }
    let mean_conf = |h: &[f64]| -> f64 {
        h.iter()
            .enumerate()
            .map(|(b, &v)| v * (b as f64 / 10.0 + 0.05))
            .sum()
    };
    println!(
        "\nmean confidence: BNN {:.3} vs standard {:.3} (paper: BNN far less confident)",
        mean_conf(&hb),
        mean_conf(&hs)
    );
    println!(
        "aPE on noise: BNN {:.3} nats vs standard {:.3} nats",
        avg_predictive_entropy(&bnn_probs),
        avg_predictive_entropy(&std_probs)
    );
    write_csv(
        "fig1_confidence_hist.csv",
        "bin_lo,bnn_freq,std_freq",
        &rows,
    );
}
