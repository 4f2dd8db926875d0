//! Ablation studies beyond the paper's tables (DESIGN.md §5):
//!
//! 1. Bernoulli source: bit-exact hardware LFSR pipeline vs software
//!    PRNG — does the gate-network mask statistically alter quality?
//! 2. Parallelism: latency across (P_C, P_F, P_V) splits at a fixed
//!    multiplier budget — why the paper's 64/64/1-scale choice wins.
//! 3. IC speedup surface over the full {L, S} grid.
//! 4. Quantization: f32 vs int8 accuracy per network.

use bnn_accel::{AccelConfig, Accelerator, PerfModel};
use bnn_bench::{seed, write_csv, Workload};
use bnn_fpga::Session;
use bnn_mcd::{accuracy, BayesConfig, ParallelConfig};
use bnn_nn::{arch::extract_layers, MaskSet, SgdConfig, Trainer};
use bnn_quant::Quantizer;

fn main() {
    ablation_parallelism();
    ablation_ic_surface();
    ablation_sampler_and_quant();
}

fn ablation_parallelism() {
    println!("== Ablation: parallelism split at 4096 multipliers ==\n");
    let w = Workload::ResNet18;
    let net = w.network();
    let layers = extract_layers(&net, w.input_shape());
    let n = net.n_sites();
    let mut rows = Vec::new();
    println!(
        "{:>5} {:>5} {:>4} {:>12} {:>10}",
        "P_C", "P_F", "P_V", "latency[ms]", "util[%]"
    );
    for (pc, pf, pv) in [
        (64usize, 64usize, 1usize),
        (128, 32, 1),
        (32, 128, 1),
        (16, 16, 16),
        (64, 16, 4),
        (16, 64, 4),
        (128, 8, 4),
    ] {
        let cfg = AccelConfig::with_parallelism(pc, pf, pv);
        let perf = PerfModel::new(cfg);
        let t = perf.network_timing(&layers, BayesConfig::new(n, 10), true);
        let util: f64 = t.layers.iter().map(|l| l.utilization).sum::<f64>() / t.layers.len() as f64;
        println!(
            "{:>5} {:>5} {:>4} {:>12.3} {:>10.1}",
            pc,
            pf,
            pv,
            t.latency_ms(&cfg),
            util * 100.0
        );
        rows.push(format!(
            "{pc},{pf},{pv},{:.4},{:.4}",
            t.latency_ms(&cfg),
            util
        ));
    }
    write_csv(
        "ablation_parallelism.csv",
        "pc,pf,pv,latency_ms,mean_util",
        &rows,
    );
}

fn ablation_ic_surface() {
    println!("\n== Ablation: IC speedup surface (ResNet-18) ==\n");
    let w = Workload::ResNet18;
    let net = w.network();
    let layers = extract_layers(&net, w.input_shape());
    let cfg = AccelConfig::paper_default();
    let perf = PerfModel::new(cfg);
    let n = net.n_sites();
    let mut rows = Vec::new();
    print!("{:>6}", "L\\S");
    for s in [3usize, 10, 50, 100] {
        print!("{s:>8}");
    }
    println!();
    for l in BayesConfig::l_domain(n) {
        print!("{l:>6}");
        for s in [3usize, 10, 50, 100] {
            let b = BayesConfig::new(l, s);
            let w_ic = perf.network_timing(&layers, b, true).total_cycles;
            let wo = perf.network_timing(&layers, b, false).total_cycles;
            let sp = wo as f64 / w_ic as f64;
            print!("{sp:>7.1}x");
            rows.push(format!("{l},{s},{sp:.3}"));
        }
        println!();
    }
    write_csv("ablation_ic_surface.csv", "L,S,ic_speedup", &rows);
}

fn ablation_sampler_and_quant() {
    println!("\n== Ablation: mask source (LFSR vs software) and int8 quantization ==\n");
    let w = Workload::LeNet5;
    let ds = w.dataset();
    let mut net = w.network();
    let n = net.n_sites();
    let epochs = if bnn_bench::fast_mode() { 1 } else { 3 };
    let mut trainer = Trainer::new(&net, SgdConfig::default(), n, 0.25, seed());
    for _ in 0..epochs {
        let _ = trainer.train_epoch(&mut net, &ds.train_x, &ds.train_y, 32);
    }

    let test_n = if bnn_bench::fast_mode() { 32 } else { 96 };
    let mut test = bnn_tensor::Tensor::zeros(ds.image_shape().with_n(test_n));
    for i in 0..test_n {
        test.item_mut(i).copy_from_slice(ds.test_x.item(i));
    }
    let labels = &ds.test_y[..test_n];
    let s = if bnn_bench::fast_mode() { 8 } else { 30 };
    let cfg = BayesConfig::new(n, s);
    let session = || {
        Session::for_graph(&net)
            .bayes(cfg)
            .parallel(ParallelConfig::max_parallel())
    };

    let acc_soft = accuracy(&session().seed(seed()).build().predictive(&test), labels);
    let acc_hard = accuracy(
        &session().hardware_masks(seed()).build().predictive(&test),
        labels,
    );
    println!("MCD accuracy, software masks: {acc_soft:.4}");
    println!("MCD accuracy, LFSR hardware masks: {acc_hard:.4}");
    println!("(difference is sampling noise — the gate network is unbiased)");

    // Quantization: f32 vs int8 deterministic accuracy.
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let f32_logits = folded.forward(&test, &MaskSet::none());
    let int8_logits = qg.forward(&test, &MaskSet::none());
    let acc_f32 = (0..test_n)
        .filter(|&i| f32_logits.argmax_item(i) == labels[i])
        .count() as f64
        / test_n as f64;
    let acc_int8 = (0..test_n)
        .filter(|&i| int8_logits.argmax_item(i) == labels[i])
        .count() as f64
        / test_n as f64;
    println!("\ndeterministic accuracy f32: {acc_f32:.4}, int8: {acc_int8:.4}");

    // And the accelerator agrees with the int8 reference bit-exactly.
    let accel = Accelerator::new(AccelConfig::paper_default(), &folded, &qg, ds.image_shape());
    let img = test.select_item(0);
    let run = accel.run_with_masks(
        &img,
        BayesConfig {
            l: 0,
            s: 1,
            p: 0.25,
        },
        &[MaskSet::none()],
    );
    let reference = qg.forward(&img, &MaskSet::none());
    assert_eq!(run.logits_per_sample[0].as_slice(), reference.as_slice());
    println!("accelerator == int8 reference: bit-exact");

    write_csv(
        "ablation_sampler_quant.csv",
        "metric,value",
        &[
            format!("acc_mcd_software,{acc_soft:.5}"),
            format!("acc_mcd_lfsr,{acc_hard:.5}"),
            format!("acc_f32,{acc_f32:.5}"),
            format!("acc_int8,{acc_int8:.5}"),
        ],
    );
}
