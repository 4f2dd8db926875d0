//! Cells of trained networks at the full budget and seed 2021.

use crate::{dataset, l_of, layers, spec, Cell, Table, NETS, SEED};
use bnn_fpga::accel::AccelConfig;
use bnn_fpga::data::{gaussian_noise_like, Dataset};
use bnn_fpga::framework::{select, CandidatePoint, Explorer, NetKind, OptMode, Requirements};
use bnn_fpga::framework::{TrainedMetricProvider, TrainingBudget};
use bnn_fpga::mcd::{accuracy, avg_predictive_entropy, mutual_information};
use bnn_fpga::mcd::{BayesConfig, ParallelConfig};
use bnn_fpga::nn::{Graph, MaskSet, SgdConfig, Trainer};
use bnn_fpga::quant::Quantizer;
use bnn_fpga::tensor::{softmax_rows, Tensor};
use bnn_fpga::Session;

/// Paper Table I, per network in `NETS` order and per mode in
/// `OptMode::all()` order (latency, accuracy, uncertainty, confidence):
/// L, then S, FPGA, CPU and GPU ms, aPE, ECE % and accuracy %.
#[rustfmt::skip]
const TABLE1: [(&str, [f64; 7]); 12] = [
    ("1", [3.0, 0.42, 0.67, 0.24, 0.63, 0.25, 99.27]),
    ("2N/3", [100.0, 14.32, 24.69, 12.87, 0.75, 0.13, 99.39]),
    ("N", [100.0, 14.83, 42.0, 19.91, 1.06, 0.17, 99.32]),
    ("N", [9.0, 1.29, 3.68, 1.68, 0.98, 0.10, 99.31]),
    ("1", [3.0, 0.57, 0.95, 0.68, 1.38, 2.8, 95.38]),
    ("N", [100.0, 57.32, 186.24, 88.93, 1.97, 2.42, 96.49]),
    ("2N/3", [100.0, 42.89, 110.32, 59.78, 2.02, 0.41, 96.13]),
    ("2N/3", [100.0, 42.89, 110.32, 59.78, 2.02, 0.41, 96.13]),
    ("1", [3.0, 0.47, 1.31, 0.87, 0.36, 4.85, 92.84]),
    ("1", [8.0, 0.50, 2.03, 1.17, 0.38, 4.74, 92.91]),
    ("N/2", [100.0, 32.04, 173.53, 93.23, 1.27, 2.74, 91.12]),
    ("2N/3", [3.0, 1.20, 7.66, 3.93, 1.05, 1.08, 89.99]),
];

/// Table I, Fig. 1, Fig. 6 and the sampler and int8 ablations, in that
/// order. Trains every network; takes minutes.
pub fn trained_cells() -> Vec<Cell> {
    let mut out = Vec::new();
    let resnet18 = table1(&mut out);
    fig1(&mut out);
    fig6(&resnet18, &mut out);
    sampler_and_int8(&mut out);
    out
}

/// Every network's optimum per mode; returns ResNet-18's candidate grid.
fn table1(out: &mut Vec<Cell>) -> Vec<CandidatePoint> {
    let mut t = Table("Table I", out);
    let mut grid = Vec::new();
    for (net, paper) in NETS.into_iter().zip(TABLE1.chunks(4)) {
        let (layers, n) = layers(net);
        let explorer = Explorer::new(AccelConfig::paper_default(), layers, n);
        let (name, _, _, epochs) = spec(net);
        let mut budget = TrainingBudget::default();
        (budget.epochs, budget.test_n) = (epochs, 96);
        let mut provider = TrainedMetricProvider::new(net, dataset(net), budget, SEED);
        for (mode, &(l, p)) in OptMode::all().into_iter().zip(paper) {
            let r = explorer.explore(&mut provider, mode, &Requirements::none());
            let c = r.selected.expect("an unconstrained grid always selects");
            let row = format!("{name} {}", mode.label());
            let v = [c.l as f64, c.s as f64, c.fpga_ms, c.cpu_ms, c.gpu_ms];
            let paper = [l_of(l, n) as f64, p[0], p[1], p[2], p[3]];
            t.row(&row, &["L", "S", "FPGA ms", "CPU ms", "GPU ms"], &v, &paper);
            let v = [c.ape, 100.0 * c.ece, 100.0 * c.accuracy];
            t.row(&row, &["aPE", "ECE %", "accuracy %"], &v, &p[4..]);
            if net == NetKind::ResNet18 {
                grid = r.candidates;
            }
        }
    }
    grid
}

/// LeNet-5 trained on its synthetic set, with MCD at every site or none.
fn lenet5(ds: &Dataset, bayesian: bool, epochs: usize) -> Graph {
    let mut net = NetKind::LeNet5.build(SEED);
    let l = if bayesian { net.n_sites() } else { 0 };
    let mut trainer = Trainer::new(&net, SgdConfig::default(), l, 0.25, SEED);
    for _ in 0..epochs {
        let _ = trainer.train_epoch(&mut net, &ds.train_x, &ds.train_y, 32);
    }
    net
}

/// Confidence on Gaussian noise of a standard LeNet-5 and a Bayesian one
/// (`S` = 50), trained identically otherwise.
fn fig1(out: &mut Vec<Cell>) {
    let ds = dataset(NetKind::LeNet5);
    let (std_net, bnn_net) = (lenet5(&ds, false, 8), lenet5(&ds, true, 8));
    let noise = gaussian_noise_like(&ds, 200, SEED ^ 0xF16);
    let mut std_probs = std_net.forward(&noise, &MaskSet::none());
    let (rows, k) = (std_probs.shape().n, std_probs.shape().item_len());
    softmax_rows(std_probs.as_mut_slice(), rows, k);
    let bayes = BayesConfig::new(bnn_net.n_sites(), 50);
    let parallel = ParallelConfig::max_parallel();
    let session = || Session::for_graph(&bnn_net).bayes(bayes).parallel(parallel);
    let bnn_probs = session().seed(SEED ^ 0xB).build().predictive(&noise);
    let bins: Vec<String> = (0..10).map(|b| format!("conf 0.{b}+")).collect();
    let bins: Vec<&str> = bins.iter().map(String::as_str).collect();
    let mut t = Table("Fig. 1", out);
    for (name, probs) in [("BNN", &bnn_probs), ("standard NN", &std_probs)] {
        let mut hist = [0.0; 10];
        for i in 0..rows {
            let conf = f64::from(probs.item(i)[probs.argmax_item(i)]);
            hist[((conf * 10.0) as usize).min(9)] += 1.0;
        }
        hist = hist.map(|h| h / rows as f64);
        t.row(name, &bins, &hist, &[]);
        let mean: f64 = (0..10).map(|b| hist[b] * (b as f64 / 10.0 + 0.05)).sum();
        let v = [mean, avg_predictive_entropy(probs)];
        t.row(name, &["mean confidence", "aPE nats"], &v, &[]);
    }
    // The epistemic share of the BNN's entropy.
    let mi = mutual_information(&session().seed(SEED ^ 0xB).build().sample_probs(&noise));
    t.row("BNN", &["BALD MI nats"], &[mi], &[]);
}

/// ResNet-18's optimum per mode over the whole grid, then
/// Opt-Confidence inside the paper's box: latency ≤ 20 ms, accuracy at
/// least the grid's median, aPE ≥ 0.3.
fn fig6(grid: &[CandidatePoint], out: &mut Vec<Cell>) {
    let cols = ["L", "S", "FPGA ms", "accuracy", "aPE", "ECE"];
    let point = |c: CandidatePoint| [c.l as f64, c.s as f64, c.fpga_ms, c.accuracy, c.ape, c.ece];
    let mut t = Table("Fig. 6", out);
    for mode in OptMode::all() {
        let best = select(grid, mode, &Requirements::none()).expect("a non-empty grid selects");
        let row = format!("global {}", mode.label());
        t.row(&row, &cols, &point(best), &[]);
    }
    let mut accs: Vec<f64> = grid.iter().map(|c| c.accuracy).collect();
    accs.sort_by(f64::total_cmp);
    let req = Requirements {
        max_latency_ms: Some(20.0),
        min_accuracy: Some(accs[accs.len() / 2]),
        min_ape: Some(0.3),
        max_ece: None,
    };
    if let Some(c) = select(grid, OptMode::Confidence, &req) {
        t.row("boxed Opt-Confidence", &cols, &point(c), &[]);
    }
    let feasible = grid.iter().filter(|c| c.feasible(&req)).count() as f64;
    let v = [accs[accs.len() / 2], feasible, grid.len() as f64];
    let cols = ["median accuracy", "feasible points", "points"];
    t.row("box", &cols, &v, &[]);
}

/// LeNet-5 (3 epochs, MCD at every site): MCD accuracy with software
/// and LFSR masks at `S` = 30, and deterministic f32 against int8.
fn sampler_and_int8(out: &mut Vec<Cell>) {
    let ds = dataset(NetKind::LeNet5);
    let net = lenet5(&ds, true, 3);
    let test_x = ds.test_x.as_slice()[..96 * ds.test_x.shape().item_len()].to_vec();
    let test = Tensor::from_vec(ds.image_shape().with_n(96), test_x);
    let labels = &ds.test_y[..96];
    let bayes = BayesConfig::new(net.n_sites(), 30);
    let parallel = ParallelConfig::max_parallel();
    let session = || Session::for_graph(&net).bayes(bayes).parallel(parallel);
    let soft = session().seed(SEED).build().predictive(&test);
    let lfsr = session().hardware_masks(SEED).build().predictive(&test);
    let v = [accuracy(&soft, labels), accuracy(&lfsr, labels)];
    let cols = ["software masks", "LFSR masks"];
    Table("Sampler", out).row("LeNet-5 accuracy", &cols, &v, &[]);
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let f32_logits = folded.forward(&test, &MaskSet::none());
    let v = [f32_logits, qg.forward(&test, &MaskSet::none())].map(|l| accuracy(&l, labels));
    Table("Int8", out).row("LeNet-5 accuracy", &["f32", "int8"], &v, &[]);
}
