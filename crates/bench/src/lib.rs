//! Shared plumbing for the table/figure regeneration harness.
//!
//! Every bench target (`table1` … `fig6`, `ablations`) prints its
//! result to stdout *and* writes a CSV under `results/` at the
//! workspace root, with the paper's published values alongside the
//! measured ones so the two can be compared mechanically.
//!
//! Budgets honour two environment variables:
//! * `BNN_FAST=1` — shrink training/evaluation budgets (~6× faster);
//! * `BNN_SEED=<u64>` — change the global experiment seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bnn_data::Dataset;
use bnn_framework::{NetKind, TrainedMetricProvider, TrainingBudget};
use std::fs;
use std::path::PathBuf;

/// Global experiment seed (`BNN_SEED`, default 2021 — the paper year).
pub fn seed() -> u64 {
    std::env::var("BNN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2021)
}

/// Whether the reduced-budget mode is active.
pub fn fast_mode() -> bool {
    std::env::var("BNN_FAST").map(|v| v == "1").unwrap_or(false)
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a CSV file into `results/`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(name);
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    fs::write(&path, body).expect("write csv");
    println!("\n[written {}]", path.display());
}

/// The three paper workloads with their datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LeNet-5 on synthetic MNIST.
    LeNet5,
    /// VGG-11 (reduced) on synthetic SVHN.
    Vgg11,
    /// ResNet-18 (reduced) on synthetic CIFAR.
    ResNet18,
}

impl Workload {
    /// All three, in the paper's order.
    pub fn all() -> [Workload; 3] {
        [Workload::LeNet5, Workload::Vgg11, Workload::ResNet18]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::LeNet5 => "LeNet-5",
            Workload::Vgg11 => "VGG-11",
            Workload::ResNet18 => "ResNet-18",
        }
    }

    /// The `NetKind` for the framework's providers.
    pub fn kind(&self) -> NetKind {
        match self {
            Workload::LeNet5 => NetKind::LeNet5,
            Workload::Vgg11 => NetKind::Vgg11,
            Workload::ResNet18 => NetKind::ResNet18,
        }
    }

    /// Build the dataset at the bench budget.
    pub fn dataset(&self) -> Dataset {
        let (train, test) = if fast_mode() { (320, 96) } else { (1200, 256) };
        match self {
            Workload::LeNet5 => bnn_data::synth_mnist(train, test, seed()),
            Workload::Vgg11 => bnn_data::synth_svhn(train, test, seed() + 1),
            Workload::ResNet18 => bnn_data::synth_cifar(train, test, seed() + 2),
        }
    }

    /// Training budget for the trained metric provider. The deeper
    /// networks get more epochs (VGG's pooled feature maps make its
    /// epochs cheap; ResNet needs them for the fully-Bayesian configs).
    pub fn budget(&self) -> TrainingBudget {
        if fast_mode() {
            return TrainingBudget {
                epochs: 1,
                batch: 32,
                test_n: 48,
                noise_n: 32,
                s_max: 20,
            };
        }
        let epochs = match self {
            Workload::LeNet5 => 3,
            Workload::Vgg11 => 6,
            Workload::ResNet18 => 5,
        };
        TrainingBudget {
            epochs,
            batch: 32,
            test_n: 96,
            noise_n: 64,
            s_max: 100,
        }
    }

    /// A trained metric provider at the bench budget.
    pub fn provider(&self) -> TrainedMetricProvider {
        TrainedMetricProvider::new(self.kind(), self.dataset(), self.budget(), seed())
    }

    /// The paper's network for this workload (graph form).
    pub fn network(&self) -> bnn_nn::Graph {
        self.kind().build(seed())
    }

    /// Input shape (batch 1).
    pub fn input_shape(&self) -> bnn_tensor::Shape4 {
        match self {
            Workload::LeNet5 => bnn_tensor::Shape4::new(1, 1, 28, 28),
            Workload::Vgg11 | Workload::ResNet18 => bnn_tensor::Shape4::new(1, 3, 32, 32),
        }
    }
}

/// Format a ratio as `x.x×`.
pub fn times(r: f64) -> String {
    format!("{r:.1}x")
}
