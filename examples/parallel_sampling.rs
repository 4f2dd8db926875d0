//! The parallel Monte-Carlo sampling engine: predictive inference at
//! `S = 100` with the serial engine and with a 4-worker team, showing
//! wall-clock per configuration and that the distributions are
//! bit-identical (the mask stream is drawn serially either way).
//!
//! Run with `cargo run --release --example parallel_sampling`.

use bnn_fpga::mcd::{BayesConfig, ParallelConfig};
use bnn_fpga::nn::models;
use bnn_fpga::tensor::{Shape4, Tensor};
use bnn_fpga::Session;
use std::time::Instant;

fn main() {
    let net = models::lenet5(10, 1, 28, 5);
    let x = Tensor::full(Shape4::new(1, 1, 28, 28), 0.25);
    let cfg = BayesConfig::new(3, 100);

    let timed = |label: &str, parallel: ParallelConfig| -> Tensor {
        let mut session = Session::for_graph(&net)
            .bayes(cfg)
            .parallel(parallel)
            .seed(42)
            .build();
        let start = Instant::now();
        let reps = 20;
        let mut probs = session.predictive(&x);
        for _ in 1..reps {
            probs = session.predictive(&x);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
        println!("{label:<28} {ms:8.2} ms / predictive (S = {})", cfg.s);
        probs
    };

    let serial = timed("serial (threads = 1)", ParallelConfig::serial());
    let four = timed("thread team (threads = 4)", ParallelConfig::with_threads(4));
    let auto = timed("auto (all CPUs)", ParallelConfig::max_parallel());

    assert_eq!(
        serial.as_slice(),
        four.as_slice(),
        "engines must agree bit-for-bit"
    );
    assert_eq!(
        serial.as_slice(),
        auto.as_slice(),
        "engines must agree bit-for-bit"
    );
    println!("\nall engines bit-identical on the same mask stream ✓");
    println!(
        "host CPUs: {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
}
