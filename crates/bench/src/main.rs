//! Print the analytic cells and write them to `FIDELITY.json` at the
//! workspace root, which CI diffs: `cargo run -p bnn-bench --release`.

fn main() {
    let cells = bnn_bench::analytic_cells();
    print!("{}", bnn_bench::render(&cells));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FIDELITY.json");
    std::fs::write(path, bnn_bench::to_json(&cells)).expect("FIDELITY.json is writable");
}
