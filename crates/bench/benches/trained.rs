//! Print the trained cells (`cargo bench -p bnn-bench`): reported, not
//! gated, and minutes long.

fn main() {
    print!("{}", bnn_bench::render(&bnn_bench::trained_cells()));
}
