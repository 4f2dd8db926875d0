//! The paper's tables and figures (arXiv 2105.09163) as reproduced
//! cells, each with the paper's value and the relative error where the
//! paper reports one. [`analytic_cells`] are pure functions of
//! `AccelConfig` and layer shapes: the `bnn-bench` binary writes them to
//! the committed `FIDELITY.json`, which CI diffs. [`trained_cells`]
//! train on synthetic stand-ins for MNIST, SVHN and CIFAR-10, so
//! `cargo bench -p bnn-bench` reports them and nothing gates them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod trained;

pub use trained::trained_cells;

use bnn_fpga::accel::{AccelConfig, FpgaDevice, PerfModel, ResourceModel};
use bnn_fpga::data::{synth_cifar, synth_mnist, synth_svhn, Dataset};
use bnn_fpga::framework::{optimize_hardware, NetKind};
use bnn_fpga::mcd::BayesConfig;
use bnn_fpga::nn::arch::{extract_layers, resnet101_desc, LayerDesc};
use bnn_fpga::platforms::{bynqnet::BynqnetPerfModel, vibnn::VibnnPerfModel};
use bnn_fpga::platforms::{AcceleratorSummary, PlatformModel};
use bnn_fpga::tensor::Shape4;
use bnn_fpga::trace::JsonObj;

/// Seed of every trained experiment (the paper's year).
const SEED: u64 = 2021;

/// Paper Table II: ALMs, registers, DSPs and M20Ks of the 64/64/1 design.
const TABLE2: [f64; 4] = [303_913.0, 889_869.0, 1_473.0, 2_334.0];

/// Paper Table III, latency in ms: FPGA with IC, FPGA without IC, CPU, GPU.
const TABLE3: [(&str, [f64; 4]); 6] = [
    ("LeNet-5 {1,100}", [13.73, 14.38, 11.17, 5.81]),
    ("LeNet-5 {2N/3,50}", [7.16, 7.20, 12.02, 6.07]),
    ("VGG-11 {1,100}", [0.76, 57.3, 11.76, 6.33]),
    ("VGG-11 {2N/3,50}", [21.52, 28.67, 55.94, 30.09]),
    ("ResNet-18 {1,100}", [1.22, 44.97, 13.96, 7.05]),
    ("ResNet-18 {2N/3,50}", [18.90, 22.48, 131.41, 65.9]),
];

/// Paper Table IV: GOP/s, GOP/s/W and GOP/s/DSP.
const TABLE4: [(&str, [f64; 3]); 3] = [
    ("VIBNN", [59.6, 9.75, 0.174]),
    ("BYNQNet", [24.22, 8.77, 0.121]),
    ("This work", [1590.0, 33.3, 1.079]),
];

/// One reproduced number.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Table or figure, e.g. `"Table III"`.
    pub table: &'static str,
    /// Row within the table.
    pub row: String,
    /// Column within the row.
    pub col: String,
    /// The reproduced value.
    pub value: f64,
    /// The paper's value, where it reports one.
    pub paper: Option<f64>,
}

impl Cell {
    /// Relative error against the paper, where it reports a value.
    pub fn rel_err(&self) -> Option<f64> {
        self.paper.map(|p| rel_err(self.value, p))
    }
}

/// `(value − paper) / |paper|`: exactly 0 on a match, negative below it.
pub fn rel_err(value: f64, paper: f64) -> f64 {
    (value - paper) / paper.abs()
}

/// The cells of one table or figure, being filled in.
struct Table<'a>(&'static str, &'a mut Vec<Cell>);

impl Table<'_> {
    /// One cell per column of `row`; `paper` is indexed like `cols` and
    /// is empty where the paper reports nothing.
    fn row(&mut self, row: &str, cols: &[&str], values: &[f64], paper: &[f64]) {
        for (i, (col, &value)) in cols.iter().zip(values).enumerate() {
            self.1.push(Cell {
                table: self.0,
                row: row.to_string(),
                col: col.to_string(),
                value,
                paper: paper.get(i).copied(),
            });
        }
    }
}

/// Cells as a text table: value, paper value and relative error.
pub fn render(cells: &[Cell]) -> String {
    let head = ["table", "row", "column", "value", "paper", "rel err"];
    let mut out = format!(
        "{:<14} {:<28} {:<20} {:>14} {:>12} {:>8}\n",
        head[0], head[1], head[2], head[3], head[4], head[5]
    );
    for c in cells {
        let p = c.paper.map(|p| format!("{p:.3}")).unwrap_or_default();
        let e = c.rel_err().map(|e| format!("{:+.1}%", 100.0 * e));
        let (t, r, col, v, e) = (c.table, &c.row, &c.col, c.value, e.unwrap_or_default());
        out += &format!("{t:<14} {r:<28} {col:<20} {v:>14.3} {p:>12} {e:>8}\n");
    }
    out
}

/// The `FIDELITY.json` document: fixed key order, three decimals, one
/// cell per line so that a moved number shows as a one-line diff.
pub fn to_json(cells: &[Cell]) -> String {
    let mut rows = Vec::new();
    for c in cells {
        let mut o = JsonObj::new();
        o.field_str("table", c.table).field_str("row", &c.row);
        o.field_str("col", &c.col).field_f64("value", c.value);
        if let (Some(p), Some(e)) = (c.paper, c.rel_err()) {
            o.field_f64("paper", p).field_f64("rel_err_pct", 100.0 * e);
        }
        rows.push(o.finish());
    }
    let mut doc = JsonObj::new();
    doc.field_str("source", "arXiv 2105.09163");
    doc.field_raw("cells", &format!("[\n{}\n]", rows.join(",\n")));
    doc.finish() + "\n"
}

/// The paper's three networks at the reduced widths `NetKind::build`
/// gives (VGG-11 at `width_div` 8, ResNet-18 at `base` 8).
const NETS: [NetKind; 3] = [NetKind::LeNet5, NetKind::Vgg11, NetKind::ResNet18];

/// Name, input channels and side, and training epochs. The deeper
/// networks get more epochs (VGG's pooled feature maps make its epochs
/// cheap; ResNet needs them for the fully Bayesian configurations).
fn spec(net: NetKind) -> (&'static str, usize, usize, usize) {
    match net {
        NetKind::LeNet5 => ("LeNet-5", 1, 28, 3),
        NetKind::Vgg11 => ("VGG-11", 3, 32, 6),
        NetKind::ResNet18 => ("ResNet-18", 3, 32, 5),
    }
}

/// Layer shapes at batch 1 and the number of MCD sites `N`.
fn layers(net: NetKind) -> (Vec<LayerDesc>, usize) {
    let (_, c, side, _) = spec(net);
    let graph = net.build(SEED);
    let layers = extract_layers(&graph, Shape4::new(1, c, side, side));
    (layers, graph.n_sites())
}

/// The synthetic stand-in for the network's dataset.
fn dataset(net: NetKind) -> Dataset {
    match net {
        NetKind::LeNet5 => synth_mnist(1200, 256, SEED),
        NetKind::Vgg11 => synth_svhn(1200, 256, SEED + 1),
        NetKind::ResNet18 => synth_cifar(1200, 256, SEED + 2),
    }
}

/// `L` as the paper writes it (`1`, `N/2`, `2N/3` or `N`) on a network
/// with `n` MCD sites.
fn l_of(desc: &str, n: usize) -> usize {
    match desc {
        "1" => 1,
        "N/2" => n.div_ceil(2),
        "2N/3" => (2 * n).div_ceil(3),
        _ => n,
    }
}

/// Tables II–IV, the IC speedup surface, the parallelism-split
/// ablation, VGG-11's per-layer cycles and the hardware stage's choice
/// for ResNet-18, in that order; all on the Arria 10 SX660.
pub fn analytic_cells() -> Vec<Cell> {
    let cfg = AccelConfig::paper_default();
    let perf = PerfModel::new(cfg);
    let rm = ResourceModel::new(FpgaDevice::arria10_sx660());
    let mut out = Vec::new();
    // Table II: the buffers hold every evaluated network, ResNet-101 too.
    let mut nets: Vec<Vec<LayerDesc>> = NETS.iter().map(|&net| layers(net).0).collect();
    nets.push(resnet101_desc());
    let u = rm.estimate(&cfg, &nets.iter().map(Vec::as_slice).collect::<Vec<_>>());
    let mut t = Table("Table II", &mut out);
    let v = [u.alms, u.registers, u.dsps, u.m20k].map(|n| n as f64);
    t.row("used", &["ALMs", "Registers", "DSPs", "M20K"], &v, &TABLE2);
    let mib = u.buffer_bytes as f64 / (1024.0 * 1024.0);
    let v = [u.dsp_overflow as f64, mib];
    t.row("model", &["multipliers in ALMs", "buffer MiB"], &v, &[]);
    let (cpu, gpu) = (PlatformModel::i9_9900k(), PlatformModel::rtx_2080_super());
    let mut t = Table("Table III", &mut out);
    for net in NETS {
        let (layers, n) = layers(net);
        for (l, s) in [("1", 100), ("2N/3", 50)] {
            let b = BayesConfig::new(l_of(l, n), s);
            let fpga = [true, false].map(|ic| perf.network_timing(&layers, b, ic).latency_ms(&cfg));
            let host = [&cpu, &gpu].map(|p| p.bayes_latency_ms(&layers, b));
            let v = [fpga[0], fpga[1], host[0], host[1]];
            let row = format!("{} {{{l},{s}}}", spec(net).0);
            let paper = TABLE3.iter().find(|r| r.0 == row).map_or(&[][..], |r| &r.1);
            let cols = ["FPGA w/ IC ms", "FPGA w/o IC ms", "CPU ms", "GPU ms"];
            t.row(&row, &cols, &v, paper);
        }
    }
    // Table IV: ResNet-101 with MCD on every layer (L = N) against the
    // reproduced VIBNN and BYNQNet performance models.
    let r101 = resnet101_desc();
    let n = r101.iter().filter_map(|l| l.input_site).count();
    let ours = AcceleratorSummary {
        name: "This work".into(),
        fpga: "Arria 10 SX660".into(),
        clock_mhz: cfg.clock_mhz,
        dsps: rm.estimate(&cfg, &[&r101]).dsps,
        power_w: cfg.board_power_w,
        throughput_gops: perf.throughput_gops(&r101, BayesConfig::new(n, 1), true),
    };
    let (vibnn, bynqnet) = (VibnnPerfModel::default(), BynqnetPerfModel::default());
    let rows = [vibnn.summary(), bynqnet.summary(), ours];
    let v = rows.map(|s| {
        [
            s.throughput_gops,
            s.energy_efficiency(),
            s.compute_efficiency(),
        ]
    });
    let mut t = Table("Table IV", &mut out);
    for ((name, paper), v) in TABLE4.iter().zip(&v) {
        t.row(name, &["GOP/s", "GOP/s/W", "GOP/s/DSP"], v, paper);
    }
    // The paper's efficiency claims: this design over each baseline.
    for (i, (name, paper)) in TABLE4[..2].iter().enumerate() {
        let ratios = [v[2][1] / v[i][1], v[2][2] / v[i][2]];
        let paper = [TABLE4[2].1[1] / paper[1], TABLE4[2].1[2] / paper[2]];
        let cols = ["GOP/s/W ratio", "GOP/s/DSP ratio"];
        t.row(&format!("This work / {name}"), &cols, &ratios, &paper);
    }
    // Latency with and without intermediate-layer caching over {L, S}.
    let mut t = Table("IC surface", &mut out);
    for net in [NetKind::Vgg11, NetKind::ResNet18] {
        let (layers, n) = layers(net);
        for l in BayesConfig::l_domain(n) {
            for s in [3, 10, 50, 100] {
                let b = BayesConfig::new(l, s);
                let [with, without] = [true, false].map(|ic| perf.network_timing(&layers, b, ic));
                let speedup = without.total_cycles as f64 / with.total_cycles as f64;
                let v = [with.latency_ms(&cfg), without.latency_ms(&cfg), speedup];
                let row = format!("{} {{{l},{s}}}", spec(net).0);
                t.row(&row, &["w/ IC ms", "w/o IC ms", "speedup"], &v, &[]);
            }
        }
    }
    // ResNet-18 at {N, 10} across splits of 4096 multipliers, the
    // paper's 64/64/1 first.
    let (r18, n) = layers(NetKind::ResNet18);
    let mut t = Table("Parallelism", &mut out);
    let splits = [
        (64, 64, 1),
        (128, 32, 1),
        (32, 128, 1),
        (16, 16, 16),
        (64, 16, 4),
        (16, 64, 4),
        (128, 8, 4),
    ];
    for (pc, pf, pv) in splits {
        let cfg = AccelConfig::with_parallelism(pc, pf, pv);
        let timing = PerfModel::new(cfg).network_timing(&r18, BayesConfig::new(n, 10), true);
        let per_layer = &timing.layers;
        let util = per_layer.iter().map(|l| l.utilization).sum::<f64>() / per_layer.len() as f64;
        let v = [timing.latency_ms(&cfg), 100.0 * util];
        let row = format!("ResNet-18 {pc}/{pf}/{pv}");
        t.row(&row, &["latency ms", "mean util %"], &v, &[]);
    }
    // Where one full VGG-11 pass spends its cycles.
    let mut t = Table("VGG-11 layers", &mut out);
    let cols = ["compute cycles", "memory cycles", "total cycles", "util %"];
    let mut sum = 0;
    for l in layers(NetKind::Vgg11).0 {
        let lt = perf.layer_timing(&l, true, true);
        sum += lt.total_cycles;
        let c = [lt.compute_cycles, lt.mem_cycles, lt.total_cycles].map(|c| c as f64);
        let v = [c[0], c[1], c[2], 100.0 * lt.utilization];
        t.row(&l.name, &cols, &v, &[]);
    }
    let v = [sum as f64, cfg.cycles_to_ms(sum)];
    t.row("pass", &["total cycles", "ms"], &v, &[]);
    // The hardware stage's choice for ResNet-18 on the paper's device.
    let hw = optimize_hardware(rm.device(), &[&r18]);
    let v = [hw.pc, hw.pf, hw.pv, hw.multipliers()].map(|p| p as f64);
    let cols = ["P_C", "P_F", "P_V", "multipliers"];
    let row = "ResNet-18 on Arria 10 SX660";
    Table("Hardware opt", &mut out).row(row, &cols, &v, &[64.0, 64.0, 1.0, 4096.0]);
    out
}
