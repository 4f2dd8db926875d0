//! `bnn-benchmark` — see `benchmark/README.md`.

#![forbid(unsafe_code)]

use bnn_benchmark::json::Json;
use bnn_benchmark::run::{run, write_file, RunArgs};
use bnn_benchmark::stack::Inputs;
use bnn_benchmark::workload::{by_name, per_layer, Workload, END_TO_END, WORKLOADS};
use bnn_benchmark::{compare, probe};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str = "\
bnn-benchmark — the repo benchmark

USAGE:
    bnn-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                      [--smoke] [--results DIR]
        One workload in one mode; the last line of output is the result
        object. Without --workload: every workload, untraced then traced,
        each in a fresh process, gathered into <results>/run-<seed>.json.
    bnn-benchmark probe [--seed N]
        The layer probes alone.
    bnn-benchmark compare <a.json> <b.json> [--bounds BENCHMARK.json]
        Gate b against a under the bounds of BENCHMARK.json.
    bnn-benchmark manifest
        Print BENCHMARK.json from the tables in src/workload.rs.
";

/// Results land beside the crate, inside whichever checkout built it.
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
    smoke: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            positional: Vec::new(),
            named: Vec::new(),
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => flags.smoke = true,
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.named.push((name.to_string(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} `{v}`")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .named
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

fn run_one(w: &'static Workload, flags: &Flags) -> Result<bool, String> {
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let args = RunArgs {
        workload: w,
        seed: flags.number("seed", 1u64)?,
        seconds: flags.number("seconds", RUN_SECONDS as f64)?,
        trace,
        smoke: flags.smoke,
        results: PathBuf::from(flags.get("results").unwrap_or(RESULTS_DIR)),
    };
    if !(1.0..=600.0).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 600".to_string());
    }
    let out = run(&args)?;
    for (name, value, unit) in &out.metrics {
        println!("{} {name} {value} {unit}", w.name);
    }
    if let Some(digest) = out.document.get("output_digest").and_then(Json::as_str) {
        println!("{} output_digest {digest}", w.name);
    }
    for note in out
        .document
        .get("notes")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        eprintln!("{}: {}", w.name, note.as_str().unwrap_or_default());
    }
    let suffix = if trace { "layers.json" } else { "json" };
    write_file(
        &args.results.join(format!("{}.{suffix}", w.name)),
        &out.document.to_string(),
    )?;
    let mut last = Json::obj();
    last.push("correct", out.correct)
        .push("attempted", out.attempted)
        .push("failed", out.failed)
        .push(
            "metrics",
            out.document.get("metrics").cloned().unwrap_or(Json::obj()),
        );
    println!("{last}");
    Ok(out.correct)
}

/// Every workload, untraced then traced, each in a process of its own:
/// a fresh process has a fresh global `WorkerPool`, trace flag and RSS
/// high-water mark.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let results = PathBuf::from(flags.get("results").unwrap_or(RESULTS_DIR));
    let seed: u64 = flags.number("seed", 1)?;
    let mut all_ok = true;
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        for (trace, suffix) in [("0", "json"), ("1", "layers.json")] {
            let mut child = Command::new(&exe);
            child.args(["run", "--workload", w.name, "--trace", trace]);
            for (name, value) in &flags.named {
                if name != "trace" {
                    child.args([format!("--{name}"), value.clone()]);
                }
            }
            if flags.smoke {
                child.arg("--smoke");
            }
            let status = child.status().map_err(|e| format!("spawn: {e}"))?;
            all_ok &= status.success();
            let path = results.join(format!("{}.{suffix}", w.name));
            match std::fs::read_to_string(&path).map(|t| Json::parse(&t)) {
                Ok(Ok(doc)) if status.success() => runs.push(doc),
                _ => eprintln!("{}: --trace {trace} left no result document", w.name),
            }
        }
    }
    let mut doc = Json::obj();
    doc.push("seed", seed).push("runs", runs);
    let path = results.join(format!("run-{seed}.json"));
    write_file(&path, &doc.to_string())?;
    eprintln!("wrote {}", path.display());
    Ok(all_ok)
}

fn probe_only(flags: &Flags) -> Result<bool, String> {
    flags.only(&["seed"])?;
    let seed: u64 = flags.number("seed", 1)?;
    let values = probe::run(seed, &Inputs::generate(seed), Duration::from_millis(300));
    for (name, unit, _) in per_layer() {
        if let Some((_, value)) = values.iter().find(|(n, _)| *n == name) {
            println!("probe {name} {value} {unit}");
        }
    }
    Ok(true)
}

fn compare_files(flags: &Flags) -> Result<bool, String> {
    flags.only(&["bounds"])?;
    let [_, a, b] = flags.positional.as_slice() else {
        return Err("compare takes two result documents".to_string());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let bounds = load(flags.get("bounds").unwrap_or("BENCHMARK.json"))?;
    let rows = compare::compare(&bounds, &load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    Ok(!compare::fails(&rows))
}

/// Seconds one run measures (`run_seconds` of the manifest).
const RUN_SECONDS: u64 = 22;

/// `BENCHMARK.json`, from the same tables the binary prints from.
fn manifest() -> Json {
    let strings = |items: &[&str]| items.iter().map(|&s| Json::from(s)).collect::<Vec<_>>();
    let mut doc = Json::obj();
    doc.push(
        "command",
        strings(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
            "run",
        ]),
    )
    .push("paths", strings(&["benchmark"]))
    .push("run_seconds", RUN_SECONDS)
    .push(
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| {
                let mut o = Json::obj();
                o.push("name", w.name).push("why", w.why);
                o
            })
            .collect::<Vec<_>>(),
    )
    .push(
        "end_to_end",
        END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| {
                let mut o = Json::obj();
                o.push("name", *name)
                    .push("unit", *unit)
                    .push("better", better.as_str())
                    .push("bound", *bound);
                o
            })
            .collect::<Vec<_>>(),
    )
    .push(
        "per_layer",
        per_layer()
            .into_iter()
            .map(|(name, unit, better)| {
                let mut o = Json::obj();
                o.push("name", name)
                    .push("unit", unit)
                    .push("better", better.as_str());
                o
            })
            .collect::<Vec<_>>(),
    );
    doc
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        Flags::parse(&args).and_then(|flags| match flags.positional.first().map(String::as_str) {
            Some("run") => {
                flags.only(&["workload", "seed", "seconds", "trace", "results"])?;
                match flags.get("workload") {
                    Some(name) => {
                        let w = by_name(name).ok_or(format!("unknown workload `{name}`"))?;
                        run_one(w, &flags)
                    }
                    None => run_all(&flags),
                }
            }
            Some("probe") => probe_only(&flags),
            Some("compare") => compare_files(&flags),
            Some("manifest") => {
                println!("{}", manifest().pretty(2));
                Ok(true)
            }
            _ => Err(USAGE.to_string()),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
