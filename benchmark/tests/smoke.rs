//! `--smoke` runs of the real binary: every workload, untraced and
//! traced, tiny budgets, every correctness check. This is what keeps
//! the benchmark from bit-rotting between the PRs that use it.

use bnn_benchmark::json::Json;
use bnn_benchmark::workload::{per_layer, END_TO_END, WORKLOADS};
use std::path::Path;
use std::process::Command;

const SEED: &str = "20210905";

/// Run one workload in one mode; return the last stdout line parsed.
fn smoke(workload: &str, trace: &str, results: &Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_bnn-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            SEED,
            "--trace",
            trace,
        ])
        .args(["--seconds", "2", "--smoke", "--results"])
        .arg(results)
        .output()
        .expect("spawn bnn-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a last line")).expect("last line is JSON")
}

fn document(results: &Path, file: &str) -> Json {
    let text = std::fs::read_to_string(results.join(file)).expect(file);
    Json::parse(&text).expect(file)
}

#[test]
fn every_workload_passes_every_check_untraced_and_traced() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-results");
    let mut digests = Vec::new();
    for w in &WORKLOADS {
        // Untraced: exactly the end-to-end metrics, none of them zero.
        let last = smoke(w.name, "0", &results);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
        assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = last.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{}", w.name);
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(v > 0.0 && v.is_finite(), "{} {name} = {v}", w.name);
        }

        // Traced: exactly the per-layer metrics, and the traced pass
        // answered what the untraced pass answered.
        let last = smoke(w.name, "1", &results);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
        let metrics = last.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{}", w.name);
        let value = |name: &str| {
            last.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{} lacks {name}", w.name))
        };
        assert_eq!(value("bench.verify_mismatch"), 0.0);
        assert!(value("bench.verify_replayed") >= 1.0);
        assert_eq!(value("bench.counters_match"), 1.0);
        assert!(value("trace.events") > 0.0);
        assert!(
            value("stage.chunk.share") > 0.0,
            "every path runs the engine"
        );
        assert!(value("stage.residual_share") < 1.0);
        assert!(value("accel.model.cycles_s10") > 0.0);
        assert!(value("tensor.peak_fma_gflops") > 0.0);

        let untraced = document(&results, &format!("{}.json", w.name));
        let traced = document(&results, &format!("{}.layers.json", w.name));
        let digest = untraced.get("output_digest").and_then(Json::as_str);
        assert!(digest.is_some(), "{} has no digest", w.name);
        assert_eq!(digest, traced.get("output_digest").and_then(Json::as_str));
        digests.push(digest.unwrap().to_string());
        let trace = document(&results, &format!("{}.trace.json", w.name));
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        for cat in ["bnn", "bench"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("cat").and_then(Json::as_str) == Some(cat)),
                "{} trace has no `{cat}` events",
                w.name
            );
        }
    }
    // Different workloads ask different questions.
    digests.sort();
    digests.dedup();
    assert_eq!(digests.len(), WORKLOADS.len());
}
