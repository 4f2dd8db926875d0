//! `bnn-benchmark compare <a.json> <b.json>`: the regression gate.
//! Applies the bounds of `BENCHMARK.json` to every workload ×
//! end-to-end metric of two result documents (`a` the baseline, `b`
//! the candidate) and says, per row, whether `b` is `better`,
//! `within` the bound, `regressed`, or `unresolved` because the
//! windows of the two runs overlap by more than the bound — in which
//! case the data cannot carry a verdict either way.

use crate::json::Json;

/// One row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` improved by more than the bound.
    Better,
    /// `b` is within the bound of `a`.
    Within,
    /// `b` worsened by more than the bound.
    Regressed,
    /// The two sides' window quartile ranges overlap by more than the
    /// bound: noise is wider than the resolution asked for.
    Unresolved,
    /// The row exists in `a` and not in `b`.
    Vanished,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Vanished => "vanished",
        }
    }
}

/// One compared row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub a: f64,
    /// Candidate value (`NaN` when vanished).
    pub b: f64,
    /// How much worse `b` is, as a share of `a` (negative = better).
    pub worse_by: f64,
    /// The bound from `BENCHMARK.json`.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// A result file holds one run document or `{"runs": [...]}`.
fn runs(doc: &Json) -> Vec<&Json> {
    match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    }
}

/// The untraced run of `workload` in a result file.
fn run_of<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    runs(doc).into_iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace") == Some(&Json::Bool(false))
    })
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn quartiles(run: &Json, name: &str) -> Option<(f64, f64)> {
    let w = run.get("windows")?.get(name)?;
    Some((w.get("q1")?.as_f64()?, w.get("q3")?.as_f64()?))
}

/// The fields of `env` two documents must share to be comparable.
fn machine(run: &Json) -> Option<(String, String, String)> {
    let env = run.get("env")?;
    Some((
        env.get("nproc")?.to_string(),
        env.get("cpu_features")?.to_string(),
        env.get("built_with")?.to_string(),
    ))
}

/// Compare two result documents under the bounds of a
/// `BENCHMARK.json` document. `Err` when the documents cannot be
/// compared at all (different machines, malformed input).
pub fn compare(bounds: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let specs = bounds
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("bounds document has no end_to_end array")?;
    let mut rows = Vec::new();
    for run_a in runs(a) {
        if run_a.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = run_a
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload name")?;
        let run_b = run_of(b, workload);
        if let Some(run_b) = run_b {
            let (ma, mb) = (machine(run_a), machine(run_b));
            if ma.is_none() || ma != mb {
                return Err(format!(
                    "{workload}: the two runs differ in nproc or CPU features \
                     ({ma:?} vs {mb:?}); numbers from different machines do not resolve"
                ));
            }
        }
        for spec in specs {
            let field = |k: &str| spec.get(k).ok_or(format!("metric spec lacks `{k}`"));
            let name = field("name")?
                .as_str()
                .ok_or("metric name is not a string")?;
            let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
            let higher = field("better")?.as_str() == Some("higher");
            let Some(va) = metric(run_a, name) else {
                continue;
            };
            let vb = run_b.and_then(|r| metric(r, name));
            let (verdict, worse_by) = match vb {
                None => (Verdict::Vanished, f64::NAN),
                Some(vb) => {
                    let delta = if higher { va - vb } else { vb - va };
                    let worse_by = delta / va.abs().max(f64::MIN_POSITIVE);
                    let overlap = match (
                        quartiles(run_a, name),
                        run_b.and_then(|r| quartiles(r, name)),
                    ) {
                        (Some((a1, a3)), Some((b1, b3))) => (a3.min(b3) - a1.max(b1)).max(0.0),
                        _ => 0.0,
                    };
                    let verdict = if overlap / va.abs().max(f64::MIN_POSITIVE) > bound {
                        Verdict::Unresolved
                    } else if worse_by > bound {
                        Verdict::Regressed
                    } else if worse_by < -bound {
                        Verdict::Better
                    } else {
                        Verdict::Within
                    };
                    (verdict, worse_by)
                }
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                a: va,
                b: vb.unwrap_or(f64::NAN),
                worse_by,
                bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the baseline holds no untraced run".to_string());
    }
    Ok(rows)
}

/// Whether a set of rows fails the gate.
pub fn fails(rows: &[Row]) -> bool {
    rows.iter()
        .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Vanished))
}

/// One printed line per row.
pub fn render(rows: &[Row]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{:<26} {:<18} {:>14.4} {:>14.4} {:>+8.2}% (bound {:.1}%) {}\n",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.worse_by * 100.0,
                r.bound * 100.0,
                r.verdict.as_str()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &str = r#"{"end_to_end":[
        {"name":"predictions_per_s","unit":"1/s","better":"higher","bound":0.1},
        {"name":"latency_p50_us","unit":"us","better":"lower","bound":0.1}]}"#;

    fn doc(tput: f64, tq: (f64, f64), p50: f64, pq: (f64, f64), nproc: u32) -> Json {
        Json::parse(&format!(
            r#"{{"workload":"w","trace":false,
                "env":{{"nproc":{nproc},"cpu_features":{{"avx2":true}},"built_with":{{"avx2":true}}}},
                "metrics":{{"predictions_per_s":{{"value":{tput},"unit":"1/s"}},
                           "latency_p50_us":{{"value":{p50},"unit":"us"}}}},
                "windows":{{"predictions_per_s":{{"median":{tput},"q1":{},"q3":{},"values":[]}},
                           "latency_p50_us":{{"median":{p50},"q1":{},"q3":{},"values":[]}}}}}}"#,
            tq.0, tq.1, pq.0, pq.1
        ))
        .unwrap()
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<Verdict> {
        compare(&Json::parse(BOUNDS).unwrap(), a, b)
            .unwrap()
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn each_verdict_on_fixture_documents() {
        let base = doc(1000.0, (990.0, 1010.0), 500.0, (495.0, 505.0), 2);
        // Same numbers: within (the 1 % wide windows overlap by less
        // than the 10 % bound).
        assert_eq!(verdicts(&base, &base), [Verdict::Within, Verdict::Within]);
        // Throughput up 20 %, latency up 20 %: better and regressed.
        let moved = doc(1200.0, (1190.0, 1210.0), 600.0, (595.0, 605.0), 2);
        let rows = compare(&Json::parse(BOUNDS).unwrap(), &base, &moved).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Better);
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        assert!((rows[1].worse_by - 0.2).abs() < 1e-12);
        assert!(fails(&rows));
        // A 5 % dip is within.
        let dip = doc(950.0, (940.0, 960.0), 500.0, (495.0, 505.0), 2);
        assert_eq!(verdicts(&base, &dip)[0], Verdict::Within);
        assert!(!fails(
            &compare(&Json::parse(BOUNDS).unwrap(), &base, &dip).unwrap()
        ));
    }

    #[test]
    fn wide_overlapping_windows_are_unresolved_not_within() {
        // Both sides' windows span ±30 %: they overlap by far more
        // than the 10 % bound, so a 5 % dip is not a finding.
        let a = doc(1000.0, (700.0, 1300.0), 500.0, (495.0, 505.0), 2);
        let b = doc(950.0, (650.0, 1250.0), 500.0, (495.0, 505.0), 2);
        assert_eq!(verdicts(&a, &b), [Verdict::Unresolved, Verdict::Within]);
        let rows = compare(&Json::parse(BOUNDS).unwrap(), &a, &b).unwrap();
        assert!(!fails(&rows), "unresolved alone does not fail the gate");
    }

    #[test]
    fn a_vanished_row_fails_and_other_machines_are_refused() {
        let base = doc(1000.0, (990.0, 1010.0), 500.0, (495.0, 505.0), 2);
        let mut gone = base.clone();
        if let Json::Obj(fields) = &mut gone {
            for (k, v) in fields.iter_mut() {
                if k == "metrics" {
                    if let Json::Obj(m) = v {
                        m.retain(|(name, _)| name != "latency_p50_us");
                    }
                }
            }
        }
        let rows = compare(&Json::parse(BOUNDS).unwrap(), &base, &gone).unwrap();
        assert_eq!(rows[1].verdict, Verdict::Vanished);
        assert!(fails(&rows));
        // A whole workload missing from b: every row vanishes.
        let empty = Json::parse(r#"{"runs":[]}"#).unwrap();
        let rows = compare(&Json::parse(BOUNDS).unwrap(), &base, &empty).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Vanished));
        // Different core count: no verdict at all.
        let other = doc(1000.0, (990.0, 1010.0), 500.0, (495.0, 505.0), 8);
        let refused = compare(&Json::parse(BOUNDS).unwrap(), &base, &other);
        assert!(refused.unwrap_err().contains("nproc"));
    }

    #[test]
    fn multi_run_documents_pair_workloads_by_name_and_skip_traced_runs() {
        let base = doc(1000.0, (990.0, 1010.0), 500.0, (495.0, 505.0), 2);
        let traced = Json::parse(r#"{"workload":"w","trace":true,"metrics":{}}"#).unwrap();
        let mut a = Json::obj();
        a.push("runs", vec![traced.clone(), base.clone()]);
        let mut b = Json::obj();
        b.push("runs", vec![base.clone(), traced]);
        let rows = compare(&Json::parse(BOUNDS).unwrap(), &a, &b).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Within));
        assert!(render(&rows).contains("within"));
    }
}
