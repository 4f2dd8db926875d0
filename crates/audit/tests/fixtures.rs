//! Fixture suite for the auditor: positive/negative cases per rule,
//! waiver semantics, lexer correctness (banned tokens inside string
//! literals and comments must *not* flag), and a self-check that the
//! live workspace passes clean.
//!
//! Fixtures are in-memory `(path, source)` pairs driven through
//! [`bnn_audit::audit_sources`] — the same engine the binary uses
//! after its filesystem walk. Every banned token below lives inside a
//! raw string, so the auditor scanning *this* file sees only blanks.

use bnn_audit::rules::{DETERMINISTIC_CRATES, SPAWN_ALLOWLIST};
use bnn_audit::{audit_sources, AuditReport};

fn run(files: &[(&str, &str)]) -> AuditReport {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    audit_sources(&sources)
}

fn rule_hits(report: &AuditReport, rule: &str) -> Vec<usize> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

/// A minimal clean crate roof, used as filler where a test needs a
/// file that passes every roof rule.
const CLEAN_ROOF: &str = r#"//! Docs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
"#;

// ---------------------------------------------------------------- unsafe-audit

#[test]
fn unsafe_outside_allowlist_is_flagged() {
    let report = run(&[(
        "crates/tensor/src/kernels.rs",
        r#"fn f(p: *const f32) -> f32 { unsafe { *p } }"#,
    )]);
    assert_eq!(rule_hits(&report, "unsafe-audit"), vec![1]);
}

#[test]
fn unsafe_in_pool_with_safety_comment_passes() {
    let report = run(&[(
        "crates/mcd/src/pool.rs",
        r#"fn erase(job: Box<dyn FnOnce()>) -> Job {
    // SAFETY: completion-before-return keeps the borrow live.
    unsafe { std::mem::transmute(job) }
}
"#,
    )]);
    assert_eq!(rule_hits(&report, "unsafe-audit"), Vec::<usize>::new());
}

#[test]
fn unsafe_in_pool_without_safety_comment_is_flagged() {
    let report = run(&[(
        "crates/mcd/src/pool.rs",
        r#"fn erase(job: Box<dyn FnOnce()>) -> Job {
    unsafe { std::mem::transmute(job) }
}
"#,
    )]);
    assert_eq!(rule_hits(&report, "unsafe-audit"), vec![2]);
}

#[test]
fn unsafe_in_the_simd_kernel_needs_a_safety_comment() {
    let argued = run(&[(
        "crates/tensor/src/simd.rs",
        r#"fn load8(x: &[f32; 8]) -> __m256 {
    // SAFETY: `x` is 8 initialised f32s, exactly what the load reads.
    unsafe { _mm256_loadu_ps(x.as_ptr()) }
}
"#,
    )]);
    assert_eq!(rule_hits(&argued, "unsafe-audit"), Vec::<usize>::new());

    let bare = run(&[(
        "crates/tensor/src/simd.rs",
        r#"fn load8(x: &[f32; 8]) -> __m256 {
    unsafe { _mm256_loadu_ps(x.as_ptr()) }
}
"#,
    )]);
    assert_eq!(rule_hits(&bare, "unsafe-audit"), vec![2]);
}

#[test]
fn safety_comment_may_sit_above_attributes() {
    let report = run(&[(
        "crates/mcd/src/pool.rs",
        r#"// SAFETY: the attribute between comment and use is fine.
#[allow(unsafe_code)]
unsafe fn erase() {}
"#,
    )]);
    assert_eq!(rule_hits(&report, "unsafe-audit"), Vec::<usize>::new());
}

#[test]
fn crate_roof_without_unsafe_lint_is_flagged() {
    let report = run(&[(
        "crates/tensor/src/lib.rs",
        "//! Docs.\n#![warn(missing_docs)]\n",
    )]);
    assert_eq!(rule_hits(&report, "unsafe-audit"), vec![1]);

    let clean = run(&[("crates/tensor/src/lib.rs", CLEAN_ROOF)]);
    assert!(clean.is_clean(), "{}", clean.render_text());
}

// ---------------------------------------------------------------- determinism

#[test]
fn hashmap_in_engine_crate_is_flagged_but_not_elsewhere() {
    let bad = run(&[(
        "crates/nn/src/graph.rs",
        r#"use std::collections::HashMap;
fn f() { let m: HashMap<u32, u32> = HashMap::new(); }
"#,
    )]);
    // One finding per token per line (two `HashMap` uses on line 2
    // collapse into one diagnostic).
    assert_eq!(bad.finding_count("determinism"), 2);

    // `framework` is outside the engine scope: HashMaps are fine.
    let ok = run(&[(
        "crates/framework/src/providers.rs",
        r#"use std::collections::HashMap;"#,
    )]);
    assert!(ok.is_clean(), "{}", ok.render_text());
}

#[test]
fn wall_clock_flagged_in_deterministic_mcd_but_not_chaos_or_pool() {
    let bad = run(&[(
        "crates/mcd/src/backend.rs",
        r#"fn f() { let t = std::time::Instant::now(); }"#,
    )]);
    assert_eq!(rule_hits(&bad, "determinism"), vec![1]);

    let ok = run(&[
        (
            "crates/mcd/src/chaos.rs",
            r#"fn f() { let t = std::time::Instant::now(); }"#,
        ),
        (
            "crates/mcd/src/pool.rs",
            r#"fn f() { let t = std::time::Instant::now(); }"#,
        ),
    ]);
    assert!(ok.is_clean(), "{}", ok.render_text());
}

#[test]
fn banned_tokens_inside_literals_and_comments_do_not_flag() {
    // Lexer correctness: every occurrence is comment or literal text.
    let report = run(&[(
        "crates/tensor/src/lib.rs",
        r##"//! Docs mention HashMap and Instant::now freely.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A comment about thread_rng and SystemTime.
/* block comment: HashMap unsafe panic! */
const MSG: &str = "HashMap and unsafe and .unwrap() in a string";
const RAW: &str = r#"Instant::now and thread::spawn in a raw string"#;
const CH: char = 'u'; // not the start of `unsafe`
fn lifetime<'unsafe_free>(x: &'unsafe_free u32) -> u32 { *x }
"##,
    )]);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn cfg_test_modules_are_exempt_from_determinism() {
    let report = run(&[(
        "crates/rng/src/lib.rs",
        r#"//! Docs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#[cfg(test)]
mod tests {
    #[test]
    fn timing() { let _ = std::time::Instant::now(); }
}
"#,
    )]);
    assert!(report.is_clean(), "{}", report.render_text());
}

// ---------------------------------------------------------------- concurrency

#[test]
fn thread_spawn_in_library_code_is_flagged() {
    let report = run(&[(
        "crates/quant/src/exec.rs",
        r#"fn f() { std::thread::spawn(|| {}); }"#,
    )]);
    assert_eq!(rule_hits(&report, "concurrency"), vec![1]);
}

#[test]
fn thread_spawn_in_tests_and_examples_is_allowed() {
    let report = run(&[
        (
            "crates/serve/tests/stress.rs",
            r#"fn f() { std::thread::spawn(|| {}); }"#,
        ),
        (
            "examples/quickstart.rs",
            r#"fn f() { std::thread::scope(|_| {}); }"#,
        ),
        (
            "crates/mcd/src/pool.rs",
            r#"fn f() { std::thread::Builder::new(); }"#,
        ),
    ]);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn lock_unwrap_needs_poisoning_policy_comment() {
    let bad = run(&[(
        "crates/serve/src/lib.rs",
        r#"//! Docs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
fn f(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap(); }
"#,
    )]);
    // Both the missing policy comment and the panic rule fire here.
    assert_eq!(rule_hits(&bad, "concurrency"), vec![4]);

    let ok = run(&[(
        "crates/mcd/src/pool.rs",
        r#"// Poisoning policy: state is consistent, propagate anyway.
fn f(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap(); }
"#,
    )]);
    assert_eq!(rule_hits(&ok, "concurrency"), Vec::<usize>::new());
}

// ---------------------------------------------------------------- panic

#[test]
fn panic_constructs_on_dispatcher_paths_are_flagged() {
    let report = run(&[(
        "crates/serve/src/lib.rs",
        r#"//! Docs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
fn a(x: Option<u32>) -> u32 { x.unwrap() }
fn b(x: Option<u32>) -> u32 { x.expect("present") }
fn c() { panic!("boom"); }
fn d(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }
"#,
    )]);
    assert_eq!(rule_hits(&report, "panic"), vec![4, 5, 6]);
}

#[test]
fn panic_rule_exempts_serve_tests_and_other_crates() {
    let report = run(&[
        (
            "crates/serve/src/lib.rs",
            r#"//! Docs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
/// Doc example: `handle.predict(x).wait().expect("served")`.
fn ok() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); panic!("fine in tests"); }
}
"#,
        ),
        (
            "crates/nn/src/train.rs",
            r#"fn f(x: Option<u32>) -> u32 { x.unwrap() }"#,
        ),
    ]);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn panic_rule_covers_the_net_crate() {
    // The wire decoder's "malformed input never panics" guarantee is
    // enforced statically: the same rule that guards the serve
    // dispatcher covers crates/net/src.
    let report = run(&[(
        "crates/net/src/wire.rs",
        r#"fn decode(b: &[u8]) -> u8 { *b.first().unwrap() }
fn worker() { unreachable!("connection state"); }
"#,
    )]);
    assert_eq!(rule_hits(&report, "panic"), vec![1, 2]);
}

#[test]
fn net_lock_unwrap_needs_poisoning_policy() {
    let report = run(&[(
        "crates/net/src/monitor.rs",
        r#"fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }
"#,
    )]);
    assert_eq!(rule_hits(&report, "concurrency"), vec![1]);
}

#[test]
fn net_spawn_requires_a_waiver() {
    let report = run(&[
        (
            "crates/net/src/server.rs",
            r#"fn bare() { std::thread::spawn(|| {}); }
// audit:allow(concurrency) resident acceptor thread, joined on shutdown.
fn waived() { std::thread::spawn(|| {}); }
"#,
        ),
        ("crates/net/src/lib.rs", CLEAN_ROOF),
    ]);
    assert_eq!(rule_hits(&report, "concurrency"), vec![1]);
    assert_eq!(report.waived_count("concurrency"), 1);
}

#[test]
fn determinism_rule_covers_the_trace_crate() {
    // The span recorder rides inside every deterministic layer, so
    // its sources sit in the determinism scope: a clock read outside
    // the dedicated clock module — or a HashMap anywhere in the
    // crate — is a finding.
    let report = run(&[
        (
            "crates/trace/src/lib.rs",
            r#"//! Docs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
fn stamp() -> u64 { let _ = std::time::Instant::now(); 0 }
"#,
        ),
        (
            "crates/trace/src/chrome.rs",
            r#"fn f() { let m: std::collections::HashMap<u64, u64> = Default::default(); let _ = m; }
"#,
        ),
    ]);
    let mut hits: Vec<(String, usize)> = report
        .findings
        .iter()
        .filter(|f| f.rule == "determinism")
        .map(|f| (f.path.clone(), f.line))
        .collect();
    hits.sort();
    assert_eq!(
        hits,
        vec![
            ("crates/trace/src/chrome.rs".to_string(), 1),
            ("crates/trace/src/lib.rs".to_string(), 4),
        ]
    );
}

#[test]
fn trace_clock_module_intake_is_waivable() {
    // The tracer's single wall-clock intake: one waived site in one
    // module, clean everywhere else.
    let report = run(&[(
        "crates/trace/src/clock.rs",
        r#"fn epoch() {
    // audit:allow(determinism) the tracer's one clock intake; timestamps are telemetry only.
    let _ = std::time::Instant::now();
}
"#,
    )]);
    assert!(report.is_clean(), "{}", report.render_text());
    assert_eq!(report.waived_count("determinism"), 1);
}

#[test]
fn panic_rule_covers_net_binaries() {
    // crates/net/src/bin/ sits inside PANIC_SCOPE by prefix: a binary
    // added to the front-door crate must report failures through its
    // exit code, not unwind mid-run.
    let report = run(&[(
        "crates/net/src/bin/tool.rs",
        r#"fn f(x: Option<u32>) -> u32 { x.unwrap() }
"#,
    )]);
    assert_eq!(rule_hits(&report, "panic"), vec![1]);
}

// ---------------------------------------------------------------- lint-headers

#[test]
fn crate_roof_without_missing_docs_lint_is_flagged() {
    let report = run(&[(
        "crates/data/src/lib.rs",
        "//! Docs.\n#![forbid(unsafe_code)]\n",
    )]);
    assert_eq!(rule_hits(&report, "lint-headers"), vec![1]);
}

// ---------------------------------------------------------------- waivers

#[test]
fn standalone_waiver_covers_next_code_line() {
    let report = run(&[(
        "crates/nn/src/exec.rs",
        r#"// audit:allow(concurrency) cannot use WorkerPool below bnn-mcd.
std::thread::scope(|_| {});
"#,
    )]);
    assert!(report.is_clean(), "{}", report.render_text());
    assert_eq!(report.waived_count("concurrency"), 1);
    assert!(report.waivers.iter().all(|w| w.used));
}

#[test]
fn trailing_waiver_covers_its_own_line() {
    let report = run(&[(
        "crates/mcd/src/backend.rs",
        r#"fn f() { let _ = std::time::Instant::now(); } // audit:allow(determinism) telemetry only.
"#,
    )]);
    assert!(report.is_clean(), "{}", report.render_text());
    assert_eq!(report.waived_count("determinism"), 1);
}

#[test]
fn waiver_for_a_different_rule_does_not_suppress() {
    let report = run(&[(
        "crates/nn/src/exec.rs",
        r#"// audit:allow(determinism) wrong rule for a spawn.
std::thread::scope(|_| {});
"#,
    )]);
    assert_eq!(report.finding_count("concurrency"), 1);
}

#[test]
fn waiver_without_reason_is_itself_a_finding() {
    let report = run(&[(
        "crates/nn/src/exec.rs",
        r#"// audit:allow(concurrency)
std::thread::scope(|_| {});
"#,
    )]);
    // The spawn is waived, but the bare waiver is flagged.
    assert_eq!(report.finding_count("concurrency"), 0);
    assert_eq!(rule_hits(&report, "waiver"), vec![1]);
}

#[test]
fn waiver_naming_unknown_rule_is_a_finding() {
    let report = run(&[(
        "crates/nn/src/exec.rs",
        r#"fn f() {} // audit:allow(no-such-rule) bogus.
"#,
    )]);
    assert_eq!(rule_hits(&report, "waiver"), vec![1]);
}

#[test]
fn prose_mentions_of_waiver_syntax_are_inert() {
    let report = run(&[(
        "crates/tensor/src/lib.rs",
        r#"//! Exceptions use `// audit:allow(determinism) reason` comments.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Note that audit:allow(determinism) mid-sentence is not a waiver.
fn f() {}
"#,
    )]);
    assert!(report.is_clean(), "{}", report.render_text());
    assert!(report.waivers.is_empty());
}

// ---------------------------------------------------------------- lexer

#[test]
fn lexer_blanks_literals_and_collects_comments() {
    use bnn_audit::lexer::lex;
    let lines = lex("let x = \"unsafe\"; // trailing SAFETY: note\n'a'; 'static\n");
    assert!(!lines[0].code.contains("unsafe"));
    assert!(lines[0].comment_contains("SAFETY:"));
    assert!(!lines[1].code.contains("'a'"));
    assert!(lines[1].code.contains("'static"));

    let raw = lex("let s = r#\"quote \" inside\"#; let after = unsafe_token;\n");
    assert!(!raw[0].code.contains("quote"));
    assert!(raw[0].code.contains("unsafe_token"));

    let nested = lex("/* outer /* inner */ still comment */ code_here\n");
    assert!(nested[0].code.contains("code_here"));
    assert!(!nested[0].code.contains("inner"));
    assert!(nested[0].comment_contains("inner"));
}

#[test]
fn multiline_strings_stay_blanked() {
    use bnn_audit::lexer::lex;
    let lines = lex("let s = \"line one\nHashMap on line two\";\nlet t = HashMap::new();\n");
    assert!(!lines[1].code.contains("HashMap"));
    assert!(lines[2].code.contains("HashMap"));
}

// ---------------------------------------------------------------- reporting

#[test]
fn json_summary_is_deterministic_and_counts_waivers() {
    let files = [
        (
            "crates/mcd/src/backend.rs",
            r#"fn f() { let _ = std::time::Instant::now(); } // audit:allow(determinism) telemetry.
"#,
        ),
        (
            "crates/quant/src/exec.rs",
            r#"fn f() { std::thread::spawn(|| {}); }"#,
        ),
    ];
    let a = run(&files);
    let b = run(&files);
    assert_eq!(a.to_json(), b.to_json());
    assert!(a.to_json().contains("\"waived\": 1"));
    assert!(a.to_json().contains("\"findings\": 1"));
    assert!(!a.is_clean());
}

#[test]
fn line_table_counts_code_lines_per_source_directory() {
    let report = run(&[
        (
            "crates/mcd/src/lib.rs",
            "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n//! Doc only.\n\nfn a() {} // trailing\n/* block\n   comment */\n",
        ),
        (
            "crates/mcd/src/pool.rs",
            "fn b() {\n    let s = \"// not a comment\";\n}\n",
        ),
        ("crates/mcd/tests/t.rs", "fn not_counted() {}\n"),
        ("src/session.rs", "fn c() {}\n\n#[cfg(test)]\nmod tests {}\n"),
        ("benchmark/src/main.rs", "fn main() {}\n"),
        ("examples/e.rs", "fn main() {}\n"),
    ]);
    assert_eq!(
        report.lines,
        vec![
            ("benchmark/src".to_string(), 1),
            ("crates/mcd/src".to_string(), 6),
            ("src".to_string(), 1),
        ]
    );
    assert!(report.to_json().contains(
        "\"lines\": {\n    \"benchmark/src\": 1,\n    \"crates/mcd/src\": 6,\n    \"src\": 1\n  },"
    ));
}

#[test]
fn line_table_counts_library_code_only() {
    // Unit tests inside a source file are not library code: deleting
    // one must not read as a simplification, nor adding one as growth.
    let library = "pub fn f() -> u32 {\n    1\n}\n";
    let with_tests = format!(
        "{library}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        \
         assert_eq!(super::f(), 1);\n    }}\n}}\n\n#[test]\nfn loose() {{}}\n\nfn g() {{}}\n"
    );
    let report = run(&[("crates/mcd/src/a.rs", with_tests.as_str())]);
    assert_eq!(report.lines, vec![("crates/mcd/src".to_string(), 4)]);
}

// ---------------------------------------------------------------- self-check

#[test]
fn live_workspace_passes_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = bnn_audit::audit(&root).expect("workspace scan");
    assert!(report.files_scanned > 50, "walk found the workspace");
    assert!(report.is_clean(), "{}", report.render_text());
    // Every waiver in the tree suppresses something and says why, and
    // none lets an engine/kernel crate create a thread outside the pool:
    // fan-out below `WorkerPool` would make `ParallelConfig::serial()` a
    // lie.
    for w in &report.waivers {
        assert!(w.used, "stale waiver: {}:{}", w.path, w.waiver.line);
        assert!(!w.waiver.reason.is_empty());
        assert!(
            w.waiver.rule != "concurrency"
                || SPAWN_ALLOWLIST.contains(&w.path.as_str())
                || !DETERMINISTIC_CRATES.iter().any(|c| w.path.starts_with(c)),
            "concurrency waiver in an engine crate: {}:{}",
            w.path,
            w.waiver.line
        );
    }
}
