//! `bnn-audit` — a dependency-free static analyzer for the workspace's
//! determinism and concurrency invariants.
//!
//! The repo's value proposition — replies bit-identical solo vs.
//! coalesced, at any thread count, on any substrate — rests on
//! invariants that the conformance harness can only check
//! *dynamically* on the shapes it samples. This crate is the static
//! complement: a hand-rolled lexer (no `syn`; `vendor/` is
//! offline-only) plus a small set of named, individually-waivable
//! rules that prove the code *can't* reach for nondeterminism.
//!
//! # Rules
//!
//! | rule | invariant |
//! |---|---|
//! | `unsafe-audit` | `unsafe` only in allowlisted files, each use immediately preceded by a `SAFETY:` comment; every crate roof carries `#![deny(unsafe_code)]` or stricter |
//! | `determinism` | no `HashMap`/`HashSet`, wall-clock, `rand` or env-dependent branching in the engine/kernel crates (`tensor`, `nn`, `rng`, `quant`, and the deterministic modules of `mcd`) |
//! | `concurrency` | no `thread::spawn`/`scope`/`Builder` outside `mcd/src/pool.rs` — fan-out routes through `WorkerPool`; no `.lock().unwrap()` without an adjacent poisoning-policy comment in `serve`/`pool` |
//! | `panic` | no `unwrap`/`expect`/`panic!` in `crates/serve/src` dispatcher paths outside `#[cfg(test)]` — a dispatcher panic is a typed-`ServeError` bug |
//! | `lint-headers` | every crate roof carries `#![warn(missing_docs)]` or stricter |
//!
//! # Waivers
//!
//! Every exception is inline, named and justified:
//!
//! ```text
//! // audit:allow(determinism) wall_ms is telemetry; it never feeds the computation.
//! let t0 = Instant::now();
//! ```
//!
//! A waiver on its own comment line covers the next code line; a
//! trailing waiver covers its own line. A waiver without a reason, or
//! naming an unknown rule, is itself a finding — so `grep audit:allow`
//! always returns a justified list. The binary exits nonzero on any
//! unwaived finding and writes a machine-readable `AUDIT.json`
//! summary whose waiver counts are part of the tracked trajectory.
//!
//! # Line table
//!
//! `AUDIT.json` also carries `lines`: per source directory (each
//! `crates/<name>/src`, the facade's `src`, `benchmark/src`) the
//! number of library lines carrying code after the lexer has blanked
//! comments and outside `#[cfg(test)]` / `#[test]` items — so "lines
//! removed" by a simplification is a CI-diffed number, and adding or
//! deleting a unit test does not move it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use lexer::LineView;
use std::collections::BTreeMap;
use std::path::Path;

/// A lexed source file plus the metadata rules need: its
/// workspace-relative path, per-line `#[cfg(test)]` region map and
/// parsed waivers.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated on every platform.
    pub rel_path: String,
    /// Per-line code/comment split from [`lexer::lex`].
    pub lines: Vec<LineView>,
    /// Whether the whole file is test code (under a `tests/` dir).
    pub is_test_file: bool,
    test_region: Vec<bool>,
    waivers: Vec<Waiver>,
}

/// One `// audit:allow(<rule>) reason` comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rule name inside the parentheses.
    pub rule: String,
    /// Justification text after the closing parenthesis.
    pub reason: String,
    /// 1-based line the waiver comment sits on.
    pub line: usize,
    /// 1-based line the waiver covers (itself, or the next code line
    /// when the waiver stands alone).
    pub target_line: usize,
}

impl SourceFile {
    /// Lex `source` into a `SourceFile` at workspace-relative `rel_path`.
    pub fn parse(rel_path: &str, source: &str) -> SourceFile {
        let lines = lexer::lex(source);
        let is_test_file = rel_path.starts_with("tests/") || rel_path.contains("/tests/");
        let test_region = mark_test_regions(&lines);
        let waivers = parse_waivers(&lines);
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
            is_test_file,
            test_region,
            waivers,
        }
    }

    /// Blanked code of 0-based line `idx` (empty past EOF).
    pub fn code(&self, idx: usize) -> &str {
        self.lines.get(idx).map(|l| l.code.as_str()).unwrap_or("")
    }

    /// Whether 0-based line `idx` is test code — a test file, or
    /// inside a `#[cfg(test)]` / `#[test]` item.
    pub fn in_test(&self, idx: usize) -> bool {
        self.is_test_file || self.test_region.get(idx).copied().unwrap_or(false)
    }

    /// Whether this file is a crate roof (`src/lib.rs` of the facade
    /// or of a workspace crate).
    pub fn is_crate_roof(&self) -> bool {
        self.rel_path == "src/lib.rs"
            || (self.rel_path.starts_with("crates/") && self.rel_path.ends_with("/src/lib.rs"))
    }

    /// Whether the file's code contains `needle` anywhere (comments
    /// and literals excluded).
    pub fn code_contains(&self, needle: &str) -> bool {
        self.lines.iter().any(|l| l.code.contains(needle))
    }
}

/// Mark lines belonging to `#[cfg(test)]` / `#[test]` items by brace
/// tracking: from the attribute, everything through the matching close
/// brace of the item it gates is test code.
fn mark_test_regions(lines: &[LineView]) -> Vec<bool> {
    let mut region = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = &lines[i].code;
        if !(code.contains("cfg(test") || code.contains("#[test]")) {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            region[j] = true;
            for ch in lines[j].code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    region
}

/// Extract `audit:allow(<rule>) reason` waivers from comments. Only a
/// comment that *begins* with the marker is a waiver — doc comments
/// (whose text starts with the third `/` or a `!`) and prose that
/// merely mention the syntax stay inert.
fn parse_waivers(lines: &[LineView]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        for comment in &line.comments {
            let trimmed = comment.trim_start();
            if !trimmed.starts_with("audit:allow(") {
                continue;
            }
            let rest = &trimmed["audit:allow(".len()..];
            let (rule, reason) = match rest.find(')') {
                Some(close) => (
                    rest[..close].trim().to_string(),
                    rest[close + 1..].trim().to_string(),
                ),
                None => (rest.trim().to_string(), String::new()),
            };
            // A standalone waiver line covers the next code line;
            // a trailing waiver covers its own.
            let target = if line.has_code() {
                idx
            } else {
                let mut t = idx + 1;
                while t < lines.len() && !lines[t].has_code() {
                    t += 1;
                }
                t
            };
            out.push(Waiver {
                rule,
                reason,
                line: idx + 1,
                target_line: target + 1,
            });
        }
    }
    out
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Name of the rule that fired.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable diagnostic.
    pub message: String,
}

/// A waiver resolved against the findings it suppressed.
#[derive(Debug, Clone)]
pub struct ResolvedWaiver {
    /// Workspace-relative file path.
    pub path: String,
    /// The waiver itself.
    pub waiver: Waiver,
    /// Whether it suppressed at least one finding this run.
    pub used: bool,
}

/// The full result of one audit pass.
pub struct AuditReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Unwaived findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Every waiver in the tree, sorted by (path, line).
    pub waivers: Vec<ResolvedWaiver>,
    /// Names of all rules that ran (stable order).
    pub rule_names: Vec<&'static str>,
    /// Library source lines (carrying code: not blank, not
    /// comment-only, not in a test item) per source directory — each
    /// `crates/<name>/src`, the facade's `src` and `benchmark/src` —
    /// sorted by directory. The tracked "how much code is there"
    /// number: a simplification shows up here as a CI-diffed decrease.
    pub lines: Vec<(String, usize)>,
}

impl AuditReport {
    /// Whether the tree passed with no unwaived findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings suppressed per rule (used-waiver count).
    pub fn waived_count(&self, rule: &str) -> usize {
        self.waivers
            .iter()
            .filter(|w| w.used && w.waiver.rule == rule)
            .count()
    }

    /// Unwaived findings per rule.
    pub fn finding_count(&self, rule: &str) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// `file:line: [rule] message` diagnostics plus a summary table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.path, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "bnn-audit: {} file(s), {} finding(s), {} waiver(s)\n",
            self.files_scanned,
            self.findings.len(),
            self.waivers.len()
        ));
        for rule in &self.rule_names {
            out.push_str(&format!(
                "  {:<13} findings {:>2}  waived {:>2}\n",
                rule,
                self.finding_count(rule),
                self.waived_count(rule)
            ));
        }
        let unused = self.waivers.iter().filter(|w| !w.used).count();
        if unused > 0 {
            out.push_str(&format!(
                "  note: {unused} waiver(s) suppressed nothing this run\n"
            ));
        }
        out
    }

    /// Deterministic machine-readable summary (the `AUDIT.json` body).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"findings\": {},\n", self.findings.len()));
        s.push_str("  \"rules\": {\n");
        for (i, rule) in self.rule_names.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {{ \"findings\": {}, \"waived\": {} }}{}\n",
                rule,
                self.finding_count(rule),
                self.waived_count(rule),
                if i + 1 < self.rule_names.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  },\n");
        s.push_str("  \"lines\": {\n");
        for (i, (dir, count)) in self.lines.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {}{}\n",
                json_escape(dir),
                count,
                if i + 1 < self.lines.len() { "," } else { "" }
            ));
        }
        s.push_str("  },\n");
        s.push_str("  \"waivers\": [\n");
        for (i, w) in self.waivers.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"used\": {}, \"reason\": \"{}\" }}{}\n",
                json_escape(&w.waiver.rule),
                json_escape(&w.path),
                w.waiver.line,
                w.used,
                json_escape(&w.waiver.reason),
                if i + 1 < self.waivers.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"violations\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\" }}{}\n",
                json_escape(f.rule),
                json_escape(&f.path),
                f.line,
                json_escape(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Top-level directories that are not project source: third-party
/// stand-ins (`vendor/` mirrors external API surfaces, like a
/// registry dependency would), build output and VCS metadata.
const SKIP_DIRS: [&str; 5] = ["vendor", "target", ".git", "results", ".github"];

/// Collect every project `.rs` file under `root`, sorted by relative
/// path so reports and `AUDIT.json` are deterministic.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if path.is_dir() {
                let top_level = path.parent() == Some(root);
                if top_level && SKIP_DIRS.contains(&name.as_str()) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                let src = std::fs::read_to_string(&path)?;
                files.push((rel, src));
            }
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// The `src` directory a file's lines are counted under, if it sits
/// in one (`tests/`, `benches/` and `examples/` trees do not count).
fn source_dir(rel_path: &str) -> Option<&str> {
    if rel_path.starts_with("src/") {
        return Some("src");
    }
    rel_path
        .find("/src/")
        .map(|at| &rel_path[..at + "/src".len()])
}

/// Run the default rule set over a workspace rooted at `root`.
pub fn audit(root: &Path) -> std::io::Result<AuditReport> {
    let sources = collect_sources(root)?;
    Ok(audit_sources(&sources))
}

/// Run the default rule set over in-memory `(rel_path, source)` pairs
/// — the entry point the fixture tests drive directly.
pub fn audit_sources(sources: &[(String, String)]) -> AuditReport {
    let rules = rules::default_rules();
    let rule_names: Vec<&'static str> = rules.iter().map(|r| r.name()).collect();
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, src)| SourceFile::parse(rel, src))
        .collect();

    let mut raw: Vec<Finding> = Vec::new();
    for file in &files {
        for rule in &rules {
            rule.check(file, &mut raw);
        }
    }

    // Resolve waivers: a finding is suppressed by a same-rule waiver
    // targeting its line. Malformed waivers become findings themselves
    // (and cannot be waived — "waiver" is not a rule name).
    let mut waivers: Vec<ResolvedWaiver> = Vec::new();
    for file in &files {
        for w in &file.waivers {
            if !rule_names.contains(&w.rule.as_str()) {
                raw.push(Finding {
                    rule: "waiver",
                    path: file.rel_path.clone(),
                    line: w.line,
                    message: format!(
                        "audit:allow names unknown rule `{}` (known: {})",
                        w.rule,
                        rule_names.join(", ")
                    ),
                });
            } else if w.reason.is_empty() {
                raw.push(Finding {
                    rule: "waiver",
                    path: file.rel_path.clone(),
                    line: w.line,
                    message: format!(
                        "audit:allow({}) carries no justification — every exception needs a written reason",
                        w.rule
                    ),
                });
            }
            waivers.push(ResolvedWaiver {
                path: file.rel_path.clone(),
                waiver: w.clone(),
                used: false,
            });
        }
    }

    let mut findings = Vec::new();
    for f in raw {
        let mut waived = false;
        if f.rule != "waiver" {
            for w in waivers.iter_mut() {
                if w.path == f.path && w.waiver.rule == f.rule && w.waiver.target_line == f.line {
                    w.used = true;
                    waived = true;
                }
            }
        }
        if !waived {
            findings.push(f);
        }
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    waivers.sort_by(|a, b| (a.path.as_str(), a.waiver.line).cmp(&(b.path.as_str(), b.waiver.line)));

    let mut lines: BTreeMap<String, usize> = BTreeMap::new();
    for file in &files {
        if let Some(dir) = source_dir(&file.rel_path) {
            let library = |&(idx, l): &(usize, &LineView)| l.has_code() && !file.in_test(idx);
            let count = file.lines.iter().enumerate().filter(library).count();
            *lines.entry(dir.to_string()).or_default() += count;
        }
    }

    AuditReport {
        files_scanned: files.len(),
        findings,
        waivers,
        rule_names,
        lines: lines.into_iter().collect(),
    }
}
