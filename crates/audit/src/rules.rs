//! The rule set: each invariant is a [`Rule`] over one lexed
//! [`SourceFile`], producing [`Finding`]s the engine then resolves
//! against inline waivers. A new rule (lock-order, API-surface …) is
//! ~50 lines: implement [`Rule`], add it to [`default_rules`].

use crate::lexer::LineView;
use crate::{Finding, SourceFile};

/// One named, individually-waivable invariant.
pub trait Rule {
    /// Stable name used in diagnostics and `audit:allow(<name>)`.
    fn name(&self) -> &'static str;
    /// Append findings for `file` to `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// The default rule set, in report order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(UnsafeAudit),
        Box::new(Determinism),
        Box::new(Concurrency),
        Box::new(PanicHygiene),
        Box::new(LintHeaders),
    ]
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `code` contains `tok` at identifier boundaries (so
/// `unsafe` does not match `unsafe_code`, `HashMap` does not match
/// `MyHashMapLike`). Tokens may contain `::`/`!`/`.` freely.
fn has_token(code: &str, tok: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(tok) {
        let start = from + pos;
        let end = start + tok.len();
        let pre_ok = start == 0 || !is_ident(code[..start].chars().next_back().unwrap_or(' '));
        let last_is_ident = tok.chars().next_back().map(is_ident).unwrap_or(false);
        let post_ok = !last_is_ident || !code[end..].chars().next().map(is_ident).unwrap_or(false);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Walk upward from line `idx`, skipping blank and attribute lines,
/// and report whether the nearest preceding line (or `idx` itself)
/// carries a comment containing `needle` (case-insensitive, so
/// "Poisoning policy:" satisfies a "poison" requirement).
fn adjacent_comment_contains(file: &SourceFile, idx: usize, needle: &str) -> bool {
    let wanted = needle.to_ascii_lowercase();
    let hit = |line: &LineView| {
        line.comments
            .iter()
            .any(|c| c.to_ascii_lowercase().contains(&wanted))
    };
    if hit(&file.lines[idx]) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line: &LineView = &file.lines[i];
        if hit(line) {
            return true;
        }
        let code = line.code.trim();
        let skippable = code.is_empty() || code.starts_with("#[") || code.starts_with("#!");
        if !skippable {
            return false;
        }
    }
    false
}

/// `unsafe` is allowed only here, and only with a `SAFETY:` argument:
/// the worker pool's lifetime erasure and the AVX-512 `gemm_bt` kernel.
pub const UNSAFE_ALLOWLIST: [&str; 2] = ["crates/mcd/src/pool.rs", "crates/tensor/src/simd.rs"];

/// **unsafe-audit** — `unsafe` stays rare, local and argued.
///
/// * `unsafe` tokens only in [`UNSAFE_ALLOWLIST`] files;
/// * each use immediately preceded by (or carrying) a `SAFETY:`
///   comment — attributes and blank lines may sit between;
/// * every crate roof declares `#![deny(unsafe_code)]` or
///   `#![forbid(unsafe_code)]` (the allowlisted crates need `deny`,
///   which a local `#[allow]` can override where `forbid` cannot).
pub struct UnsafeAudit;

impl Rule for UnsafeAudit {
    fn name(&self) -> &'static str {
        "unsafe-audit"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let allowlisted = UNSAFE_ALLOWLIST.contains(&file.rel_path.as_str());
        for (idx, line) in file.lines.iter().enumerate() {
            if !has_token(&line.code, "unsafe") {
                continue;
            }
            if !allowlisted {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: idx + 1,
                    message: format!(
                        "`unsafe` outside the audited allowlist ({})",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                });
            } else if !adjacent_comment_contains(file, idx, "SAFETY:") {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: idx + 1,
                    message: "`unsafe` without an immediately preceding `SAFETY:` comment"
                        .to_string(),
                });
            }
        }
        if file.is_crate_roof()
            && !file.code_contains("#![deny(unsafe_code)]")
            && !file.code_contains("#![forbid(unsafe_code)]")
        {
            out.push(Finding {
                rule: self.name(),
                path: file.rel_path.clone(),
                line: 1,
                message: "crate roof lacks `#![deny(unsafe_code)]` (or `forbid`)".to_string(),
            });
        }
    }
}

/// Crates whose `src/` must stay free of nondeterminism sources.
/// `bnn-trace` is in scope because the span recorder rides inside
/// every deterministic layer: its one wall-clock intake (the `clock`
/// module) needs an explicit `audit:allow` waiver at that single site.
pub const DETERMINISTIC_CRATES: [&str; 6] = [
    "crates/tensor/src/",
    "crates/nn/src/",
    "crates/rng/src/",
    "crates/quant/src/",
    "crates/mcd/src/",
    "crates/trace/src/",
];

/// `mcd` modules where wall-clock reads are legitimate: chaos fault
/// delays and pool shutdown plumbing never feed computed values.
pub const WALL_CLOCK_EXEMPT: [&str; 2] = ["crates/mcd/src/chaos.rs", "crates/mcd/src/pool.rs"];

/// Tokens that make results depend on something other than the seed.
const NONDETERMINISM_TOKENS: [&str; 7] = [
    "HashMap",
    "HashSet",
    "thread_rng",
    "rand::",
    "std::env",
    "env::var",
    "option_env!",
];

/// Wall-clock tokens (separately scoped — see [`WALL_CLOCK_EXEMPT`]).
const WALL_CLOCK_TOKENS: [&str; 2] = ["Instant::now", "SystemTime"];

/// **determinism** — the engine and kernel crates may consume only
/// seed-derived state: no hash-order iteration, no wall-clock, no
/// OS randomness, no env-dependent branching. This is what makes
/// "same seed, same reply" provable rather than sampled.
pub struct Determinism;

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !DETERMINISTIC_CRATES
            .iter()
            .any(|p| file.rel_path.starts_with(p))
        {
            return;
        }
        let wall_exempt = WALL_CLOCK_EXEMPT.contains(&file.rel_path.as_str());
        for (idx, line) in file.lines.iter().enumerate() {
            if file.in_test(idx) {
                continue;
            }
            for tok in NONDETERMINISM_TOKENS {
                if has_token(&line.code, tok) {
                    out.push(Finding {
                        rule: self.name(),
                        path: file.rel_path.clone(),
                        line: idx + 1,
                        message: format!("nondeterminism source `{tok}` in an engine crate"),
                    });
                }
            }
            if !wall_exempt {
                for tok in WALL_CLOCK_TOKENS {
                    if has_token(&line.code, tok) {
                        out.push(Finding {
                            rule: self.name(),
                            path: file.rel_path.clone(),
                            line: idx + 1,
                            message: format!("wall-clock read `{tok}` in a deterministic module"),
                        });
                    }
                }
            }
        }
    }
}

/// The one place threads may be created: the order-preserving pool.
pub const SPAWN_ALLOWLIST: [&str; 1] = ["crates/mcd/src/pool.rs"];

const SPAWN_TOKENS: [&str; 3] = ["thread::spawn", "thread::scope", "thread::Builder"];

/// Files where every `Mutex` access must state its poisoning policy.
pub const LOCK_POLICY_SCOPE: [&str; 3] = [
    "crates/serve/src/",
    "crates/net/src/",
    "crates/mcd/src/pool.rs",
];

/// **concurrency** — all data-parallel fan-out routes through
/// `WorkerPool` (one audited spawn site, order-preserving, panic-
/// poisoning), so thread creation anywhere else in library code is a
/// finding; and in the lock-heavy crates, `.lock().unwrap()` /
/// `.lock().expect(…)` without an adjacent poisoning-policy comment
/// is a finding — poisoning is a real state that needs a stated
/// policy, not an accidental panic path.
pub struct Concurrency;

impl Rule for Concurrency {
    fn name(&self) -> &'static str {
        "concurrency"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        // Spawn scope: library code only (crate `src/` trees and the
        // facade). Tests and examples are *clients* of the stack and
        // may run their own threads.
        let library = (file.rel_path.starts_with("crates/") && file.rel_path.contains("/src/"))
            || file.rel_path.starts_with("src/");
        let spawn_allowed = SPAWN_ALLOWLIST.contains(&file.rel_path.as_str());
        for (idx, line) in file.lines.iter().enumerate() {
            if library && !spawn_allowed && !file.in_test(idx) {
                for tok in SPAWN_TOKENS {
                    if has_token(&line.code, tok) {
                        out.push(Finding {
                            rule: self.name(),
                            path: file.rel_path.clone(),
                            line: idx + 1,
                            message: format!(
                                "`{tok}` outside {} — fan-out must route through WorkerPool",
                                SPAWN_ALLOWLIST.join(", ")
                            ),
                        });
                    }
                }
            }
            if LOCK_POLICY_SCOPE
                .iter()
                .any(|p| file.rel_path.starts_with(p))
                && (line.code.contains(".lock().unwrap()") || line.code.contains(".lock().expect("))
                && !adjacent_comment_contains(file, idx, "poison")
            {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: idx + 1,
                    message: "lock unwrap without an adjacent poisoning-policy comment".to_string(),
                });
            }
        }
    }
}

/// Panicking constructs banned from dispatcher paths. The method
/// patterns include the leading `.` and trailing delimiter so
/// `unwrap_or_else` / `expect_err` do not match.
const PANIC_METHODS: [&str; 2] = [".unwrap()", ".expect("];
const PANIC_MACROS: [&str; 4] = ["panic!", "unreachable!", "todo!", "unimplemented!"];

/// Crates whose `src/` is an availability boundary: a panic there
/// kills a resident thread other parties depend on (the serve
/// dispatcher every `Handle` waits on; a net connection worker
/// mid-protocol, which would drop the peer without a typed error
/// frame).
pub const PANIC_SCOPE: [&str; 2] = ["crates/serve/src/", "crates/net/src/"];

/// **panic** — the [`PANIC_SCOPE`] crates are availability
/// boundaries: any failure there must resolve to a typed error
/// (`ServeError`, a wire error frame, a `DecodeError`) instead of a
/// panic. In particular the `bnn-net` frame decoder's "malformed
/// input never panics" guarantee is enforced here statically, on top
/// of the malformed-input tests. Test modules are exempt.
pub struct PanicHygiene;

impl Rule for PanicHygiene {
    fn name(&self) -> &'static str {
        "panic"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !PANIC_SCOPE.iter().any(|p| file.rel_path.starts_with(p)) {
            return;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if file.in_test(idx) {
                continue;
            }
            for pat in PANIC_METHODS {
                if line.code.contains(pat) {
                    out.push(Finding {
                        rule: self.name(),
                        path: file.rel_path.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{pat}` on a dispatcher path — resolve to a typed ServeError instead"
                        ),
                    });
                }
            }
            for tok in PANIC_MACROS {
                if has_token(&line.code, tok) {
                    out.push(Finding {
                        rule: self.name(),
                        path: file.rel_path.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{tok}` on a dispatcher path — resolve to a typed ServeError instead"
                        ),
                    });
                }
            }
        }
    }
}

/// **lint-headers** — every crate roof keeps the normalized preamble:
/// `#![warn(missing_docs)]` (or stricter) next to the unsafe lint the
/// `unsafe-audit` rule already checks, so API docs stay a build
/// requirement rather than a convention.
pub struct LintHeaders;

impl Rule for LintHeaders {
    fn name(&self) -> &'static str {
        "lint-headers"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !file.is_crate_roof() {
            return;
        }
        if !file.code_contains("#![warn(missing_docs)]")
            && !file.code_contains("#![deny(missing_docs)]")
            && !file.code_contains("#![forbid(missing_docs)]")
        {
            out.push(Finding {
                rule: self.name(),
                path: file.rel_path.clone(),
                line: 1,
                message: "crate roof lacks `#![warn(missing_docs)]` (or stricter)".to_string(),
            });
        }
    }
}
