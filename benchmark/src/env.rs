//! What the numbers were measured on, and the two process-level
//! gauges (CPU time, peak resident set) read from `/proc`.

use crate::json::Json;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every Linux ABI this can run on; without libc there is no
/// `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat`; `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are
    // counted from the closing parenthesis.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB; `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment record every result document carries. `compare`
/// refuses to resolve two documents whose `nproc` or CPU-feature sets
/// differ.
pub fn record() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    let mut cpu = Json::obj();
    cpu.push("avx2", has("avx2"))
        .push("fma", has("fma"))
        .push("avx512f", has("avx512f"));
    // What the compiler was actually allowed to use: the root
    // `.cargo/config.toml` builds with `-C target-cpu=native`, so on a
    // host with AVX2 these read true; a build without that flag reads
    // false and is not comparable.
    let mut built = Json::obj();
    built
        .push("target_cpu_native_config", native_config())
        .push("avx2", cfg!(target_feature = "avx2"))
        .push("fma", cfg!(target_feature = "fma"))
        .push("avx512f", cfg!(target_feature = "avx512f"));
    let mut env = Json::obj();
    env.push(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
    .push("cpu_model", field("model name"))
    .push("cpu_features", cpu)
    .push("built_with", built)
    .push("rustc", command_line("rustc", &["-V"]))
    .push("git_commit", command_line("git", &["rev-parse", "HEAD"]));
    env
}

/// Whether the `.cargo/config.toml` in the working directory (the repo
/// root, where every command runs) asks for `target-cpu=native`.
fn native_config() -> bool {
    std::fs::read_to_string(".cargo/config.toml")
        .map(|s| s.contains("target-cpu=native"))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_gauges_read_positive_values_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        // Burn a little CPU so utime is not zero on a fresh process.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds().expect("cpu time") >= 0.0);
        assert!(peak_rss_mib().expect("VmHWM") > 1.0);
    }

    #[test]
    fn record_names_the_machine() {
        let env = record();
        assert!(env.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        for key in [
            "cpu_model",
            "cpu_features",
            "built_with",
            "rustc",
            "git_commit",
        ] {
            assert!(env.get(key).is_some(), "missing {key}");
        }
    }
}
