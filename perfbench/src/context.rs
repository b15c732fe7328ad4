//! Context printed with every result: host fingerprint and a plain
//! non-blank line count per crate (informational, never gated).

use std::path::{Path, PathBuf};

/// Root of the checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

/// Host fingerprint as JSON object fields.
pub fn host_fields() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}",
        quote(&cpu),
        quote(&rustc),
        quote(&git_commit(&repo_root()).unwrap_or_else(|| "unknown".into()))
    )
}

/// The checked-out commit, read from `.git` without running git
/// (`None` outside a git checkout).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Non-blank lines of Rust source per crate: every member under
/// `crates/` and `shims/`, the root package, and this benchmark.
pub fn line_counts() -> Vec<(String, usize)> {
    let root = repo_root();
    let mut out = Vec::new();
    for group in ["crates", "shims"] {
        let Ok(entries) = std::fs::read_dir(root.join(group)) else { continue };
        let mut dirs: Vec<PathBuf> =
            entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect();
        dirs.sort();
        for dir in dirs {
            let name =
                dir.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            out.push((name, rust_lines(&dir)));
        }
    }
    let root_pkg = ["src", "tests", "examples"].iter().map(|d| rust_lines(&root.join(d))).sum();
    out.push(("cagra-repro".into(), root_pkg));
    out.push(("perfbench".into(), rust_lines(&root.join("perfbench").join("src"))));
    out
}

/// Non-blank lines in every `.rs` file under `dir` (skipping build
/// output directories).
fn rust_lines(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                let skip = p.file_name().is_some_and(|n| n == "target" || n == "out");
                if skip {
                    0
                } else {
                    rust_lines(&p)
                }
            } else if p.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&p)
                    .map_or(0, |s| s.lines().filter(|l| !l.trim().is_empty()).count())
            } else {
                0
            }
        })
        .sum()
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process in MB (VmHWM).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
