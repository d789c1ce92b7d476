//! `cargo xtask lint` — std-only source scanner enforcing repo invariants
//! that the type system cannot:
//!
//! 1. **Deterministic hashing**: no `std::collections::HashMap`/`HashSet`
//!    with the default `RandomState` hasher anywhere in non-test code.
//!    Iteration order would vary run to run, breaking the repo's
//!    bit-reproducibility guarantee. Use `elmo_core::DetHashMap`/
//!    `DetHashSet` (or spell out a fixed third hasher parameter).
//! 2. **Pure encode paths**: `elmo_core`'s encoding hot path
//!    (`cluster.rs`, `min_k_union.rs`, `par.rs`) must stay free of
//!    wall-clock reads (`Instant::now`, `SystemTime`) and float
//!    arithmetic — encodings must be exactly reproducible across runs,
//!    thread counts, and architectures.
//! 3. **Declared-metric contract**: every literal metric name passed to
//!    `elmo_obs::counter(..)` / `elmo_obs::histogram(..)` in non-test code
//!    must be declared in `elmo_sim::obs::REQUIRED_METRICS` /
//!    `REQUIRED_HISTOGRAMS`, so exported snapshots are complete and
//!    `elmo-eval check-metrics` stays meaningful. This covers the
//!    `trace.*` / `timeline.*` tracing metrics like everything else.
//! 4. **Clock-free tracing**: the copy-tree trace and timeline paths
//!    (`obs/trace.rs`, `obs/timeline.rs`, `dataplane/fabric.rs`,
//!    `dataplane/shard.rs`) get the encode path's wall-clock ban — trace
//!    ids derive from (packet index, switch id) and windows are logical
//!    ticks, so traced replays are bit-reproducible.
//! 5. **Audited atomics**: every atomic `Ordering::*` token in non-test
//!    code must live in an allowlisted sync module *and* sit under a
//!    `// ordering:` justification comment (the comment covers uses up
//!    to the next blank line). New lock-free code must join the
//!    allowlist deliberately.
//! 6. **`forbid(unsafe_code)` coverage**: every crate root and binary
//!    root under `crates/` must carry `#![forbid(unsafe_code)]` — the
//!    workspace is 100% safe Rust and stays that way by construction.
//!
//! Exits non-zero with `file:line` diagnostics on any violation. Wired
//! into CI next to clippy and rustfmt.
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "lint".into());
    if mode != "lint" {
        eprintln!("usage: cargo xtask lint");
        std::process::exit(2);
    }
    let root = workspace_root();
    let mut problems = Vec::new();
    let sources = rust_sources(&root);

    let declared = declared_metrics(&root);
    for path in &sources {
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                problems.push(format!("{rel_str}: unreadable: {e}"));
                continue;
            }
        };
        // Repo convention: the `#[cfg(test)] mod tests` block is the last
        // item of a file, so everything after the first `#[cfg(test)]` is
        // test-only and exempt from the runtime-code lints.
        let non_test = text
            .split("#[cfg(test)]")
            .next()
            .expect("split yields at least one part");

        if !rel_str.ends_with("core/src/det.rs") && !rel_str.starts_with("crates/xtask/") {
            check_random_state(&rel_str, non_test, &mut problems);
        }
        if is_encode_path(&rel_str) {
            check_encode_purity(&rel_str, non_test, &mut problems);
        }
        if is_trace_path(&rel_str) {
            check_no_clock(
                &rel_str,
                non_test,
                "in a trace/timeline path; trace ids derive from (packet index, \
                 switch id) and windows are logical ticks — never wall clocks",
                &mut problems,
            );
        }
        // `tests/` files are integration tests — entirely test code, so
        // like `#[cfg(test)]` blocks they may mint ad-hoc probe metrics.
        if !rel_str.starts_with("crates/obs/")
            && !rel_str.starts_with("crates/xtask/")
            && !rel_str.starts_with("tests/")
            && !rel_str.ends_with("sim/src/obs.rs")
        {
            check_metric_names(&rel_str, non_test, &declared, &mut problems);
        }
        // Integration tests under `tests/` are all test code and exempt,
        // like `#[cfg(test)]` blocks.
        if rel_str.starts_with("crates/") {
            check_atomic_orderings(&rel_str, non_test, &mut problems);
        }
    }

    check_forbid_coverage(&root, &mut problems);

    if problems.is_empty() {
        println!("xtask lint: {} files clean", sources.len());
    } else {
        for p in &problems {
            eprintln!("error: {p}");
        }
        eprintln!("xtask lint: {} problem(s)", problems.len());
        std::process::exit(1);
    }
}

/// The workspace root: where this binary's crate lives, two levels up.
fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    Path::new(&manifest)
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

/// Every `.rs` file under `crates/*/src` and the workspace `tests/`.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        for e in entries.flatten() {
            walk(&e.path().join("src"), &mut out);
        }
    }
    walk(&root.join("tests"), &mut out);
    walk(&root.join("src"), &mut out);
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

fn line_of(text: &str, offset: usize) -> usize {
    text[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

/// Is the byte before `idx` part of an identifier (so `DetHashMap` does
/// not match a `HashMap` scan)?
fn ident_before(text: &str, idx: usize) -> bool {
    idx > 0
        && (text.as_bytes()[idx - 1].is_ascii_alphanumeric() || text.as_bytes()[idx - 1] == b'_')
}

/// Comment and string contents can legitimately mention the banned names;
/// only lint code. Cheap heuristic: skip lines whose trimmed form starts
/// with a comment marker.
fn in_comment(text: &str, idx: usize) -> bool {
    let line_start = text[..idx].rfind('\n').map_or(0, |p| p + 1);
    let trimmed = text[line_start..idx].trim_start();
    trimmed.starts_with("//") || trimmed.starts_with("/*") || trimmed.starts_with('*')
}

/// Lint 1: `HashMap`/`HashSet` uses that resolve to the default
/// `RandomState` hasher. A generic use passes only when it spells a third
/// (second, for sets) hasher parameter; `HashMap::new()` and
/// `HashMap::default()` on the std types always mean `RandomState`.
fn check_random_state(rel: &str, text: &str, problems: &mut Vec<String>) {
    for name in ["HashMap", "HashSet"] {
        let hasher_position = if name == "HashMap" { 2 } else { 1 };
        let mut from = 0;
        while let Some(pos) = text[from..].find(name) {
            let idx = from + pos;
            from = idx + name.len();
            if ident_before(text, idx) || in_comment(text, idx) {
                continue;
            }
            let rest = &text[idx + name.len()..];
            let line = line_of(text, idx);
            if let Some(generics) = rest.strip_prefix('<') {
                if top_level_commas(generics) < hasher_position {
                    problems.push(format!(
                        "{rel}:{line}: {name} with default RandomState hasher \
                         (iteration order varies per run); use elmo_core::Det{name} \
                         or name a deterministic hasher explicitly"
                    ));
                }
            } else if rest.starts_with("::new(")
                || rest.starts_with("::default(")
                || rest.starts_with("::with_capacity(")
            {
                problems.push(format!(
                    "{rel}:{line}: {name} constructed with the default RandomState \
                     hasher; use elmo_core::Det{name} instead"
                ));
            }
        }
    }
}

/// Count commas at nesting depth zero inside a generic-argument list that
/// starts just after `<`.
fn top_level_commas(s: &str) -> usize {
    let mut depth = 0i32;
    let mut commas = 0;
    for c in s.chars() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' if depth == 0 => return commas,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => commas += 1,
            _ => {}
        }
    }
    commas
}

fn is_encode_path(rel: &str) -> bool {
    [
        "crates/core/src/cluster.rs",
        "crates/core/src/min_k_union.rs",
        "crates/core/src/par.rs",
    ]
    .contains(&rel)
}

/// Files where trace ids and timeline windows are derived. Trace ids must
/// be pure functions of (packet index, switch id) and windows must be
/// logical ticks, so these paths get the same clock ban as the encode
/// path — a wall-clock read here would silently break the "a traced
/// replay is bit-reproducible" guarantee.
fn is_trace_path(rel: &str) -> bool {
    [
        "crates/obs/src/trace.rs",
        "crates/obs/src/timeline.rs",
        "crates/dataplane/src/fabric.rs",
        "crates/dataplane/src/shard.rs",
    ]
    .contains(&rel)
}

/// Shared clock ban: flag `Instant::now` / `SystemTime` outside comments.
fn check_no_clock(rel: &str, text: &str, why: &str, problems: &mut Vec<String>) {
    for banned in ["Instant::now", "SystemTime"] {
        let mut from = 0;
        while let Some(pos) = text[from..].find(banned) {
            let idx = from + pos;
            from = idx + banned.len();
            if in_comment(text, idx) {
                continue;
            }
            problems.push(format!("{}:{}: `{banned}` {why}", rel, line_of(text, idx)));
        }
    }
}

/// Lint 2: wall-clock reads and float tokens in the encode hot path.
fn check_encode_purity(rel: &str, text: &str, problems: &mut Vec<String>) {
    check_no_clock(
        rel,
        text,
        "in the encode path; encoding must not read the clock",
        problems,
    );
    for banned in ["f32", "f64"] {
        let mut from = 0;
        while let Some(pos) = text[from..].find(banned) {
            let idx = from + pos;
            from = idx + banned.len();
            // A float type token, not a substring of an identifier on
            // either side.
            let after = text.as_bytes().get(idx + banned.len());
            if ident_before(text, idx)
                || after.is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                || in_comment(text, idx)
            {
                continue;
            }
            problems.push(format!(
                "{}:{}: `{banned}` in the encode path; clustering must stay in \
                 integer arithmetic for cross-platform reproducibility",
                rel,
                line_of(text, idx)
            ));
        }
    }
}

/// The names declared in `elmo_sim::obs`, parsed textually so this lint
/// has no dependency on the workspace crates it checks.
struct Declared {
    metrics: Vec<String>,
    histograms: Vec<String>,
}

fn declared_metrics(root: &Path) -> Declared {
    let obs = root.join("crates/sim/src/obs.rs");
    let text = std::fs::read_to_string(&obs).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", obs.display());
        std::process::exit(1);
    });
    Declared {
        metrics: string_array(&text, "REQUIRED_METRICS"),
        histograms: string_array(&text, "REQUIRED_HISTOGRAMS"),
    }
}

/// All string literals between `NAME: &[&str] = &[` and the closing `];`.
fn string_array(text: &str, name: &str) -> Vec<String> {
    let decl = format!("{name}: &[&str] = &[");
    let Some(start) = text.find(&decl).map(|p| p + decl.len()) else {
        eprintln!("error: `{decl}` not found in elmo_sim::obs");
        std::process::exit(1);
    };
    let Some(end) = text[start..].find("];").map(|e| start + e) else {
        eprintln!("error: {name} has no closing bracket");
        std::process::exit(1);
    };
    let mut names = Vec::new();
    let body = &text[start..end];
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let Some(q2) = after.find('"') else { break };
        names.push(after[..q2].to_string());
        rest = &after[q2 + 1..];
    }
    names
}

/// Modules allowed to touch atomic memory orderings directly: the sweep's
/// fork/join cursor and the metrics registry. The replay engine is
/// single-threaded and has none.
const ORDERING_ALLOWLIST: &[&str] = &[
    "crates/core/src/par.rs",
    "crates/obs/src/log.rs",
    "crates/obs/src/registry.rs",
];

/// The atomic `Ordering` variants. `std::cmp::Ordering`'s variants
/// (`Less`/`Equal`/`Greater`) never match, so comparator code is free to
/// name its `Ordering` without tripping the audit.
const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// Lint 5: atomic `Ordering::*` tokens are only legal in allowlisted sync
/// modules, and every use must sit under a `// ordering:` justification
/// comment. A justification covers all uses from its own line down to the
/// next blank line, so one comment can vouch for a contiguous cluster
/// (e.g. the paired loads of a snapshot read) but not for a whole file.
fn check_atomic_orderings(rel: &str, text: &str, problems: &mut Vec<String>) {
    let allowlisted = ORDERING_ALLOWLIST.contains(&rel);
    let mut justified = false;
    let mut line_no = 0usize;
    for line in text.lines() {
        line_no += 1;
        if line.trim().is_empty() {
            justified = false;
            continue;
        }
        if line.contains("// ordering:") {
            justified = true;
        }
        // Only audit code: ignore tokens that sit inside the line's
        // comment tail (justification prose often names an ordering).
        let code = line.split("//").next().unwrap_or(line);
        if !ATOMIC_ORDERINGS.iter().any(|o| code.contains(o)) {
            continue;
        }
        if !allowlisted {
            problems.push(format!(
                "{rel}:{line_no}: atomic Ordering use outside the allowlisted sync \
                 modules; extend the xtask allowlist deliberately, with a \
                 `// ordering:` justification"
            ));
        } else if !justified {
            problems.push(format!(
                "{rel}:{line_no}: atomic Ordering use without a `// ordering:` \
                 justification comment above it (comments cover uses up to the \
                 next blank line)"
            ));
        }
    }
}

/// Lint 6: every crate root (`src/lib.rs`) and binary root (`src/main.rs`,
/// `src/bin/*.rs`) must carry `#![forbid(unsafe_code)]`.
fn check_forbid_coverage(root: &Path, problems: &mut Vec<String>) {
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else {
        problems.push("crates/: unreadable workspace layout".into());
        return;
    };
    let mut roots = Vec::new();
    for e in entries.flatten() {
        let src = e.path().join("src");
        for name in ["lib.rs", "main.rs"] {
            let p = src.join(name);
            if p.is_file() {
                roots.push(p);
            }
        }
        let bin = src.join("bin");
        if let Ok(bins) = std::fs::read_dir(&bin) {
            for b in bins.flatten() {
                let p = b.path();
                if p.extension().is_some_and(|x| x == "rs") {
                    roots.push(p);
                }
            }
        }
    }
    roots.sort();
    for p in roots {
        let rel = p.strip_prefix(root).unwrap_or(&p);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        match std::fs::read_to_string(&p) {
            Ok(text) if text.contains("#![forbid(unsafe_code)]") => {}
            Ok(_) => problems.push(format!(
                "{rel_str}: crate/binary root missing `#![forbid(unsafe_code)]`; \
                 the workspace is 100% safe Rust by construction"
            )),
            Err(e) => problems.push(format!("{rel_str}: unreadable: {e}")),
        }
    }
}

/// Lint 3: every literal `elmo_obs::counter("..")`/`histogram("..")` name
/// must be declared in the contract.
fn check_metric_names(rel: &str, text: &str, declared: &Declared, problems: &mut Vec<String>) {
    for (call, list, list_name) in [
        ("counter(\"", &declared.metrics, "REQUIRED_METRICS"),
        ("histogram(\"", &declared.histograms, "REQUIRED_HISTOGRAMS"),
    ] {
        let mut from = 0;
        while let Some(pos) = text[from..].find(call) {
            let idx = from + pos;
            from = idx + call.len();
            if ident_before(text, idx) || in_comment(text, idx) {
                continue;
            }
            let name_start = idx + call.len();
            let Some(name_end) = text[name_start..].find('"').map(|e| name_start + e) else {
                continue;
            };
            let metric = &text[name_start..name_end];
            if !list.iter().any(|m| m == metric) {
                let mut msg = String::new();
                let _ = write!(
                    msg,
                    "{rel}:{}: metric \"{metric}\" is not declared in \
                     elmo_sim::obs::{list_name}; add it so snapshots stay complete",
                    line_of(text, idx)
                );
                problems.push(msg);
            }
        }
    }
}
