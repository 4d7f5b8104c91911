//! Workspace static-analysis driver.
//!
//! `cargo xtask check` runs, in order:
//!
//! 1. `cargo fmt --all --check` — formatting drift fails the run.
//! 2. `cargo clippy --workspace --all-targets` with `-D warnings`, on top of
//!    the workspace lint wall (`[workspace.lints]` in the root manifest).
//! 3. `cargo build --workspace --all-targets` — everything must compile.
//! 4. Custom source lints that rustc/clippy cannot express (see below).
//! 5. An integration-test floor: every first-party library crate must ship
//!    at least one integration test target (`tests/` files or `[[test]]`
//!    manifest entries); shims and the binary-only `xtask` are exempt.
//!
//! The custom lints, run standalone via `cargo xtask lint`:
//!
//! * `no-unwrap` — no `.unwrap()` / `.expect(` outside `#[cfg(test)]` in the
//!   library sources of `vc-nn`, `vc-env` and `vc-rl` (the crates whose
//!   panics would tear down employee threads).
//! * `lock-across-send` — no `Mutex` guard bound by `let` (from `.lock()`
//!   or `vc_telemetry::sync::lock_unpoisoned(`) still live when a channel
//!   `.send(` runs; holding a lock across a blocking send is the
//!   chief/employee deadlock shape.
//! * `pub-docs` — every `pub` item in `vc-nn` and `vc-rl` carries a doc
//!   comment (stricter than `missing_docs`: it also fires inside modules
//!   that allow the rustc lint).
//! * `no-process-exit` — no `std::process::exit` outside `src/bin/`;
//!   library code must return typed errors (an exit from an employee thread
//!   would bypass the chief's panic containment and respawn machinery).
//! * `no-raw-thread` — no `thread::spawn(` / `thread::scope(` outside
//!   `crates/nn/src/ops/pool.rs`: all kernel parallelism must route through
//!   the persistent pool (per-call spawns were the 15× regression the pool
//!   replaced). Long-lived employee threads use `thread::Builder`, which the
//!   token scan deliberately permits.
//! * `atomic-ordering` — every `Ordering::Relaxed` in first-party library
//!   sources carries a `// ordering:` justification comment on the same or
//!   the preceding line. Relaxed is correct for standalone counters and
//!   flags but silently wrong the moment other memory is published through
//!   the atomic; the comment forces that argument to be written down where
//!   reviewers (and `cargo xtask analyze`) can check it. See `DESIGN.md`
//!   §13 for the workspace memory-model contracts.
//! * `condvar-predicate` — no bare `.wait(` on a condvar: waits must go
//!   through `wait_while` (or another predicate loop), because a bare wait
//!   whose notification fired early blocks forever. The loom suite
//!   demonstrates exactly this failure (`finds_lost_wakeup_on_bare_wait`
//!   in the `loom` shim's self-tests).
//! * `no-static-mut` — no `static mut` anywhere in the workspace, shims
//!   included: every access is unsafe and unsynchronized by construction;
//!   use atomics, `OnceLock`, or `Mutex` statics instead.
//! * `unsafe-allow` — the workspace denies `unsafe_code`, so the only door
//!   into `unsafe` is an `allow(unsafe_code)` attribute; every such
//!   attribute must be allow-listed, keeping the sanctioned-unsafe modules
//!   (currently only the SIMD micro-kernel, `crates/nn/src/ops/simd.rs`)
//!   an explicit, reviewed list.
//!
//! Grandfathered findings live in `xtask-allow.txt` at the repo root, one
//! per line as `<lint> <path>` or `<lint> <path>:<line>`; `#` starts a
//! comment. Entries that no longer match any finding fail the run (stale
//! allows hide regressions) — prune them together with the fix.
//!
//! `cargo xtask analyze [--loom|--tsan|--miri] [--strict]` runs the dynamic
//! concurrency analyses (loom model checking on stable; ThreadSanitizer and
//! Miri on a nightly toolchain, pinned via `VC_NIGHTLY` in CI). Without
//! flags, all three run. Missing prerequisites (no nightly, no rust-src /
//! miri component — the usual state offline) skip that analysis with a
//! note; `--strict` turns a skip into a failure and is what CI uses.
//!
//! `cargo xtask regen-golden` regenerates the golden-trace fixtures — the
//! trainer trace (`tests/fixtures/golden_trace.json`) and the per-family
//! scenario traces (`tests/fixtures/golden_trace_<family>.json`) — from the
//! current code. Run it when a metric-affecting change is intentional, and
//! commit the new fixtures with the change.
//!
//! `cargo xtask bench` runs the kernel ladders (`bench_kernels`), which
//! append to the `BENCH_kernels.json` trajectory at the repo root; `--smoke`
//! runs minimal iterations against a throwaway file under `target/` (the CI
//! `bench-smoke` job).
//! `bench_kernels` gates its own run: the blocked 256³ GEMM on one thread
//! must reach 2× the naive kernel's GFLOP/s measured in the same process,
//! or it exits non-zero. Nothing here compares against a committed number.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let task = std::env::args().nth(1).unwrap_or_else(|| "help".to_owned());
    let root = repo_root();
    let ok = match task.as_str() {
        "check" => {
            run_cargo(&root, &["fmt", "--all", "--check"])
                && run_cargo(
                    &root,
                    &["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"],
                )
                && run_cargo(&root, &["build", "--workspace", "--all-targets"])
                && run_source_lints(&root)
                && check_integration_tests(&root)
        }
        "fmt" => run_cargo(&root, &["fmt", "--all", "--check"]),
        "clippy" => {
            run_cargo(&root, &["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"])
        }
        "build" => run_cargo(&root, &["build", "--workspace", "--all-targets"]),
        "lint" => run_source_lints(&root),
        "tests-present" => check_integration_tests(&root),
        "regen-golden" => {
            run_cargo(
                &root,
                &[
                    "test",
                    "--release",
                    "--package",
                    "drl-cews",
                    "--test",
                    "golden_trace",
                    "--",
                    "--ignored",
                    "regen_golden_fixture",
                    "--nocapture",
                ],
            ) && run_cargo(
                &root,
                &[
                    "test",
                    "--release",
                    "--package",
                    "drl-cews",
                    "--test",
                    "golden_trace_families",
                    "--",
                    "--ignored",
                    "regen_family_fixtures",
                    "--nocapture",
                ],
            )
        }
        "bench" => {
            let smoke = std::env::args().any(|a| a == "--smoke");
            run_bench(&root, smoke)
        }
        "analyze" => {
            let rest: Vec<String> = std::env::args().skip(2).collect();
            let strict = rest.iter().any(|a| a == "--strict");
            let mut which: Vec<&str> = Vec::new();
            for flag in ["--loom", "--tsan", "--miri"] {
                if rest.iter().any(|a| a == flag) {
                    which.push(&flag[2..]);
                }
            }
            if which.is_empty() {
                which = vec!["loom", "tsan", "miri"];
            }
            run_analyze(&root, &which, strict)
        }
        _ => {
            eprintln!(
                "usage: cargo xtask <task>\n\n\
                 tasks:\n  \
                 check   fmt + clippy + build + custom source lints\n  \
                 fmt     cargo fmt --all --check\n  \
                 clippy  cargo clippy --workspace --all-targets -D warnings\n  \
                 build   cargo build --workspace --all-targets\n  \
                 lint    custom source lints only\n  \
                 tests-present  fail if a first-party library crate has no\n          \
                 integration tests\n  \
                 regen-golden   regenerate tests/fixtures/golden_trace.json\n          \
                 and tests/fixtures/golden_trace_<family>.json from the\n          \
                 current code\n  \
                 bench   kernel ladders -> BENCH_kernels.json, gated in-run\n          \
                 (blocked 256^3 GEMM >= 2x naive)\n          \
                 (--smoke: minimal iterations into target/)\n  \
                 analyze dynamic concurrency analyses; flags select a\n          \
                 subset: --loom (model checking, stable), --tsan\n          \
                 (ThreadSanitizer, nightly), --miri (nightly).\n          \
                 --strict fails on missing prerequisites (CI)"
            );
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Repo root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
}

/// Runs one cargo subprocess, echoing the command line; true on success.
fn run_cargo(root: &Path, args: &[&str]) -> bool {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    run_cmd(root, &cargo, args, &[])
}

/// Runs one subprocess with extra environment variables; true on success.
fn run_cmd(root: &Path, program: &str, args: &[&str], envs: &[(&str, &str)]) -> bool {
    let mut line = String::new();
    for (k, v) in envs {
        line.push_str(&format!("{k}={v} "));
    }
    eprintln!("xtask: {line}{program} {}", args.join(" "));
    let mut cmd = Command::new(program);
    cmd.args(args).current_dir(root);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    match cmd.status() {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("xtask: {program} {} failed with {s}", args.join(" "));
            false
        }
        Err(e) => {
            eprintln!("xtask: could not spawn {program}: {e}");
            false
        }
    }
}

/// The nightly toolchain used for sanitizer/miri analyses: `VC_NIGHTLY`
/// when set (CI pins it there), plain `nightly` otherwise.
fn nightly_toolchain() -> String {
    std::env::var("VC_NIGHTLY").unwrap_or_else(|_| "nightly".to_owned())
}

/// Captures stdout of a command; `None` if it failed to run or exited
/// non-zero.
fn capture(root: &Path, program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(root).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Reports an analysis whose prerequisite is missing: a failure under
/// `--strict` (CI must run everything), a logged skip otherwise.
fn skip_or_fail(strict: bool, what: &str, why: &str) -> bool {
    if strict {
        eprintln!("xtask: analyze {what}: MISSING prerequisite ({why}) and --strict is set");
        false
    } else {
        eprintln!("xtask: analyze {what}: skipped ({why})");
        true
    }
}

/// Dynamic concurrency analyses — see the crate docs. `which` holds any of
/// `"loom"` / `"tsan"` / `"miri"`.
fn run_analyze(root: &Path, which: &[&str], strict: bool) -> bool {
    let mut ok = true;
    for w in which {
        ok &= match *w {
            "loom" => analyze_loom(root),
            "tsan" => analyze_tsan(root, strict),
            "miri" => analyze_miri(root, strict),
            other => {
                eprintln!("xtask: unknown analysis {other}");
                false
            }
        };
    }
    ok
}

/// The loom model-checking suites (`tests/loom_*.rs`), plus the shim's own
/// checker self-tests. Runs on stable with `--cfg loom`; a separate target
/// dir keeps the flag from invalidating the main build cache, and
/// `--test-threads=1` serializes models because the pool/arena counters are
/// process-wide.
fn analyze_loom(root: &Path) -> bool {
    let envs: &[(&str, &str)] = &[("RUSTFLAGS", "--cfg loom"), ("CARGO_TARGET_DIR", "target/loom")];
    run_cmd(root, "cargo", &["test", "--release", "-p", "loom", "--lib"], envs)
        && run_cmd(
            root,
            "cargo",
            &[
                "test",
                "--release",
                "-p",
                "vc-nn",
                "--test",
                "loom_pool",
                "--test",
                "loom_arena",
                "--",
                "--test-threads=1",
            ],
            envs,
        )
        && run_cmd(
            root,
            "cargo",
            &[
                "test",
                "--release",
                "-p",
                "vc-telemetry",
                "--test",
                "loom_registry",
                "--",
                "--test-threads=1",
            ],
            envs,
        )
}

/// ThreadSanitizer over the concurrent crates' test suites. Needs a nightly
/// with `rust-src` (`-Zbuild-std` instruments std itself, which TSan
/// requires to avoid false positives on std's own synchronization).
fn analyze_tsan(root: &Path, strict: bool) -> bool {
    let tc = nightly_toolchain();
    let Some(version) = capture(root, "rustup", &["run", &tc, "rustc", "--version"]) else {
        return skip_or_fail(strict, "tsan", &format!("toolchain {tc} unavailable"));
    };
    let components =
        capture(root, "rustup", &["component", "list", "--installed", "--toolchain", &tc])
            .unwrap_or_default();
    if !components.lines().any(|l| l.starts_with("rust-src")) {
        return skip_or_fail(strict, "tsan", &format!("rust-src not installed for {tc}"));
    }
    let Some(host) = capture(root, "rustup", &["run", &tc, "rustc", "-vV"])
        .and_then(|v| v.lines().find_map(|l| l.strip_prefix("host: ").map(str::to_owned)))
    else {
        return skip_or_fail(strict, "tsan", "could not determine host triple");
    };
    eprintln!("xtask: analyze tsan on {} ({host})", version.trim());
    run_cmd(
        root,
        "rustup",
        &[
            "run",
            &tc,
            "cargo",
            "test",
            "-Zbuild-std",
            "--target",
            &host,
            "-p",
            "vc-nn",
            "-p",
            "vc-telemetry",
            "--lib",
            "--tests",
        ],
        &[
            ("RUSTFLAGS", "-Zsanitizer=thread"),
            ("RUSTDOCFLAGS", "-Zsanitizer=thread"),
            ("CARGO_TARGET_DIR", "target/tsan"),
        ],
    )
}

/// Miri over the pointer/alias-heavy units: the arena (recycled `Vec`
/// buffers), the packed-GEMM kernel (`gemm` + `simd` unit tests — Miri
/// compiles the scalar fallback, which exercises the same packing offsets
/// and tile dispatch as the AVX2 path), and the telemetry metrics. Leaks
/// are expected — the kernel pool's shared state is deliberately
/// `Box::leak`ed and worker threads never join — so the leak checker is
/// off.
fn analyze_miri(root: &Path, strict: bool) -> bool {
    let tc = nightly_toolchain();
    if capture(root, "rustup", &["run", &tc, "cargo", "miri", "--version"]).is_none() {
        return skip_or_fail(strict, "miri", &format!("cargo miri unavailable on {tc}"));
    }
    let envs: &[(&str, &str)] =
        &[("MIRIFLAGS", "-Zmiri-ignore-leaks"), ("CARGO_TARGET_DIR", "target/miri")];
    for filter in ["arena", "gemm", "simd"] {
        if !run_cmd(
            root,
            "rustup",
            &["run", &tc, "cargo", "miri", "test", "-p", "vc-nn", "--lib", "--", filter],
            envs,
        ) {
            return false;
        }
    }
    run_cmd(
        root,
        "rustup",
        &["run", &tc, "cargo", "miri", "test", "-p", "vc-telemetry", "--lib"],
        envs,
    )
}

/// First-party library crates covered by the integration-test floor. The
/// shims are exempt (they exist to satisfy the offline build, not to be
/// tested as products), and `xtask` and `crates/bench` are binary-only
/// tool crates.
const TESTED_CRATES: &[&str] = &[
    "crates/nn",
    "crates/env",
    "crates/rl",
    "crates/core",
    "crates/curiosity",
    "crates/baselines",
    "crates/telemetry",
    "crates/serve",
];

/// Fails if any first-party library crate ships zero integration tests.
///
/// A crate's integration tests are the `.rs` files under its `tests/`
/// directory plus any explicit `[[test]]` targets in its manifest (the root
/// `tests/` files are wired into `crates/core` that way). Unit tests don't
/// count: they compile inside the library and can't catch linkage or
/// public-API regressions.
fn check_integration_tests(root: &Path) -> bool {
    eprintln!("xtask: integration-test presence");
    let mut ok = true;
    for rel in TESTED_CRATES {
        let dir = root.join(rel);
        let from_dir = rust_files(&dir.join("tests")).len();
        let from_manifest = fs::read_to_string(dir.join("Cargo.toml"))
            .map(|t| t.lines().filter(|l| l.trim() == "[[test]]").count())
            .unwrap_or(0);
        let total = from_dir + from_manifest;
        if total == 0 {
            eprintln!("xtask: {rel} has no integration tests (tests/ empty, no [[test]] targets)");
            ok = false;
        } else {
            eprintln!("xtask:   {rel}: {total} integration test target(s)");
        }
    }
    if !ok {
        eprintln!("xtask: every first-party library crate needs at least one integration test");
    }
    ok
}

/// Runs the kernel-ladder benchmark, which validates the trajectory it
/// writes and gates the run against itself, exiting non-zero on a
/// violation. Smoke mode writes a throwaway `BENCH_kernels.smoke.json`
/// under `target/`, started afresh each run; a full run appends to
/// `BENCH_kernels.json` at the repo root.
fn run_bench(root: &Path, smoke: bool) -> bool {
    let out = if smoke {
        root.join("target").join("BENCH_kernels.smoke.json")
    } else {
        root.join("BENCH_kernels.json")
    };
    if smoke {
        let _ = fs::remove_file(&out);
    }
    let out_str = out.display().to_string();
    let mut args =
        vec!["run", "--release", "--package", "vc-bench", "--bin", "bench_kernels", "--"];
    if smoke {
        args.push("--smoke");
    }
    args.extend_from_slice(&["--out", &out_str]);
    run_cargo(root, &args)
}

/// One custom-lint violation.
struct Finding {
    lint: &'static str,
    path: PathBuf,
    line: usize,
    msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path.display(), self.line, self.lint, self.msg)
    }
}

/// Which custom lints [`lint_file`] applies to a file.
#[derive(Clone, Copy, Default)]
struct Checks {
    /// `no-unwrap`.
    unwrap: bool,
    /// `pub-docs`.
    docs: bool,
    /// `no-process-exit`.
    exit: bool,
    /// `no-raw-thread`.
    threads: bool,
    /// `atomic-ordering`.
    atomics: bool,
    /// `condvar-predicate`.
    condvar: bool,
    /// `no-static-mut`.
    static_mut: bool,
    /// `unsafe-allow`.
    unsafe_allow: bool,
}

/// Runs every custom lint over the workspace sources; true when clean.
fn run_source_lints(root: &Path) -> bool {
    eprintln!("xtask: custom source lints");
    let allow = load_allowlist(root);
    let mut findings = Vec::new();

    // no-unwrap: library sources of the crates whose panics kill employees
    // (telemetry runs inside chief and employee hot paths, so it counts).
    for dir in ["crates/nn/src", "crates/env/src", "crates/rl/src", "crates/telemetry/src"] {
        for file in rust_files(&root.join(dir)) {
            lint_file(&file, root, &mut findings, Checks { unwrap: true, ..Checks::default() });
        }
    }
    // lock-across-send, no-process-exit, no-raw-thread, atomic-ordering and
    // condvar-predicate run over every first-party crate (the shims
    // implement the locking primitives themselves and are exempt); pub-docs
    // only where the policy demands it: vc-nn and vc-rl. Binaries under
    // src/bin/ may exit; libraries must return errors. The persistent
    // kernel pool is the one module allowed to create threads.
    for dir in [
        "crates/nn/src",
        "crates/env/src",
        "crates/rl/src",
        "crates/core/src",
        "crates/curiosity/src",
        "crates/baselines/src",
        "crates/bench/src",
        "crates/telemetry/src",
        "crates/serve/src",
    ] {
        let want_docs = dir == "crates/nn/src" || dir == "crates/rl/src";
        for file in rust_files(&root.join(dir)) {
            let in_bin = file.components().any(|c| c.as_os_str() == "bin");
            let is_pool = file.ends_with("crates/nn/src/ops/pool.rs");
            lint_file(
                &file,
                root,
                &mut findings,
                Checks {
                    docs: want_docs,
                    exit: !in_bin,
                    threads: !is_pool,
                    atomics: true,
                    condvar: true,
                    static_mut: true,
                    unsafe_allow: true,
                    unwrap: false,
                },
            );
        }
    }
    // no-static-mut alone is workspace-wide: shims and xtask included (a
    // `static mut` is UB-prone everywhere, offline stand-in or not).
    for dir in ["crates/shims", "crates/xtask/src"] {
        for file in rust_files(&root.join(dir)) {
            lint_file(&file, root, &mut findings, Checks { static_mut: true, ..Checks::default() });
        }
    }

    let mut used = vec![false; allow.len()];
    let mut failed = 0usize;
    for f in &findings {
        if let Some(idx) = allow_match(&allow, f) {
            used[idx] = true;
            continue;
        }
        eprintln!("{f}");
        failed += 1;
    }
    // A stale allow entry no longer matches anything: the finding was
    // fixed (prune the entry) or the path moved (it now hides a real
    // finding elsewhere). Either way it must not linger.
    for (i, entry) in allow.iter().enumerate() {
        if !used[i] {
            let loc = match entry.2 {
                Some(line) => format!("{}:{line}", entry.1),
                None => entry.1.clone(),
            };
            eprintln!(
                "xtask: stale allowlist entry: `{} {loc}` matches no finding — prune it",
                entry.0
            );
            failed += 1;
        }
    }
    if failed == 0 {
        eprintln!("xtask: source lints clean ({} allow-listed entries)", allow.len());
        true
    } else {
        eprintln!("xtask: {failed} source-lint finding(s); see xtask-allow.txt to grandfather");
        false
    }
}

/// Allowlist entries: `(lint, path, optional line)`.
type Allow = Vec<(String, String, Option<usize>)>;

/// Parses `xtask-allow.txt` (missing file = empty allowlist).
fn load_allowlist(root: &Path) -> Allow {
    let Ok(text) = fs::read_to_string(root.join("xtask-allow.txt")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(lint), Some(loc)) = (parts.next(), parts.next()) else {
            continue;
        };
        match loc.rsplit_once(':') {
            Some((path, ln)) if ln.chars().all(|c| c.is_ascii_digit()) => {
                out.push((lint.to_owned(), path.to_owned(), ln.parse().ok()));
            }
            _ => out.push((lint.to_owned(), loc.to_owned(), None)),
        }
    }
    out
}

/// The index of the allowlist entry grandfathering a finding, if any (used
/// for stale-entry detection: every entry must match at least one finding).
fn allow_match(allow: &Allow, f: &Finding) -> Option<usize> {
    let path = f.path.to_string_lossy();
    allow.iter().position(|(lint, p, line)| {
        lint == f.lint && path == p.as_str() && line.is_none_or(|l| l == f.line)
    })
}

/// Whether a finding is grandfathered by the allowlist.
#[cfg(test)]
fn allowed(allow: &Allow, f: &Finding) -> bool {
    allow_match(allow, f).is_some()
}

/// All `.rs` files under `dir`, recursively, in stable order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// A live `let`-bound lock guard.
struct LockGuard {
    name: String,
    depth: usize,
    line: usize,
}

/// Scans one file for the custom lints, appending findings.
///
/// `checks` selects the per-crate lints; the lock-across-send lint always
/// runs except on the workspace-wide `no-static-mut`-only pass (where
/// nothing else in `checks` is set either).
fn lint_file(file: &Path, root: &Path, findings: &mut Vec<Finding>, checks: Checks) {
    let Checks {
        unwrap: check_unwrap,
        docs: check_docs,
        exit: check_exit,
        threads: check_threads,
        atomics: check_atomics,
        condvar: check_condvar,
        static_mut: check_static_mut,
        unsafe_allow: check_unsafe_allow,
    } = checks;
    let Ok(text) = fs::read_to_string(file) else { return };
    let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
    let raw: Vec<&str> = text.lines().collect();

    // Strip comments and string contents so token scans can't false-match.
    let mut stripped = Vec::with_capacity(raw.len());
    let mut in_block_comment = false;
    for line in &raw {
        let (s, still) = strip_line(line, in_block_comment);
        in_block_comment = still;
        stripped.push(s);
    }

    let mut depth = 0usize;
    let mut cfg_test_pending = false;
    let mut test_depth: Option<usize> = None;
    let mut guards: Vec<LockGuard> = Vec::new();

    for (i, s) in stripped.iter().enumerate() {
        let lineno = i + 1;
        let in_test = test_depth.is_some();
        let trimmed = s.trim();

        if trimmed.contains("#[cfg(test)]") {
            cfg_test_pending = true;
        }

        // Even inside #[cfg(test)]: an exit tears down the whole test
        // harness (or an employee thread) instead of unwinding.
        if check_exit && s.contains("process::exit") {
            findings.push(Finding {
                lint: "no-process-exit",
                path: rel.clone(),
                line: lineno,
                msg: "std::process::exit outside src/bin/; return a typed error instead".to_owned(),
            });
        }

        // Even inside #[cfg(test)]: the workspace denies `unsafe_code`, so
        // the only door into `unsafe` is an `allow(unsafe_code)` attribute.
        // Every such attribute must be allow-listed in xtask-allow.txt,
        // which keeps the set of sanctioned-unsafe modules (currently just
        // the SIMD micro-kernel) an explicit, reviewed list.
        if check_unsafe_allow && s.contains("allow(unsafe_code)") {
            findings.push(Finding {
                lint: "unsafe-allow",
                path: rel.clone(),
                line: lineno,
                msg: "allow(unsafe_code) outside the sanctioned-unsafe allowlist; add an \
                      `unsafe-allow` entry to xtask-allow.txt after review"
                    .to_owned(),
            });
        }

        // Even inside #[cfg(test)]: a `static mut` is unsynchronized by
        // construction wherever it lives. Declarations only (they always
        // start a line, possibly behind a visibility modifier).
        if check_static_mut
            && (trimmed.starts_with("static mut ")
                || trimmed.starts_with("pub static mut ")
                || trimmed.starts_with("pub(crate) static mut ")
                || trimmed.starts_with("pub(super) static mut "))
        {
            findings.push(Finding {
                lint: "no-static-mut",
                path: rel.clone(),
                line: lineno,
                msg: "static mut is unsynchronized and unsafe to touch; use an atomic, \
                      OnceLock, or Mutex static"
                    .to_owned(),
            });
        }

        if !in_test {
            if check_threads && (s.contains("thread::spawn(") || s.contains("thread::scope(")) {
                findings.push(Finding {
                    lint: "no-raw-thread",
                    path: rel.clone(),
                    line: lineno,
                    msg: "raw thread::spawn/thread::scope outside the kernel pool; \
                          route parallel work through vc_nn::ops::pool"
                        .to_owned(),
                });
            }
            if check_atomics && s.contains("Ordering::Relaxed") {
                // Justification comments live in the *raw* text (stripping
                // removes them): accepted on the same line or anywhere in
                // the contiguous `//` comment block directly above.
                let mut justified = raw[i].contains("// ordering:");
                let mut j = i;
                while !justified && j > 0 {
                    j -= 1;
                    let t = raw[j].trim_start();
                    if !t.starts_with("//") {
                        break;
                    }
                    justified = t.contains("ordering:");
                }
                if !justified {
                    findings.push(Finding {
                        lint: "atomic-ordering",
                        path: rel.clone(),
                        line: lineno,
                        msg: "Ordering::Relaxed without a `// ordering:` justification on \
                              this or the preceding line"
                            .to_owned(),
                    });
                }
            }
            if check_condvar && s.contains(".wait(") {
                findings.push(Finding {
                    lint: "condvar-predicate",
                    path: rel.clone(),
                    line: lineno,
                    msg: "bare .wait( — use wait_while (a bare wait whose notify fired \
                          early blocks forever)"
                        .to_owned(),
                });
            }
            if check_unwrap && (s.contains(".unwrap()") || s.contains(".expect(")) {
                findings.push(Finding {
                    lint: "no-unwrap",
                    path: rel.clone(),
                    line: lineno,
                    msg: "unwrap()/expect() outside #[cfg(test)]; return a typed error instead"
                        .to_owned(),
                });
            }
            if check_docs {
                if let Some(item) = pub_item(trimmed) {
                    if !has_doc(&stripped, &raw, i) {
                        findings.push(Finding {
                            lint: "pub-docs",
                            path: rel.clone(),
                            line: lineno,
                            msg: format!("public {item} without a doc comment"),
                        });
                    }
                }
            }
            // Track `let guard = ... .lock()` and `lock_unpoisoned(` bindings
            // (temporaries that are not `let`-bound drop at the end of the
            // statement and are fine).
            if s.contains(".lock()") || s.contains("lock_unpoisoned(") {
                if let Some(name) = let_binding(trimmed) {
                    guards.push(LockGuard { name, depth, line: lineno });
                }
            }
            if s.contains(".send(") {
                if let Some(g) = guards.last() {
                    findings.push(Finding {
                        lint: "lock-across-send",
                        path: rel.clone(),
                        line: lineno,
                        msg: format!(
                            "channel send while lock guard `{}` (line {}) is held",
                            g.name, g.line
                        ),
                    });
                }
            }
            for dropped in explicit_drops(s) {
                guards.retain(|g| g.name != dropped);
            }
        }

        for c in s.chars() {
            match c {
                '{' => {
                    if cfg_test_pending && test_depth.is_none() {
                        test_depth = Some(depth);
                        cfg_test_pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if test_depth == Some(depth) {
                        test_depth = None;
                    }
                    guards.retain(|g| g.depth < depth);
                }
                _ => {}
            }
        }
    }
}

/// Strips `//` comments, `/* */` comments and string-literal contents from
/// one line; returns the stripped line and whether a block comment continues.
fn strip_line(line: &str, mut in_block: bool) -> (String, bool) {
    let mut out = String::with_capacity(line.len());
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0;
    let mut in_str = false;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if in_block {
            if c == '*' && next == Some('/') {
                in_block = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if in_str {
            if c == '\\' {
                i += 2;
            } else {
                if c == '"' {
                    in_str = false;
                    out.push('"');
                }
                i += 1;
            }
            continue;
        }
        match c {
            '/' if next == Some('/') => break,
            '/' if next == Some('*') => {
                in_block = true;
                i += 2;
            }
            '"' => {
                in_str = true;
                out.push('"');
                i += 1;
            }
            // Char literals like '"' or '{' would confuse the scanner.
            '\'' if next == Some('\\') && chars.get(i + 3) == Some(&'\'') => i += 4,
            '\'' if chars.get(i + 2) == Some(&'\'') => i += 3,
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    (out, in_block)
}

/// The item keyword when a stripped, trimmed line declares a `pub` item that
/// the documentation policy covers.
fn pub_item(trimmed: &str) -> Option<&'static str> {
    let rest = trimmed.strip_prefix("pub ")?;
    for kw in ["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union"] {
        if rest.strip_prefix(kw).is_some_and(|r| r.starts_with([' ', '<', '('])) {
            return Some(kw);
        }
    }
    // `unsafe_code` is denied workspace-wide, but `pub async fn` could occur.
    if rest.strip_prefix("async fn ").is_some() {
        return Some("fn");
    }
    None
}

/// Whether the item starting at stripped line `i` has an attached doc
/// comment (`///` or `#[doc`), looking back over attributes.
fn has_doc(stripped: &[String], raw: &[&str], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = raw[j].trim();
        if t.starts_with("///") || t.starts_with("#[doc") {
            return true;
        }
        // Attribute lines (possibly the tail of a wrapped #[derive(...)])
        // sit between docs and the item; skip them.
        let st = stripped[j].trim();
        if st.starts_with("#[") || st.ends_with(")]") {
            continue;
        }
        return false;
    }
    false
}

/// The bound name when a stripped, trimmed line is a `let` statement.
fn let_binding(trimmed: &str) -> Option<String> {
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    (!name.is_empty() && !name.starts_with('_')).then_some(name)
}

/// Names explicitly dropped on this line via `drop(name)`.
fn explicit_drops(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(pos) = rest.find("drop(") {
        let tail = &rest[pos + 5..];
        let name: String = tail.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if !name.is_empty() {
            out.push(name);
        }
        rest = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn strip_removes_comments_and_strings() {
        let (s, cont) = strip_line(r#"let x = "a.unwrap()"; // .expect(boom)"#, false);
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("expect"));
        assert!(!cont);
        let (_, cont) = strip_line("foo /* start", false);
        assert!(cont);
        let (s, cont) = strip_line("end */ bar", true);
        assert_eq!(s.trim(), "bar");
        assert!(!cont);
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let (s, _) = strip_line(r#"if c == '"' { x.unwrap() }"#, false);
        assert!(s.contains("unwrap"));
    }

    #[test]
    fn pub_item_detection() {
        assert_eq!(pub_item("pub fn foo() {"), Some("fn"));
        assert_eq!(pub_item("pub struct Bar {"), Some("struct"));
        assert_eq!(pub_item("pub async fn baz() {"), Some("fn"));
        assert_eq!(pub_item("pub use foo::bar;"), None);
        assert_eq!(pub_item("pub(crate) fn hidden() {"), None);
        assert_eq!(pub_item("publish()"), None);
    }

    #[test]
    fn let_binding_extraction() {
        assert_eq!(let_binding("let mut inner = self.inner.lock();"), Some("inner".to_owned()));
        assert_eq!(let_binding("let g = m.lock();"), Some("g".to_owned()));
        assert_eq!(let_binding("self.inner.lock().contributions"), None);
        assert_eq!(let_binding("let _ = m.lock();"), None);
        assert_eq!(let_binding("let g = lock_unpoisoned(&m);"), Some("g".to_owned()));
        assert_eq!(
            let_binding("let mut q = m.lock().unwrap_or_else(PoisonError::into_inner);"),
            Some("q".to_owned())
        );
    }

    #[test]
    fn lock_across_send_fires_and_clears() {
        let dir = std::env::temp_dir().join("xtask-lint-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("case.rs");
        fs::write(
            &file,
            "fn bad(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
             \x20   let g = m.lock();\n\
             \x20   tx.send(*g);\n\
             }\n\
             fn good(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
             \x20   let g = m.lock();\n\
             \x20   let v = *g;\n\
             \x20   drop(g);\n\
             \x20   tx.send(v);\n\
             }\n\
             fn bad_unpoisoned(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
             \x20   let g = lock_unpoisoned(&m);\n\
             \x20   tx.send(*g);\n\
             }\n\
             fn bad_inline(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
             \x20   let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);\n\
             \x20   tx.send(*g);\n\
             }\n\
             fn good_unpoisoned(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
             \x20   let g = lock_unpoisoned(&m);\n\
             \x20   let v = *g;\n\
             \x20   drop(g);\n\
             \x20   tx.send(v);\n\
             }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_file(&file, &dir, &mut findings, Checks::default());
        let locks: Vec<_> = findings.iter().filter(|f| f.lint == "lock-across-send").collect();
        let lines: Vec<usize> = locks.iter().map(|f| f.line).collect();
        assert_eq!(lines, [3, 13, 17], "exactly the three bad fns must fire");
    }

    #[test]
    fn unwrap_lint_skips_test_modules() {
        let dir = std::env::temp_dir().join("xtask-lint-test2");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("case.rs");
        fs::write(
            &file,
            "fn prod() { x.unwrap(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() { y.unwrap(); }\n\
             }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_file(&file, &dir, &mut findings, Checks { unwrap: true, ..Checks::default() });
        let unwraps: Vec<_> = findings.iter().filter(|f| f.lint == "no-unwrap").collect();
        assert_eq!(unwraps.len(), 1);
        assert_eq!(unwraps[0].line, 1);
    }

    #[test]
    fn process_exit_lint_fires_outside_bin_only() {
        let dir = std::env::temp_dir().join("xtask-lint-test3");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("case.rs");
        fs::write(
            &file,
            "fn lib_code() { std::process::exit(2); }\n\
             fn noted() { let s = \"process::exit\"; } // string: no finding\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_file(&file, &dir, &mut findings, Checks { exit: true, ..Checks::default() });
        let exits: Vec<_> = findings.iter().filter(|f| f.lint == "no-process-exit").collect();
        assert_eq!(exits.len(), 1, "only the real call fires, not strings/comments");
        assert_eq!(exits[0].line, 1);

        // The same file scanned as a binary source is exempt.
        let mut bin_findings = Vec::new();
        lint_file(&file, &dir, &mut bin_findings, Checks::default());
        assert!(bin_findings.iter().all(|f| f.lint != "no-process-exit"));
    }

    #[test]
    fn raw_thread_lint_fires_only_when_enabled() {
        let dir = std::env::temp_dir().join("xtask-lint-test4");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("case.rs");
        fs::write(
            &file,
            "fn bad() { std::thread::spawn(|| {}); }\n\
             fn also_bad() { std::thread::scope(|s| {}); }\n\
             fn fine() { std::thread::Builder::new().spawn(|| {}); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() { std::thread::spawn(|| {}); }\n\
             }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_file(&file, &dir, &mut findings, Checks { threads: true, ..Checks::default() });
        let threads: Vec<_> = findings.iter().filter(|f| f.lint == "no-raw-thread").collect();
        assert_eq!(threads.len(), 2, "spawn + scope fire; Builder and tests do not");
        assert_eq!(threads[0].line, 1);
        assert_eq!(threads[1].line, 2);

        // The pool module is scanned with the lint disabled.
        let mut pool_findings = Vec::new();
        lint_file(&file, &dir, &mut pool_findings, Checks::default());
        assert!(pool_findings.iter().all(|f| f.lint != "no-raw-thread"));
    }

    #[test]
    fn atomic_ordering_lint_requires_justification() {
        let dir = std::env::temp_dir().join("xtask-lint-test5");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("case.rs");
        fs::write(
            &file,
            "fn same_line() { C.load(Ordering::Relaxed); } // ordering: telemetry\n\
             // ordering: monotonic counter, nothing published through it\n\
             fn line_above() { C.fetch_add(1, Ordering::Relaxed); }\n\
             fn bare() { C.store(0, Ordering::Relaxed); }\n\
             fn acquire_is_fine() { C.load(Ordering::Acquire); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() { C.load(Ordering::Relaxed); }\n\
             }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_file(&file, &dir, &mut findings, Checks { atomics: true, ..Checks::default() });
        let hits: Vec<_> = findings.iter().filter(|f| f.lint == "atomic-ordering").collect();
        assert_eq!(hits.len(), 1, "only the unjustified non-test Relaxed fires");
        assert_eq!(hits[0].line, 4);
    }

    #[test]
    fn condvar_predicate_lint_allows_wait_while() {
        let dir = std::env::temp_dir().join("xtask-lint-test6");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("case.rs");
        fs::write(
            &file,
            "fn bad(cv: &Condvar, g: Guard) { let _g = cv.wait(g); }\n\
             fn good(cv: &Condvar, g: Guard) { let _g = cv.wait_while(g, |q| q.is_empty()); }\n\
             fn timed(cv: &Condvar, g: Guard) { let _g = cv.wait_timeout(g, D); }\n\
             fn unrelated() { handle.join_wait(1); }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_file(&file, &dir, &mut findings, Checks { condvar: true, ..Checks::default() });
        let hits: Vec<_> = findings.iter().filter(|f| f.lint == "condvar-predicate").collect();
        assert_eq!(hits.len(), 1, "only the bare wait fires");
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn static_mut_lint_fires_even_in_tests() {
        let dir = std::env::temp_dir().join("xtask-lint-test7");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("case.rs");
        fs::write(
            &file,
            "static mut GLOBAL: u32 = 0;\n\
             \x20pub static mut ALSO: u32 = 0;\n\
             static FINE: AtomicU32 = AtomicU32::new(0);\n\
             // a static mut in a comment is fine\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   static mut IN_TEST: u32 = 0;\n\
             }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_file(&file, &dir, &mut findings, Checks { static_mut: true, ..Checks::default() });
        let hits: Vec<_> = findings.iter().filter(|f| f.lint == "no-static-mut").collect();
        assert_eq!(hits.len(), 3, "both declarations and the test one fire; comment does not");
        assert_eq!(hits[0].line, 1);
        assert_eq!(hits[1].line, 2);
        assert_eq!(hits[2].line, 7);
    }

    #[test]
    fn unsafe_allow_lint_flags_every_unsafe_code_allow() {
        let dir = std::env::temp_dir().join("xtask-lint-test8");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("case.rs");
        fs::write(
            &file,
            "#![allow(unsafe_code)]\n\
             fn fine() {}\n\
             // allow(unsafe_code) in a comment is fine\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   #[allow(unsafe_code)]\n\
             \x20   fn t() {}\n\
             }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_file(&file, &dir, &mut findings, Checks { unsafe_allow: true, ..Checks::default() });
        let hits: Vec<_> = findings.iter().filter(|f| f.lint == "unsafe-allow").collect();
        assert_eq!(hits.len(), 2, "file-level and test-module attributes fire; comment does not");
        assert_eq!(hits[0].line, 1);
        assert_eq!(hits[1].line, 6);
    }

    #[test]
    fn stale_allow_entries_are_detected() {
        // allow_match reports which entry matched; run_source_lints treats
        // unmatched entries as failures. Simulate the bookkeeping here.
        let allow = vec![
            ("no-unwrap".to_owned(), "crates/x/src/lib.rs".to_owned(), None),
            ("no-unwrap".to_owned(), "crates/gone/src/lib.rs".to_owned(), None),
        ];
        let finding = Finding {
            lint: "no-unwrap",
            path: PathBuf::from("crates/x/src/lib.rs"),
            line: 3,
            msg: String::new(),
        };
        let mut used = vec![false; allow.len()];
        if let Some(idx) = allow_match(&allow, &finding) {
            used[idx] = true;
        }
        assert_eq!(used, vec![true, false], "the entry for the vanished file must read stale");
    }

    #[test]
    fn allowlist_matching() {
        let allow = vec![
            ("no-unwrap".to_owned(), "crates/x/src/lib.rs".to_owned(), None),
            ("pub-docs".to_owned(), "crates/y/src/lib.rs".to_owned(), Some(7)),
        ];
        let f = |lint: &'static str, path: &str, line| Finding {
            lint,
            path: PathBuf::from(path),
            line,
            msg: String::new(),
        };
        assert!(allowed(&allow, &f("no-unwrap", "crates/x/src/lib.rs", 3)));
        assert!(allowed(&allow, &f("pub-docs", "crates/y/src/lib.rs", 7)));
        assert!(!allowed(&allow, &f("pub-docs", "crates/y/src/lib.rs", 8)));
        assert!(!allowed(&allow, &f("lock-across-send", "crates/x/src/lib.rs", 3)));
    }
}
