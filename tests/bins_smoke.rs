//! Smoke tests of the one experiment entry point, the `dvafs` binary of
//! `crates/bench`: for every registered scenario,
//! `dvafs run <id> --fast --threads 2` must print stdout byte-identical to
//! the in-process scenario rendering (`dvafs::scenario::render`) at
//! `--threads 1`. One subprocess run per scenario pins both:
//!
//! * the binary really delegates to the registry (same bytes), and
//! * output is thread-count invariant (subprocess at `--threads 2` vs
//!   in-process at `--threads 1`) — the end-to-end enforcement of the
//!   parallel executor's determinism guarantee.
//!
//! Each run goes through `cargo run --release`: the gate-level
//! simulators are orders of magnitude slower unoptimized, and the tier-1
//! pipeline (`cargo build --release && cargo test -q`) leaves a warm
//! release cache. Output is captured and only shown on failure.

use dvafs::scenario::{self, Format, ScenarioCtx};
use std::io::Write;
use std::path::Path;
use std::process::{Command, Output, Stdio};

/// The `cargo run` command that runs the `dvafs` binary with `args`.
fn dvafs_command(args: &[&str]) -> Command {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut command = Command::new(cargo);
    command
        .args([
            "run",
            "--quiet",
            "--release",
            "-p",
            "dvafs-bench",
            "--bin",
            "dvafs",
            "--",
        ])
        .args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")));
    command
}

/// Runs the `dvafs` binary with `args`, returning its captured output.
fn dvafs(args: &[&str]) -> Output {
    dvafs_command(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn dvafs {args:?}: {e}"))
}

/// Runs the `dvafs` binary and returns its stdout, asserting a clean exit
/// with output.
fn run_dvafs(args: &[&str]) -> String {
    let output = dvafs(args);
    assert!(
        output.status.success(),
        "dvafs {args:?} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(
        !output.stdout.is_empty(),
        "dvafs {args:?} exited 0 but printed nothing"
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// The in-process text rendering of scenario `id` at `--fast --threads 1`.
fn rendering(id: &str) -> String {
    let s = scenario::find(id).expect("registered");
    let result = s.run(&ScenarioCtx::new().with_threads(1).with_fast(true));
    scenario::render(s.label(), s.title(), &result, Format::Text)
}

/// The smoke check for one scenario.
fn smoke_scenario(id: &str) {
    let stdout = run_dvafs(&["run", id, "--fast", "--threads", "2"]);
    assert_eq!(
        stdout,
        rendering(id),
        "dvafs run {id}: stdout differs from the in-process scenario \
         rendering (CLI drift, or thread-count dependent output)"
    );
}

macro_rules! smoke {
    ($($name:ident),* $(,)?) => {
        /// Every scenario with a smoke test below.
        const SMOKED: &[&str] = &[$(stringify!($name)),*];
        $(
            #[test]
            fn $name() {
                smoke_scenario(stringify!($name));
            }
        )*
    };
}

smoke!(
    fig2,
    fig3a,
    fig3b,
    fig4,
    fig6,
    fig6_vgg,
    cnn_layerwise,
    fig8,
    table1,
    table2,
    table3,
    ablations,
);

#[test]
fn dvafs_cli_lists_every_scenario() {
    let stdout = run_dvafs(&["list"]);
    for s in scenario::registry() {
        assert!(stdout.contains(s.id()), "dvafs list missing {}", s.id());
        assert!(
            stdout.contains(s.fast_note()),
            "dvafs list missing --fast note for {}",
            s.id()
        );
    }
}

#[test]
fn dvafs_cli_rejects_bad_invocations() {
    for (args, needle) in [
        (vec!["run"], "no scenarios"),
        (vec!["run", "fig99"], "unknown scenario"),
        (vec!["run", "fig2", "--out"], "--out requires a value"),
        (vec!["run", "fig2", "--format", "yaml"], "unknown format"),
        (
            vec!["serve", "--listne", "127.0.0.1:0"],
            "unrecognized flag --listne",
        ),
    ] {
        let output = dvafs(&args);
        assert!(
            !output.status.success(),
            "dvafs {args:?} should exit nonzero"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(needle),
            "dvafs {args:?}: stderr {stderr:?} missing {needle:?}"
        );
    }
}

/// `dvafs serve --help` prints the usage and exits 2, as `dvafs --help`
/// does, without starting a session: nothing is read from stdin, nothing
/// is written to stdout, and no request count is reported.
#[test]
fn serve_help_prints_the_usage_and_serves_nothing() {
    let output = dvafs_command(&["serve", "--help"])
        .stdin(Stdio::null())
        .output()
        .expect("spawn dvafs serve --help");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("usage: dvafs <command>"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("request(s)"), "stderr: {stderr}");
    assert!(output.stdout.is_empty());
}

/// An invalid `DVAFS_THREADS` is reported once per process: a serve
/// session whose `run` requests each build executors from the
/// environment prints exactly one warning line on stderr, and still
/// answers every request.
#[test]
fn invalid_threads_env_warns_once_per_serve_session() {
    let requests = [
        r#"{"op":"run","scenario":"fig2","format":"json","fast":true,"threads":1}"#,
        r#"{"op":"run","scenario":"table3","format":"json","fast":true,"threads":1}"#,
        r#"{"op":"run","scenario":"fig2","format":"json","fast":true,"threads":1}"#,
    ];
    let mut child = dvafs_command(&["serve", "--threads", "2"])
        .env("DVAFS_THREADS", "abc")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dvafs serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(format!("{}\n", requests.join("\n")).as_bytes())
        .expect("write requests");
    let output = child.wait_with_output().expect("dvafs serve exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "dvafs serve failed: {stderr}");
    let replies = String::from_utf8_lossy(&output.stdout);
    assert_eq!(replies.lines().count(), requests.len(), "{replies}");
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("DVAFS_THREADS"))
        .collect();
    assert_eq!(
        warnings,
        ["dvafs-executor: ignoring invalid DVAFS_THREADS=\"abc\" (want a positive integer); using host parallelism"],
        "stderr: {stderr}"
    );
}

#[test]
fn smoke_list_matches_bench_bin_dir() {
    // Guard the guard: `dvafs` is the one binary under crates/bench/src/bin,
    // and every registered scenario has a smoke test above.
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src/bin");
    let on_disk: Vec<String> = std::fs::read_dir(bin_dir)
        .expect("crates/bench/src/bin exists")
        .map(|e| {
            e.expect("readable dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert_eq!(
        on_disk,
        ["dvafs.rs"],
        "crates/bench/src/bin holds only the dvafs CLI"
    );
    let mut registered: Vec<&str> = scenario::registry().iter().map(|s| s.id()).collect();
    let mut smoked = SMOKED.to_vec();
    registered.sort_unstable();
    smoked.sort_unstable();
    assert_eq!(
        smoked, registered,
        "smoke list out of sync with the registry"
    );
}
