//! Smoke tests of the one experiment entry point, the `dvafs` binary of
//! `crates/bench`: for every registered scenario except `bench_sweep`,
//! `dvafs run <id> --fast --threads 2` must print stdout byte-identical to
//! the in-process scenario rendering (`dvafs::scenario::render`) at
//! `--threads 1`. One subprocess run per scenario pins both:
//!
//! * the binary really delegates to the registry (same bytes), and
//! * output is thread-count invariant (subprocess at `--threads 2` vs
//!   in-process at `--threads 1`) — the end-to-end enforcement of the
//!   parallel executor's determinism guarantee.
//!
//! `bench_sweep` records wall times, so its stable lines are pinned
//! instead. Each run goes through `cargo run --release`: the gate-level
//! simulators are orders of magnitude slower unoptimized, and the tier-1
//! pipeline (`cargo build --release && cargo test -q`) leaves a warm
//! release cache. Output is captured and only shown on failure.

use dvafs::nn::SearchStrategy;
use dvafs::scenario::{self, Format, ScenarioCtx};
use std::path::Path;
use std::process::{Command, Output};

/// Runs the `dvafs` binary with `args`, returning its captured output.
fn dvafs(args: &[&str]) -> Output {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    Command::new(cargo)
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
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")))
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
    if id == "bench_sweep" {
        // No `--threads`: the parallel column must default to the *host*
        // parallelism, not a count this test happens to pick. One timed
        // repeat: timings make a byte diff pointless, and the scenario
        // itself asserts serial == parallel == scalar == naive == rescan
        // for every registered experiment. Pin the stable parts of the
        // presentation instead.
        let stdout = run_dvafs(&["run", id, "--fast", "--repeats", "1"]);
        assert!(stdout.starts_with("=== DVAFS reproduction | BENCH sweep"));
        for s in scenario::registry() {
            if s.id() != id {
                assert!(
                    stdout.contains(&format!(
                        "measured {}: serial and parallel runs bit-identical",
                        s.id()
                    )),
                    "bench_sweep stdout missing {}",
                    s.id()
                );
            }
        }
        return;
    }
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
    bench_sweep
);

#[test]
fn fig6_stdout_unchanged_by_search_strategy() {
    // The incremental precision search is the default; it must never move
    // a byte of presentation text. In-process: both strategies render
    // identically for the fig6-family scenarios...
    for id in ["fig6", "fig6_vgg"] {
        let s = scenario::find(id).expect("registered");
        let ctx = ScenarioCtx::new().with_threads(1).with_fast(true);
        let incremental = s.run(&ctx.clone().with_search(SearchStrategy::Incremental));
        let rescan = s.run(&ctx.with_search(SearchStrategy::Rescan));
        assert_eq!(
            scenario::render(s.label(), s.title(), &incremental, Format::Text),
            scenario::render(s.label(), s.title(), &rescan, Format::Text),
            "{id}: search strategy moved the rendered text"
        );
    }
    // ...and the binary pinned to the rescan oracle prints stdout
    // byte-identical to the in-process rendering under the default (at a
    // different thread count, like every smoke run).
    let stdout = run_dvafs(&[
        "run",
        "fig6",
        "--fast",
        "--threads",
        "2",
        "--search",
        "rescan",
    ]);
    assert_eq!(
        stdout,
        rendering("fig6"),
        "dvafs run fig6 --search rescan changed stdout"
    );
}

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
        (vec!["run", "fig6", "--kernel", "gemm"], "naive|packed"),
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
