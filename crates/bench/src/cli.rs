//! The `dvafs` command-line front-end over the scenario registry.
//!
//! ```text
//! dvafs list
//! dvafs run <id>... [--all] [--format text|json|csv] [--out DIR]
//!                   [--threads N] [--fast]
//! dvafs serve [options]
//! ```
//!
//! `list` prints every registered scenario (id, artefact, title, and what
//! `--fast` shrinks). `run` executes scenarios in registry order and
//! either prints each rendering to stdout or, with `--out DIR`, writes
//! one `<id>.<ext>` file per scenario. A JSON file written this way is
//! byte-comparable to the golden fixtures under `tests/golden/`.
//!
//! `run` **warns on stderr about flags it does not recognize**; `serve`
//! rejects them. Both print the usage for `--help`, and hard-error when a
//! flag is missing its value or the value does not parse.

use dvafs::scenario::{self, Format, Scenario, ScenarioCtx};
use dvafs::serve::ServeOpts;
use dvafs::Executor;
use std::path::Path;

/// A parsed `dvafs run` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOpts {
    /// Scenario ids to run, in registry order (resolved from `--all` or
    /// the explicit id list).
    pub ids: Vec<String>,
    /// Output format (`--format`, default text).
    pub format: Format,
    /// Output directory (`--out DIR`); `None` prints to stdout.
    pub out: Option<String>,
    /// Worker count (`--threads`, default environment/host).
    pub threads: usize,
    /// Reduced problem sizes (`--fast`).
    pub fast: bool,
}

/// A parsed top-level CLI command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `dvafs list`.
    List,
    /// `dvafs run ...`.
    Run(RunOpts),
    /// `dvafs serve ...`.
    Serve {
        /// The session options ([`ServeOpts::default`] for every flag
        /// not given).
        opts: ServeOpts,
        /// TCP listen address (`--listen ADDR`); `None` serves stdio.
        listen: Option<String>,
    },
}

const USAGE: &str = "usage: dvafs <command>\n\n\
commands:\n  \
  list                       list registered scenarios\n  \
  run <id>... [options]      run scenarios (or `run --all`)\n  \
  serve [options]            newline-delimited JSON request/reply service\n\n\
run options:\n  \
  --all                      run every registered scenario\n  \
  --format text|json|csv     output format (default text)\n  \
  --out DIR                  write one file per scenario instead of stdout\n  \
  --threads N                worker count (default: DVAFS_THREADS or host)\n  \
  --fast                     reduced problem sizes (see `dvafs list`)\n\n\
serve options:\n  \
  --listen ADDR              serve TCP on ADDR (e.g. 127.0.0.1:7017) instead of stdio\n  \
  --threads N                workers running requests (default: DVAFS_THREADS or host)\n  \
  --queue N                  in-flight request bound / backpressure window (default 32)\n  \
  --deadline-ms N            per-request wall deadline for run/predict; overruns are\n                             discarded and answered with an error reply (default: off)\n  \
  --max-requests N           close the session cleanly after N requests (default: off)\n  \
  --idle-timeout-ms N        TCP read timeout per connection, 0 disables (default 30000)\n  \
  --fault-plan SPEC          testing only: deterministic fault injection, e.g.\n                             panic@3,delay@5:40,oversize@7\n\n\
any --flag VALUE may also be written --flag=VALUE (required when the\n\
value itself begins with \"--\")";

/// Fetches a flag's value: the inline `--flag=VALUE` part when present,
/// otherwise the next argument. A next argument beginning with `--` is
/// *not* consumed — it is almost always a forgotten value, and the
/// `--flag=VALUE` spelling exists precisely for the rare legitimate case
/// (`--out=./--odd-dir`), so the error says so instead of misreporting.
fn take_value(
    args: &[String],
    i: &mut usize,
    inline: Option<&str>,
    flag: &str,
) -> Result<String, String> {
    if let Some(v) = inline {
        if v.is_empty() {
            return Err(format!("{flag} requires a value ({flag}= is empty)"));
        }
        return Ok(v.to_string());
    }
    *i += 1;
    match args.get(*i) {
        Some(v) if !v.starts_with("--") => Ok(v.clone()),
        _ => Err(format!(
            "{flag} requires a value (write {flag}=VALUE for values beginning with \"--\")"
        )),
    }
}

/// Fetches a flag's value ([`take_value`]) and parses it as a positive
/// integer.
fn take_positive<T>(
    args: &[String],
    i: &mut usize,
    inline: Option<&str>,
    flag: &str,
) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + Default,
{
    let v = take_value(args, i, inline, flag)?;
    v.parse::<T>()
        .ok()
        .filter(|n| *n > T::default())
        .ok_or_else(|| format!("{flag} requires a positive integer, got {v:?}"))
}

/// Splits `--flag=VALUE` into the flag and its inline value; anything
/// else (including positionals containing `=`) passes through unchanged.
fn split_flag(arg: &str) -> (&str, Option<&str>) {
    match arg.split_once('=') {
        Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
        _ => (arg, None),
    }
}

/// Parses the arguments after the program name. Returns the command plus
/// any warnings about flags `run` does not know (the caller decides where
/// to surface them).
///
/// # Errors
///
/// Returns the usage for `--help`, and a user-facing message for an
/// unknown command, an unknown scenario id, a flag `serve` does not know,
/// a missing flag value, a value that does not parse, or an unknown
/// `--format`.
pub fn parse(args: &[String]) -> Result<(Command, Vec<String>), String> {
    match args.first().map(String::as_str) {
        None | Some("--help" | "help") => Err(USAGE.to_string()),
        Some("list") => Ok((Command::List, Vec::new())),
        Some("run") => {
            let mut opts = RunOpts {
                ids: Vec::new(),
                format: Format::Text,
                out: None,
                threads: Executor::from_env().threads(),
                fast: false,
            };
            let mut all = false;
            let mut warnings = Vec::new();
            let mut i = 1;
            while i < args.len() {
                let (flag, inline) = split_flag(args[i].as_str());
                if inline.is_some() && matches!(flag, "--all" | "--fast") {
                    warnings.push(format!(
                        "warning: {flag} takes no value; ignoring {:?}",
                        inline.unwrap_or_default()
                    ));
                }
                match flag {
                    "--all" => all = true,
                    "--fast" => opts.fast = true,
                    "--format" => {
                        opts.format =
                            Format::parse(&take_value(args, &mut i, inline, "--format")?)?;
                    }
                    "--out" => opts.out = Some(take_value(args, &mut i, inline, "--out")?),
                    "--threads" => opts.threads = take_positive(args, &mut i, inline, flag)?,
                    "--help" => return Err(USAGE.to_string()),
                    flag if flag.starts_with("--") => {
                        warnings.push(format!("warning: ignoring unrecognized flag {flag}"));
                    }
                    id => {
                        scenario::find(id).ok_or_else(|| {
                            let known: Vec<&str> =
                                scenario::registry().iter().map(|s| s.id()).collect();
                            format!(
                                "unknown scenario {id:?} — available: {} (see `dvafs list`)",
                                known.join(", ")
                            )
                        })?;
                        // A repeated id runs once: rendering the same
                        // scenario twice in one invocation is never what
                        // the caller wanted (and doubles minutes of
                        // gate-level simulation), so dedupe and warn.
                        if opts.ids.iter().any(|queued| queued == id) {
                            warnings.push(format!(
                                "warning: scenario {id:?} given more than once; running it once"
                            ));
                        } else {
                            opts.ids.push(id.to_string());
                        }
                    }
                }
                i += 1;
            }
            if all {
                opts.ids = scenario::registry()
                    .iter()
                    .map(|s| s.id().to_string())
                    .collect();
            }
            if opts.ids.is_empty() {
                return Err("run: no scenarios given (pass ids or --all)".to_string());
            }
            Ok((Command::Run(opts), warnings))
        }
        Some("serve") => {
            let (mut opts, mut listen) = (ServeOpts::default(), None);
            let mut i = 1;
            while i < args.len() {
                let (flag, inline) = split_flag(args[i].as_str());
                match flag {
                    "--listen" => listen = Some(take_value(args, &mut i, inline, flag)?),
                    "--threads" => opts.threads = take_positive(args, &mut i, inline, flag)?,
                    "--queue" => opts.queue = take_positive(args, &mut i, inline, flag)?,
                    "--deadline-ms" => {
                        opts.deadline_ms = Some(take_positive(args, &mut i, inline, flag)?);
                    }
                    "--max-requests" => {
                        opts.max_requests = Some(take_positive(args, &mut i, inline, flag)?);
                    }
                    "--idle-timeout-ms" => {
                        // 0 is meaningful here: it disables the timeout.
                        let v = take_value(args, &mut i, inline, flag)?;
                        let ms = v.parse::<u64>().map_err(|_| {
                            format!(
                                "--idle-timeout-ms requires a non-negative integer \
                                 (0 disables), got {v:?}"
                            )
                        })?;
                        opts.idle_timeout_ms = (ms > 0).then_some(ms);
                    }
                    "--fault-plan" => {
                        let v = take_value(args, &mut i, inline, flag)?;
                        opts.fault_plan = Some(dvafs::faultplan::FaultPlan::parse(&v)?);
                    }
                    "--help" => return Err(USAGE.to_string()),
                    flag if flag.starts_with("--") => {
                        return Err(format!(
                            "serve: unrecognized flag {flag} (see `dvafs --help`)"
                        ));
                    }
                    other => {
                        return Err(format!(
                            "serve takes no positional arguments, got {other:?} \
                             (requests arrive on stdin or --listen)"
                        ));
                    }
                }
                i += 1;
            }
            Ok((Command::Serve { opts, listen }, Vec::new()))
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

/// Renders the `dvafs list` output.
#[must_use]
pub fn list_text() -> String {
    let mut t = dvafs::report::TextTable::new(vec!["id", "artefact", "title", "--fast"]);
    for s in scenario::registry() {
        t.row(vec![
            s.id().to_string(),
            s.label().to_string(),
            s.title().to_string(),
            s.fast_note().to_string(),
        ]);
    }
    format!(
        "registered scenarios (run with `dvafs run <id>`, machine-readable \
         via `--format json|csv`):\n\n{t}"
    )
}

/// Runs one scenario and returns what should go to stdout for it.
///
/// # Errors
///
/// Returns a message when an output file cannot be written.
fn run_one(s: &'static dyn Scenario, opts: &RunOpts) -> Result<String, String> {
    let ctx = ScenarioCtx::new()
        .with_threads(opts.threads)
        .with_fast(opts.fast);
    let result = s.run(&ctx);
    let rendered = scenario::render(s.label(), s.title(), &result, opts.format);
    let mut stdout = String::new();
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let path = Path::new(dir).join(format!("{}.{}", s.id(), opts.format.extension()));
        std::fs::write(&path, &rendered)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        stdout.push_str(&format!("wrote {}\n", path.display()));
    } else {
        stdout.push_str(&rendered);
        if !rendered.ends_with('\n') {
            stdout.push('\n');
        }
    }
    Ok(stdout)
}

/// Runs the `serve` command until EOF, a `shutdown` request, or a fatal
/// socket error, on TCP at `listen` or else over stdio. Replies stream
/// directly to stdout (stdio mode) or the client socket (TCP mode), so the
/// returned stdout text is empty.
fn run_serve(opts: &ServeOpts, listen: Option<&str>) -> Result<String, String> {
    // The test-only injection hook (`--fault-plan`, parsed with the other
    // flags, so a plan that fails to parse is already a hard error).
    if let Some(plan) = &opts.fault_plan {
        eprintln!("dvafs: serve: FAULT INJECTION ACTIVE ({plan}) — testing only");
    }
    match listen {
        None => {
            let state = dvafs::serve::ServeState::new();
            let reader = std::io::BufReader::new(std::io::stdin());
            let mut writer = std::io::stdout();
            let outcome = dvafs::serve::serve_session(reader, &mut writer, opts, &state)
                .map_err(|e| format!("serve: {e}"))?;
            eprintln!("dvafs: serve: answered {} request(s)", outcome.served);
            Ok(String::new())
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("serve: cannot bind {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| format!("serve: {e}"))?;
            // The bound address goes to stderr (stdout belongs to replies
            // in stdio mode; keeping stderr for logs in both modes lets
            // scripts bind port 0 and scrape the ephemeral port).
            eprintln!("dvafs: serving on {local}");
            dvafs::serve::serve_tcp(&listener, opts).map_err(|e| format!("serve: {e}"))?;
            Ok(String::new())
        }
    }
}

/// Executes a parsed command, returning the full stdout text.
///
/// # Errors
///
/// Returns a user-facing message when a scenario fails to write output
/// or the serve socket/stdio fails.
pub fn execute(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::List => Ok(list_text()),
        Command::Run(opts) => {
            let mut stdout = String::new();
            for id in &opts.ids {
                let s = scenario::find(id).expect("ids validated during parsing");
                stdout.push_str(&run_one(s, opts)?);
            }
            Ok(stdout)
        }
        Command::Serve { opts, listen } => run_serve(opts, listen.as_deref()),
    }
}

/// The whole CLI: parse, surface warnings on stderr, execute, print.
/// Returns the process exit code.
#[must_use]
pub fn main_with_args(args: &[String]) -> i32 {
    match parse(args) {
        Ok((cmd, warnings)) => {
            for w in &warnings {
                eprintln!("dvafs: {w}");
            }
            match execute(&cmd) {
                Ok(stdout) => {
                    print!("{stdout}");
                    0
                }
                Err(e) => {
                    eprintln!("dvafs: {e}");
                    1
                }
            }
        }
        Err(usage) => {
            eprintln!("{usage}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parse_list_and_help() {
        assert_eq!(parse(&argv(&["list"])).unwrap().0, Command::List);
        assert!(parse(&argv(&[])).is_err());
        for args in [
            &["--help"][..],
            &["help"],
            &["run", "fig2", "--help"],
            &["run", "--help"],
            &["serve", "--help"],
            &["serve", "--threads", "2", "--help=x"],
        ] {
            assert_eq!(parse(&argv(args)), Err(USAGE.to_string()), "{args:?}");
        }
        assert!(parse(&argv(&["bogus"]))
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn parse_run_flags() {
        let (cmd, warnings) = parse(&argv(&[
            "run",
            "fig2",
            "table3",
            "--format",
            "csv",
            "--threads",
            "2",
            "--fast",
        ]))
        .unwrap();
        assert!(warnings.is_empty());
        let Command::Run(opts) = cmd else {
            panic!("expected run")
        };
        assert_eq!(opts.ids, ["fig2", "table3"]);
        assert_eq!(opts.format, Format::Csv);
        assert_eq!(opts.threads, 2);
        assert!(opts.fast && opts.out.is_none());
    }

    #[test]
    fn parse_run_all_resolves_registry_order() {
        let (Command::Run(opts), _) = parse(&argv(&["run", "--all"])).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(opts.ids.len(), 12);
        assert_eq!(opts.ids[0], "fig2");
        assert!(opts.ids.contains(&"cnn_layerwise".to_string()));
        assert_eq!(opts.ids.last().unwrap(), "ablations");
    }

    #[test]
    fn unknown_flags_warn_but_do_not_fail() {
        let (_, warnings) = parse(&argv(&["run", "fig2", "--bogus"])).unwrap();
        assert_eq!(warnings, ["warning: ignoring unrecognized flag --bogus"]);
    }

    #[test]
    fn repeated_ids_run_once_and_warn() {
        // `dvafs run fig2 fig2` must run fig2 once, not render it twice.
        let (cmd, warnings) = parse(&argv(&["run", "fig2", "fig2", "table3", "fig2"])).unwrap();
        let Command::Run(opts) = cmd else {
            panic!("expected run")
        };
        assert_eq!(opts.ids, ["fig2", "table3"]);
        assert_eq!(
            warnings,
            [
                "warning: scenario \"fig2\" given more than once; running it once",
                "warning: scenario \"fig2\" given more than once; running it once",
            ]
        );
        // A repeated unknown id still hard-errors before deduplication.
        assert!(parse(&argv(&["run", "fig2", "fig2", "fig99"]))
            .unwrap_err()
            .contains("unknown scenario"));
    }

    #[test]
    fn missing_values_and_bad_ids_hard_error() {
        assert!(parse(&argv(&["run", "fig2", "--out"]))
            .unwrap_err()
            .contains("--out requires a value"));
        assert!(parse(&argv(&["run", "fig2", "--out", "--fast"]))
            .unwrap_err()
            .contains("--out requires a value"));
        assert!(parse(&argv(&["run", "--threads", "zero"]))
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&argv(&["run", "fig99"]))
            .unwrap_err()
            .contains("unknown scenario"));
        assert!(parse(&argv(&["run", "fig2", "--format", "yaml"]))
            .unwrap_err()
            .contains("unknown format"));
        assert!(parse(&argv(&["run"])).unwrap_err().contains("no scenarios"));
    }

    #[test]
    fn inline_flag_values_parse_and_escape_double_dash() {
        // The bugfix case: a legitimate value beginning with `--` used to
        // be misreported as "requires a value"; `--flag=VALUE` carries it.
        let (Command::Run(opts), warnings) = parse(&argv(&[
            "run",
            "fig2",
            "--out=./--odd-dir",
            "--format=json",
            "--threads=2",
        ]))
        .unwrap() else {
            panic!("expected run")
        };
        assert!(warnings.is_empty());
        assert_eq!(opts.out.as_deref(), Some("./--odd-dir"));
        assert_eq!(opts.format, Format::Json);
        assert_eq!(opts.threads, 2);
        // The space-separated spelling still refuses `--`-leading values,
        // but the error now names the escape hatch.
        let err = parse(&argv(&["run", "fig2", "--out", "--odd-dir"])).unwrap_err();
        assert!(err.contains("--out requires a value"), "{err}");
        assert!(err.contains("--out=VALUE"), "{err}");
        // Empty inline values are still missing values.
        assert!(parse(&argv(&["run", "fig2", "--out="]))
            .unwrap_err()
            .contains("--out requires a value"));
        // A positional containing `=` is not treated as a flag.
        assert!(parse(&argv(&["run", "fig2=3"]))
            .unwrap_err()
            .contains("unknown scenario"));
    }

    #[test]
    fn inline_values_on_boolean_and_unknown_flags_warn() {
        let (Command::Run(opts), warnings) =
            parse(&argv(&["run", "fig2", "--fast=1", "--bogus=x"])).unwrap()
        else {
            panic!("expected run")
        };
        assert!(opts.fast);
        assert_eq!(
            warnings,
            [
                "warning: --fast takes no value; ignoring \"1\"",
                "warning: ignoring unrecognized flag --bogus",
            ]
        );
    }

    #[test]
    fn parse_serve_flags_and_defaults() {
        let (cmd, warnings) = parse(&argv(&["serve"])).unwrap();
        let Command::Serve { opts, listen } = cmd else {
            panic!("expected serve")
        };
        assert!(warnings.is_empty());
        assert!(listen.is_none());
        assert_eq!(opts, ServeOpts::default());
        assert!(opts.threads >= 1);
        assert_eq!(opts.queue, dvafs::serve::DEFAULT_QUEUE);
        assert_eq!(opts.deadline_ms, None);
        assert_eq!(opts.max_requests, None);
        assert_eq!(
            opts.idle_timeout_ms,
            Some(dvafs::serve::DEFAULT_IDLE_TIMEOUT_MS)
        );
        assert!(opts.fault_plan.is_none());

        let (cmd, _) = parse(&argv(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--threads=3",
            "--queue",
            "8",
            "--deadline-ms",
            "250",
            "--max-requests=100",
            "--idle-timeout-ms",
            "5000",
            "--fault-plan",
            "panic@2,delay@4:10",
        ]))
        .unwrap();
        let Command::Serve { opts, listen } = cmd else {
            panic!("expected serve")
        };
        assert_eq!(listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.queue, 8);
        assert_eq!(opts.deadline_ms, Some(250));
        assert_eq!(opts.max_requests, Some(100));
        assert_eq!(opts.idle_timeout_ms, Some(5000));
        let plan = opts.fault_plan.expect("fault plan parsed");
        assert_eq!(plan.to_string(), "panic@2,delay@4:10");

        // 0 disables the idle timeout (it is the one zero-meaningful knob).
        let (Command::Serve { opts, .. }, _) =
            parse(&argv(&["serve", "--idle-timeout-ms", "0"])).unwrap()
        else {
            panic!("expected serve")
        };
        assert_eq!(opts.idle_timeout_ms, None);
    }

    #[test]
    fn serve_rejects_bad_invocations() {
        assert!(parse(&argv(&["serve", "--listen"]))
            .unwrap_err()
            .contains("--listen requires a value"));
        assert!(parse(&argv(&["serve", "--threads", "0"]))
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&argv(&["serve", "--queue", "none"]))
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&argv(&["serve", "--deadline-ms", "0"]))
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&argv(&["serve", "--max-requests", "0"]))
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&argv(&["serve", "--idle-timeout-ms", "soon"]))
            .unwrap_err()
            .contains("non-negative integer"));
        assert!(parse(&argv(&["serve", "--fault-plan", "explode@1"]))
            .unwrap_err()
            .contains("unknown kind"));
        assert!(parse(&argv(&["serve", "fig2"]))
            .unwrap_err()
            .contains("no positional arguments"));
        // Unknown flags are errors that name the flag, a misspelled
        // limit and a misspelled flag before its value included.
        for (args, flag) in [
            (&["serve", "--bogus"][..], "--bogus"),
            (&["serve", "--deadline_ms", "250"], "--deadline_ms"),
            (&["serve", "--listne", "127.0.0.1:0"], "--listne"),
            (&["serve", "--bogus=1"], "--bogus"),
        ] {
            let err = parse(&argv(args)).unwrap_err();
            assert!(err.contains(&format!("unrecognized flag {flag}")), "{err}");
        }
    }

    #[test]
    fn unknown_scenario_error_lists_available_ids() {
        // Satellite fix: the error names every registered id, not just the
        // bad one — `fig99` typos become self-correcting.
        let err = parse(&argv(&["run", "fig99"])).unwrap_err();
        assert!(err.contains("unknown scenario \"fig99\""), "{err}");
        for s in scenario::registry() {
            assert!(err.contains(s.id()), "error omits {}: {err}", s.id());
        }
    }

    #[test]
    fn list_covers_every_scenario_id() {
        let text = list_text();
        for s in scenario::registry() {
            assert!(text.contains(s.id()), "list missing {}", s.id());
        }
    }
}
