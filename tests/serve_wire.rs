//! Wire-level tests for `dvafs serve` (ROADMAP item 3): a golden
//! request/reply transcript, a served-vs-in-process equivalence sweep
//! over the whole scenario registry, a proptest that serving is just
//! another execution strategy (any thread count, any queue depth — same
//! bytes), and a TCP round trip.
//!
//! The transcript fixture pins the exact reply bytes — envelope shapes,
//! error messages, escaped scenario renderings — the way
//! `tests/golden/*.json` pin figure data. After an *intentional*
//! protocol or model change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test serve_wire
//! git diff tests/golden/serve_transcript.jsonl   # review, then commit
//! ```

use dvafs::report::json;
use dvafs::scenario::{self, Format, ScenarioCtx};
use dvafs::serve::{serve_session, ServeOpts, ServeState, SessionOutcome};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::path::PathBuf;

/// Serves `input` from an in-memory session and returns the reply bytes.
fn serve_lines(input: &str, threads: usize, queue: usize) -> (String, SessionOutcome) {
    let state = ServeState::new();
    let mut out = Vec::new();
    let outcome = serve_session(
        Cursor::new(input.to_string()),
        &mut out,
        &ServeOpts {
            threads,
            queue,
            ..ServeOpts::default()
        },
        &state,
    )
    .expect("in-memory serve cannot fail on io");
    (String::from_utf8(out).expect("replies are utf-8"), outcome)
}

/// The transcript exercises every op, every defaulting rule, and every
/// error path whose message is part of the protocol: explicit ids,
/// model-cache reuse (two identical predicts must produce identical
/// replies modulo id), scenario rendering in two formats, malformed
/// JSON, unknown ops/scenarios (a retired scenario id among them: it gets
/// the generic unknown-scenario reply), invalid model geometry, and the
/// post-`shutdown` fuse (the trailing ping must never be answered).
const TRANSCRIPT_REQUESTS: &str = concat!(
    "{\"op\":\"ping\"}\n",
    "{\"id\":42,\"op\":\"list\"}\n",
    "{\"op\":\"predict\",\"model\":\"lenet5\",\"samples\":4,\"wbits\":6,\"abits\":8}\n",
    "{\"op\":\"predict\",\"model\":\"lenet5\",\"samples\":4,\"wbits\":6,\"abits\":8}\n",
    "\n",
    "{\"op\":\"run\",\"scenario\":\"table1\",\"format\":\"csv\",\"fast\":true}\n",
    "{\"op\":\"run\",\"scenario\":\"fig2\",\"format\":\"json\",\"fast\":true,\"threads\":2}\n",
    "this is not json\n",
    "{\"op\":\"warp\"}\n",
    "{\"op\":\"run\",\"scenario\":\"nope\"}\n",
    "{\"op\":\"run\",\"scenario\":\"bench_sweep\"}\n",
    "{\"id\":7,\"op\":\"predict\",\"model\":\"lenet5\",\"input\":99}\n",
    "{\"op\":\"shutdown\"}\n",
    "{\"op\":\"ping\"}\n",
);

fn transcript_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_transcript.jsonl")
}

#[test]
fn transcript_matches_golden() {
    let (actual, outcome) = serve_lines(TRANSCRIPT_REQUESTS, 2, 4);
    // 12 answered requests: the blank line is a keep-alive and the
    // post-shutdown ping is behind the fuse.
    assert_eq!(outcome.served, 12);
    assert!(outcome.shutdown);

    let path = transcript_path();
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, &actual).expect("write transcript fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden transcript {}: {e}\n\
             regenerate with: UPDATE_GOLDEN=1 cargo test --test serve_wire",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "serve replies drifted from tests/golden/serve_transcript.jsonl — \
         if the protocol change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test serve_wire and commit the diff"
    );
}

/// The acceptance criterion, literally: for every registered scenario a
/// served `run` reply carries byte-for-byte the rendering `dvafs run`
/// produces in-process.
#[test]
fn served_run_output_matches_in_process_rendering_for_every_scenario() {
    let mut requests = String::new();
    for s in scenario::registry() {
        requests.push_str(&format!(
            "{{\"op\":\"run\",\"scenario\":\"{}\",\"format\":\"json\",\
             \"fast\":true,\"threads\":2}}\n",
            s.id()
        ));
    }
    let (out, outcome) = serve_lines(&requests, 3, 4);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(outcome.served, scenario::registry().len());
    assert_eq!(lines.len(), scenario::registry().len());

    for (line, s) in lines.iter().zip(scenario::registry()) {
        let reply = json::parse(line).expect("reply is valid JSON");
        let served = reply
            .get("output")
            .and_then(json::JsonValue::as_str)
            .unwrap_or_else(|| panic!("{}: reply carries no output: {line}", s.id()));
        let ctx = ScenarioCtx::new().with_threads(2).with_fast(true);
        let expected = scenario::render(s.label(), s.title(), &s.run(&ctx), Format::Json);
        assert_eq!(served, expected, "{} served bytes drifted", s.id());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Serving is an execution choice: whatever the worker count and
    /// queue depth, a session's reply stream is byte-identical to the
    /// serial baseline, and a `run` reply's output is byte-identical to
    /// the in-process rendering (the same bytes `dvafs run` writes). The
    /// 17- and 40-sample predicts are two and three shared chunks of 16
    /// with ragged tails, so idle workers run some of their chunks.
    #[test]
    fn served_replies_are_invariant_in_threads_and_queue(
        scenario_idx in 0usize..4,
        threads in 1usize..=4,
        queue in 1usize..=8,
        format_idx in 0usize..3,
    ) {
        let id = ["fig2", "table1", "table2", "fig4"][scenario_idx];
        let (wire_name, format) = [
            ("json", Format::Json),
            ("csv", Format::Csv),
            ("text", Format::Text),
        ][format_idx];
        let requests = format!(
            "{{\"op\":\"predict\",\"samples\":3,\"wbits\":5,\"abits\":7}}\n\
             {{\"op\":\"run\",\"scenario\":\"{id}\",\"format\":\"{wire_name}\",\
             \"fast\":true}}\n\
             {{\"op\":\"predict\",\"samples\":17,\"wbits\":4,\"abits\":8}}\n\
             {{\"op\":\"predict\",\"samples\":40,\"wbits\":8,\"abits\":6}}\n\
             {{\"op\":\"shutdown\"}}\n"
        );
        let (baseline, _) = serve_lines(&requests, 1, 1);
        let (out, outcome) = serve_lines(&requests, threads, queue);
        prop_assert_eq!(&out, &baseline,
            "reply stream changed with threads={}, queue={}", threads, queue);
        prop_assert_eq!(outcome.served, 5);

        let run_reply = json::parse(out.lines().nth(1).expect("run reply"))
            .expect("reply is valid JSON");
        let served = run_reply
            .get("output")
            .and_then(json::JsonValue::as_str)
            .expect("run reply carries output");
        let s = scenario::find(id).expect("scenario registered");
        let ctx = ScenarioCtx::new().with_threads(1).with_fast(true);
        let expected = scenario::render(s.label(), s.title(), &s.run(&ctx), format);
        prop_assert_eq!(served, expected.as_str());
    }
}

/// A real socket round trip: the accept loop serves a connection, model
/// caches live in the loop (not the connection), and a client `shutdown`
/// stops the server thread.
#[test]
fn tcp_round_trip_serves_and_shuts_down() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let server = std::thread::spawn(move || {
        dvafs::serve::serve_tcp(
            &listener,
            &ServeOpts {
                threads: 2,
                queue: 4,
                ..ServeOpts::default()
            },
        )
    });

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(
            b"{\"op\":\"ping\"}\n\
              {\"op\":\"predict\",\"samples\":2,\"wbits\":4,\"abits\":4}\n\
              {\"op\":\"shutdown\"}\n",
        )
        .expect("send requests");
    writer.flush().expect("flush requests");

    let mut replies = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        replies.push(line.trim_end().to_string());
    }
    assert_eq!(
        replies[0],
        "{\"id\":0,\"ok\":true,\"op\":\"ping\",\"protocol\":1}"
    );
    let predict = json::parse(&replies[1]).expect("predict reply is valid JSON");
    assert_eq!(
        predict.get("ok").and_then(json::JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        predict.get("model").and_then(json::JsonValue::as_str),
        Some("lenet5")
    );
    assert_eq!(
        replies[2],
        "{\"id\":2,\"ok\":true,\"op\":\"shutdown\",\"served\":3}"
    );

    // The in-memory session over the same bytes produces the same reply
    // stream: transport is not an execution choice either.
    let (in_memory, _) = serve_lines(
        "{\"op\":\"ping\"}\n{\"op\":\"predict\",\"samples\":2,\"wbits\":4,\"abits\":4}\n{\"op\":\"shutdown\"}\n",
        1,
        1,
    );
    assert_eq!(in_memory.lines().collect::<Vec<_>>(), replies);

    server
        .join()
        .expect("server thread")
        .expect("accept loop exits cleanly after shutdown");
}
