//! `serve` rows of the per-layer suite, read against the request lines
//! and latencies of a `dvafs serve` run the client recorded.
//!
//! * `serve.parse_us` — `report::json::parse` per request line;
//! * `serve.queue_wait_p50_ms` — observed latency minus the same request's
//!   handler time, where a handler is the direct public-API call sequence
//!   `dvafs serve` makes for the request (model lookup, `warm_weights`,
//!   `dataset`, `predict_all` and reply formatting; or `Scenario::run` and
//!   `render` for a `run`), timed alone on one thread;
//! * `serve.self_us_per_req` — in-process `serve::serve_session` at one
//!   thread over one `ping` per recorded request (same ids, same order):
//!   the serving layer's own cost per request (framing, dispatch, the
//!   ordered pipeline and reply writing) with no handler work to hide it.
//!   A session over the real lines minus their direct handler calls leaves
//!   a few microseconds per request, less than the noise of either timing.
//!
//! The direct handler is checked once: an in-process session over the
//! run's single-sample LeNet-5 predict lines must reply with its bytes.

use crate::suite::{median, push, Metrics};
use crate::trace::Tracer;
use crate::{direct_predict, Models, PredictReq};
use dvafs::nn::network::QuantConfig;
use dvafs::report::json::{self, JsonValue};
use dvafs::scenario::{self, Format, ScenarioCtx};
use dvafs::serve::{serve_session, ServeOpts, ServeState};
use std::io::Cursor;
use std::path::Path;

/// Handler-timed requests for the queue-wait row (a prefix of the run).
const QUEUE_WAIT_REQUESTS: usize = 300;
/// Single-sample predict lines that check the direct handler's replies.
const HANDLER_CHECK_REQUESTS: usize = 200;

enum Req {
    Predict(u64, PredictReq),
    Run(u64, String),
}

impl Req {
    fn id(&self) -> u64 {
        match self {
            Req::Predict(id, _) | Req::Run(id, _) => *id,
        }
    }
}

fn parse_req(line: &str) -> Result<Req, String> {
    let doc = json::parse(line)?;
    let id = doc
        .get("id")
        .and_then(JsonValue::as_u64)
        .ok_or("request lacks \"id\"")?;
    match doc.get("op").and_then(JsonValue::as_str) {
        Some("predict") => Ok(Req::Predict(id, PredictReq::from_json(&doc)?)),
        Some("run") => Ok(Req::Run(
            id,
            doc.get("scenario")
                .and_then(JsonValue::as_str)
                .ok_or("run request lacks \"scenario\"")?
                .to_string(),
        )),
        other => Err(format!("unexpected op {other:?} in the serve mix")),
    }
}

/// The reply `dvafs serve` sends for `req`, computed by direct calls.
fn handle(models: &mut Models, req: &Req) -> Result<String, String> {
    match req {
        Req::Predict(id, r) => {
            let (spec, net) = models.get(&r.model, r.model_seed)?;
            net.warm_weights(&QuantConfig::uniform(net.layer_count(), r.wbits, r.abits))
                .map_err(|e| e.to_string())?;
            let preds: Vec<String> = direct_predict(&spec, &net, r)?
                .iter()
                .map(ToString::to_string)
                .collect();
            Ok(format!(
                "{{\"id\":{id},\"ok\":true,\"op\":\"predict\",\"model\":\"{}\",\
                 \"samples\":{},\"wbits\":{},\"abits\":{},\"predictions\":[{}]}}",
                json::escape(spec.name()),
                r.samples,
                r.wbits,
                r.abits,
                preds.join(",")
            ))
        }
        Req::Run(id, sid) => {
            let s = scenario::find(sid).ok_or_else(|| format!("unknown scenario {sid}"))?;
            let result = s.run(&ScenarioCtx::new().with_threads(1));
            let rendered = scenario::render(s.label(), s.title(), &result, Format::Json);
            Ok(format!(
                "{{\"id\":{id},\"ok\":true,\"op\":\"run\",\"scenario\":\"{}\",\
                 \"format\":\"json\",\"output\":\"{}\"}}",
                json::escape(s.id()),
                json::escape(&rendered)
            ))
        }
    }
}

/// Measures the three `serve` rows.
///
/// # Errors
///
/// Returns a message when the input files are unreadable or malformed, a
/// handler fails, the in-process session's replies differ from the direct
/// replies, or the ping session leaves a request unanswered.
pub fn measure(
    t: &mut Tracer,
    m: &mut Metrics,
    lines_path: &Path,
    latencies_path: &Path,
) -> Result<(), String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let lines: Vec<String> = read(lines_path)?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect();
    let latencies: Vec<f64> = read(latencies_path)?
        .split_whitespace()
        .map(|v| {
            v.parse::<f64>()
                .map_err(|e| format!("bad latency {v:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if lines.is_empty() || lines.len() != latencies.len() {
        return Err(format!(
            "{} request lines but {} latencies",
            lines.len(),
            latencies.len()
        ));
    }

    let mut parse_ns = Vec::new();
    for rep in 0..5 {
        let (ok, ns) = t.time("serve.parse", rep, || {
            lines.iter().filter(|l| json::parse(l).is_ok()).count()
        });
        if ok != lines.len() {
            return Err("a recorded request line does not parse".to_string());
        }
        parse_ns.push(ns);
    }
    push(
        m,
        "serve.parse_us",
        median(&mut parse_ns) / 1e3 / lines.len() as f64,
        "us",
    );

    let reqs: Vec<Req> = lines
        .iter()
        .map(|l| parse_req(l))
        .collect::<Result<_, _>>()?;
    let mut models = Models::default();
    // Pack every (network, width) panel first, as the run's warm-up did.
    for req in &reqs {
        if let Req::Predict(_, r) = req {
            let (_, net) = models.get(&r.model, r.model_seed)?;
            net.warm_weights(&QuantConfig::uniform(net.layer_count(), r.wbits, r.abits))
                .map_err(|e| e.to_string())?;
        }
    }
    let mut waits = Vec::new();
    for (i, req) in reqs.iter().take(QUEUE_WAIT_REQUESTS).enumerate() {
        let (reply, ns) = t.time("serve.handler", i as u64, || handle(&mut models, req));
        reply?;
        waits.push(latencies[i] - ns / 1e6);
    }
    push(m, "serve.queue_wait_p50_ms", median(&mut waits), "ms");

    let picked: Vec<usize> = reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Req::Predict(_, p) if p.samples == 1 && p.model == "lenet5"))
        .map(|(i, _)| i)
        .take(HANDLER_CHECK_REQUESTS)
        .collect();
    if picked.is_empty() {
        return Err("the run sent no single-sample lenet5 predict request".to_string());
    }
    let text: String = picked.iter().map(|&i| format!("{}\n", lines[i])).collect();
    let opts = ServeOpts {
        threads: 1,
        queue: 4,
        ..ServeOpts::default()
    };
    let state = ServeState::new();
    let mut replies = Vec::with_capacity(text.len() * 2);
    serve_session(Cursor::new(text.as_bytes()), &mut replies, &opts, &state)
        .map_err(|e| format!("in-process session: {e}"))?;
    let served = String::from_utf8(replies).map_err(|e| e.to_string())?;
    let direct: Vec<String> = picked
        .iter()
        .map(|&i| handle(&mut models, &reqs[i]))
        .collect::<Result<_, _>>()?;
    if served.lines().ne(direct.iter().map(String::as_str)) {
        return Err("serve_session replies differ from the direct handler replies".to_string());
    }
    let pings: String = reqs
        .iter()
        .map(|r| format!("{{\"id\":{},\"op\":\"ping\"}}\n", r.id()))
        .collect();
    let mut times = Vec::new();
    for rep in 0..15 {
        let (outcome, ns) = t.time("serve.session", rep, || {
            let mut out = Vec::with_capacity(pings.len() * 2);
            serve_session(Cursor::new(pings.as_bytes()), &mut out, &opts, &state)
        });
        let served = outcome
            .map_err(|e| format!("in-process session: {e}"))?
            .served;
        if served != reqs.len() {
            return Err(format!(
                "the ping session answered {served} of {}",
                reqs.len()
            ));
        }
        times.push(ns);
    }
    push(
        m,
        "serve.self_us_per_req",
        median(&mut times) / 1e3 / reqs.len() as f64,
        "us",
    );
    Ok(())
}
