//! `dvafs serve` — the long-running request/reply engine (ROADMAP item 3).
//!
//! The paper's Envision processor is an always-on inference engine; this
//! module is the workspace's equivalent: a std-only service that keeps
//! networks — and with them the per-(layer, bits) packed weight panels
//! and thread-local im2col scratch — alive across requests instead of
//! rebuilding them per CLI invocation.
//!
//! ## Wire format
//!
//! Newline-delimited JSON, one request object in, one reply object out,
//! over stdin/stdout (`dvafs serve`) or TCP (`dvafs serve --listen ADDR`).
//! Requests (`"op"` selects; unknown keys are ignored for forward
//! compatibility; a numeric `"id"` is echoed back, defaulting to the
//! request's 0-based sequence number):
//!
//! ```text
//! {"op":"ping"}
//! {"op":"list"}
//! {"op":"run","scenario":"fig2","format":"json","fast":true,"threads":1}
//! {"op":"predict","model":"lenet5","samples":4,"wbits":8,"abits":8}
//! {"op":"shutdown"}
//! ```
//!
//! A `run` reply's `"output"` field carries **exactly** the bytes
//! `dvafs run <id> --format <f> --out DIR` would write to
//! `DIR/<id>.<ext>` (the rendering shared via
//! [`scenario::render`](fn@scenario::render)), so served scenario output
//! is byte-comparable to the golden fixtures. A
//! `predict` reply carries the argmax predictions of
//! [`Network::predict_all`] over a [`ModelSpec`]-resolved network and
//! dataset. Failures — unparseable lines, unknown ops or scenarios,
//! invalid model geometry — are **replies**, not connection errors:
//! `{"id":N,"ok":false,"error":"..."}`.
//!
//! ## Scheduling and determinism
//!
//! A session is one [`Executor::pipeline_ordered`] on one executor of
//! `--threads` workers: a reader thread parses requests off the
//! connection, the workers execute them concurrently, and the calling
//! thread writes the replies back **in request order** with at most
//! `--queue` requests in flight (bounded-queue backpressure — a slow
//! client stalls the reader, not memory).
//!
//! Everything a request runs in parallel runs on that same pool. A
//! `predict` is split into [`DEFAULT_BATCH_SIZE`]-sample chunks (16), one
//! map over the session's executor: the worker that took the request runs
//! chunks, and so does every worker that has finished its own request,
//! before it starts a new one. Spare cores thus go to the requests already
//! running, whose replies the requests behind them would wait for anyway.
//! A `run` executes its scenario's sweeps on the same executor; the
//! request's `threads` field is still validated but sizes nothing. Each
//! chunk synthesizes only its own inputs, the chunks are the batches
//! [`Network::predict_all`] walks, and the predictions merge in chunk
//! order, so no reply byte changes.
//!
//! Because every handler is a pure function of its request (every
//! registered scenario is deterministic), the reply stream is
//! byte-identical for any worker count: serving is just another
//! execution strategy, like the bitsliced engine or the packed kernel,
//! and moves no number.
//!
//! ## Failure model
//!
//! The paper's contract — degrade controllably, never fall over — is the
//! serving layer's contract too: **every fault is contained to the
//! request that caused it.** Concretely:
//!
//! * a panicking handler is caught around its request and answered
//!   `{"ok":false,"error":"internal: ..."}` at its position in the reply
//!   stream; later requests (including ones already in flight) are
//!   unaffected and keep their exact no-fault reply bytes;
//! * a request line longer than [`MAX_REQUEST_BYTES`] is **drained, not
//!   buffered**, and answered with an error reply;
//! * a line that is not valid UTF-8 gets an error reply and the session
//!   continues (only a transport-level read error fuses the stream);
//! * with `--deadline-ms N`, a `run`/`predict` whose execution overruns
//!   the wall deadline has its result discarded and replaced by an error
//!   reply — the check happens *after* execution, so the reply is always
//!   either the complete result or the deadline error, nothing partial;
//! * under TCP each accepted connection carries a read timeout
//!   (`--idle-timeout-ms`): an idle client is closed cleanly with a
//!   stderr note instead of stalling the sequential accept loop, and
//!   `--max-requests N` caps a session the same clean way;
//! * the model cache keeps at most 32 networks and 1 GiB of weights
//!   (`f32` weights plus the weight panels packed per width), evicting
//!   the least recently used network, so a client varying `model_seed`
//!   or the widths cannot grow the process without limit;
//! * a panic inside the model cache recovers the poisoned lock and
//!   rebuilds (see [`ServeState`]).
//!
//! All of this is provable because faults are injectable: a seeded
//! [`FaultPlan`] (`--fault-plan`, test-only) deterministically
//! panics, delays, oversizes or garbles chosen requests, and the chaos
//! tests assert the process survives with every non-faulted reply
//! byte-identical to the fault-free transcript.
//!
//! [`Network::predict_all`]: dvafs_nn::Network::predict_all
//! [`ModelSpec`]: dvafs_nn::models::ModelSpec

use crate::faultplan::{FaultKind, FaultPlan};
use crate::report::json::{self, JsonValue};
use crate::scenario::{self, Format, ScenarioCtx};
use dvafs_executor::{panic_message, Executor};
use dvafs_nn::layers::Layer;
use dvafs_nn::models::ModelSpec;
use dvafs_nn::network::QuantConfig;
use dvafs_nn::{Network, NnError, DEFAULT_BATCH_SIZE};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Wire-protocol version, reported by `ping`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Default bound on in-flight requests per session (`--queue`).
pub const DEFAULT_QUEUE: usize = 32;

/// Upper bound on `predict` samples per request, so one request cannot
/// hold the worker pool for minutes.
pub const MAX_PREDICT_SAMPLES: usize = 4096;

/// Upper bound on one request line's bytes (excluding the newline). An
/// oversized line is *drained* from the stream — never accumulated in
/// memory — and answered with an ordered error reply, so an abusive or
/// broken client costs one buffer, not the process.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Most networks the model cache keeps built: well above the six of a
/// typical predict mix (three models at two weight seeds).
pub(crate) const MAX_CACHED_MODELS: usize = 32;

/// Most bytes the cached networks hold together: their `f32` weights and
/// the weight panels they have packed, at every width served so far.
/// Room for a paper-scale VGG16 (about 0.5 GiB of `f32` weights) beside
/// the service-sized defaults (about 0.25 MiB each, plus about half that
/// per 16-bit width). A network larger than this on its own is still
/// served, and cached until the next network is requested.
pub(crate) const MAX_CACHED_WEIGHT_BYTES: usize = 1 << 30;

/// Default per-connection read timeout under TCP (`--idle-timeout-ms`):
/// a client this idle is closed cleanly so the sequential accept loop
/// can serve the next one.
pub const DEFAULT_IDLE_TIMEOUT_MS: u64 = 30_000;

/// Server configuration: worker count, in-flight request bound, and the
/// fault-containment knobs of the failure model (module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOpts {
    /// Workers of the session's one pool, which runs the requests and
    /// everything they run in parallel (1 = fully serial).
    pub threads: usize,
    /// Bounded-queue capacity: at most this many requests are parsed but
    /// not yet replied to (clamped to ≥ 1).
    pub queue: usize,
    /// Per-request wall deadline for `run`/`predict` (`--deadline-ms`):
    /// a request whose execution overruns it has its result discarded
    /// and replaced by an error reply. `None` disables the check.
    pub deadline_ms: Option<u64>,
    /// Session cap (`--max-requests`): after this many requests the
    /// session closes cleanly, as if the client had sent EOF. `None`
    /// serves until EOF/shutdown.
    pub max_requests: Option<usize>,
    /// Per-connection read timeout under TCP (`--idle-timeout-ms`,
    /// milliseconds): an idle connection is closed cleanly with a stderr
    /// note. `None` disables the timeout; stdio sessions ignore it.
    pub idle_timeout_ms: Option<u64>,
    /// Deterministic fault injection (`--fault-plan`) — test-only; `None`
    /// in production.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            threads: Executor::from_env().threads(),
            queue: DEFAULT_QUEUE,
            deadline_ms: None,
            max_requests: None,
            idle_timeout_ms: Some(DEFAULT_IDLE_TIMEOUT_MS),
            fault_plan: None,
        }
    }
}

/// What a finished session reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOutcome {
    /// Requests answered (including error replies).
    pub served: usize,
    /// Whether a `shutdown` request ended the session (as opposed to EOF
    /// or a disconnect) — the TCP accept loop stops serving when true.
    pub shutdown: bool,
    /// Whether the session ended because the connection's read timeout
    /// expired (TCP idle client) — closed cleanly, noted on stderr by
    /// the accept loop.
    pub timed_out: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ModelKey {
    name: &'static str,
    input: usize,
    /// `f64::to_bits` of the channel scale (hashable, exact).
    scale_bits: u64,
    seed: u64,
}

#[derive(Debug)]
struct CachedModel {
    net: Arc<Network>,
    /// The network's `f32` weight bytes (fixed once built).
    weight_bytes: usize,
    /// The cache's use counter at this network's last request.
    last_used: u64,
}

impl CachedModel {
    /// The bytes this entry holds now: its `f32` weights and the panels
    /// its network has packed so far (which grow as requests warm new
    /// widths, so they are re-read at every check).
    fn bytes(&self) -> usize {
        self.weight_bytes + self.net.packed_bytes()
    }
}

/// Built networks by resolved spec, bounded by a network count and a
/// total of bytes (`f32` weights plus packed weight panels); over either
/// bound, the least recently used network is evicted (a linear scan: the
/// cache is small). The bound is checked at every lookup, hit or miss,
/// because a cached network grows panels as it serves new widths.
#[derive(Debug)]
struct ModelCache {
    entries: HashMap<ModelKey, CachedModel>,
    uses: u64,
    max_models: usize,
    max_weight_bytes: usize,
}

impl ModelCache {
    fn bytes(&self) -> usize {
        self.entries.values().map(CachedModel::bytes).sum()
    }

    fn get_or_build(&mut self, key: ModelKey, build: impl FnOnce() -> Network) -> Arc<Network> {
        self.uses += 1;
        let net = if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.uses;
            Arc::clone(&entry.net)
        } else {
            let net = Arc::new(build());
            let entry = CachedModel {
                net: Arc::clone(&net),
                weight_bytes: weight_bytes(&net),
                last_used: self.uses,
            };
            self.entries.insert(key, entry);
            net
        };
        // The network just requested is the most recently used, so it stays.
        while self.entries.len() > 1
            && (self.entries.len() > self.max_models || self.bytes() > self.max_weight_bytes)
        {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
                .expect("the cache is not empty");
            self.entries.remove(&oldest);
        }
        net
    }
}

/// The `f32` weight bytes of a network's conv and dense layers.
fn weight_bytes(net: &Network) -> usize {
    let weights: usize = net
        .layers()
        .iter()
        .map(|layer| match layer {
            Layer::Conv2d(c) => c.weights().len(),
            Layer::Dense(d) => d.inputs() * d.outputs(),
            Layer::ReLU | Layer::MaxPool2d { .. } => 0,
        })
        .sum();
    weights * std::mem::size_of::<f32>()
}

/// The state that outlives a request — and, under TCP, a connection:
/// built networks keyed by resolved spec, at most 32 of them and 1 GiB
/// of `f32` weights and packed weight panels, least recently used
/// evicted first. Holding
/// `Arc<Network>` (never cloning the network) is what preserves the
/// interior weight-panel cache across requests; a `Network` clone would
/// start cold. An evicted network is rebuilt from its spec on its next
/// request, with the same weights and replies.
///
/// The cache lock is **poison-recovering**: a contained panic while the
/// lock was held (e.g. mid-`build`) clears the poison flag and drops the
/// possibly half-updated entries, so the next `predict` rebuilds from
/// cold instead of panicking for the rest of the session.
#[derive(Debug)]
pub struct ServeState {
    models: Mutex<ModelCache>,
}

impl Default for ServeState {
    fn default() -> Self {
        ServeState::with_limits(MAX_CACHED_MODELS, MAX_CACHED_WEIGHT_BYTES)
    }
}

impl ServeState {
    /// Fresh state with an empty model cache.
    #[must_use]
    pub fn new() -> Self {
        ServeState::default()
    }

    /// Fresh state whose model cache holds at most `max_models` networks
    /// and `max_weight_bytes` of `f32` weights and packed panels.
    pub(crate) fn with_limits(max_models: usize, max_weight_bytes: usize) -> Self {
        ServeState {
            models: Mutex::new(ModelCache {
                entries: HashMap::new(),
                uses: 0,
                max_models,
                max_weight_bytes,
            }),
        }
    }

    /// Takes the cache lock, recovering from poison by clearing both the
    /// flag and the stale entries (a rebuild costs a warm-up; a bricked
    /// cache costs every later request in the session).
    fn lock_models(&self) -> MutexGuard<'_, ModelCache> {
        self.models.lock().unwrap_or_else(|poisoned| {
            self.models.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.entries.clear();
            guard
        })
    }

    /// Number of distinct networks currently cached.
    #[must_use]
    pub fn cached_models(&self) -> usize {
        self.lock_models().entries.len()
    }

    fn model_for(&self, spec: &ModelSpec) -> Arc<Network> {
        let key = ModelKey {
            name: spec.name(),
            input: spec.input(),
            scale_bits: spec.scale().to_bits(),
            seed: spec.seed(),
        };
        self.lock_models().get_or_build(key, || spec.build())
    }
}

/// One parsed request (the `"op"` dispatch of the wire format).
#[derive(Debug, Clone, PartialEq)]
enum Request {
    Ping,
    List,
    Run {
        scenario: String,
        format: Format,
        fast: bool,
    },
    Predict {
        model: String,
        input: Option<usize>,
        scale: Option<f64>,
        model_seed: u64,
        samples: usize,
        data_seed: u64,
        wbits: u32,
        abits: u32,
    },
    Shutdown,
}

/// A request line after parsing: reply id plus either the request or the
/// error to report. Errors are envelope-level data, not session errors —
/// a malformed line still produces an ordered reply.
#[derive(Debug, Clone, PartialEq)]
struct Envelope {
    id: u64,
    seq: usize,
    parsed: Result<Request, String>,
}

fn get_u64(obj: &JsonValue, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

fn get_usize(obj: &JsonValue, key: &str, default: usize) -> Result<usize, String> {
    #[allow(clippy::cast_possible_truncation)]
    get_u64(obj, key, default as u64).map(|v| v as usize)
}

fn get_bits(obj: &JsonValue, key: &str) -> Result<u32, String> {
    let v = get_u64(obj, key, 16)?;
    if (1..=16).contains(&v) {
        #[allow(clippy::cast_possible_truncation)]
        Ok(v as u32)
    } else {
        Err(format!("{key:?} must be in 1..=16, got {v}"))
    }
}

fn get_str<'a>(obj: &'a JsonValue, key: &str) -> Result<Option<&'a str>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a string")),
    }
}

fn get_bool(obj: &JsonValue, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("{key:?} must be a boolean")),
    }
}

/// Parses one request line. The reply id defaults to the request's
/// sequence number; an explicit numeric `"id"` overrides it (and is
/// honored even when the rest of the request is invalid, so a client can
/// correlate its errors).
fn parse_request(line: &str, seq: usize) -> Envelope {
    let seq_id = seq as u64;
    let doc = match json::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            return Envelope {
                id: seq_id,
                seq,
                parsed: Err(format!("unparseable request: {e}")),
            }
        }
    };
    if !matches!(doc, JsonValue::Object(_)) {
        return Envelope {
            id: seq_id,
            seq,
            parsed: Err("request must be a JSON object".to_string()),
        };
    }
    let id = match doc.get("id") {
        None => seq_id,
        Some(v) => match v.as_u64() {
            Some(id) => id,
            None => {
                return Envelope {
                    id: seq_id,
                    seq,
                    parsed: Err("\"id\" must be a non-negative integer".to_string()),
                }
            }
        },
    };
    let parsed = parse_op(&doc);
    Envelope { id, seq, parsed }
}

fn parse_op(doc: &JsonValue) -> Result<Request, String> {
    let op = get_str(doc, "op")?.ok_or("missing \"op\"")?;
    match op {
        "ping" => Ok(Request::Ping),
        "list" => Ok(Request::List),
        "shutdown" => Ok(Request::Shutdown),
        "run" => {
            let scenario = get_str(doc, "scenario")?
                .ok_or("run: missing \"scenario\"")?
                .to_string();
            let format = match get_str(doc, "format")? {
                None => Format::Json,
                Some(f) => Format::parse(f)?,
            };
            let fast = get_bool(doc, "fast", false)?;
            // Accepted and validated, but the session's executor runs
            // every scenario.
            if get_usize(doc, "threads", 1)? == 0 {
                return Err("\"threads\" must be positive".to_string());
            }
            Ok(Request::Run {
                scenario,
                format,
                fast,
            })
        }
        "predict" => {
            let model = get_str(doc, "model")?.unwrap_or("lenet5").to_string();
            let input = match get_usize(doc, "input", 0)? {
                0 => None,
                n => Some(n),
            };
            let scale = match doc.get("scale") {
                None => None,
                Some(v) => Some(
                    v.as_f64()
                        .ok_or_else(|| "\"scale\" must be a number".to_string())?,
                ),
            };
            let samples = get_usize(doc, "samples", 8)?;
            if !(1..=MAX_PREDICT_SAMPLES).contains(&samples) {
                return Err(format!(
                    "\"samples\" must be in 1..={MAX_PREDICT_SAMPLES}, got {samples}"
                ));
            }
            Ok(Request::Predict {
                model,
                input,
                scale,
                model_seed: get_u64(doc, "model_seed", 1)?,
                samples,
                data_seed: get_u64(doc, "data_seed", 2)?,
                wbits: get_bits(doc, "wbits")?,
                abits: get_bits(doc, "abits")?,
            })
        }
        other => Err(format!(
            "unknown op {other:?} — available: ping, list, run, predict, shutdown"
        )),
    }
}

fn error_reply(id: u64, message: &str) -> String {
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}",
        json::escape(message)
    )
}

/// Executes one parsed request on `exec`, the session's executor, and
/// renders its one-line reply.
fn execute_request(env: &Envelope, state: &ServeState, exec: &Executor) -> (String, bool) {
    let id = env.id;
    let request = match &env.parsed {
        Ok(r) => r,
        Err(e) => return (error_reply(id, e), false),
    };
    match request {
        Request::Ping => (
            format!("{{\"id\":{id},\"ok\":true,\"op\":\"ping\",\"protocol\":{PROTOCOL_VERSION}}}"),
            false,
        ),
        Request::List => {
            let ids: Vec<String> = scenario::registry()
                .iter()
                .map(|s| format!("\"{}\"", json::escape(s.id())))
                .collect();
            (
                format!(
                    "{{\"id\":{id},\"ok\":true,\"op\":\"list\",\"scenarios\":[{}]}}",
                    ids.join(",")
                ),
                false,
            )
        }
        Request::Shutdown => (
            format!(
                "{{\"id\":{id},\"ok\":true,\"op\":\"shutdown\",\"served\":{}}}",
                env.seq + 1
            ),
            true,
        ),
        Request::Run {
            scenario: sid,
            format,
            fast,
        } => {
            let Some(s) = scenario::find(sid) else {
                let known: Vec<&str> = scenario::registry().iter().map(|s| s.id()).collect();
                return (
                    error_reply(
                        id,
                        &format!("unknown scenario {sid:?} — available: {}", known.join(", ")),
                    ),
                    false,
                );
            };
            let ctx = ScenarioCtx::new()
                .with_executor(exec.clone())
                .with_fast(*fast);
            let result = s.run(&ctx);
            let rendered = scenario::render(s.label(), s.title(), &result, *format);
            (
                format!(
                    "{{\"id\":{id},\"ok\":true,\"op\":\"run\",\"scenario\":\"{}\",\
                     \"format\":\"{}\",\"output\":\"{}\"}}",
                    json::escape(s.id()),
                    format.extension(),
                    json::escape(&rendered)
                ),
                false,
            )
        }
        Request::Predict {
            model,
            input,
            scale,
            model_seed,
            samples,
            data_seed,
            wbits,
            abits,
        } => {
            let spec = match ModelSpec::resolve(model, *input, *scale, *model_seed) {
                Ok(spec) => spec,
                Err(e) => return (error_reply(id, &e), false),
            };
            let net = state.model_for(&spec);
            let config = QuantConfig::uniform(net.layer_count(), *wbits, *abits);
            if let Err(e) = net.warm_weights(&config) {
                return (error_reply(id, &e.to_string()), false);
            }
            let name = spec.name();
            match predict_shared(exec, spec, net, config, *samples, *data_seed) {
                Ok(preds) => {
                    let rendered: Vec<String> = preds.iter().map(ToString::to_string).collect();
                    (
                        format!(
                            "{{\"id\":{id},\"ok\":true,\"op\":\"predict\",\
                             \"model\":\"{}\",\"samples\":{samples},\
                             \"wbits\":{wbits},\"abits\":{abits},\
                             \"predictions\":[{}]}}",
                            json::escape(name),
                            rendered.join(",")
                        ),
                        false,
                    )
                }
                Err(e) => (error_reply(id, &e.to_string()), false),
            }
        }
    }
}

/// `predict_all` over `spec.dataset(samples, data_seed)`, as one map over
/// [`DEFAULT_BATCH_SIZE`]-sample chunks that idle workers of `exec` share:
/// each chunk synthesizes only its own inputs and runs on its worker's
/// thread-local scratch. The chunks are the batches `predict_all` walks,
/// so the predictions are its predictions, and the first failing chunk's
/// error is the one it would return.
fn predict_shared(
    exec: &Executor,
    spec: ModelSpec,
    net: Arc<Network>,
    config: QuantConfig,
    samples: usize,
    data_seed: u64,
) -> Result<Vec<usize>, NnError> {
    let chunk = DEFAULT_BATCH_SIZE;
    let per_chunk = exec.par_map_range(samples.div_ceil(chunk), move |c| {
        let start = c * chunk;
        let data = spec.dataset_range(start..samples.min(start + chunk), data_seed);
        net.predict_all(&data, &config)
    });
    let mut preds = Vec::with_capacity(samples);
    for chunk in per_chunk {
        preds.extend(chunk?);
    }
    Ok(preds)
}

/// One bounded line read off the wire.
enum LineRead {
    /// A complete line (newline stripped), at most [`MAX_REQUEST_BYTES`].
    Line(Vec<u8>),
    /// The line exceeded [`MAX_REQUEST_BYTES`]: its bytes were consumed
    /// from the stream (up to and including the newline, or EOF) but
    /// **never accumulated** beyond the cap.
    Oversized,
    /// Clean end of stream.
    Eof,
    /// The transport's read timeout expired (TCP idle client).
    TimedOut,
    /// A non-timeout transport error.
    Failed(std::io::Error),
}

/// Reads one newline-terminated line without ever buffering more than
/// [`MAX_REQUEST_BYTES`] of it: past the cap the remainder of the line is
/// drained chunk-by-chunk straight out of the `BufRead` buffer. A final
/// unterminated line before EOF still counts as a line.
fn read_bounded_line<R: BufRead>(reader: &mut R) -> LineRead {
    let mut line: Vec<u8> = Vec::new();
    let mut dropped = false;
    loop {
        let (consumed, at_newline) = {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return LineRead::TimedOut
                }
                Err(e) => return LineRead::Failed(e),
            };
            if chunk.is_empty() {
                return if dropped {
                    LineRead::Oversized
                } else if line.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line(std::mem::take(&mut line))
                };
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let keep = newline.unwrap_or(chunk.len());
            if !dropped {
                if line.len() + keep > MAX_REQUEST_BYTES {
                    dropped = true;
                    line = Vec::new(); // release, don't retain, the prefix
                } else {
                    line.extend_from_slice(&chunk[..keep]);
                }
            }
            (newline.map_or(chunk.len(), |p| p + 1), newline.is_some())
        };
        reader.consume(consumed);
        if at_newline {
            return if dropped {
                LineRead::Oversized
            } else {
                LineRead::Line(std::mem::take(&mut line))
            };
        }
    }
}

fn oversized_reply_message() -> String {
    format!("request line exceeds {MAX_REQUEST_BYTES} bytes (line drained, not buffered)")
}

/// The request stream: one [`Envelope`] per non-blank line, fused after
/// `shutdown` (the shutdown request itself is still yielded and answered;
/// anything after it on the stream is never read), after `max_requests`
/// requests, or after a transport error. Read-site faults from an active
/// [`FaultPlan`] (oversize, garble) are injected here, *after* the real
/// line has been consumed from the stream — injection can change this
/// request's reply but never desynchronizes the stream.
struct RequestIter<'a, R: BufRead> {
    reader: R,
    seq: usize,
    fused: bool,
    /// `max_requests` session cap (`None` = unbounded).
    limit: Option<usize>,
    /// Active fault plan for read-site injection.
    plan: Option<&'a FaultPlan>,
    /// Set when the stream ended on a read timeout (idle TCP client).
    timed_out: &'a AtomicBool,
}

impl<R: BufRead> Iterator for RequestIter<'_, R> {
    type Item = Envelope;

    fn next(&mut self) -> Option<Envelope> {
        if self.fused {
            return None;
        }
        if self.limit.is_some_and(|cap| self.seq >= cap) {
            self.fused = true; // session cap: close as cleanly as EOF
            return None;
        }
        loop {
            let seq = self.seq;
            let env = match read_bounded_line(&mut self.reader) {
                LineRead::Eof => return None,
                LineRead::TimedOut => {
                    self.fused = true;
                    self.timed_out.store(true, Ordering::Relaxed);
                    return None;
                }
                LineRead::Failed(e) => {
                    self.fused = true;
                    Envelope {
                        id: seq as u64,
                        seq,
                        parsed: Err(format!("read error: {e}")),
                    }
                }
                LineRead::Oversized => Envelope {
                    id: seq as u64,
                    seq,
                    parsed: Err(oversized_reply_message()),
                },
                LineRead::Line(bytes) => match String::from_utf8(bytes) {
                    Err(_) => Envelope {
                        id: seq as u64,
                        seq,
                        parsed: Err("request is not valid UTF-8".to_string()),
                    },
                    Ok(text) => {
                        let trimmed = text.trim();
                        if trimmed.is_empty() {
                            continue; // blank lines are keep-alives, not requests
                        }
                        match self.plan.and_then(|p| p.fault(seq)) {
                            Some(FaultKind::Oversize) => Envelope {
                                id: seq as u64,
                                seq,
                                parsed: Err(oversized_reply_message()),
                            },
                            // Truncated JSON: exercises the real
                            // malformed-request reply path.
                            Some(FaultKind::Garble) => parse_request("{\"op\":\"garbled", seq),
                            _ => parse_request(trimmed, seq),
                        }
                    }
                },
            };
            self.seq += 1;
            if env.parsed == Ok(Request::Shutdown) {
                self.fused = true;
            }
            return Some(env);
        }
    }
}

/// Serves one connection: reads newline-delimited JSON requests from
/// `reader`, writes one reply line per request to `writer` **in request
/// order**, executing requests on one executor of `opts.threads` workers
/// with at most `opts.queue` in flight. Returns how many requests were
/// answered and whether a `shutdown` request ended the session.
///
/// Determinism contract: the written reply bytes are a pure function of
/// the request bytes — independent of `opts.threads`, `opts.queue`, and
/// scheduling — because replies are consumed in request order off
/// [`Executor::pipeline_ordered`], a predict's shared chunks merge in
/// chunk order, and every handler is deterministic.
///
/// # Errors
///
/// Returns the first I/O error raised while writing replies (request
/// *parse* problems are error replies, not errors here).
pub fn serve_session<R, W>(
    reader: R,
    writer: &mut W,
    opts: &ServeOpts,
    state: &ServeState,
) -> std::io::Result<SessionOutcome>
where
    R: BufRead + Send,
    W: Write,
{
    let exec = Executor::new(opts.threads);
    let timed_out = AtomicBool::new(false);
    let requests = RequestIter {
        reader,
        seq: 0,
        fused: false,
        limit: opts.max_requests,
        plan: opts.fault_plan.as_ref(),
        timed_out: &timed_out,
    };
    let plan = opts.fault_plan.as_ref();
    let mut served = 0usize;
    let mut shutdown = false;
    let mut io_error: Option<std::io::Error> = None;
    exec.pipeline_ordered(
        opts.queue,
        requests,
        |seq, env| {
            let started = Instant::now();
            // Containment is the whole point of the serving posture: a
            // panicking handler costs its own request an "internal:" error
            // reply — in order, id echoed — and nothing else.
            let executed = catch_unwind(AssertUnwindSafe(|| {
                match plan.and_then(|p| p.fault(seq)) {
                    Some(FaultKind::Panic) => panic!("injected fault: panic at request {seq}"),
                    Some(FaultKind::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                    _ => {}
                }
                execute_request(&env, state, &exec)
            }));
            let (reply, is_shutdown) = match executed {
                Ok(done) => done,
                Err(p) => {
                    let message = format!("internal: {}", panic_message(p.as_ref()));
                    return (error_reply(env.id, &message), false);
                }
            };
            if let Some(deadline) = opts.deadline_ms {
                // Checked around the expensive ops only; the result of an
                // overrunning request is discarded *after* it completed,
                // so the reply is deterministically all-or-error.
                let expensive = matches!(
                    env.parsed,
                    Ok(Request::Run { .. } | Request::Predict { .. })
                );
                if expensive && started.elapsed().as_millis() > u128::from(deadline) {
                    return (
                        error_reply(
                            env.id,
                            &format!("deadline: request exceeded {deadline}ms; result discarded"),
                        ),
                        false,
                    );
                }
            }
            (reply, is_shutdown)
        },
        |_, (reply, is_shutdown)| {
            if io_error.is_none() {
                let r = writeln!(writer, "{reply}").and_then(|()| writer.flush());
                match r {
                    Ok(()) => served += 1,
                    Err(e) => io_error = Some(e),
                }
            }
            shutdown |= is_shutdown;
        },
    );
    match io_error {
        Some(e) => Err(e),
        None => Ok(SessionOutcome {
            served,
            shutdown,
            timed_out: timed_out.load(Ordering::Relaxed),
        }),
    }
}

/// The TCP accept loop: serves connections sequentially on `listener`
/// (deterministic replies need ordered request streams, and one pipeline
/// already saturates the worker pool), sharing one [`ServeState`] so
/// model caches persist across connections. A client `shutdown` request
/// stops the loop; a connection-level I/O error is logged to stderr and
/// the loop continues with the next client.
///
/// Each accepted connection gets `opts.idle_timeout_ms` as its read
/// timeout: a hung client is closed cleanly (stderr note) instead of
/// stalling every later connection behind the sequential accept loop.
///
/// # Errors
///
/// Returns the listener's `accept` error, which is fatal for the loop.
pub fn serve_tcp(listener: &TcpListener, opts: &ServeOpts) -> std::io::Result<()> {
    let state = ServeState::new();
    for conn in listener.incoming() {
        let stream = conn?;
        if let Some(ms) = opts.idle_timeout_ms.filter(|&ms| ms > 0) {
            stream.set_read_timeout(Some(Duration::from_millis(ms)))?;
        }
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        match serve_session(reader, &mut writer, opts, &state) {
            Ok(outcome) if outcome.shutdown => return Ok(()),
            Ok(outcome) => {
                if outcome.timed_out {
                    eprintln!(
                        "dvafs: serve: closed idle connection after {}ms \
                         read timeout ({} request(s) answered)",
                        opts.idle_timeout_ms.unwrap_or_default(),
                        outcome.served
                    );
                }
            }
            Err(e) => eprintln!("dvafs: serve connection error: {e}"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn serve_bytes(input: &str, threads: usize, queue: usize) -> (String, SessionOutcome) {
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

    fn serve_with_opts(input: &str, opts: &ServeOpts) -> (String, SessionOutcome) {
        let state = ServeState::new();
        let mut out = Vec::new();
        let outcome = serve_session(Cursor::new(input.to_string()), &mut out, opts, &state)
            .expect("in-memory serve cannot fail on io");
        (String::from_utf8(out).expect("replies are utf-8"), outcome)
    }

    #[test]
    fn ping_list_and_shutdown_replies() {
        let (out, outcome) = serve_bytes("{\"op\":\"ping\"}\n{\"op\":\"list\"}\n", 1, 4);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            format!("{{\"id\":0,\"ok\":true,\"op\":\"ping\",\"protocol\":{PROTOCOL_VERSION}}}")
        );
        assert!(lines[1].contains("\"scenarios\":[\"fig2\""), "{}", lines[1]);
        assert!(!outcome.shutdown);
        assert_eq!(outcome.served, 2);

        let (out, outcome) = serve_bytes("{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n", 1, 4);
        // Requests after shutdown are never read, let alone answered.
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("\"op\":\"shutdown\""));
        assert!(out.contains("\"served\":1"));
        assert!(outcome.shutdown);
    }

    #[test]
    fn malformed_and_unknown_requests_get_error_replies() {
        let input = "not json\n\
                     [1,2]\n\
                     {\"op\":\"frobnicate\"}\n\
                     {\"op\":\"run\"}\n\
                     {\"op\":\"run\",\"scenario\":\"nope\"}\n\
                     {\"op\":\"run\",\"scenario\":\"fig2\",\"format\":\"yaml\"}\n\
                     {\"op\":\"predict\",\"model\":\"resnet\"}\n\
                     {\"op\":\"predict\",\"wbits\":0}\n\
                     {\"op\":\"predict\",\"samples\":0}\n\
                     {\"id\":77,\"op\":\"frobnicate\"}\n";
        let (out, outcome) = serve_bytes(input, 2, 4);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines.iter().all(|l| l.contains("\"ok\":false")), "{out}");
        assert!(lines[0].contains("unparseable request"));
        assert!(lines[1].contains("must be a JSON object"));
        assert!(lines[2].contains("unknown op"));
        assert!(lines[3].contains("missing \\\"scenario\\\""));
        assert!(lines[4].contains("unknown scenario"));
        assert!(lines[5].contains("unknown format"));
        assert!(lines[6].contains("unknown model"));
        assert!(lines[7].contains("1..=16"));
        assert!(lines[8].contains("\\\"samples\\\""));
        // Explicit ids are echoed even on errors.
        assert!(lines[9].starts_with("{\"id\":77,"));
        assert!(!outcome.shutdown);
    }

    #[test]
    fn predict_replies_match_in_process_inference_and_cache_models() {
        // 40 samples: three shared chunks (16 + 16 + 8).
        let req = "{\"op\":\"predict\",\"model\":\"lenet5\",\"samples\":40,\
                   \"wbits\":6,\"abits\":8}\n";
        let state = ServeState::new();
        let mut out = Vec::new();
        let opts = ServeOpts {
            threads: 2,
            queue: 4,
            ..ServeOpts::default()
        };
        let two = format!("{req}{req}");
        serve_session(Cursor::new(two), &mut out, &opts, &state).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // Identical requests, identical replies (modulo the echoed id).
        assert_eq!(
            lines[0].replacen("\"id\":0", "\"id\":1", 1),
            lines[1].to_string()
        );
        // One model served both requests.
        assert_eq!(state.cached_models(), 1);
        // And the predictions are exactly predict_all's over the whole
        // dataset.
        let spec = ModelSpec::resolve("lenet5", None, None, 1).unwrap();
        let config = QuantConfig::uniform(spec.build().layer_count(), 6, 8);
        let expected = spec
            .build()
            .predict_all(&spec.dataset(40, 2), &config)
            .unwrap();
        assert_eq!(expected.len(), 40);
        let rendered: Vec<String> = expected.iter().map(ToString::to_string).collect();
        assert!(
            lines[0].contains(&format!("\"predictions\":[{}]", rendered.join(","))),
            "{}",
            lines[0]
        );
    }

    /// Geometry beyond the paper's networks would abort the process on
    /// allocation, which catching a panic cannot contain, so it is an
    /// error reply and the session answers the next request.
    #[test]
    fn oversized_model_geometry_is_rejected_and_the_session_continues() {
        let input = "{\"op\":\"predict\",\"model\":\"alexnet\",\"input\":200000}\n\
                     {\"op\":\"predict\",\"model\":\"vgg16\",\"scale\":100000}\n\
                     {\"op\":\"predict\",\"samples\":2}\n";
        let (out, outcome) = serve_bytes(input, 2, 4);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        for (line, head, detail) in [
            (lines[0], "{\"id\":0,\"ok\":false,", "at most 227x227"),
            (lines[1], "{\"id\":1,\"ok\":false,", "at most 1"),
            (lines[2], "{\"id\":2,\"ok\":true,", "\"predictions\":["),
        ] {
            assert!(line.starts_with(head) && line.contains(detail), "{line}");
        }
        assert_eq!(outcome.served, 3);
    }

    #[test]
    fn blank_lines_are_skipped_and_ids_keep_counting() {
        let (out, _) = serve_bytes("\n\n{\"op\":\"ping\"}\n\n{\"op\":\"ping\"}\n", 1, 2);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,"));
        assert!(lines[1].starts_with("{\"id\":1,"));
    }

    #[test]
    fn model_cache_recovers_from_poison() {
        let state = Arc::new(ServeState::new());
        // Warm the cache, then poison its lock from a panicking thread —
        // the shape a contained mid-build panic leaves behind.
        let spec = ModelSpec::resolve("lenet5", None, None, 1).unwrap();
        let _ = state.model_for(&spec);
        assert_eq!(state.cached_models(), 1);
        let poisoner = Arc::clone(&state);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.models.lock().expect("first lock is clean");
            panic!("poison the model cache");
        })
        .join();
        assert!(state.models.is_poisoned());
        // Recovery: the stale entries are dropped, the flag cleared, and
        // predict works again for the rest of the session.
        assert_eq!(state.cached_models(), 0);
        assert!(!state.models.is_poisoned());
        let rebuilt = state.model_for(&spec);
        assert_eq!(state.cached_models(), 1);
        drop(rebuilt);
        let (out, _) = serve_bytes("{\"op\":\"predict\",\"samples\":2}\n", 1, 1);
        assert!(out.contains("\"ok\":true"), "{out}");
    }

    #[test]
    fn model_cache_is_bounded_and_evicts_least_recently_used() {
        let predict =
            |seed: u64| format!("{{\"op\":\"predict\",\"samples\":2,\"model_seed\":{seed}}}\n");
        let serve = |state: &ServeState, input: &str| {
            let mut out = Vec::new();
            serve_session(
                Cursor::new(input.to_string()),
                &mut out,
                &ServeOpts::default(),
                state,
            )
            .expect("in-memory serve cannot fail on io");
            String::from_utf8(out).expect("replies are utf-8")
        };
        // The bytes one LeNet-5 holds after a predict at the default
        // widths: its `f32` weights and its 16-bit weight panels.
        let net = ModelSpec::resolve("lenet5", None, None, 1).unwrap().build();
        net.warm_weights(&QuantConfig::uniform(net.layer_count(), 16, 16))
            .unwrap();
        let lenet = weight_bytes(&net) + net.packed_bytes();
        // A count bound of two, and a byte bound that holds two LeNet-5s.
        for (max_models, max_bytes) in [(2, usize::MAX), (usize::MAX, 2 * lenet + lenet / 2)] {
            let state = ServeState::with_limits(max_models, max_bytes);
            let first = serve(&state, &predict(1));
            serve(&state, &predict(2));
            // Seed 1 is now the more recent, so seed 3 evicts seed 2.
            assert_eq!(serve(&state, &predict(1)), first);
            serve(&state, &predict(3));
            assert_eq!(state.cached_models(), 2);
            let seeds: Vec<u64> = state.lock_models().entries.keys().map(|k| k.seed).collect();
            assert!(seeds.contains(&1) && seeds.contains(&3), "{seeds:?}");
            for seed in 4..8 {
                serve(&state, &predict(seed));
                assert_eq!(state.cached_models(), 2);
            }
            // Seed 1 was evicted; rebuilt, it replies with the same bytes.
            assert_eq!(serve(&state, &predict(1)), first);
            assert_eq!(state.lock_models().bytes(), 2 * lenet);
        }
    }

    /// The byte bound counts the weight panels a cached network packs,
    /// and re-reads them at every lookup: a bound that holds two LeNet-5s'
    /// `f32` weights, but not their panels at every width, evicts the
    /// older network once the newer one packs its widths. The evicted
    /// network, rebuilt, replies with the same bytes.
    #[test]
    fn model_cache_bound_counts_packed_panels() {
        let predict = |seed: u64, bits: u32| {
            format!(
                "{{\"op\":\"predict\",\"samples\":2,\"model_seed\":{seed},\
                 \"wbits\":{bits},\"abits\":{bits}}}\n"
            )
        };
        let serve = |state: &ServeState, input: &str| {
            let mut out = Vec::new();
            serve_session(
                Cursor::new(input.to_string()),
                &mut out,
                &ServeOpts::default(),
                state,
            )
            .expect("in-memory serve cannot fail on io");
            String::from_utf8(out).expect("replies are utf-8")
        };
        let net = ModelSpec::resolve("lenet5", None, None, 1).unwrap().build();
        let f32_bytes = weight_bytes(&net);
        assert_eq!(net.packed_bytes(), 0, "panels are packed on first use");
        for bits in 1..=16 {
            net.warm_weights(&QuantConfig::uniform(net.layer_count(), bits, bits))
                .unwrap();
        }
        let panels = net.packed_bytes();
        assert!(panels > 2 * f32_bytes, "{panels} panel bytes");
        let state = ServeState::with_limits(usize::MAX, 2 * f32_bytes + panels + panels / 2);
        let first: Vec<String> = (1..=16)
            .map(|bits| serve(&state, &predict(1, bits)))
            .collect();
        serve(&state, &predict(2, 1));
        assert_eq!(state.cached_models(), 2, "both networks' f32 weights fit");
        for bits in 2..=16 {
            serve(&state, &predict(2, bits));
        }
        let seeds: Vec<u64> = state.lock_models().entries.keys().map(|k| k.seed).collect();
        assert_eq!(seeds, [2], "the older network is evicted");
        assert_eq!(state.lock_models().bytes(), f32_bytes + panels);
        for (bits, reply) in (1..=16).zip(&first) {
            assert_eq!(&serve(&state, &predict(1, bits)), reply, "wbits {bits}");
        }
    }

    #[test]
    fn oversized_lines_are_drained_not_buffered() {
        // An over-cap line gets an ordered error reply; the requests on
        // either side are answered exactly as if it had been well-formed.
        let huge = format!(
            "{{\"op\":\"ping\",\"pad\":\"{}\"}}",
            "x".repeat(MAX_REQUEST_BYTES)
        );
        let input = format!("{{\"op\":\"ping\"}}\n{huge}\n{{\"op\":\"list\"}}\n");
        let (out, outcome) = serve_bytes(&input, 2, 4);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"op\":\"ping\""));
        assert!(lines[1].contains("\"ok\":false"), "{}", lines[1]);
        assert!(
            lines[1].contains(&format!("exceeds {MAX_REQUEST_BYTES} bytes")),
            "{}",
            lines[1]
        );
        assert!(lines[1].starts_with("{\"id\":1,"));
        assert!(lines[2].contains("\"scenarios\""));
        assert_eq!(outcome.served, 3);

        // Exactly at the cap is still a (merely unparseable) request,
        // pinning the boundary.
        let at_cap = "x".repeat(MAX_REQUEST_BYTES);
        let (out, _) = serve_bytes(&format!("{at_cap}\n"), 1, 1);
        assert!(out.contains("unparseable request"), "{out}");
        let over_cap = "x".repeat(MAX_REQUEST_BYTES + 1);
        let (out, _) = serve_bytes(&format!("{over_cap}\n"), 1, 1);
        assert!(out.contains("exceeds"), "{out}");
    }

    #[test]
    fn invalid_utf8_line_gets_error_reply_and_session_continues() {
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"{\"op\":\"ping\"}\n");
        input.extend_from_slice(&[0xff, 0xfe, b'{', 0x80, b'\n']);
        input.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let state = ServeState::new();
        let mut out = Vec::new();
        let outcome = serve_session(
            Cursor::new(input),
            &mut out,
            &ServeOpts {
                threads: 2,
                queue: 2,
                ..ServeOpts::default()
            },
            &state,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"ok\":true"));
        assert_eq!(
            lines[1],
            "{\"id\":1,\"ok\":false,\"error\":\"request is not valid UTF-8\"}"
        );
        assert!(lines[2].contains("\"ok\":true"));
        assert_eq!(outcome.served, 3);
        assert!(!outcome.timed_out);
    }

    #[test]
    fn injected_panic_is_contained_to_its_request() {
        let input = "{\"op\":\"ping\"}\n\
                     {\"id\":9,\"op\":\"ping\"}\n\
                     {\"op\":\"list\"}\n";
        let (clean, _) = serve_bytes(input, 3, 4);
        let opts = ServeOpts {
            threads: 3,
            queue: 4,
            fault_plan: Some(FaultPlan::parse("panic@1").unwrap()),
            ..ServeOpts::default()
        };
        let (out, outcome) = serve_with_opts(input, &opts);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        // The faulted request: ordered error reply, explicit id echoed.
        assert_eq!(
            lines[1],
            "{\"id\":9,\"ok\":false,\"error\":\"internal: injected fault: \
             panic at request 1\"}"
        );
        // Its neighbors: byte-identical to the fault-free run.
        let clean_lines: Vec<&str> = clean.lines().collect();
        assert_eq!(lines[0], clean_lines[0]);
        assert_eq!(lines[2], clean_lines[2]);
        assert_eq!(outcome.served, 3);
    }

    #[test]
    fn deadline_discards_overrunning_results_deterministically() {
        // delay(60) ≫ deadline(1): the run result is computed, then
        // discarded in favor of the deadline error. Cheap ops (ping) are
        // not deadline-checked, so a delayed ping still answers normally.
        let input = "{\"op\":\"run\",\"scenario\":\"fig2\",\"format\":\"json\",\"fast\":true}\n\
                     {\"op\":\"ping\"}\n";
        let opts = ServeOpts {
            threads: 2,
            queue: 2,
            deadline_ms: Some(1),
            fault_plan: Some(FaultPlan::parse("delay@0:60,delay@1:60").unwrap()),
            ..ServeOpts::default()
        };
        let (out, _) = serve_with_opts(input, &opts);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\":0,\"ok\":false,\"error\":\"deadline: request exceeded \
             1ms; result discarded\"}"
        );
        assert!(lines[1].contains("\"op\":\"ping\""), "{}", lines[1]);
        // Without the delays the same deadline is never tripped by the
        // fast ops themselves... a generous deadline keeps run intact.
        let opts = ServeOpts {
            threads: 2,
            queue: 2,
            deadline_ms: Some(600_000),
            ..ServeOpts::default()
        };
        let (out, _) = serve_with_opts(input, &opts);
        assert!(out.lines().next().unwrap().contains("\"ok\":true"));
    }

    #[test]
    fn max_requests_caps_the_session_cleanly() {
        let input = "{\"op\":\"ping\"}\n".repeat(5);
        let opts = ServeOpts {
            threads: 2,
            queue: 4,
            max_requests: Some(3),
            ..ServeOpts::default()
        };
        let (out, outcome) = serve_with_opts(&input, &opts);
        assert_eq!(out.lines().count(), 3);
        assert_eq!(outcome.served, 3);
        assert!(!outcome.shutdown);
        assert!(!outcome.timed_out);
    }

    #[test]
    fn reply_stream_is_identical_across_worker_counts() {
        // The 40- and 33-sample predicts are 3 shared chunks each.
        let input = "{\"op\":\"ping\"}\n\
                     {\"op\":\"predict\",\"samples\":3,\"wbits\":5,\"abits\":7}\n\
                     {\"op\":\"predict\",\"samples\":40,\"wbits\":4,\"abits\":6}\n\
                     {\"op\":\"list\"}\n\
                     bad\n\
                     {\"op\":\"predict\",\"samples\":33,\"data_seed\":9}\n\
                     {\"op\":\"predict\",\"samples\":2}\n\
                     {\"op\":\"shutdown\"}\n";
        let (baseline, _) = serve_bytes(input, 1, 1);
        for (threads, queue) in [(2, 1), (3, 2), (4, 8), (5, 4), (6, 6), (7, 2), (8, 3)] {
            let (out, outcome) = serve_bytes(input, threads, queue);
            assert_eq!(
                out, baseline,
                "replies diverged at {threads} threads / queue {queue}"
            );
            assert!(outcome.shutdown);
            assert_eq!(outcome.served, 8);
        }
    }
}
