//! `perfbench` — the in-process half of the repository benchmark.
//!
//! `run.py` (next to this package) drives the shipped `dvafs` binary from
//! outside and calls this program for what needs the library:
//!
//! ```text
//! perfbench pass   --seed N --threads T --scenarios a,b --out DIR [--oracle]
//! perfbench expect                        < predict requests (NDJSON)
//! perfbench trace  --seed N --out DIR --serve-lines F --serve-latencies F
//! perfbench tech
//! ```
//!
//! * `pass` is one `dvafs run <ids> --format json --out DIR` with the
//!   benchmark seed threaded through `ScenarioCtx`; `--oracle` selects the
//!   retained reference paths (`SearchStrategy::Rescan`, `Engine::Scalar`).
//! * `expect` answers each predict request line with the predictions of a
//!   direct `Network::predict_all` call on the same generated inputs, on
//!   two threads (the predictions do not depend on the thread count).
//! * `trace` times each layer's public entry points inside spans and
//!   prints the per-layer metrics as one JSON object.
//! * `tech` times the first `Technology` calibration of a fresh process.

mod serve_probe;
mod suite;
mod trace;

use dvafs::arith::netlist::Engine;
use dvafs::nn::models::ModelSpec;
use dvafs::nn::network::QuantConfig;
use dvafs::nn::{Network, SearchStrategy};
use dvafs::report::json::{self, JsonValue};
use dvafs::scenario::{self, Format, ScenarioCtx, EXPERIMENT_SEED};
use dvafs::tech::Technology;
use dvafs::Executor;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `--key value` options after the subcommand.
struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            if key == "oracle" {
                map.insert(key.to_string(), "1".to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} wants an integer, got {v:?}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

/// The `ScenarioCtx` seed of benchmark seed `n`: seed 0 is the paper's
/// [`EXPERIMENT_SEED`], whose outputs the golden fixtures pin. The offset
/// is kept below 2^32 so the scenarios' `seed + k` derivations never wrap.
pub fn scenario_seed(n: u64) -> u64 {
    EXPERIMENT_SEED + (n & 0xFFFF_FFFF)
}

/// The scenario context of a benchmark pass.
pub fn pass_ctx(n: u64, threads: usize, oracle: bool) -> ScenarioCtx {
    let ctx = ScenarioCtx::new()
        .with_seed(scenario_seed(n))
        .with_threads(threads);
    if oracle {
        ctx.with_search(SearchStrategy::Rescan)
            .with_engine(Engine::Scalar)
    } else {
        ctx
    }
}

fn cmd_pass(o: &Opts) -> Result<(), String> {
    let ctx = pass_ctx(
        o.num("seed", 0)?,
        o.num("threads", 2)? as usize,
        o.flag("oracle"),
    );
    let out = PathBuf::from(o.req("out")?);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    for id in o.req("scenarios")?.split(',') {
        let s = scenario::find(id).ok_or_else(|| format!("unknown scenario {id:?}"))?;
        let rendered = scenario::render(s.label(), s.title(), &s.run(&ctx), Format::Json);
        let path = out.join(format!("{id}.json"));
        std::fs::write(&path, rendered)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// One parsed `predict` request of the benchmark's serve mix.
pub struct PredictReq {
    pub model: String,
    pub model_seed: u64,
    pub samples: usize,
    pub data_seed: u64,
    pub wbits: u32,
    pub abits: u32,
}

impl PredictReq {
    pub fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let num = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("predict request lacks numeric {k:?}"))
        };
        Ok(PredictReq {
            model: doc
                .get("model")
                .and_then(JsonValue::as_str)
                .ok_or("predict request lacks \"model\"")?
                .to_string(),
            model_seed: num("model_seed")?,
            samples: num("samples")? as usize,
            data_seed: num("data_seed")?,
            wbits: num("wbits")? as u32,
            abits: num("abits")? as u32,
        })
    }
}

/// Networks of the serve mix, built once per (model, seed) at the
/// serve-default geometry — the same cache key `dvafs serve` uses.
#[derive(Default)]
pub struct Models(HashMap<(String, u64), (ModelSpec, Arc<Network>)>);

impl Models {
    pub fn get(&mut self, model: &str, seed: u64) -> Result<(ModelSpec, Arc<Network>), String> {
        if let Some(hit) = self.0.get(&(model.to_string(), seed)) {
            return Ok(hit.clone());
        }
        let spec = ModelSpec::resolve(model, None, None, seed)?;
        let net = Arc::new(spec.build());
        self.0
            .insert((model.to_string(), seed), (spec.clone(), Arc::clone(&net)));
        Ok((spec, net))
    }
}

/// The predictions a direct `predict_all` call gives for one request.
pub fn direct_predict(
    spec: &ModelSpec,
    net: &Network,
    r: &PredictReq,
) -> Result<Vec<usize>, String> {
    let config = QuantConfig::uniform(net.layer_count(), r.wbits, r.abits);
    net.predict_all(&spec.dataset(r.samples, r.data_seed), &config)
        .map_err(|e| e.to_string())
}

fn cmd_expect() -> Result<(), String> {
    let mut reqs = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if !line.trim().is_empty() {
            reqs.push(PredictReq::from_json(&json::parse(&line)?)?);
        }
    }
    let mut models = Models::default();
    let nets: Vec<(ModelSpec, Arc<Network>)> = reqs
        .iter()
        .map(|r| models.get(&r.model, r.model_seed))
        .collect::<Result<_, _>>()?;
    let exec = Executor::new(2);
    let idx: Vec<usize> = (0..reqs.len()).collect();
    let answers = exec.par_map_indexed(&idx, |_, &i| {
        direct_predict(&nets[i].0, &nets[i].1, &reqs[i])
    });
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for a in answers {
        let preds = a?;
        let text: Vec<String> = preds.iter().map(ToString::to_string).collect();
        writeln!(out, "[{}]", text.join(",")).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

fn cmd_tech() -> Result<(), String> {
    let t0 = Instant::now();
    let lp = Technology::lp40();
    let fd = Technology::fdsoi28();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box((lp, fd));
    println!("{ms:.6}");
    Ok(())
}

fn cmd_trace(o: &Opts) -> Result<(), String> {
    let out = PathBuf::from(o.req("out")?);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let metrics = suite::run(
        o.num("seed", 0)?,
        &out,
        Path::new(o.req("serve-lines")?),
        Path::new(o.req("serve-latencies")?),
    )?;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\":{{\"value\":{value:e},\"unit\":\"{}\"}}",
                json::escape(name),
                json::escape(unit)
            )
        })
        .collect();
    println!("{{{}}}", body.join(","));
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        None => Err("usage: perfbench pass|expect|trace|tech [--key value ...]".to_string()),
        Some((cmd, rest)) => Opts::parse(rest).and_then(|o| match cmd.as_str() {
            "pass" => cmd_pass(&o),
            "expect" => cmd_expect(),
            "trace" => cmd_trace(&o),
            "tech" => cmd_tech(),
            other => Err(format!("unknown subcommand {other:?}")),
        }),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
