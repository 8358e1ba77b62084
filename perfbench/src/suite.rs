//! The per-layer suite of the traced run: each layer's public entry
//! points, timed from outside inside [`Tracer`] spans.
//!
//! Geometries follow the benchmark's two uses of the networks:
//!
//! * `nn.models`, `nn.kernel` and `nn.network` rows use the `dvafs serve`
//!   defaults (`ModelSpec::resolve` with no input/scale);
//! * `nn.layers`, `nn.quant`, `simd.gemm` and `nn.precision` rows use the
//!   paper-scale precision-search geometries of fig6 / fig6_vgg
//!   (AlexNet 67 px x 0.25, VGG16 32 px x 0.125).
//!
//! Weight/activation pairs are named by subword mode, weights first:
//! `x1` = 16-bit, `x2` = 8-bit, `x4` = 4-bit.

use crate::serve_probe;
use crate::trace::Tracer;
use crate::{pass_ctx, scenario_seed};
use dvafs::arith::multiplier::DvafsMultiplier;
use dvafs::arith::netlist::Engine;
use dvafs::arith::{activity, Precision, SubwordMode};
use dvafs::envision::measure::table3_with;
use dvafs::envision::{EnvisionChip, LayerRun};
use dvafs::nn::dataset::SyntheticDataset;
use dvafs::nn::layers::Layer;
use dvafs::nn::models::{self, ModelSpec};
use dvafs::nn::network::QuantConfig;
use dvafs::nn::precision::{prediction_diversity, Operand, PrecisionSearch};
use dvafs::nn::quant::QuantizedTensor;
use dvafs::nn::{Network, Scratch, Tensor};
use dvafs::scenario::{self, Format};
use dvafs::simd::gemm::{gemm_packed, PackedPanel};
use dvafs::simd::kernels::ConvKernel;
use dvafs::simd::{ProcConfig, Processor};
use dvafs::tech::ScalingMode;
use dvafs::Executor;
use std::fmt::Write as _;
use std::path::Path;

/// `(name, value, unit)` of every metric, in emission order.
pub type Metrics = Vec<(String, f64, String)>;

const MODELS: [&str; 3] = ["lenet5", "alexnet", "vgg16"];

/// The five (weight bits, activation bits) pairs, named by subword mode.
const PAIRS: [(&str, u32, u32); 5] = [
    ("x1x1", 16, 16),
    ("x2x2", 8, 8),
    ("x4x4", 4, 4),
    ("x2x1", 8, 16),
    ("x1x2", 16, 8),
];

/// Samples per batch in the layer and GEMM rows (the default layer-major
/// chunk).
const BATCH: usize = 16;

pub fn push(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &str) {
    m.push((name.into(), value, unit.to_string()));
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median self time in ns of `f`, over at least `min_reps` calls and at
/// least `min_ms` of measured time (capped at 400 calls).
fn bench<R>(
    t: &mut Tracer,
    name: &str,
    min_reps: usize,
    min_ms: f64,
    mut f: impl FnMut() -> R,
) -> f64 {
    bench_on(t, name, min_reps, min_ms, || (), |()| f())
}

/// [`bench`] with a fresh input from `setup` per call: only `f` is timed,
/// and its result is dropped outside the span.
fn bench_on<S, R>(
    t: &mut Tracer,
    name: &str,
    min_reps: usize,
    min_ms: f64,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> R,
) -> f64 {
    let mut times = Vec::new();
    let mut total = 0.0;
    while times.len() < min_reps || (total < min_ms * 1e6 && times.len() < 400) {
        let input = setup();
        let (_, ns) = t.time(name, times.len() as u64, || f(input));
        total += ns;
        times.push(ns);
    }
    median(&mut times)
}

fn mode_for_bits(bits: u32) -> SubwordMode {
    SubwordMode::for_precision(Precision::new(bits).expect("bench widths are 1..=16"))
}

/// Grid values of `data` quantized at `bits`, as the i16 lanes a GEMM panel
/// holds.
fn quantized_i16(data: Vec<f32>, bits: u32) -> Vec<i16> {
    let len = data.len();
    QuantizedTensor::quantize(&Tensor::from_vec(1, 1, len, data), bits)
        .expect("finite weights, valid width")
        .data
        .into_iter()
        .map(|q| q as i16)
        .collect()
}

/// A deterministic splitmix64 stream (the suite's own seeded inputs).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in the two's-complement range of `bits`-wide lanes.
    fn lane(&mut self, bits: u32) -> i16 {
        let span = 1u64 << bits;
        ((self.next() % span) as i64 - (span as i64 / 2)) as i16
    }
}

/// Runs the suite, writes `spans.jsonl`, `table3_layers.{json,txt}` and the
/// scenario renderings under `out`, and returns the metrics.
///
/// # Errors
///
/// Returns a message when an input file cannot be read or an output file
/// cannot be written, or when a network call fails.
pub fn run(
    seed: u64,
    out: &Path,
    serve_lines: &Path,
    serve_latencies: &Path,
) -> Result<Metrics, String> {
    let mut t = Tracer::new();
    let mut m = Metrics::new();
    let (result, _) = t.span("suite", seed, |t| -> Result<(), String> {
        serve_probe::measure(t, &mut m, serve_lines, serve_latencies)?;
        serve_models(t, &mut m, seed)?;
        let ceiling = gemm_ceiling(t, &mut m);
        let rows = layer_rows(t, &mut m, seed)?;
        write_table3(out, &rows, &ceiling)?;
        precision(t, &mut m, seed)?;
        executor(t, &mut m);
        scenarios(t, &mut m, seed, out)?;
        simulators(t, &mut m, seed);
        Ok(())
    });
    result?;
    t.write(&out.join("spans.jsonl"))
        .map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(m)
}

/// `nn.models`, `nn.kernel` and `nn.network` rows at the serve-default
/// geometries.
fn serve_models(t: &mut Tracer, m: &mut Metrics, seed: u64) -> Result<(), String> {
    let mut dataset_ns = 0.0;
    let mut dataset_samples = 0usize;
    for name in MODELS {
        let spec = ModelSpec::resolve(name, None, None, 2 * seed + 1)?;
        let build = bench(t, &format!("nn.models.{name}.build"), 5, 50.0, || {
            spec.build()
        });
        push(m, format!("nn.models.{name}.build_ms"), build / 1e6, "ms");
        let net = spec.build();
        let layers = net.layer_count();
        let warm8 = QuantConfig::uniform(layers, 8, 8);
        // A clone starts with cold weight caches: each repetition packs
        // every layer's panel from scratch. The clone is made outside the
        // span and dropped after it.
        let warm = bench_on(
            t,
            &format!("nn.kernel.{name}.warm"),
            5,
            50.0,
            || net.clone(),
            |fresh| fresh.warm_weights(&warm8).map(|()| fresh),
        );
        push(m, format!("nn.kernel.{name}.warm_ms"), warm / 1e6, "ms");
        let ds = bench(t, &format!("nn.models.{name}.dataset"), 5, 20.0, || {
            spec.dataset(64, seed)
        });
        dataset_ns += ds;
        dataset_samples += 64;
        let data = spec.dataset(BATCH, seed);
        let mut scratch = Scratch::new();
        for bits in [4u32, 8, 16] {
            let cfg = QuantConfig::uniform(layers, bits, bits);
            net.warm_weights(&cfg).map_err(|e| e.to_string())?;
            for (tag, n) in [("b1", 1usize), ("b16", BATCH)] {
                let inputs = &data.images()[..n];
                let ns = bench(
                    t,
                    &format!("nn.network.{name}.{bits}b.{tag}"),
                    5,
                    40.0,
                    || {
                        net.forward_batch(inputs, &cfg, &mut scratch)
                            .expect("serve-default forward")
                    },
                );
                push(
                    m,
                    format!("nn.network.{name}.{bits}b.{tag}.us_per_sample"),
                    ns / 1e3 / n as f64,
                    "us",
                );
            }
        }
    }
    push(
        m,
        "nn.models.dataset_us_per_sample",
        dataset_ns / 1e3 / dataset_samples as f64,
        "us",
    );
    Ok(())
}

/// Measured `gemm_packed` peak per pair on cache-resident 64 x 512 x 64
/// panels (128 KiB of operands at x1): the roofline ceiling each layer
/// rate is read against.
fn gemm_ceiling(t: &mut Tracer, m: &mut Metrics) -> Vec<(&'static str, f64)> {
    const M: usize = 64;
    const K: usize = 512;
    const N: usize = 64;
    let mut rng = Mix(0x5EED_CE11);
    let mut out = Vec::new();
    for (pair, wb, ab) in PAIRS {
        let (wm, am) = (mode_for_bits(wb), mode_for_bits(ab));
        let w: Vec<i16> = (0..M * K).map(|_| rng.lane(wm.lane_bits())).collect();
        let a: Vec<i16> = (0..N * K).map(|_| rng.lane(am.lane_bits())).collect();
        let (wp, ap) = (
            PackedPanel::pack(&w, M, K, wm),
            PackedPanel::pack(&a, N, K, am),
        );
        let mut acc = vec![0i64; M * N];
        let ns = bench(t, &format!("simd.gemm.ceiling.{pair}"), 10, 60.0, || {
            gemm_packed(&wp, &ap, &mut acc);
        });
        let gmacs = (M * K * N) as f64 / ns;
        push(
            m,
            format!("simd.gemm.ceiling.{pair}.gmacs"),
            gmacs,
            "GMAC/s",
        );
        out.push((pair, gmacs));
    }
    out
}

/// One (model, conv/dense layer, pair) row of the per-layer Table III.
pub struct LayerRow {
    model: &'static str,
    index: usize,
    layer: String,
    pair: &'static str,
    wbits: u32,
    abits: u32,
    /// Layer `forward_batch` time for one batch of [`BATCH`] samples.
    layer_ns: f64,
    /// MACs of that batch, from `LayerStats`.
    macs: u64,
    quant_ns: f64,
    gemm_ns: f64,
    /// MACs of the layer's GEMM shape (`m x k x n`, padding included).
    gemm_macs: u64,
    power_mw: f64,
}

impl LayerRow {
    fn gmacs(&self) -> f64 {
        self.macs as f64 / self.layer_ns
    }
}

/// The paper-scale search networks with their scenario datasets (fig6 and
/// fig6_vgg seeds), at [`BATCH`] samples.
fn search_networks(seed: u64) -> Vec<(&'static str, Network, SyntheticDataset)> {
    let s = scenario_seed(seed);
    vec![
        (
            "lenet5",
            models::lenet5(s),
            SyntheticDataset::digits(BATCH, s + 1),
        ),
        (
            "alexnet",
            models::alexnet(67, 0.25, s + 2),
            SyntheticDataset::image_like(BATCH, 67, 10, s + 3),
        ),
        (
            "vgg16",
            models::vgg16(32, 0.125, s + 4),
            SyntheticDataset::image_like(BATCH, 32, 10, s + 5),
        ),
    ]
}

/// Layer, quantization and GEMM rows at the search geometries. Each
/// conv/dense layer runs as a one-layer `Network` through `forward_batch`,
/// fed the full-precision activations that reach it.
fn layer_rows(t: &mut Tracer, m: &mut Metrics, seed: u64) -> Result<Vec<LayerRow>, String> {
    let chip = EnvisionChip::new();
    let mut rows = Vec::new();
    let mut pack = [(0.0f64, 0usize); 3]; // x1, x2, x4: (ns, words)
    for (model, net, data) in search_networks(seed) {
        let mut xs: Vec<Tensor> = data.images().to_vec();
        let mut scratch = Scratch::new();
        let mut quant = (0.0f64, 0usize);
        for (index, layer) in net.layers().iter().enumerate() {
            let one = Network::new(layer.name(), vec![layer.clone()]);
            let full = QuantConfig::uniform(1, 16, 16);
            let next: Vec<Tensor> = one
                .forward_batch(&xs, &full, &mut scratch)
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(|(o, _)| o)
                .collect();
            if layer.is_parameterized() {
                let (in_c, _, _) = xs[0].shape();
                let (_, oh, ow) = next[0].shape();
                let (rows_m, k, n_per, weights) = match layer {
                    Layer::Conv2d(c) => {
                        let kk = c.kernel();
                        (
                            c.out_channels(),
                            in_c * kk * kk,
                            oh * ow,
                            c.weights().to_vec(),
                        )
                    }
                    Layer::Dense(d) => {
                        let mut d = d.clone();
                        (d.outputs(), d.inputs(), 1, d.weights_mut().to_vec())
                    }
                    Layer::ReLU | Layer::MaxPool2d { .. } => unreachable!("parameterized"),
                };
                let n = n_per * BATCH;
                let elems: usize = xs.iter().map(Tensor::len).sum();
                for (pair, wb, ab) in PAIRS {
                    let cfg = QuantConfig::uniform(1, wb, ab);
                    // Serve and search keep packed weight panels; time the
                    // steady state, not the first pack.
                    one.warm_weights(&cfg).map_err(|e| e.to_string())?;
                    let stats: Vec<_> = one
                        .forward_batch(&xs, &cfg, &mut scratch)
                        .map_err(|e| e.to_string())?
                        .into_iter()
                        .map(|(_, s)| s[0])
                        .collect();
                    let macs: u64 = stats.iter().map(|s| s.macs).sum();
                    let zw: u64 = stats.iter().map(|s| s.zero_weight_macs).sum();
                    let za: u64 = stats.iter().map(|s| s.zero_act_macs).sum();
                    let tag = format!("{model}.{pair}.L{index}");
                    let layer_ns = bench(t, &format!("nn.layers.{tag}"), 5, 15.0, || {
                        one.forward_batch(&xs, &cfg, &mut scratch)
                            .expect("search-geometry forward")
                    });
                    let quant_ns = bench(t, &format!("nn.quant.{tag}"), 5, 5.0, || {
                        xs.iter()
                            .map(|x| QuantizedTensor::quantize(x, ab).expect("finite input"))
                            .collect::<Vec<_>>()
                    });
                    if (wb, ab) == (8, 8) {
                        quant.0 += quant_ns;
                        quant.1 += elems;
                    }
                    // GEMM operands of the same shape: the layer's weights
                    // and its real input grid values tiled over n x k.
                    let (wm, am) = (mode_for_bits(wb), mode_for_bits(ab));
                    let wq = quantized_i16(weights.clone(), wb);
                    let grid: Vec<i16> = xs
                        .iter()
                        .flat_map(|x| quantized_i16(x.as_slice().to_vec(), ab))
                        .collect();
                    let aq: Vec<i16> = grid.iter().copied().cycle().take(n * k).collect();
                    let wp = PackedPanel::pack(&wq, rows_m, k, wm);
                    let ap = PackedPanel::pack(&aq, n, k, am);
                    let mut acc = vec![0i64; rows_m * n];
                    let gemm_ns = bench(t, &format!("simd.gemm.{tag}"), 5, 10.0, || {
                        gemm_packed(&wp, &ap, &mut acc);
                    });
                    if wb == ab {
                        let slot = match wm {
                            SubwordMode::X1 => 0,
                            SubwordMode::X2 => 1,
                            SubwordMode::X4 => 2,
                        };
                        let ns = bench(t, &format!("simd.gemm.pack.{tag}"), 5, 5.0, || {
                            PackedPanel::pack(&wq, rows_m, k, wm)
                        });
                        pack[slot].0 += ns;
                        pack[slot].1 += wp.rows() * wp.words_per_row();
                    }
                    // Envision model of the same layer at the same widths,
                    // built the way cnn_layerwise builds its LayerRun.
                    let mode = mode_for_bits(wb.max(ab));
                    let lane = mode.lane_bits();
                    let mmacs = macs as f64 / BATCH as f64 / 1e6;
                    let run = LayerRun::dense(
                        mode,
                        200.0 / mode.lanes() as f64,
                        wb.min(lane),
                        ab.min(lane),
                        mmacs,
                    )
                    .named(layer.name())
                    .with_sparsity(
                        (zw as f64 / macs as f64).min(0.99),
                        (za as f64 / macs as f64).min(0.99),
                    )
                    .map_err(|e| e.to_string())?;
                    rows.push(LayerRow {
                        model,
                        index,
                        layer: layer.name(),
                        pair,
                        wbits: wb,
                        abits: ab,
                        layer_ns,
                        macs,
                        quant_ns,
                        gemm_ns,
                        gemm_macs: (rows_m * k * n) as u64,
                        power_mw: chip.power_mw(&run),
                    });
                }
            }
            xs = next;
        }
        push(
            m,
            format!("nn.quant.{model}.ns_per_elem"),
            quant.0 / quant.1 as f64,
            "ns",
        );
        for (pair, _, _) in PAIRS {
            let of = |r: &&LayerRow| r.model == model && r.pair == pair;
            let layer_ns: f64 = rows.iter().filter(of).map(|r| r.layer_ns).sum();
            let gemm_ns: f64 = rows.iter().filter(of).map(|r| r.gemm_ns).sum();
            let macs: u64 = rows.iter().filter(of).map(|r| r.macs).sum();
            let gemm_macs: u64 = rows.iter().filter(of).map(|r| r.gemm_macs).sum();
            push(
                m,
                format!("nn.layers.{model}.{pair}.gmacs"),
                macs as f64 / layer_ns,
                "GMAC/s",
            );
            push(
                m,
                format!("simd.gemm.{model}.{pair}.gmacs"),
                gemm_macs as f64 / gemm_ns,
                "GMAC/s",
            );
            if matches!(pair, "x1x1" | "x2x2" | "x4x4") {
                push(
                    m,
                    format!("nn.layers.{model}.{pair}.gemm_share"),
                    gemm_ns / layer_ns,
                    "ratio",
                );
            }
        }
    }
    for (slot, mode) in ["x1", "x2", "x4"].into_iter().enumerate() {
        push(
            m,
            format!("simd.gemm.pack_ns_per_word.{mode}"),
            pack[slot].0 / pack[slot].1 as f64,
            "ns",
        );
    }
    Ok(rows)
}

/// Writes the per-layer Table III artifact: one row per (model, layer,
/// pair) with time, MACs, rate, share of the ceiling, the quantize / GEMM /
/// remainder split and the Envision-modeled power, plus each layer's
/// measured x1 -> x2 -> x4 throughput ratio.
fn write_table3(out: &Path, rows: &[LayerRow], ceiling: &[(&str, f64)]) -> Result<(), String> {
    let ceil = |pair: &str| {
        ceiling
            .iter()
            .find(|(p, _)| *p == pair)
            .map_or(f64::NAN, |(_, g)| *g)
    };
    let mut json = String::from("{\"rows\":[\n");
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<8} {:>3} {:<14} {:<5} {:>11} {:>11} {:>7} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "model",
        "idx",
        "layer",
        "pair",
        "ns/batch",
        "MACs",
        "GMAC/s",
        "ceil%",
        "quant%",
        "gemm%",
        "rest%",
        "Env mW"
    );
    for (i, r) in rows.iter().enumerate() {
        let rest = (r.layer_ns - r.quant_ns - r.gemm_ns).max(0.0);
        let frac = r.gmacs() / ceil(r.pair);
        let _ = writeln!(
            json,
            "{{\"model\":\"{}\",\"index\":{},\"layer\":\"{}\",\"pair\":\"{}\",\"wbits\":{},\
             \"abits\":{},\"batch\":{BATCH},\"ns\":{:.1},\"macs\":{},\"gmacs\":{:.6},\
             \"ceiling_fraction\":{:.6},\"quantize_ns\":{:.1},\"gemm_ns\":{:.1},\
             \"remainder_ns\":{:.1},\"gemm_macs\":{},\"envision_mw\":{:.6}}}{}",
            r.model,
            r.index,
            r.layer,
            r.pair,
            r.wbits,
            r.abits,
            r.layer_ns,
            r.macs,
            r.gmacs(),
            frac,
            r.quant_ns,
            r.gemm_ns,
            rest,
            r.gemm_macs,
            r.power_mw,
            if i + 1 < rows.len() { "," } else { "" }
        );
        let _ = writeln!(
            text,
            "{:<8} {:>3} {:<14} {:<5} {:>11.0} {:>11} {:>7.3} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>8.2}",
            r.model,
            r.index,
            r.layer,
            r.pair,
            r.layer_ns,
            r.macs,
            r.gmacs(),
            frac * 100.0,
            r.quant_ns / r.layer_ns * 100.0,
            r.gemm_ns / r.layer_ns * 100.0,
            rest / r.layer_ns * 100.0,
            r.power_mw
        );
    }
    json.push_str("],\n\"subword_ratio\":[\n");
    let _ = writeln!(
        text,
        "\nmeasured throughput ratio per layer (paper: x2 buys 2x, x4 buys 4x)\n\
         {:<8} {:>3} {:<14} {:>9} {:>9} {:>10} {:>10}",
        "model", "idx", "layer", "x2/x1", "x4/x1", "gemm x2/x1", "gemm x4/x1"
    );
    let firsts: Vec<&LayerRow> = rows.iter().filter(|r| r.pair == "x1x1").collect();
    for (i, base) in firsts.iter().enumerate() {
        let at = |pair: &str| {
            rows.iter()
                .find(|r| r.model == base.model && r.index == base.index && r.pair == pair)
                .expect("every layer has every pair")
        };
        let (x2, x4) = (at("x2x2"), at("x4x4"));
        let layer_ratio = |r: &LayerRow| r.gmacs() / base.gmacs();
        let gemm_ratio = |r: &LayerRow| base.gemm_ns / r.gemm_ns;
        let _ = writeln!(
            json,
            "{{\"model\":\"{}\",\"index\":{},\"layer\":\"{}\",\"x2_over_x1\":{:.6},\
             \"x4_over_x1\":{:.6},\"gemm_x2_over_x1\":{:.6},\"gemm_x4_over_x1\":{:.6}}}{}",
            base.model,
            base.index,
            base.layer,
            layer_ratio(x2),
            layer_ratio(x4),
            gemm_ratio(x2),
            gemm_ratio(x4),
            if i + 1 < firsts.len() { "," } else { "" }
        );
        let _ = writeln!(
            text,
            "{:<8} {:>3} {:<14} {:>9.3} {:>9.3} {:>10.3} {:>10.3}",
            base.model,
            base.index,
            base.layer,
            layer_ratio(x2),
            layer_ratio(x4),
            gemm_ratio(x2),
            gemm_ratio(x4)
        );
    }
    json.push_str("],\n\"ceiling_gmacs\":{");
    let ceil_json: Vec<String> = ceiling
        .iter()
        .map(|(p, g)| format!("\"{p}\":{g:.6}"))
        .collect();
    json.push_str(&ceil_json.join(","));
    json.push_str("}}\n");
    for (name, body) in [("table3_layers.json", json), ("table3_layers.txt", text)] {
        std::fs::write(out.join(name), body).map_err(|e| format!("cannot write {name}: {e}"))?;
    }
    Ok(())
}

/// `nn.precision` rows: the fig6 / fig6_vgg searches on their scenario
/// networks and datasets, at 2 threads.
fn precision(t: &mut Tracer, m: &mut Metrics, seed: u64) -> Result<(), String> {
    let s = scenario_seed(seed);
    let exec = Executor::new(2);
    let search = PrecisionSearch::new();
    let cases = [
        (
            "lenet5",
            models::lenet5(s),
            SyntheticDataset::digits(48, s + 1),
        ),
        (
            "alexnet",
            models::alexnet(67, 0.25, s + 2),
            SyntheticDataset::image_like(24, 67, 10, s + 3),
        ),
        (
            "vgg16",
            models::vgg16(32, 0.125, s + 4),
            SyntheticDataset::image_like(12, 32, 10, s + 5),
        ),
    ];
    for (name, mut net, data) in cases {
        // The scenarios' degeneracy guard, so the search sees their network.
        if prediction_diversity(&net, &data) < 3 {
            net.calibrate_logits(&data);
        }
        let full = QuantConfig::uniform(net.layer_count(), 16, 16);
        let mut scratch = Scratch::new();
        let prefix = bench(t, &format!("nn.precision.{name}.prefix"), 5, 20.0, || {
            for chunk in data.images().chunks(BATCH) {
                net.forward_batch(chunk, &full, &mut scratch)
                    .expect("full-precision forward");
            }
        });
        push(
            m,
            format!("nn.precision.{name}.prefix_ms"),
            prefix / 1e6,
            "ms",
        );
        let mut evals = 0u64;
        for (tag, operand) in [
            ("weights", Operand::Weights),
            ("activations", Operand::Activations),
        ] {
            let result = search.search_with(&net, &data, operand, &exec);
            // The scan walks 15 -> 1 and stops after the first width that
            // misses the target: min(17 - bits, 15) widths per layer.
            evals += result
                .iter()
                .map(|r| u64::from((17 - r.bits).min(15)) * data.len() as u64)
                .sum::<u64>();
            let ns = bench(t, &format!("nn.precision.{name}.{tag}"), 3, 0.0, || {
                search.search_with(&net, &data, operand, &exec)
            });
            push(
                m,
                format!("nn.precision.{name}.{tag}.search_ms"),
                ns / 1e6,
                "ms",
            );
        }
        push(
            m,
            format!("nn.precision.{name}.candidate_evals"),
            evals as f64,
            "count",
        );
    }
    Ok(())
}

/// `executor` rows: the cost of one parallel map and of the ordered
/// pipeline on 2 threads, over trivial items.
fn executor(t: &mut Tracer, m: &mut Metrics) {
    let exec = Executor::new(2);
    let items = [1u64, 2];
    let ns = bench(t, "executor.par_map", 200, 100.0, || {
        exec.par_map_indexed(&items, |i, &x| x.wrapping_mul(i as u64 + 3))
    });
    push(m, "executor.par_map_us", ns / 1e3, "us");
    const ITEMS: u64 = 2000;
    let ns = bench(t, "executor.pipeline", 5, 50.0, || {
        let mut sum = 0u64;
        exec.pipeline_ordered(
            4,
            0..ITEMS,
            |_, x| x.wrapping_mul(3),
            |_, r| {
                sum = sum.wrapping_add(r);
            },
        );
        sum
    });
    push(
        m,
        "executor.pipeline_us_per_item",
        ns / 1e3 / ITEMS as f64,
        "us",
    );
}

/// `scenario` rows: `Scenario::run` of every benchmarked scenario at the
/// benchmark seed and 2 threads, plus the JSON rendering. Renderings land
/// under `out/scenarios/` for the caller to check.
fn scenarios(t: &mut Tracer, m: &mut Metrics, seed: u64, out: &Path) -> Result<(), String> {
    const IDS: [&str; 12] = [
        "fig6",
        "fig6_vgg",
        "cnn_layerwise",
        "fig2",
        "fig3a",
        "fig3b",
        "fig4",
        "fig8",
        "table1",
        "table2",
        "table3",
        "ablations",
    ];
    let dir = out.join("scenarios");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let ctx = pass_ctx(seed, 2, false);
    let mut render_ns = 0.0;
    for id in IDS {
        let s = scenario::find(id).ok_or_else(|| format!("unknown scenario {id}"))?;
        let reps = if matches!(id, "fig6" | "fig6_vgg") {
            3
        } else {
            5
        };
        let ns = bench(t, &format!("scenario.{id}"), reps, 0.0, || s.run(&ctx));
        push(m, format!("scenario.{id}.ms"), ns / 1e6, "ms");
        let result = s.run(&ctx);
        render_ns += bench(t, &format!("scenario.{id}.render"), 20, 5.0, || {
            scenario::render(s.label(), s.title(), &result, Format::Json)
        });
        let rendered = scenario::render(s.label(), s.title(), &result, Format::Json);
        std::fs::write(dir.join(format!("{id}.json")), rendered)
            .map_err(|e| format!("cannot write rendering of {id}: {e}"))?;
    }
    push(
        m,
        "scenario.render_json_us",
        render_ns / 1e3 / IDS.len() as f64,
        "us",
    );
    Ok(())
}

/// `arith`, `simd.processor` and `envision` rows: the simulators behind
/// the paper figures.
fn simulators(t: &mut Tracer, m: &mut Metrics, seed: u64) {
    let mut rng = Mix(scenario_seed(seed));
    let mult = DvafsMultiplier::new();
    let gates = mult.build_netlist().gate_count() as f64;
    let pairs: Vec<(u16, u16)> = (0..4096)
        .map(|_| (rng.next() as u16, rng.next() as u16))
        .collect();
    let mut ns = 0.0;
    for mode in SubwordMode::ALL {
        ns += bench(t, &format!("arith.simulate_stream.{mode}"), 5, 20.0, || {
            mult.simulate_stream_with(&pairs, mode, Engine::Bitsliced)
        });
    }
    push(
        m,
        "arith.gate_evals_per_s",
        gates * pairs.len() as f64 * SubwordMode::ALL.len() as f64 / (ns / 1e9),
        "1/s",
    );
    let exec = Executor::new(2);
    const PROFILE_SAMPLES: usize = 200;
    let das = bench(t, "arith.das_profile", 5, 20.0, || {
        activity::extract_das_profile_with(PROFILE_SAMPLES, seed, Engine::Bitsliced, &exec)
    });
    push(
        m,
        "arith.profile_samples_per_s.das",
        PROFILE_SAMPLES as f64 / (das / 1e9),
        "1/s",
    );
    let dvafs = bench(t, "arith.dvafs_profile", 5, 20.0, || {
        activity::extract_dvafs_profile_with(PROFILE_SAMPLES, seed, Engine::Bitsliced, &exec)
    });
    push(
        m,
        "arith.profile_samples_per_s.dvafs",
        PROFILE_SAMPLES as f64 / (dvafs / 1e9),
        "1/s",
    );

    // fig4's kernel over fig4's whole grid, serially.
    let kernel = ConvKernel::random(25, 2048, scenario_seed(seed));
    let grid: Vec<(usize, ScalingMode, u32)> = [8usize, 64]
        .into_iter()
        .flat_map(|sw| {
            ScalingMode::precision_grid()
                .into_iter()
                .map(move |(mode, b)| (sw, mode, b))
        })
        .collect();
    let mut cycles = 0u64;
    let mut ns = 0.0;
    for (sw, mode, bits) in grid {
        let proc = Processor::new(ProcConfig::new(sw, mode, bits).expect("fig4 grid is valid"));
        let report = proc.run_kernel(&kernel).expect("fig4 kernel runs");
        cycles += report.run.cycles;
        ns += bench(
            t,
            &format!("simd.processor.{sw}.{mode}.{bits}"),
            3,
            5.0,
            || proc.run_kernel(&kernel).expect("fig4 kernel runs"),
        );
    }
    push(
        m,
        "simd.processor.cycles_per_s",
        cycles as f64 / (ns / 1e9),
        "1/s",
    );

    let chip = EnvisionChip::new();
    let ns = bench(t, "envision.table3", 20, 20.0, || table3_with(&chip, &exec));
    push(m, "envision.table3_us", ns / 1e3, "us");
}
