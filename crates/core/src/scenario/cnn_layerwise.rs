//! Layer-wise precision tuning of a CNN and its energy on Envision —
//! the paper's Section IV/V flow end to end.
//!
//! Searches each LeNet-5 layer's minimum precision at 99 % relative
//! accuracy (Fig. 6 methodology), measures the sparsity the tuned
//! network actually exhibits, then runs the layers on the Envision chip
//! model at their individual operating points (Table III style) and
//! compares against all-16-bit execution (`dvafs run cnn_layerwise`).

use super::{DataTable, Scenario, ScenarioCtx, ScenarioResult};
use crate::report::{fmt_f, TextTable};
use dvafs_arith::{Precision, SubwordMode};
use dvafs_envision::chip::EnvisionChip;
use dvafs_envision::workload::LayerRun;
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::models;
use dvafs_nn::network::QuantConfig;
use dvafs_nn::precision::{Operand, PrecisionSearch};
use dvafs_nn::sparsity::{measure_sparsity, prune_to_sparsity};

/// The end-to-end tuning scenario (`dvafs run cnn_layerwise`).
pub struct CnnLayerwise;

impl Scenario for CnnLayerwise {
    fn id(&self) -> &'static str {
        "cnn_layerwise"
    }

    fn label(&self) -> &'static str {
        "Sec. IV/V"
    }

    fn title(&self) -> &'static str {
        "layer-wise CNN precision tuning on Envision"
    }

    fn fast_note(&self) -> &'static str {
        "shrinks the dataset (48->16 samples)"
    }

    fn run(&self, ctx: &ScenarioCtx) -> ScenarioResult {
        let exec = ctx.executor();
        let mut r = ScenarioResult::new();
        if ctx.fast {
            r.line("(--fast: reduced dataset, figures not paper-scale)\n");
        }
        let samples = if ctx.fast { 16 } else { 48 };

        // A LeNet-5 with realistic (pruned) weight sparsity.
        let mut net = models::lenet5(ctx.seed + 6).with_kernel(ctx.kernel);
        prune_to_sparsity(&mut net, 0.3);
        let data = SyntheticDataset::digits(samples, ctx.seed + 7);
        if dvafs_nn::precision::prediction_diversity(&net, &data) < 3 {
            net.calibrate_logits(&data);
        }

        // Fig. 6-style search: per-layer minimum bits at 99% rel. accuracy.
        let search = PrecisionSearch::new().with_strategy(ctx.search);
        let wreqs = search.search_with(&net, &data, Operand::Weights, exec);
        let areqs = search.search_with(&net, &data, Operand::Activations, exec);

        // Measure per-layer sparsity at the found precisions.
        let cfg = search.to_config(&net, &wreqs, &areqs);
        let sparsity = measure_sparsity(&net, &data, &cfg);

        let chip = EnvisionChip::new();
        let mut t = TextTable::new(vec![
            "layer", "wght[b]", "in[b]", "mode", "f[MHz]", "wsp%", "isp%", "P[mW]", "TOPS/W",
        ]);
        let mut table = DataTable::new(
            "cnn_layerwise",
            vec![
                "layer",
                "weight_bits",
                "input_bits",
                "mode",
                "f_mhz",
                "weight_sparsity",
                "input_sparsity",
                "power_mw",
                "tops_per_w",
            ],
        );
        let mut tuned_energy_mj = 0.0;
        let mut full_energy_mj = 0.0;
        for ((w, a), sp) in wreqs.iter().zip(areqs.iter()).zip(sparsity.iter()) {
            let bits = w.bits.max(a.bits);
            let mode =
                SubwordMode::for_precision(Precision::new(bits).expect("search bits are valid"));
            let f_mhz = 200.0 / mode.lanes() as f64;
            let mmacs = sp.macs_per_input as f64 / 1e6;
            let layer = LayerRun::dense(
                mode,
                f_mhz,
                w.bits.min(mode.lane_bits()),
                a.bits.min(mode.lane_bits()),
                mmacs,
            )
            .named(w.layer_name.clone())
            .with_sparsity(sp.weight_sparsity.min(0.99), sp.input_sparsity.min(0.99))
            .expect("measured sparsities are in range");
            let p = chip.power_mw(&layer);
            t.row(vec![
                w.layer_name.clone(),
                w.bits.to_string(),
                a.bits.to_string(),
                mode.to_string(),
                fmt_f(f_mhz, 0),
                fmt_f(sp.weight_sparsity * 100.0, 0),
                fmt_f(sp.input_sparsity * 100.0, 0),
                fmt_f(p, 1),
                fmt_f(chip.tops_per_w(&layer), 1),
            ]);
            table.push_row(vec![
                w.layer_name.clone().into(),
                w.bits.into(),
                a.bits.into(),
                mode.to_string().into(),
                f_mhz.into(),
                sp.weight_sparsity.into(),
                sp.input_sparsity.into(),
                p.into(),
                chip.tops_per_w(&layer).into(),
            ]);
            tuned_energy_mj += chip.layer_energy_mj(&layer);
            let full = LayerRun::dense(SubwordMode::X1, 200.0, 16, 16, mmacs)
                .named(format!("{}-16b", w.layer_name));
            full_energy_mj += chip.layer_energy_mj(&full);
        }
        r.line(t);

        // Sanity: the tuned configuration still agrees with full precision.
        let full_cfg = QuantConfig::uniform(net.layer_count(), 16, 16);
        let agreement = net.relative_accuracy(&data, &cfg, &full_cfg);
        r.line(format_args!(
            "relative accuracy of the tuned network: {:.1}%",
            agreement * 100.0
        ));
        r.line(format_args!(
            "energy per input: {:.4} mJ tuned vs {:.4} mJ all-16b ({:.1}x saved)",
            tuned_energy_mj,
            full_energy_mj,
            full_energy_mj / tuned_energy_mj
        ));
        r.push_table(table);
        r
    }
}
