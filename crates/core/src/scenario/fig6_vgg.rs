//! Fig. 6 at VGG16 scale: per-layer minimum quantization of the paper's
//! deepest network, the workload ROADMAP item 2's incremental search
//! unlocks.
//!
//! The paper's Fig. 6 plots LeNet-5 and AlexNet; its Section V energy
//! discussion extends the same per-layer methodology to VGG16 (13 CONV +
//! 3 FC parameterized layers). A full-forward rescan over 16 layers x 15
//! candidate widths is what made this scenario intractable before the
//! prefix-cached [`SearchStrategy::Incremental`] engine; with it the scan
//! costs one suffix forward per candidate width.
//!
//! Substitution note: as in `fig6`, weights are synthetic pseudo-trained
//! parameters on a synthetic structured set at reduced resolution/width,
//! so absolute bit counts differ from the published trained network; the
//! reproduced claims are (1) the requirement varies layer to layer,
//! (2) it stays far below 16 bits, (3) the 16-layer cascade sustains the
//! per-layer methodology end to end.

use super::{DataTable, Scenario, ScenarioCtx, ScenarioResult};
use crate::report::TextTable;
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::models;
use dvafs_nn::precision::{LayerRequirement, Operand, PrecisionSearch};
#[allow(unused_imports)] // doc link
use dvafs_nn::SearchStrategy;

/// The VGG16-scale Fig. 6 scenario (`dvafs run fig6_vgg`).
pub struct Fig6Vgg;

impl Scenario for Fig6Vgg {
    fn id(&self) -> &'static str {
        "fig6_vgg"
    }

    fn label(&self) -> &'static str {
        "Fig. 6 (VGG16)"
    }

    fn title(&self) -> &'static str {
        "VGG16 per-layer bits @ 99% relative accuracy"
    }

    fn fast_note(&self) -> &'static str {
        "shrinks the VGG16 stand-in (scale 0.125->0.0625) and the dataset (12->6 samples)"
    }

    fn run(&self, ctx: &ScenarioCtx) -> ScenarioResult {
        let exec = ctx.executor();
        // The strategy comes from the context; it never moves a number.
        let search = PrecisionSearch::new().with_strategy(ctx.search);
        let mut r = ScenarioResult::new();

        let fast = ctx.fast;
        if fast {
            r.line("(--fast: reduced dataset/model sizes, figures not paper-scale)\n");
        }
        let input = 32; // minimum resolution the five pooling stages support
        let (scale, samples) = if fast { (0.0625, 6) } else { (0.125, 12) };

        let ensure_diverse = |net: &mut dvafs_nn::Network, data: &SyntheticDataset| {
            if dvafs_nn::precision::prediction_diversity(net, data) < 3 {
                net.calibrate_logits(data);
            }
        };

        let mut vgg = models::vgg16(input, scale, ctx.seed + 4);
        let images = SyntheticDataset::image_like(samples, input, 10, ctx.seed + 5);
        ensure_diverse(&mut vgg, &images);
        let w = search.search_with(&vgg, &images, Operand::Weights, exec);
        let a = search.search_with(&vgg, &images, Operand::Activations, exec);

        r.line("VGG16 (paper: 1-9 bits across 16 layers)");
        let mut t = TextTable::new(vec!["layer", "weights [bits]", "inputs [bits]"]);
        for (rw, ra) in w.iter().zip(a.iter()) {
            t.row(vec![
                rw.layer_name.clone(),
                rw.bits.to_string(),
                ra.bits.to_string(),
            ]);
        }
        r.line(t);

        let max = |reqs: &[LayerRequirement]| reqs.iter().map(|req| req.bits).max().unwrap_or(16);
        r.line(format_args!(
            "VGG16 max requirement: {}b over {} parameterized layers",
            max(&w).max(max(&a)),
            w.len()
        ));
        r.line("(per-layer precision scales to the paper's deepest network)");

        let mut data = DataTable::new(
            "fig6_vgg",
            vec!["network", "layer", "weight_bits", "input_bits"],
        );
        for (rw, ra) in w.iter().zip(a.iter()) {
            data.push_row(vec![
                "VGG16".into(),
                rw.layer_name.clone().into(),
                rw.bits.into(),
                ra.bits.into(),
            ]);
        }
        r.push_table(data);
        r
    }
}
