//! Fig. 6: per-layer minimum quantization (weights and input feature
//! maps) of LeNet-5 and AlexNet at 99 % relative accuracy.
//!
//! Substitution note: weights are synthetic pseudo-trained parameters and
//! the data is a synthetic structured set, so the *absolute* bit counts
//! differ from the published trained networks; the reproduced claims are
//! (1) the requirement varies layer to layer, (2) it is far below 16 bits,
//! (3) deeper/wider AlexNet needs more bits than LeNet-5.

use super::{DataTable, Scenario, ScenarioCtx, ScenarioResult};
use crate::report::TextTable;
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::models;
use dvafs_nn::precision::{LayerRequirement, Operand, PrecisionSearch};

/// The Fig. 6 scenario (`dvafs run fig6`).
pub struct Fig6;

impl Scenario for Fig6 {
    fn id(&self) -> &'static str {
        "fig6"
    }

    fn label(&self) -> &'static str {
        "Fig. 6"
    }

    fn title(&self) -> &'static str {
        "per-layer bits @ 99% relative accuracy"
    }

    fn fast_note(&self) -> &'static str {
        "shrinks datasets (48->12 / 24->6 samples) and the AlexNet stand-in (scale 0.25->0.125)"
    }

    fn run(&self, ctx: &ScenarioCtx) -> ScenarioResult {
        let exec = ctx.executor();
        // The scan strategy comes from the context (prefix-cached
        // incremental by default, the rescan oracle when bench_sweep times
        // the search speedup); like the kernel, it never moves a number.
        let search = PrecisionSearch::new().with_strategy(ctx.search);
        let mut r = ScenarioResult::new();

        // `--fast` shrinks datasets and the AlexNet stand-in so CI smoke
        // tests exercise the full search path in seconds; paper-scale
        // numbers need the default configuration.
        let fast = ctx.fast;
        if fast {
            r.line("(--fast: reduced dataset/model sizes, figures not paper-scale)\n");
        }
        let alex_input = 67; // minimum resolution the AlexNet pool cascade supports
        let (lenet_samples, alex_scale, alex_samples) =
            if fast { (12, 0.125, 6) } else { (48, 0.25, 24) };

        // A pseudo-trained classifier whose predictions collapsed to one or
        // two classes makes the relative-accuracy metric vacuous; center its
        // logits first (see Network::calibrate_logits).
        let ensure_diverse = |net: &mut dvafs_nn::Network, data: &SyntheticDataset| {
            if dvafs_nn::precision::prediction_diversity(net, data) < 3 {
                net.calibrate_logits(data);
            }
        };

        // LeNet-5 on the digit-like 28x28 set. The MAC kernel comes from
        // the context (packed GEMM by default, the naive oracle when
        // bench_sweep times the kernel speedup); it never moves a number.
        let mut lenet = models::lenet5(ctx.seed).with_kernel(ctx.kernel);
        let digits = SyntheticDataset::digits(lenet_samples, ctx.seed + 1);
        ensure_diverse(&mut lenet, &digits);
        let lw = search.search_with(&lenet, &digits, Operand::Weights, exec);
        let la = search.search_with(&lenet, &digits, Operand::Activations, exec);

        // AlexNet at reduced resolution/width (substitution; see DESIGN.md).
        let mut alexnet =
            models::alexnet(alex_input, alex_scale, ctx.seed + 2).with_kernel(ctx.kernel);
        let images = SyntheticDataset::image_like(alex_samples, alex_input, 10, ctx.seed + 3);
        ensure_diverse(&mut alexnet, &images);
        let aw = search.search_with(&alexnet, &images, Operand::Weights, exec);
        let aa = search.search_with(&alexnet, &images, Operand::Activations, exec);

        for (title, w, a) in [
            ("LeNet-5 (paper: 1-6 bits)", (&lw, &la)),
            ("AlexNet (paper: 5-9 bits)", (&aw, &aa)),
        ]
        .map(|(t, p)| (t, p.0, p.1))
        {
            r.line(title);
            let mut t = TextTable::new(vec!["layer", "weights [bits]", "inputs [bits]"]);
            for (rw, ra) in w.iter().zip(a.iter()) {
                t.row(vec![
                    rw.layer_name.clone(),
                    rw.bits.to_string(),
                    ra.bits.to_string(),
                ]);
            }
            r.line(t);
        }

        let max = |reqs: &[LayerRequirement]| reqs.iter().map(|req| req.bits).max().unwrap_or(16);
        r.line(format_args!(
            "LeNet-5 max requirement: {}b | AlexNet max requirement: {}b",
            max(&lw).max(max(&la)),
            max(&aw).max(max(&aa))
        ));
        r.line("(the deeper, wider network needs more precision, as in the paper)");

        let mut data = DataTable::new(
            "fig6",
            vec!["network", "layer", "weight_bits", "input_bits"],
        );
        for (network, w, a) in [("LeNet-5", &lw, &la), ("AlexNet", &aw, &aa)] {
            for (rw, ra) in w.iter().zip(a.iter()) {
                data.push_row(vec![
                    network.into(),
                    rw.layer_name.clone().into(),
                    rw.bits.into(),
                    ra.bits.into(),
                ]);
            }
        }
        r.push_table(data);
        r
    }
}
