//! Fig. 4: energy per word of the SIMD processor (lanes + memory) vs
//! precision at constant throughput, for SW = 8 and SW = 64.

use super::{simulate_checked, DataTable, Scenario, ScenarioCtx, ScenarioResult};
use crate::report::{fmt_f, TextTable};
use dvafs_simd::kernels::ConvKernel;
use dvafs_tech::scaling::ScalingMode;

/// The Fig. 4 scenario (`dvafs run fig4`).
pub struct Fig4;

impl Scenario for Fig4 {
    fn id(&self) -> &'static str {
        "fig4"
    }

    fn label(&self) -> &'static str {
        "Fig. 4"
    }

    fn title(&self) -> &'static str {
        "SIMD processor energy/word vs precision @ constant T"
    }

    fn run(&self, ctx: &ScenarioCtx) -> ScenarioResult {
        let kernel = ConvKernel::random(25, 2048, ctx.seed);

        // The full evaluation grid, row-major as the table prints it. Each
        // cell simulates the whole kernel, so cells run in parallel and
        // merge in grid order (the 1x16b DAS cell — cell 0 of each SW
        // block by `precision_grid`'s contract — doubles as the SW's
        // baseline).
        let grid: Vec<(usize, ScalingMode, u32)> = [8usize, 64]
            .into_iter()
            .flat_map(|sw| {
                ScalingMode::precision_grid()
                    .into_iter()
                    .map(move |(mode, b)| (sw, mode, b))
            })
            .collect();
        let energies: Vec<f64> = simulate_checked(ctx, &kernel, &grid)
            .iter()
            .map(|r| r.energy_per_word())
            .collect();

        let mut r = ScenarioResult::new();
        let mut t = TextTable::new(vec!["SW", "mode", "16b", "12b", "8b", "4b"]);
        let cells_per_sw = ScalingMode::ALL.len() * ScalingMode::PRECISIONS.len();
        for (s, sw) in [8usize, 64].into_iter().enumerate() {
            // Baseline: the same-width processor at 1x16b (DAS is row 0).
            let base = energies[s * cells_per_sw];
            for (m, mode) in ScalingMode::ALL.into_iter().enumerate() {
                let row = s * cells_per_sw + m * 4;
                let series: Vec<String> = energies[row..row + 4]
                    .iter()
                    .map(|&e| fmt_f(e / base, 3))
                    .collect();
                let mut cells = vec![sw.to_string(), mode.to_string()];
                cells.extend(series);
                t.row(cells);
            }
        }
        r.line(t);
        r.line("(energy relative to the same-SW 1x16b processor at 500 MHz)");
        r.line("paper anchors: DVAFS reaches ~0.15 (85% saving) at 4x4b; DAS/DVAS stop near");
        r.line("0.40-0.55 because decode and memory do not scale; SW=64 gains more in DVAS,");
        r.line("while DVAFS is strong even at SW=8.");

        let mut data = DataTable::new(
            "fig4",
            vec!["sw", "mode", "bits", "energy_per_word", "relative"],
        );
        for (cell, (&(sw, mode, bits), &e)) in grid.iter().zip(&energies).enumerate() {
            let base = energies[(cell / cells_per_sw) * cells_per_sw];
            data.push_row(vec![
                sw.into(),
                mode.to_string().into(),
                bits.into(),
                e.into(),
                (e / base).into(),
            ]);
        }
        r.push_table(data);
        r
    }
}
