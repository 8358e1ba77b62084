//! Table II: power distribution and consumption of the SIMD processor at
//! T = SW x N words/cycle x 500/N MHz.

use super::{DataTable, Scenario, ScenarioCtx, ScenarioResult};
use crate::report::{fmt_f, TextTable};
use dvafs_simd::energy::SimdEnergyModel;
use dvafs_simd::kernels::ConvKernel;
use dvafs_simd::processor::{ProcConfig, Processor};
use dvafs_tech::domains::PowerDomain;
use dvafs_tech::scaling::ScalingMode;

/// The Table II scenario (`dvafs run table2`).
pub struct Table2;

impl Scenario for Table2 {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn label(&self) -> &'static str {
        "Table II"
    }

    fn title(&self) -> &'static str {
        "SIMD power split (V, mem/nas/as %, P)"
    }

    fn run(&self, ctx: &ScenarioCtx) -> ScenarioResult {
        let model = SimdEnergyModel::new();
        let kernel = ConvKernel::random(25, 2048, ctx.seed);

        // Paper rows for direct comparison: (sw, label, Vnas, Vas, mem, nas, as, P).
        type PaperRow = (usize, &'static str, f64, f64, u32, u32, u32, u32);
        let paper: [PaperRow; 10] = [
            (8, "1x16b", 1.1, 1.1, 31, 46, 23, 36),
            (8, "1x8b", 1.1, 1.0, 24, 64, 12, 24),
            (8, "1x4b", 1.1, 0.9, 17, 77, 6, 20),
            (8, "2x8b", 0.9, 0.9, 39, 48, 13, 15),
            (8, "4x4b", 0.8, 0.7, 47, 44, 9, 7),
            (64, "1x16b", 1.1, 1.1, 31, 32, 37, 289),
            (64, "1x8b", 1.1, 1.0, 29, 49, 22, 160),
            (64, "1x4b", 1.1, 0.9, 23, 64, 13, 111),
            (64, "2x8b", 0.9, 0.9, 41, 39, 20, 103),
            (64, "4x4b", 0.8, 0.7, 53, 33, 14, 45),
        ];
        let configs: [(&str, ScalingMode, u32); 5] = [
            ("1x16b", ScalingMode::Dvas, 16),
            ("1x8b", ScalingMode::Dvas, 8),
            ("1x4b", ScalingMode::Dvas, 4),
            ("2x8b", ScalingMode::Dvafs, 8),
            ("4x4b", ScalingMode::Dvafs, 4),
        ];

        let mut t = TextTable::new(vec![
            "SW",
            "mode",
            "Vnas",
            "Vas",
            "mem%",
            "nas%",
            "as%",
            "P[mW]",
            "",
            "paper P[mW]",
            "paper mem/nas/as",
        ]);
        // Each row simulates the whole kernel: run the row grid in parallel
        // and merge in table order.
        let grid: Vec<(usize, &str, ScalingMode, u32)> = [8usize, 64]
            .into_iter()
            .flat_map(|sw| configs.iter().map(move |&(l, s, b)| (sw, l, s, b)))
            .collect();
        let reports = ctx
            .executor()
            .par_map_indexed(&grid, |_, &(sw, _, scaling, bits)| {
                let cfg = ProcConfig::new(sw, scaling, bits).expect("valid config");
                let r = Processor::with_model(cfg, model.clone())
                    .run_kernel(&kernel)
                    .expect("kernel runs");
                // Power numbers are only meaningful if the machine computed
                // the right outputs.
                assert!(
                    r.outputs_match_packed(&kernel),
                    "outputs must stay bit-exact"
                );
                r
            });

        let mut data = DataTable::new(
            "table2",
            vec![
                "sw", "mode", "v_nas", "v_as", "mem_pct", "nas_pct", "as_pct", "power_mw",
            ],
        );
        for (&(sw, label, _, _), rep) in grid.iter().zip(&reports) {
            let pr = paper
                .iter()
                .find(|p| p.0 == sw && p.1 == label)
                .expect("paper row exists");
            t.row(vec![
                sw.to_string(),
                label.to_string(),
                fmt_f(rep.run.rails.voltage(PowerDomain::NonScalable), 2),
                fmt_f(rep.run.rails.voltage(PowerDomain::AccuracyScalable), 2),
                fmt_f(rep.run.share(PowerDomain::Memory), 0),
                fmt_f(rep.run.share(PowerDomain::NonScalable), 0),
                fmt_f(rep.run.share(PowerDomain::AccuracyScalable), 0),
                fmt_f(rep.run.avg_power_w * 1e3, 1),
                String::new(),
                pr.7.to_string(),
                format!("{}/{}/{}", pr.4, pr.5, pr.6),
            ]);
            data.push_row(vec![
                sw.into(),
                label.into(),
                rep.run.rails.voltage(PowerDomain::NonScalable).into(),
                rep.run.rails.voltage(PowerDomain::AccuracyScalable).into(),
                rep.run.share(PowerDomain::Memory).into(),
                rep.run.share(PowerDomain::NonScalable).into(),
                rep.run.share(PowerDomain::AccuracyScalable).into(),
                (rep.run.avg_power_w * 1e3).into(),
            ]);
        }
        let mut r = ScenarioResult::new();
        r.line(t);
        r.line("(rows 1x8b/1x4b are DVAS operating points; 2x8b/4x4b are DVAFS; memory rail");
        r.line(" fixed at 1.1 V as in the paper)");
        r.push_table(data);
        r
    }
}
