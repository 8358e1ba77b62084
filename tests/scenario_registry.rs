//! Registry- and serializer-level tests of the scenario subsystem:
//!
//! * every scenario id is unique, findable and documented;
//! * `run --all --fast --threads 1` succeeds end to end through the real
//!   CLI code path (writing one JSON file per scenario), and the CLI's
//!   fig2 JSON is byte-identical to the golden fixture;
//! * every scenario renders the same JSON bytes on the shipping paths and
//!   on the retained reference oracles (scalar netlist engine, rescan
//!   precision search);
//! * the generic serializer keeps its agreement contract: JSON, CSV and
//!   the generic text table of any `DataTable` have the same shape and
//!   the same values (property-tested over randomized tables, plus the
//!   real Fig. 2 result).

use dvafs::arith::netlist::Engine;
use dvafs::nn::SearchStrategy;
use dvafs::scenario::{self, DataTable, Format, ScenarioCtx, ScenarioResult, Value};
use dvafs_bench::cli;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

#[test]
fn registry_ids_unique_and_documented() {
    let reg = scenario::registry();
    assert_eq!(reg.len(), 12, "all 12 experiments must be registered");
    let mut ids: Vec<&str> = reg.iter().map(|s| s.id()).collect();
    ids.sort_unstable();
    let mut deduped = ids.clone();
    deduped.dedup();
    assert_eq!(ids, deduped, "duplicate scenario ids");
    for s in reg {
        assert!(scenario::find(s.id()).is_some());
        assert!(!s.label().is_empty() && !s.title().is_empty());
        // Satellite: --fast is uniformly accepted and documented — every
        // scenario says what it shrinks (or that it is a no-op).
        assert!(!s.fast_note().is_empty(), "{} lacks a --fast note", s.id());
    }
}

#[test]
fn run_all_fast_single_threaded_succeeds() {
    let out = std::env::temp_dir().join("dvafs_run_all_test");
    let _ = std::fs::remove_dir_all(&out);
    let argv: Vec<String> = [
        "run",
        "--all",
        "--fast",
        "--threads",
        "1",
        "--format",
        "json",
        "--out",
        out.to_str().expect("utf-8 temp dir"),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let (cmd, warnings) = cli::parse(&argv).expect("parses");
    assert!(warnings.is_empty());
    let stdout = cli::execute(&cmd).expect("run --all succeeds");
    for s in scenario::registry() {
        let path = out.join(format!("{}.json", s.id()));
        assert!(path.is_file(), "missing {}", path.display());
        assert!(stdout.contains(&format!("{}.json", s.id())));
    }

    // The CLI-written fig2 JSON byte-matches the golden fixture: the CLI,
    // the golden tests and the serializer are one code path.
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig2.json");
    // --fast is a no-op for fig2, so even the fast run must match.
    assert_eq!(
        std::fs::read_to_string(out.join("fig2.json")).expect("written"),
        std::fs::read_to_string(golden).expect("fixture"),
        "CLI fig2 JSON drifted from the golden fixture"
    );
    let _ = std::fs::remove_dir_all(&out);
}

/// The one oracle sweep over the registry: for every scenario at `--fast`,
/// the shipping paths (bitsliced netlist engine, incremental precision
/// search) and their retained reference oracles (scalar engine, rescan)
/// render byte-identical JSON (the data tables; perfbench's
/// `pass --oracle` makes the same check at full scale) and text (the
/// presentation body).
#[test]
fn oracle_paths_render_every_scenario_identically() {
    let shipping = ScenarioCtx::new().with_fast(true);
    let oracle = shipping
        .clone()
        .with_engine(Engine::Scalar)
        .with_search(SearchStrategy::Rescan);
    for s in scenario::registry() {
        let (expected, got) = (s.run(&shipping), s.run(&oracle));
        for format in [Format::Json, Format::Text] {
            assert_eq!(
                scenario::render(s.label(), s.title(), &expected, format),
                scenario::render(s.label(), s.title(), &got, format),
                "{}: an oracle path moved the {format:?} rendering",
                s.id()
            );
        }
    }
}

/// Builds a randomized flat table: `cols` columns of seeded-random kind,
/// `rows` rows of seeded-random cells (comma- and quote-bearing strings
/// included, to exercise CSV escaping).
fn random_table(seed: u64, rows: usize, cols: usize) -> DataTable {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let kinds: Vec<u32> = (0..cols).map(|_| rng.gen_range(0u32..3)).collect();
    let names: Vec<String> = (0..cols).map(|c| format!("col{c}")).collect();
    let mut t = DataTable::new("random", names);
    for _ in 0..rows {
        t.push_row(
            kinds
                .iter()
                .map(|kind| match kind {
                    0 => {
                        let raw: u32 = rng.gen_range(0..4);
                        Value::Str(
                            ["plain", "with,comma", "with\"quote", "x y"][raw as usize].into(),
                        )
                    }
                    1 => Value::Int(i64::from(rng.gen_range(-1000i32..1000))),
                    _ => Value::Float(f64::from(rng.gen_range(-1.0e6f32..1.0e6)) / 7.0),
                })
                .collect(),
        );
    }
    t
}

/// Un-escapes one RFC-4180 CSV line into fields (enough for the dialect
/// the serializer emits: quotes only when needed, doubled inner quotes).
fn split_csv(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' => quoted = true,
            ',' if !quoted => fields.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// JSON, CSV and the generic text table of one `DataTable` agree on
    /// shape (row/column counts) and on every value's canonical text.
    #[test]
    fn serializer_formats_agree(seed in any::<u64>(), rows in 1usize..=8, cols in 1usize..=5) {
        let table = random_table(seed, rows, cols);
        let mut result = ScenarioResult::new();
        result.push_table(table.clone());

        let json = scenario::render::render_json(&result);
        let csv = scenario::render::render_csv(&result);
        let text = scenario::render::table_to_text(&table).to_string();

        // Shape: one JSON object line, one CSV line and one text line per row.
        let json_rows = json.matches("{\"col0\":").count();
        let csv_lines: Vec<&str> = csv.lines().collect();
        prop_assert_eq!(json_rows, rows);
        prop_assert_eq!(csv_lines.len(), rows + 1);
        prop_assert_eq!(text.lines().count(), rows + 2); // header + rule
        prop_assert_eq!(split_csv(csv_lines[0]).len(), cols);

        // Values: every cell's canonical text appears in the CSV field and
        // in the JSON rendering (strings JSON-escaped, numbers verbatim).
        for (i, row) in table.rows().iter().enumerate() {
            let fields = split_csv(csv_lines[i + 1]);
            prop_assert_eq!(fields.len(), cols);
            for (cell, field) in row.iter().zip(&fields) {
                prop_assert_eq!(&cell.to_text(), field);
                let json_fragment = match cell {
                    Value::Str(s) => format!("\"{}\"", s.replace('"', "\\\"")),
                    other => other.to_text(),
                };
                prop_assert!(json.contains(&json_fragment));
            }
        }

        // Round-trip: float cells parse back bit-identically from the CSV.
        for (i, row) in table.rows().iter().enumerate() {
            let fields = split_csv(csv_lines[i + 1]);
            for (cell, field) in row.iter().zip(&fields) {
                if let Value::Float(v) = cell {
                    prop_assert_eq!(field.parse::<f64>().unwrap().to_bits(), v.to_bits());
                }
            }
        }
    }
}

#[test]
fn fig2_formats_agree_end_to_end() {
    let s = scenario::find("fig2").expect("registered");
    let result = s.run(&ScenarioCtx::new().with_threads(1));
    let [table] = result.tables() else {
        panic!("fig2 produces one data table")
    };
    assert_eq!(table.rows().len(), 12, "3 regimes x 4 precisions");

    let json = scenario::render::render_json(&result);
    let csv = scenario::render::render_csv(&result);
    let text = scenario::render::table_to_text(table).to_string();
    assert_eq!(json.matches("\"mode\":").count(), 12);
    assert_eq!(csv.lines().count(), 13);
    assert_eq!(text.lines().count(), 14);

    // Spot-check one row across all three renderings.
    let row = &table.rows()[0];
    let freq = row[3].to_text();
    assert!(json.contains(&format!("\"frequency_mhz\":{freq}")));
    assert!(csv.lines().nth(1).unwrap().contains(&freq));
    assert!(text.lines().nth(2).unwrap().contains(&freq));
}

#[test]
fn nested_table3_flattens_consistently() {
    let s = scenario::find("table3").expect("registered");
    let result = s.run(&ScenarioCtx::new().with_threads(1));
    let [table] = result.tables() else {
        panic!("table3 produces one data table")
    };
    assert!(table.has_nested());
    let flat = scenario::render::flatten_table(table);
    let layer_total: usize = table
        .rows()
        .iter()
        .map(|r| match &r[5] {
            Value::Nested(t) => t.rows().len(),
            _ => 0,
        })
        .sum();
    assert_eq!(flat.rows().len(), layer_total, "one flat row per layer");
    // CSV and JSON carry the same layer count.
    let csv = scenario::render::render_csv(&result);
    assert_eq!(csv.lines().count(), layer_total + 1);
    let json = scenario::render::render_json(&result);
    assert_eq!(json.matches("\"layer\":").count(), layer_total);
}
