//! The generic scenario serializer: one renderer each for text, JSON and
//! CSV over [`ScenarioResult`]s, replacing the per-figure `fig*_to_json`
//! functions that used to live in `dvafs::report::json`.
//!
//! Guarantees the test suite pins down:
//!
//! * **Text** is the legacy presentation: the experiment banner followed
//!   by the byte-identical body the original figure binaries printed.
//! * **JSON** renders every [`DataTable`] as an array of row objects with
//!   shortest-roundtrip floats — a single-table result is a bare array
//!   (byte-identical to the pre-registry golden fixtures), a multi-table
//!   result is an object keyed by table.
//! * **CSV** renders the same tables with the same scalar formatting, one
//!   section per table; nested tables are denormalized into their parent
//!   rows so every value in the JSON appears in the CSV.

use super::result::{DataTable, ScenarioResult, Value};
use crate::report::json::{escape, num};
use crate::report::TextTable;

/// An output format of the `dvafs` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Legacy presentation text (banner + tables + paper anchors).
    Text,
    /// Machine-readable JSON (golden-fixture compatible).
    Json,
    /// Flat CSV, one section per data table.
    Csv,
}

impl Format {
    /// Parses a `--format` argument value.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized value back as the error message payload.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            "csv" => Ok(Format::Csv),
            other => Err(format!(
                "unknown format {other:?} (expected text, json or csv)"
            )),
        }
    }

    /// The file extension artifacts of this format are written with.
    #[must_use]
    pub fn extension(self) -> &'static str {
        match self {
            Format::Text => "txt",
            Format::Json => "json",
            Format::Csv => "csv",
        }
    }
}

/// The experiment banner every text rendering starts with (label is the
/// paper artefact name, e.g. `"Fig. 2"`).
#[must_use]
pub fn banner_text(label: &str, title: &str) -> String {
    format!("=== DVAFS reproduction | {label}: {title} ===\n\n")
}

/// Renders a result in one format. `label`/`title` feed the text banner
/// and are ignored by the machine-readable formats.
#[must_use]
pub fn render(label: &str, title: &str, result: &ScenarioResult, format: Format) -> String {
    match format {
        Format::Text => format!("{}{}", banner_text(label, title), result.text()),
        Format::Json => render_json(result),
        Format::Csv => render_csv(result),
    }
}

/// One row as a JSON object: `{"col":value,...}`, no whitespace.
fn row_object(table: &DataTable, row: &[Value]) -> String {
    let fields: Vec<String> = table
        .columns()
        .iter()
        .zip(row)
        .map(|(col, cell)| format!("\"{}\":{}", escape(col), cell_json(cell)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn cell_json(cell: &Value) -> String {
    match cell {
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::Int(i) => i.to_string(),
        Value::Float(v) => num(*v),
        // Nested tables render inline (the multi-line layout is reserved
        // for the top level, where golden diffs are reviewed).
        Value::Nested(t) => {
            let rows: Vec<String> = t.rows().iter().map(|r| row_object(t, r)).collect();
            format!("[{}]", rows.join(","))
        }
    }
}

/// A table as a multi-line JSON array of row objects (one row per line —
/// the layout the golden fixtures pin).
#[must_use]
pub fn table_to_json(table: &DataTable) -> String {
    let rows: Vec<String> = table.rows().iter().map(|r| row_object(table, r)).collect();
    crate::report::json::array(&rows)
}

/// The JSON rendering of a whole result: a bare array for a single table,
/// an object keyed by table for several. No trailing newline, so a written
/// file is byte-comparable to the golden fixtures.
#[must_use]
pub fn render_json(result: &ScenarioResult) -> String {
    match result.tables() {
        [single] => table_to_json(single),
        many => {
            let entries: Vec<String> = many
                .iter()
                .map(|t| format!("\"{}\": {}", escape(t.key()), table_to_json(t)))
                .collect();
            format!("{{\n{}\n}}", entries.join(",\n"))
        }
    }
}

/// Escapes one CSV field (RFC 4180: quote when a comma, quote, or line
/// break is present; double embedded quotes).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Denormalizes a table with one nested-table column into flat rows: the
/// parent's scalar cells are repeated on every child row. A parent row
/// whose nested table is empty still emits one row (child cells blank).
///
/// # Panics
///
/// Panics when a table nests more than one table column per row (no
/// scenario produces that shape).
#[must_use]
pub fn flatten_table(table: &DataTable) -> DataTable {
    if !table.has_nested() {
        return table.clone();
    }
    let nested_idx: Vec<usize> = table
        .rows()
        .iter()
        .flat_map(|r| {
            r.iter()
                .enumerate()
                .filter(|(_, c)| matches!(c, Value::Nested(_)))
                .map(|(i, _)| i)
        })
        .collect::<std::collections::BTreeSet<usize>>()
        .into_iter()
        .collect();
    assert_eq!(
        nested_idx.len(),
        1,
        "table {}: CSV flattening supports exactly one nested column",
        table.key()
    );
    let nested_col = nested_idx[0];
    let child_columns: Vec<String> = table
        .rows()
        .iter()
        .find_map(|r| match &r[nested_col] {
            Value::Nested(t) => Some(t.columns().to_vec()),
            _ => None,
        })
        .unwrap_or_default();
    let mut columns: Vec<String> = table
        .columns()
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != nested_col)
        .map(|(_, c)| c.clone())
        .collect();
    columns.extend(child_columns.iter().cloned());
    let mut flat = DataTable::new(table.key(), columns);
    for row in table.rows() {
        let scalars: Vec<Value> = row
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != nested_col)
            .map(|(_, c)| c.clone())
            .collect();
        let children: &[Vec<Value>] = match &row[nested_col] {
            Value::Nested(t) => t.rows(),
            _ => &[],
        };
        if children.is_empty() {
            let mut cells = scalars.clone();
            cells.extend(child_columns.iter().map(|_| Value::Str(String::new())));
            flat.push_row(cells);
        }
        for child in children {
            let mut cells = scalars.clone();
            cells.extend(child.iter().cloned());
            flat.push_row(cells);
        }
    }
    flat
}

/// One flattened table as CSV: a header line, then one line per row, with
/// the same scalar formatting as the JSON rendering.
#[must_use]
pub fn table_to_csv(table: &DataTable) -> String {
    let flat = flatten_table(table);
    let mut out = String::new();
    out.push_str(
        &flat
            .columns()
            .iter()
            .map(|c| csv_field(c))
            .collect::<Vec<String>>()
            .join(","),
    );
    out.push('\n');
    for row in flat.rows() {
        out.push_str(
            &row.iter()
                .map(|c| csv_field(&c.to_text()))
                .collect::<Vec<String>>()
                .join(","),
        );
        out.push('\n');
    }
    out
}

/// The CSV rendering of a whole result: one section per table, separated
/// by a blank line and introduced by a `# key` comment when the result
/// holds more than one table.
#[must_use]
pub fn render_csv(result: &ScenarioResult) -> String {
    match result.tables() {
        [single] => table_to_csv(single),
        many => many
            .iter()
            .map(|t| format!("# {}\n{}", t.key(), table_to_csv(t)))
            .collect::<Vec<String>>()
            .join("\n"),
    }
}

/// A table's generic plain-text rendering (column-aligned, same cell text
/// as the CSV) — the shape the serializer agreement tests compare against.
#[must_use]
pub fn table_to_text(table: &DataTable) -> TextTable {
    let flat = flatten_table(table);
    let mut t = TextTable::new(flat.columns().to_vec());
    for row in flat.rows() {
        t.row(row.iter().map(Value::to_text).collect());
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataTable {
        let mut t = DataTable::new("sample", vec!["name", "bits", "e"]);
        t.push_row(vec!["a,b".into(), 16u32.into(), 0.5f64.into()]);
        t.push_row(vec!["q\"x".into(), 4u32.into(), 500.0f64.into()]);
        t
    }

    #[test]
    fn json_single_table_is_bare_array() {
        let mut r = ScenarioResult::new();
        r.push_table(sample());
        assert_eq!(
            render_json(&r),
            "[\n  {\"name\":\"a,b\",\"bits\":16,\"e\":0.5},\n  \
             {\"name\":\"q\\\"x\",\"bits\":4,\"e\":500}\n]"
        );
    }

    #[test]
    fn json_multi_table_is_keyed_object() {
        let mut r = ScenarioResult::new();
        r.push_table(sample());
        let mut t2 = DataTable::new("other", vec!["x"]);
        t2.push_row(vec![1u32.into()]);
        r.push_table(t2);
        let json = render_json(&r);
        assert!(json.starts_with("{\n\"sample\": [\n"));
        assert!(json.contains("\"other\": [\n  {\"x\":1}\n]"));
        assert!(json.ends_with("\n}"));
    }

    #[test]
    fn csv_escapes_and_matches_json_values() {
        let csv = table_to_csv(&sample());
        assert_eq!(csv, "name,bits,e\n\"a,b\",16,0.5\n\"q\"\"x\",4,500\n");
    }

    #[test]
    fn nested_tables_flatten_into_parent_rows() {
        let mut inner = DataTable::new("rows", vec!["layer", "p"]);
        inner.push_row(vec!["L1".into(), 1.5f64.into()]);
        inner.push_row(vec!["L2".into(), 2.5f64.into()]);
        let mut outer = DataTable::new("nets", vec!["name", "total", "rows"]);
        outer.push_row(vec!["net".into(), 4.0f64.into(), Value::Nested(inner)]);
        let flat = flatten_table(&outer);
        assert_eq!(flat.columns(), ["name", "total", "layer", "p"]);
        assert_eq!(flat.rows().len(), 2);
        assert_eq!(flat.rows()[1][0], Value::Str("net".into()));
        assert_eq!(flat.rows()[1][3], Value::Float(2.5));
        // JSON keeps the nesting inline.
        let json = table_to_json(&outer);
        assert!(
            json.contains("\"rows\":[{\"layer\":\"L1\",\"p\":1.5},{\"layer\":\"L2\",\"p\":2.5}]")
        );
    }

    #[test]
    fn format_parsing() {
        assert_eq!(Format::parse("json").unwrap(), Format::Json);
        assert_eq!(Format::parse("csv").unwrap(), Format::Csv);
        assert_eq!(Format::parse("text").unwrap(), Format::Text);
        assert!(Format::parse("yaml").is_err());
        assert_eq!(Format::Json.extension(), "json");
    }

    #[test]
    fn text_rendering_prepends_banner() {
        let mut r = ScenarioResult::new();
        r.line("body");
        let s = render("Fig. X", "a title", &r, Format::Text);
        assert_eq!(s, "=== DVAFS reproduction | Fig. X: a title ===\n\nbody\n");
    }
}
