//! The structured value a scenario produces: named data tables of typed
//! cells and the legacy presentation text.
//!
//! A [`ScenarioResult`] separates *data* from *presentation*:
//!
//! * [`DataTable`]s are the machine-readable record — typed columns and
//!   rows that the generic serializer in
//!   [`super::render`](mod@super::render) turns into JSON, CSV or a plain
//!   text table, all three agreeing on shape and values (a property the
//!   test suite asserts);
//! * the *text body* is the human presentation the original figure
//!   binaries printed (pivoted tables, paper anchors, custom decimal
//!   counts) and is kept byte-identical so the smoke tests never move.

use std::fmt::Write as _;

/// One typed cell of a [`DataTable`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string cell (labels, modes, design names).
    Str(String),
    /// An integer cell (bit widths, lane counts).
    Int(i64),
    /// A float cell, serialized with shortest-roundtrip formatting so the
    /// rendering is an exact bit-level record of the computed value.
    Float(f64),
    /// A nested table (Table III's per-layer rows). JSON renders it as an
    /// inline array of row objects; CSV flattens it into the parent rows.
    Nested(DataTable),
}

impl Value {
    /// The cell's scalar text form: `Str` verbatim, `Int` as decimal,
    /// `Float` shortest-roundtrip (as in JSON), `Nested` as a row count.
    #[must_use]
    pub fn to_text(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Float(v) => crate::report::json::num(*v),
            Value::Nested(t) => format!("[{} rows]", t.rows().len()),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i64::try_from(i).expect("cell index fits i64"))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

/// A named table of typed rows — the machine-readable data of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DataTable {
    key: String,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl DataTable {
    /// Creates an empty table with a key (its name in multi-table JSON
    /// objects and CSV section headers) and column names.
    #[must_use]
    pub fn new<S: Into<String>>(key: &str, columns: Vec<S>) -> Self {
        DataTable {
            key: key.to_string(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count does not match the column count — a
    /// ragged table cannot serialize to a consistent shape.
    pub fn push_row(&mut self, cells: Vec<Value>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "table {}: row has {} cells for {} columns",
            self.key,
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// The table's key.
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The column names.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The data rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Whether any cell is a [`Value::Nested`] table.
    #[must_use]
    pub fn has_nested(&self) -> bool {
        self.rows
            .iter()
            .any(|r| r.iter().any(|c| matches!(c, Value::Nested(_))))
    }
}

/// What a scenario run produced: data tables and presentation text.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioResult {
    tables: Vec<DataTable>,
    text: String,
}

impl ScenarioResult {
    /// An empty result (builder start).
    #[must_use]
    pub fn new() -> Self {
        ScenarioResult::default()
    }

    /// Adds a data table.
    pub fn push_table(&mut self, table: DataTable) {
        self.tables.push(table);
    }

    /// Appends one line (plus newline) to the presentation text — the
    /// equivalent of the original binaries' `println!`.
    pub fn line(&mut self, line: impl std::fmt::Display) {
        let _ = writeln!(self.text, "{line}");
    }

    /// Appends a blank line to the presentation text.
    pub fn blank(&mut self) {
        self.text.push('\n');
    }

    /// The data tables.
    #[must_use]
    pub fn tables(&self) -> &[DataTable] {
        &self.tables
    }

    /// The presentation text body (everything the legacy binary printed
    /// after its banner).
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_text_forms() {
        assert_eq!(Value::from("x").to_text(), "x");
        assert_eq!(Value::from(3u32).to_text(), "3");
        assert_eq!(Value::from(0.5f64).to_text(), "0.5");
        assert_eq!(
            Value::Nested(DataTable::new("t", vec!["a"])).to_text(),
            "[0 rows]"
        );
    }

    #[test]
    #[should_panic(expected = "row has 1 cells for 2 columns")]
    fn ragged_rows_are_rejected() {
        let mut t = DataTable::new("t", vec!["a", "b"]);
        t.push_row(vec![Value::Int(1)]);
    }

    #[test]
    fn result_text_accumulates_lines() {
        let mut r = ScenarioResult::new();
        r.line("hello");
        r.blank();
        r.line(format_args!("{}-{}", 1, 2));
        assert_eq!(r.text(), "hello\n\n1-2\n");
    }
}
