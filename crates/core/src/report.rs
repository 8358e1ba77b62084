//! Plain-text table and JSON rendering primitives for the experiment
//! scenarios.
//!
//! The scenario registry ([`crate::scenario`]) prints the paper's tables
//! and figure series as aligned text; this module holds the small
//! formatter they share, plus [`json`] — the low-level escaping/number
//! helpers the generic serializer
//! ([`crate::scenario::render`](mod@crate::scenario::render)) builds
//! JSON from. (The offline `serde` stub under `vendor/` has no
//! serializer, so the JSON here is hand-rendered; swap to `serde_json`
//! when a registry is available.)

use std::fmt;

/// A simple column-aligned text table.
///
/// # Example
///
/// ```
/// use dvafs::report::TextTable;
///
/// let mut t = TextTable::new(vec!["mode", "P [mW]"]);
/// t.row(vec!["1x16b".into(), "36".into()]);
/// let s = t.to_string();
/// assert!(s.contains("1x16b"));
/// assert!(s.contains("P [mW]"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        print_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with a fixed number of decimals (helper for binaries).
#[must_use]
pub fn fmt_f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Formats a float in scientific notation with 2 significant decimals.
#[must_use]
pub fn fmt_e(v: f64) -> String {
    format!("{v:.2e}")
}

pub mod json {
    //! Low-level JSON building blocks (escaping, number and array layout).
    //!
    //! Floats are rendered with Rust's shortest-roundtrip `Display`, so a
    //! serialized figure is an exact (bit-level) record of the computed
    //! values — which is what lets `tests/golden_figures.rs` assert strict
    //! equality and lets the determinism guarantee extend to the JSON
    //! artefacts. The per-figure serialization itself lives in the generic
    //! scenario serializer,
    //! [`crate::scenario::render`](mod@crate::scenario::render).

    /// Escapes a string for a JSON string literal.
    #[must_use]
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Renders a float as a JSON number (shortest roundtrip; non-finite
    /// values become `null`, which no figure produces).
    #[must_use]
    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// Joins pre-rendered JSON values into a multi-line array (one element
    /// per line, for reviewable golden-fixture diffs).
    #[must_use]
    pub fn array(elements: &[String]) -> String {
        if elements.is_empty() {
            return "[]".to_string();
        }
        format!("[\n  {}\n]", elements.join(",\n  "))
    }

    /// A parsed JSON value — the *reading* half of this module, added for
    /// the `dvafs serve` request codec (the vendored `serde` stub has no
    /// deserializer either). Objects keep their key order in a `Vec` so
    /// nothing about parsing depends on hash-map iteration.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number (always carried as `f64`).
        Num(f64),
        /// A string literal, unescaped.
        Str(String),
        /// An array.
        Array(Vec<JsonValue>),
        /// An object, as `(key, value)` pairs in source order.
        Object(Vec<(String, JsonValue)>),
    }

    impl JsonValue {
        /// Looks up a key in an object (first occurrence); `None` for
        /// non-objects.
        #[must_use]
        pub fn get(&self, key: &str) -> Option<&JsonValue> {
            match self {
                JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string payload, if this is a string.
        #[must_use]
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The boolean payload, if this is a boolean.
        #[must_use]
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The numeric payload, if this is a number.
        #[must_use]
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The numeric payload as a non-negative integer: present, whole,
        /// in `0..=2^53` (exactly representable), else `None`.
        #[must_use]
        pub fn as_u64(&self) -> Option<u64> {
            let n = self.as_f64()?;
            let max = 9_007_199_254_740_992.0; // 2^53
            if n.fract() == 0.0 && (0.0..=max).contains(&n) {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Some(n as u64)
            } else {
                None
            }
        }
    }

    /// Parses one JSON document (any trailing non-whitespace is an error).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    const MAX_DEPTH: usize = 64;

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while let Some(&b) = bytes.get(*pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                *pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => expect(bytes, pos, "null").map(|()| JsonValue::Null),
            Some(b't') => expect(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => expect(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
            Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(parse_value(bytes, pos, depth + 1)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut pairs = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, ":")?;
                    let value = parse_value(bytes, pos, depth + 1)?;
                    pairs.push((key, value));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(JsonValue::Object(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                    }
                }
            }
            Some(_) => parse_number(bytes, pos),
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
        let start = *pos;
        while let Some(&b) = bytes.get(*pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                *pos += 1;
            } else {
                break;
            }
        }
        let token = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number token");
        token
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number {token:?} at byte {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = parse_hex4(bytes, *pos + 1)?;
                            *pos += 4;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if bytes.get(*pos + 1) == Some(&b'\\')
                                    && bytes.get(*pos + 2) == Some(&b'u')
                                {
                                    let lo = parse_hex4(bytes, *pos + 3)?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("invalid low surrogate".to_string());
                                    }
                                    *pos += 6;
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| "invalid surrogate pair".to_string())?
                                } else {
                                    return Err("lone high surrogate".to_string());
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err("lone low surrogate".to_string());
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("invalid escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", *pos))
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar.
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| format!("invalid utf-8 at byte {}", *pos))?;
                    let c = rest.chars().next().expect("non-empty checked above");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
        let slice = bytes
            .get(at..at + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let s = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_string())?;
        u32::from_str_radix(s, 16).map_err(|_| "invalid \\u escape".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "long-header"]);
        t.row(vec!["12345".into(), "x".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].contains("12345"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        let s = t.to_string();
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_e(0.000123), "1.23e-4");
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = TextTable::new(vec!["x"]);
        assert!(t.is_empty());
        assert_eq!(t.to_string().lines().count(), 2);
    }

    #[test]
    fn json_escape_and_num() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::num(1.5), "1.5");
        assert_eq!(json::num(f64::NAN), "null");
        // Shortest-roundtrip: parsing the text back recovers the bits.
        let v = 0.1234567890123_f64.sqrt();
        assert_eq!(json::num(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
        assert_eq!(json::array(&[]), "[]");
    }

    #[test]
    fn json_parse_roundtrips_escaped_strings() {
        // parse ∘ escape = identity, including the escapes `escape` emits.
        for s in [
            "plain",
            "a\"b\\c\nd\t\r",
            "unicode ✓ ünïcode",
            "\u{1}\u{1f}",
        ] {
            let doc = format!("\"{}\"", json::escape(s));
            assert_eq!(json::parse(&doc).unwrap().as_str(), Some(s), "{doc}");
        }
        // And explicit \u escapes, surrogate pairs included.
        assert_eq!(
            json::parse("\"\\u0041\\ud83d\\ude00\"").unwrap().as_str(),
            Some("A😀")
        );
    }

    #[test]
    fn json_parse_reads_nested_documents() {
        let v = json::parse(
            "{\"op\": \"run\", \"fast\": true, \"n\": 3, \"x\": -1.5e2, \
             \"arr\": [1, null, {\"k\": false}]}",
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(json::JsonValue::as_str), Some("run"));
        assert_eq!(v.get("fast").and_then(json::JsonValue::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(json::JsonValue::as_u64), Some(3));
        assert_eq!(v.get("x").and_then(json::JsonValue::as_f64), Some(-150.0));
        let json::JsonValue::Array(arr) = v.get("arr").unwrap() else {
            panic!("expected array")
        };
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1], json::JsonValue::Null);
        assert_eq!(
            arr[2].get("k").and_then(json::JsonValue::as_bool),
            Some(false)
        );
        // `as_u64` refuses fractions and negatives.
        assert_eq!(json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(json::parse("-2").unwrap().as_u64(), None);
        assert_eq!(json::parse("0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn json_parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
            "{} trailing",
            "1..2",
            "{1: 2}",
        ] {
            assert!(json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(json::parse(&deep).unwrap_err().contains("nesting"));
    }
}
