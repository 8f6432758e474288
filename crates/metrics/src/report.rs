//! Report rendering: aligned text tables and JSON.
//!
//! Every figure-regeneration binary prints a table through this module so
//! outputs are uniform and machine-readable (EXPERIMENTS.md is generated
//! from them).

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics when the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Append a row from displayable values.
    pub fn push<D: std::fmt::Display>(&mut self, cells: &[D]) {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let line = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::new();
            for (i, c) in cells.iter().enumerate() {
                parts.push(format!("{:<width$}", c, width = widths[i]));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&mut out, &sep);
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Render as a JSON array of objects keyed by header.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Array(
            self.rows
                .iter()
                .map(|row| {
                    let mut obj = serde_json::Map::new();
                    for (h, c) in self.headers.iter().zip(row) {
                        let v = c
                            .parse::<f64>()
                            .map(|f| {
                                serde_json::Number::from_f64(f)
                                    .map(serde_json::Value::Number)
                                    .unwrap_or_else(|| serde_json::Value::from(c.as_str()))
                            })
                            .unwrap_or_else(|_| serde_json::Value::from(c.as_str()));
                        obj.insert(h.clone(), v);
                    }
                    serde_json::Value::Object(obj)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig 1", &["tasks", "docker_s", "knative_s"]);
        t.push(&[10.0, 6.25, 6.26]);
        t.push(&[160.0, 100.0, 78.0]);
        t
    }

    #[test]
    fn render_aligns_and_includes_title() {
        let r = sample().render();
        assert!(r.contains("## Fig 1"));
        assert!(r.contains("| tasks"));
        assert!(r.lines().count() >= 5);
    }

    #[test]
    fn json_rows_are_keyed_by_header() {
        let json = sample().to_json();
        assert_eq!(json[1]["docker_s"], serde_json::json!(100.0));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn len_and_empty() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(Table::new("", &["x"]).is_empty());
    }
}
