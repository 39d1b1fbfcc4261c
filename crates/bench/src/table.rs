//! Experiment output tables: aligned text for the terminal, JSON for
//! EXPERIMENTS.md artifacts.

use vc_testkit::json::Json;

/// One experiment's result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "E4".
    pub id: String,
    /// Human title.
    pub title: String,
    /// The paper anchor this table operationalizes.
    pub paper_anchor: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (expected shape, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, paper_anchor: &str, columns: &[&str]) -> Table {
        Table {
            id: id.to_owned(),
            title: title.to_owned(),
            paper_anchor: paper_anchor.to_owned(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch in {}", self.id);
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("   (paper anchor: {})\n", self.paper_anchor));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect();
        out.push_str(&format!("  {}\n", header.join(" | ")));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("  {}\n", rule.join("-+-")));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            out.push_str(&format!("  {}\n", line.join(" | ")));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// The JSON artifact form. Key and row order are deterministic, so two
    /// identically-seeded runs produce byte-identical artifacts (the CI
    /// determinism gate diffs this output).
    pub fn to_json(&self) -> Json {
        let strings = |xs: &[String]| Json::array(xs.iter().map(|s| Json::from(s.as_str())));
        Json::object([
            ("id", Json::from(self.id.as_str())),
            ("title", Json::from(self.title.as_str())),
            ("paper_anchor", Json::from(self.paper_anchor.as_str())),
            ("columns", strings(&self.columns)),
            ("rows", Json::array(self.rows.iter().map(|r| strings(r)))),
            ("notes", strings(&self.notes)),
        ])
    }
}

/// Formats a float with 3 significant decimals.
pub(crate) fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub(crate) fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a fraction as a percentage.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("E0", "demo", "Fig. 0", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("E0 — demo"));
        assert!(s.contains("long-name | 2"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("E0", "demo", "x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_roundtrip() {
        let mut t = Table::new("E1", "x", "y", &["c"]);
        t.row(vec!["v".into()]);
        let j = t.to_json();
        assert_eq!(j["id"], "E1");
        assert_eq!(j["rows"][0][0], "v");
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(pct(0.5), "50.0%");
    }
}
