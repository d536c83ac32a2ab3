//! Column-aligned ASCII tables for experiment output.
//!
//! The benchmark harness prints each figure/table of the paper as an ASCII
//! table; this module does the alignment so experiment code stays readable.

use std::fmt::Write as _;

/// A simple column-aligned table.
///
/// # Examples
///
/// ```
/// use atropos_metrics::Table;
///
/// let mut t = Table::new(vec!["load", "throughput", "p99"]);
/// t.row(vec!["5k".into(), "4998".into(), "1.2ms".into()]);
/// let s = t.render();
/// assert!(s.contains("throughput"));
/// assert!(s.contains("4998"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<impl Into<String>>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with blanks;
    /// longer rows are allowed and extend the table width.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a header rule.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:<w$}");
                if i + 1 < widths.len() {
                    out.push_str("  ");
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule_len = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for r in &self.rows {
            write_row(&mut out, r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["xxx".into(), "y".into()]);
        t.row(vec!["z".into(), "wwww".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Columns align: "bb" and "y" start at the same offset.
        let header_off = lines[0].find("bb").unwrap();
        let row_off = lines[2].find('y').unwrap();
        assert_eq!(header_off, row_off);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["1".into()]);
        let s = t.render();
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn long_rows_extend_the_table() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains('2'));
    }

    #[test]
    fn empty_and_len() {
        let mut t = Table::new(vec!["a"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
