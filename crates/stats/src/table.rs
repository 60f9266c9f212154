//! Plain-text table rendering for experiment output.

use std::fmt;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (labels).
    #[default]
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use clustered_stats::Table;
///
/// let mut t = Table::new(&["bench", "IPC"]);
/// t.row(&["swim".to_string(), "1.67".to_string()]);
/// let s = t.to_string();
/// assert!(s.contains("bench"));
/// assert!(s.contains("swim"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers; the first column
    /// is left-aligned and the rest right-aligned (the common
    /// label-plus-numbers case). Use [`Table::with_aligns`] to override.
    pub fn new(headers: &[&str]) -> Table {
        let aligns =
            (0..headers.len()).map(|i| if i == 0 { Align::Left } else { Align::Right }).collect();
        Table { headers: headers.iter().map(|h| h.to_string()).collect(), aligns, rows: Vec::new() }
    }

    /// Overrides column alignments.
    ///
    /// # Panics
    ///
    /// Panics if `aligns.len()` differs from the header count.
    pub fn with_aligns(mut self, aligns: &[Align]) -> Table {
        assert_eq!(aligns.len(), self.headers.len(), "alignment count mismatch");
        self.aligns = aligns.to_vec();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Appends a row from anything displayable.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_display(&mut self, cells: &[&dyn fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for i in 0..cols {
                if i > 0 {
                    write!(f, "  ")?;
                }
                match self.aligns[i] {
                    Align::Left => write!(f, "{:<width$}", cells[i], width = widths[i])?,
                    Align::Right => write!(f, "{:>width$}", cells[i], width = widths[i])?,
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1.5".into()]);
        t.row(&["longer".into(), "10.25".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].ends_with("  1.5"), "right-aligned number: {:?}", lines[2]);
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn row_display_accepts_mixed_types() {
        let mut t = Table::new(&["k", "v"]);
        t.row_display(&[&"x", &42]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.to_string().contains("42"));
    }

    #[test]
    #[should_panic(expected = "cell count")]
    fn wrong_arity_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    #[should_panic(expected = "alignment count")]
    fn wrong_align_count_panics() {
        let _ = Table::new(&["a", "b"]).with_aligns(&[Align::Left]);
    }
}
