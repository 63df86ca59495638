//! Fixed-width table printing for the repro binary, and the exact form of
//! a table's deterministic columns that the golden test compares.

/// One table cell: the text `repro` prints and, for a measured number,
/// its exact value.
pub struct Cell {
    text: String,
    exact: Option<f64>,
}

impl From<String> for Cell {
    fn from(text: String) -> Self {
        Self { text, exact: None }
    }
}

impl From<&str> for Cell {
    fn from(text: &str) -> Self {
        text.to_string().into()
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        n.to_string().into()
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Self {
        n.to_string().into()
    }
}

/// A simple right-aligned text table whose columns are each either
/// deterministic (page, read, node and pruning counts, hit rates, fill,
/// overlap and their ratios) or wall clock.
pub struct Table {
    title: String,
    headers: Vec<String>,
    wall_clock: Vec<bool>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates a table with a title line and column headers, all of them
    /// deterministic until [`Table::wall_clock`] marks some.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            wall_clock: vec![false; headers.len()],
            rows: Vec::new(),
        }
    }

    /// Marks the named columns as wall clock: they vary from run to run,
    /// so [`Table::render_exact`] leaves them out.
    pub fn wall_clock(mut self, headers: &[&str]) -> Self {
        for h in headers {
            let i = self
                .headers
                .iter()
                .position(|x| x == h)
                .unwrap_or_else(|| panic!("no column {h:?}"));
            self.wall_clock[i] = true;
        }
        self
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.text.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &mut dyn Iterator<Item = &str>| -> String {
            let mut line = String::new();
            for (cell, w) in cells.zip(&widths) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&mut self.headers.iter().map(String::as_str)));
        out.push('\n');
        let total: usize = widths
            .iter()
            .map(|w| w + 2)
            .sum::<usize>()
            .saturating_sub(2);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(&mut row.iter().map(|c| c.text.as_str())));
            out.push('\n');
        }
        out
    }

    /// Renders the title and the deterministic columns, each number at
    /// full precision, one unaligned row per line, so that a change of
    /// one page across a whole query batch shows and a diff names the
    /// rows that moved.
    pub fn render_exact(&self) -> String {
        let kept = |i: &usize| !self.wall_clock[*i];
        let line = |cells: Vec<String>| cells.join(" | ") + "\n";
        let mut out = format!("== {} ==\n", self.title);
        out += &line(
            (0..self.headers.len())
                .filter(kept)
                .map(|i| self.headers[i].clone())
                .collect(),
        );
        for row in &self.rows {
            out += &line(
                (0..row.len())
                    .filter(kept)
                    .map(|i| match row[i].exact {
                        Some(x) => x.to_string(),
                        None => row[i].text.clone(),
                    })
                    .collect(),
            );
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// A measured number, printed with `prec` decimals.
pub fn f(x: f64, prec: usize) -> Cell {
    Cell {
        text: format!("{x:.prec$}"),
        exact: Some(x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["k", "pages"]);
        t.row(vec!["1".into(), "12.5".into()]);
        t.row(vec!["25".into(), "7.0".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains(" k"));
        let lines: Vec<&str> = s.lines().collect();
        // Header + separator + 2 rows + title line + leading blank.
        assert_eq!(lines.len(), 6);
        // Right alignment: "25" ends where "k" header column ends.
        assert!(lines[5].starts_with("25"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn helpers_format() {
        let mut t = Table::new("demo", &["k", "pages", "time [µs]"]).wall_clock(&["time [µs]"]);
        t.row(vec!["10".into(), f(1.23456, 2), f(3.0, 1)]);
        let shown = t.render();
        assert!(shown.contains(" 1.23 ") && !shown.contains("1.234"));
        assert!(shown.ends_with(" 3.0\n"));
        assert_eq!(t.render_exact(), "== demo ==\nk | pages\n10 | 1.23456\n");
    }
}
