//! # ambit-bench — experiment harnesses for the Ambit reproduction
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md for the full index); the Criterion
//! benches in `benches/` measure the simulator itself. This library crate
//! holds the shared report-formatting helpers and quick-mode plumbing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::Display;

/// Returns `true` when `AMBIT_QUICK` is set: harnesses shrink their sweeps
/// for smoke testing (CI) while keeping the same code paths.
pub fn quick_mode() -> bool {
    std::env::var_os("AMBIT_QUICK").is_some()
}

/// A fixed-width text table mirroring the paper's presentation.
#[derive(Debug)]
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report with a title line (e.g. `"Figure 9: ..."`).
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row of cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders the table as CSV (header row first) for external plotting.
    pub fn render_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `path` when the `AMBIT_CSV_DIR`
    /// environment variable is set (harnesses call this after printing).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv_if_requested(&self, name: &str) -> std::io::Result<()> {
        if let Some(dir) = std::env::var_os("AMBIT_CSV_DIR") {
            let mut path = std::path::PathBuf::from(dir);
            std::fs::create_dir_all(&path)?;
            path.push(format!("{name}.csv"));
            std::fs::write(path, self.render_csv())?;
        }
        Ok(())
    }
}

/// Formats seconds with a sensible SI unit.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.2} us", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Formats a ratio as `12.3x`.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.1}x")
}

/// Formats any display value right-padded (convenience for rows).
pub fn cell(v: impl Display) -> String {
    v.to_string()
}

/// Prints a paper-vs-measured comparison footer line.
pub fn compare_line(label: &str, paper: impl Display, measured: impl Display) {
    println!("  {label}: paper {paper}, reproduced {measured}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned_columns() {
        let mut r = Report::new("Test", &["a", "long-header", "c"]);
        r.row(&[cell(1), cell("x"), cell(2.5)]);
        r.row(&[cell(100), cell("yyyy"), cell("z")]);
        let s = r.render();
        assert!(s.contains("== Test =="));
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn report_checks_arity() {
        let mut r = Report::new("t", &["a", "b"]);
        r.row(&[cell(1)]);
    }

    #[test]
    fn csv_rendering_escapes_and_aligns() {
        let mut r = Report::new("t", &["a", "b"]);
        r.row(&[cell("x,y"), cell(1)]);
        r.row(&[cell("plain"), cell(2)]);
        let csv = r.render_csv();
        assert_eq!(csv, "a,b\n\"x,y\",1\nplain,2\n");
    }

    #[test]
    fn time_formatting_units() {
        assert_eq!(fmt_time(2.0), "2.00 s");
        assert_eq!(fmt_time(2e-3), "2.00 ms");
        assert_eq!(fmt_time(2e-6), "2.00 us");
        assert_eq!(fmt_time(5e-9), "5.0 ns");
        assert_eq!(fmt_ratio(6.04), "6.0x");
    }
}
