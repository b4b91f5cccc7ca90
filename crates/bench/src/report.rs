//! Experiment output: aligned console tables plus CSV files under
//! `results/`, one file per figure/table, so EXPERIMENTS.md can cite them.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Destination for one experiment's outputs.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment identifier, e.g. `fig13`.
    pub id: String,
    dir: PathBuf,
}

impl Report {
    /// Creates a report rooted at `results/` (created if missing), or at
    /// `$ARRAYTRACK_RESULTS` when set.
    pub(crate) fn new(id: &str) -> std::io::Result<Self> {
        let dir = std::env::var_os("ARRAYTRACK_RESULTS")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results"));
        fs::create_dir_all(&dir)?;
        Ok(Self {
            id: id.to_string(),
            dir,
        })
    }

    /// The output directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Prints a section header to stdout.
    pub(crate) fn section(&self, title: &str) {
        println!();
        println!("=== [{}] {title} ===", self.id);
    }

    /// Prints one console line.
    pub(crate) fn line(&self, text: impl AsRef<str>) {
        println!("{}", text.as_ref());
    }

    /// Writes a CSV file `<id>_<name>.csv` with a header row and records.
    pub(crate) fn csv(
        &self,
        name: &str,
        header: &[&str],
        rows: impl IntoIterator<Item = Vec<String>>,
    ) -> std::io::Result<PathBuf> {
        let path = self.dir.join(format!("{}_{name}.csv", self.id));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", header.join(","))?;
        for row in rows {
            writeln!(f, "{}", row.join(","))?;
        }
        println!("  -> wrote {}", path.display());
        Ok(path)
    }

    /// Renders an aligned two-dimensional table to stdout.
    pub(crate) fn table(&self, header: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        println!("  {}", fmt_row(&head));
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in rows {
            println!("  {}", fmt_row(row));
        }
    }
}

/// Formats a float with 3 decimals (the tables' standard cell format).
pub(crate) fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub(crate) fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Downsamples a CDF point list to at most `max_points` for compact CSVs.
pub(crate) fn thin_cdf(points: &[(f64, f64)], max_points: usize) -> Vec<(f64, f64)> {
    if points.len() <= max_points || max_points == 0 {
        return points.to_vec();
    }
    let step = points.len() as f64 / max_points as f64;
    let mut out: Vec<(f64, f64)> = (0..max_points)
        .map(|i| points[(i as f64 * step) as usize])
        .collect();
    if let (Some(last_out), Some(last_in)) = (out.last_mut(), points.last()) {
        *last_out = *last_in;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writes_file() {
        let tmp = std::env::temp_dir().join("at_bench_report_test");
        std::env::set_var("ARRAYTRACK_RESULTS", &tmp);
        let r = Report::new("test").unwrap();
        let path = r
            .csv(
                "demo",
                &["a", "b"],
                vec![vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
            )
            .unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        std::env::remove_var("ARRAYTRACK_RESULTS");
    }

    #[test]
    fn thin_cdf_preserves_endpoints() {
        let pts: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64, i as f64 / 1000.0)).collect();
        let thin = thin_cdf(&pts, 50);
        assert_eq!(thin.len(), 50);
        assert_eq!(thin[0], pts[0]);
        assert_eq!(*thin.last().unwrap(), *pts.last().unwrap());
        // Already-small lists pass through.
        assert_eq!(thin_cdf(&pts[..10], 50).len(), 10);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
    }
}
