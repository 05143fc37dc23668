//! # wfd-bench — the experiment harness
//!
//! One binary per experiment of the per-experiment index in DESIGN.md
//! (`cargo run -p wfd-bench --bin exp_…`). Each binary prints a
//! human-readable table and writes the same rows as JSON under
//! `target/experiments/` (overridable via `WFD_EXPERIMENTS_DIR`), which
//! is what EXPERIMENTS.md records. End-to-end timing lives in the
//! separate `wfd-benchmark` package under `benchmark/`.
//!
//! Sweep-style experiments fan their runs across cores with [`sweep`];
//! every run stays deterministic given its own seed and results are
//! returned in grid order, so the emitted tables are byte-identical to a
//! sequential execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod sweep;

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use wfd_sim::json::{escape, Json};
use wfd_sim::{EnvOverrides, MetricsMode, Obs};

/// The `--metrics[=PATH]` CLI convention shared by the experiment
/// binaries: opt into the [`wfd_sim::obs`] layer for the run, and either
/// embed the resulting `metrics` block in the binary's JSON artifact
/// (bare `--metrics`) or write it standalone to `PATH` (`--metrics=PATH`).
///
/// [`MetricsFlag::take`] strips the flag out of an argument list so
/// binaries with positional modes (`exp_fuzz_campaign replay …`) can
/// match on what remains.
#[derive(Clone, Debug, Default)]
pub struct MetricsFlag {
    /// Whether `--metrics` (either spelling) was present.
    pub enabled: bool,
    /// The `PATH` of `--metrics=PATH`, if given.
    pub path: Option<String>,
}

impl MetricsFlag {
    /// Parse the current process arguments (flag-only binaries).
    pub fn from_args() -> Self {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        Self::take(&mut args)
    }

    /// Remove every `--metrics[=PATH]` occurrence from `args` and return
    /// the parsed flag (the last `PATH` wins).
    pub fn take(args: &mut Vec<String>) -> Self {
        let mut flag = MetricsFlag::default();
        args.retain(|a| {
            if a == "--metrics" {
                flag.enabled = true;
                false
            } else if let Some(path) = a.strip_prefix("--metrics=") {
                flag.enabled = true;
                flag.path = Some(path.to_string());
                false
            } else {
                true
            }
        });
        flag
    }

    /// The observability handle this invocation asked for. The flag is
    /// the *explicit* end of the precedence rule (explicit > env >
    /// default): with `--metrics` present metrics are on even if
    /// `WFD_METRICS` is unset (a `WFD_METRICS=heartbeat` still upgrades
    /// the run to heartbeat mode); without it, `WFD_METRICS` decides.
    pub fn resolve_obs(&self) -> Obs {
        let env = EnvOverrides::from_env();
        if !self.enabled {
            return env.resolve_obs(None);
        }
        match env.metrics {
            MetricsMode::Heartbeat(secs) => {
                Obs::with_heartbeat(std::time::Duration::from_secs(secs))
            }
            _ => Obs::on(),
        }
    }

    /// Snapshot `obs` into its `metrics` JSON block, self-validated: the
    /// rendered block is parsed back with [`Json::parse`] before it is
    /// returned, so a malformed artifact panics at the source instead of
    /// corrupting an experiment artifact or metrics file. With
    /// `--metrics=PATH` the block is *also* written standalone to `PATH`.
    /// Returns `None` when metrics are off.
    pub fn emit(&self, obs: &Obs) -> Option<Json> {
        let snapshot = obs.snapshot()?;
        let json = snapshot.to_json();
        let rendered = wfd_sim::json::render_validated(&json);
        if let Some(path) = &self.path {
            std::fs::write(path, format!("{rendered}\n")).expect("write --metrics=PATH artifact");
            println!("(saved metrics to {path})");
        }
        Some(json)
    }
}

/// A simple experiment table: named columns, stringly-printed rows, and a
/// JSON artifact for reproducibility.
#[derive(Debug)]
pub struct Table {
    /// Experiment id (e.g. "E1-fig1-sigma-extraction").
    pub id: String,
    /// What the experiment shows.
    pub caption: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row data (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(id: &str, caption: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            caption: caption.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (anything `Display` works).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Append a row of pre-formatted cells — the shape sweep results
    /// arrive in.
    pub fn row_strings(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// The directory experiment artifacts are written to:
    /// `$WFD_EXPERIMENTS_DIR` if set, else `target/experiments` (resolved
    /// through [`EnvOverrides`], the one home of `WFD_*` reads).
    pub fn artifact_dir() -> PathBuf {
        EnvOverrides::from_env().resolve_experiments_dir(None)
    }

    /// Print the table and write `<artifact_dir>/<id>.json`; returns the
    /// artifact path on success so callers (and CI) can collect it.
    pub fn finish(&self) -> Option<PathBuf> {
        self.finish_with_metrics(None)
    }

    /// [`Table::finish`], with a `metrics` block (see
    /// [`MetricsFlag::emit`]) appended to the JSON artifact when one is
    /// given.
    pub fn finish_with_metrics(&self, metrics: Option<&Json>) -> Option<PathBuf> {
        println!("\n== {} ==", self.id);
        println!("{}", self.caption);
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(c.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.columns));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for r in &self.rows {
            println!("{}", line(r));
        }
        match self.save(metrics) {
            Ok(path) => {
                println!("(saved {})", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("(could not save JSON artifact: {e})");
                None
            }
        }
    }

    /// The table as a pretty-printed JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"id\": {},\n", escape(&self.id)));
        out.push_str(&format!("  \"caption\": {},\n", escape(&self.caption)));
        let cols: Vec<String> = self.columns.iter().map(|c| escape(c)).collect();
        out.push_str(&format!("  \"columns\": [{}],\n", cols.join(", ")));
        out.push_str("  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            let cells: Vec<String> = r.iter().map(|c| escape(c)).collect();
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    [{}]", cells.join(", ")));
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    fn save(&self, metrics: Option<&Json>) -> std::io::Result<PathBuf> {
        let mut json = self.to_json();
        if let Some(metrics) = metrics {
            // Splice the block in before the closing brace, then prove
            // the string-built artifact still parses.
            json.truncate(json.len() - "\n}".len());
            json.push_str(&format!(",\n  \"metrics\": {metrics}\n}}"));
            Json::parse(&json).expect("artifact with metrics block must parse");
        }
        let dir = Self::artifact_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        fs::write(&path, json)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formats_rows() {
        let mut t = Table::new("T0", "caption", &["a", "bb"]);
        t.row(&[&1, &"x"]);
        t.row(&[&22, &"yy"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1], vec!["22", "yy"]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_checked() {
        let mut t = Table::new("T0", "caption", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn to_json_is_well_formed() {
        let mut t = Table::new("T1", "cap \"quoted\"", &["x", "y"]);
        t.row(&[&1, &"a"]);
        t.row(&[&2, &"b"]);
        let j = t.to_json();
        assert!(j.contains("\"id\": \"T1\""));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("[\"1\", \"a\"]"));
        // Balanced braces/brackets as a cheap structural check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn row_strings_appends() {
        let mut t = Table::new("T2", "c", &["a"]);
        t.row_strings(vec!["v".into()]);
        assert_eq!(t.rows, vec![vec!["v".to_string()]]);
    }
}
