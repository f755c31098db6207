//! Table rendering and CSV output for the `figures` harness.

use crate::runner::{RunResult, RunStatus};
use std::fmt::Write as _;
use std::path::Path;

/// One row of an experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id, e.g. `"fig2"`.
    pub experiment: String,
    /// Dataset short name.
    pub dataset: String,
    /// Algorithm name.
    pub algo: String,
    /// The swept parameter rendered as `name=value` (empty if none).
    pub param: String,
    /// Preprocessing seconds (`NaN` when not applicable).
    pub precompute_s: f64,
    /// Query seconds (`NaN` when not applicable).
    pub query_s: f64,
    /// Measured peak bytes over both phases (0 without the allocator).
    pub peak_bytes: usize,
    /// Memory-model bytes at the paper's full dataset size.
    pub paper_scale_bytes: usize,
    /// `ok` / `memory-crash` / `time-skip` / `failed`.
    pub status: String,
}

impl Row {
    /// Builds a row from a [`RunResult`].
    pub fn from_result(experiment: &str, dataset: &str, param: &str, r: &RunResult) -> Row {
        let (pre, q) = match &r.times {
            Some(t) => (t.precompute.as_secs_f64(), t.query.as_secs_f64()),
            None => (f64::NAN, f64::NAN),
        };
        let status = match &r.status {
            RunStatus::Ok => "ok".to_string(),
            RunStatus::MemoryCrash(_) => "memory-crash".to_string(),
            RunStatus::TimeSkipped { predicted_flops } => {
                format!("time-skip({predicted_flops:.1e}flops)")
            }
            RunStatus::Failed(e) => format!("failed({e})"),
        };
        Row {
            experiment: experiment.to_string(),
            dataset: dataset.to_string(),
            algo: r.algo.name().to_string(),
            param: param.to_string(),
            precompute_s: pre,
            query_s: q,
            peak_bytes: r.peak_precompute_bytes.max(r.peak_query_bytes),
            paper_scale_bytes: r.paper_scale_bytes,
            status,
        }
    }

    /// Total seconds (NaN-safe).
    pub fn total_s(&self) -> f64 {
        self.precompute_s + self.query_s
    }
}

/// Renders rows as an aligned ASCII table.
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<8} {:<5} {:<10} {:<12} {:>12} {:>12} {:>12} {:>14} {:>16}  status",
        "exp",
        "data",
        "algo",
        "param",
        "pre(s)",
        "query(s)",
        "total(s)",
        "peak-mem",
        "paper-scale-mem"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:<5} {:<10} {:<12} {:>12} {:>12} {:>12} {:>14} {:>16}  {}",
            r.experiment,
            r.dataset,
            r.algo,
            r.param,
            fmt_secs(r.precompute_s),
            fmt_secs(r.query_s),
            fmt_secs(r.total_s()),
            fmt_bytes(r.peak_bytes),
            fmt_bytes(r.paper_scale_bytes),
            r.status,
        );
    }
    out
}

/// Writes rows as CSV (header + one line per row).
pub fn write_csv(path: &Path, rows: &[Row]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from(
        "experiment,dataset,algo,param,precompute_s,query_s,total_s,peak_bytes,paper_scale_bytes,status\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            r.experiment,
            r.dataset,
            r.algo,
            r.param,
            csv_f64(r.precompute_s),
            csv_f64(r.query_s),
            csv_f64(r.total_s()),
            r.peak_bytes,
            r.paper_scale_bytes,
            r.status
        );
    }
    std::fs::write(path, out)
}

fn csv_f64(v: f64) -> String {
    if v.is_nan() {
        String::new()
    } else {
        format!("{v:.6}")
    }
}

/// Human-readable seconds.
pub fn fmt_secs(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v < 1e-3 {
        format!("{:.1}µs", v * 1e6)
    } else if v < 1.0 {
        format!("{:.1}ms", v * 1e3)
    } else {
        format!("{v:.2}s")
    }
}

/// Human-readable bytes.
pub fn fmt_bytes(b: usize) -> String {
    const K: f64 = 1024.0;
    let b = b as f64;
    if b == 0.0 {
        "-".to_string()
    } else if b < K {
        format!("{b:.0}B")
    } else if b < K * K {
        format!("{:.1}KiB", b / K)
    } else if b < K * K * K {
        format!("{:.1}MiB", b / K / K)
    } else if b < K * K * K * K {
        format!("{:.2}GiB", b / K / K / K)
    } else {
        format!("{:.2}TiB", b / K / K / K / K)
    }
}

/// The environment a `BENCH_*.json` was measured in, as one JSON object
/// line: the commit (`git describe --always --dirty`, `"unknown"` outside
/// a checkout), the cores the OS offers, the active SIMD ISA, the
/// `csrplus_par` thread cap and the storage precision of a default
/// config (a bench that builds at another precision says so per row).
pub fn env_json() -> String {
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\": \"{commit}\", \"cores\": {cores}, \"isa\": \"{}\", \"threads\": {}, \"precision\": \"{}\"}}",
        csrplus_linalg::simd::active(),
        csrplus_par::threads(),
        csrplus_core::precision::storage_precision().name(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        Row {
            experiment: "fig2".into(),
            dataset: "FB".into(),
            algo: "CSR+".into(),
            param: "r=5".into(),
            precompute_s: 0.25,
            query_s: 0.0005,
            peak_bytes: 12 * 1024 * 1024,
            paper_scale_bytes: 3 * 1024 * 1024 * 1024,
            status: "ok".into(),
        }
    }

    #[test]
    fn table_contains_all_fields() {
        let t = render_table("test", &[sample_row()]);
        assert!(t.contains("fig2"));
        assert!(t.contains("CSR+"));
        assert!(t.contains("250.0ms"));
        assert!(t.contains("12.0MiB"));
        assert!(t.contains("3.00GiB"));
    }

    #[test]
    fn csv_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("csrplus_report_test");
        let path = dir.join("rows.csv");
        write_csv(&path, &[sample_row()]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("experiment,dataset"));
        assert!(text.contains("fig2,FB,CSR+"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn formatting_edges() {
        assert_eq!(fmt_secs(f64::NAN), "-");
        assert_eq!(fmt_bytes(0), "-");
        assert_eq!(fmt_secs(2.0), "2.00s");
        assert!(fmt_secs(5e-7).ends_with("µs"));
        assert!(fmt_bytes(2048).contains("KiB"));
        assert!(fmt_bytes(5 * (1usize << 40)).contains("TiB"));
    }

    #[test]
    fn nan_timing_renders_as_dash() {
        let mut r = sample_row();
        r.precompute_s = f64::NAN;
        r.query_s = f64::NAN;
        let t = render_table("x", &[r]);
        assert!(t.contains(" - "));
    }
}
