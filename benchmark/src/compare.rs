//! Result sets: `suite` runs every workload several times, one fresh process
//! per run, into `benchmark/out/<name>.jsonl`; `--compare A B` reads two such
//! sets and prints, per workload × end-to-end metric, medians, quartiles,
//! relative difference, bound and verdict.

use crate::metrics::END_TO_END;
use crate::scratch::out_dir;
use crate::WORKLOADS;
use serde::Deserialize;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One metric value as printed on the result line.
#[derive(Debug, Clone, Deserialize)]
pub struct Metric {
    /// The measurement.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// One line of a result set.
#[derive(Debug, Clone, Deserialize)]
pub struct ResultLine {
    /// Workload name.
    pub workload: String,
    /// `--seed` of the run.
    pub seed: u64,
    /// Whether every answer verified and every steady-state check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: HashMap<String, Metric>,
}

#[derive(Debug, Deserialize)]
struct Declared {
    name: String,
    better: String,
    bound: f64,
}

#[derive(Debug, Deserialize)]
struct BenchmarkJson {
    end_to_end: Vec<Declared>,
}

/// `<name>` → `benchmark/out/<name>.jsonl`; anything with a separator or an
/// extension is taken as a path.
fn set_path(name: &str) -> PathBuf {
    if name.contains('/') || name.contains('.') {
        PathBuf::from(name)
    } else {
        out_dir().join(format!("{name}.jsonl"))
    }
}

/// Runs every workload `runs` times (seeds `seed, seed+1, …`), each in its
/// own process, strictly one after the other, and appends the result lines
/// to the set `name`. Returns the set's path.
pub fn suite(
    name: &str,
    runs: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = set_path(name);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let mut lines = String::new();
    for run in 0..runs {
        for workload in WORKLOADS {
            let run_seed = seed + run as u64;
            let out = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("spawning {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            if !out.status.success() || !last.starts_with('{') {
                return Err(format!(
                    "{workload} (seed {run_seed}) exited with {}:\n{}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let _ = writeln!(
                lines,
                "{{\"workload\":\"{workload}\",\"seed\":{run_seed},{}",
                &last[1..]
            );
            std::fs::write(&path, &lines).map_err(|e| e.to_string())?;
        }
    }
    Ok(path)
}

fn read_set(path: &Path) -> Result<Vec<ResultLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method the
/// driver uses), so spreads printed here are the spreads it will compute.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = x.len();
    if m < 2 {
        let v = x.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let mut q = [0.0; 3];
    for (slot, i) in q.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    q
}

fn values_of(set: &[ResultLine], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|l| l.workload == workload)
        .filter_map(|l| l.metrics.get(metric).map(|m| m.value))
        .collect()
}

/// The comparison table as markdown. `Err` when either set holds a run that
/// did not verify.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let (set_a, set_b) = (read_set(&set_path(a))?, read_set(&set_path(b))?);
    if let Some(bad) = set_a.iter().chain(&set_b).find(|l| !l.correct) {
        return Err(format!(
            "{} seed {}: {} of {} operations failed",
            bad.workload, bad.seed, bad.failed, bad.attempted
        ));
    }
    let declared_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let declared: BenchmarkJson = serde_json::from_str(
        &std::fs::read_to_string(&declared_path)
            .map_err(|e| format!("{}: {e}", declared_path.display()))?,
    )
    .map_err(|e| format!("BENCHMARK.json: {e}"))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | IQR/median A, B | B vs A | bound | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for workload in WORKLOADS {
        for (metric, unit) in END_TO_END {
            let (va, vb) = (
                values_of(&set_a, workload, metric),
                values_of(&set_b, workload, metric),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let d = declared
                .end_to_end
                .iter()
                .find(|d| d.name == *metric)
                .ok_or_else(|| format!("BENCHMARK.json does not declare {metric}"))?;
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            // Positive = B is worse than A, whatever the metric's direction.
            let worse = if d.better == "lower" {
                (qb[1] - qa[1]) / qa[1]
            } else {
                (qa[1] - qb[1]) / qa[1]
            };
            let verdict = if spread(qa).max(spread(qb)) > d.bound {
                "unresolved (spread > bound)"
            } else if worse > d.bound {
                "WORSE"
            } else if spread(qa).max(spread(qb)) > d.bound / 2.0 {
                "same (spread > bound/2)"
            } else {
                "same"
            };
            let _ = writeln!(
                out,
                "| {workload} | {metric} | {unit} | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {:.1} %, {:.1} % | {:+.1} % | {:.0} % | {verdict} |",
                qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                spread(qa) * 100.0, spread(qb) * 100.0,
                worse * 100.0, d.bound * 100.0,
            );
        }
    }
    Ok(out)
}
