//! `ci/bench_delta.sh` gates the median `frames_per_sec` of repeated smoke
//! runs against a committed baseline. These cases run the script on temp
//! JSON files and check its exit status.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory per case, so parallel tests never share files.
fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mgpu-bench-delta-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write a smoke-bench style JSON file; `None` leaves out `frames_per_sec`.
fn bench_json(dir: &Path, name: &str, fps: Option<f64>) -> PathBuf {
    let path = dir.join(name);
    let field = match fps {
        Some(v) => format!("  \"frames_per_sec\": {v:.6},\n"),
        None => String::new(),
    };
    let body =
        format!("{{\n  \"bench\": \"smoke\",\n{field}  \"pooled_frames_per_sec\": 1.000000\n}}\n");
    std::fs::write(&path, body).unwrap();
    path
}

/// The baseline file a case gates against.
enum Baseline {
    Missing,
    NoField,
    Fps(f64),
}

/// Run the gate on `baseline` and one run file per entry of `runs`
/// (`None` leaves out the field); returns the exit code.
fn gate(case: &str, baseline: Baseline, runs: &[Option<f64>], skip_env: bool) -> i32 {
    let dir = scratch(case);
    let baseline = match baseline {
        Baseline::Missing => dir.join("missing.json"),
        Baseline::NoField => bench_json(&dir, "baseline.json", None),
        Baseline::Fps(v) => bench_json(&dir, "baseline.json", Some(v)),
    };
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/bench_delta.sh");
    let mut cmd = Command::new("bash");
    cmd.arg(script).arg(&baseline).arg(case);
    for (i, fps) in runs.iter().enumerate() {
        cmd.arg(bench_json(&dir, &format!("run{i}.json"), *fps));
    }
    cmd.env_remove("BENCH_SKIP");
    if skip_env {
        cmd.env("BENCH_SKIP", "1");
    }
    let out = cmd.output().expect("run bash ci/bench_delta.sh");
    let _ = std::fs::remove_dir_all(&dir);
    out.status.code().expect("gate exited by signal")
}

fn runs(values: &[f64]) -> Vec<Option<f64>> {
    values.iter().copied().map(Some).collect()
}

#[test]
fn median_within_tolerance_passes() {
    let r = runs(&[95.0, 110.0, 90.0, 100.0, 80.0]);
    assert_eq!(gate("within", Baseline::Fps(100.0), &r, false), 0);
}

#[test]
fn median_thirty_percent_down_fails() {
    let r = runs(&[70.0, 72.0, 68.0, 70.0, 71.0]);
    assert_eq!(gate("down30", Baseline::Fps(100.0), &r, false), 1);
}

#[test]
fn one_slow_run_does_not_fail_a_good_median() {
    let r = runs(&[40.0, 98.0, 102.0, 100.0, 97.0]);
    assert_eq!(gate("outlier", Baseline::Fps(100.0), &r, false), 0);
}

#[test]
fn missing_baseline_fails() {
    let r = runs(&[100.0; 5]);
    assert_eq!(gate("nobase", Baseline::Missing, &r, false), 1);
}

#[test]
fn baseline_without_field_fails() {
    let r = runs(&[100.0; 5]);
    assert_eq!(gate("basefield", Baseline::NoField, &r, false), 1);
}

#[test]
fn run_without_field_fails() {
    let r = vec![Some(100.0), None, Some(100.0)];
    assert_eq!(gate("runfield", Baseline::Fps(100.0), &r, false), 1);
}

#[test]
fn bench_skip_env_does_not_waive_a_regression() {
    let r = runs(&[70.0, 72.0, 68.0, 70.0, 71.0]);
    assert_eq!(gate("skipenv", Baseline::Fps(100.0), &r, true), 1);
}
