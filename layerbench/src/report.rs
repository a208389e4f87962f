//! Metric names, the per-layer aggregation shared by the workloads, and
//! the output: a human-readable report followed by the one-line JSON
//! result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{mean, Summary};
use crate::trace::Parts;

/// End-to-end metrics (untraced run), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("frames_per_s", "frames/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p95", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics (traced run), in `BENCHMARK.json` order. Times are
/// means per frame unless the name says otherwise.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("volren.map_ms", "ms/frame"),
    ("volren.map_critical_ms", "ms/frame"),
    ("gpu.samples", "count/frame"),
    ("gpu.ns_per_sample", "ns"),
    ("gpu.divergence", "ratio"),
    ("volren.stitch_ms", "ms/frame"),
    ("mapreduce.run_job_ms", "ms/frame"),
    ("mapreduce.overhead_ms", "ms/frame"),
    ("mapreduce.reduce_ms", "ms/frame"),
    ("mapreduce.imbalance", "ratio"),
    ("mapreduce.fragments_kept", "count/frame"),
    ("mapreduce.wire_bytes", "B/frame"),
    ("mapreduce.batches", "count/frame"),
    ("voldata.stage_ms", "ms/frame"),
    ("voldata.prepare_ms", "ms/frame"),
    ("voldata.bytes_staged", "B/frame"),
    ("voldata.evictions", "count/frame"),
    ("sim.replay_ms", "ms/frame"),
    ("sim.makespan_ms", "ms/frame"),
    ("sim.fig3_map_ms", "ms/frame"),
    ("sim.fig3_partition_io_ms", "ms/frame"),
    ("sim.fig3_sort_ms", "ms/frame"),
    ("sim.fig3_reduce_ms", "ms/frame"),
    ("serve.frame_cache_hit_rate", "ratio"),
    ("serve.plan_cache_hit_rate", "ratio"),
    ("serve.batch_occupancy", "frames/batch"),
    ("serve.frames_rendered", "count"),
    ("serve.admission_rejected", "count"),
    ("serve.unattributed_ms", "ms/request"),
    ("net.hit_ms_p50", "ms"),
    ("net.encode_frame_ms", "ms/frame"),
    ("net.decode_frame_ms", "ms/frame"),
    ("net.frame_bytes", "B/frame"),
    ("net.encode_request_us", "us/request"),
    ("net.loop_wakeups_per_request", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics that do not apply to this workload, with why;
    /// they are reported as 0.
    pub not_applicable: Vec<(&'static str, &'static str)>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    pub fn na(&mut self, names: &[&'static str], why: &'static str) {
        for name in names {
            self.not_applicable.push((name, why));
        }
    }

    /// Print a latency distribution with its sample count and return it.
    pub fn latency(&mut self, label: &str, ms: &[f64]) -> Option<Summary> {
        let s = Summary::of(ms)?;
        let tail = Summary::tail_samples(ms, s.p95);
        self.line(format!(
            "{label}: n={} p50={:.3} ms p95={:.3} ms mean={:.3} ms ({tail} samples above p95)",
            s.n, s.p50, s.p95, s.mean
        ));
        Some(s)
    }

    /// The per-layer render metrics: means per frame over `parts`.
    pub fn render_layers(&mut self, parts: &[Parts]) {
        if parts.is_empty() {
            let render_layers = ["volren.", "gpu.", "mapreduce.", "voldata.", "sim."];
            for (name, _) in PER_LAYER {
                if render_layers.iter().any(|l| name.starts_with(l)) {
                    self.na(&[name], "no frame was rendered in the traced phase");
                }
            }
            return;
        }
        let ms = |f: &dyn Fn(&Parts) -> f64| {
            mean(&parts.iter().map(|p| f(p) / 1e6).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let avg = |f: &dyn Fn(&Parts) -> f64| {
            mean(&parts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let sum = |f: &dyn Fn(&Parts) -> f64| parts.iter().map(f).sum::<f64>();
        self.set("volren.map_ms", ms(&|p| p.map_sum_ns as f64));
        self.set("volren.map_critical_ms", ms(&|p| p.map_critical_ns as f64));
        self.set("gpu.samples", avg(&|p| p.samples as f64));
        let samples = sum(&|p| p.samples as f64);
        self.set(
            "gpu.ns_per_sample",
            sum(&|p| p.map_sum_ns as f64) / samples.max(1.0),
        );
        self.set(
            "gpu.divergence",
            sum(&|p| p.simt_samples as f64) / samples.max(1.0),
        );
        self.set("volren.stitch_ms", ms(&|p| p.stitch_ns as f64));
        self.set("mapreduce.run_job_ms", ms(&|p| p.run_job_ns as f64));
        self.set(
            "mapreduce.overhead_ms",
            ms(&|p| p.run_job_ns as f64 - p.map_critical_ns as f64),
        );
        self.set("mapreduce.reduce_ms", ms(&|p| p.reduce_ns as f64));
        self.set(
            "mapreduce.imbalance",
            sum(&|p| p.map_critical_ns as f64) / sum(&|p| p.map_mean_ns).max(1.0),
        );
        self.set(
            "mapreduce.fragments_kept",
            avg(&|p| p.fragments_kept as f64),
        );
        self.set("mapreduce.wire_bytes", avg(&|p| p.wire_bytes as f64));
        self.set("mapreduce.batches", avg(&|p| p.batches as f64));
        self.set("voldata.stage_ms", ms(&|p| p.stage_ns as f64));
        self.set("voldata.prepare_ms", ms(&|p| p.prepare_ns as f64));
        self.set("voldata.bytes_staged", avg(&|p| p.bytes_staged as f64));
        self.set("voldata.evictions", avg(&|p| p.evictions as f64));
        self.set("sim.replay_ms", ms(&|p| p.replay_ns as f64));
        self.set("sim.makespan_ms", ms(&|p| p.makespan_ns as f64));
        let fig3 = [
            "sim.fig3_map_ms",
            "sim.fig3_partition_io_ms",
            "sim.fig3_sort_ms",
            "sim.fig3_reduce_ms",
        ];
        for (i, name) in fig3.into_iter().enumerate() {
            self.set(name, ms(&|p| p.fig3_ns[i] as f64));
        }
        self.fig3_table(parts);
    }

    /// The paper's Figure-3 buckets as modeled by the DES replay, beside
    /// the host time measured for the same phase of the same frames.
    fn fig3_table(&mut self, parts: &[Parts]) {
        let n = parts.len() as f64;
        let m = |f: &dyn Fn(&Parts) -> f64| parts.iter().map(f).sum::<f64>() / n / 1e6;
        let rows = [
            (
                "map",
                m(&|p| p.fig3_ns[0] as f64),
                m(&|p| p.map_critical_ns as f64),
                "slowest mapper's map_chunk",
            ),
            (
                "partition+I/O",
                m(&|p| p.fig3_ns[1] as f64),
                m(&|p| p.stage_ns as f64),
                "brick staging (measured I/O)",
            ),
            (
                "sort",
                m(&|p| p.fig3_ns[2] as f64),
                m(&|p| {
                    (p.run_job_ns as f64 - p.map_critical_ns as f64 - p.reduce_ns as f64).max(0.0)
                }),
                "run_job minus map and reduce",
            ),
            (
                "reduce",
                m(&|p| p.fig3_ns[3] as f64),
                m(&|p| p.reduce_ns as f64),
                "summed CompositeReducer::reduce",
            ),
        ];
        self.line(format!(
            "Figure-3 buckets over {} frames: modeled (DES) vs measured (host)",
            parts.len()
        ));
        for (bucket, modeled, measured, what) in rows {
            let ratio = measured / modeled.max(1e-9);
            let verdict = if (0.5..=2.0).contains(&ratio) {
                "agree within 2x"
            } else {
                "DISAGREE"
            };
            self.line(format!(
                "  {bucket:<14} modeled {modeled:>9.3} ms  measured {measured:>9.3} ms  ({what}; measured/modeled {ratio:.2}, {verdict})"
            ));
        }
    }

    /// Render the report: human lines, then the JSON result as the last
    /// line. `traced` selects the per-layer metric set.
    pub fn finish(&self, workload: &str, traced: bool) -> String {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{workload}: attempted={} failed={} failed_frac={failed_frac} (ratio; failed, refused or not bit-identical)",
            self.attempted, self.failed
        );
        let mut json = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None => {
                    let why = self
                        .not_applicable
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, why)| *why)
                        .unwrap_or_else(|| panic!("{workload} did not measure {name}"));
                    let _ = writeln!(
                        out,
                        "  {name}: not applicable on {workload}, reported as 0: {why}"
                    );
                    0.0
                }
            };
            let _ = writeln!(out, "  {name} = {value} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(name, value)
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
        out
    }
}

/// JSON has no NaN or infinity: a metric that could not be computed is a
/// bug in the benchmark, so the run fails rather than print a result.
fn json_number(name: &str, v: f64) -> String {
    assert!(v.is_finite(), "metric {name} is not finite: {v}");
    format!("{v}")
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_prints_every_declared_metric_and_json_last() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let out = r.finish("w", false);
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(last.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    #[test]
    fn not_applicable_layers_are_zero_with_a_reason() {
        let mut r = Report {
            attempted: 1,
            failed: 1,
            ..Report::default()
        };
        for (name, _) in PER_LAYER.iter().skip(1) {
            r.set(name, 2.0);
        }
        r.na(&["volren.map_ms"], "no map here");
        let out = r.finish("w", true);
        assert!(out.contains("volren.map_ms: not applicable on w, reported as 0: no map here"));
        assert!(out
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn rss_is_positive() {
        assert!(rss_peak_mib() > 0.0);
    }
}
