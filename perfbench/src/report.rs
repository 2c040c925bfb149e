//! Metric names, summary statistics and the result line.
//!
//! Every run prints the whole metric list of its mode, in the order
//! below: the end-to-end list untraced, the per-layer list traced. A
//! workload fills the values it measures; a per-layer value a workload
//! never reaches stays 0, which the README's layer table spells out.

use crate::trace::SpanLog;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("steps_per_s", "steps/s"),
    ("best_cost", "cost"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("anneal.steps", "count"),
    ("anneal.accept_frac", "ratio"),
    ("anneal.infeasible_frac", "ratio"),
    ("anneal.engine_ns", "ns"),
    ("anneal.snapshot_ns", "ns"),
    ("mapping.try_move_ns", "ns"),
    ("mapping.undo_ns", "ns"),
    ("evaluator.evaluations", "count"),
    ("evaluator.fallback_frac", "ratio"),
    ("evaluator.mean_cone", "nodes"),
    ("evaluator.full_passes", "count"),
    ("evaluator.arena_growths", "count"),
    ("arch.try_move_ns", "ns"),
    ("arch.undo_ns", "ns"),
    ("arch.steps", "count"),
    ("portfolio.segments", "count"),
    ("portfolio.segment_ms", "ms"),
    ("portfolio.barrier_ms", "ms"),
    ("portfolio.efficiency", "ratio"),
    ("portfolio.adoptions", "count"),
    ("pool.dispatch_us", "us"),
    ("pool.imbalance_ms", "ms"),
    ("serve.fresh_ms", "ms"),
    ("serve.deeper_ms", "ms"),
    ("serve.exact_ms", "ms"),
    ("serve.first_update_ms", "ms"),
    ("serve.result_bytes", "bytes"),
    ("serve.cache_hits", "count"),
    ("serve.store_exact_hits", "count"),
    ("serve.store_warm_starts", "count"),
    ("store.records_replayed", "count"),
    ("store.replay_ms", "ms"),
    ("setup.model_ms", "ms"),
    ("setup.explorer_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The values of one metric list, all starting at 0.
#[derive(Debug, Clone)]
pub struct Metrics {
    list: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(list: &'static [(&'static str, &'static str)]) -> Self {
        for (name, _) in list {
            assert!(valid_metric_name(name), "bad metric name {name}");
        }
        Metrics {
            list,
            values: list.iter().map(|(n, _)| (*n, 0.0)).collect(),
        }
    }

    /// Sets a metric of this list; an unknown name is a bug in the
    /// benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in this list"));
        *slot = value;
    }

    /// `(name, value, unit)` in list order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.list.iter().map(|(n, u)| (*n, self.values[n], *u))
    }
}

/// What a workload run hands back.
#[derive(Debug)]
pub struct Outcome {
    /// Jobs attempted, output checks included.
    pub attempted: u64,
    /// Jobs that failed: a search error, an oracle mismatch, an error
    /// frame or a transport failure.
    pub failed: u64,
    pub metrics: Metrics,
    /// Extra human-readable lines (percentiles beyond p90, readings).
    pub notes: Vec<String>,
    /// Spans of a traced run, written out when the run ends.
    pub spans: SpanLog,
}

/// 1-based nearest rank of percentile `p` among `n` samples, in exact
/// integer arithmetic on `p` in tenths of a percent.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples that lie beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of p50, p90, p99 and p99.9 that has at least ten samples
/// beyond it, if any.
pub fn highest_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

/// `job_p50_ms` and `job_p90_ms` of job latencies. p90 needs ten
/// samples beyond it, so fewer than 100 jobs is refused.
pub fn job_percentiles(latencies_ms: &[f64]) -> Result<(f64, f64), String> {
    if beyond(latencies_ms.len(), 90.0) < 10 {
        return Err(format!(
            "job_p90_ms needs at least 100 jobs, got {}",
            latencies_ms.len()
        ));
    }
    Ok((
        percentile(latencies_ms, 50.0),
        percentile(latencies_ms, 90.0),
    ))
}

/// The job latency median, printed beside the metrics but not among
/// them: on a shared host a single-threaded job's median jumps between
/// contention regimes (see the README's Noise section).
pub fn p50_note(p50_ms: f64) -> String {
    format!("job_p50_ms {p50_ms} ms (printed, not gated)")
}

/// A note naming the highest percentile the sample count supports.
pub fn tail_note(label: &str, latencies_ms: &[f64]) -> Option<String> {
    let p = highest_percentile(latencies_ms.len())?;
    Some(format!(
        "{label}: p{p} = {} ms over {} samples",
        percentile(latencies_ms, p),
        latencies_ms.len()
    ))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The last line of a run: one JSON object.
pub fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.entries().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest string that reads back to the same
        // f64: every digit, and always a decimal point.
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

/// The human-readable table printed above the result line.
pub fn table(workload: &str, outcome: &Outcome) -> String {
    let mut out = format!("workload {workload}\n");
    for (name, value, unit) in outcome.metrics.entries() {
        writeln!(out, "  {name:<26} {value:>16.6} {unit}").expect("String write");
    }
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    writeln!(
        out,
        "  {:<26} {fail_frac:>16.6} failed/attempted ({} of {})",
        "fail_frac", outcome.failed, outcome.attempted
    )
    .expect("String write");
    for note in &outcome.notes {
        writeln!(out, "  {note}").expect("String write");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_follows_the_grammar() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "bad metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
        for bad in ["", ".x", "a b", "a/b", "p90%", "é"] {
            assert!(!valid_metric_name(bad), "{bad:?} accepted");
        }
        assert!(valid_metric_name("serve.first_update_ms"));
        assert!(valid_metric_name("9-lives_x.y"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(serde::Value::Seq(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| match m.get(f) {
                            Some(serde::Value::Str(s)) => s.clone(),
                            _ => panic!("{key} entry without a string '{f}'"),
                        };
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no '{key}' list"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(9), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn job_p90_is_refused_below_100_jobs() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(job_percentiles(&samples).is_err());
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(job_percentiles(&samples), Ok((50.0, 90.0)));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 50.0), 3.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        assert_eq!(percentile(&samples, 1.0), 1.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
    }

    #[test]
    fn result_line_is_one_json_object_with_full_precision() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", 0.123_456_789_012_345_67);
        let line = result_line(&Outcome {
            attempted: 3,
            failed: 1,
            metrics,
            notes: vec![],
            spans: SpanLog::default(),
        });
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&serde::Value::Bool(false)));
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("value"));
        assert_eq!(setup, Some(&serde::Value::F64(0.123_456_789_012_345_67)));
        assert!(!line.contains('\n'));
    }
}
