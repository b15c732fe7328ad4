//! The metric catalog and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use crate::stats::Summary;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("search_p50_ms", "ms"),
    ("search_p99_ms", "ms"),
    ("recall_at_10", "ratio"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload
/// does not run reports 0 and is named on a `not exercised` line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.tcp.transport_ms_p50", "ms"),
    ("serve.tcp.transport_share_of_p50", "ratio"),
    ("serve.proto.encode_us", "us"),
    ("serve.proto.decode_us", "us"),
    ("serve.service.queue_ms_p50", "ms"),
    ("serve.service.exec_ms_p50", "ms"),
    ("serve.service.batch_mean", "count"),
    ("mutation_p50_ms", "ms"),
    ("mutation_p90_ms", "ms"),
    ("cagra.search.us_per_query", "us"),
    ("cagra.search.distances_per_query", "count"),
    ("cagra.search.iterations_per_query", "count"),
    ("cagra.search.hash_probes_per_query", "count"),
    ("distance.ns_per_row", "ns"),
    ("knn.nn_descent_s", "s"),
    ("knn.iterations", "count"),
    ("knn.distances", "count"),
    ("cagra.optimize.reorder_s", "s"),
    ("cagra.optimize.reverse_s", "s"),
    ("cagra.optimize.merge_s", "s"),
    ("cagra.index_io.write_s", "s"),
    ("cagra.index_io.read_s", "s"),
    ("cagra.dynamic.insert_us_p50", "us"),
    ("cagra.dynamic.delete_us_p50", "us"),
    ("cagra.dynamic.search_us_p50", "us"),
    ("cagra.dynamic.delta_max", "count"),
    ("cagra.dynamic.tombstones_max", "count"),
    ("cagra.dynamic.compactions", "count"),
    ("cagra.dynamic.compaction_s", "s"),
    ("trace.overhead_qps", "ratio"),
    ("trace.overhead_search_p50", "ratio"),
    ("closure.round_trip", "ratio"),
    ("closure.search_in_exec", "ratio"),
];

/// Ops of one kind by outcome: succeeded, refused by admission control
/// (`Overloaded`), or failed (transport error or a failed check).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounts {
    /// Answered and passing every check.
    pub ok: u64,
    /// Shed by admission control.
    pub refused: u64,
    /// Anything else.
    pub failed: u64,
}

impl OpCounts {
    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.ok + self.refused + self.failed
    }

    /// Succeeded share of attempted.
    pub fn success_rate(&self) -> f64 {
        self.ok as f64 / self.attempted().max(1) as f64
    }

    /// `attempted N, succeeded N, refused N, failed N`.
    pub fn describe(&self) -> String {
        format!(
            "attempted {}, succeeded {}, refused {}, failed {}",
            self.attempted(),
            self.ok,
            self.refused,
            self.failed
        )
    }
}

impl std::ops::AddAssign for OpCounts {
    fn add_assign(&mut self, o: OpCounts) {
        self.ok += o.ok;
        self.refused += o.refused;
        self.failed += o.failed;
    }
}

/// What one run produced.
#[derive(Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Metric values by catalog name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind percentile metrics.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Report {
    /// Set a metric; the name must be in one of the catalogs.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalog"
        );
        self.metrics.insert(name, value);
    }

    /// Add a phase's ops to `attempted` and `failed` (refusals count as
    /// failures).
    pub fn count(&mut self, c: &OpCounts) {
        self.attempted += c.attempted();
        self.failed += c.refused + c.failed;
    }

    /// Set percentile `pm` (per-mille) of `s` and remember its sample
    /// count. A percentile the samples cannot support falls back to the
    /// highest one they can, with a warning (phases are sized so that
    /// the named percentiles qualify).
    pub fn set_pct(&mut self, name: &'static str, s: &Summary, pm: u32) {
        let value = s.get(pm).unwrap_or_else(|| {
            let (got, v) = s.tail().unwrap_or((0, 0.0));
            println!(
                "WARNING: {name}: {} samples do not support p{}; reporting p{}",
                s.count(),
                f64::from(pm) / 10.0,
                f64::from(got) / 10.0
            );
            v
        });
        self.set(name, value);
        self.samples.insert(name, s.count());
    }

    /// One `metric` line per catalog entry, with the sample count beside
    /// every percentile.
    pub fn print_metrics(&self, catalog: &[(&str, &str)]) {
        for (name, unit) in catalog {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let n = self.samples.get(name).map_or(String::new(), |n| format!(" (n={n})"));
            println!("metric {name} = {value} {unit}{n}");
        }
    }

    /// Catalog entries of `catalog` this report has no value for.
    pub fn missing(&self, catalog: &[(&'static str, &str)]) -> Vec<&'static str> {
        catalog.iter().map(|(n, _)| *n).filter(|n| !self.metrics.contains_key(n)).collect()
    }

    /// The final JSON line over `catalog`; metrics the run did not
    /// produce read 0.
    pub fn json_line(&self, catalog: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(v))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot carry, as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report { correct: true, attempted: 3, failed: 0, ..Default::default() };
        r.set("qps", 12.5);
        let line = r.json_line(&END_TO_END[..2]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.0, \"unit\": \"s\"}, \"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(r.missing(&END_TO_END[..2]), vec!["setup_s"]);
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let compact: String = spec.split_whitespace().collect();
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len(), "metric count differs");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
