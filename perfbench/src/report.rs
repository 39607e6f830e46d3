//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's contract with its runner and
//! must match `BENCHMARK.json`: an untraced run reports every end-to-end
//! metric, a traced run every per-layer metric. Metrics a workload's path
//! does not touch (a serve layer in `train`, say) are reported as 0 and
//! listed as bypassed.

use std::collections::BTreeMap;

use crate::pct;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("client.latency_tail_ms", "ms"),
    ("server.gap_ms_p50", "ms"),
    ("client.lateness_ms_tail", "ms"),
    ("batcher.batch_size_mean", "count"),
    ("batcher.queue_wait_ms_p50", "ms"),
    ("engine.execute_ms_p50", "ms"),
    ("engine.plan_compile_ms_p50", "ms"),
    ("plan_cache.hit_ratio", "ratio"),
    ("core.compiles_per_request", "count"),
    ("sampling.call_ms_p50", "ms"),
    ("sampling.sub_edges_mean", "count"),
    ("gnn.seeds_forward_ms_p50", "ms"),
    ("gnn.batch_forward_ms_p50", "ms"),
    ("frame.decode_us_p50", "us"),
    ("frame.encode_us_p50", "us"),
    ("protocol.parse_us_p50", "us"),
    ("protocol.format_us_p50", "us"),
    ("mem.accounted_mib", "MiB"),
    ("mem.accounted_rss_ratio", "ratio"),
    ("gnn.forward_ms", "ms"),
    ("gnn.backward_ms", "ms"),
    ("gnn.update_ms", "ms"),
    ("gnn.dense_self_ms", "ms"),
    ("core.spmm_ms", "ms"),
    ("core.spmm_calls", "count"),
    ("core.sddmm_ms", "ms"),
    ("core.sddmm_calls", "count"),
    ("core.fused_attention_ms", "ms"),
    ("core.fused_attention_calls", "count"),
    ("core.spmm_gbps", "GB/s"),
    ("host.stream_gbps", "GB/s"),
    ("core.spmm_roofline_frac", "ratio"),
    ("core.compile_ms", "ms"),
    ("trace.setup_s", "s"),
    ("trace.throughput_per_s", "1/s"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.peak_rss_mib", "MiB"),
];

/// Everything one run measured and checked.
pub struct Outcome {
    /// Operations attempted (requests sent, epochs run, outputs checked).
    pub attempted: u64,
    /// Attempted operations that failed or returned a wrong output.
    pub failed: u64,
    /// Whether this is a traced run, which reports the per-layer table.
    traced: bool,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    failures: Vec<String>,
}

impl Outcome {
    /// An empty outcome for a traced or an untraced run.
    pub fn new(traced: bool) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            traced,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Record a metric. The name must be in one of the two tables.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the benchmark's tables"
        );
        self.metrics.insert(name, value);
    }

    /// Record `latency_p50_ms` as `typical_ms` (the run's typical latency:
    /// the p50 of the samples, or on `train` the interquartile mean of the
    /// rounds) and `client.latency_tail_ms` (the highest percentile the
    /// samples support), noting the pooled p50 and the sample count. Too few
    /// samples is a failure.
    pub fn set_latency(&mut self, typical_ms: f64, samples_ms: &[f64], what: &str) {
        self.metric("latency_p50_ms", typical_ms);
        match (pct::percentile(samples_ms, 0.5), pct::tail(samples_ms)) {
            (Ok(p50), Ok(tail)) => {
                self.metric("client.latency_tail_ms", tail.value);
                self.note(format!(
                    "latency of one {what}: {typical_ms:.4} ms; pooled p50 {p50}, tail {tail}"
                ));
            }
            (Err(e), _) | (_, Err(e)) => self.fail(format!("latency of one {what}: {e}")),
        }
    }

    /// A line for the human-readable part of the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A wrong output or broken invariant: the run exits non-zero.
    pub fn fail(&mut self, line: String) {
        self.failures.push(line);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Print the human-readable report (notes, then every metric of both
    /// tables that was measured) followed by the result line: one JSON
    /// object with the metrics of this run's table.
    pub fn print(&self, workload: &str) {
        for n in &self.notes {
            println!("# {n}");
        }
        for f in &self.failures {
            println!("# FAILED: {f}");
        }
        let table: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let mut bypassed = Vec::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            match self.metrics.get(name) {
                Some(v) => println!("{workload:<14} {name:<28} {v:>14.4} {unit}"),
                None if table.iter().any(|&(n, _)| n == name) => bypassed.push(name),
                None => {}
            }
        }
        if !bypassed.is_empty() {
            println!(
                "# bypassed by {workload} (reported as 0): {}",
                bypassed.join(", ")
            );
        }
        let body: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }

    /// Metrics recorded so far.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }
}

/// A finite number with every digit Rust's shortest round-trip form
/// keeps; non-finite values (which JSON cannot carry) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|&&(n, _)| n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables above and `BENCHMARK.json` must name the same metrics
    /// with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics in BENCHMARK.json"
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034567891), "1.2034567891");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0.0");
    }
}
