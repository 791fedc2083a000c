//! The metric catalogue and the result line.

use crate::plan::Kind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (printed with `--trace 0`), with units. Every
/// workload reports every one; see `RATIONALE.md` for what each means
/// on each workload.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("area_ratio", "ratio"),
    ("req_per_s", "1/s"),
    ("size_p50_ms", "ms"),
    ("size_p90_ms", "ms"),
    ("sweep_p50_ms", "ms"),
    ("what_if_p50_ms", "ms"),
    ("what_if_p90_ms", "ms"),
];

/// Per-layer metrics without a request-kind suffix, with units.
const LAYER_METRICS: [(&str, &str); 31] = [
    ("circuit.parse_ms", "ms"),
    ("pipeline.prepare_ms", "ms"),
    ("tilos.seed_ms", "ms"),
    ("tilos.bumps", "count/op"),
    ("tilos.sens_hit_ratio", "ratio"),
    ("optimizer.mft_ms", "ms"),
    ("optimizer.iterations", "count/op"),
    ("optimizer.rest_ms", "ms"),
    ("flow.solve_ms", "ms"),
    ("flow.share", "ratio"),
    ("flow.cold_solves", "count/op"),
    ("flow.warm_solves", "count/op"),
    ("flow.pivots", "count/op"),
    ("flow.arcs_scanned", "count/op"),
    ("smp.solves", "count/op"),
    ("smp.seeded_ratio", "ratio"),
    ("smp.updates", "count/op"),
    ("smp.fallbacks", "count/op"),
    ("sta.full_passes", "count/op"),
    ("sta.incremental_passes", "count/op"),
    ("sta.arrival_evals", "count/op"),
    ("sta.rebase_sparse", "count/op"),
    ("sta.rebase_full", "count/op"),
    ("session.snapshot_hits", "count/op"),
    ("session.reused_bump_ratio", "ratio"),
    ("readview.what_if_ms", "ms"),
    ("readview.diff_hit_ratio", "ratio"),
    ("readview.invalidations", "count"),
    ("server.flow_seconds", "s"),
    ("server.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer metrics reported once per request kind.
const KIND_METRICS: [(&str, &str); 8] = [
    ("protocol.parse_us", "us"),
    ("protocol.serialize_us", "us"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    ("session.serve_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_top_pct", "%"),
];

/// Every per-layer metric (printed with `--trace 1`), with units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .collect();
    for (name, unit) in KIND_METRICS {
        for kind in Kind::ALL {
            out.push((format!("{name}.{}", kind.name()), unit));
        }
    }
    for kind in Kind::ALL {
        out.push((format!("samples.{}", kind.name()), "count"));
    }
    out
}

/// How a per-layer value was obtained, recorded next to it in the
/// trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Timed by a benchmark span or read from a counter the program
    /// exports.
    Measured,
    /// Computed from other measured values.
    Derived,
    /// The program exports nothing for this layer on this workload; the
    /// value is recorded as-is.
    NotInstrumented,
    /// The workload does not exercise this layer.
    NotExercised,
}

impl Provenance {
    pub fn label(self) -> &'static str {
        match self {
            Provenance::Measured => "measured",
            Provenance::Derived => "derived",
            Provenance::NotInstrumented => "not instrumented yet (later tracing issue)",
            Provenance::NotExercised => "not exercised by this workload",
        }
    }
}

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, Provenance)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.set_as(name, value, Provenance::Measured);
    }

    pub fn set_as(&mut self, name: impl Into<String>, value: f64, provenance: Provenance) {
        self.values.insert(name.into(), (value, provenance));
    }

    /// The catalogue entries as `(name, unit, value, provenance)`; a
    /// metric the run never set reads 0, marked not exercised.
    pub fn select<'a>(
        &self,
        catalogue: &'a [(String, &'static str)],
    ) -> Vec<(&'a str, &'static str, f64, Provenance)> {
        catalogue
            .iter()
            .map(|(name, unit)| {
                let (value, provenance) = self
                    .values
                    .get(name)
                    .copied()
                    .unwrap_or((0.0, Provenance::NotExercised));
                (name.as_str(), *unit, value, provenance)
            })
            .collect()
    }
}

/// The end-to-end catalogue as owned pairs.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The final stdout line: `correct`, `attempted`, `failed` and every
/// catalogue metric with its unit.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    selected: &[(&str, &str, f64, Provenance)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value, _)) in selected.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    s.push_str("}}");
    s
}

/// The per-layer values with their provenance, for the trace file.
pub fn layer_table_json(selected: &[(&str, &str, f64, Provenance)]) -> String {
    let mut s = String::from("{");
    for (i, (name, unit, value, provenance)) in selected.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"status\": \"{}\"}}",
            json_number(*value),
            provenance.label()
        );
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `"name": {...}` entries of one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("field present");
                    let rest = &entry[at + key.len() + 2..];
                    let rest = &rest[rest.find('"').expect("string value") + 1..];
                    rest[..rest.find('"').expect("string closes")].to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let own = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
        };
        assert_eq!(declared("end_to_end"), own(end_to_end()));
        assert_eq!(declared("per_layer"), own(per_layer()));
    }

    #[test]
    fn every_metric_is_printed_by_name_with_its_unit() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        for catalogue in [end_to_end(), per_layer()] {
            let line = result_line(true, 1, 0, &m.select(&catalogue));
            for (name, unit) in &catalogue {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{name} missing"));
                let rest = &line[at + entry.len()..];
                assert!(rest.contains(&format!("\"unit\": \"{unit}\"}}")));
            }
        }
        assert!(result_line(true, 1, 0, &m.select(&end_to_end()))
            .contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
