//! The benchmark's definition (`BENCHMARK.json`) and what a run reports
//! against it: the one-line result the driver reads, the full result file
//! `compare` reads, and the table a person reads.

use crate::stats::Summary;
use crate::Res;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`: the single definition of metric names, units,
/// directions and bounds — hbench keeps no second copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Benchmark {
    /// Reads `BENCHMARK.json` from the working directory (the checkout root
    /// the driver runs from), else from the root of the source tree this
    /// binary was built in.
    pub fn load() -> Res<Benchmark> {
        let built_in = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let path = [PathBuf::from("BENCHMARK.json"), PathBuf::from(built_in)]
            .into_iter()
            .find(|p| p.is_file())
            .ok_or("BENCHMARK.json not found in the working directory or the source tree")?;
        Benchmark::parse(&std::fs::read_to_string(path)?)
    }

    pub fn parse(text: &str) -> Res<Benchmark> {
        let doc = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Res<Vec<MetricDef>> {
            let list = doc[key]
                .as_array()
                .ok_or_else(|| format!("BENCHMARK.json: {key} is not a list"))?;
            list.iter()
                .map(|m| {
                    let text = |field: &str| {
                        m[field]
                            .as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks {field}"))
                    };
                    Ok(MetricDef {
                        name: text("name")?,
                        unit: text("unit")?,
                        higher_is_better: text("better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let workloads = doc["workloads"]
            .as_array()
            .ok_or("BENCHMARK.json: workloads is not a list")?
            .iter()
            .filter_map(|w| w["name"].as_str().map(str::to_string))
            .collect();
        Ok(Benchmark {
            run_seconds: doc["run_seconds"].as_f64().unwrap_or(10.0),
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// What one workload run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub end_to_end: BTreeMap<&'static str, Summary>,
    pub per_layer: BTreeMap<String, f64>,
    /// Operations attempted: verdict rows checked, submissions, candidate
    /// evaluations, analyzer passes.
    pub attempted: u64,
    /// Of those, the ones whose output was wrong, refused or errored.
    pub failed: u64,
    /// Validity flags and substitutions a reader must know about.
    pub notes: Vec<String>,
    /// Self time per span name from the traced repetitions, in ms.
    pub self_time_ms: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, samples: &[f64]) {
        self.end_to_end.insert(name, Summary::of(samples));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.per_layer.insert(name.into(), value);
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }
}

/// The single JSON object the driver reads from the last line of stdout:
/// every end-to-end metric of an untraced run, every per-layer metric of a
/// traced one. A per-layer metric this workload does not produce reads 0.
pub fn contract_line(benchmark: &Benchmark, outcome: &Outcome, traced: bool) -> Res<String> {
    let mut metrics = Map::new();
    if traced {
        for def in &benchmark.per_layer {
            let value = outcome.per_layer.get(&def.name).copied().unwrap_or(0.0);
            metrics.insert(def.name.clone(), json!({"value": value, "unit": def.unit}));
        }
    } else {
        for def in &benchmark.end_to_end {
            let summary = outcome
                .end_to_end
                .get(def.name.as_str())
                .ok_or_else(|| format!("end-to-end metric {} was not measured", def.name))?;
            metrics.insert(
                def.name.clone(),
                json!({"value": summary.median, "unit": def.unit}),
            );
        }
    }
    Ok(serde_json::to_string(&json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    }))?)
}

fn summary_json(summary: &Summary, unit: &str) -> Value {
    json!({
        "value": summary.median,
        "unit": unit,
        "min": summary.min,
        "max": summary.max,
        "mad": summary.mad,
        "n": summary.n,
        "spread": summary.spread,
    })
}

/// The result file of one workload: environment, failure counts, every
/// end-to-end metric with its distribution, and — when a traced run was
/// made — the per-layer metrics and self times.
pub fn result_file(
    benchmark: &Benchmark,
    workload: &str,
    env: Value,
    untraced: &Outcome,
    traced: Option<&Outcome>,
) -> Value {
    let unit_of = |defs: &[MetricDef], name: &str| {
        defs.iter()
            .find(|d| d.name == name)
            .map_or(String::new(), |d| d.unit.clone())
    };
    let end_to_end: Map = untraced
        .end_to_end
        .iter()
        .map(|(name, s)| {
            (
                name.to_string(),
                summary_json(s, &unit_of(&benchmark.end_to_end, name)),
            )
        })
        .collect();
    let per_layer: Map = traced
        .into_iter()
        .flat_map(|t| t.per_layer.iter())
        .map(|(name, &value)| {
            (
                name.clone(),
                json!({"value": value, "unit": unit_of(&benchmark.per_layer, name)}),
            )
        })
        .collect();
    let self_time_ms: Map = traced
        .into_iter()
        .flat_map(|t| t.self_time_ms.iter())
        .map(|(name, &ms)| (name.to_string(), json!(ms)))
        .collect();
    let notes: Vec<&String> = untraced
        .notes
        .iter()
        .chain(traced.into_iter().flat_map(|t| t.notes.iter()))
        .collect();
    json!({
        "workload": workload,
        "env": env,
        "ops_attempted": untraced.attempted + traced.map_or(0, |t| t.attempted),
        "ops_failed": untraced.failed + traced.map_or(0, |t| t.failed),
        "end_to_end": Value::Object(end_to_end),
        "per_layer": Value::Object(per_layer),
        "self_time_ms": Value::Object(self_time_ms),
        "notes": notes,
    })
}

/// Prints every measured metric by name with its unit.
pub fn print_table(benchmark: &Benchmark, workload: &str, outcome: &Outcome) {
    println!(
        "== {workload}: {} ops attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for def in &benchmark.end_to_end {
        if let Some(s) = outcome.end_to_end.get(def.name.as_str()) {
            println!(
                "  {:<44} {:>16.4} {:<6} min {:.4} max {:.4} mad {:.4} n {}",
                def.name, s.median, def.unit, s.min, s.max, s.mad, s.n
            );
        }
    }
    for def in &benchmark.per_layer {
        if let Some(value) = outcome.per_layer.get(&def.name) {
            println!("  {:<44} {:>16.4} {}", def.name, value, def.unit);
        }
    }
    for (name, ms) in &outcome.self_time_ms {
        println!("  self time {:<34} {:>16.3} ms", name, ms);
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFINITION: &str = r#"{
        "command": ["x"], "paths": ["p"], "run_seconds": 3,
        "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "pkt_per_s", "unit": "pkt/s", "better": "higher", "bound": 0.1}
        ],
        "per_layer": [
            {"name": "x.ns", "unit": "ns", "better": "lower"},
            {"name": "y.count", "unit": "count", "better": "higher"}
        ]
    }"#;

    #[test]
    fn the_definition_parses() {
        let b = Benchmark::parse(DEFINITION).unwrap();
        assert_eq!(b.run_seconds, 3.0);
        assert_eq!(b.workloads, ["a", "b"]);
        assert_eq!(b.end_to_end[1].bound, Some(0.1));
        assert!(b.end_to_end[1].higher_is_better && !b.end_to_end[0].higher_is_better);
        assert_eq!(b.per_layer[0].bound, None);
    }

    #[test]
    fn the_contract_line_names_exactly_the_defined_metrics() {
        let b = Benchmark::parse(DEFINITION).unwrap();
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.set("setup_s", &[0.5, 0.7, 0.6]);
        assert!(
            contract_line(&b, &outcome, false).is_err(),
            "a missing end-to-end metric is an error, not a zero"
        );
        outcome.set("pkt_per_s", &[100.0]);
        outcome.layer("x.ns", 12.5);
        let line = serde_json::from_str(&contract_line(&b, &outcome, false).unwrap()).unwrap();
        assert_eq!(line["correct"], true);
        assert_eq!(line["attempted"], 10);
        assert_eq!(line["metrics"]["setup_s"]["value"], 0.6);
        assert_eq!(line["metrics"]["pkt_per_s"]["unit"], "pkt/s");
        assert_eq!(line["metrics"].as_object().unwrap().len(), 2);
        outcome.failed = 1;
        let traced = serde_json::from_str(&contract_line(&b, &outcome, true).unwrap()).unwrap();
        assert_eq!(traced["correct"], false);
        assert_eq!(traced["metrics"]["x.ns"]["value"], 12.5);
        assert_eq!(traced["metrics"]["y.count"]["value"], 0);
    }
}
