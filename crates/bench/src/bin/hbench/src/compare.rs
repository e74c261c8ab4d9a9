//! `hbench compare <a> <b>`: judges result `b` against baseline `a` with
//! each metric's direction and bound from `BENCHMARK.json`.
//!
//! One row per (metric, workload): both medians, the ratio `b / a`, and a
//! verdict. A metric whose repetitions spread wider than its bound cannot
//! resolve a change of that size, so it reads `unresolved` rather than
//! `ok` — unless the two sets of repetitions do not even overlap.

use crate::report::{Benchmark, MetricDef};
use crate::Res;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median and the range and quartile spread
/// of the repetitions behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub spread: f64,
}

impl Dist {
    fn from_json(metric: &Value) -> Option<Dist> {
        let value = metric["value"].as_f64()?;
        Some(Dist {
            value,
            min: metric["min"].as_f64().unwrap_or(value),
            max: metric["max"].as_f64().unwrap_or(value),
            spread: metric["spread"].as_f64().unwrap_or(0.0),
        })
    }
}

/// By what share of the baseline `b` is worse than `a` (negative: better).
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = if def.higher_is_better { a - b } else { b - a };
    if delta == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

pub fn judge(def: &MetricDef, a: &Dist, b: &Dist) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let worse = worse_by(def, a.value, b.value) > bound;
    let noisy = a.spread.max(b.spread) > bound;
    // Every repetition of one side beats every repetition of the other.
    let (b_clearly_better, b_clearly_worse) = if def.higher_is_better {
        (b.min > a.max, b.max < a.min)
    } else {
        (b.max < a.min, b.min > a.max)
    };
    match (worse, noisy) {
        (true, true) if !b_clearly_worse => Verdict::Unresolved,
        (true, _) => Verdict::Regressed,
        (false, true) if !b_clearly_better => Verdict::Unresolved,
        (false, _) => Verdict::Ok,
    }
}

/// Result files by workload name: `path` is one file or a directory of them.
fn load(path: &Path) -> Res<BTreeMap<String, Value>> {
    let files: Vec<_> = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    let mut results = BTreeMap::new();
    for file in files {
        let doc = serde_json::from_str(&std::fs::read_to_string(&file)?)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        let workload = doc["workload"]
            .as_str()
            .ok_or_else(|| format!("{}: not an hbench result file", file.display()))?
            .to_string();
        results.insert(workload, doc);
    }
    Ok(results)
}

fn failed_share(doc: &Value) -> f64 {
    let attempted = doc["ops_attempted"].as_f64().unwrap_or(0.0).max(1.0);
    doc["ops_failed"].as_f64().unwrap_or(0.0) / attempted
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(benchmark: &Benchmark, a: &Path, b: &Path) -> Res<bool> {
    let (a, b) = (load(a)?, load(b)?);
    let mut clean = true;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9}  {:<6} verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    for (workload, a_doc) in &a {
        let Some(b_doc) = b.get(workload) else {
            println!("{workload:<16} missing from b");
            clean = false;
            continue;
        };
        for def in &benchmark.end_to_end {
            let sides = (
                Dist::from_json(&a_doc["end_to_end"][def.name.as_str()]),
                Dist::from_json(&b_doc["end_to_end"][def.name.as_str()]),
            );
            let (Some(da), Some(db)) = sides else {
                println!("{workload:<16} {:<20} missing from a result", def.name);
                clean = false;
                continue;
            };
            let verdict = judge(def, &da, &db);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{workload:<16} {:<20} {:>14.4} {:>14.4} {:>8.4}x  {:<6} {}",
                def.name,
                da.value,
                db.value,
                db.value / da.value,
                def.bound.unwrap_or(0.0),
                verdict.name()
            );
        }
        let (fa, fb) = (failed_share(a_doc), failed_share(b_doc));
        if fb > fa {
            println!("{workload:<16} failed share rose from {fa} to {fb}: regressed");
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    fn dist(value: f64, min: f64, max: f64, spread: f64) -> Dist {
        Dist {
            value,
            min,
            max,
            spread,
        }
    }

    #[test]
    fn direction_decides_which_way_is_worse() {
        assert!((worse_by(&def(false, 0.1), 100.0, 115.0) - 0.15).abs() < 1e-12);
        assert!((worse_by(&def(true, 0.1), 100.0, 115.0) + 0.15).abs() < 1e-12);
        assert_eq!(worse_by(&def(true, 0.0), 0.892, 0.892), 0.0);
    }

    #[test]
    fn verdicts_on_hand_made_distributions() {
        let lower = def(false, 0.10);
        let tight = dist(100.0, 99.0, 101.0, 0.01);
        // within the bound
        assert_eq!(
            judge(&lower, &tight, &dist(108.0, 107.0, 109.0, 0.01)),
            Verdict::Ok
        );
        // past the bound, resolved
        assert_eq!(
            judge(&lower, &tight, &dist(115.0, 114.0, 116.0, 0.01)),
            Verdict::Regressed
        );
        // past the bound, but the repetitions overlap and spread wider than it
        assert_eq!(
            judge(
                &lower,
                &dist(100.0, 80.0, 130.0, 0.3),
                &dist(115.0, 90.0, 140.0, 0.3)
            ),
            Verdict::Unresolved
        );
        // noisy yet every repetition of b is slower than every one of a
        assert_eq!(
            judge(
                &lower,
                &dist(100.0, 90.0, 110.0, 0.2),
                &dist(150.0, 140.0, 170.0, 0.2)
            ),
            Verdict::Regressed
        );
        // noisy and not worse: unchanged cannot be claimed either
        assert_eq!(
            judge(
                &lower,
                &dist(100.0, 80.0, 130.0, 0.3),
                &dist(101.0, 80.0, 130.0, 0.3)
            ),
            Verdict::Unresolved
        );
        // noisy, but b clearly better
        assert_eq!(
            judge(
                &lower,
                &dist(100.0, 90.0, 130.0, 0.3),
                &dist(50.0, 45.0, 60.0, 0.3)
            ),
            Verdict::Ok
        );
        // an exact metric: any drop regresses, equality is ok
        let exact = def(true, 0.0);
        let same = dist(0.892, 0.892, 0.892, 0.0);
        assert_eq!(judge(&exact, &same, &same), Verdict::Ok);
        assert_eq!(
            judge(&exact, &same, &dist(0.891, 0.891, 0.891, 0.0)),
            Verdict::Regressed
        );
    }

    #[test]
    fn compare_reads_result_files_and_fails_on_a_regression() {
        let benchmark = Benchmark {
            run_seconds: 1.0,
            workloads: vec!["w".into()],
            end_to_end: vec![MetricDef {
                name: "pkt_per_s".into(),
                ..def(true, 0.1)
            }],
            per_layer: vec![],
        };
        let dir = std::env::temp_dir().join(format!("hbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, value: f64, failed: u64| {
            let path = dir.join(name);
            let doc = serde_json::json!({
                "workload": "w", "ops_attempted": 100, "ops_failed": failed,
                "end_to_end": {"pkt_per_s": {"value": value, "min": value, "max": value, "spread": 0.0}},
            });
            std::fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();
            path
        };
        let base = write("a.json", 1000.0, 0);
        assert!(compare(&benchmark, &base, &base).unwrap());
        assert!(compare(&benchmark, &base, &write("b.json", 950.0, 0)).unwrap());
        assert!(!compare(&benchmark, &base, &write("c.json", 850.0, 0)).unwrap());
        assert!(
            !compare(&benchmark, &base, &write("d.json", 1000.0, 3)).unwrap(),
            "a higher failed share fails the comparison"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
