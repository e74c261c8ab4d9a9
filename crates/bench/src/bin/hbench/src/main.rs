//! hbench: one end-to-end and per-layer benchmark for compile → deployment
//! → fleet. See `README.md` next to this crate for the metric glossary.
//!
//! ```text
//! hbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of stdout is the JSON object the driver reads
//! hbench run --all --seed <n> [--seconds <s>] [--smoke] [--out-dir <dir>]
//!     every workload, untraced then traced; one result file per workload
//! hbench compare <a> <b>
//!     judge result file (or directory) b against baseline a
//! ```

mod compare;
mod env;
mod models;
mod openloop;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Benchmark;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunConfig;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// `--flag value` pairs and bare `--switches` after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Res<Option<T>> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag}: cannot read {v:?}").into())
            })
            .transpose()
    }

    fn has(&self, switch: &str) -> bool {
        self.0.iter().any(|a| a == switch)
    }
}

fn config(args: &Args, benchmark: &Benchmark, trace: bool, dir: PathBuf) -> Res<RunConfig> {
    let smoke = args.has("--smoke");
    let default_seconds = if smoke { 2.0 } else { benchmark.run_seconds };
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(default_seconds);
    if !(seconds > 0.0 && seconds <= 3_600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}").into());
    }
    Ok(RunConfig {
        seed: args.parsed("--seed")?.unwrap_or(42),
        seconds,
        trace,
        smoke,
        trace_dir: dir,
    })
}

/// The driver's entry: one workload, one mode, result on the last line.
fn run_one(args: &Args) -> Res<ExitCode> {
    let benchmark = Benchmark::load()?;
    let workload = args
        .value("--workload")
        .ok_or("--workload <name> is required")?;
    let trace = args.parsed::<u8>("--trace")?.unwrap_or(0) != 0;
    let cfg = config(args, &benchmark, trace, PathBuf::from("."))?;
    let outcome = workloads::run(workload, &cfg)?;
    report::print_table(&benchmark, workload, &outcome);
    println!("{}", report::contract_line(&benchmark, &outcome, trace)?);
    Ok(ExitCode::SUCCESS)
}

/// Every workload (or one), untraced then traced, with result files.
fn run_all(args: &Args) -> Res<ExitCode> {
    let benchmark = Benchmark::load()?;
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or("hbench-results"));
    std::fs::create_dir_all(&out_dir)?;
    let names: Vec<&str> = match args.value("--workload") {
        Some(one) => vec![one],
        None => workloads::NAMES.to_vec(),
    };
    let mut failed = 0;
    for workload in names {
        let cfg = config(args, &benchmark, false, out_dir.clone())?;
        let untraced = workloads::run(workload, &cfg)?;
        report::print_table(&benchmark, workload, &untraced);
        let traced = workloads::run(
            workload,
            &RunConfig {
                trace: true,
                ..cfg.clone()
            },
        )?;
        report::print_table(&benchmark, &format!("{workload} (traced)"), &traced);
        failed += untraced.failed + traced.failed;
        let doc = report::result_file(
            &benchmark,
            workload,
            env::record(cfg.seed, cfg.seconds, cfg.smoke),
            &untraced,
            Some(&traced),
        );
        let path = out_dir.join(format!("{workload}.json"));
        std::fs::write(&path, serde_json::to_string_pretty(&doc)?)?;
        println!("wrote {}", path.display());
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_results(args: &Args) -> Res<ExitCode> {
    let [a, b] = args.0.as_slice() else {
        return Err("usage: hbench compare <a.json|dir> <b.json|dir>".into());
    };
    let clean = compare::compare(&Benchmark::load()?, a.as_ref(), b.as_ref())?;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&Args(args.split_off(1))),
        Some("compare") => compare_results(&Args(args.split_off(1))),
        _ => run_one(&Args(args)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("hbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// One smoke run of each workload, untraced and traced: no operation
    /// fails, every end-to-end metric of `BENCHMARK.json` is reported, and
    /// between them the traced runs produce every per-layer metric it
    /// names and nothing it does not.
    #[test]
    fn smoke_runs_cover_the_benchmark_definition() {
        let benchmark = Benchmark::load().expect("BENCHMARK.json loads");
        assert_eq!(benchmark.workloads, workloads::NAMES);
        let dir = std::env::temp_dir().join(format!("hbench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut produced = BTreeSet::new();
        for workload in workloads::NAMES {
            let cfg = RunConfig {
                seed: 7,
                seconds: 1.0,
                trace: false,
                smoke: true,
                trace_dir: dir.clone(),
            };
            let untraced = workloads::run(workload, &cfg).expect("untraced smoke run");
            assert_eq!(untraced.failed, 0, "{workload}: {:?}", untraced.notes);
            assert!(untraced.attempted > 0);
            let line = report::contract_line(&benchmark, &untraced, false).expect("all metrics");
            let line = serde_json::from_str(&line).unwrap();
            for def in &benchmark.end_to_end {
                let value = line["metrics"][def.name.as_str()]["value"].as_f64();
                assert!(value.is_some_and(|v| v > 0.0), "{workload}: {}", def.name);
            }
            let traced = workloads::run(workload, &RunConfig { trace: true, ..cfg })
                .expect("traced smoke run");
            assert_eq!(traced.failed, 0, "{workload}: {:?}", traced.notes);
            assert!(traced.per_layer.contains_key("trace.overhead_share"));
            assert!(dir.join(format!("hbench-trace-{workload}.jsonl")).is_file());
            produced.extend(traced.per_layer.into_keys());
        }
        let defined: BTreeSet<String> =
            benchmark.per_layer.iter().map(|d| d.name.clone()).collect();
        assert_eq!(produced, defined);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
