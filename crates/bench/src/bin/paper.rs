//! The paper's evaluation (§5): `paper <experiment>…` or `paper all`.
//!
//! Each experiment prints its table and its shape checks on stdout. The
//! run exits 1 when a check is false that `EXPECTED_FAILURES` does not
//! list, or holds when it does (and, under `all`, when a listed check no
//! experiment produced), and 2 on an unknown experiment name.
//!
//! `cargo run --release -p homunculus-bench --bin paper -- all`

use homunculus_bench::{gate, run, EXPECTED_FAILURES, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let all = args == ["all"];
    let names: Vec<&str> = if all {
        known.clone()
    } else {
        args.iter().map(String::as_str).collect()
    };
    if names.is_empty() || names.iter().any(|n| !known.contains(n)) {
        eprintln!(
            "usage: paper <experiment>... | paper all\nexperiments: {}",
            known.join(" ")
        );
        return ExitCode::from(2);
    }

    let mut table2_models = None;
    let mut checks = Vec::new();
    for name in names {
        match run(name, &mut table2_models) {
            Ok(measured) => checks.extend(measured),
            Err(e) => {
                eprintln!("paper: {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let expected: Vec<_> = EXPECTED_FAILURES
        .iter()
        .filter(|(id, _)| checks.iter().any(|c| c.id == *id && !c.holds))
        .collect();
    for (id, reason) in &expected {
        eprintln!("paper: expected failure {id}: {reason}");
    }
    let problems = gate(&checks, EXPECTED_FAILURES, all);
    for problem in &problems {
        eprintln!("paper: {problem}");
    }
    eprintln!(
        "paper: {} shape checks, {} false as expected, {} problems",
        checks.len(),
        expected.len(),
        problems.len()
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
