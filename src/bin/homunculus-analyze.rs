//! `homunculus-analyze` — the static verification gate as a CLI.
//!
//! Lints saved compile artifacts (`CompiledArtifact` documents, JSON or
//! the `HJB1` binary framing) and reports interval-analysis certificates
//! plus `HA`-coded diagnostics:
//!
//! ```text
//! homunculus-analyze [--json] <artifact>...
//! ```
//!
//! Exit status: `0` when every artifact is error-free (warnings allowed),
//! `1` when any error-severity diagnostic fires (including artifacts that
//! do not parse at all, reported as `HA0000`), `2` on usage errors.
//!
//! Unlike `CompiledArtifact::load_json`, which refuses defective
//! artifacts outright, this tool decodes *leniently* so a broken artifact
//! still yields a complete lint report — that is what makes it usable as
//! a CI gate over artifact corpora (`make lint-artifacts`). The decoding
//! is `homunculus-core`'s (`CompiledArtifact::analyze_bytes`, which reads
//! the document with the strict loader's own field decoders); the
//! certificates and findings are `homunculus-analysis`'s.

use homunculus::analysis::ArtifactAnalysis;
use homunculus::core::pipeline::CompiledArtifact;
use serde_json::{json, ToJson, Value};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: homunculus-analyze [--json] <artifact>...");
    eprintln!("  lints compiled artifact files (JSON or HJB1 binary)");
    eprintln!("  exits 1 if any error-severity diagnostic fires");
    ExitCode::from(2)
}

/// Analyzes one path; an I/O failure becomes `HA0000`, as a parse failure
/// does, so the report shape is uniform.
fn analyze_path(path: &str) -> ArtifactAnalysis {
    match std::fs::read(path) {
        Ok(bytes) => CompiledArtifact::analyze_bytes(&bytes),
        Err(e) => ArtifactAnalysis::undecodable(format!("cannot read: {e}")),
    }
}

fn main() -> ExitCode {
    let mut as_json = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => as_json = true,
            "--help" | "-h" => return usage(),
            _ if arg.starts_with('-') => {
                eprintln!("unknown flag: {arg}");
                return usage();
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        return usage();
    }

    let mut failed = false;
    let mut reports: Vec<Value> = Vec::new();
    for path in &paths {
        let analysis = analyze_path(path);
        failed |= analysis.has_errors();
        if as_json {
            let mut doc = analysis.to_json();
            if let Value::Object(map) = &mut doc {
                map.insert("artifact".to_string(), json!(path.clone()));
            }
            reports.push(doc);
        } else {
            print!("{path}: {}", analysis.render());
        }
    }
    if as_json {
        let doc = json!({ "reports": reports, "failed": failed });
        match serde_json::to_string_pretty(&doc) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("cannot render report: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
