#![forbid(unsafe_code)]
//! # homunculus-analysis
//!
//! Static verification of compiled pipelines: an abstract-interpretation
//! pass over the model IR using an interval domain, plus an artifact
//! linter with stable diagnostic codes.
//!
//! The analyzer walks the same lowering the runtime performs — normalize
//! → quantize → per-layer matvec/dot/distance → activation LUT → argmax —
//! and derives, from the concrete quantized parameters, a guaranteed
//! value range for every intermediate (see [`homunculus_ml::bounds`]).
//! Where the worst-case accumulator magnitude provably fits `i32`, the
//! kernel gets a **no-saturation certificate**: the runtime then runs the
//! re-orderable fast loops without per-call saturation guards, with
//! verdicts still bit-identical to the saturating reference.
//!
//! On the same walk, the linter reports structural defects with stable
//! `HA`-prefixed codes:
//!
//! | Code | Severity | Defect |
//! |------|----------|--------|
//! | `HA0000` | error | artifact/report does not decode |
//! | `HA0001` | error | non-finite (NaN/Inf) weight, bias, centroid, or threshold |
//! | `HA0002` | error | zero/near-zero normalizer std (names the column) |
//! | `HA0003` | error | width or shape mismatch between declared and carried parameters |
//! | `HA0004` | warning/error | fixed-point format overflows the packed lane tier (error when it exceeds the target word) |
//! | `HA0005` | warning | dead feature: its interval cannot affect any verdict |
//! | `HA0006` | error | chain-stage input width incompatible with upstream `cols`/`cols + 1` |
//! | `HA0007` | warning | kernel not certified saturation-free (guarded path will run) |
//!
//! This crate certifies typed models ([`ModelInput`]) and knows nothing
//! of the artifact document: `homunculus-core` decodes. Its consumers
//! are all in that crate: the compile session, which analyzes every final
//! model once at its check stage (codegen stamps the certificates; the
//! opt-in `Compiler::verify_artifacts` gate also emits the findings and
//! refuses on errors), the validation hook on
//! `CompiledArtifact::load_json`/`load_bin`, and the lenient decoder
//! `CompiledArtifact::analyze_bytes` behind the `homunculus-analyze` CLI.

use homunculus_backends::model::{ModelIr, TreeIr, TreeNodeIr};
use homunculus_ml::bounds::{term_interval, Interval};
use homunculus_ml::preprocess::Normalizer;
use homunculus_ml::quantize::{FixedPoint, PackedFixed};
use homunculus_ml::MlError;
use homunculus_runtime::pipeline::KernelFact;
use homunculus_runtime::{CompiledPipeline, RuntimeError};
use serde_json::{json, ToJson, Value};
use std::fmt;

/// How bad a diagnostic is. Errors gate artifact loads and fail the
/// `homunculus-analyze` CLI with a nonzero exit; warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the artifact still serves correctly (possibly slower).
    Warning,
    /// The artifact is defective and should not be served.
    Error,
}

impl Severity {
    /// Lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes. Codes are append-only: a released code never
/// changes meaning, so CI suppressions and dashboards stay valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// `HA0000` — the artifact (or one report in it) does not decode.
    Undecodable,
    /// `HA0001` — a weight/bias/centroid/threshold is NaN or infinite.
    NonFiniteParam,
    /// `HA0002` — a normalizer column has a zero/near-zero/non-finite std.
    DegenerateNormalizer,
    /// `HA0003` — declared widths disagree with the carried parameters.
    WidthMismatch,
    /// `HA0004` — the fixed-point format overflows its packed lane type
    /// (warning: scalar fallback) or the target word (error).
    FormatOverflow,
    /// `HA0005` — a feature's interval cannot affect any verdict.
    DeadFeature,
    /// `HA0006` — a chain stage's input width matches neither the base
    /// width nor `base + 1` (upstream verdict appended).
    ChainWidthMismatch,
    /// `HA0007` — a kernel could not be certified saturation-free; the
    /// guarded saturating path will run.
    Uncertified,
}

impl DiagCode {
    /// The stable `HAnnnn` code string.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::Undecodable => "HA0000",
            DiagCode::NonFiniteParam => "HA0001",
            DiagCode::DegenerateNormalizer => "HA0002",
            DiagCode::WidthMismatch => "HA0003",
            DiagCode::FormatOverflow => "HA0004",
            DiagCode::DeadFeature => "HA0005",
            DiagCode::ChainWidthMismatch => "HA0006",
            DiagCode::Uncertified => "HA0007",
        }
    }

    /// Default severity of the code. [`DiagCode::FormatOverflow`] is the
    /// one code emitted at either severity (error only when the format
    /// exceeds the target's native word); the default is its advisory
    /// form.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::Undecodable
            | DiagCode::NonFiniteParam
            | DiagCode::DegenerateNormalizer
            | DiagCode::WidthMismatch
            | DiagCode::ChainWidthMismatch => Severity::Error,
            DiagCode::FormatOverflow | DiagCode::DeadFeature | DiagCode::Uncertified => {
                Severity::Warning
            }
        }
    }
}

/// One linter finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (see [`DiagCode`]).
    pub code: DiagCode,
    /// Severity of this occurrence (usually `code.severity()`).
    pub severity: Severity,
    /// The model the finding scopes to, if any.
    pub model: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// A finding at its code's default severity.
    pub fn new(code: DiagCode, model: Option<&str>, message: String) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            model: model.map(str::to_string),
            message,
        }
    }

    /// The [`DiagCode::DegenerateNormalizer`] finding for one column.
    pub fn degenerate_normalizer(model: &str, column: usize, std: f32) -> Self {
        Diagnostic::new(
            DiagCode::DegenerateNormalizer,
            Some(model),
            format!("normalizer std for column {column} is degenerate ({std})"),
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.model {
            Some(model) => write!(
                f,
                "{} {} [{model}]: {}",
                self.code.code(),
                self.severity.name(),
                self.message
            ),
            None => write!(
                f,
                "{} {}: {}",
                self.code.code(),
                self.severity.name(),
                self.message
            ),
        }
    }
}

/// JSON form: `{"code", "severity", "model", "message"}`.
impl ToJson for Diagnostic {
    fn to_json(&self) -> Value {
        json!({
            "code": self.code.code(),
            "severity": self.severity.name(),
            "model": self.model,
            "message": self.message,
        })
    }
}

/// One kernel's proven no-saturation verdict, surfaced from the
/// [`KernelFact`]s the runtime derives at lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCertificate {
    /// Stage label (`"dense layer 0"`, `"svm planes"`, …).
    pub kernel: String,
    /// Whether no `i32` accumulator can saturate for any admissible
    /// input, in any evaluation order.
    pub certified: bool,
    /// Worst-case accumulator magnitude (certification is
    /// `abs_bound <= i32::MAX`).
    pub abs_bound: i64,
    /// `abs_bound / i32::MAX` — how much of the accumulator range the
    /// worst case uses (> 1.0 means uncertified).
    pub headroom: f64,
}

impl KernelCertificate {
    fn from_fact(fact: &KernelFact) -> Self {
        KernelCertificate {
            kernel: fact.label.clone(),
            certified: fact.certified,
            abs_bound: fact.abs_bound,
            headroom: fact.abs_bound as f64 / f64::from(i32::MAX),
        }
    }
}

/// JSON form: `{"kernel", "certified", "abs_bound", "headroom"}`.
impl ToJson for KernelCertificate {
    fn to_json(&self) -> Value {
        json!({
            "kernel": self.kernel,
            "certified": self.certified,
            "abs_bound": self.abs_bound,
            "headroom": self.headroom,
        })
    }
}

/// Everything the analyzer needs to know about one model.
#[derive(Debug, Clone, Copy)]
pub struct ModelInput<'a> {
    /// Model (application) name, for diagnostic attribution.
    pub name: &'a str,
    /// The model IR (trained or shape-only).
    pub ir: &'a ModelIr,
    /// The fixed-point format the model is (or will be) lowered with.
    pub format: FixedPoint,
    /// The deployment normalizer, when one travels with the model.
    pub normalizer: Option<&'a Normalizer>,
    /// The target's native word width in bits, when known (see
    /// `homunculus_backends::target::TargetKind::word_bits`). A format
    /// wider than this is an error, not just a slow path.
    pub word_bits: Option<u32>,
}

/// The analyzer's verdict on one model.
#[derive(Debug, Clone)]
pub struct ModelAnalysis {
    /// Model name.
    pub name: String,
    /// Model family (`"dnn"`, `"svm"`, …).
    pub family: String,
    /// The lowering format analyzed against.
    pub format: FixedPoint,
    /// Whether the IR carried trained parameters and lowered — the
    /// precondition for certificates and parameter lints. Shape-only IRs
    /// (e.g. inside a cancelled session's partial artifact) analyze with
    /// `analyzed == false` and no certificate diagnostics.
    pub analyzed: bool,
    /// Per-kernel no-saturation certificates, in execution order.
    pub certificates: Vec<KernelCertificate>,
    /// Findings scoped to this model.
    pub diagnostics: Vec<Diagnostic>,
    /// The lowering the certificates were read from (`None` when the IR
    /// did not lower), so that a compile which analyzes a model before
    /// serving it lowers it once.
    pub pipeline: Option<CompiledPipeline>,
}

impl ModelAnalysis {
    /// Whether every lowered kernel holds a no-saturation certificate.
    pub fn saturation_certified(&self) -> bool {
        self.analyzed && self.certificates.iter().all(|c| c.certified)
    }
}

/// JSON form: name/family/format plus certificates and diagnostics.
impl ToJson for ModelAnalysis {
    fn to_json(&self) -> Value {
        json!({
            "name": self.name,
            "family": self.family,
            "format": format!("Q{}.{}", self.format.int_bits(), self.format.frac_bits()),
            "analyzed": self.analyzed,
            "saturation_certified": self.saturation_certified(),
            "certificates": self.certificates,
            "diagnostics": self.diagnostics,
        })
    }
}

/// The analyzer's verdict on a whole artifact (or ad-hoc model set).
#[derive(Debug, Clone, Default)]
pub struct ArtifactAnalysis {
    /// Per-model verdicts, in schedule order.
    pub models: Vec<ModelAnalysis>,
    /// Artifact-level findings (decode failures, chain-width breaks).
    pub artifact_diagnostics: Vec<Diagnostic>,
}

impl ArtifactAnalysis {
    /// The analysis of an artifact that does not decode: no models and
    /// one artifact-level [`DiagCode::Undecodable`] finding.
    pub fn undecodable(message: String) -> Self {
        ArtifactAnalysis {
            models: Vec::new(),
            artifact_diagnostics: vec![Diagnostic::new(DiagCode::Undecodable, None, message)],
        }
    }

    /// Every finding: artifact-level first, then per model in order.
    pub fn diagnostics(&self) -> impl Iterator<Item = &Diagnostic> {
        self.artifact_diagnostics
            .iter()
            .chain(self.models.iter().flat_map(|m| m.diagnostics.iter()))
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    fn warning_count(&self) -> usize {
        self.diagnostics()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether any error-severity finding exists (the load-gate and CLI
    /// failure condition).
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether every analyzed model is certified saturation-free.
    pub fn saturation_certified(&self) -> bool {
        self.models.iter().all(ModelAnalysis::saturation_certified)
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        use fmt::Write;
        let _ = writeln!(
            out,
            "{} model(s), {} error(s), {} warning(s)",
            self.models.len(),
            self.error_count(),
            self.warning_count()
        );
        for model in &self.models {
            let verdict = if !model.analyzed {
                "shape-only (not analyzed)".to_string()
            } else if model.saturation_certified() {
                "certified saturation-free".to_string()
            } else {
                "NOT certified".to_string()
            };
            let _ = writeln!(
                out,
                "model {} ({}, Q{}.{}): {verdict}",
                model.name,
                model.family,
                model.format.int_bits(),
                model.format.frac_bits()
            );
            for cert in &model.certificates {
                let _ = writeln!(
                    out,
                    "  {}: {} |acc| <= {} ({:.1}% of i32 range)",
                    cert.kernel,
                    if cert.certified {
                        "certified,"
                    } else {
                        "uncertified,"
                    },
                    cert.abs_bound,
                    cert.headroom * 100.0
                );
            }
        }
        for diagnostic in self.diagnostics() {
            let _ = writeln!(out, "{diagnostic}");
        }
        out
    }
}

/// JSON form: `{"models": [..], "diagnostics": [..], "errors", "warnings"}`
/// with the artifact-level diagnostics merged ahead of per-model ones.
impl ToJson for ArtifactAnalysis {
    fn to_json(&self) -> Value {
        let diagnostics: Vec<Value> = self.diagnostics().map(ToJson::to_json).collect();
        json!({
            "schema": "homunculus.analysis/v1",
            "models": self.models,
            "saturation_certified": self.saturation_certified(),
            "diagnostics": diagnostics,
            "errors": self.error_count(),
            "warnings": self.warning_count(),
        })
    }
}

/// Scans a parameter slice for non-finite values; returns the count and
/// the index of the first offender.
fn non_finite(values: &[f32]) -> Option<(usize, usize)> {
    let mut first = None;
    let mut count = 0usize;
    for (i, v) in values.iter().enumerate() {
        if !v.is_finite() {
            count += 1;
            first.get_or_insert(i);
        }
    }
    first.map(|f| (f, count))
}

/// Walks every trained parameter of `ir` and emits [`DiagCode::NonFiniteParam`]
/// findings (one per parameter group, with first index and count).
fn lint_non_finite(name: &str, ir: &ModelIr, out: &mut Vec<Diagnostic>) {
    let mut push = |what: String, found: Option<(usize, usize)>| {
        if let Some((first, count)) = found {
            out.push(Diagnostic::new(
                DiagCode::NonFiniteParam,
                Some(name),
                format!("{what} holds {count} non-finite value(s), first at index {first}"),
            ));
        }
    };
    match ir {
        ModelIr::Dnn(d) => {
            if let Some(params) = &d.params {
                for (li, layer) in params.iter().enumerate() {
                    push(
                        format!("dense layer {li} weights"),
                        non_finite(layer.weights.as_slice()),
                    );
                    push(format!("dense layer {li} bias"), non_finite(&layer.bias));
                }
            }
        }
        ModelIr::Svm(s) => {
            if let Some((weights, biases)) = &s.planes {
                for (p, w) in weights.iter().enumerate() {
                    push(format!("svm plane {p} weights"), non_finite(w));
                }
                push("svm biases".to_string(), non_finite(biases));
            }
        }
        ModelIr::KMeans(k) => {
            if let Some(centroids) = &k.centroids {
                for (c, centroid) in centroids.iter().enumerate() {
                    push(format!("centroid {c}"), non_finite(centroid));
                }
            }
        }
        ModelIr::Tree(t) => lint_tree_thresholds(name, t, None, out),
        ModelIr::Forest(f) => {
            for (ti, tree) in f.trees.iter().enumerate() {
                lint_tree_thresholds(name, tree, Some(ti), out);
            }
        }
    }
}

/// Non-finite thresholds in one tree's split nodes.
fn lint_tree_thresholds(name: &str, tree: &TreeIr, ti: Option<usize>, out: &mut Vec<Diagnostic>) {
    let Some(nodes) = &tree.nodes else { return };
    for (ni, node) in nodes.iter().enumerate() {
        if let TreeNodeIr::Split { threshold, .. } = node {
            if !threshold.is_finite() {
                let place = match ti {
                    Some(ti) => format!("tree {ti} node {ni}"),
                    None => format!("node {ni}"),
                };
                out.push(Diagnostic::new(
                    DiagCode::NonFiniteParam,
                    Some(name),
                    format!("{place} split threshold is non-finite ({threshold})"),
                ));
            }
        }
    }
}

/// Structural width/shape checks between the declared shape and the
/// carried parameters ([`DiagCode::WidthMismatch`]). The runtime's
/// lowering rejects the same defects; linting them here names the exact
/// disagreement instead of failing the whole compile.
fn lint_widths(input: &ModelInput<'_>, out: &mut Vec<Diagnostic>) {
    let name = input.name;
    let ir = input.ir;
    if let Err(e) = ir.validate() {
        out.push(Diagnostic::new(
            DiagCode::WidthMismatch,
            Some(name),
            format!("shape fails validation: {e}"),
        ));
    }
    if let Some(norm) = input.normalizer {
        if norm.mean.len() != ir.n_features() {
            out.push(Diagnostic::new(
                DiagCode::WidthMismatch,
                Some(name),
                format!(
                    "normalizer covers {} column(s) but the model consumes {} feature(s)",
                    norm.mean.len(),
                    ir.n_features()
                ),
            ));
        }
    }
    match ir {
        ModelIr::Dnn(d) => {
            let Some(params) = &d.params else { return };
            let dims = d.arch.layer_dims();
            if params.len() != dims.len() {
                out.push(Diagnostic::new(
                    DiagCode::WidthMismatch,
                    Some(name),
                    format!(
                        "architecture declares {} layer(s) but {} parameter set(s) are carried",
                        dims.len(),
                        params.len()
                    ),
                ));
                return;
            }
            for (li, (layer, &(rows, cols))) in params.iter().zip(&dims).enumerate() {
                if layer.weights.shape() != (rows, cols) {
                    out.push(Diagnostic::new(
                        DiagCode::WidthMismatch,
                        Some(name),
                        format!(
                            "dense layer {li} weights are {:?}, architecture wants ({rows}, {cols})",
                            layer.weights.shape()
                        ),
                    ));
                }
                if layer.bias.len() != cols {
                    out.push(Diagnostic::new(
                        DiagCode::WidthMismatch,
                        Some(name),
                        format!(
                            "dense layer {li} bias has {} value(s), architecture wants {cols}",
                            layer.bias.len()
                        ),
                    ));
                }
            }
        }
        ModelIr::Svm(s) => {
            let Some((weights, biases)) = &s.planes else {
                return;
            };
            for (p, w) in weights.iter().enumerate() {
                if w.len() != s.n_features {
                    out.push(Diagnostic::new(
                        DiagCode::WidthMismatch,
                        Some(name),
                        format!(
                            "svm plane {p} has {} weight(s) for {} feature(s)",
                            w.len(),
                            s.n_features
                        ),
                    ));
                }
            }
            if biases.len() != weights.len() {
                out.push(Diagnostic::new(
                    DiagCode::WidthMismatch,
                    Some(name),
                    format!(
                        "svm carries {} plane(s) but {} bias(es)",
                        weights.len(),
                        biases.len()
                    ),
                ));
            }
        }
        ModelIr::KMeans(k) => {
            let Some(centroids) = &k.centroids else {
                return;
            };
            if centroids.len() != k.k {
                out.push(Diagnostic::new(
                    DiagCode::WidthMismatch,
                    Some(name),
                    format!(
                        "kmeans declares k={} but carries {} centroid(s)",
                        k.k,
                        centroids.len()
                    ),
                ));
            }
            for (c, centroid) in centroids.iter().enumerate() {
                if centroid.len() != k.n_features {
                    out.push(Diagnostic::new(
                        DiagCode::WidthMismatch,
                        Some(name),
                        format!(
                            "centroid {c} has {} coordinate(s) for {} feature(s)",
                            centroid.len(),
                            k.n_features
                        ),
                    ));
                }
            }
        }
        ModelIr::Tree(t) => lint_tree_widths(name, t, None, out),
        ModelIr::Forest(f) => {
            for (ti, tree) in f.trees.iter().enumerate() {
                lint_tree_widths(name, tree, Some(ti), out);
            }
        }
    }
}

/// Split features and child indices must stay inside the declared shape.
fn lint_tree_widths(name: &str, tree: &TreeIr, ti: Option<usize>, out: &mut Vec<Diagnostic>) {
    let Some(nodes) = &tree.nodes else { return };
    let place = |ni: usize| match ti {
        Some(ti) => format!("tree {ti} node {ni}"),
        None => format!("node {ni}"),
    };
    for (ni, node) in nodes.iter().enumerate() {
        if let TreeNodeIr::Split {
            feature,
            left,
            right,
            ..
        } = node
        {
            if *feature >= tree.n_features {
                out.push(Diagnostic::new(
                    DiagCode::WidthMismatch,
                    Some(name),
                    format!(
                        "{} splits on feature {feature} but the tree consumes {} feature(s)",
                        place(ni),
                        tree.n_features
                    ),
                ));
            }
            if *left >= nodes.len() || *right >= nodes.len() {
                out.push(Diagnostic::new(
                    DiagCode::WidthMismatch,
                    Some(name),
                    format!(
                        "{} has a child index outside the {}-node arena",
                        place(ni),
                        nodes.len()
                    ),
                ));
            }
        }
    }
}

/// Format-vs-lane/word checks ([`DiagCode::FormatOverflow`]).
fn lint_format(input: &ModelInput<'_>, out: &mut Vec<Diagnostic>) {
    let format = input.format;
    if let Some(word_bits) = input.word_bits {
        if format.total_bits() > word_bits {
            let mut d = Diagnostic::new(
                DiagCode::FormatOverflow,
                Some(input.name),
                format!(
                    "format Q{}.{} needs {} bits but the target computes on {word_bits}-bit words",
                    format.int_bits(),
                    format.frac_bits(),
                    format.total_bits()
                ),
            );
            d.severity = Severity::Error;
            out.push(d);
            return;
        }
    }
    if PackedFixed::new(format).is_none() {
        out.push(Diagnostic::new(
            DiagCode::FormatOverflow,
            Some(input.name),
            format!(
                "format Q{}.{} needs {} bits — wider than any packed lane, scalar fallback",
                format.int_bits(),
                format.frac_bits(),
                format.total_bits()
            ),
        ));
    }
}

/// Dead-feature detection ([`DiagCode::DeadFeature`]): a feature is dead
/// when, over the whole quantized input interval, its contribution to
/// every consumer is provably constant — it cannot move any verdict.
fn lint_dead_features(input: &ModelInput<'_>, out: &mut Vec<Diagnostic>) {
    let format = input.format;
    let feature_iv = Interval::quantized(format);
    let zero = Interval::point(0);
    // Term is identically zero over the whole feature interval?
    let inert = |w: f32| term_interval(format, format.quantize(w), feature_iv) == zero;
    let mut dead: Vec<usize> = Vec::new();
    match input.ir {
        ModelIr::Dnn(d) => {
            let Some(params) = &d.params else { return };
            let Some(first) = params.first() else { return };
            if first.weights.shape().0 != d.arch.input_dim {
                return; // width lint already fired; rows would misindex
            }
            for k in 0..d.arch.input_dim {
                if first.weights.row(k).iter().all(|&w| inert(w)) {
                    dead.push(k);
                }
            }
        }
        ModelIr::Svm(s) => {
            let Some((weights, _)) = &s.planes else {
                return;
            };
            if weights.iter().any(|w| w.len() != s.n_features) {
                return;
            }
            for k in 0..s.n_features {
                if weights.iter().all(|w| inert(w[k])) {
                    dead.push(k);
                }
            }
        }
        ModelIr::KMeans(km) => {
            let Some(centroids) = &km.centroids else {
                return;
            };
            if centroids.iter().any(|c| c.len() != km.n_features) {
                return;
            }
            // A coordinate shared (after quantization) by every centroid
            // adds the same distance term to every cluster: the argmin
            // ranking cannot change.
            for k in 0..km.n_features {
                let mut raws = centroids.iter().map(|c| format.quantize(c[k]));
                if let Some(first) = raws.next() {
                    if raws.all(|r| r == first) {
                        dead.push(k);
                    }
                }
            }
        }
        ModelIr::Tree(t) => {
            let Some(nodes) = &t.nodes else { return };
            dead = unused_split_features(t.n_features, nodes.iter());
        }
        ModelIr::Forest(f) => {
            let mut used = vec![false; f.n_features];
            let mut trained = false;
            for tree in &f.trees {
                let Some(nodes) = &tree.nodes else { continue };
                trained = true;
                for node in nodes {
                    if let TreeNodeIr::Split { feature, .. } = node {
                        if *feature < used.len() {
                            used[*feature] = true;
                        }
                    }
                }
            }
            if !trained {
                return;
            }
            dead = used
                .iter()
                .enumerate()
                .filter(|(_, u)| !**u)
                .map(|(k, _)| k)
                .collect();
        }
    }
    for k in dead {
        out.push(Diagnostic::new(
            DiagCode::DeadFeature,
            Some(input.name),
            format!("feature {k}'s interval cannot affect any verdict"),
        ));
    }
}

/// Features never compared by any split node.
fn unused_split_features<'n>(
    n_features: usize,
    nodes: impl Iterator<Item = &'n TreeNodeIr>,
) -> Vec<usize> {
    let mut used = vec![false; n_features];
    for node in nodes {
        if let TreeNodeIr::Split { feature, .. } = node {
            if *feature < used.len() {
                used[*feature] = true;
            }
        }
    }
    used.iter()
        .enumerate()
        .filter(|(_, u)| !**u)
        .map(|(k, _)| k)
        .collect()
}

/// Analyzes one model: interval walk (via the runtime lowering, which
/// derives [`KernelFact`]s from `homunculus_ml::bounds`) plus the full
/// lint set. Never fails: defects become diagnostics.
pub fn analyze_model(input: &ModelInput<'_>) -> ModelAnalysis {
    let mut diagnostics = Vec::new();
    lint_widths(input, &mut diagnostics);
    lint_format(input, &mut diagnostics);
    lint_non_finite(input.name, input.ir, &mut diagnostics);
    lint_dead_features(input, &mut diagnostics);
    if let Some(norm) = input.normalizer {
        if let Err(MlError::DegenerateNormalizer { column, std }) = norm.validate() {
            diagnostics.push(Diagnostic::degenerate_normalizer(input.name, column, std));
        }
    }

    // Interval walk: the runtime lowering *is* the analysis — every
    // kernel fact is derived there from the quantized parameters, so the
    // certificates here are exactly what fast-path selection consumes.
    let (pipeline, certificates) = match CompiledPipeline::from_ir(input.ir, input.format) {
        Ok(pipeline) => {
            let certificates = pipeline
                .kernel_facts()
                .iter()
                .map(KernelCertificate::from_fact)
                .collect::<Vec<_>>();
            (Some(pipeline), certificates)
        }
        Err(RuntimeError::MissingParams(_)) => (None, Vec::new()),
        Err(e) => {
            // Inconsistent IRs were already diagnosed structurally above;
            // surface the lowering error too in case it caught something
            // the structural lints missed.
            if diagnostics.is_empty() {
                diagnostics.push(Diagnostic::new(
                    DiagCode::WidthMismatch,
                    Some(input.name),
                    format!("ir fails to lower: {e}"),
                ));
            }
            (None, Vec::new())
        }
    };
    for cert in certificates.iter().filter(|c| !c.certified) {
        diagnostics.push(Diagnostic::new(
            DiagCode::Uncertified,
            Some(input.name),
            format!(
                "kernel '{}' not certified saturation-free (worst-case |acc| {} > i32::MAX); \
                 the guarded saturating path will run",
                cert.kernel, cert.abs_bound
            ),
        ));
    }
    ModelAnalysis {
        name: input.name.to_string(),
        family: input.ir.family().to_string(),
        format: input.format,
        analyzed: pipeline.is_some(),
        certificates,
        diagnostics,
        pipeline,
    }
}

/// Analyzes a model set as one artifact: every model individually, plus
/// the cross-model chain-width contract — stage 0 consumes the base
/// feature width, and every later stage must consume either `base`
/// (parallel serving) or `base + 1` (upstream verdict appended as an
/// extra feature by verdict chaining).
pub fn analyze_models(inputs: &[ModelInput<'_>]) -> ArtifactAnalysis {
    let mut analysis = ArtifactAnalysis {
        models: inputs.iter().map(analyze_model).collect(),
        artifact_diagnostics: Vec::new(),
    };
    if let Some(first) = inputs.first() {
        let base = first.ir.n_features();
        for (stage, input) in inputs.iter().enumerate().skip(1) {
            let n = input.ir.n_features();
            if n != base && n != base + 1 {
                analysis.artifact_diagnostics.push(Diagnostic::new(
                    DiagCode::ChainWidthMismatch,
                    Some(input.name),
                    format!(
                        "stage {stage} consumes {n} feature(s); upstream produces {base} \
                         column(s) (+1 verdict when chained)"
                    ),
                ));
            }
        }
    }
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_backends::model::{DnnIr, KMeansIr, LayerParams, SvmIr};
    use homunculus_ml::mlp::MlpArchitecture;
    use homunculus_ml::tensor::Matrix;

    fn q312() -> FixedPoint {
        FixedPoint::taurus_default()
    }

    fn tiny_dnn() -> ModelIr {
        let arch = MlpArchitecture::new(3, vec![2], 2);
        let params = vec![
            LayerParams {
                weights: Matrix::from_fn(3, 2, |r, c| 0.1 * (r as f32 + 1.0) - 0.05 * c as f32),
                bias: vec![0.01, -0.02],
            },
            LayerParams {
                weights: Matrix::from_fn(2, 2, |r, c| if r == c { 0.5 } else { -0.25 }),
                bias: vec![0.0, 0.1],
            },
        ];
        ModelIr::Dnn(DnnIr {
            arch,
            params: Some(params),
        })
    }

    fn input<'a>(name: &'a str, ir: &'a ModelIr) -> ModelInput<'a> {
        ModelInput {
            name,
            ir,
            format: q312(),
            normalizer: None,
            word_bits: Some(16),
        }
    }

    #[test]
    fn healthy_dnn_is_certified_and_clean() {
        let ir = tiny_dnn();
        let analysis = analyze_model(&input("m", &ir));
        assert!(analysis.analyzed);
        assert!(analysis.saturation_certified());
        assert_eq!(analysis.certificates.len(), 2);
        assert!(
            analysis.diagnostics.is_empty(),
            "unexpected: {:?}",
            analysis.diagnostics
        );
        assert!(analysis.certificates.iter().all(|c| c.headroom < 1.0));
    }

    #[test]
    fn nan_weight_is_ha0001() {
        let mut ir = tiny_dnn();
        if let ModelIr::Dnn(d) = &mut ir {
            d.params.as_mut().unwrap()[0].weights.as_mut_slice()[1] = f32::NAN;
        }
        let analysis = analyze_model(&input("m", &ir));
        assert!(analysis
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::NonFiniteParam && d.severity == Severity::Error));
    }

    #[test]
    fn width_mismatch_is_ha0003() {
        let mut ir = tiny_dnn();
        if let ModelIr::Dnn(d) = &mut ir {
            d.params.as_mut().unwrap()[0].bias.push(7.0);
        }
        let analysis = analyze_model(&input("m", &ir));
        assert!(analysis
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::WidthMismatch));
        assert!(!analysis.saturation_certified());
    }

    #[test]
    fn degenerate_normalizer_is_ha0002_with_column() {
        let ir = tiny_dnn();
        let norm = Normalizer {
            mean: vec![0.0, 0.0, 0.0],
            std: vec![1.0, 0.0, 1.0],
        };
        let mut i = input("m", &ir);
        i.normalizer = Some(&norm);
        let analysis = analyze_model(&i);
        let d = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::DegenerateNormalizer)
            .expect("HA0002");
        assert!(d.message.contains("column 1"), "{}", d.message);
    }

    #[test]
    fn wide_format_is_ha0004() {
        let ir = tiny_dnn();
        let mut i = input("m", &ir);
        i.format = FixedPoint::new(14, 16).unwrap(); // 31 bits: no packed lane
        i.word_bits = None;
        let analysis = analyze_model(&i);
        let d = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::FormatOverflow)
            .expect("HA0004");
        assert_eq!(d.severity, Severity::Warning);

        // Against a 16-bit target word the same format is an error.
        i.word_bits = Some(16);
        let analysis = analyze_model(&i);
        let d = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::FormatOverflow)
            .expect("HA0004");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn zero_weight_column_is_dead_feature() {
        let arch = MlpArchitecture::new(3, vec![2], 2);
        let params = vec![
            LayerParams {
                // Feature 1's row is all zeros: provably inert.
                weights: Matrix::from_rows(&[vec![0.3, -0.2], vec![0.0, 0.0], vec![0.1, 0.4]])
                    .unwrap(),
                bias: vec![0.0, 0.0],
            },
            LayerParams {
                weights: Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 }),
                bias: vec![0.0, 0.0],
            },
        ];
        let ir = ModelIr::Dnn(DnnIr {
            arch,
            params: Some(params),
        });
        let analysis = analyze_model(&input("m", &ir));
        let dead: Vec<&Diagnostic> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::DeadFeature)
            .collect();
        assert_eq!(dead.len(), 1);
        assert!(dead[0].message.contains("feature 1"));
    }

    #[test]
    fn shared_centroid_coordinate_is_dead_feature() {
        let ir = ModelIr::KMeans(KMeansIr {
            k: 2,
            n_features: 2,
            centroids: Some(vec![vec![1.0, 0.5], vec![-1.0, 0.5]]),
        });
        let analysis = analyze_model(&input("m", &ir));
        assert!(analysis
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::DeadFeature && d.message.contains("feature 1")));
    }

    #[test]
    fn chain_width_break_is_ha0006() {
        let a = ModelIr::Svm(SvmIr {
            n_features: 4,
            n_classes: 2,
            planes: Some((vec![vec![0.1; 4]], vec![0.0])),
        });
        let ok = ModelIr::Svm(SvmIr {
            n_features: 5, // base + 1: legal chain stage
            n_classes: 2,
            planes: Some((vec![vec![0.1; 5]], vec![0.0])),
        });
        let bad = ModelIr::Svm(SvmIr {
            n_features: 7, // neither base nor base + 1
            n_classes: 2,
            planes: Some((vec![vec![0.1; 7]], vec![0.0])),
        });
        let good = analyze_models(&[input("a", &a), input("b", &ok)]);
        assert_eq!(good.error_count(), 0, "{:?}", good.artifact_diagnostics);
        let broken = analyze_models(&[input("a", &a), input("c", &bad)]);
        assert!(broken
            .artifact_diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ChainWidthMismatch));
        assert!(broken.has_errors());
    }

    #[test]
    fn shape_only_ir_is_not_analyzed_but_not_an_error() {
        let ir = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
            4,
            vec![3],
            2,
        )));
        let analysis = analyze_model(&input("m", &ir));
        assert!(!analysis.analyzed);
        assert!(analysis.certificates.is_empty());
        assert_eq!(
            analysis
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count(),
            0
        );
    }

    #[test]
    fn uncertified_kernel_is_ha0007_warning() {
        // Huge weights over many inputs: worst-case |acc| blows past i32
        // (each Q3.12 term tops out near 2^18, so ~2^13 terms overflow).
        let n = 16_384;
        let arch = MlpArchitecture::new(n, vec![1], 2);
        let params = vec![
            LayerParams {
                weights: Matrix::filled(n, 1, 7.9),
                bias: vec![0.0],
            },
            LayerParams {
                weights: Matrix::filled(1, 2, 0.5),
                bias: vec![0.0, 0.0],
            },
        ];
        let ir = ModelIr::Dnn(DnnIr {
            arch,
            params: Some(params),
        });
        let analysis = analyze_model(&input("m", &ir));
        assert!(analysis.analyzed);
        assert!(!analysis.saturation_certified());
        let d = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::Uncertified)
            .expect("HA0007");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn render_and_json_share_counts() {
        let ir = tiny_dnn();
        let analysis = analyze_models(&[input("m", &ir)]);
        let text = analysis.render();
        assert!(text.contains("certified saturation-free"));
        let doc = analysis.to_json();
        assert_eq!(doc["errors"].as_i64(), Some(0));
        assert_eq!(doc["schema"].as_str(), Some("homunculus.analysis/v1"));
        assert_eq!(doc["saturation_certified"].as_bool(), Some(true));
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(DiagCode::Undecodable.code(), "HA0000");
        assert_eq!(DiagCode::NonFiniteParam.code(), "HA0001");
        assert_eq!(DiagCode::DegenerateNormalizer.code(), "HA0002");
        assert_eq!(DiagCode::WidthMismatch.code(), "HA0003");
        assert_eq!(DiagCode::FormatOverflow.code(), "HA0004");
        assert_eq!(DiagCode::DeadFeature.code(), "HA0005");
        assert_eq!(DiagCode::ChainWidthMismatch.code(), "HA0006");
        assert_eq!(DiagCode::Uncertified.code(), "HA0007");
    }
}
