//! The paper's evaluation (§5), one function per table/figure.
//!
//! Each experiment prints its table, then its `shape checks` banner and
//! any rows that assert nothing, and returns the claims it measured as
//! [`ShapeCheck`]s; [`crate::run`] prints those and [`crate::gate`]
//! judges them. Table 2's six models are built once by [`table2_models`]
//! and read by both [`table2`] and [`table5`].

use crate::{
    ad_dataset, banner, bar, bd_flows, compile_on_taurus, dnn_spec, experiment_options,
    mlp_from_ir, paper, partial_histogram_f1, taurus_platform, tc_dataset, Application, ShapeCheck,
    BD_HORIZONS,
};
use homunculus_backends::fpga::FpgaTarget;
use homunculus_backends::model::ModelIr;
use homunculus_backends::resources::ResourceEstimate;
use homunculus_backends::target::Target;
use homunculus_backends::taurus::TaurusTarget;
use homunculus_core::alchemy::{Metric, ModelSpec, Platform};
use homunculus_core::fusion::{try_fuse, DEFAULT_OVERLAP_THRESHOLD};
use homunculus_core::pipeline::{generate_with, CompilerOptions, ModelReport};
use homunculus_core::schedule::ScheduleExpr;
use homunculus_datasets::dataset::Normalizer;
use homunculus_datasets::histogram::FlowmarkerConfig;
use homunculus_datasets::nslkdd::NslKddGenerator;
use homunculus_datasets::p2p::{
    averaged_class_histograms, flowmarker_dataset, mixed_partial_histogram_dataset,
    partial_histogram_dataset,
};
use homunculus_ml::metrics::f1_binary;

/// What an experiment can fail with.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// One row of Table 2: a trained model, its score and its Taurus bill.
pub struct Table2Model {
    /// Row label, as in [`paper::TABLE2`].
    pub name: &'static str,
    /// Input features.
    pub features: usize,
    /// The trained model.
    pub ir: ModelIr,
    /// Held-out F1 (macro-F1 for TC); for BD, over per-packet partial
    /// histograms.
    pub f1: f64,
    /// Its Taurus resource estimate (`cus`, `mus`).
    pub estimate: ResourceEstimate,
}

/// Builds Table 2's six models in the paper's row order: each
/// application's hand-tuned baseline ([`Application::baseline`]), then
/// its Homunculus compile under the Taurus constraints.
///
/// # Errors
///
/// Propagates training, compile and estimate failures.
pub fn table2_models() -> Result<Vec<Table2Model>> {
    let baseline = |name, features, app: Application, data| -> Result<(Table2Model, Normalizer)> {
        let (scored, normalizer) = app.baseline(data, 0)?;
        let (estimate, _) = scored.feasibility?;
        let row = Table2Model {
            name,
            features,
            ir: scored.ir,
            f1: scored
                .objective
                .expect("a fixed baseline is trained, never refused"),
            estimate,
        };
        Ok((row, normalizer))
    };
    let hom = |name, features, best: &ModelReport, f1| Table2Model {
        name,
        features,
        ir: best.ir.clone(),
        f1,
        estimate: best.estimate.clone(),
    };
    let compile = |name, app: Application, data, seed| {
        compile_on_taurus(name, app.metric(), data, &experiment_options(seed))
    };
    let mut rows = Vec::with_capacity(6);

    rows.push(baseline("Base-AD", 7, Application::Ad, ad_dataset(42))?.0);
    let hom_ad = compile("hom_ad", Application::Ad, ad_dataset(42), 1)?;
    rows.push(hom("Hom-AD", 7, hom_ad.best(), hom_ad.best().objective));

    rows.push(baseline("Base-TC", 7, Application::Tc, tc_dataset(11))?.0);
    let hom_tc = compile("hom_tc", Application::Tc, tc_dataset(11), 2)?;
    rows.push(hom("Hom-TC", 7, hom_tc.best(), hom_tc.best().objective));

    // BD: the baseline keeps FlowLens' per-flow protocol (train on full
    // flowmarkers), and both sides are scored per packet.
    let config = FlowmarkerConfig::paper_reduced();
    let (train_flows, test_flows) = bd_flows(7);
    let per_packet_f1 = |ir: &ModelIr, normalizer: &Normalizer| {
        partial_histogram_f1(
            &mlp_from_ir(ir),
            normalizer,
            &test_flows,
            config,
            &BD_HORIZONS,
        )
    };
    let bd_markers = flowmarker_dataset(&train_flows, config);
    let (mut base_bd, normalizer) = baseline("Base-BD", 30, Application::Bd, bd_markers)?;
    base_bd.f1 = per_packet_f1(&base_bd.ir, &normalizer);
    rows.push(base_bd);

    // The searched BD model is a *per-packet* model: it trains directly
    // on partial histograms at every horizon (the intro's headline — a
    // model "achieving an F1 score of 86.5" without waiting for the
    // flow).
    let bd_partials = mixed_partial_histogram_dataset(&train_flows, config, &BD_HORIZONS);
    let hom_bd = compile("hom_bd", Application::Bd, bd_partials, 3)?;
    let best = hom_bd.best();
    let f1 = per_packet_f1(&best.ir, &best.normalizer);
    rows.push(hom("Hom-BD", 30, best, f1));
    Ok(rows)
}

/// Table 2: hand-tuned baselines vs Homunculus-generated models.
///
/// The shape to reproduce: Homunculus beats the hand-tuned baseline on
/// every application; for AD/TC it does so with a *bigger* model (more
/// CUs/MUs — using the idle resources), while for BD it wins with
/// *fewer* parameters arranged deeper (CU->MU shift).
pub fn table2(models: &[Table2Model]) -> Result<Vec<ShapeCheck>> {
    banner("Table 2: baselines vs Homunculus-generated models (Taurus)");
    println!(
        "{:<10} {:>9} {:>9} {:>8} {:>6} {:>6}   (paper: params/f1/cus/mus)",
        "model", "features", "params", "F1", "CUs", "MUs"
    );
    for (m, (pname, _, pparams, pf1, pcus, pmus)) in models.iter().zip(paper::TABLE2.iter()) {
        assert_eq!(m.name, *pname);
        println!(
            "{:<10} {:>9} {:>9} {:>8.2} {:>6.0} {:>6.0}   ({pparams}/{pf1}/{pcus}/{pmus})",
            m.name,
            m.features,
            m.ir.param_count(),
            m.f1 * 100.0,
            m.estimate.resources.get("cus"),
            m.estimate.resources.get("mus")
        );
    }

    banner("shape checks");
    println!(
        "{:<28} {:<40} paper: {}",
        "BD per-packet headline",
        format!("{:.1}", models[5].f1 * 100.0),
        paper::BD_PER_PACKET_HEADLINE_F1
    );
    let claims = [
        ("table2.ad_f1", "Hom-AD beats Base-AD"),
        ("table2.tc_f1", "Hom-TC beats Base-TC"),
        ("table2.bd_f1", "Hom-BD beats Base-BD"),
    ];
    Ok(claims
        .into_iter()
        .enumerate()
        .map(|(i, (id, claim))| {
            let (base, hom) = (&models[2 * i], &models[2 * i + 1]);
            let (pbase, phom) = (paper::TABLE2[2 * i].3, paper::TABLE2[2 * i + 1].3);
            ShapeCheck {
                id,
                claim,
                measured: format!("{:.2} > {:.2}", hom.f1 * 100.0, base.f1 * 100.0),
                reference: format!("{phom} > {pbase}"),
                holds: hom.f1 > base.f1,
            }
        })
        .collect())
}

/// One AD copy for a Table 3 chain (the chains price copies of one
/// searched model; the spec only names a node).
fn chain_node(name: &str) -> ModelSpec {
    ModelSpec::builder(name)
        .data(NslKddGenerator::new(1).generate(400))
        .build()
        .expect("valid spec")
}

/// Table 3: resource scaling for different application chaining
/// strategies on one Taurus switch (§5.1.3).
///
/// The paper chains copies of the anomaly-detection DNN in sequential,
/// parallel, and mixed topologies and observes that the resource bill
/// "stays constant with the number of models, regardless of the
/// strategy" — chaining glue fits into already-allocated CUs.
pub fn table3() -> Result<Vec<ShapeCheck>> {
    banner("Table 3: resource scaling for application chaining (Taurus)");
    // Search the AD model once; the chains replicate it.
    let options = CompilerOptions {
        bo_budget: 12,
        doe_samples: 4,
        train_epochs: 15,
        final_epochs: 30,
        sample_cap: Some(1_200),
        ..experiment_options(4)
    };
    let artifact = compile_on_taurus(
        "ad_chain_unit",
        Application::Ad.metric(),
        ad_dataset(42),
        &options,
    )?;
    let unit = artifact.best();
    let unit_resources = unit.estimate.resources.clone();
    let unit_perf = unit.estimate.performance;
    println!(
        "unit model: {} params, per-copy resources {}\n",
        unit.ir.param_count(),
        unit_resources
    );

    let n = chain_node;
    let strategies: Vec<(&str, ScheduleExpr)> = vec![
        (
            "DNN > DNN > DNN > DNN",
            n("a") >> n("b") >> n("c") >> n("d"),
        ),
        ("DNN | DNN | DNN | DNN", n("e") | n("f") | n("g") | n("h")),
        (
            "DNN > (DNN | DNN) > DNN",
            n("i") >> (n("j") | n("k")) >> n("l"),
        ),
    ];

    println!(
        "{:<26} {:>8} {:>8} {:>12} {:>10}   (paper per-copy: CUs/MUs)",
        "strategy", "CUs", "MUs", "tput(GPkt/s)", "lat(ns)"
    );
    let mut totals = Vec::new();
    let mut line_rate = Vec::new();
    for ((label, expr), (plabel, pcus, pmus)) in strategies.into_iter().zip(paper::TABLE3) {
        assert_eq!(label, plabel);
        let copies = expr.len();
        let resources = expr.combined_resources(&vec![unit_resources.clone(); copies]);
        let perf = expr.combined_performance(&vec![unit_perf; copies]);
        println!(
            "{label:<26} {:>8.0} {:>8.0} {:>12.2} {:>10.0}   ({pcus}/{pmus})",
            resources.get("cus"),
            resources.get("mus"),
            perf.throughput_gpps,
            perf.latency_ns,
        );
        totals.push((resources.get("cus"), resources.get("mus")));
        line_rate.push(perf.throughput_gpps);
    }

    banner("shape checks");
    let bills = |rows: &mut dyn Iterator<Item = String>| rows.collect::<Vec<_>>().join(", ");
    Ok(vec![
        ShapeCheck {
            id: "table3.flat_resources",
            claim: "resources identical across strategies (CUs/MUs)",
            measured: bills(&mut totals.iter().map(|(c, m)| format!("{c:.0}/{m:.0}"))),
            reference: bills(&mut paper::TABLE3.iter().map(|(_, c, m)| format!("{c}/{m}"))),
            holds: totals.iter().all(|t| *t == totals[0]),
        },
        ShapeCheck {
            id: "table3.line_rate",
            claim: "sequential chain holds line rate",
            measured: format!("{} GPkt/s", line_rate[0]),
            reference: ">= 1 GPkt/s".into(),
            holds: line_rate[0] >= 1.0,
        },
    ])
}

/// Compiles one Table 4 model on the paper's Taurus platform; returns
/// its objective, CUs and MUs.
fn table4_compile(spec: ModelSpec, seed: u64) -> Result<(f64, f64, f64)> {
    let options = CompilerOptions {
        bo_budget: 12,
        doe_samples: 4,
        train_epochs: 15,
        final_epochs: 40,
        sample_cap: Some(1_500),
        ..experiment_options(seed)
    };
    let artifact = generate_with(&taurus_platform(spec)?, &options)?;
    let best = artifact.best();
    Ok((
        best.objective,
        best.estimate.resources.get("cus"),
        best.estimate.resources.get("mus"),
    ))
}

/// Table 4: fused resource usage (§3.2.5, §5.1.3).
///
/// The AD dataset is divided into two halves, each compiled as its own
/// model (sharing the switch 50/50) — then Homunculus fuses them into a
/// single model trained on both halves. The fused model costs about as
/// much as *one* split model: a ~2x resource saving.
pub fn table4() -> Result<Vec<ShapeCheck>> {
    banner("Table 4: fused resource usage (Taurus)");
    let (half_a, half_b) = NslKddGenerator::new(13).generate_halves(6_000);
    println!(
        "AD dataset split: part1 = {} samples, part2 = {} samples",
        half_a.len(),
        half_b.len()
    );

    let spec_a = dnn_spec("ad_part1", Application::Ad.metric(), half_a)?;
    let spec_b = dnn_spec("ad_part2", Application::Ad.metric(), half_b)?;
    let (fused, decision) = try_fuse(&spec_a, &spec_b, DEFAULT_OVERLAP_THRESHOLD)?;
    println!("fusion decision: {decision:?}\n");
    let fused = fused.expect("halves share one schema");

    let (f1_a, cus_a, mus_a) = table4_compile(spec_a, 31)?;
    let (f1_b, cus_b, mus_b) = table4_compile(spec_b, 32)?;
    let (f1_f, cus_f, mus_f) = table4_compile(fused, 33)?;

    println!(
        "{:<12} {:>8} {:>8} {:>8}   (paper: PCUs/PMUs)",
        "application", "F1", "CUs", "MUs"
    );
    let rows = [
        ("AD: Part 1", f1_a, cus_a, mus_a),
        ("AD: Part 2", f1_b, cus_b, mus_b),
        ("AD: Fused", f1_f, cus_f, mus_f),
    ];
    for ((label, f1, cus, mus), (plabel, pcus, pmus)) in rows.iter().zip(paper::TABLE4) {
        assert_eq!(*label, plabel);
        println!(
            "{label:<12} {:>8.2} {cus:>8.0} {mus:>8.0}   ({pcus}/{pmus})",
            f1 * 100.0
        );
    }

    banner("shape checks");
    println!(
        "saving vs separate deployment: {:.1}x CUs, {:.1}x MUs",
        (cus_a + cus_b) / cus_f.max(1.0),
        (mus_a + mus_b) / mus_f.max(1.0)
    );
    let [(_, pa, _), (_, pb, _), (_, pf, _)] = paper::TABLE4;
    Ok(vec![ShapeCheck {
        id: "table4.fused_within_2x",
        claim: "fused ~= one split model (CUs), within 2x",
        measured: format!("{cus_f:.0} vs avg {:.0}", (cus_a + cus_b) / 2.0),
        reference: format!("{pf} vs avg {}", (pa + pb) as f64 / 2.0),
        holds: cus_f <= cus_a + cus_b,
    }])
}

/// Table 5: resource consumption and power on the Taurus FPGA testbed
/// (§5.2.1).
///
/// The paper's end-to-end testbed emulates the MapReduce core on an Alveo
/// U250 and reports LUT/FF/BRAM utilization and board power per model.
/// This reproduces the table with the FPGA estimator, whose coefficients
/// are hand-set (its module docs compare them with a least-squares fit):
/// Table 2's six models plus the loopback floor.
pub fn table5(models: &[Table2Model]) -> Result<Vec<ShapeCheck>> {
    banner("Table 5: FPGA testbed resource consumption and power (Alveo U250)");
    let fpga = FpgaTarget::default();
    println!(
        "{:<10} {:>7} {:>7} {:>7} {:>9}   (paper: LUT/FF/BRAM/Power)",
        "model", "LUT%", "FF%", "BRAM%", "Power(W)"
    );
    let rows =
        std::iter::once(("Loopback", None)).chain(models.iter().map(|m| (m.name, Some(&m.ir))));
    // (lut, power, bram) per row, in paper order.
    let mut readings = Vec::new();
    for ((label, model), (plabel, plut, pff, pbram, ppower)) in rows.zip(paper::TABLE5.iter()) {
        assert_eq!(label, *plabel);
        let est = match model {
            Some(ir) => fpga.estimate(ir)?,
            None => fpga.loopback_estimate(),
        };
        let (lut, ff, bram, power) = (
            est.resources.get("lut_pct"),
            est.resources.get("ff_pct"),
            est.resources.get("bram_pct"),
            est.resources.get("power_w"),
        );
        println!(
            "{label:<10} {lut:>7.2} {ff:>7.2} {bram:>7.2} {power:>9.3}   ({plut}/{pff}/{pbram}/{ppower})"
        );
        readings.push((lut, power, bram));
    }

    banner("shape checks");
    // Row indices into TABLE5: 1 Base-AD, 2 Hom-AD, 5 Base-BD, 6 Hom-BD.
    let p = &paper::TABLE5;
    let (lut, power) = (|i: usize| readings[i].0, |i: usize| readings[i].1);
    let bram = |pick: fn(f64, f64) -> f64| readings.iter().map(|r| r.2).fold(readings[0].2, pick);
    let paper_bram = |pick: fn(f64, f64) -> f64| p.iter().map(|r| r.3).fold(p[0].3, pick);
    Ok(vec![
        ShapeCheck {
            id: "table5.ad_lut",
            claim: "Hom-AD uses more LUT than Base-AD (bigger model)",
            measured: format!("{:.2} > {:.2}", lut(2), lut(1)),
            reference: format!("{} > {}", p[2].1, p[1].1),
            holds: lut(2) > lut(1),
        },
        ShapeCheck {
            id: "table5.ad_power",
            claim: "Hom-AD draws more power than Base-AD",
            measured: format!("{:.3} > {:.3} W", power(2), power(1)),
            reference: format!("{} > {} W", p[2].4, p[1].4),
            holds: power(2) > power(1),
        },
        ShapeCheck {
            id: "table5.bd_lut",
            claim: "Hom-BD uses LESS LUT than Base-BD (fewer params)",
            measured: format!("{:.2} < {:.2}", lut(6), lut(5)),
            reference: format!("{} < {}", p[6].1, p[5].1),
            holds: lut(6) < lut(5),
        },
        ShapeCheck {
            id: "table5.bd_power",
            claim: "Hom-BD draws less power than Base-BD",
            measured: format!("{:.3} < {:.3} W", power(6), power(5)),
            reference: format!("{} < {} W", p[6].4, p[5].4),
            holds: power(6) < power(5),
        },
        ShapeCheck {
            id: "table5.bram_flat",
            claim: "BRAM flat across all models (parameters live in LUT-RAM)",
            measured: format!("{:.2}..{:.2}", bram(f64::min), bram(f64::max)),
            reference: format!("{}..{}", paper_bram(f64::min), paper_bram(f64::max)),
            holds: bram(f64::min) == bram(f64::max),
        },
    ])
}

/// Figure 4: regret plot with the F1-score metric for the
/// anomaly-detection DNN on the MapReduce grid.
///
/// The shape to reproduce: early iterations are poor, the score climbs
/// quickly to a stable plateau, with occasional exploration dips as the
/// optimizer trades exploitation against exploration.
pub fn fig4() -> Result<Vec<ShapeCheck>> {
    banner("Figure 4: BO regret plot, anomaly-detection DNN on Taurus");
    let artifact = compile_on_taurus(
        "fig4_ad",
        Application::Ad.metric(),
        ad_dataset(42),
        &experiment_options(14),
    )?;
    let best = artifact.best();
    let series = best.history.objective_series();
    let best_so_far = best.history.best_so_far_series();

    // A configuration the target refused untrained has no F1 and no bar.
    println!("iteration  F1(%)   best-so-far   plot (0..100)");
    for (i, (&obj, &bsf)) in series.iter().zip(&best_so_far).enumerate() {
        let (f1, plot) = match obj {
            Some(obj) => (format!("{:.2}", obj * 100.0), bar(obj * 100.0, 100.0, 40)),
            None => ("—".to_string(), String::new()),
        };
        let bsf_pct = if bsf.is_nan() { 0.0 } else { bsf * 100.0 };
        println!("{:>9}  {f1:>6}  {bsf_pct:>11.2}   |{plot}", i + 1);
    }

    banner("shape checks");
    let doe = best.history.doe_samples();
    let early_best = series[..doe]
        .iter()
        .flatten()
        .copied()
        .fold(f64::MIN, f64::max);
    let final_best = best_so_far.last().copied().unwrap_or(0.0);
    Ok(vec![
        ShapeCheck {
            id: "fig4.improves",
            claim: "search improves over random initialization",
            measured: format!("{:.2} -> {:.2}", early_best * 100.0, final_best * 100.0),
            reference: "climbs from poor early iterations".into(),
            holds: final_best >= early_best,
        },
        ShapeCheck {
            id: "fig4.plateau",
            claim: "stabilizes above 70 F1 like the paper's plateau",
            measured: format!("{:.2} > 70", final_best * 100.0),
            reference: format!("plateau {}", paper::TABLE2[1].3),
            holds: final_best * 100.0 > 70.0,
        },
    ])
}

/// Prints one Figure 6 histogram pair, benign beside malicious.
fn print_histograms(title: &str, benign: &[f64], botnet: &[f64]) {
    let max = benign.iter().chain(botnet).cloned().fold(0.0, f64::max);
    println!("\n{title}");
    println!(
        "{:>4} {:>10} {:>10}   benign | malicious",
        "bin", "benign", "malicious"
    );
    for (i, (b, m)) in benign.iter().zip(botnet).enumerate() {
        println!(
            "{:>4} {:>10.2} {:>10.2}   {:<20} | {}",
            i + 1,
            b,
            m,
            bar(*b, max, 20),
            bar(*m, max, 20)
        );
    }
}

/// Figure 6: botnet vs benign flow-level packet-length (PL) and
/// inter-arrival-time (IPT) histograms, averaged across all flows.
///
/// The shape to reproduce: benign P2P fills many PL bins (including the
/// high, data-piece bins), while botnet C&C mass concentrates in a few
/// low bins — "certain bins are not expected to fill for botnet
/// applications". Botnet IPT mass shifts toward higher bins (long gaps).
pub fn fig6() -> Result<Vec<ShapeCheck>> {
    banner("Figure 6: botnet vs benign PL and IPT histograms (per-flow mean counts)");
    let (train_flows, test_flows) = bd_flows(7);
    let flows: Vec<_> = train_flows.into_iter().chain(test_flows).collect();
    let config = FlowmarkerConfig::figure6(); // PL bin = 64 B, IPT bin = 512 s
    let (benign_pl, botnet_pl, benign_ipt, botnet_ipt) = averaged_class_histograms(&flows, config);
    print_histograms("packet-length bins (64 B each)", &benign_pl, &botnet_pl);
    print_histograms(
        "inter-arrival-time bins (512 s each)",
        &benign_ipt,
        &botnet_ipt,
    );

    banner("shape checks");
    let high_bins = 15..config.pl_bins;
    let benign_high: f64 = benign_pl[high_bins.clone()].iter().sum();
    let botnet_high: f64 = botnet_pl[high_bins].iter().sum();
    let tail = |ipt: &[f64]| ipt[1..].iter().sum::<f64>() / ipt.iter().sum::<f64>().max(1e-9);
    let (benign_tail, botnet_tail) = (tail(&benign_ipt), tail(&botnet_ipt));
    Ok(vec![
        ShapeCheck {
            id: "fig6.high_pl_bins",
            claim: "benign fills high PL bins (16+), botnet leaves them empty",
            measured: format!("{benign_high:.2} vs {botnet_high:.2} (> 5x)"),
            reference: "high bins benign-only".into(),
            holds: benign_high > botnet_high * 5.0,
        },
        ShapeCheck {
            id: "fig6.ipt_shift",
            claim: "botnet IPT mass shifts to higher bins",
            measured: format!("{botnet_tail:.3} vs benign {benign_tail:.3}"),
            reference: "botnet gaps longer".into(),
            holds: botnet_tail > benign_tail,
        },
    ])
}

/// Figure 7: regret plot with the V-measure metric for KMeans on
/// match-action tables under five MAT budgets (§5.2.2).
///
/// The shape to reproduce: five curves KMeans1..KMeans5, each converging
/// within a handful of iterations; more available tables means more
/// clusters and a better final V-score (K5 best, K1 worst).
pub fn fig7() -> Result<Vec<ShapeCheck>> {
    banner("Figure 7: KMeans V-measure regret under MAT budgets (IIsy backend)");
    let options = CompilerOptions {
        bo_budget: 6, // the paper's Figure 7 shows 6 iterations
        doe_samples: 3,
        train_epochs: 10,
        final_epochs: 10,
        sample_cap: Some(2_000),
        ..experiment_options(17)
    };

    let mut finals = Vec::new();
    for mats in 1..=5usize {
        let model = ModelSpec::builder(format!("kmeans{mats}"))
            .optimization_metric(Metric::VMeasure)
            .data(tc_dataset(11))
            .build()?;
        let mut platform = Platform::tofino();
        platform.constraints_mut().mats(mats);
        platform.schedule(model)?;
        let artifact = generate_with(&platform, &options)?;
        let best = artifact.best();
        let series = best.history.objective_series();
        print!("KMeans{mats} (budget {mats} MATs): ");
        for v in &series {
            match v {
                Some(v) => print!("{v:.3} "),
                None => print!("— "),
            }
        }
        println!(
            " -> best {:.3} with k={} |{}",
            best.objective,
            best.configuration.integer("k").unwrap_or(0),
            bar(best.objective, 1.0, 30)
        );
        finals.push(best.objective);
    }

    banner("shape checks");
    Ok(vec![
        ShapeCheck {
            id: "fig7.more_mats",
            claim: "more MATs => higher final V-score (K5 >= K3 >= K1)",
            measured: format!("{:.3} >= {:.3} >= {:.3}", finals[4], finals[2], finals[0]),
            reference: "K5 best, K1 worst".into(),
            holds: finals[4] >= finals[2] && finals[2] >= finals[0],
        },
        ShapeCheck {
            id: "fig7.k1_degenerate",
            claim: "K1 is degenerate (single cluster, V ~ 0)",
            measured: format!("{:.3} < 0.1", finals[0]),
            reference: "V ~ 0".into(),
            holds: finals[0] < 0.1,
        },
    ])
}

fn humanize_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1} ms", ns / 1e6)
    } else {
        format!("{:.1} s", ns / 1e9)
    }
}

/// A point on a reaction-time curve: quality after observing a prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReactionPoint {
    /// Packets of each flow observed before predicting.
    packets_seen: usize,
    /// F1 at that horizon.
    f1: f64,
    /// Reaction time in nanoseconds: time until the verdict for the
    /// `packets_seen`-th packet is available.
    reaction_time_ns: f64,
}

/// Builds the reaction-time curve of the paper's §5.1.1 argument: how
/// classification quality grows as more packets (and thus fuller partial
/// histograms) are observed, and what that costs in reaction time.
///
/// `evaluate` maps a packets-seen horizon to `(y_true, y_pred)` vectors;
/// `mean_inter_packet_gap_ns` converts horizons to waiting time.
///
/// # Errors
///
/// Fails on empty horizons or evaluation outputs.
fn reaction_time_curve<F>(
    horizons: &[usize],
    mean_inter_packet_gap_ns: f64,
    pipeline_latency_ns: f64,
    mut evaluate: F,
) -> Result<Vec<ReactionPoint>>
where
    F: FnMut(usize) -> (Vec<usize>, Vec<usize>),
{
    if horizons.is_empty() {
        return Err("no horizons".into());
    }
    horizons
        .iter()
        .map(|&packets_seen| {
            let (y_true, y_pred) = evaluate(packets_seen);
            if y_true.is_empty() {
                return Err("empty evaluation".into());
            }
            Ok(ReactionPoint {
                packets_seen,
                f1: f1_binary(&y_true, &y_pred)?,
                reaction_time_ns: packets_seen.saturating_sub(1) as f64 * mean_inter_packet_gap_ns
                    + pipeline_latency_ns,
            })
        })
        .collect()
}

/// §5.1.1/§5.1.2: Homunculus and reaction time.
///
/// FlowLens aggregates flowmarkers "for up to 3,600 seconds before making
/// a prediction"; the Homunculus per-packet model predicts on *partial*
/// histograms after every packet, shrinking the reaction time "from
/// 3,600 seconds to a few hundred nanoseconds" while the 30-bin marker
/// also cuts per-flow memory 5x.
pub fn reaction_time() -> Result<Vec<ShapeCheck>> {
    banner("Reaction time: per-packet partial histograms vs full-flow markers");
    let config = FlowmarkerConfig::paper_reduced();
    let (train_flows, test_flows) = bd_flows(7);

    // Train on full flow-level histograms (the paper's protocol).
    let artifact = compile_on_taurus(
        "bd_reaction",
        Application::Bd.metric(),
        flowmarker_dataset(&train_flows, config),
        &experiment_options(3),
    )?;
    let best = artifact.best();
    let net = mlp_from_ir(&best.ir);

    // Timing from the 16x16 grid's estimate at 1 GHz.
    let timing = TaurusTarget::new(16, 16).estimate(&best.ir)?.performance;
    println!(
        "pipeline: {} params, latency {:.0} ns, {} GPkt/s",
        best.ir.param_count(),
        timing.latency_ns,
        timing.throughput_gpps
    );

    let gaps: Vec<f64> = test_flows
        .iter()
        .flat_map(|f| f.packets.windows(2))
        .map(|w| (w[1].timestamp_ns - w[0].timestamp_ns) as f64)
        .collect();
    let mean_gap_ns = gaps.iter().sum::<f64>() / (gaps.len() as f64).max(1.0);

    println!("\npackets-seen  F1(partial)  reaction-time");
    let points = reaction_time_curve(&BD_HORIZONS, mean_gap_ns, timing.latency_ns, |seen| {
        let partial = partial_histogram_dataset(&test_flows, config, seen);
        let normalized = partial.normalized(&best.normalizer).expect("same schema");
        let pred: Vec<usize> = (0..normalized.len())
            .map(|i| net.predict_row(normalized.features().row(i)).unwrap())
            .collect();
        (normalized.labels().to_vec(), pred)
    })?;
    for p in &points {
        println!(
            "{:>11}  {:>10.4}  {}",
            p.packets_seen,
            p.f1,
            humanize_ns(p.reaction_time_ns)
        );
    }

    banner("shape checks");
    let verdict_ns = timing.latency_ns;
    println!(
        "vs FlowLens flow-level wait: {:.0} s -> speedup ~{:.1e}x",
        paper::FLOWLENS_WAIT_SECONDS,
        paper::FLOWLENS_WAIT_SECONDS * 1e9 / verdict_ns
    );
    let reduction = 151 / config.total_bins();
    let (first, last) = (points[0].f1, points[points.len() - 1].f1);
    Ok(vec![
        ShapeCheck {
            id: "reaction_time.verdict_ns",
            claim: "per-packet verdict in a few hundred ns",
            measured: format!("{verdict_ns:.0} ns"),
            reference: "< 1000 ns".into(),
            holds: verdict_ns < 1_000.0,
        },
        ShapeCheck {
            id: "reaction_time.memory",
            claim: "flowmarker memory reduction (bins vs 151)",
            measured: format!("{} bins -> {reduction}x", config.total_bins()),
            reference: format!("{}x", paper::FLOWMARKER_REDUCTION),
            holds: reduction == paper::FLOWMARKER_REDUCTION,
        },
        ShapeCheck {
            id: "reaction_time.f1_grows",
            claim: "F1 grows with packets seen",
            measured: format!("{first:.3} -> {last:.3}"),
            reference: "rises with packets seen".into(),
            holds: last >= first,
        },
    ])
}

/// Ablation: Bayesian-optimization DSE vs pure random search.
///
/// The BO-guided search is the design choice behind the optimization
/// core (§3.2.3); this ablation quantifies it. Both searchers get the
/// *same* evaluation budget on the same AD task; BO should find better
/// feasible configurations, and with fewer infeasible probes, than
/// uniform random sampling ("random search" is an all-DOE run: every
/// sample uniform random).
pub fn ablation_bo() -> Result<Vec<ShapeCheck>> {
    banner("Ablation: BO-guided DSE vs uniform random search (same budget)");
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12}",
        "seed", "BO F1", "rand F1", "BO feas%", "rand feas%"
    );
    let run = |doe: usize, seed: u64| -> Result<(f64, f64)> {
        let options = CompilerOptions {
            bo_budget: 16,
            doe_samples: doe,
            train_epochs: 30,
            final_epochs: 60,
            sample_cap: Some(2_000),
            ..experiment_options(seed)
        };
        let metric = Application::Ad.metric();
        let artifact = compile_on_taurus("ablation_ad", metric, ad_dataset(42), &options)?;
        let best = artifact.best();
        Ok((best.objective, best.history.feasible_fraction()))
    };
    let seeds = [1u64, 2, 3];
    let (mut bo_wins, mut bo_total, mut rand_total) = (0, 0.0, 0.0);
    for &seed in &seeds {
        let (bo_f1, bo_feas) = run(4, seed)?;
        let (rand_f1, rand_feas) = run(16, seed)?;
        println!(
            "{seed:<8} {:>10.4} {:>10.4} {:>12.2} {:>12.2}",
            bo_f1, rand_f1, bo_feas, rand_feas
        );
        if bo_f1 >= rand_f1 {
            bo_wins += 1;
        }
        bo_total += bo_f1;
        rand_total += rand_f1;
    }

    banner("shape checks");
    let n = seeds.len();
    Ok(vec![ShapeCheck {
        id: "ablation_bo.majority",
        claim: "BO wins or ties on a majority of seeds",
        measured: format!(
            "{bo_wins}/{n} (mean {:.4} vs {:.4})",
            bo_total / n as f64,
            rand_total / n as f64
        ),
        reference: "BO beats random search".into(),
        holds: 2 * bo_wins > n,
    }])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaction_curve_improves_with_horizon() {
        // Simulated: more packets seen => better predictions.
        let points = reaction_time_curve(&[1, 5, 25], 1000.0, 100.0, |seen| {
            let quality = (seen as f64 / 25.0).min(1.0);
            let n = 100;
            let y_true: Vec<usize> = (0..n).map(|i| i % 2).collect();
            let y_pred: Vec<usize> = (0..n)
                .map(|i| {
                    if (i as f64 / n as f64) < quality {
                        i % 2
                    } else {
                        1 - (i % 2)
                    }
                })
                .collect();
            (y_true, y_pred)
        })
        .unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[2].f1 > points[0].f1);
        // Reaction time grows linearly with packets waited.
        assert_eq!(points[0].reaction_time_ns, 100.0);
        assert_eq!(points[1].reaction_time_ns, 4.0 * 1000.0 + 100.0);
    }

    #[test]
    fn reaction_curve_rejects_empty() {
        assert!(reaction_time_curve(&[], 1.0, 1.0, |_| (vec![], vec![])).is_err());
        assert!(reaction_time_curve(&[1], 1.0, 1.0, |_| (vec![], vec![])).is_err());
    }
}
