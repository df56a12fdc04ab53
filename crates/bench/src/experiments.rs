//! One function per paper table/figure; [`EXPERIMENTS`] is the index.
//!
//! Every experiment prints the same rows/series the paper reports. Absolute
//! response times differ from the paper (different hardware, synthetic
//! substrate); the comparisons — who wins, by what factor, where the trends
//! bend — are the reproduction target.

use crate::table::{cell, render};
use baselines::{all_baselines, GraphQueryMethod};
use datagen::annotate::{simulated_pcc, RankedAnswer, UserStudyConfig};
use datagen::dataset::{BenchDataset, DatasetSpec};
use datagen::metrics::EffReport;
use datagen::noise::{add_edge_noise, add_node_noise};
use datagen::workload::{chain_query, produced_workload, q117_variants, soccer_query, BenchQuery};
use embedding::{train, PredicateSpace, TrainConfig};
use kgraph::{GraphStats, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rustc_hash::FxHashMap;
use sgq::{PivotStrategy, QueryGraph, SgqConfig, SgqEngine, TimeBoundConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Registry of experiment ids with the paper artefact they regenerate.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "table1",
        "Table I — P/R of all methods on Q117's four query graphs",
    ),
    (
        "table2",
        "Table II — feature matrix of the compared methods",
    ),
    (
        "fig12",
        "Fig. 12 — effectiveness & efficiency vs top-k (DBpedia-like)",
    ),
    (
        "fig13",
        "Fig. 13 — effectiveness & efficiency vs top-k (Freebase-like)",
    ),
    (
        "fig14",
        "Fig. 14 — effectiveness & efficiency vs top-k (YAGO2-like)",
    ),
    (
        "fig15",
        "Fig. 15 — TBQ accuracy/SRT vs time bound (k = 100)",
    ),
    (
        "table5",
        "Table V — forced pivot v1 vs v2 on the Fig. 16 complex query",
    ),
    ("table6", "Table VI — minCost vs Random pivot selection"),
    (
        "table7",
        "Table VII — PCC of the simulated user study (20 queries)",
    ),
    (
        "fig17",
        "Fig. 17 + Table VIII — robustness to node/edge noise",
    ),
    (
        "table9",
        "Table IX — scalability: online SRT + offline embedding cost",
    ),
    ("table10", "Table X — sensitivity to n̂ and τ (k = 100)"),
];

/// Runs one experiment by id; `None` for an unknown id. `scale` multiplies
/// dataset cardinalities (1.0 is the default size).
pub fn run_experiment(name: &str, scale: f64) -> Option<String> {
    Some(match name {
        "table1" => table1(scale),
        "table2" => table2(),
        "fig12" => fig_topk(
            DatasetSpec::dbpedia_like(3.0 * scale),
            "Fig. 12 (DBpedia-like)",
        ),
        "fig13" => fig_topk(
            DatasetSpec::freebase_like(3.0 * scale),
            "Fig. 13 (Freebase-like)",
        ),
        "fig14" => fig_topk(DatasetSpec::yago2_like(3.0 * scale), "Fig. 14 (YAGO2-like)"),
        "fig15" => fig15(scale),
        "table5" => table5(scale),
        "table6" => table6(scale),
        "table7" => table7(scale),
        "fig17" => fig17(scale),
        "table9" => table9(scale),
        "table10" => table10(scale),
        _ => return None,
    })
}

// ---------------------------------------------------------------- helpers

struct Ctx {
    ds: BenchDataset,
    space: PredicateSpace,
}

impl Ctx {
    fn new(spec: DatasetSpec) -> Self {
        let ds = spec.build();
        let space = ds.oracle_space();
        Self { ds, space }
    }

    fn engine(&self, cfg: SgqConfig) -> SgqEngine<'_> {
        SgqEngine::new(&self.ds.graph, &self.space, &self.ds.library, cfg)
    }
}

fn sgq_cfg(k: usize) -> SgqConfig {
    SgqConfig {
        k,
        tau: 0.8,
        n_hat: 4,
        ..SgqConfig::default()
    }
}

/// Runs SGQ, returning (answers, elapsed ms, ranked answers for the study).
/// Answers are the bindings of the query's designated answer node, which
/// equals the pivot matches whenever the decomposition pivots there.
fn run_sgq(engine: &SgqEngine<'_>, q: &BenchQuery) -> (Vec<NodeId>, f64, Vec<RankedAnswer>) {
    let t0 = Instant::now();
    let result = engine.query(&q.graph).unwrap_or_default_result();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let ranked = result
        .matches
        .iter()
        .map(|m| RankedAnswer {
            node: m.pivot,
            score: m.score,
        })
        .collect();
    let mut answers = result.bindings_for(sgq::QNodeId(q.answer_node));
    answers.truncate(engine.config().k);
    (answers, ms, ranked)
}

/// Runs TBQ with an absolute bound, returning (answers, elapsed ms).
fn run_tbq(engine: &SgqEngine<'_>, q: &BenchQuery, bound: Duration) -> (Vec<NodeId>, f64) {
    let tb = TimeBoundConfig::with_bound(bound);
    let t0 = Instant::now();
    let result = engine
        .query_time_bounded(&q.graph, &tb)
        .unwrap_or_default_result();
    let mut answers = result.bindings_for(sgq::QNodeId(q.answer_node));
    answers.truncate(engine.config().k);
    (answers, t0.elapsed().as_secs_f64() * 1e3)
}

/// Runs a baseline method, returning (answers, elapsed ms).
fn run_method(m: &dyn GraphQueryMethod, ctx: &Ctx, q: &BenchQuery, k: usize) -> (Vec<NodeId>, f64) {
    let t0 = Instant::now();
    let answers = m.query(&ctx.ds.graph, &ctx.ds.library, &q.graph, k);
    (
        answers.into_iter().map(|a| a.node).collect(),
        t0.elapsed().as_secs_f64() * 1e3,
    )
}

trait OrDefaultResult {
    fn unwrap_or_default_result(self) -> sgq::QueryResult;
}
impl OrDefaultResult for sgq::Result<sgq::QueryResult> {
    fn unwrap_or_default_result(self) -> sgq::QueryResult {
        self.unwrap_or_default()
    }
}

// ----------------------------------------------------------------- tables

/// Table I + the §VII-B schema listing.
fn table1(scale: f64) -> String {
    let ctx = Ctx::new(DatasetSpec::dbpedia_like(3.0 * scale));
    let country = "Germany";
    let variants = q117_variants(&ctx.ds, country);
    let k = variants[0].truth.len();
    let methods = all_baselines();

    let mut rows = Vec::new();
    for m in &methods {
        let mut row = vec![m.name().to_string()];
        for q in &variants {
            let (answers, _) = run_method(m.as_ref(), &ctx, q, k);
            if answers.is_empty() {
                row.push("–".into());
                row.push("–".into());
            } else {
                let (p, r) = datagen::metrics::precision_recall(&answers, &q.truth);
                row.push(cell(p));
                row.push(cell(r));
            }
        }
        rows.push(row);
    }
    // Ours (SGQ).
    let engine = ctx.engine(sgq_cfg(k));
    let mut row = vec!["Ours (SGQ)".to_string()];
    let mut schemas: FxHashMap<String, usize> = FxHashMap::default();
    for q in &variants {
        let (answers, _, _) = run_sgq(&engine, q);
        let (p, r) = datagen::metrics::precision_recall(&answers, &q.truth);
        row.push(cell(p));
        row.push(cell(r));
        // Collect the schemas SGQ matched (the §VII-B table).
        if let Ok(result) = engine.query(&q.graph) {
            for m in &result.matches {
                for part in &m.parts {
                    *schemas.entry(part.schema(&ctx.ds.graph)).or_insert(0) += 1;
                }
            }
        }
    }
    rows.push(row);

    let mut out = format!(
        "Table I — Q117 (\"cars produced in {country}\") over {}; top-k = {k} (validation-set size)\n\n",
        ctx.ds.name
    );
    out.push_str(&render(
        &[
            "Method", "G1 P", "G1 R", "G2 P", "G2 R", "G3 P", "G3 R", "G4 P", "G4 R",
        ],
        &rows,
    ));
    out.push_str("\n§VII-B — answer schemas found by SGQ (type-level, with counts):\n");
    let mut schema_rows: Vec<(String, usize)> = schemas.into_iter().collect();
    schema_rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (schema, n) in schema_rows.into_iter().take(12) {
        let _ = writeln!(out, "  {n:>5}  {schema}");
    }
    out
}

/// Table II: static feature matrix.
fn table2() -> String {
    let tick = |b: bool| if b { "yes" } else { "no" }.to_string();
    let mut rows: Vec<Vec<String>> = all_baselines()
        .iter()
        .map(|m| {
            let f = m.features();
            vec![
                m.name().to_string(),
                tick(f.node_similarity),
                tick(f.edge_to_path),
                tick(f.predicates),
                f.idea.to_string(),
            ]
        })
        .collect();
    rows.push(vec![
        "Ours (SGQ)".into(),
        "yes".into(),
        "yes".into(),
        "yes".into(),
        "semantic-guided graph query".into(),
    ]);
    format!(
        "Table II — feature comparison\n\n{}",
        render(
            &[
                "Method",
                "Node similarity",
                "E-to-P mapping",
                "GQ w/ predicates",
                "Main idea"
            ],
            &rows,
        )
    )
}

/// Figs. 12–14: P/R/F1/time vs top-k for SGQ, TBQ-0.9 and four baselines.
fn fig_topk(spec: DatasetSpec, title: &str) -> String {
    let ctx = Ctx::new(spec);
    let workload = produced_workload(&ctx.ds);
    let ks = [20usize, 40, 100, 200];
    let methods = all_baselines();
    let shown: Vec<&str> = vec!["GraB", "S4", "QGA", "p-hom"];

    // method name → per-k mean report.
    let mut results: Vec<(String, Vec<EffReport>)> = Vec::new();
    for &k in &ks {
        let engine = ctx.engine(sgq_cfg(k));
        let mut sgq_reports = Vec::new();
        let mut tbq_reports = Vec::new();
        for q in &workload {
            let (answers, ms, _) = run_sgq(&engine, q);
            sgq_reports.push(EffReport::from_answers(&answers, &q.truth, ms));
            // TBQ-0.9: bound at 90% of SGQ's execution time for this query.
            let bound = Duration::from_secs_f64((ms * 0.9 / 1e3).max(1e-4));
            let (answers, tbq_ms) = run_tbq(&engine, q, bound);
            tbq_reports.push(EffReport::from_answers(&answers, &q.truth, tbq_ms));
        }
        upsert(&mut results, "TBQ-0.9", EffReport::mean(&tbq_reports));
        upsert(&mut results, "SGQ", EffReport::mean(&sgq_reports));
        for m in methods.iter().filter(|m| shown.contains(&m.name())) {
            let mut reports = Vec::new();
            for q in &workload {
                let (answers, ms) = run_method(m.as_ref(), &ctx, q, k);
                reports.push(EffReport::from_answers(&answers, &q.truth, ms));
            }
            upsert(&mut results, m.name(), EffReport::mean(&reports));
        }
    }

    let mut out = format!(
        "{title} — {} queries over {} ({})\n",
        workload.len(),
        ctx.ds.name,
        GraphStats::of(&ctx.ds.graph)
    );
    for (panel, extract) in [
        ("(a) Precision", 0usize),
        ("(b) Recall", 1),
        ("(c) F1-measure", 2),
        ("(d) Response time (ms)", 3),
    ] {
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|(name, per_k)| {
                let mut row = vec![name.clone()];
                for r in per_k {
                    row.push(match extract {
                        0 => cell(r.precision),
                        1 => cell(r.recall),
                        2 => cell(r.f1),
                        _ => format!("{:.2}", r.time_ms),
                    });
                }
                row
            })
            .collect();
        let _ = writeln!(out, "\n{panel} vs top-k:");
        out.push_str(&render(
            &["Method", "k=20", "k=40", "k=100", "k=200"],
            &rows,
        ));
    }
    out
}

fn upsert(results: &mut Vec<(String, Vec<EffReport>)>, name: &str, report: EffReport) {
    if let Some(entry) = results.iter_mut().find(|(n, _)| n == name) {
        entry.1.push(report);
    } else {
        results.push((name.to_string(), vec![report]));
    }
}

/// Fig. 15: TBQ effectiveness & SRT across time bounds, k = 100.
fn fig15(scale: f64) -> String {
    // A noise-heavy graph gives the anytime search a real frontier to chew
    // through; k = |validation set| so recall can climb as deeper paraphrase
    // schemas are reached with larger bounds.
    let mut spec = DatasetSpec::dbpedia_like(4.0 * scale);
    spec.noise_edges *= 8;
    spec.misc_entities *= 4;
    let ctx = Ctx::new(spec);
    let workload: Vec<BenchQuery> = produced_workload(&ctx.ds).into_iter().take(4).collect();

    // Reference: unbounded SGQ answers + times (τ permissive so the bound
    // actually bites; k covers the validation set).
    let mut engines = Vec::new();
    let mut sgq_ms = Vec::new();
    for q in &workload {
        let mut cfg = sgq_cfg(q.truth.len());
        cfg.tau = 0.1;
        let engine = ctx.engine(cfg);
        let (_, ms, _) = run_sgq(&engine, q);
        sgq_ms.push(ms);
        engines.push(engine);
    }
    let mean_ms = sgq_ms.iter().sum::<f64>() / sgq_ms.len() as f64;

    let fractions = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 1.0, 1.5, 2.5];
    let mut rows = Vec::new();
    for f in fractions {
        let bound = Duration::from_secs_f64((mean_ms * f / 1e3).max(5e-5));
        let bound_ms = bound.as_secs_f64() * 1e3;
        let mut reports = Vec::new();
        let (mut tmin, mut tmax) = (f64::INFINITY, 0f64);
        let mut over = 0;
        for (engine, q) in engines.iter().zip(&workload) {
            let (answers, ms) = run_tbq(engine, q, bound);
            reports.push(EffReport::from_answers(&answers, &q.truth, ms));
            tmin = tmin.min(ms);
            tmax = tmax.max(ms);
            over += usize::from(ms > bound_ms);
        }
        let mean = EffReport::mean(&reports);
        rows.push(vec![
            format!("{bound_ms:.2}"),
            cell(mean.precision),
            cell(mean.recall),
            cell(mean.f1),
            format!("{tmin:.2}"),
            format!("{:.2}", mean.time_ms),
            format!("{tmax:.2}"),
            format!("{over}/{}", reports.len()),
        ]);
    }
    format!(
        "Fig. 15 — TBQ vs time bound over {} (k = |validation set|, τ = 0.1; unbounded SGQ mean = {mean_ms:.2} ms; over bound = runs whose SRT exceeded the bound)\n\n{}",
        ctx.ds.name,
        render(
            &[
                "Bound (ms)",
                "P",
                "R",
                "F1",
                "min (ms)",
                "avg (ms)",
                "max (ms)",
                "over bound",
            ],
            &rows,
        )
    )
}

/// Table V: the Fig. 16 complex query under forced pivots v1 / v2.
fn table5(scale: f64) -> String {
    let mut spec = DatasetSpec::dbpedia_like(2.0 * scale);
    spec.players_per_club = (spec.players_per_club * 4).max(8);
    let ctx = Ctx::new(spec);
    let (q, v1, v2) = soccer_query(&ctx.ds, 5); // Spain + next country
    let truth_n = q.truth.len().max(1);
    let ks = [truth_n / 4, truth_n / 2, truth_n, truth_n * 3 / 2];

    let mut rows = Vec::new();
    for &k in &ks {
        let k = k.max(1);
        let mut row = vec![k.to_string()];
        for pivot in [v1, v2] {
            let mut cfg = sgq_cfg(k);
            cfg.pivot = PivotStrategy::Forced { node: pivot };
            let engine = ctx.engine(cfg);
            let t0 = Instant::now();
            let result = engine.query(&q.graph).unwrap_or_default_result();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            // The asked-about entity is the Person target v1; with pivot v2
            // its matches are read from the final matches' bindings.
            let mut answers = result.bindings_for(sgq::QNodeId(v1));
            answers.truncate(k);
            let (p, r) = datagen::metrics::precision_recall(&answers, &q.truth);
            row.push(cell(p));
            row.push(cell(r));
            row.push(cell(datagen::metrics::f1_score(p, r)));
            row.push(format!("{ms:.2}"));
        }
        rows.push(row);
    }
    format!(
        "Table V — Fig. 16 complex query ({}), pivot v1 (Person) vs pivot v2 (SoccerClub); |truth| = {truth_n}\n\n{}",
        q.id,
        render(
            &["Top-k", "v1 P", "v1 R", "v1 F1", "v1 ms", "v2 P", "v2 R", "v2 F1", "v2 ms"],
            &rows,
        )
    )
}

/// Table VI: minCost vs Random pivot over query complexity classes.
fn table6(scale: f64) -> String {
    let mut spec = DatasetSpec::dbpedia_like(2.0 * scale);
    spec.players_per_club = (spec.players_per_club * 2).max(4);
    let ctx = Ctx::new(spec);
    let simple: Vec<BenchQuery> = produced_workload(&ctx.ds).into_iter().take(4).collect();
    let medium: Vec<BenchQuery> = (0..4).map(|i| chain_query(&ctx.ds, i)).collect();
    let complex: Vec<BenchQuery> = (0..4).map(|i| soccer_query(&ctx.ds, i).0).collect();

    let classes: [(&str, &[BenchQuery]); 3] = [
        ("Simple (1 sub-query)", &simple),
        ("Medium (2 sub-queries)", &medium),
        ("Complex (3 sub-queries)", &complex),
    ];
    let mut rows = Vec::new();
    for (label, queries) in classes {
        let mut row = vec![label.to_string()];
        for strategy in [PivotStrategy::MinCost, PivotStrategy::Random { seed: 7 }] {
            if label.starts_with("Simple") && matches!(strategy, PivotStrategy::Random { .. }) {
                // The paper skips Random for single-sub-query queries.
                row.push("–".into());
                row.push("–".into());
                continue;
            }
            let mut reports = Vec::new();
            for q in queries {
                let mut cfg = sgq_cfg(q.truth.len().max(1));
                cfg.pivot = strategy;
                let engine = ctx.engine(cfg);
                let (answers, ms, _) = run_sgq(&engine, q);
                reports.push(EffReport::from_answers(&answers, &q.truth, ms));
            }
            let mean = EffReport::mean(&reports);
            row.push(cell(mean.recall)); // k = |truth| ⇒ the paper's P=R column
            row.push(format!("{:.2}", mean.time_ms));
        }
        rows.push(row);
    }
    format!(
        "Table VI — pivot selection, k = |validation set| (paper reports P = R)\n\n{}",
        render(
            &[
                "Query type",
                "minCost P=R",
                "minCost ms",
                "Random P=R",
                "Random ms"
            ],
            &rows,
        )
    )
}

/// Table VII: simulated user study over 20 queries (6 D + 12 F + 2 Y).
fn table7(scale: f64) -> String {
    let contexts = [
        (
            "D",
            Ctx::new(DatasetSpec::dbpedia_like(2.0 * scale)),
            6usize,
        ),
        ("F", Ctx::new(DatasetSpec::freebase_like(2.0 * scale)), 12),
        ("Y", Ctx::new(DatasetSpec::yago2_like(2.0 * scale)), 2),
    ];
    let mut cells_out: Vec<(String, f64)> = Vec::new();
    for (tag, ctx, n) in &contexts {
        let workload = produced_workload(&ctx.ds);
        for (i, q) in workload.iter().take(*n).enumerate() {
            // k = validation-set size, as in the paper.
            let engine = ctx.engine(sgq_cfg(q.truth.len().max(1)));
            let (_, _, ranked) = run_sgq(&engine, q);
            let cfg = UserStudyConfig {
                seed: 0x5ED + i as u64,
                ..UserStudyConfig::default()
            };
            let pcc = simulated_pcc(&ranked, &q.truth, &cfg).unwrap_or(f64::NAN);
            cells_out.push((format!("{tag}{}", i + 1), pcc));
        }
    }
    let strong = cells_out.iter().filter(|(_, p)| *p >= 0.5).count();
    let medium = cells_out
        .iter()
        .filter(|(_, p)| (0.3..0.5).contains(p))
        .count();
    let rows: Vec<Vec<String>> = cells_out
        .chunks(4)
        .map(|chunk| {
            chunk
                .iter()
                .flat_map(|(q, p)| [q.clone(), cell(*p)])
                .collect()
        })
        .collect();
    format!(
        "Table VII — PCC of simulated annotators vs SGQ ranking (20 queries)\n\n{}\nStrong (≥0.5): {strong}/20 · Medium [0.3,0.5): {medium}/20\n",
        render(&["Query", "PCC", "Query", "PCC", "Query", "PCC", "Query", "PCC"], &rows)
    )
}

/// Fig. 17 + Table VIII: effectiveness and response time vs noise ratio.
fn fig17(scale: f64) -> String {
    let ctx = Ctx::new(DatasetSpec::dbpedia_like(3.0 * scale));
    let workload = produced_workload(&ctx.ds);
    let k = 100;
    let engine = ctx.engine(sgq_cfg(k));
    let ratios = [0.0, 0.1, 0.2, 0.3, 0.4];

    let run = |noisy_queries: &[(QueryGraph, &BenchQuery)]| -> EffReport {
        let reports: Vec<EffReport> = noisy_queries
            .iter()
            .map(|(g, q)| {
                let bq = BenchQuery {
                    graph: g.clone(),
                    ..(*q).clone()
                };
                let (answers, ms, _) = run_sgq(&engine, &bq);
                EffReport::from_answers(&answers, &q.truth, ms)
            })
            .collect();
        EffReport::mean(&reports)
    };

    let mut rows = Vec::new();
    for &ratio in &ratios {
        let noisy_count = (workload.len() as f64 * ratio).round() as usize;
        let mut per_kind = Vec::new();
        for kind in ["node", "edge"] {
            let mut rng = StdRng::seed_from_u64(0xF17 + (ratio * 100.0) as u64);
            let queries: Vec<(QueryGraph, &BenchQuery)> = workload
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let g = if i < noisy_count {
                        if kind == "node" {
                            add_node_noise(&q.graph, &ctx.ds.library, &mut rng)
                        } else {
                            add_edge_noise(&q.graph, &ctx.ds.graph, &ctx.space, &mut rng)
                        }
                    } else {
                        q.graph.clone()
                    };
                    (g, q)
                })
                .collect();
            per_kind.push(run(&queries));
        }
        rows.push(vec![
            format!("{:.0}%", ratio * 100.0),
            cell(per_kind[0].precision),
            cell(per_kind[0].recall),
            cell(per_kind[0].f1),
            format!("{:.2}", per_kind[0].time_ms),
            cell(per_kind[1].precision),
            cell(per_kind[1].recall),
            cell(per_kind[1].f1),
            format!("{:.2}", per_kind[1].time_ms),
        ]);
    }
    format!(
        "Fig. 17 + Table VIII — SGQ vs query noise over {} (k = {k})\n\n{}",
        ctx.ds.name,
        render(
            &[
                "Noise", "node P", "node R", "node F1", "node ms", "edge P", "edge R", "edge F1",
                "edge ms",
            ],
            &rows,
        )
    )
}

/// Table IX: online SRT across nested graph sizes + offline embedding cost.
fn table9(scale: f64) -> String {
    let mut rows = Vec::new();
    for (label, s) in [("G1", 1.0), ("G2", 2.0), ("G (full)", 4.0)] {
        let ctx = Ctx::new(DatasetSpec::dbpedia_like(s * scale.max(0.25) * 2.0));
        let stats = GraphStats::of(&ctx.ds.graph);
        let workload = produced_workload(&ctx.ds);
        let mut srt = Vec::new();
        for &k in &[80usize, 100, 120] {
            let engine = ctx.engine(sgq_cfg(k));
            let mut ms_sum = 0.0;
            for q in &workload {
                let (_, ms, _) = run_sgq(&engine, q);
                ms_sum += ms;
            }
            srt.push(ms_sum / workload.len() as f64);
        }
        // Offline: a real TransE run on this graph (small dim/epochs — the
        // paper's 100-dim / 50-iteration run is hardware-scaled).
        let cfg = TrainConfig {
            dim: 32,
            epochs: 10,
            ..TrainConfig::default()
        };
        let (_, report) = train(&ctx.ds.graph, &cfg);
        let params = (ctx.ds.graph.node_count() + ctx.ds.graph.predicate_count()) * cfg.dim;
        let mem_mb = params as f64 * 4.0 / 1e6;
        rows.push(vec![
            format!("{label} ({}, {})", stats.entities, stats.relations),
            format!("{:.2}", srt[0]),
            format!("{:.2}", srt[1]),
            format!("{:.2}", srt[2]),
            format!("{:.2}", report.seconds),
            format!("{mem_mb:.2}"),
        ]);
    }
    format!(
        "Table IX — scalability (nested DBpedia-like graphs)\n\n{}",
        render(
            &[
                "(#Nodes, #Edges)",
                "SGQ k=80 (ms)",
                "k=100 (ms)",
                "k=120 (ms)",
                "TransE offline (s)",
                "mem (MB)",
            ],
            &rows,
        )
    )
}

/// Table X: sensitivity to the desired path length n̂ and the threshold τ.
fn table10(scale: f64) -> String {
    // Scale chosen so k = 150 covers the validation sets — otherwise k caps
    // recall and hides the n̂ / τ effects (our per-query validation sets are
    // larger than QALD's).
    let ctx = Ctx::new(DatasetSpec::dbpedia_like(1.0 * scale));
    let workload = produced_workload(&ctx.ds);
    let k = 150;

    let run_with = |n_hat: usize, tau: f64| -> EffReport {
        let mut cfg = sgq_cfg(k);
        cfg.n_hat = n_hat;
        cfg.tau = tau;
        let engine = ctx.engine(cfg);
        let reports: Vec<EffReport> = workload
            .iter()
            .map(|q| {
                let (answers, ms, _) = run_sgq(&engine, q);
                EffReport::from_answers(&answers, &q.truth, ms)
            })
            .collect();
        EffReport::mean(&reports)
    };

    let mut rows = Vec::new();
    for n_hat in [2usize, 3, 4, 5] {
        let r = run_with(n_hat, 0.8);
        rows.push(vec![
            format!("n̂ = {n_hat} (τ = 0.8)"),
            cell(r.precision),
            cell(r.recall),
            cell(r.f1),
            format!("{:.2}", r.time_ms),
        ]);
    }
    for tau in [0.6, 0.7, 0.8, 0.9] {
        let r = run_with(4, tau);
        rows.push(vec![
            format!("τ = {tau} (n̂ = 4)"),
            cell(r.precision),
            cell(r.recall),
            cell(r.f1),
            format!("{:.2}", r.time_ms),
        ]);
    }
    format!(
        "Table X — parameter sensitivity over {} (k = {k} ≥ |validation set|)\n\n{}",
        ctx.ds.name,
        render(
            &["Setting", "Precision", "Recall", "F1", "Time (ms)"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_runner() {
        for (name, _) in EXPERIMENTS {
            // Tiny scale keeps this a smoke test; full scale runs in repro.
            if matches!(*name, "table2") {
                assert!(run_experiment(name, 0.1).is_some());
            }
        }
        assert!(run_experiment("nonsense", 1.0).is_none());
    }

    #[test]
    fn table2_lists_all_methods_plus_ours() {
        let out = table2();
        for m in [
            "gStore", "SLQ", "NeMa", "S4", "p-hom", "GraB", "QGA", "Ours",
        ] {
            assert!(out.contains(m), "missing {m} in:\n{out}");
        }
    }

    #[test]
    fn table1_smoke() {
        let out = run_experiment("table1", 0.15).unwrap();
        assert!(out.contains("Ours (SGQ)"));
        assert!(out.contains("Automobile–assembly–Germany"));
    }
}
