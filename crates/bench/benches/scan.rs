//! Scan-kernel before/after: the vocabulary-scale hot loops.
//!
//! Two measurements, each comparing [`sgq::ScanMode::ScalarReference`]
//! (the pre-kernel loops) against [`sgq::ScanMode::Kernel`] on the same
//! engine setup and workload, with answers asserted bit-identical first:
//!
//! * **seed scoring** — a vocabulary-scale hub workload (4k φ candidates ×
//!   degree 64 over ~133k distinct predicates, so each φ row is a ~1 MiB
//!   f64 / ~0.5 MiB f32 table, τ = 0.8) where ~3/4 of the candidates prune
//!   at the seed; reported as ns per candidate, the two-pass f32-prefilter's
//!   target;
//! * **expansion** — the same graph drained with τ = 0 and an unreachable
//!   k, so every source is popped and every adjacency edge weighted;
//!   reported as ns per examined edge (`QueryStats::edges_examined` is the
//!   exact denominator), the precomputed-`ln` lookup's target.
//!
//! The numbers land in `BENCH_scan.json` at the workspace root; there is
//! deliberately **no** hard speedup assert — CI runners jitter — only the
//! bit-identity asserts gate.

use criterion::{criterion_group, criterion_main, Criterion};
use kgraph::{GraphBuilder, KnowledgeGraph};
use lexicon::TransformationLibrary;
use serde::Serialize;
use sgq::{QueryGraph, ScanMode, SgqConfig, SgqEngine};
use std::hint::black_box;
use std::time::Instant;

const SOURCES: usize = 4_096;
const DEGREE: usize = 64;
/// Weight bands 30..95 (percent) — a source in band `w` only carries band-`w`
/// edges, so its seed bound `m(u)` is exactly `w/100` and τ = 0.8 prunes the
/// bands below 80.
const BANDS: usize = 65;
/// Distinct predicates per band. 65 × 2048 ≈ 133k predicates — a DBpedia-
/// scale vocabulary, so the φ rows the scans walk are ~1 MiB f64 / ~0.5 MiB
/// f32 tables that spill the private caches, not L1-resident toys. That is
/// the regime the kernels are built for: the f32 prefilter halves the row
/// traffic precisely when the row doesn't fit.
const PREDS_PER_BAND: usize = 2_048;

/// `n`'s bits choose the uppercase positions of `base` — distinct raw
/// names, one normalised φ key.
fn case_variant(base: &str, n: usize) -> String {
    base.chars()
        .enumerate()
        .map(|(i, c)| {
            if i < usize::BITS as usize && n & (1 << i) != 0 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

fn build_graph() -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    let goals: Vec<_> = (0..256)
        .map(|i| b.add_node(&format!("Goal_{i}"), "Goal"))
        .collect();
    for i in 0..SOURCES {
        let s = b.add_node(&case_variant("benchhubsourcecandidate", i), "Anchor");
        let w = 30 + (i % BANDS);
        for d in 0..DEGREE {
            // Pseudo-random walk over the band's predicates (17 is odd,
            // hence coprime to 2048, so the 64 picks are distinct) — the
            // row lookups are genuine gathers, not one hot entry.
            let j = (i * 31 + d * 17) % PREDS_PER_BAND;
            b.add_edge(
                s,
                goals[(i * DEGREE + d) % goals.len()],
                &format!("w{w}_{j}"),
            );
        }
    }
    let qa = b.add_node("DummyQA", "Dummy");
    let qb = b.add_node("DummyQB", "Dummy");
    b.add_edge(qa, qb, "q");
    b.finish()
}

fn space_for(graph: &KnowledgeGraph) -> embedding::PredicateSpace {
    let (vectors, labels): (Vec<Vec<f32>>, Vec<String>) = graph
        .predicates()
        .map(|(_, label)| {
            let sim: f32 = if label == "q" {
                1.0
            } else {
                label
                    .strip_prefix('w')
                    .and_then(|s| s.split('_').next())
                    .and_then(|s| s.parse::<f32>().ok())
                    .map_or(0.0, |p| p / 100.0)
            };
            (vec![sim, (1.0 - sim * sim).max(0.0).sqrt()], label.into())
        })
        .unzip();
    embedding::PredicateSpace::from_raw(vectors, labels)
}

fn query() -> QueryGraph {
    let mut q = QueryGraph::new();
    let goal = q.add_target("Goal");
    let anchor = q.add_specific("benchhubsourcecandidate", "Anchor");
    q.add_edge(goal, "q", anchor);
    q
}

fn config(scan: ScanMode, tau: f64, k: usize) -> SgqConfig {
    SgqConfig {
        k,
        tau,
        n_hat: 1,
        workers: 8,
        scan,
        ..SgqConfig::default()
    }
}

#[derive(Serialize)]
struct PairReport {
    unit: &'static str,
    scalar_reference: f64,
    kernel: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct TracingReport {
    unit: &'static str,
    tracing_off: f64,
    tracing_on: f64,
    /// `tracing_on / tracing_off` — what sampling every query costs.
    overhead_ratio: f64,
}

#[derive(Serialize)]
struct ScanReport {
    bench: &'static str,
    sources: usize,
    degree: usize,
    seed_scoring: PairReport,
    expansion: PairReport,
    tracing: TracingReport,
}

/// Median-of-rounds wall time per execution, in nanoseconds.
fn time_per_exec(run: &dyn Fn() -> usize, rounds: usize) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            black_box(run());
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_scan(c: &mut Criterion) {
    let graph = build_graph();
    let space = space_for(&graph);
    let library = TransformationLibrary::new();
    let q = query();

    // --- Seed scoring: τ = 0.8 prunes ~3/4 of the candidates at the seed.
    let scalar = SgqEngine::new(
        &graph,
        &space,
        &library,
        config(ScanMode::ScalarReference, 0.8, 10),
    );
    let kernel = SgqEngine::new(&graph, &space, &library, config(ScanMode::Kernel, 0.8, 10));
    let scalar_prep = scalar.prepare(&q).expect("prepares");
    let kernel_prep = kernel.prepare(&q).expect("prepares");
    let reference = scalar.execute(&scalar_prep).expect("reference");
    let kernel_ref = kernel.execute(&kernel_prep).expect("kernel");
    assert!(!reference.matches.is_empty());
    assert_eq!(
        kernel_ref.matches, reference.matches,
        "kernel answers must stay bit-identical"
    );
    assert_eq!(kernel_ref.stats.tau_pruned, reference.stats.tau_pruned);

    let mut group = c.benchmark_group("scan_kernels");
    group.sample_size(10);
    group.bench_function("seed_scalar_reference", |b| {
        b.iter(|| scalar.execute(&scalar_prep).expect("answers").matches.len())
    });
    group.bench_function("seed_kernel", |b| {
        b.iter(|| kernel.execute(&kernel_prep).expect("answers").matches.len())
    });

    let seed_rounds = 40;
    let scalar_seed_ns = time_per_exec(
        &|| scalar.execute(&scalar_prep).expect("answers").matches.len(),
        seed_rounds,
    ) / SOURCES as f64;
    let kernel_seed_ns = time_per_exec(
        &|| kernel.execute(&kernel_prep).expect("answers").matches.len(),
        seed_rounds,
    ) / SOURCES as f64;

    // --- Expansion: τ = 0 and an unreachable k drain the whole space, so
    // every source pops and every adjacency edge is weighted; the kernel
    // seed prefilter is bypassed (τ = 0) and the measured difference is the
    // per-edge `ln` lookup.
    let scalar_drain = SgqEngine::new(
        &graph,
        &space,
        &library,
        config(ScanMode::ScalarReference, 0.0, 100_000),
    );
    let kernel_drain = SgqEngine::new(
        &graph,
        &space,
        &library,
        config(ScanMode::Kernel, 0.0, 100_000),
    );
    let scalar_drain_prep = scalar_drain.prepare(&q).expect("prepares");
    let kernel_drain_prep = kernel_drain.prepare(&q).expect("prepares");
    let drain_ref = scalar_drain.execute(&scalar_drain_prep).expect("drain");
    let drain_kernel = kernel_drain.execute(&kernel_drain_prep).expect("drain");
    assert_eq!(drain_kernel.matches, drain_ref.matches);
    assert_eq!(
        drain_kernel.stats.edges_examined,
        drain_ref.stats.edges_examined
    );
    let edges = drain_ref.stats.edges_examined;
    assert!(
        edges >= SOURCES * DEGREE,
        "drain must examine the hub fan-out"
    );

    group.bench_function("expand_scalar_reference", |b| {
        b.iter(|| {
            scalar_drain
                .execute(&scalar_drain_prep)
                .expect("answers")
                .stats
                .edges_examined
        })
    });
    group.bench_function("expand_kernel", |b| {
        b.iter(|| {
            kernel_drain
                .execute(&kernel_drain_prep)
                .expect("answers")
                .stats
                .edges_examined
        })
    });
    group.finish();

    let drain_rounds = 20;
    let scalar_edge_ns = time_per_exec(
        &|| {
            scalar_drain
                .execute(&scalar_drain_prep)
                .expect("answers")
                .stats
                .edges_examined
        },
        drain_rounds,
    ) / edges as f64;
    let kernel_edge_ns = time_per_exec(
        &|| {
            kernel_drain
                .execute(&kernel_drain_prep)
                .expect("answers")
                .stats
                .edges_examined
        },
        drain_rounds,
    ) / edges as f64;

    // --- Tracing overhead: the same seed workload with phase tracing off
    // (the default `execute` of the `kernel` engine above) vs tracing every
    // execution (`execute_with_trace`, what 1-in-1 sampling runs). The off
    // path adds one branch per phase and must not regress; the on path pays
    // the clock reads, bounded loosely because the point of sampling is
    // that nobody runs it at 1-in-1 in production.
    let (traced_ref, trace) = kernel.execute_with_trace(&kernel_prep).expect("traced");
    assert_eq!(
        traced_ref.matches, reference.matches,
        "traced answers must stay bit-identical"
    );
    assert!(trace.total_ns > 0, "a traced execution records its phases");
    let off_exec_ns = time_per_exec(
        &|| kernel.execute(&kernel_prep).expect("answers").matches.len(),
        seed_rounds,
    );
    let on_exec_ns = time_per_exec(
        &|| {
            let (result, _) = kernel.execute_with_trace(&kernel_prep).expect("answers");
            result.matches.len()
        },
        seed_rounds,
    );
    // Hard gate: a tracing-off execution costing more than 2x a fully
    // traced one means the "free when off" claim broke — the off path
    // started doing tracing work.
    assert!(
        off_exec_ns <= 2.0 * on_exec_ns,
        "tracing-off path ({off_exec_ns:.0} ns/exec) regressed past 2x the traced path \
         ({on_exec_ns:.0} ns/exec) — the untraced hot path must stay allocation- and clock-free"
    );
    if on_exec_ns > 1.5 * off_exec_ns {
        println!(
            "  WARNING: 1-in-1 tracing costs {:.2}x the untraced path on this run/host",
            on_exec_ns / off_exec_ns
        );
    }

    let report = ScanReport {
        bench: "scan",
        sources: SOURCES,
        degree: DEGREE,
        seed_scoring: PairReport {
            unit: "ns_per_candidate",
            scalar_reference: scalar_seed_ns,
            kernel: kernel_seed_ns,
            speedup: scalar_seed_ns / kernel_seed_ns,
        },
        expansion: PairReport {
            unit: "ns_per_edge",
            scalar_reference: scalar_edge_ns,
            kernel: kernel_edge_ns,
            speedup: scalar_edge_ns / kernel_edge_ns,
        },
        tracing: TracingReport {
            unit: "ns_per_exec",
            tracing_off: off_exec_ns,
            tracing_on: on_exec_ns,
            overhead_ratio: on_exec_ns / off_exec_ns,
        },
    };
    println!(
        "\nscan kernels ({SOURCES} φ candidates × degree {DEGREE}):\n  seed scoring   scalar \
         {scalar_seed_ns:>7.1} ns/cand | kernel {kernel_seed_ns:>7.1} ns/cand | {:.2}x\n  \
         expansion      scalar {scalar_edge_ns:>7.1} ns/edge | kernel {kernel_edge_ns:>7.1} \
         ns/edge | {:.2}x\n  tracing        off {off_exec_ns:>7.0} ns/exec | \
         1-in-1 {on_exec_ns:>7.0} ns/exec | {:.2}x overhead",
        report.seed_scoring.speedup, report.expansion.speedup, report.tracing.overhead_ratio,
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
    // Cross-run check against the committed numbers (different host,
    // different load — a warning, never a gate; the in-process 2x assert
    // above is the gate).
    if let Ok(prev) = std::fs::read_to_string(out) {
        let prev_kernel_ns = serde_json::parse_value(&prev).ok().and_then(|v| {
            match v.get_field("seed_scoring")?.get_field("kernel")? {
                serde::Value::Float(f) => Some(*f),
                serde::Value::UInt(u) => Some(*u as f64),
                serde::Value::Int(i) => Some(*i as f64),
                _ => None,
            }
        });
        if let Some(prev_ns) = prev_kernel_ns {
            if kernel_seed_ns > 1.5 * prev_ns {
                println!(
                    "  WARNING: seed kernel {kernel_seed_ns:.1} ns/cand vs {prev_ns:.1} in the \
                     committed BENCH_scan.json (>1.5x — check for a tracing-off regression)"
                );
            }
        }
    }
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(out, json + "\n").expect("BENCH_scan.json written");
    println!("wrote {out}");
}

criterion_group!(benches, bench_scan);
criterion_main!(benches);
