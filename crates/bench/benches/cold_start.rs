//! Cold-start benchmark: how fast does a deployment come back from disk?
//!
//! `ShardedDeployment::open` of a churned 1-shard deployment — the
//! manifest's snapshot set (meta file + edge slice) recomposed into the
//! CSR, plus replay of 2k committed WAL ops: the real crash-recovery path.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::churn::{apply_churn, churn_stream};
use datagen::dataset::DatasetSpec;
use sgq::ShardedDeployment;
use std::hint::black_box;

fn bench_cold_start(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("semkg_cold_start_{}", std::process::id()));
    let ds = DatasetSpec::dbpedia_like(1.0).build();
    let deploy_dir = dir.join("deployment");
    let deployment = ShardedDeployment::create(
        &deploy_dir,
        ds.graph.clone(),
        ds.oracle_space(),
        ds.library.clone(),
        1,
    )
    .unwrap();
    let ops = churn_stream(&ds, 2_000, 17);
    {
        let live = deployment.versioned();
        for (i, op) in ops.iter().enumerate() {
            apply_churn(live, op);
            if (i + 1).is_multiple_of(64) {
                live.commit();
            }
        }
        live.commit();
    }
    drop(deployment);

    let mut group = c.benchmark_group("cold_start");
    group.sample_size(10);
    group.bench_function("open_snapshot_plus_2k_op_wal", |b| {
        b.iter(|| {
            let d = ShardedDeployment::open(&deploy_dir).unwrap();
            black_box(d.versioned().epoch())
        })
    });
    group.finish();

    let reopened = ShardedDeployment::open(&deploy_dir).unwrap();
    println!(
        "wal replay: {} ops over {} epochs -> epoch {} ({} edges live)",
        reopened.recovery().ops_replayed,
        reopened.recovery().epochs_replayed,
        reopened.versioned().epoch(),
        kgraph::GraphView::edge_count(&reopened.versioned().snapshot()),
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_cold_start);
criterion_main!(benches);
