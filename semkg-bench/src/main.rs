//! `semkg-bench` — the end-to-end benchmark of the semkg serving path.
//!
//! ```text
//! semkg-bench --workload hit|miss|overload|churn [--seed N] [--seconds S] [--trace 0|1]
//!             [--dataset-seed N] [--request-seed N] [--churn-seed N]
//! ```
//!
//! One run generates its inputs from the seeds, stands up a 2-shard
//! `ShardedDeployment` → `LiveQueryService` → `server::serve` in-process,
//! drives one workload through a real TCP socket, checks the answers and
//! the request accounting, and prints every metric by name with its unit.
//! The last line of standard output is the JSON result.
//!
//! * `--trace 0` (default): the end-to-end metrics, tracing off.
//! * `--trace 1`: the per-layer breakdown. The workload's stream is
//!   replayed through the socket twice (tracing off, then on, giving the
//!   tracing overhead), through the scheduler in-process, and through the
//!   engine directly; the lanes' latencies subtract into layer overheads.
//!
//! See `README.md` beside this crate for why each workload exists and which
//! end-to-end metric each layer metric should move.

mod checks;
mod inputs;
mod lanes;
mod report;

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::{Histogram, HistogramSnapshot};
use semkg_server::server::{self, ServerConfig};
use semkg_server::{proto, Client, Request};
use sgq::sched::{BatchScheduler, SchedOutcome};
use sgq::{LiveQueryService, Priority, QueryResult, SgqConfig, ShardedDeployment};

use checks::{same_answer, Scrape};
use inputs::{Class, Inputs, Seeds, Shape, Stream, Workload, COMMITS_PER_SEC, OPS_PER_COMMIT};
use lanes::{drive, ns, warm_up, DirectLane, Recorder, SchedLane, SocketLane, Writer};
use report::{frac, median, quantile, Metrics};

const SHARDS: usize = 2;
/// The dataset is part of the benchmark's definition, like its scale: the
/// default seed is the dbpedia-like profile's own, and `--seed` varies the
/// traffic (request and churn streams). `--dataset-seed` varies the graph.
const DEFAULT_DATASET_SEED: u64 = 0xDB;
/// Set-up cycles per run; `setup_s` is their median.
const SETUPS: usize = 5;
const PINGS: usize = 200;
/// Repetitions of the fixed single-thread reference query.
const REFERENCE_RUNS: usize = 200;
/// Commits the traced run makes on workloads without a writer, so the
/// `live` and `kgraph` write-path metrics exist for every workload.
const PROBE_COMMITS: usize = 10;
/// Time bound of the TBQ probe: below the exact cost of the chain and
/// soccer queries (3–10 ms), above that of the Q117 ones (~0.2 ms).
const TBQ_PROBE_BOUND: Duration = Duration::from_millis(2);
/// Requests replayed through the wire codec for the `proto` metrics.
const CODEC_SAMPLES: usize = 4000;

struct Args {
    workload: Workload,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let (mut dataset, mut request, mut churn) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let int = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("--workload must be hit|miss|overload|churn, got {value}")
                })?);
            }
            "--seed" => seed = int(&value)?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            "--dataset-seed" => dataset = Some(int(&value)?),
            "--request-seed" => request = Some(int(&value)?),
            "--churn-seed" => churn = Some(int(&value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let derived = Seeds::derive(seed);
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seeds: Seeds {
            dataset: dataset.unwrap_or(DEFAULT_DATASET_SEED),
            request: request.unwrap_or(derived.request),
            churn: churn.unwrap_or(derived.churn),
        },
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("semkg-bench: {e}");
            std::process::exit(2);
        }
    };
    // Deployments live inside the working directory and are removed
    // afterwards, whatever the outcome.
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("semkg-bench: {e}");
            std::process::exit(1);
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Quantile `q` of a nanosecond histogram, interpolated, in µs.
fn us(snap: &HistogramSnapshot, q: f64) -> f64 {
    quantile(snap, q) / 1e3
}

struct Setup {
    deployment: ShardedDeployment,
    dir: PathBuf,
    setup_s: Vec<f64>,
    open_ms: Vec<f64>,
}

/// `SETUPS` cold set-ups, each in a fresh directory: create the deployment,
/// drop it, recover it with `open`, build the service and the server, and
/// stop the clock when the first ping answers. The last deployment is kept
/// for the run.
fn timed_setups(inputs: &Inputs, work: &Path) -> Result<Setup, String> {
    let mut setup_s = Vec::new();
    let mut open_ms = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let dir = work.join(format!("kg-{i}"));
        let graph = inputs.dataset.graph.clone();
        let space = inputs.space.clone();
        let library = inputs.dataset.library.clone();
        let started = Instant::now();
        drop(ShardedDeployment::create(&dir, graph, space, library, SHARDS).map_err(err)?);
        let opened = Instant::now();
        let deployment = ShardedDeployment::open(&dir).map_err(err)?;
        open_ms.push(opened.elapsed().as_secs_f64() * 1e3);
        let ready = {
            let service = deployment.service(SgqConfig::default());
            let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
            server::serve(
                listener,
                &service,
                sgq::SchedConfig::default(),
                ServerConfig::default(),
                &[],
                |h| -> Result<Duration, String> {
                    let mut client = Client::connect(h.addr()).map_err(err)?;
                    client.ping().map_err(err)?;
                    Ok(started.elapsed())
                },
            )
            .map_err(err)??
        };
        setup_s.push(ready.as_secs_f64());
        if i + 1 == SETUPS {
            kept = Some((deployment, dir));
        } else {
            drop(deployment);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (deployment, dir) = kept.ok_or("no set-up ran")?;
    Ok(Setup {
        deployment,
        dir,
        setup_s,
        open_ms,
    })
}

/// Single-thread direct timing of one fixed query: a same-run reference
/// that lets figures from different hosts be compared.
fn reference_us(service: &LiveQueryService<'_>, inputs: &Inputs) -> Result<f64, String> {
    let query = &inputs.pool[3].graph;
    let h = Histogram::detached();
    for _ in 0..REFERENCE_RUNS {
        let t = Instant::now();
        std::hint::black_box(service.query(query).map_err(err)?);
        h.record(ns(t.elapsed()));
    }
    Ok(us(&h.snapshot(), 0.5))
}

/// One measured pass of the workload through the socket.
struct SocketPass {
    rec: Recorder,
    delta: Scrape,
    ping_ns: HistogramSnapshot,
    /// Requests answered per second over the measured loop.
    qps: f64,
}

/// Which in-run exact answers are kept for the bit-identity check: about
/// 64 per run at each workload's rate. A writing workload is checked after
/// the run instead, when the epoch holds still.
fn sample_every(workload: Workload) -> u64 {
    match workload {
        Workload::Hit => 8192,
        Workload::Miss => 64,
        Workload::Overload => 128,
        Workload::Churn => u64::MAX,
    }
}

/// Stands up the server over `service`, warms it, and drives the workload
/// through the socket for `duration`; then checks accounting, lane
/// contract and bit-identity.
fn socket_pass(
    inputs: &Inputs,
    workload: Workload,
    service: &LiveQueryService<'_>,
    duration: Duration,
    writer: &Writer<'_>,
    failures: &mut Vec<String>,
) -> Result<SocketPass, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let registry = Arc::clone(service.registry());
    let queries = inputs.queries(workload);
    let (pass, found) = server::serve(
        listener,
        service,
        workload.sched_config(),
        ServerConfig::default(),
        &[registry],
        |h| -> Result<(SocketPass, Vec<String>), String> {
            let lane = SocketLane { addr: h.addr() };
            warm_up(&lane, queries)?;
            // Fresh control connections: the server closes one left idle
            // for its idle timeout, which a run may outlast.
            let control = || Client::connect(h.addr()).map_err(err);
            let mut client = control()?;
            let ping = Histogram::detached();
            for _ in 0..PINGS {
                let t = Instant::now();
                client.ping().map_err(err)?;
                ping.record(ns(t.elapsed()));
            }
            let before = Scrape::fetch(&mut client)?;
            drop(client);
            let rec = Recorder::new(sample_every(workload));
            let writes = workload.writes().then_some((writer, service));
            drive(
                &lane,
                workload,
                workload.shape(),
                inputs,
                duration,
                &rec,
                writes,
            )?;
            let qps = rec.answered_per_sec();
            let delta = Scrape::fetch(&mut control()?)?.since(&before);

            let mut found = Vec::new();
            checks::accounting(&rec, &delta, &mut found);
            checks::lane_contract(workload, &delta, &mut found);
            found.extend(
                rec.failures
                    .lock()
                    .expect("failure list poisoned")
                    .iter()
                    .cloned(),
            );
            let samples = std::mem::take(&mut *rec.samples.lock().expect("sample list poisoned"));
            let mut compared = 0usize;
            for (idx, got) in &samples {
                let want = service.query(&queries[*idx].graph).map_err(err)?;
                if !same_answer(got, &want) {
                    found.push(format!(
                        "in-run socket answer to query {idx} differs from direct"
                    ));
                }
                compared += 1;
            }
            // After the run the epoch holds still: a spread of the pool
            // through the socket must equal the direct answers.
            let stride = (queries.len() / 24).max(1);
            let mut client = control()?;
            for (idx, q) in queries.iter().enumerate().step_by(stride) {
                let got = client
                    .query(&q.graph, inputs::SLACK_DEADLINE, Priority::Normal)
                    .map_err(err)?;
                let want = service.query(&q.graph).map_err(err)?;
                match got {
                    semkg_server::WireOutcome::Exact(r) if same_answer(&r, &want) => {}
                    _ => found.push(format!(
                        "post-run socket answer to query {idx} differs from direct"
                    )),
                }
                compared += 1;
            }
            println!(
                "  checked {compared} socket answers bit-identical to LiveQueryService::query"
            );
            Ok((
                SocketPass {
                    rec,
                    delta,
                    ping_ns: ping.snapshot(),
                    qps,
                },
                found,
            ))
        },
    )
    .map_err(err)??;
    failures.extend(found);
    Ok(pass)
}

/// Drops the service and deployment, recovers with `open`, and checks the
/// recovered epoch and answers against the pre-shutdown ones.
fn durability(
    inputs: &Inputs,
    workload: Workload,
    dir: &Path,
    epoch: u64,
    before: &[QueryResult],
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let deployment = ShardedDeployment::open(dir).map_err(err)?;
    let recovered = deployment.recovery().recovered_epoch;
    if recovered != epoch || deployment.versioned().epoch() != epoch {
        failures.push(format!(
            "durability: recovered epoch {recovered}, last acknowledged {epoch}"
        ));
    }
    let service = deployment.service(SgqConfig::default());
    for (q, want) in inputs.queries(workload).iter().zip(before) {
        if !same_answer(&service.query(&q.graph).map_err(err)?, want) {
            failures.push("durability: a recovered answer differs from pre-shutdown".into());
            break;
        }
    }
    println!(
        "  durability: reopened at epoch {recovered} (acknowledged {epoch}), {} answers compared",
        before.len()
    );
    Ok(())
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let workload = args.workload;
    let duration = Duration::from_secs_f64(args.seconds);
    let (cores, cpu) = report::host();
    let commits = (args.seconds * COMMITS_PER_SEC).ceil() as usize + PROBE_COMMITS + 16;
    let inputs = Inputs::generate(args.seeds, commits * OPS_PER_COMMIT);
    println!(
        "semkg-bench workload={} trace={}",
        workload.name(),
        args.trace as u8
    );
    println!("  host: cores={cores} cpu=\"{cpu}\"");
    println!(
        "  inputs: dataset_seed={} request_seed={} churn_seed={} nodes={} edges={} pool={} queries",
        inputs.seeds.dataset,
        inputs.seeds.request,
        inputs.seeds.churn,
        kgraph::GraphView::node_count(&inputs.dataset.graph),
        kgraph::GraphView::edge_count(&inputs.dataset.graph),
        inputs.queries(workload).len(),
    );
    match workload.shape() {
        Shape::Closed { connections } => {
            println!(
                "  load: closed loop, {connections} connection(s), {:.1} s",
                args.seconds
            )
        }
        Shape::Open { rate } => println!(
            "  load: open loop, 1 connection, {rate} q/s offered, {:.1} s",
            args.seconds
        ),
    }

    let setup = timed_setups(&inputs, work)?;
    let writer = Writer::new(&inputs.churn);
    let mut failures = Vec::new();
    let ((metrics, attempted, failed, notes), final_state) = {
        let service = setup.deployment.service(SgqConfig::default());
        let reference = reference_us(&service, &inputs)?;
        let out = if args.trace {
            traced(
                &inputs,
                workload,
                &setup,
                &service,
                duration,
                &writer,
                reference,
                &mut failures,
            )?
        } else {
            untraced(
                &inputs,
                workload,
                &setup,
                &service,
                duration,
                &writer,
                reference,
                &mut failures,
            )?
        };
        let final_state = if workload.writes() {
            let before = inputs
                .queries(workload)
                .iter()
                .map(|q| service.query(&q.graph).map_err(err))
                .collect::<Result<Vec<_>, _>>()?;
            Some((service.versioned().epoch(), before))
        } else {
            None
        };
        (out, final_state)
    };
    let Setup {
        deployment, dir, ..
    } = setup;
    drop(deployment);
    if let Some((epoch, before)) = final_state {
        durability(&inputs, workload, &dir, epoch, &before, &mut failures)?;
    }

    println!("metrics:");
    metrics.print(&notes);
    for f in &failures {
        eprintln!("semkg-bench check FAILED: {f}");
    }
    println!(
        "  checks: {}",
        if failures.is_empty() {
            "all passed".to_string()
        } else {
            format!("{} FAILED", failures.len())
        }
    );
    Ok(report::result_line(
        failures.is_empty(),
        attempted,
        failed,
        &metrics,
    ))
}

type RunOut = (Metrics, u64, u64, Vec<(String, String)>);

/// The end-to-end metrics, tracing off.
#[allow(clippy::too_many_arguments)]
fn untraced(
    inputs: &Inputs,
    workload: Workload,
    setup: &Setup,
    service: &LiveQueryService<'_>,
    duration: Duration,
    writer: &Writer<'_>,
    reference: f64,
    failures: &mut Vec<String>,
) -> Result<RunOut, String> {
    let pass = socket_pass(inputs, workload, service, duration, writer, failures)?;
    let rec = &pass.rec;
    let load = Recorder::load;
    let sent = load(&rec.sent);
    let answered = load(&rec.exact) + load(&rec.degraded);
    let lat = rec.latency();
    let mut m = Metrics::default();
    m.add("setup_s", median(&setup.setup_s), "s");
    m.add("qps", pass.qps, "1/s");
    m.add("latency_p50_us", us(&lat, 0.5), "us");
    let notes = vec![
        (
            "setup_s".to_string(),
            format!("median of {SETUPS}: {:.4?}", setup.setup_s),
        ),
        (
            "qps".to_string(),
            format!("{answered} answered of {sent} sent"),
        ),
        ("latency_p50_us".to_string(), format!("n={}", lat.count())),
    ];
    // Too unsteady on a shared 2-core host to gate (see README): printed,
    // and reported by the traced run as `load.latency_p99_us`.
    println!(
        "  latency_p99_us = {:.4} us (n={}, {} beyond; not gated)",
        us(&lat, 0.99),
        lat.count(),
        lat.count() / 100
    );
    println!(
        "  requests: sent {sent}, exact {}, degraded {}, shed {}, failed {} (failed_frac {:.4})",
        load(&rec.exact),
        load(&rec.degraded),
        load(&rec.shed),
        load(&rec.failed),
        frac(load(&rec.failed), sent),
    );
    if let Shape::Open { .. } = workload.shape() {
        let late = rec.late_ns.snapshot();
        println!(
            "  overload: shed_frac {:.4}, deadline_met_frac {:.4} (answered within {} ms of due), \
             generator late p50 {:.1} us p99 {:.1} us (n={})",
            frac(load(&rec.shed), sent),
            frac(load(&rec.deadline_met), sent),
            workload.deadline().as_millis(),
            us(&late, 0.5),
            us(&late, 0.99),
            late.count(),
        );
    }
    if workload.writes() {
        let c = writer.commit_ns.snapshot();
        println!(
            "  churn: commit_p50_us {:.1}, commit_p99_us {:.1} (n={}), epoch adoption p50 {:.2} ms",
            us(&c, 0.5),
            us(&c, 0.99),
            c.count(),
            us(&writer.adopt_ns.snapshot(), 0.5) / 1e3,
        );
    }
    println!(
        "  reference: server.ping_rtt_us {:.2} (n={}), ref.direct_query_us {reference:.2} (n={REFERENCE_RUNS}), \
         answer-cache hit rate {:.4}",
        us(&pass.ping_ns, 0.5),
        pass.ping_ns.count(),
        pass.delta.cache_hit_rate(),
    );
    Ok((m, sent, load(&rec.failed), notes))
}

/// The per-layer breakdown: socket twice (tracing off, then on), then the
/// scheduled and direct lanes over the same stream, then codec, engine and
/// write-path probes.
#[allow(clippy::too_many_arguments)]
fn traced(
    inputs: &Inputs,
    workload: Workload,
    setup: &Setup,
    plain: &LiveQueryService<'_>,
    duration: Duration,
    writer: &Writer<'_>,
    reference: f64,
    failures: &mut Vec<String>,
) -> Result<RunOut, String> {
    let quarter = duration.div_f64(4.0);
    let queries = inputs.queries(workload);
    let writes = workload.writes();
    let untraced_pass = socket_pass(inputs, workload, plain, quarter, writer, failures)?;
    let service = setup.deployment.service(SgqConfig {
        trace_sample_every: 1,
        ..SgqConfig::default()
    });
    let pass = socket_pass(inputs, workload, &service, quarter, writer, failures)?;

    let sched_rec = BatchScheduler::serve(&service, workload.sched_config(), |h| {
        let lane = SchedLane { handle: h };
        warm_up(&lane, queries)?;
        let rec = Recorder::new(u64::MAX);
        let w = writes.then_some((writer, &service));
        drive(&lane, workload, workload.shape(), inputs, quarter, &rec, w)?;
        Ok::<_, String>(rec)
    })
    .map_err(err)??;

    let direct = DirectLane::new(&service);
    let direct_rec = Recorder::new(u64::MAX);
    let shape = match workload.shape() {
        Shape::Open { .. } => Shape::Closed { connections: 1 },
        closed => closed,
    };
    let w = writes.then_some((writer, &service));
    drive(&direct, workload, shape, inputs, quarter, &direct_rec, w)?;
    // Every class gets traces, whatever the workload's own stream holds.
    for q in &inputs.pool {
        let _ = lanes::Lane::send(
            &direct,
            &mut (),
            q,
            inputs::SLACK_DEADLINE,
            Priority::Normal,
        )?;
    }

    // Exact answers at the current epoch: the TBQ reference and the
    // replies the codec is timed on.
    let exact_of = |qs: &[inputs::PoolQuery]| {
        qs.iter()
            .map(|q| service.query(&q.graph).map_err(err))
            .collect::<Result<Vec<_>, _>>()
    };
    let exact = exact_of(queries)?;
    let pool_exact = exact_of(&inputs.pool)?;
    let overlap = |pivots: &[kgraph::NodeId], exact: &QueryResult| {
        let top = exact.answer_nodes();
        frac(
            pivots.iter().filter(|p| top.contains(p)).count() as u64,
            pivots.len() as u64,
        )
    };
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let degraded_overlap: Vec<f64> = pass
        .rec
        .degraded_pivots
        .lock()
        .expect("pivot list poisoned")
        .iter()
        .filter(|(_, pivots)| !pivots.is_empty())
        .map(|(idx, pivots)| overlap(pivots, &exact[*idx]))
        .collect();
    // TBQ probe: every pool query under a bound below the chain and soccer
    // queries' exact cost, so the timebound layer is measured on every
    // workload, not only where the scheduler degrades.
    let tb = sgq::TimeBoundConfig::with_bound(TBQ_PROBE_BOUND);
    let mut tbq_overlap = Vec::new();
    let mut bound_hits = 0u64;
    for (q, want) in inputs.pool.iter().zip(&pool_exact) {
        let got = service.query_time_bounded(&q.graph, &tb).map_err(err)?;
        bound_hits += u64::from(got.stats.time_bound_hit);
        if !got.matches.is_empty() {
            tbq_overlap.push(overlap(&got.answer_nodes(), want));
        }
    }

    // Wire codec: the server's decode and encode calls over the stream.
    let decode = Histogram::detached();
    let encode = Histogram::detached();
    let mut reply_bytes = 0u64;
    let mut stream = Stream::new(workload, inputs.seeds, 0, queries.len());
    for _ in 0..CODEC_SAMPLES {
        let (idx, priority) = stream.next_request();
        let payload = proto::encode_request(&Request::Query {
            query: queries[idx].graph.clone(),
            deadline_us: workload.deadline().as_micros() as u64,
            priority,
        });
        let t = Instant::now();
        std::hint::black_box(proto::decode_request(&payload).map_err(err)?);
        decode.record(ns(t.elapsed()));
        let outcome = SchedOutcome::Exact(exact[idx].clone());
        let t = Instant::now();
        let framed = std::hint::black_box(proto::frame(&proto::encode_query_reply(&outcome)));
        encode.record(ns(t.elapsed()));
        reply_bytes += framed.len() as u64;
    }

    // Write path: the churn writer's commits, or a short probe elsewhere.
    if !writes {
        for _ in 0..PROBE_COMMITS {
            writer.commit_once(&service)?;
        }
    }
    let wal_bytes: u64 = (0..SHARDS)
        .filter_map(|s| std::fs::metadata(kgraph::io::shard::wal_path(&setup.dir, s)).ok())
        .map(|m| m.len())
        .sum();
    let t = Instant::now();
    service.checkpoint().map_err(err)?;
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;

    let load = Recorder::load;
    let sent = load(&pass.rec.sent);
    let socket_p50 = us(&pass.rec.latency(), 0.5);
    let sched_p50 = us(&sched_rec.latency(), 0.5);
    let direct_p50 = us(&direct_rec.latency(), 0.5);
    let d = &pass.delta;
    let mut m = Metrics::default();
    m.add("server.ping_rtt_us", us(&pass.ping_ns, 0.5), "us");
    m.add("server.overhead_us", socket_p50 - sched_p50, "us");
    m.add(
        "proto.decode_request_ns",
        quantile(&decode.snapshot(), 0.5),
        "ns",
    );
    m.add(
        "proto.encode_reply_ns",
        quantile(&encode.snapshot(), 0.5),
        "ns",
    );
    m.add(
        "proto.reply_bytes",
        reply_bytes as f64 / CODEC_SAMPLES as f64,
        "bytes",
    );
    m.add("sched.overhead_us", sched_p50 - direct_p50, "us");
    m.add("sched.answer_cache_hit_rate", d.cache_hit_rate(), "ratio");
    m.add(
        "sched.plan_cache_hit_rate",
        frac(d.plan_hits as u64, (d.plan_hits + d.plan_misses) as u64),
        "ratio",
    );
    m.add(
        "sched.mean_batch_size",
        frac(d.batched as u64, d.batches as u64),
        "count",
    );
    m.add(
        "sched.degraded_frac",
        frac(d.degraded as u64, d.submitted as u64),
        "ratio",
    );
    m.add("sched.high_p99_us", d.high_p99_us, "us");
    let traces = direct.traces.into_inner().expect("trace list poisoned");
    for class in Class::ALL {
        let of_class: Vec<_> = traces
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, t)| t)
            .collect();
        let phase = |f: fn(&sgq::QueryTrace) -> u64| {
            let h = Histogram::detached();
            of_class.iter().for_each(|t| h.record(f(t)));
            us(&h.snapshot(), 0.5)
        };
        let per_query = |f: fn(&sgq::QueryTrace) -> u64| {
            frac(of_class.iter().map(|t| f(t)).sum(), of_class.len() as u64)
        };
        let c = class.name();
        m.add(format!("engine.{c}.plan_us"), phase(|t| t.plan_ns), "us");
        m.add(format!("engine.{c}.seed_us"), phase(|t| t.seed_ns), "us");
        m.add(
            format!("engine.{c}.expand_us"),
            phase(|t| t.expand_ns),
            "us",
        );
        m.add(format!("engine.{c}.merge_us"), phase(|t| t.merge_ns), "us");
        m.add(
            format!("astar.{c}.edges_examined"),
            per_query(|t| t.edges_examined),
            "count",
        );
        m.add(
            format!("astar.{c}.popped"),
            per_query(|t| t.popped),
            "count",
        );
        m.add(
            format!("ta.{c}.accesses"),
            per_query(|t| t.ta_accesses),
            "count",
        );
    }
    let expand_ns: u64 = traces.iter().map(|(_, t)| t.expand_ns).sum();
    let edges: u64 = traces.iter().map(|(_, t)| t.edges_examined).sum();
    m.add("astar.expand_ns_per_edge", frac(expand_ns, edges), "ns");
    m.add(
        "similarity.hit_rate",
        service.similarity_stats().hit_rate(),
        "ratio",
    );
    m.add("tbq.topk_overlap", mean(&tbq_overlap), "ratio");
    m.add(
        "tbq.bound_hit_frac",
        frac(bound_hits, inputs.pool.len() as u64),
        "ratio",
    );
    m.add("tbq.degraded_overlap", mean(&degraded_overlap), "ratio");
    let commits = writer.commit_ns.snapshot();
    m.add(
        "live.epoch_adopt_ms",
        us(&writer.adopt_ns.snapshot(), 0.5) / 1e3,
        "ms",
    );
    m.add(
        "live.refreshes",
        service.stats().engine_refreshes as f64,
        "count",
    );
    m.add(
        "kgraph.wal_bytes_per_op",
        frac(wal_bytes, load(&writer.applied)),
        "bytes",
    );
    m.add("kgraph.open_ms", median(&setup.open_ms), "ms");
    m.add("kgraph.checkpoint_ms", checkpoint_ms, "ms");
    m.add("kgraph.commit_p50_us", us(&commits, 0.5), "us");
    m.add("kgraph.commit_p99_us", us(&commits, 0.99), "us");
    m.add("lane.direct_p50_us", direct_p50, "us");
    m.add("lane.scheduled_p50_us", sched_p50, "us");
    m.add("lane.socket_p50_us", socket_p50, "us");
    let socket_latency = pass.rec.latency();
    m.add(
        "load.latency_samples",
        socket_latency.count() as f64,
        "count",
    );
    m.add("load.latency_p99_us", us(&socket_latency, 0.99), "us");
    m.add("load.shed_frac", frac(load(&pass.rec.shed), sent), "ratio");
    m.add(
        "load.deadline_met_frac",
        frac(load(&pass.rec.deadline_met), sent),
        "ratio",
    );
    m.add(
        "load.failed_frac",
        frac(load(&pass.rec.failed), sent),
        "ratio",
    );
    m.add("trace.qps", pass.qps, "1/s");
    m.add(
        "trace.overhead_frac",
        untraced_pass.qps / pass.qps - 1.0,
        "ratio",
    );
    m.add("host.cores", report::host().0 as f64, "count");
    m.add("ref.direct_query_us", reference, "us");
    let notes = vec![
        (
            "trace.overhead_frac".to_string(),
            format!(
                "untraced {:.1} q/s vs traced {:.1} q/s over {:.2} s each",
                untraced_pass.qps,
                pass.qps,
                quarter.as_secs_f64()
            ),
        ),
        (
            "kgraph.commit_p99_us".to_string(),
            format!("n={}", commits.count()),
        ),
        (
            "tbq.topk_overlap".to_string(),
            format!("pool under a {} ms bound", TBQ_PROBE_BOUND.as_millis()),
        ),
        (
            "tbq.degraded_overlap".to_string(),
            format!(
                "mean over {} degraded socket replies",
                degraded_overlap.len()
            ),
        ),
    ];
    let failed = load(&untraced_pass.rec.failed)
        + load(&pass.rec.failed)
        + load(&sched_rec.failed)
        + load(&direct_rec.failed);
    Ok((m, sent, failed, notes))
}
