//! `loadgen` — drive a running `semkg-server` with the production-shaped
//! workload of `datagen::workload::RequestMix` (80% of traffic on a small
//! hot set, 20/60/20 High/Normal/Low priority mix) and report per-priority
//! latency histograms from `obs`.
//!
//! ```text
//! loadgen --addr HOST:PORT [--mode closed|open|overload] [--connections 8]
//!         [--rate 400] [--overload 2.0] [--duration-ms 3000]
//!         [--deadline-ms 25] [--scale 1.0] [--hot-set 4] [--hot-fraction 80]
//!         [--check] [--shutdown]
//! ```
//!
//! * `closed`: each connection round-trips one query at a time (measures
//!   capacity).
//! * `open`: requests fired at `--rate` q/s total regardless of responses
//!   (measures behaviour at a fixed offered load).
//! * `overload`: a closed-loop calibration phase measures capacity, then
//!   an open-loop phase offers `--overload ×` that rate — the p99-under-
//!   overload smoke. With `--check`, asserts the response accounting sums
//!   and that the scheduler's served p99 for High and Normal traffic stays
//!   within 4× the deadline; exits non-zero on violation.
//!
//! Ends by fetching and printing the server's merged metrics scrape
//! (`--shutdown` also drains the server).

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use datagen::dataset::DatasetSpec;
use datagen::workload::{produced_workload, RequestMix};
use obs::{Histogram, MetricsRegistry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use semkg_server::proto::{Request, Response, WireOutcome};
use semkg_server::Client;
use sgq::{Priority, QueryGraph};

fn priority_name(p: Priority) -> &'static str {
    match p {
        Priority::High => "high",
        Priority::Normal => "normal",
        Priority::Low => "low",
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Closed,
    Open,
    Overload,
}

struct Args {
    addr: String,
    mode: Mode,
    connections: usize,
    rate: f64,
    overload: f64,
    duration: Duration,
    deadline: Duration,
    scale: f64,
    mix: RequestMix,
    check: bool,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        mode: Mode::Closed,
        connections: 8,
        rate: 400.0,
        overload: 2.0,
        duration: Duration::from_millis(3000),
        deadline: Duration::from_millis(25),
        scale: 1.0,
        mix: RequestMix::default(),
        check: false,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--mode" => {
                args.mode = match value("--mode")?.as_str() {
                    "closed" => Mode::Closed,
                    "open" => Mode::Open,
                    "overload" => Mode::Overload,
                    other => {
                        return Err(format!("--mode must be closed|open|overload, got {other}"))
                    }
                };
            }
            "--connections" => {
                args.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?;
            }
            "--rate" => {
                args.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
            }
            "--overload" => {
                args.overload = value("--overload")?
                    .parse()
                    .map_err(|e| format!("--overload: {e}"))?;
            }
            "--duration-ms" => {
                let ms: u64 = value("--duration-ms")?
                    .parse()
                    .map_err(|e| format!("--duration-ms: {e}"))?;
                args.duration = Duration::from_millis(ms);
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                args.deadline = Duration::from_millis(ms);
            }
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
            }
            "--hot-set" => {
                args.mix.hot_set = value("--hot-set")?
                    .parse()
                    .map_err(|e| format!("--hot-set: {e}"))?;
            }
            "--hot-fraction" => {
                args.mix.hot_fraction = value("--hot-fraction")?
                    .parse()
                    .map_err(|e| format!("--hot-fraction: {e}"))?;
            }
            "--check" => args.check = true,
            "--shutdown" => args.shutdown = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr HOST:PORT is required".into());
    }
    if args.connections == 0 {
        return Err("--connections must be >= 1".into());
    }
    if args.mix.hot_fraction > 100 {
        return Err("--hot-fraction is a percentage (0..=100)".into());
    }
    if args.mix.hot_set == 0 {
        return Err("--hot-set must be >= 1".into());
    }
    Ok(args)
}

/// Per-run outcome accounting; latencies of *served* (exact or degraded)
/// responses in microseconds.
#[derive(Default)]
struct Tally {
    sent: u64,
    exact: u64,
    degraded: u64,
    shed: u64,
    failed: u64,
    served_us: Vec<u64>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.sent += other.sent;
        self.exact += other.exact;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.failed += other.failed;
        self.served_us.extend(other.served_us);
    }

    fn record(&mut self, outcome: &WireOutcome, latency: Duration, hist: &Histogram) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        match outcome {
            WireOutcome::Exact(_) => {
                self.exact += 1;
                self.served_us.push(us);
                hist.record(us);
            }
            WireOutcome::Degraded { .. } => {
                self.degraded += 1;
                self.served_us.push(us);
                hist.record(us);
            }
            WireOutcome::Shed(_) => self.shed += 1,
            WireOutcome::Failed(_) => self.failed += 1,
        }
    }
}

/// Latency histograms by priority, registered in loadgen's own registry.
struct PriorityHists {
    registry: MetricsRegistry,
}

impl PriorityHists {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        for p in Priority::ALL {
            let _ = registry.histogram_labeled(
                "loadgen_latency_us",
                "priority",
                priority_name(p),
                "client-observed latency of served responses",
            );
        }
        Self { registry }
    }

    fn hist(&self, p: Priority) -> Histogram {
        self.registry.histogram_labeled(
            "loadgen_latency_us",
            "priority",
            priority_name(p),
            "client-observed latency of served responses",
        )
    }
}

/// Closed loop: one in-flight request per connection. Returns the
/// aggregate tally and the measured q/s.
fn run_closed(
    addr: SocketAddr,
    queries: &[QueryGraph],
    args: &Args,
    duration: Duration,
    hists: &PriorityHists,
    seed_base: u64,
) -> Result<(Tally, f64), String> {
    let started = Instant::now();
    let tallies = std::thread::scope(|s| -> Result<Vec<Tally>, String> {
        let workers: Vec<_> = (0..args.connections)
            .map(|conn| {
                s.spawn(move || -> Result<Tally, String> {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut rng = StdRng::seed_from_u64(seed_base + conn as u64);
                    let mut tally = Tally::default();
                    let start = Instant::now();
                    while start.elapsed() < duration {
                        let idx = args.mix.pick(&mut rng, queries.len());
                        let priority = args.mix.pick_priority(&mut rng);
                        let sent = Instant::now();
                        let outcome = client
                            .query(&queries[idx], args.deadline, priority)
                            .map_err(|e| format!("query: {e}"))?;
                        tally.sent += 1;
                        tally.record(&outcome, sent.elapsed(), &hists.hist(priority));
                    }
                    Ok(tally)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(workers.len());
        for w in workers {
            match w.join() {
                Ok(r) => out.push(r?),
                Err(_) => return Err("worker thread panicked".into()),
            }
        }
        Ok(out)
    })?;
    let elapsed = started.elapsed().as_secs_f64();
    let mut total = Tally::default();
    for t in tallies {
        total.absorb(t);
    }
    let qps = total.sent as f64 / elapsed.max(1e-9);
    Ok((total, qps))
}

/// Open loop: each connection fires at `offered / connections` q/s from a
/// sender thread while a receiver thread matches in-order responses.
fn run_open(
    addr: SocketAddr,
    queries: &[QueryGraph],
    args: &Args,
    offered: f64,
    duration: Duration,
    hists: &PriorityHists,
    seed_base: u64,
) -> Result<Tally, String> {
    let per_conn = (offered / args.connections as f64).max(1.0);
    let tallies = std::thread::scope(|s| -> Result<Vec<Tally>, String> {
        let workers: Vec<_> = (0..args.connections)
            .map(|conn| {
                s.spawn(move || -> Result<Tally, String> {
                    let sender =
                        Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut receiver = sender.try_clone().map_err(|e| format!("clone: {e}"))?;
                    let (tx, rx) = mpsc::channel::<(Instant, Priority)>();
                    std::thread::scope(|cs| -> Result<Tally, String> {
                        let send_worker = cs.spawn(move || -> Result<u64, String> {
                            let mut client = sender;
                            let mut rng = StdRng::seed_from_u64(seed_base + conn as u64);
                            let start = Instant::now();
                            let mut fired = 0u64;
                            while start.elapsed() < duration {
                                let due = Duration::from_secs_f64(fired as f64 / per_conn);
                                let now = start.elapsed();
                                if now < due {
                                    std::thread::sleep(due - now);
                                }
                                let idx = args.mix.pick(&mut rng, queries.len());
                                let priority = args.mix.pick_priority(&mut rng);
                                let req = Request::Query {
                                    query: queries[idx].clone(),
                                    deadline_us: args.deadline.as_micros().min(u128::from(u64::MAX))
                                        as u64,
                                    priority,
                                };
                                client
                                    .send_request(&req)
                                    .map_err(|e| format!("send: {e}"))?;
                                if tx.send((Instant::now(), priority)).is_err() {
                                    return Err("receiver hung up".into());
                                }
                                fired += 1;
                            }
                            Ok(fired)
                        });
                        let mut tally = Tally::default();
                        for (sent_at, priority) in rx {
                            match receiver.recv_response() {
                                Ok(Response::Query(outcome)) => {
                                    tally.record(
                                        &outcome,
                                        sent_at.elapsed(),
                                        &hists.hist(priority),
                                    );
                                }
                                Ok(other) => {
                                    return Err(format!("expected query reply, got {other:?}"));
                                }
                                Err(e) => return Err(format!("recv: {e}")),
                            }
                        }
                        match send_worker.join() {
                            Ok(fired) => tally.sent = fired?,
                            Err(_) => return Err("sender thread panicked".into()),
                        }
                        Ok(tally)
                    })
                })
            })
            .collect();
        let mut out = Vec::with_capacity(workers.len());
        for w in workers {
            match w.join() {
                Ok(r) => out.push(r?),
                Err(_) => return Err("worker thread panicked".into()),
            }
        }
        Ok(out)
    })?;
    let mut total = Tally::default();
    for t in tallies {
        total.absorb(t);
    }
    Ok(total)
}

/// Sums the values of non-comment scrape lines whose name+labels start
/// with `prefix`.
fn scrape_sum(text: &str, prefix: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#') && l.starts_with(prefix))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}

/// Value of the first scrape line starting with `prefix`, if any.
fn scrape_value(text: &str, prefix: &str) -> Option<f64> {
    text.lines()
        .find(|l| !l.starts_with('#') && l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
}

fn print_histograms(hists: &PriorityHists) {
    println!("per-priority latency of served responses (client-observed):");
    for p in Priority::ALL {
        let snap = hists.hist(p).snapshot();
        println!(
            "  {:<6} n={:<7} p50={:>8.2}ms p90={:>8.2}ms p99={:>8.2}ms max={:>8.2}ms",
            priority_name(p),
            snap.count(),
            snap.p50() as f64 / 1e3,
            snap.p90() as f64 / 1e3,
            snap.p99() as f64 / 1e3,
            snap.max() as f64 / 1e3,
        );
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let addr: SocketAddr = args
        .addr
        .parse()
        .map_err(|e| format!("--addr {}: {e}", args.addr))?;

    eprintln!(
        "loadgen: building workload (scale {}) — must match the server's --scale",
        args.scale
    );
    let ds = DatasetSpec::dbpedia_like(args.scale).build();
    let queries: Vec<QueryGraph> = produced_workload(&ds)
        .into_iter()
        .map(|q| q.graph)
        .collect();
    if queries.is_empty() {
        return Err("generated workload is empty".into());
    }

    let hists = PriorityHists::new();
    let mut total = Tally::default();
    let open_phase_us = Histogram::detached();

    match args.mode {
        Mode::Closed => {
            let (tally, qps) = run_closed(addr, &queries, &args, args.duration, &hists, 0xc105)?;
            println!(
                "closed loop: {} connections, {:.0} q/s ({} sent)",
                args.connections, qps, tally.sent
            );
            total.absorb(tally);
        }
        Mode::Open => {
            let tally = run_open(
                addr,
                &queries,
                &args,
                args.rate,
                args.duration,
                &hists,
                0x09e4,
            )?;
            println!(
                "open loop: {} connections, {:.0} q/s offered ({} sent)",
                args.connections, args.rate, tally.sent
            );
            tally
                .served_us
                .iter()
                .for_each(|&us| open_phase_us.record(us));
            total.absorb(tally);
        }
        Mode::Overload => {
            let calibration = args.duration.min(Duration::from_millis(1500));
            let (cal_tally, capacity) =
                run_closed(addr, &queries, &args, calibration, &hists, 0xca11)?;
            total.absorb(cal_tally);
            let offered = (capacity * args.overload).max(args.connections as f64);
            println!(
                "overload: measured capacity {capacity:.0} q/s, offering {offered:.0} q/s ({}x)",
                args.overload
            );
            let tally = run_open(
                addr,
                &queries,
                &args,
                offered,
                args.duration,
                &hists,
                0x0dd5,
            )?;
            println!(
                "overload phase: {} sent, {} exact, {} degraded, {} shed, {} failed",
                tally.sent, tally.exact, tally.degraded, tally.shed, tally.failed
            );
            tally
                .served_us
                .iter()
                .for_each(|&us| open_phase_us.record(us));
            total.absorb(tally);
        }
    }

    println!(
        "totals: sent {} | exact {} degraded {} shed {} failed {}",
        total.sent, total.exact, total.degraded, total.shed, total.failed
    );
    print_histograms(&hists);

    let mut client = Client::connect(addr).map_err(|e| format!("connect for scrape: {e}"))?;
    let scrape = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    println!("--- server scrape ---");
    println!("{scrape}");

    // Answer-cache effectiveness, from the scheduler's own counters: the
    // hit rate the configured --hot-set / --hot-fraction skew achieved.
    let cache_hits = scrape_sum(&scrape, "sgq_sched_answer_cache_hits_total");
    let cache_dominance = scrape_sum(&scrape, "sgq_sched_answer_cache_dominance_hits_total");
    let cache_misses = scrape_sum(&scrape, "sgq_sched_answer_cache_misses_total");
    let cache_stale = scrape_sum(&scrape, "sgq_sched_answer_cache_stale_total");
    let probes = cache_hits + cache_dominance + cache_misses;
    println!(
        "answer cache: {:.0} exact hits, {:.0} dominance hits, {:.0} misses ({:.0} stale) — hit rate {:.1}% ({}% of traffic on {} hot queries)",
        cache_hits,
        cache_dominance,
        cache_misses,
        cache_stale,
        if probes > 0.0 {
            (cache_hits + cache_dominance) / probes * 100.0
        } else {
            0.0
        },
        args.mix.hot_fraction,
        args.mix.hot_set,
    );

    let mut failures: Vec<String> = Vec::new();
    if args.check {
        // Client-side accounting: every sent request got exactly one reply.
        let replied = total.exact + total.degraded + total.shed + total.failed;
        if replied != total.sent {
            failures.push(format!(
                "client accounting: {replied} outcomes != {} sent",
                total.sent
            ));
        }
        // Server-side: every decoded query produced exactly one counted reply.
        let srv_queries = scrape_sum(&scrape, "semkg_server_requests_total{kind=\"query\"}");
        let srv_replies = scrape_sum(&scrape, "semkg_server_responses_total");
        if srv_queries != srv_replies {
            failures.push(format!(
                "server accounting: {srv_replies} replies != {srv_queries} query requests"
            ));
        }
        if srv_queries != total.sent as f64 {
            failures.push(format!(
                "server saw {srv_queries} queries, client sent {}",
                total.sent
            ));
        }
        // Scheduler-side: submitted == exact + degraded + failed + shed.
        let submitted = scrape_sum(&scrape, "sgq_sched_submitted_total");
        let resolved = scrape_sum(&scrape, "sgq_sched_exact_total")
            + scrape_sum(&scrape, "sgq_sched_degraded_total")
            + scrape_sum(&scrape, "sgq_sched_failed_total")
            + scrape_sum(&scrape, "sgq_sched_shed_total");
        if submitted != resolved {
            failures.push(format!(
                "scheduler accounting: {resolved} resolutions != {submitted} submitted"
            ));
        }
        // The overload envelope: a served request resolves by its deadline
        // plus at most one execution, whatever its class, so the
        // scheduler's submit-to-resolution p99 for High and Normal traffic
        // must stay within 4x the deadline instead of collapsing into
        // queueing. This is asserted on the server-side latency histograms
        // from the scrape: in a strict open loop past capacity,
        // client-observed latency additionally includes unbounded kernel
        // socket-buffer queueing, which no admission control behind the
        // socket can bound.
        if args.mode != Mode::Closed {
            let client_p99_us = open_phase_us.snapshot().p99();
            println!(
                "open-loop client-observed served p99: {:.2} ms (includes socket queueing)",
                client_p99_us as f64 / 1e3
            );
            let cap_ms = args.deadline.as_secs_f64() * 1e3 * 4.0;
            for p in [Priority::High, Priority::Normal] {
                let name = priority_name(p);
                let sched_p99 = scrape_value(
                    &scrape,
                    &format!("sgq_sched_latency_us{{priority=\"{name}\",quantile=\"0.99\"}}"),
                );
                match sched_p99 {
                    Some(us) => {
                        println!(
                            "scheduler {name}-priority p99: {:.2} ms (envelope {cap_ms:.2} ms)",
                            us / 1e3
                        );
                        if us / 1e3 > cap_ms {
                            failures.push(format!(
                                "scheduler {name}-priority p99 {:.2} ms exceeds 4x deadline {cap_ms:.2} ms",
                                us / 1e3
                            ));
                        }
                    }
                    None => failures.push(format!(
                        "scrape has no sgq_sched_latency_us {name}-priority p99"
                    )),
                }
            }
        }
    }

    if args.shutdown {
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        eprintln!("loadgen: server acknowledged shutdown");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("loadgen check FAILED: {f}");
        }
        return Err(format!("{} check(s) failed", failures.len()));
    }
    if args.check {
        println!("loadgen checks passed");
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("loadgen: {e}");
        std::process::exit(1);
    }
}
