//! The three request paths a workload can be replayed through, and the
//! closed and open loops that drive them.
//!
//! * socket — `Client` → TCP → `server::serve` → scheduler → engine;
//! * scheduled — `SchedHandle::submit` / `Ticket::wait` in-process;
//! * direct — `LiveQueryService::query_traced`, no scheduler.
//!
//! Every lane replays the same seeded request stream, so their latencies
//! subtract into per-layer overheads.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use datagen::churn::{apply_churn, ChurnOp};
use kgraph::NodeId;
use obs::Histogram;
use semkg_server::{Client, Request, Response, WireOutcome};
use sgq::sched::{SchedBackend, SchedHandle, SchedOutcome, Ticket};
use sgq::{LiveQueryService, Priority, QueryResult, QueryTrace};

use crate::inputs::{
    Class, Inputs, PoolQuery, Shape, Stream, Workload, COMMITS_PER_SEC, OPS_PER_COMMIT,
};

/// A resolved request, whichever lane it took.
pub enum Outcome {
    Exact(QueryResult),
    Degraded(QueryResult),
    Shed,
    Failed(String),
}

impl From<WireOutcome> for Outcome {
    fn from(o: WireOutcome) -> Self {
        match o {
            WireOutcome::Exact(r) => Self::Exact(r),
            WireOutcome::Degraded { result, .. } => Self::Degraded(result),
            WireOutcome::Shed(_) => Self::Shed,
            WireOutcome::Failed(e) => Self::Failed(e),
        }
    }
}

impl From<SchedOutcome> for Outcome {
    fn from(o: SchedOutcome) -> Self {
        match o {
            SchedOutcome::Exact(r) => Self::Exact(r),
            SchedOutcome::Degraded { result, .. } => Self::Degraded(result),
            SchedOutcome::Shed(_) => Self::Shed,
            SchedOutcome::Failed(e) => Self::Failed(e.to_string()),
        }
    }
}

/// A request path. `send` may return before the answer exists (`Pending`);
/// `recv` resolves it. Open loops call them from two threads.
pub trait Lane: Sync {
    type Conn: Send;
    type Pending: Send;
    /// A connection split into a sending and a receiving half.
    fn connect(&self) -> Result<(Self::Conn, Self::Conn), String>;
    fn send(
        &self,
        conn: &mut Self::Conn,
        query: &PoolQuery,
        deadline: Duration,
        priority: Priority,
    ) -> Result<Self::Pending, String>;
    fn recv(&self, conn: &mut Self::Conn, pending: Self::Pending) -> Result<Outcome, String>;
}

pub struct SocketLane {
    pub addr: SocketAddr,
}

impl Lane for SocketLane {
    type Conn = Client;
    type Pending = ();

    fn connect(&self) -> Result<(Client, Client), String> {
        let client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let receiver = client.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok((client, receiver))
    }

    fn send(
        &self,
        conn: &mut Client,
        query: &PoolQuery,
        deadline: Duration,
        priority: Priority,
    ) -> Result<(), String> {
        let req = Request::Query {
            query: query.graph.clone(),
            deadline_us: deadline.as_micros() as u64,
            priority,
        };
        conn.send_request(&req).map_err(|e| format!("send: {e}"))
    }

    fn recv(&self, conn: &mut Client, _: ()) -> Result<Outcome, String> {
        match conn.recv_response().map_err(|e| format!("recv: {e}"))? {
            Response::Query(outcome) => Ok(outcome.into()),
            other => Err(format!("expected a query reply, got {other:?}")),
        }
    }
}

pub struct SchedLane<'h, 's, B: SchedBackend> {
    pub handle: &'h SchedHandle<'s, B>,
}

impl<B: SchedBackend> Lane for SchedLane<'_, '_, B> {
    type Conn = ();
    type Pending = Ticket;

    fn connect(&self) -> Result<((), ()), String> {
        Ok(((), ()))
    }

    fn send(
        &self,
        _: &mut (),
        query: &PoolQuery,
        deadline: Duration,
        priority: Priority,
    ) -> Result<Ticket, String> {
        Ok(self.handle.submit(&query.graph, deadline, priority))
    }

    fn recv(&self, _: &mut (), ticket: Ticket) -> Result<Outcome, String> {
        Ok(ticket.wait().outcome.into())
    }
}

/// Calls the engine directly and keeps every per-phase trace by class.
pub struct DirectLane<'s, 'a> {
    pub service: &'s LiveQueryService<'a>,
    pub traces: Mutex<Vec<(Class, QueryTrace)>>,
}

impl<'s, 'a> DirectLane<'s, 'a> {
    pub fn new(service: &'s LiveQueryService<'a>) -> Self {
        Self {
            service,
            traces: Mutex::new(Vec::new()),
        }
    }
}

impl Lane for DirectLane<'_, '_> {
    type Conn = ();
    type Pending = Outcome;

    fn connect(&self) -> Result<((), ()), String> {
        Ok(((), ()))
    }

    fn send(
        &self,
        _: &mut (),
        query: &PoolQuery,
        _: Duration,
        _: Priority,
    ) -> Result<Outcome, String> {
        Ok(match self.service.query_traced(&query.graph) {
            Ok((result, trace)) => {
                self.traces
                    .lock()
                    .expect("trace list poisoned")
                    .push((query.class, trace));
                Outcome::Exact(result)
            }
            Err(e) => Outcome::Failed(e.to_string()),
        })
    }

    fn recv(&self, _: &mut (), outcome: Outcome) -> Result<Outcome, String> {
        Ok(outcome)
    }
}

/// Nanoseconds of a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Outcome accounting and latency histograms of one measured loop.
pub struct Recorder {
    start: Instant,
    /// Latency of every answered request, nanoseconds.
    latency_ns: Histogram,
    pub sent: AtomicU64,
    pub exact: AtomicU64,
    pub degraded: AtomicU64,
    pub shed: AtomicU64,
    pub failed: AtomicU64,
    /// Answered within the deadline, timed from when the request began (its
    /// send time in a closed loop, its due time in an open loop).
    pub deadline_met: AtomicU64,
    /// Open loop: how far behind its schedule the generator sent.
    pub late_ns: Histogram,
    /// Every `sample_every`-th exact answer, for the bit-identity check.
    sample_every: u64,
    pub samples: Mutex<Vec<(usize, QueryResult)>>,
    /// Pivots of every degraded answer, for the TBQ overlap metric.
    pub degraded_pivots: Mutex<Vec<(usize, Vec<NodeId>)>>,
    pub failures: Mutex<Vec<String>>,
}

const MAX_SAMPLES: usize = 64;

impl Recorder {
    pub fn new(sample_every: u64) -> Self {
        Self {
            start: Instant::now(),
            latency_ns: Histogram::detached(),
            sent: AtomicU64::new(0),
            exact: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            deadline_met: AtomicU64::new(0),
            late_ns: Histogram::detached(),
            sample_every: sample_every.max(1),
            samples: Mutex::new(Vec::new()),
            degraded_pivots: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, idx: usize, began: Instant, outcome: Outcome, deadline: Duration) {
        let latency = began.elapsed();
        let answered = match outcome {
            Outcome::Exact(result) => {
                let n = self.exact.fetch_add(1, Ordering::Relaxed);
                if n.is_multiple_of(self.sample_every) {
                    let mut samples = self.samples.lock().expect("sample list poisoned");
                    if samples.len() < MAX_SAMPLES {
                        samples.push((idx, result));
                    }
                }
                true
            }
            Outcome::Degraded(result) => {
                self.degraded.fetch_add(1, Ordering::Relaxed);
                self.degraded_pivots
                    .lock()
                    .expect("pivot list poisoned")
                    .push((idx, result.answer_nodes()));
                true
            }
            Outcome::Shed => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                false
            }
            Outcome::Failed(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                self.failures.lock().expect("failure list poisoned").push(e);
                false
            }
        };
        if answered {
            self.latency_ns.record(ns(latency));
            if latency <= deadline {
                self.deadline_met.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub fn load(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    pub fn latency(&self) -> obs::HistogramSnapshot {
        self.latency_ns.snapshot()
    }

    /// Requests answered (exact or degraded) per second since the loop
    /// started; call once the loop has returned.
    pub fn answered_per_sec(&self) -> f64 {
        let answered = Self::load(&self.exact) + Self::load(&self.degraded);
        answered as f64 / self.start.elapsed().as_secs_f64()
    }
}

/// The `churn` writer: a fixed schedule of `OPS_PER_COMMIT` operations and
/// one commit, then `refresh()` so the next read adopts the new epoch.
pub struct Writer<'o> {
    ops: &'o [ChurnOp],
    cursor: AtomicUsize,
    pub commit_ns: Histogram,
    pub adopt_ns: Histogram,
    pub applied: AtomicU64,
}

impl<'o> Writer<'o> {
    pub fn new(ops: &'o [ChurnOp]) -> Self {
        Self {
            ops,
            cursor: AtomicUsize::new(0),
            commit_ns: Histogram::detached(),
            adopt_ns: Histogram::detached(),
            applied: AtomicU64::new(0),
        }
    }

    /// Applies one batch, commits, and adopts the new epoch.
    pub fn commit_once(&self, service: &LiveQueryService<'_>) -> Result<(), String> {
        let from = self.cursor.fetch_add(OPS_PER_COMMIT, Ordering::Relaxed);
        let batch = self
            .ops
            .get(from..from + OPS_PER_COMMIT)
            .ok_or("churn stream exhausted")?;
        let store = service.versioned();
        for op in batch {
            apply_churn(store, op);
        }
        self.applied
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let t = Instant::now();
        store.commit();
        self.commit_ns.record(ns(t.elapsed()));
        if let Some(e) = store.wal_error() {
            return Err(format!("WAL failed: {e}"));
        }
        let t = Instant::now();
        service.refresh();
        self.adopt_ns.record(ns(t.elapsed()));
        Ok(())
    }

    /// Commits on schedule until `stop` is raised.
    fn run(&self, service: &LiveQueryService<'_>, stop: &AtomicBool) -> Result<(), String> {
        let start = Instant::now();
        let period = Duration::from_secs_f64(1.0 / COMMITS_PER_SEC);
        let mut due = start;
        loop {
            loop {
                if stop.load(Ordering::Acquire) {
                    return Ok(());
                }
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep((due - now).min(Duration::from_millis(5)));
            }
            self.commit_once(service)?;
            due += period;
        }
    }
}

fn join<T>(h: std::thread::ScopedJoinHandle<'_, Result<T, String>>) -> Result<T, String> {
    h.join().map_err(|_| "load thread panicked".to_string())?
}

/// Sends every query once so plan, similarity and answer caches are warm
/// before the clock starts.
pub fn warm_up<L: Lane>(lane: &L, queries: &[PoolQuery]) -> Result<(), String> {
    let (mut conn, _) = lane.connect()?;
    for q in queries {
        let pending = lane.send(
            &mut conn,
            q,
            crate::inputs::SLACK_DEADLINE,
            Priority::Normal,
        )?;
        if let Outcome::Failed(e) = lane.recv(&mut conn, pending)? {
            return Err(format!("warm-up query failed: {e}"));
        }
    }
    Ok(())
}

/// Drives `lane` with the workload's stream for `duration` in `shape`; a
/// writing workload runs its writer beside the readers.
#[allow(clippy::too_many_arguments)]
pub fn drive<L: Lane>(
    lane: &L,
    workload: Workload,
    shape: Shape,
    inputs: &Inputs,
    duration: Duration,
    rec: &Recorder,
    writer: Option<(&Writer<'_>, &LiveQueryService<'_>)>,
) -> Result<(), String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = writer.map(|(w, service)| s.spawn(|| w.run(service, &stop)));
        let load = match shape {
            Shape::Closed { connections } => {
                closed_loop(lane, workload, inputs, connections, duration, rec)
            }
            Shape::Open { rate } => open_loop(lane, workload, inputs, rate, duration, rec),
        };
        stop.store(true, Ordering::Release);
        if let Some(w) = writer {
            join(w)?;
        }
        load
    })
}

fn closed_loop<L: Lane>(
    lane: &L,
    workload: Workload,
    inputs: &Inputs,
    connections: usize,
    duration: Duration,
    rec: &Recorder,
) -> Result<(), String> {
    let queries = inputs.queries(workload);
    let deadline = workload.deadline();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                s.spawn(move || -> Result<(), String> {
                    let (mut conn, _) = lane.connect()?;
                    let mut stream = Stream::new(workload, inputs.seeds, c, queries.len());
                    while rec.start.elapsed() < duration {
                        let (idx, priority) = stream.next_request();
                        let began = Instant::now();
                        let pending = lane.send(&mut conn, &queries[idx], deadline, priority)?;
                        rec.sent.fetch_add(1, Ordering::Relaxed);
                        let outcome = lane.recv(&mut conn, pending)?;
                        rec.record(idx, began, outcome, deadline);
                    }
                    Ok(())
                })
            })
            .collect();
        workers.into_iter().try_for_each(join)
    })
}

/// One connection: a sender thread fires at `rate` on a fixed schedule, the
/// calling thread receives replies in order. Latency runs from each
/// request's due time.
fn open_loop<L: Lane>(
    lane: &L,
    workload: Workload,
    inputs: &Inputs,
    rate: f64,
    duration: Duration,
    rec: &Recorder,
) -> Result<(), String> {
    let queries = inputs.queries(workload);
    let deadline = workload.deadline();
    let (mut tx_conn, mut rx_conn) = lane.connect()?;
    let (tx, rx) = mpsc::channel::<(usize, Instant, L::Pending)>();
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<(), String> {
            let mut stream = Stream::new(workload, inputs.seeds, 0, queries.len());
            for i in 0u64.. {
                let offset = Duration::from_secs_f64(i as f64 / rate);
                if offset >= duration {
                    break;
                }
                let due = rec.start + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let (idx, priority) = stream.next_request();
                let pending = lane.send(&mut tx_conn, &queries[idx], deadline, priority)?;
                rec.late_ns
                    .record(ns(Instant::now().saturating_duration_since(due)));
                rec.sent.fetch_add(1, Ordering::Relaxed);
                tx.send((idx, due, pending))
                    .map_err(|_| "receiver hung up".to_string())?;
            }
            Ok(())
        });
        let mut received = Ok(());
        for (idx, due, pending) in rx {
            match lane.recv(&mut rx_conn, pending) {
                Ok(outcome) => rec.record(idx, due, outcome, deadline),
                Err(e) => {
                    received = Err(e);
                    break;
                }
            }
        }
        join(sender)?;
        received
    })
}
