//! Deadline-aware batch scheduling in front of the query engine.
//!
//! [`crate::live::LiveQueryService`] answers whatever arrives,
//! immediately, one query per calling thread. Under overload that
//! is exactly wrong: every client pays full decomposition and search cost,
//! duplicate requests burn the engine twice, and the TBQ estimator can only
//! shrink *individual* searches — it cannot shed or reorder load, so p99
//! latency collapses when traffic spikes (the gStore/S4 lesson: production
//! systems win by admission control and batching, not per-query smarts).
//!
//! [`BatchScheduler`] puts a scheduler between clients and the engine:
//!
//! * a **bounded admission queue** accepts `(QueryGraph, deadline,
//!   priority)` requests; when full, a lower-priority, later-deadline
//!   victim is shed to admit a more urgent request (or the arrival itself
//!   is shed);
//! * a **scheduler thread** groups compatible admitted requests — equal
//!   query graphs observed at the same graph epoch — into batches. A batch
//!   is planned **once** (via
//!   [`crate::engine::PreparedQuery`], whose plans hold shared
//!   [`embedding::SimilarityIndex`] rows) and executed **once**; the result
//!   fans out to every member;
//! * batches are dispatched **earliest-deadline-first** (higher priority
//!   classes first) as jobs on the engine's existing
//!   [`WorkerPool`] — the scheduler spawns no per-query threads;
//! * requests whose deadline is **provably unmeetable** — the Algorithm-3
//!   estimate [`crate::timebound::estimate_ns`] of the fixed dispatch
//!   overhead alone reaches the remaining time — are **shed** explicitly;
//!   requests whose predicted exact cost exceeds their remaining time are
//!   **degraded**: executed through the TBQ anytime path with the bound cut
//!   to the time they actually have, and *flagged* as such;
//! * everything is observable through [`SchedStats`].
//!
//! ## The semantic answer cache
//!
//! In front of all of that sits an **epoch-keyed answer cache**
//! ([`cache`]): a bounded LRU of `Arc`-shared certified top-k results,
//! keyed by query signature and stamped with the epoch they were computed
//! against. A request whose answer is cached for the *current* epoch
//! resolves at submit time — it never enters the admission queue and never
//! touches the engine — with the from-scratch answer itself
//! (`tests/cache_differential.rs`). Entries invalidate by epoch stamp
//! exactly like the plan cache, so an answer computed before a commit,
//! compaction or recovery can never escape afterwards.
//!
//! Every request runs under the backend's one [`SgqConfig`], fixed for the
//! scheduler's lifetime, so batches, plans and cached answers carry no
//! configuration key.
//!
//! ## Response contract
//!
//! Every submitted request is resolved, exactly once, with one of:
//!
//! * [`SchedOutcome::Exact`] — the bit-identical answer the direct,
//!   unscheduled service path would have produced (same prepared-execution
//!   code path, same determinism guarantees);
//! * [`SchedOutcome::Degraded`] — a TBQ answer under a reduced bound,
//!   explicitly flagged with the bound it ran under;
//! * [`SchedOutcome::Shed`] — an explicit refusal with a
//!   [`ShedReason`];
//! * [`SchedOutcome::Failed`] — the engine's own error, passed through.
//!
//! Never a silently wrong answer: a degraded response is always flagged,
//! and batches only merge *equal* queries (hash prefilter, then full
//! structural equality) at one epoch — verified by the property tests
//! below and `tests/scheduler_differential.rs`.
//!
//! ## Epochs and live graphs
//!
//! Over a [`crate::live::LiveQueryService`] the scheduler stamps each batch
//! with the epoch it observed at grouping time; requests observed at
//! different epochs never share a batch. In-flight batches execute on
//! prepared queries pinned to their build epoch, so a commit or compaction
//! landing mid-batch drains cleanly — the batch finishes on the snapshot it
//! planned against while the next batch adopts the new epoch.
//!
//! The `semkg-server` crate fronts this scheduler over a TCP socket: the
//! full response contract — including every [`SchedOutcome`] variant and
//! its [`ShedReason`] — crosses the wire bit-identically, so remote
//! clients get the same never-silently-wrong guarantee as in-process
//! callers (see `crates/server/README.md`).

pub mod cache;

use crate::answer::{QueryResult, QueryStats};
use crate::config::{SchedConfig, SgqConfig};
use crate::error::{Result, SgqError};
use crate::live::LiveQueryService;
use crate::query::QueryGraph;
use crate::runtime::WorkerPool;
use crate::timebound::{estimate_ns, TimeBoundConfig, PER_MATCH_TA_COST};
use crate::trace::{tick_sampled, QueryTrace, TraceSink};
use cache::{AnswerCache, AnswerLookup};
use obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Most requests one batch may coalesce (one prepared execution answers
/// them all).
const MAX_BATCH: usize = 64;

/// Fixed per-request overhead floor (dispatch, preparation, fan-out). A
/// request whose remaining time is inside this margin is provably
/// unmeetable and shed; degraded executions get their bound cut by it.
const SHED_MARGIN: Duration = Duration::from_micros(200);

/// Entries kept in the prepared-plan and cost-profile caches.
const PLAN_CACHE_CAPACITY: usize = 256;

/// Request priority class. Higher classes are dispatched first and are the
/// last to be shed when the admission queue overflows.
///
/// Deliberately **not** `Ord`: declaration order would make `High` compare
/// *smaller* than `Low`, an inviting trap. Compare urgency through
/// [`Priority::rank`] (0 = most urgent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-critical traffic (interactive users).
    High,
    /// Regular traffic.
    #[default]
    Normal,
    /// Best-effort traffic (crawlers, prefetchers); shed first.
    Low,
}

impl Priority {
    /// Number of priority classes.
    pub const COUNT: usize = 3;

    /// Dense rank: 0 = most urgent.
    pub const fn rank(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// All classes, most urgent first.
    pub const ALL: [Priority; Priority::COUNT] = [Priority::High, Priority::Normal, Priority::Low];
}

/// Why the scheduler refused to execute a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue was full of equal-or-higher-urgency
    /// work.
    QueueFull,
    /// The deadline had already passed when the request reached the
    /// scheduler.
    Expired,
    /// The remaining time was provably insufficient: the estimated fixed
    /// dispatch overhead alone ([`crate::timebound::estimate_ns`] with zero
    /// collected matches) reached the deadline, so even a maximally
    /// degraded execution would miss it.
    Unmeetable,
    /// The scheduler was shutting down when the request arrived.
    Shutdown,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "admission queue full"),
            ShedReason::Expired => write!(f, "deadline already passed"),
            ShedReason::Unmeetable => write!(f, "deadline provably unmeetable"),
            ShedReason::Shutdown => write!(f, "scheduler shutting down"),
        }
    }
}

/// How a scheduled request was resolved (see the module-level response
/// contract).
#[derive(Debug, Clone, PartialEq)]
pub enum SchedOutcome {
    /// The exact answer — bit-identical to the direct service path.
    Exact(QueryResult),
    /// A time-bounded (TBQ) answer under a reduced budget, flagged with the
    /// bound it ran under. More remaining time ⇒ closer to exact
    /// (paper Theorem 4).
    Degraded {
        /// The anytime result.
        result: QueryResult,
        /// The reduced time bound the TBQ run was given.
        bound: Duration,
    },
    /// The request was refused without touching the engine.
    Shed(ShedReason),
    /// The engine returned an error (validation, storage, …).
    Failed(SgqError),
}

impl SchedOutcome {
    /// The query result, if the request produced one.
    pub fn result(&self) -> Option<&QueryResult> {
        match self {
            SchedOutcome::Exact(r) | SchedOutcome::Degraded { result: r, .. } => Some(r),
            _ => None,
        }
    }

    /// True for [`SchedOutcome::Shed`].
    pub fn is_shed(&self) -> bool {
        matches!(self, SchedOutcome::Shed(_))
    }

    /// Collapses into the engine's `Result`: sheds become
    /// [`SgqError::Shed`], failures pass through, degraded answers are
    /// returned like exact ones (callers distinguishing them should match
    /// on the outcome instead).
    pub fn into_result(self) -> Result<QueryResult> {
        match self {
            SchedOutcome::Exact(r) | SchedOutcome::Degraded { result: r, .. } => Ok(r),
            SchedOutcome::Shed(reason) => Err(SgqError::Shed(reason)),
            SchedOutcome::Failed(e) => Err(e),
        }
    }
}

/// A resolved scheduled request: the outcome plus the submit-to-resolution
/// latency the client observed.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedResponse {
    /// How the request was resolved.
    pub outcome: SchedOutcome,
    /// Wall-clock time from submission to resolution.
    pub latency: Duration,
}

/// What the engine the scheduler fronts must provide. Implemented by
/// [`LiveQueryService`] (prepared queries pin the epoch they were built
/// against; a store that never commits stays at epoch 0).
pub trait SchedBackend: Sync {
    /// The backend's compiled-query handle.
    type Prepared: Send + Sync;

    /// The newest published graph epoch (0 for static graphs). Batches are
    /// stamped with this at grouping time; requests observed at different
    /// epochs never share a batch.
    fn current_epoch(&self) -> u64;

    /// The engine configuration. It must not change for the backend's
    /// lifetime: batches, plans and cached answers carry no configuration
    /// key.
    fn config(&self) -> &SgqConfig;

    /// Compiles a query for repeated execution.
    fn prepare(&self, query: &QueryGraph) -> Result<Self::Prepared>;

    /// The epoch a prepared query is pinned to.
    fn prepared_epoch(&self, prepared: &Self::Prepared) -> u64;

    /// Exact execution (must be deterministic and identical to the
    /// backend's direct query path — the differential harness asserts it).
    /// Must not sample traces itself: the scheduler's 1-in-N tick is the
    /// only sampler on the scheduled path, and it sends the sampled
    /// batches to [`SchedBackend::execute_traced`] instead.
    fn execute(&self, prepared: &Self::Prepared) -> Result<QueryResult>;

    /// Exact execution with a per-phase [`QueryTrace`] attached. Must
    /// return the same answer as [`SchedBackend::execute`] — tracing only
    /// observes. The scheduler calls this for sampled batch executions and
    /// adds its own fan-out phase to the returned trace.
    fn execute_traced(&self, prepared: &Self::Prepared) -> Result<(QueryResult, QueryTrace)>;

    /// Anytime execution under a time bound.
    fn execute_time_bounded(
        &self,
        prepared: &Self::Prepared,
        tb: &TimeBoundConfig,
    ) -> Result<QueryResult>;

    /// The persistent worker pool batches are dispatched onto.
    fn pool(&self) -> &WorkerPool;

    /// Brings the point-in-time gauges of the backend's own metrics
    /// registry up to date; a scrape calls it before snapshotting that
    /// registry. The default has no such gauges.
    fn refresh_gauges(&self) {}
}

impl<'a> SchedBackend for LiveQueryService<'a> {
    type Prepared = crate::live::LivePreparedQuery<'a>;

    fn current_epoch(&self) -> u64 {
        self.published_epoch()
    }

    fn config(&self) -> &SgqConfig {
        self.sgq_config()
    }

    fn prepare(&self, query: &QueryGraph) -> Result<Self::Prepared> {
        LiveQueryService::prepare(self, query)
    }

    fn prepared_epoch(&self, prepared: &Self::Prepared) -> u64 {
        prepared.epoch()
    }

    fn execute(&self, prepared: &Self::Prepared) -> Result<QueryResult> {
        self.execute_unsampled(prepared)
    }

    fn execute_traced(&self, prepared: &Self::Prepared) -> Result<(QueryResult, QueryTrace)> {
        LiveQueryService::execute_traced(self, prepared)
    }

    fn execute_time_bounded(
        &self,
        prepared: &Self::Prepared,
        tb: &TimeBoundConfig,
    ) -> Result<QueryResult> {
        LiveQueryService::execute_time_bounded(self, prepared, tb)
    }

    fn pool(&self) -> &WorkerPool {
        self.worker_pool()
    }

    fn refresh_gauges(&self) {
        LiveQueryService::refresh_gauges(self)
    }
}

/// Structural hash of a query graph — the batch-grouping prefilter. Equal
/// graphs hash equal; the `Batcher` additionally compares full structural
/// equality before merging, so a collision can never merge distinct
/// queries.
pub fn query_signature(query: &QueryGraph) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    for node in query.nodes() {
        match node.name() {
            Some(name) => {
                1u8.hash(&mut h);
                name.hash(&mut h);
            }
            None => 0u8.hash(&mut h),
        }
        node.type_label().hash(&mut h);
    }
    0xffu8.hash(&mut h);
    for edge in query.edges() {
        edge.from.0.hash(&mut h);
        edge.to.0.hash(&mut h);
        edge.predicate.hash(&mut h);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Tickets
// ---------------------------------------------------------------------------

struct TicketState {
    submitted: Instant,
    slot: Mutex<Option<SchedResponse>>,
    cv: Condvar,
}

impl TicketState {
    fn new() -> Self {
        Self {
            submitted: Instant::now(),
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, outcome: SchedOutcome) {
        let response = SchedResponse {
            outcome,
            latency: self.submitted.elapsed(),
        };
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some(response);
        }
        self.cv.notify_all();
    }
}

/// A handle to one submitted request; resolves to a [`SchedResponse`]
/// exactly once.
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Blocks until the request is resolved.
    pub fn wait(self) -> SchedResponse {
        let mut slot = self.state.slot.lock().unwrap();
        loop {
            if let Some(response) = slot.take() {
                return response;
            }
            slot = self.state.cv.wait(slot).unwrap();
        }
    }

    /// Non-blocking [`Ticket::wait`]: the response if the request has been
    /// resolved, else the ticket back, still waitable.
    pub fn try_wait(self) -> std::result::Result<SchedResponse, Ticket> {
        let taken = self.state.slot.lock().unwrap().take();
        taken.ok_or(self)
    }
}

// ---------------------------------------------------------------------------
// Batching
// ---------------------------------------------------------------------------

/// One admitted request, stamped with its grouping key.
pub(crate) struct BatchRequest {
    query: Arc<QueryGraph>,
    sig: u64,
    epoch: u64,
    priority: Priority,
    deadline: Instant,
    ticket: Arc<TicketState>,
}

/// A group of compatible requests answered by one prepared execution.
pub(crate) struct Batch {
    query: Arc<QueryGraph>,
    sig: u64,
    epoch: u64,
    /// Most urgent member class.
    priority: Priority,
    /// Earliest member deadline — the EDF sort key.
    deadline: Instant,
    members: Vec<BatchRequest>,
}

impl Batch {
    /// Strict dispatch order: priority class first, deadline second.
    fn before(&self, other: &Batch) -> bool {
        (self.priority.rank(), self.deadline) < (other.priority.rank(), other.deadline)
    }
}

/// Groups admitted requests into batches and releases them
/// earliest-deadline-first. Two requests share a batch **only** when their
/// query graphs are structurally equal (hash prefilter + `==`) and they
/// were observed at the same graph epoch — the property tests below drive
/// arbitrary interleavings through exactly this type.
pub(crate) struct Batcher {
    ready: Vec<Batch>,
    max_batch: usize,
}

impl Batcher {
    pub(crate) fn new(max_batch: usize) -> Self {
        Self {
            ready: Vec::new(),
            max_batch,
        }
    }

    /// Number of formed, undispatched batches.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ready.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// Requests waiting across all formed batches.
    #[cfg(test)]
    pub(crate) fn pending_requests(&self) -> usize {
        self.ready.iter().map(|b| b.members.len()).sum()
    }

    /// Adds a request to a compatible open batch, or opens a new one.
    /// Returns true when the request joined an existing batch.
    pub(crate) fn offer(&mut self, req: BatchRequest) -> bool {
        if let Some(batch) = self.ready.iter_mut().find(|b| {
            b.members.len() < self.max_batch
                && b.sig == req.sig
                && b.epoch == req.epoch
                && *b.query == *req.query
        }) {
            batch.deadline = batch.deadline.min(req.deadline);
            if req.priority.rank() < batch.priority.rank() {
                batch.priority = req.priority;
            }
            batch.members.push(req);
            return true;
        }
        self.ready.push(Batch {
            query: Arc::clone(&req.query),
            sig: req.sig,
            epoch: req.epoch,
            priority: req.priority,
            deadline: req.deadline,
            members: vec![req],
        });
        false
    }

    /// Removes and returns the most urgent batch (highest priority class,
    /// earliest deadline).
    pub(crate) fn pop_earliest(&mut self) -> Option<Batch> {
        let mut best = 0;
        for i in 1..self.ready.len() {
            if self.ready[i].before(&self.ready[best]) {
                best = i;
            }
        }
        if self.ready.is_empty() {
            None
        } else {
            Some(self.ready.swap_remove(best))
        }
    }

    /// Drains every formed batch (shutdown path).
    fn drain(&mut self) -> Vec<Batch> {
        std::mem::take(&mut self.ready)
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Per-priority latency aggregates over *served* (exact or degraded)
/// requests, derived from one [`obs`] log-linear histogram snapshot per
/// class — so the percentiles, the count, the sum and the max are all read
/// from the same buckets and agree with each other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriorityLatency {
    /// Requests of this class resolved with an answer.
    pub served: u64,
    /// Summed submit-to-resolution latency, microseconds.
    pub total_latency_us: u64,
    /// Worst observed latency, microseconds (exact, not a bucket bound).
    pub max_latency_us: u64,
    /// Median submit-to-resolution latency, microseconds (bucket upper
    /// bound; relative error ≤ 1/[`obs::SUB_BUCKETS`]).
    pub p50_us: u64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
}

impl PriorityLatency {
    /// Mean submit-to-resolution latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_latency_us as f64 / self.served as f64
        }
    }
}

/// Aggregated scheduler counters (consistent-enough snapshot; counters are
/// updated independently).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Requests handed to [`SchedHandle::submit`].
    pub submitted: u64,
    /// Requests that entered the admission queue.
    pub admitted: u64,
    /// Requests resolved with the exact answer.
    pub exact: u64,
    /// Requests resolved with a flagged TBQ degradation.
    pub degraded: u64,
    /// Requests shed because the admission queue was full.
    pub shed_queue_full: u64,
    /// Requests shed because their deadline had already passed.
    pub shed_expired: u64,
    /// Requests shed because the estimator proved the deadline unmeetable.
    pub shed_unmeetable: u64,
    /// Requests shed because the scheduler was shutting down.
    pub shed_shutdown: u64,
    /// Requests resolved with an engine error.
    pub failed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests across all dispatched batches (`batched_requests /
    /// batches` = mean coalescing factor).
    pub batched_requests: u64,
    /// Batch executions that reused a cached prepared query.
    pub plan_cache_hits: u64,
    /// Batch executions that had to prepare (cold signature or new epoch).
    pub plan_cache_misses: u64,
    /// Requests answered verbatim from the semantic answer cache (same
    /// query, same epoch) — resolved at submit time, engine untouched.
    pub answer_cache_hits: u64,
    /// Cache probes that found an entry stamped with another epoch (the
    /// entry is evicted — stale answers never escape).
    pub answer_cache_stale: u64,
    /// Cache probes that found no usable entry (stale probes count here
    /// too — they proceed to execution like any miss).
    pub answer_cache_misses: u64,
    /// Entries resident in the answer cache at snapshot time.
    pub answer_cache_entries: u64,
    /// Admission-queue depth at snapshot time.
    pub queue_depth: u64,
    /// High-water admission-queue depth.
    pub max_queue_depth: u64,
    /// Latency aggregates per priority class, indexed by
    /// [`Priority::rank`].
    pub per_priority: [PriorityLatency; Priority::COUNT],
}

impl SchedStats {
    /// Total requests shed, all reasons.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_expired + self.shed_unmeetable + self.shed_shutdown
    }

    /// Mean requests per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Latency aggregate of one priority class.
    pub fn latency(&self, priority: Priority) -> PriorityLatency {
        self.per_priority[priority.rank()]
    }

    /// Fraction of submitted requests served from the answer cache.
    pub fn answer_cache_hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.answer_cache_hits as f64 / self.submitted as f64
        }
    }
}

/// Scheduler counters, registered in the scheduler's own
/// [`MetricsRegistry`] (prefix `sgq_sched_`) so one Prometheus
/// scrape exposes them alongside everything else. Every mutation goes
/// through an [`obs`] handle; [`SchedStats`] is just a read of them.
struct SchedCounters {
    submitted: Counter,
    admitted: Counter,
    exact: Counter,
    degraded: Counter,
    shed_queue_full: Counter,
    shed_expired: Counter,
    shed_unmeetable: Counter,
    shed_shutdown: Counter,
    failed: Counter,
    batches: Counter,
    batched_requests: Counter,
    plan_cache_hits: Counter,
    plan_cache_misses: Counter,
    answer_hits: Counter,
    answer_stale: Counter,
    answer_misses: Counter,
    answer_entries: Gauge,
    queue_depth: Gauge,
    max_queue_depth: Gauge,
    /// Submit-to-resolution latency per priority class, indexed by
    /// [`Priority::rank`]. `served` / `total` / `max` in
    /// [`PriorityLatency`] are derived from these same buckets.
    latency_us: [Histogram; Priority::COUNT],
    /// Time spent fanning one executed batch result out to its members.
    fan_out_ns: Histogram,
}

impl SchedCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        let shed = |reason: &str| {
            registry.counter_labeled(
                "sgq_sched_shed_total",
                "reason",
                reason,
                "requests refused without touching the engine",
            )
        };
        let latency = |priority: &str| {
            registry.histogram_labeled(
                "sgq_sched_latency_us",
                "priority",
                priority,
                "submit-to-resolution latency of served requests, microseconds",
            )
        };
        Self {
            submitted: registry.counter("sgq_sched_submitted_total", "requests handed to submit"),
            admitted: registry.counter(
                "sgq_sched_admitted_total",
                "requests that entered the admission queue",
            ),
            exact: registry.counter(
                "sgq_sched_exact_total",
                "requests resolved with the exact answer",
            ),
            degraded: registry.counter(
                "sgq_sched_degraded_total",
                "requests resolved with a flagged TBQ degradation",
            ),
            shed_queue_full: shed("queue_full"),
            shed_expired: shed("expired"),
            shed_unmeetable: shed("unmeetable"),
            shed_shutdown: shed("shutdown"),
            failed: registry.counter(
                "sgq_sched_failed_total",
                "requests resolved with an engine error",
            ),
            batches: registry.counter("sgq_sched_batches_total", "batches dispatched"),
            batched_requests: registry.counter(
                "sgq_sched_batched_requests_total",
                "requests across all dispatched batches",
            ),
            plan_cache_hits: registry.counter(
                "sgq_sched_plan_cache_hits_total",
                "batch executions reusing a cached prepared query",
            ),
            plan_cache_misses: registry.counter(
                "sgq_sched_plan_cache_misses_total",
                "batch executions that had to prepare",
            ),
            answer_hits: registry.counter(
                "sgq_sched_answer_cache_hits_total",
                "requests answered verbatim from the semantic answer cache",
            ),
            answer_stale: registry.counter(
                "sgq_sched_answer_cache_stale_total",
                "answer-cache probes that evicted an entry from another epoch",
            ),
            answer_misses: registry.counter(
                "sgq_sched_answer_cache_misses_total",
                "answer-cache probes that found no usable entry",
            ),
            answer_entries: registry.gauge(
                "sgq_sched_answer_cache_entries",
                "entries resident in the semantic answer cache",
            ),
            queue_depth: registry.gauge(
                "sgq_sched_queue_depth",
                "admission-queue depth at scrape time",
            ),
            max_queue_depth: registry.gauge(
                "sgq_sched_max_queue_depth",
                "high-water admission-queue depth",
            ),
            latency_us: [latency("high"), latency("normal"), latency("low")],
            fan_out_ns: registry.histogram(
                "sgq_sched_fan_out_ns",
                "time fanning one batch result out to its members, nanoseconds",
            ),
        }
    }

    /// Reads the counters into a [`SchedStats`]. Outcome counters are read
    /// **before** `submitted`: submission increments `submitted` before any
    /// outcome for that request can exist, so reading the outcomes first
    /// and `submitted` last keeps the mid-traffic invariant
    /// `exact + degraded + shed() + failed <= submitted` (reading
    /// `submitted` first could miss a request submitted *and* resolved
    /// between the two reads, over-counting outcomes against an old
    /// `submitted`).
    fn snapshot(&self) -> SchedStats {
        let mut per_priority = [PriorityLatency::default(); Priority::COUNT];
        for (i, slot) in per_priority.iter_mut().enumerate() {
            let h = self.latency_us[i].snapshot();
            *slot = PriorityLatency {
                served: h.count(),
                total_latency_us: h.sum(),
                max_latency_us: h.max(),
                p50_us: h.p50(),
                p90_us: h.p90(),
                p99_us: h.p99(),
            };
        }
        // The answer-cache hit counter is read before `exact`: a hit
        // increments `exact` first and the hit counter second, so this
        // order keeps `answer_cache_hits <= exact` in every snapshot.
        let answer_cache_hits = self.answer_hits.get();
        let answer_cache_stale = self.answer_stale.get();
        let answer_cache_misses = self.answer_misses.get();
        let exact = self.exact.get();
        let degraded = self.degraded.get();
        let shed_queue_full = self.shed_queue_full.get();
        let shed_expired = self.shed_expired.get();
        let shed_unmeetable = self.shed_unmeetable.get();
        let shed_shutdown = self.shed_shutdown.get();
        let failed = self.failed.get();
        let admitted = self.admitted.get();
        SchedStats {
            submitted: self.submitted.get(),
            admitted,
            exact,
            degraded,
            shed_queue_full,
            shed_expired,
            shed_unmeetable,
            shed_shutdown,
            failed,
            batches: self.batches.get(),
            batched_requests: self.batched_requests.get(),
            plan_cache_hits: self.plan_cache_hits.get(),
            plan_cache_misses: self.plan_cache_misses.get(),
            answer_cache_hits,
            answer_cache_stale,
            answer_cache_misses,
            answer_cache_entries: self.answer_entries.get() as u64,
            // queue_depth is a live gauge, filled from the admission queue
            // by SchedHandle::stats.
            queue_depth: 0,
            max_queue_depth: self.max_queue_depth.get() as u64,
            per_priority,
        }
    }

    fn record_shed(&self, reason: ShedReason) {
        let counter = match reason {
            ShedReason::QueueFull => &self.shed_queue_full,
            ShedReason::Expired => &self.shed_expired,
            ShedReason::Unmeetable => &self.shed_unmeetable,
            ShedReason::Shutdown => &self.shed_shutdown,
        };
        counter.inc();
    }

    fn record_served(&self, priority: Priority, latency: Duration, degraded: bool) {
        if degraded {
            self.degraded.inc();
        } else {
            self.exact.inc();
        }
        self.latency_us[priority.rank()].record(latency.as_micros() as u64);
    }
}

// ---------------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------------

/// A request sitting in the admission queue (not yet stamped with an
/// epoch — the scheduler stamps at grouping time).
struct Pending {
    query: Arc<QueryGraph>,
    /// Signature computed once at submission (it already keyed the
    /// answer-cache probe there) and reused at grouping time.
    sig: u64,
    priority: Priority,
    deadline: Instant,
    ticket: Arc<TicketState>,
}

struct SchedState {
    queue: Vec<Pending>,
    draining: bool,
    inflight: usize,
}

/// A cached prepared query, valid while its epoch matches the batch's.
struct CachedPlan<P> {
    query: Arc<QueryGraph>,
    epoch: u64,
    prepared: Arc<P>,
}

/// EWMA of one query shape's observed exact-execution profile, feeding the
/// [`estimate_ns`] admission estimator.
#[derive(Clone)]
struct CostProfile {
    /// The query the profile was measured on (signatures are only a hash
    /// prefilter; a collision must not lend one query another's costs).
    query: Arc<QueryGraph>,
    /// Critical-path search time (max per-sub-query wall clock), ns.
    search_ns: u64,
    /// TA sorted accesses of the run (the `Σ|M̂ᵢ|` proxy).
    accesses: u64,
}

struct Shared<B: SchedBackend> {
    config: SchedConfig,
    state: Mutex<SchedState>,
    /// Wakes the scheduler: new admissions, freed dispatch slots, drain.
    sched_cv: Condvar,
    /// The scheduler's own metrics registry (`sgq_sched_*` names) — the
    /// backend service keeps its registry; [`SchedHandle::metrics`]
    /// exposes this one, and callers can `extend` snapshots to merge.
    registry: Arc<MetricsRegistry>,
    stats: SchedCounters,
    /// Sampled per-query traces of batch executions, fan-out time filled.
    traces: TraceSink,
    /// Deterministic 1-in-N sampling tick for batch executions.
    trace_tick: AtomicU64,
    plans: Mutex<FxHashMap<u64, CachedPlan<B::Prepared>>>,
    costs: Mutex<FxHashMap<u64, CostProfile>>,
    /// The semantic answer cache (see module docs). Locked on its own —
    /// never while `state`, `plans`, or `costs` is held.
    answers: Mutex<AnswerCache>,
}

impl<B: SchedBackend> Shared<B> {
    fn new(config: SchedConfig) -> Self {
        let registry = Arc::new(MetricsRegistry::default());
        let stats = SchedCounters::new(&registry);
        let answers = Mutex::new(AnswerCache::new(config.answer_cache_capacity));
        Self {
            config,
            state: Mutex::new(SchedState {
                queue: Vec::new(),
                draining: false,
                inflight: 0,
            }),
            sched_cv: Condvar::new(),
            registry,
            stats,
            traces: TraceSink::default(),
            trace_tick: AtomicU64::new(0),
            plans: Mutex::new(FxHashMap::default()),
            costs: Mutex::new(FxHashMap::default()),
            answers,
        }
    }

    /// Probes the answer cache for `query` at the backend's current epoch.
    /// `Some` is a finished outcome the caller fans out without touching
    /// the engine; `None` means miss (or a stale entry, now evicted) and
    /// the request takes the normal path. Miss/stale counters are recorded
    /// here; the caller records the hit counter *after* `record_served` so
    /// snapshots never show more cache-served answers than exacts.
    ///
    /// Called from `submit` *without* the state lock held — the cache has
    /// its own lock and the epoch read is a plain atomic load on both
    /// backends, so a hit costs two uncontended lock acquisitions total.
    fn serve_from_cache(&self, backend: &B, query: &QueryGraph, sig: u64) -> Option<SchedOutcome> {
        if self.config.answer_cache_capacity == 0 {
            return None;
        }
        let epoch = backend.current_epoch();
        let lookup = {
            let mut answers = self.answers.lock().unwrap();
            let lookup = answers.lookup(sig, query, epoch);
            self.stats.answer_entries.set(answers.len() as i64);
            lookup
        };
        match lookup {
            AnswerLookup::Hit(result) => Some(SchedOutcome::Exact((*result).clone())),
            AnswerLookup::Stale => {
                // A stale probe is also a miss: the request goes on to the
                // engine like any other.
                self.stats.answer_stale.inc();
                self.stats.answer_misses.inc();
                None
            }
            AnswerLookup::Miss => {
                self.stats.answer_misses.inc();
                None
            }
        }
    }

    /// Stores one exact batch result in the answer cache, stamped with the
    /// epoch the *prepared plan* answered from — the only epoch at which
    /// this answer is provably the direct path's answer.
    fn fill_answer(
        &self,
        backend: &B,
        batch: &Batch,
        result: &QueryResult,
        prepared: &B::Prepared,
    ) {
        if self.config.answer_cache_capacity == 0 {
            return;
        }
        let epoch = backend.prepared_epoch(prepared);
        let mut answers = self.answers.lock().unwrap();
        answers.insert(batch.sig, &batch.query, epoch, Arc::new(result.clone()));
        self.stats.answer_entries.set(answers.len() as i64);
    }

    fn resolve_shed(&self, ticket: &TicketState, reason: ShedReason) {
        self.stats.record_shed(reason);
        ticket.resolve(SchedOutcome::Shed(reason));
    }

    /// Counters are updated **before** the ticket resolves: resolution
    /// releases the waiting client, which may immediately read the stats.
    fn resolve_served(&self, req: &BatchRequest, outcome: SchedOutcome) {
        if matches!(outcome, SchedOutcome::Failed(_)) {
            self.stats.failed.inc();
        } else {
            let degraded = matches!(outcome, SchedOutcome::Degraded { .. });
            self.stats
                .record_served(req.priority, req.ticket.submitted.elapsed(), degraded);
        }
        req.ticket.resolve(outcome);
    }

    fn begin_drain(&self) {
        self.state.lock().unwrap().draining = true;
        self.sched_cv.notify_all();
    }

    /// Predicted exact-execution cost for `batch`'s query in nanoseconds —
    /// the Algorithm-3 estimate over the shape's observed profile — or
    /// `None` before the first observation. Like every sig-keyed cache
    /// here, the hash is only a prefilter: the profile carries its query
    /// and a collision reads as "no profile", never as a borrowed one.
    fn predict_ns(&self, batch: &Batch) -> Option<u128> {
        let costs = self.costs.lock().unwrap();
        costs
            .get(&batch.sig)
            .filter(|p| *p.query == *batch.query)
            .map(|p| {
                estimate_ns(
                    Duration::from_nanos(p.search_ns),
                    PER_MATCH_TA_COST.as_nanos(),
                    p.accesses as usize,
                )
            })
    }

    /// Folds one observed exact execution into the query shape's EWMA
    /// profile. A sig-colliding profile of a *different* query is replaced,
    /// not blended.
    fn observe(&self, batch: &Batch, stats: &QueryStats) {
        let search_ns = stats
            .per_subquery_us
            .iter()
            .copied()
            .max()
            .unwrap_or(stats.elapsed_us)
            .saturating_mul(1_000);
        let accesses = stats.ta_accesses as u64;
        let mut costs = self.costs.lock().unwrap();
        if costs.len() >= PLAN_CACHE_CAPACITY && !costs.contains_key(&batch.sig) {
            costs.clear();
        }
        let entry = costs
            .entry(batch.sig)
            .and_modify(|p| {
                if *p.query != *batch.query {
                    *p = CostProfile {
                        query: Arc::clone(&batch.query),
                        search_ns,
                        accesses,
                    };
                }
            })
            .or_insert_with(|| CostProfile {
                query: Arc::clone(&batch.query),
                search_ns,
                accesses,
            });
        entry.search_ns = (entry.search_ns / 4).saturating_mul(3) + search_ns / 4;
        entry.accesses = (entry.accesses / 4).saturating_mul(3) + accesses / 4;
    }

    /// Shrinks the query shape's predicted cost after a bound-limited
    /// degraded run. Without this, one inflated observation (a cold first
    /// execution) would route the shape to the degraded path forever —
    /// degraded runs are truncated by their bound, so they can never raise
    /// a fresh full-cost sample. Decaying the profile re-admits an exact
    /// attempt after a few degradations, whose observation then corrects
    /// the estimate in whichever direction is true.
    fn decay(&self, batch: &Batch) {
        let mut costs = self.costs.lock().unwrap();
        if let Some(p) = costs.get_mut(&batch.sig) {
            if *p.query == *batch.query {
                p.search_ns -= p.search_ns / 8;
                p.accesses -= p.accesses / 8;
            }
        }
    }

    /// The prepared query for `batch`, from the cache when it was built for
    /// the epoch the batch was stamped with, otherwise freshly prepared
    /// (and cached). The validity check anchors to `batch.epoch` — the
    /// stamp exists precisely so that a writer committing between grouping
    /// and execution neither thrashes the cache nor lets two batches of one
    /// stamp answer from different epochs.
    fn plan(&self, backend: &B, batch: &Batch) -> Result<Arc<B::Prepared>> {
        {
            let plans = self.plans.lock().unwrap();
            if let Some(entry) = plans.get(&batch.sig) {
                if entry.epoch == batch.epoch && *entry.query == *batch.query {
                    self.stats.plan_cache_hits.inc();
                    return Ok(Arc::clone(&entry.prepared));
                }
            }
        }
        self.stats.plan_cache_misses.inc();
        let prepare = || match catch_unwind(AssertUnwindSafe(|| backend.prepare(&batch.query))) {
            Ok(result) => result.map(Arc::new),
            Err(_) => Err(SgqError::Scheduler(
                "query preparation panicked inside the scheduler".into(),
            )),
        };
        // On a live backend, prepare() can pin an epoch *older* than the
        // batch's stamp: `pin()` hands out the previous engine when it
        // loses the rebuild race to a concurrent query. Retry briefly — but
        // never cache a stale plan under a newer stamp, or the staleness
        // outlives the (direct-path-equivalent) race window.
        let mut prepared = prepare()?;
        for _ in 0..2 {
            if backend.prepared_epoch(&prepared) >= batch.epoch {
                break;
            }
            std::thread::yield_now();
            prepared = prepare()?;
        }
        if backend.prepared_epoch(&prepared) >= batch.epoch {
            let mut plans = self.plans.lock().unwrap();
            if plans.len() >= PLAN_CACHE_CAPACITY && !plans.contains_key(&batch.sig) {
                // Cache full: reset rather than grow without bound. Crude,
                // but the cache refills with the live working set within
                // one round.
                plans.clear();
            }
            // Cached under the batch's *stamp* (a plan pinned to a newer
            // epoch by a racing commit is fine — the direct path would
            // answer from that epoch at this moment too): every later
            // batch with this stamp reuses this one plan.
            plans.insert(
                batch.sig,
                CachedPlan {
                    query: Arc::clone(&batch.query),
                    epoch: batch.epoch,
                    prepared: Arc::clone(&prepared),
                },
            );
        }
        Ok(prepared)
    }
}

/// Client handle passed to the closure of [`BatchScheduler::serve`].
/// `&self` methods — share it freely across client threads.
pub struct SchedHandle<'s, B: SchedBackend> {
    backend: &'s B,
    shared: &'s Shared<B>,
}

impl<B: SchedBackend> SchedHandle<'_, B> {
    /// Submits a query with a deadline `within` from now. Returns
    /// immediately with a [`Ticket`]; the scheduler resolves it with an
    /// exact answer, a flagged degradation, an explicit shed, or the
    /// engine's error.
    ///
    /// The answer cache is probed here, on the client thread, before
    /// admission: a hit resolves the ticket immediately with the cached
    /// certified answer and the request never enters the queue — it counts
    /// as `submitted` and `exact` but not as `admitted` or
    /// `batched_requests`.
    pub fn submit(&self, query: &QueryGraph, within: Duration, priority: Priority) -> Ticket {
        let state = Arc::new(TicketState::new());
        let ticket = Ticket {
            state: Arc::clone(&state),
        };
        let shared = self.shared;
        shared.stats.submitted.inc();
        let sig = query_signature(query);
        // A huge `within` ("no deadline, ever") must read as slack, not
        // panic on Instant overflow; a year out is beyond any plausible
        // prediction, so such requests always take the exact path.
        let deadline = state
            .submitted
            .checked_add(within)
            .unwrap_or_else(|| state.submitted + Duration::from_secs(365 * 24 * 3600));
        // Drain is checked before the cache probe: once the scheduler is
        // shutting down, every submission sheds with `Shutdown`,
        // cache-warm or not — a drained scheduler serving some requests
        // from cache would make shutdown behaviour data-dependent.
        if shared.state.lock().unwrap().draining {
            shared.resolve_shed(&state, ShedReason::Shutdown);
            return ticket;
        }
        // Only requests with at least the shed margin of slack are served
        // from cache: tighter deadlines belong to admission control, and
        // their shed/unmeetable outcomes must not depend on cache warmth —
        // a zero-deadline request sheds whether or not its answer is warm.
        let cacheable = within > SHED_MARGIN;
        if let Some(outcome) = cacheable
            .then(|| shared.serve_from_cache(self.backend, query, sig))
            .flatten()
        {
            shared
                .stats
                .record_served(priority, state.submitted.elapsed(), false);
            shared.stats.answer_hits.inc();
            state.resolve(outcome);
            return ticket;
        }
        let pending = Pending {
            query: Arc::new(query.clone()),
            sig,
            priority,
            deadline,
            ticket: state,
        };
        let mut st = shared.state.lock().unwrap();
        if st.draining {
            // Re-check: drain may have begun while the cache was probed.
            drop(st);
            shared.resolve_shed(&pending.ticket, ShedReason::Shutdown);
            return ticket;
        }
        if st.queue.len() >= shared.config.queue_capacity {
            // Full: shed the least urgent queued request if it is strictly
            // less urgent than the arrival, otherwise shed the arrival.
            let victim = st
                .queue
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| (p.priority.rank(), p.deadline))
                .map(|(i, _)| i)
                .filter(|&i| st.queue[i].priority.rank() > priority.rank());
            match victim {
                Some(i) => {
                    let evicted = st.queue.swap_remove(i);
                    st.queue.push(pending);
                    drop(st);
                    shared.resolve_shed(&evicted.ticket, ShedReason::QueueFull);
                }
                None => {
                    drop(st);
                    shared.resolve_shed(&pending.ticket, ShedReason::QueueFull);
                    return ticket;
                }
            }
        } else {
            st.queue.push(pending);
            let depth = st.queue.len() as i64;
            shared.stats.max_queue_depth.set_max(depth);
            drop(st);
        }
        shared.stats.admitted.inc();
        shared.sched_cv.notify_all();
        ticket
    }

    /// Submits and blocks for the response — the scheduled counterpart of
    /// [`LiveQueryService::query`].
    pub fn query_within(
        &self,
        query: &QueryGraph,
        within: Duration,
        priority: Priority,
    ) -> SchedResponse {
        self.submit(query, within, priority).wait()
    }

    /// Snapshot of the scheduler counters.
    pub fn stats(&self) -> SchedStats {
        let mut stats = self.shared.stats.snapshot();
        stats.queue_depth = self.shared.state.lock().unwrap().queue.len() as u64;
        stats
    }

    /// The scheduler's metrics registry (`sgq_sched_*` names). Extend a
    /// backend-service snapshot with [`SchedHandle::metrics`] to scrape
    /// both through one endpoint.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.registry
    }

    /// Point-in-time snapshot of every scheduler metric, with the
    /// queue-depth gauge refreshed first. Renders via
    /// [`MetricsSnapshot::to_prometheus`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let depth = self.shared.state.lock().unwrap().queue.len() as i64;
        self.shared.stats.queue_depth.set(depth);
        self.shared.registry.snapshot()
    }

    /// Sampled batch-execution traces (fan-out phase filled by the
    /// scheduler). Sampling is controlled by the backend engine's
    /// [`SgqConfig::trace_sample_every`].
    pub fn traces(&self) -> &TraceSink {
        &self.shared.traces
    }
}

/// Sets `draining` even when the serve closure panics, so the scheduler
/// thread (and the enclosing `thread::scope`) can always finish.
struct DrainGuard<'s, B: SchedBackend>(&'s Shared<B>);

impl<B: SchedBackend> Drop for DrainGuard<'_, B> {
    fn drop(&mut self) {
        self.0.begin_drain();
    }
}

/// The deadline-aware batch scheduler (see module docs).
pub struct BatchScheduler;

impl BatchScheduler {
    /// Runs a scheduler over `backend` for the duration of `f`. The closure
    /// receives a [`SchedHandle`] that any number of client threads may
    /// share; when it returns, the scheduler drains — every already
    /// admitted request is still resolved (executed or explicitly shed)
    /// before `serve` returns.
    pub fn serve<B, F, R>(backend: &B, config: SchedConfig, f: F) -> Result<R>
    where
        B: SchedBackend,
        F: FnOnce(&SchedHandle<'_, B>) -> R,
    {
        config.validate()?;
        let shared = Shared::<B>::new(config);
        Ok(std::thread::scope(|ts| {
            ts.spawn(|| scheduler_main(backend, &shared));
            let _drain = DrainGuard(&shared);
            f(&SchedHandle {
                backend,
                shared: &shared,
            })
        }))
    }
}

/// The scheduler thread: drains admissions, groups batches, dispatches
/// them EDF as jobs on the backend's worker pool.
fn scheduler_main<B: SchedBackend>(backend: &B, shared: &Shared<B>) {
    let max_inflight = if shared.config.max_inflight == 0 {
        backend.pool().workers()
    } else {
        shared.config.max_inflight
    };
    let mut batcher = Batcher::new(MAX_BATCH);

    backend.pool().scope(|scope| {
        loop {
            // Wait for admissions, a freed dispatch slot, or drain.
            let (drained, draining) = {
                let mut st = shared.state.lock().unwrap();
                loop {
                    let can_dispatch = !batcher.is_empty() && st.inflight < max_inflight;
                    // While draining with work still in flight, keep
                    // sleeping — completions wake this thread; draining
                    // alone must not spin.
                    let drained_out = st.draining && st.inflight == 0;
                    if !st.queue.is_empty() || can_dispatch || drained_out {
                        break;
                    }
                    st = shared.sched_cv.wait(st).unwrap();
                }
                (std::mem::take(&mut st.queue), st.draining)
            };

            // Group, stamping each request with the epoch observed now —
            // requests observed at different epochs never share a batch.
            let epoch = backend.current_epoch();
            let now = Instant::now();
            for p in drained {
                if p.deadline <= now {
                    shared.resolve_shed(&p.ticket, ShedReason::Expired);
                    continue;
                }
                batcher.offer(BatchRequest {
                    sig: p.sig,
                    query: p.query,
                    epoch,
                    priority: p.priority,
                    deadline: p.deadline,
                    ticket: p.ticket,
                });
            }

            // Dispatch EDF while slots are free.
            while !batcher.is_empty() {
                {
                    let mut st = shared.state.lock().unwrap();
                    if st.inflight >= max_inflight {
                        break;
                    }
                    st.inflight += 1;
                }
                let Some(batch) = batcher.pop_earliest() else {
                    // Unreachable given the loop guard, but inflight was
                    // already claimed — release it rather than panic.
                    shared.state.lock().unwrap().inflight -= 1;
                    break;
                };
                shared.stats.batches.inc();
                shared
                    .stats
                    .batched_requests
                    .add(batch.members.len() as u64);
                scope.spawn(move || {
                    run_batch(backend, shared, batch);
                    shared.state.lock().unwrap().inflight -= 1;
                    shared.sched_cv.notify_all();
                });
            }

            if draining {
                let st = shared.state.lock().unwrap();
                if st.queue.is_empty() && batcher.is_empty() && st.inflight == 0 {
                    break;
                }
            }
        }
        // Defensive: resolve anything the loop logic somehow left behind
        // (there should be none — the drain condition above requires an
        // empty batcher).
        for batch in batcher.drain() {
            for m in batch.members {
                shared.resolve_shed(&m.ticket, ShedReason::Shutdown);
            }
        }
    });
}

/// Executes one batch: partitions members into exact / degraded / shed by
/// deadline feasibility, plans once, executes at most twice (one exact run,
/// one reduced-bound TBQ run), fans results out.
fn run_batch<B: SchedBackend>(backend: &B, shared: &Shared<B>, mut batch: Batch) {
    // The fixed cost of getting any answer out: dispatch, preparation (on
    // a plan-cache miss), fan-out — the Algorithm-3 estimate with zero
    // collected matches, which is the margin itself.
    let overhead_ns = SHED_MARGIN.as_nanos();
    let predicted_ns = shared.predict_ns(&batch);

    let now = Instant::now();
    let mut exact_members: Vec<BatchRequest> = Vec::new();
    let mut tight_members: Vec<BatchRequest> = Vec::new();
    for m in std::mem::take(&mut batch.members) {
        let Some(remaining) = m.deadline.checked_duration_since(now) else {
            shared.resolve_shed(&m.ticket, ShedReason::Expired);
            continue;
        };
        let remaining_ns = remaining.as_nanos();
        if overhead_ns >= remaining_ns {
            // Provably unmeetable: even a zero-work answer misses.
            shared.resolve_shed(&m.ticket, ShedReason::Unmeetable);
            continue;
        }
        match predicted_ns {
            Some(p) if p.saturating_add(overhead_ns) > remaining_ns => tight_members.push(m),
            // Unknown cost: run exact optimistically; the observation
            // feeds the estimator for every later request of this shape.
            _ => exact_members.push(m),
        }
    }
    if exact_members.is_empty() && tight_members.is_empty() {
        return;
    }

    let prepared = match shared.plan(backend, &batch) {
        Ok(p) => p,
        Err(e) => {
            for m in exact_members.iter().chain(&tight_members) {
                shared.resolve_served(m, SchedOutcome::Failed(e.clone()));
            }
            return;
        }
    };

    if !exact_members.is_empty() {
        // Deterministic 1-in-N sampling of batch executions: a sampled run
        // goes through the backend's traced path (same answer, proven by
        // `tests/trace_differential.rs`) and the scheduler adds the one
        // phase only it can see — fanning the result out to the members.
        let sampled = tick_sampled(&shared.trace_tick, backend.config().trace_sample_every);
        let (outcome, mut trace) = if sampled {
            match catch_unwind(AssertUnwindSafe(|| backend.execute_traced(&prepared))) {
                Ok(Ok((result, trace))) => {
                    shared.observe(&batch, &result.stats);
                    (SchedOutcome::Exact(result), Some(trace))
                }
                Ok(Err(e)) => (SchedOutcome::Failed(e), None),
                Err(_) => (
                    SchedOutcome::Failed(SgqError::Scheduler(
                        "exact execution panicked inside the scheduler".into(),
                    )),
                    None,
                ),
            }
        } else {
            let guarded = catch_unwind(AssertUnwindSafe(|| backend.execute(&prepared)));
            let outcome = match guarded {
                Ok(Ok(result)) => {
                    shared.observe(&batch, &result.stats);
                    SchedOutcome::Exact(result)
                }
                Ok(Err(e)) => SchedOutcome::Failed(e),
                Err(_) => SchedOutcome::Failed(SgqError::Scheduler(
                    "exact execution panicked inside the scheduler".into(),
                )),
            };
            (outcome, None)
        };
        // Fill the answer cache *before* fan-out: a client woken by its
        // ticket can resubmit the same query and find the answer warm.
        if let SchedOutcome::Exact(result) = &outcome {
            shared.fill_answer(backend, &batch, result, &prepared);
        }
        let fan_t = trace.as_ref().map(|_| Instant::now());
        for m in &exact_members {
            shared.resolve_served(m, outcome.clone());
        }
        if let (Some(mut tr), Some(t0)) = (trace.take(), fan_t) {
            tr.fan_out_ns = t0.elapsed().as_nanos() as u64;
            shared.stats.fan_out_ns.record(tr.fan_out_ns);
            shared.traces.push(tr);
        }
    }

    if !tight_members.is_empty() {
        // Re-check feasibility: the exact run above may have consumed the
        // tight members' remaining time.
        let now = Instant::now();
        let mut bound = Duration::MAX;
        let mut survivors: Vec<BatchRequest> = Vec::new();
        for m in tight_members {
            let Some(remaining) = m.deadline.checked_duration_since(now) else {
                shared.resolve_shed(&m.ticket, ShedReason::Expired);
                continue;
            };
            if overhead_ns >= remaining.as_nanos() {
                shared.resolve_shed(&m.ticket, ShedReason::Unmeetable);
                continue;
            }
            bound = bound.min(remaining.saturating_sub(SHED_MARGIN));
            survivors.push(m);
        }
        if survivors.is_empty() {
            return;
        }
        let tb = TimeBoundConfig::with_bound(bound);
        let guarded = catch_unwind(AssertUnwindSafe(|| {
            backend.execute_time_bounded(&prepared, &tb)
        }));
        let outcome = match guarded {
            Ok(Ok(result)) => {
                if result.stats.time_bound_hit {
                    // Truncated by the bound: the true cost is unknowable
                    // from this run; decay the profile so exact attempts
                    // are eventually re-admitted.
                    shared.decay(&batch);
                } else {
                    // Drained naturally inside the bound — a genuine
                    // full-cost sample.
                    shared.observe(&batch, &result.stats);
                }
                SchedOutcome::Degraded { result, bound }
            }
            Ok(Err(e)) => SchedOutcome::Failed(e),
            Err(_) => SchedOutcome::Failed(SgqError::Scheduler(
                "time-bounded execution panicked inside the scheduler".into(),
            )),
        };
        for m in &survivors {
            shared.resolve_served(m, outcome.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedding::PredicateSpace;
    use kgraph::{GraphBuilder, KnowledgeGraph};
    use lexicon::TransformationLibrary;
    use proptest::prelude::*;

    fn fixture() -> (KnowledgeGraph, PredicateSpace, TransformationLibrary) {
        let mut b = GraphBuilder::new();
        let audi = b.add_node("Audi_TT", "Automobile");
        let bmw = b.add_node("BMW_320", "Automobile");
        let de = b.add_node("Germany", "Country");
        b.add_edge(audi, de, "assembly");
        b.add_edge(bmw, de, "product");
        let g = b.finish();
        let (vecs, labels): (Vec<Vec<f32>>, Vec<String>) = g
            .predicates()
            .map(|(_, l)| (vec![1.0f32, 0.0], l.to_string()))
            .unzip();
        let space = PredicateSpace::from_raw(vecs, labels);
        (g, space, TransformationLibrary::new())
    }

    fn product_query() -> QueryGraph {
        let mut q = QueryGraph::new();
        let auto = q.add_target("Automobile");
        let de = q.add_specific("Germany", "Country");
        q.add_edge(auto, "product", de);
        q
    }

    fn assembly_query() -> QueryGraph {
        let mut q = QueryGraph::new();
        let auto = q.add_target("Automobile");
        let de = q.add_specific("Germany", "Country");
        q.add_edge(auto, "assembly", de);
        q
    }

    /// A service over a store that never commits — the static case.
    fn idle_service<'a>(
        g: &KnowledgeGraph,
        space: &'a PredicateSpace,
        lib: &'a TransformationLibrary,
        config: SgqConfig,
    ) -> LiveQueryService<'a> {
        LiveQueryService::new(
            Arc::new(kgraph::VersionedGraph::new(g.clone())),
            space,
            lib,
            config,
        )
    }

    fn sched_config() -> SchedConfig {
        SchedConfig::default()
    }

    #[test]
    fn scheduled_exact_matches_direct_path() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 2,
                ..SgqConfig::default()
            },
        );
        let direct = service.query(&product_query()).unwrap();
        let response = BatchScheduler::serve(&service, sched_config(), |handle| {
            handle.query_within(&product_query(), Duration::from_secs(10), Priority::Normal)
        })
        .unwrap();
        match response.outcome {
            SchedOutcome::Exact(r) => assert_eq!(r.matches, direct.matches),
            other => panic!("slack deadline must yield the exact answer, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 2,
                ..SgqConfig::default()
            },
        );
        let direct = service.query(&product_query()).unwrap();
        // Answer cache off: this test asserts the *batching* counters, and
        // cache hits would keep repeats out of the queue entirely.
        let config = SchedConfig {
            answer_cache_capacity: 0,
            ..SchedConfig::default()
        };
        let stats = BatchScheduler::serve(&service, config, |handle| {
            let tickets: Vec<Ticket> = (0..32)
                .map(|_| handle.submit(&product_query(), Duration::from_secs(10), Priority::Normal))
                .collect();
            for t in tickets {
                match t.wait().outcome {
                    SchedOutcome::Exact(r) => assert_eq!(r.matches, direct.matches),
                    other => panic!("expected exact, got {other:?}"),
                }
            }
            handle.stats()
        })
        .unwrap();
        assert_eq!(stats.submitted, 32);
        assert_eq!(stats.exact, 32);
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.batched_requests, 32);
        assert!(
            stats.batches < 32,
            "32 identical concurrent requests must coalesce into fewer executions: {stats:?}"
        );
        assert!(stats.mean_batch_size() > 1.0);
    }

    #[test]
    fn zero_deadline_requests_are_shed_not_answered_wrong() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 2,
                ..SgqConfig::default()
            },
        );
        let stats = BatchScheduler::serve(&service, sched_config(), |handle| {
            for _ in 0..8 {
                let r = handle.query_within(&product_query(), Duration::ZERO, Priority::Low);
                assert!(
                    r.outcome.is_shed(),
                    "an already-expired deadline must shed, got {:?}",
                    r.outcome
                );
            }
            handle.stats()
        })
        .unwrap();
        assert_eq!(stats.shed(), 8);
        assert_eq!(stats.exact + stats.degraded, 0);
    }

    /// A backend that never executes anything — for tests that exercise
    /// pure admission-queue mechanics without a scheduler thread.
    struct NullBackend {
        config: SgqConfig,
        pool: Arc<WorkerPool>,
    }

    impl NullBackend {
        fn new() -> Self {
            Self {
                config: SgqConfig::default(),
                pool: Arc::new(WorkerPool::new(1)),
            }
        }
    }

    impl SchedBackend for NullBackend {
        type Prepared = ();

        fn current_epoch(&self) -> u64 {
            0
        }

        fn config(&self) -> &SgqConfig {
            &self.config
        }

        fn prepare(&self, _query: &QueryGraph) -> Result<()> {
            Err(SgqError::Scheduler("null backend".into()))
        }

        fn prepared_epoch(&self, _prepared: &()) -> u64 {
            0
        }

        fn execute(&self, _prepared: &()) -> Result<QueryResult> {
            Err(SgqError::Scheduler("null backend".into()))
        }

        fn execute_traced(&self, _prepared: &()) -> Result<(QueryResult, QueryTrace)> {
            Err(SgqError::Scheduler("null backend".into()))
        }

        fn execute_time_bounded(
            &self,
            _prepared: &(),
            _tb: &TimeBoundConfig,
        ) -> Result<QueryResult> {
            Err(SgqError::Scheduler("null backend".into()))
        }

        fn pool(&self) -> &WorkerPool {
            &self.pool
        }
    }

    /// Victim selection at queue overflow, deterministically: no scheduler
    /// thread runs, so the admission queue is drained by nobody and every
    /// overflow decision is observable.
    #[test]
    fn queue_overflow_sheds_lowest_priority_first() {
        let backend = NullBackend::new();
        let shared = Shared::<NullBackend>::new(SchedConfig {
            queue_capacity: 2,
            ..SchedConfig::default()
        });
        let handle = SchedHandle {
            backend: &backend,
            shared: &shared,
        };
        let q = product_query();
        let within = Duration::from_secs(5);

        let low_a = handle.submit(&q, within, Priority::Low);
        let low_b = handle.submit(&q, within, Priority::Low);
        let Err(low_a) = low_a.try_wait() else {
            panic!("queued, not resolved");
        };

        // A High arrival evicts the least urgent queued Low.
        let high_a = handle.submit(&q, within, Priority::High);
        assert!(matches!(
            low_b.try_wait().map(|r| r.outcome),
            Ok(SchedOutcome::Shed(ShedReason::QueueFull))
        ));
        let high_b = handle.submit(&q, within, Priority::High);
        assert!(matches!(
            low_a.try_wait().map(|r| r.outcome),
            Ok(SchedOutcome::Shed(ShedReason::QueueFull))
        ));

        // Queue now holds two Highs: an equal-urgency arrival is shed
        // itself, the queued ones survive.
        let high_c = handle.submit(&q, within, Priority::High);
        assert!(matches!(
            high_c.wait().outcome,
            SchedOutcome::Shed(ShedReason::QueueFull)
        ));
        assert!(high_a.try_wait().is_err());
        assert!(high_b.try_wait().is_err());

        let stats = handle.stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.shed_queue_full, 3);
        assert_eq!(stats.queue_depth, 2);
    }

    /// Overload burst end-to-end: every ticket resolves exactly once, no
    /// hangs, and the counters account for every request.
    #[test]
    fn overload_burst_resolves_every_ticket() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 1,
                ..SgqConfig::default()
            },
        );
        let config = SchedConfig {
            queue_capacity: 4,
            max_inflight: 1,
            ..SchedConfig::default()
        };
        let stats = BatchScheduler::serve(&service, config, |handle| {
            let tickets: Vec<Ticket> = (0..64)
                .map(|i| {
                    let prio = if i % 2 == 0 {
                        Priority::Low
                    } else {
                        Priority::High
                    };
                    handle.submit(&product_query(), Duration::from_secs(5), prio)
                })
                .collect();
            for t in tickets {
                let _ = t.wait();
            }
            handle.stats()
        })
        .unwrap();
        assert_eq!(
            stats.exact + stats.degraded + stats.shed() + stats.failed,
            64,
            "every request resolves exactly once: {stats:?}"
        );
    }

    /// Regression: [`SchedStats`] snapshots taken *mid-traffic* must never
    /// show more outcomes than submissions. The old snapshot read
    /// `submitted` first, so a request submitted and resolved between the
    /// two reads counted as an outcome against a stale `submitted`;
    /// outcome counters are now read first and `submitted` last.
    #[test]
    fn mid_traffic_snapshots_never_overcount_outcomes() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 2,
                ..SgqConfig::default()
            },
        );
        let config = SchedConfig {
            queue_capacity: 8,
            max_inflight: 1,
            ..SchedConfig::default()
        };
        BatchScheduler::serve(&service, config, |handle| {
            std::thread::scope(|ts| {
                // Two client threads racing submissions against the
                // snapshot reader below.
                for t in 0..2 {
                    ts.spawn(move || {
                        for i in 0..64 {
                            let prio = if (t + i) % 2 == 0 {
                                Priority::Low
                            } else {
                                Priority::High
                            };
                            let _ = handle
                                .submit(&product_query(), Duration::from_secs(5), prio)
                                .wait();
                        }
                    });
                }
                for _ in 0..512 {
                    let s = handle.stats();
                    let outcomes = s.exact + s.degraded + s.shed() + s.failed;
                    assert!(
                        outcomes <= s.submitted,
                        "snapshot shows {outcomes} outcomes for {} submissions: {s:?}",
                        s.submitted
                    );
                    std::thread::yield_now();
                }
            });
            let s = handle.stats();
            assert_eq!(s.exact + s.degraded + s.shed() + s.failed, 128);
        })
        .unwrap();
    }

    /// Sampled batch executions land in the scheduler's trace sink with the
    /// fan-out phase filled, the registry exposes `sgq_sched_*` metrics in
    /// both exposition formats, and the served-latency percentiles are
    /// coherent (p50 ≤ p90 ≤ p99 ≤ max, mean within [0, max]).
    #[test]
    fn sampled_batches_are_traced_and_metrics_expose_percentiles() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 2,
                trace_sample_every: 1, // trace every batch execution
                ..SgqConfig::default()
            },
        );
        // Answer cache off: this test is about traced *batch executions* —
        // with the cache on, repeats never execute, and the single batch's
        // trace push would race the client's sink check.
        let config = SchedConfig {
            answer_cache_capacity: 0,
            ..SchedConfig::default()
        };
        let (stats, snapshot) = BatchScheduler::serve(&service, config, |handle| {
            for _ in 0..8 {
                let r = handle.query_within(
                    &product_query(),
                    Duration::from_secs(10),
                    Priority::Normal,
                );
                assert!(matches!(r.outcome, SchedOutcome::Exact(_)));
            }
            assert!(
                !handle.traces().is_empty(),
                "sampling every execution must populate the sched sink"
            );
            let tr = handle.traces().recent()[0].clone();
            assert!(tr.total_ns > 0, "engine phases recorded: {tr:?}");
            (handle.stats(), handle.metrics())
        })
        .unwrap();

        let lat = stats.latency(Priority::Normal);
        assert_eq!(lat.served, 8);
        assert!(lat.p50_us <= lat.p90_us);
        assert!(lat.p90_us <= lat.p99_us);
        assert!(lat.p99_us <= lat.max_latency_us || lat.p99_us <= lat.max_latency_us + 1);
        assert!(lat.mean_latency_us() >= 0.0);
        assert!(lat.mean_latency_us() <= lat.max_latency_us as f64);

        let prom = snapshot.to_prometheus();
        assert!(prom.contains("# TYPE sgq_sched_submitted_total counter"));
        assert!(prom.contains("sgq_sched_submitted_total 8"));
        assert!(prom.contains("sgq_sched_latency_us{priority=\"normal\",quantile=\"0.99\"}"));
        assert!(prom.contains("sgq_sched_fan_out_ns"));
        assert!(
            snapshot
                .find_labeled("sgq_sched_shed_total", "reason", "queue_full")
                .is_some(),
            "shed counters registered per reason"
        );
    }

    /// Regression (live backends): the plan cache anchors to the batch's
    /// epoch *stamp*. Same-epoch traffic must hit the cache; a commit must
    /// invalidate exactly once; and post-commit answers must see the new
    /// data.
    #[test]
    fn live_plan_cache_hits_within_an_epoch_and_rolls_on_commit() {
        let (g, space, lib) = fixture();
        let versioned = Arc::new(kgraph::VersionedGraph::new(g));
        let service = LiveQueryService::new(
            Arc::clone(&versioned),
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 2,
                ..SgqConfig::default()
            },
        );
        let q = product_query();
        // Answer cache off: this test asserts exact *plan-cache* hit/miss
        // counts, and answer-cache hits would bypass planning altogether.
        let config = SchedConfig {
            answer_cache_capacity: 0,
            ..SchedConfig::default()
        };
        let stats = BatchScheduler::serve(&service, config, |handle| {
            let within = Duration::from_secs(10);
            // Two sequential rounds at epoch 0: prepare once, then hit.
            let r1 = handle.query_within(&q, within, Priority::Normal);
            let r2 = handle.query_within(&q, within, Priority::Normal);
            assert_eq!(r1.outcome.result().unwrap().matches.len(), 2);
            assert_eq!(r2.outcome.result().unwrap().matches.len(), 2);
            let mid = handle.stats();
            assert_eq!(mid.plan_cache_misses, 1, "one preparation for epoch 0");
            assert_eq!(mid.plan_cache_hits, 1, "same stamp reuses the plan");

            versioned.insert_triple(
                ("Lamando", "Automobile"),
                "assembly",
                ("Germany", "Country"),
            );
            versioned.commit();

            // Two rounds at epoch 1: one fresh preparation, then a hit —
            // and the answers include the committed edge.
            let r3 = handle.query_within(&q, within, Priority::Normal);
            let r4 = handle.query_within(&q, within, Priority::Normal);
            assert_eq!(
                r3.outcome.result().unwrap().matches.len(),
                3,
                "post-commit batch must answer from the new epoch"
            );
            assert_eq!(
                r4.outcome.result().unwrap().matches,
                r3.outcome.result().unwrap().matches
            );
            handle.stats()
        })
        .unwrap();
        assert_eq!(stats.plan_cache_misses, 2, "exactly one miss per epoch");
        assert_eq!(stats.plan_cache_hits, 2);
        assert_eq!(stats.exact, 4);
    }

    /// The plan cache and the cost profiles are keyed by signature, a hash
    /// prefilter only: two batches forced under one `sig` never share a
    /// plan or a profile. France has no node in the fixture, so a borrowed
    /// Germany plan would answer it with Germany's two matches.
    #[test]
    fn sig_collisions_never_share_plans_or_cost_profiles() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 1,
                ..SgqConfig::default()
            },
        );
        let shared = Shared::<LiveQueryService<'_>>::new(sched_config());
        let mut france = QueryGraph::new();
        let auto = france.add_target("Automobile");
        let fr = france.add_specific("France", "Country");
        france.add_edge(auto, "product", fr);
        let batch = |query: QueryGraph| Batch {
            query: Arc::new(query),
            sig: 7,
            epoch: 0,
            priority: Priority::Normal,
            deadline: Instant::now() + Duration::from_secs(10),
            members: Vec::new(),
        };
        let germany = batch(product_query());
        let france = batch(france);

        let prepared = shared.plan(&service, &germany).unwrap();
        let result = service.execute(&prepared).unwrap();
        assert_eq!(result.matches.len(), 2);
        shared.observe(&germany, &result.stats);
        assert!(shared.predict_ns(&germany).is_some());
        assert!(
            shared.predict_ns(&france).is_none(),
            "a colliding query must not borrow another query's cost profile"
        );

        let prepared = shared.plan(&service, &france).unwrap();
        assert_eq!(
            shared.stats.plan_cache_misses.get(),
            2,
            "a colliding query must prepare its own plan"
        );
        assert_eq!(shared.stats.plan_cache_hits.get(), 0);
        assert!(service.execute(&prepared).unwrap().matches.is_empty());
    }

    /// The scheduler's 1-in-N tick is the only sampler on the scheduled
    /// path: of 8 sequential batches at 1-in-2, the 4 sampled ones feed
    /// the service's phase histograms and the scheduler's sink, and the
    /// unsampled ones are not sampled a second time by the service.
    #[test]
    fn scheduled_executions_are_sampled_once() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 2,
                trace_sample_every: 2,
                ..SgqConfig::default()
            },
        );
        let config = SchedConfig {
            answer_cache_capacity: 0,
            ..SchedConfig::default()
        };
        let sched_traces = BatchScheduler::serve(&service, config, |handle| {
            for _ in 0..8 {
                let r = handle.query_within(
                    &product_query(),
                    Duration::from_secs(10),
                    Priority::Normal,
                );
                assert!(matches!(r.outcome, SchedOutcome::Exact(_)));
            }
            // A sampled batch pushes its trace after fanning out, so wait
            // for the last one instead of racing it.
            let until = Instant::now() + Duration::from_secs(10);
            while handle.traces().recorded() < 4 && Instant::now() < until {
                std::thread::yield_now();
            }
            handle.traces().recorded()
        })
        .unwrap();
        let metrics = service.metrics();
        let total_phase = match metrics.find_labeled("sgq_phase_ns", "phase", "total") {
            Some(obs::MetricSample {
                value: obs::MetricValue::Histogram(h),
                ..
            }) => h.count(),
            other => panic!("no sgq_phase_ns{{phase=\"total\"}} histogram: {other:?}"),
        };
        assert_eq!(total_phase, 4, "one phase observation per sampled batch");
        assert_eq!(
            service.traces().recorded(),
            0,
            "the service does not resample"
        );
        assert_eq!(sched_traces, 4, "the scheduler samples 1 in 2 batches");
    }

    /// Sequential repeats of one query: the first miss executes and fills
    /// the answer cache, every later submission is served from it without
    /// entering the queue — and the served answer is the direct path's.
    #[test]
    fn answer_cache_serves_repeats_without_execution() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 2,
                ..SgqConfig::default()
            },
        );
        let direct = service.query(&product_query()).unwrap();
        let stats = BatchScheduler::serve(&service, sched_config(), |handle| {
            for _ in 0..8 {
                let r = handle.query_within(
                    &product_query(),
                    Duration::from_secs(10),
                    Priority::Normal,
                );
                match r.outcome {
                    SchedOutcome::Exact(res) => assert_eq!(res.matches, direct.matches),
                    other => panic!("expected exact, got {other:?}"),
                }
            }
            handle.stats()
        })
        .unwrap();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.exact, 8);
        assert_eq!(
            stats.answer_cache_misses, 1,
            "only the cold submission misses"
        );
        assert_eq!(
            stats.answer_cache_hits, 7,
            "warm repeats are served from cache"
        );
        assert_eq!(
            stats.batches, 1,
            "only the cold submission reaches the engine"
        );
        assert_eq!(stats.batched_requests, 1);
        assert_eq!(stats.admitted, 1, "cache hits never enter the queue");
        assert_eq!(stats.answer_cache_entries, 1);
    }

    /// Epoch invalidation: a commit between two submissions of one query
    /// makes the cached answer stale — it is evicted, counted, and the
    /// fresh execution answers from the new epoch.
    #[test]
    fn answer_cache_never_serves_stale_epochs() {
        let (g, space, lib) = fixture();
        let versioned = Arc::new(kgraph::VersionedGraph::new(g));
        let service = LiveQueryService::new(
            Arc::clone(&versioned),
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 2,
                ..SgqConfig::default()
            },
        );
        let q = product_query();
        let stats = BatchScheduler::serve(&service, sched_config(), |handle| {
            let within = Duration::from_secs(10);
            let r1 = handle.query_within(&q, within, Priority::Normal);
            assert_eq!(r1.outcome.result().unwrap().matches.len(), 2);

            versioned.insert_triple(
                ("Lamando", "Automobile"),
                "assembly",
                ("Germany", "Country"),
            );
            versioned.commit();

            let r2 = handle.query_within(&q, within, Priority::Normal);
            assert_eq!(
                r2.outcome.result().unwrap().matches.len(),
                3,
                "the post-commit answer must come from the new epoch, not the cache"
            );
            handle.stats()
        })
        .unwrap();
        assert_eq!(stats.answer_cache_stale, 1, "the commit staled the entry");
        assert_eq!(stats.answer_cache_hits, 0);
        assert_eq!(stats.answer_cache_misses, 2, "a stale probe is also a miss");
        assert_eq!(stats.batches, 2, "both submissions executed");
    }

    #[test]
    fn submit_after_drain_is_shed_shutdown() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 5,
                tau: 0.0,
                workers: 1,
                ..SgqConfig::default()
            },
        );
        let (first, shutdown) = BatchScheduler::serve(&service, sched_config(), |handle| {
            let first =
                handle.query_within(&product_query(), Duration::from_secs(5), Priority::Normal);
            // Simulate a racing submit during drain.
            handle.shared.begin_drain();
            let late =
                handle.query_within(&product_query(), Duration::from_secs(5), Priority::Normal);
            (first, late)
        })
        .unwrap();
        assert!(matches!(first.outcome, SchedOutcome::Exact(_)));
        assert!(matches!(
            shutdown.outcome,
            SchedOutcome::Shed(ShedReason::Shutdown)
        ));
    }

    #[test]
    fn invalid_engine_config_surfaces_as_failed() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                k: 0, // invalid
                workers: 1,
                ..SgqConfig::default()
            },
        );
        let response = BatchScheduler::serve(&service, sched_config(), |handle| {
            handle.query_within(&product_query(), Duration::from_secs(5), Priority::Normal)
        })
        .unwrap();
        assert!(matches!(response.outcome, SchedOutcome::Failed(_)));
        assert!(response.clone().outcome.into_result().is_err());
    }

    #[test]
    fn invalid_sched_config_is_rejected() {
        let (g, space, lib) = fixture();
        let service = idle_service(&g, &space, &lib, SgqConfig::default());
        let err = BatchScheduler::serve(
            &service,
            SchedConfig {
                queue_capacity: 0,
                ..SchedConfig::default()
            },
            |_| (),
        )
        .unwrap_err();
        assert!(matches!(err, SgqError::InvalidConfig(_)));
    }

    // -- Batcher unit + property tests ------------------------------------

    fn req(
        query: &Arc<QueryGraph>,
        sig: u64,
        epoch: u64,
        priority: Priority,
        deadline: Instant,
    ) -> BatchRequest {
        BatchRequest {
            query: Arc::clone(query),
            sig,
            epoch,
            priority,
            deadline,
            ticket: Arc::new(TicketState::new()),
        }
    }

    #[test]
    fn batcher_merges_equal_queries_only() {
        let base = Instant::now();
        let q1 = Arc::new(product_query());
        let q2 = Arc::new(assembly_query());
        let mut b = Batcher::new(8);
        assert!(!b.offer(req(
            &q1,
            1,
            0,
            Priority::Normal,
            base + Duration::from_millis(50)
        )));
        assert!(b.offer(req(
            &q1,
            1,
            0,
            Priority::High,
            base + Duration::from_millis(10)
        )));
        // Same signature (simulated hash collision), different query: the
        // structural-equality check must refuse the merge.
        assert!(!b.offer(req(
            &q2,
            1,
            0,
            Priority::Normal,
            base + Duration::from_millis(20)
        )));
        // Different epoch never merges.
        assert!(!b.offer(req(
            &q1,
            1,
            1,
            Priority::Normal,
            base + Duration::from_millis(20)
        )));
        assert_eq!(b.len(), 3);

        let first = b.pop_earliest().unwrap();
        assert_eq!(first.members.len(), 2, "the merged batch is most urgent");
        assert_eq!(first.priority, Priority::High, "priority upgraded by merge");
        assert_eq!(
            first.deadline,
            base + Duration::from_millis(10),
            "batch deadline is the earliest member deadline"
        );
    }

    #[test]
    fn batcher_pops_priority_then_deadline() {
        let base = Instant::now();
        let q = Arc::new(product_query());
        let mut b = Batcher::new(8);
        b.offer(req(
            &q,
            1,
            0,
            Priority::Low,
            base + Duration::from_millis(1),
        ));
        b.offer(req(
            &q,
            2,
            1,
            Priority::Normal,
            base + Duration::from_millis(90),
        ));
        b.offer(req(
            &q,
            3,
            2,
            Priority::Normal,
            base + Duration::from_millis(40),
        ));
        let order: Vec<u64> = std::iter::from_fn(|| b.pop_earliest().map(|b| b.epoch)).collect();
        // Normal beats Low even with a later deadline; EDF within a class.
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn batcher_respects_max_batch() {
        let base = Instant::now();
        let q = Arc::new(product_query());
        let mut b = Batcher::new(2);
        for _ in 0..5 {
            b.offer(req(
                &q,
                1,
                0,
                Priority::Normal,
                base + Duration::from_millis(10),
            ));
        }
        let sizes: Vec<usize> =
            std::iter::from_fn(|| b.pop_earliest().map(|b| b.members.len())).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 5);
        assert!(sizes.iter().all(|&s| s <= 2), "{sizes:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary interleavings of offers (over a pool of distinct
        /// queries, epochs, priorities, deadlines) and pops: every batch
        /// ever formed is homogeneous — one query, one epoch — sized
        /// within max_batch, with the batch deadline equal to its earliest
        /// member's and the batch priority equal to its most urgent
        /// member's.
        #[test]
        fn batches_never_mix_queries_or_epochs(
            ops in collection::vec(
                ((0usize..4, 0u64..3), (0usize..3, 0u64..100, 0u64..5)),
                1..120,
            ),
            max_batch in 1usize..6,
        ) {
            let base = Instant::now();
            let pool: Vec<Arc<QueryGraph>> = (0..4)
                .map(|i| {
                    let mut q = QueryGraph::new();
                    let t = q.add_target("Automobile");
                    let s = q.add_specific(&format!("Country_{i}"), "Country");
                    q.add_edge(t, "assembly", s);
                    Arc::new(q)
                })
                .collect();
            let mut batcher = Batcher::new(max_batch);
            let check = |batch: &Batch| -> std::result::Result<(), TestCaseError> {
                prop_assert!(batch.members.len() <= max_batch);
                prop_assert!(!batch.members.is_empty());
                let mut min_deadline = batch.members[0].deadline;
                let mut best_rank = batch.members[0].priority.rank();
                for m in &batch.members {
                    prop_assert_eq!(m.sig, batch.sig);
                    prop_assert_eq!(m.epoch, batch.epoch);
                    prop_assert!(*m.query == *batch.query,
                        "a batch must hold one query shape only");
                    min_deadline = min_deadline.min(m.deadline);
                    best_rank = best_rank.min(m.priority.rank());
                }
                prop_assert_eq!(batch.deadline, min_deadline);
                prop_assert_eq!(batch.priority.rank(), best_rank);
                Ok(())
            };
            let mut offered = 0usize;
            let mut popped = 0usize;
            for ((qi, epoch), (prio, deadline_ms, pop_after)) in ops {
                let query = &pool[qi];
                let priority = Priority::ALL[prio];
                batcher.offer(req(
                    query,
                    query_signature(query),
                    epoch,
                    priority,
                    base + Duration::from_millis(deadline_ms),
                ));
                offered += 1;
                for batch in &batcher.ready {
                    check(batch)?;
                }
                if pop_after == 0 {
                    if let Some(batch) = batcher.pop_earliest() {
                        check(&batch)?;
                        popped += batch.members.len();
                    }
                }
            }
            // Nothing is lost: offered == popped + still pending.
            prop_assert_eq!(offered, popped + batcher.pending_requests());
        }
    }

    #[test]
    fn signature_distinguishes_structure() {
        let q1 = product_query();
        let q2 = assembly_query();
        assert_eq!(query_signature(&q1), query_signature(&product_query()));
        assert_ne!(query_signature(&q1), query_signature(&q2));
    }
}
