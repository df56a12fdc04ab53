//! The query service: the multi-client front-end over a
//! [`VersionedGraph`].
//!
//! [`LiveQueryService`] serves graphs that change underneath the traffic,
//! and static graphs as a store that never commits
//! (`LiveQueryService::new(Arc::new(VersionedGraph::new(graph)), …)`).
//! The moving part is the **epoch engine**: one
//! `Arc<SgqEngine<GraphSnapshot>>` built against one
//! published epoch. Every query *pins* the current epoch engine for its
//! whole execution — a commit or compaction landing mid-query cannot tear
//! its view — and the service lazily swaps in a fresh engine when it
//! observes a newer epoch (one lock-free atomic compare per query on the
//! fast path).
//!
//! Consistency contract:
//!
//! * an ad-hoc query sees the **newest committed epoch** at the moment it
//!   starts, and exactly that epoch until it finishes;
//! * a [`LivePreparedQuery`] pins the epoch it was prepared against for its
//!   whole lifetime: executing it is **bit-identical** before and after any
//!   number of later commits (re-prepare to pick up new data);
//! * the similarity-row cache is shared *across* epoch engines (rows
//!   survive commits; vocabulary growth invalidates them — see
//!   [`SimilarityIndex::ensure_vocab`]).
//!
//! Engine rebuild cost per adopted epoch is `O(n)` (φ-index) plus
//! `O(n + m)` (degree statistics) — amortised over all queries between
//! commits, not paid per query.

use crate::answer::QueryResult;
use crate::config::SgqConfig;
use crate::engine::{PreparedQuery, SgqEngine};
use crate::error::{Result, SgqError};
use crate::query::QueryGraph;
use crate::runtime::WorkerPool;
use crate::semgraph::weight_transform;
use crate::service::{PhaseHistograms, ServiceCounters, ServiceGauges, ServiceStats};
use crate::timebound::TimeBoundConfig;
use crate::trace::{tick_sampled, QueryTrace, TraceSink};
use embedding::{PredicateSpace, SimilarityIndex, SimilarityIndexStats};
use kgraph::{
    GraphSnapshot, GraphView, KnowledgeGraph, Partitioner, RecoveryReport, VersionedGraph,
};
use lexicon::TransformationLibrary;
use obs::{Counter, MetricsRegistry, MetricsSnapshot};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, RwLock};

/// File name of the saved predicate semantic space.
pub const SPACE_FILE: &str = "space.kgv";
/// File name of the transformation library (JSON — it is tiny and benefits
/// from being hand-inspectable).
pub const LIBRARY_FILE: &str = "library.json";

/// An engine pinned to one published epoch of the versioned graph.
pub type EpochEngine<'a> = SgqEngine<'a, GraphSnapshot>;

/// A prepared query pinned — together with the engine that compiled it —
/// to the epoch it was prepared against. Executions replay bit-identically
/// regardless of commits that happened since; call
/// [`LiveQueryService::prepare`] again to adopt newer data.
pub struct LivePreparedQuery<'a> {
    prepared: PreparedQuery,
    engine: Arc<EpochEngine<'a>>,
}

impl<'a> LivePreparedQuery<'a> {
    /// The epoch this query is pinned to.
    pub fn epoch(&self) -> u64 {
        self.engine.graph().epoch()
    }

    /// The underlying compiled query.
    pub fn prepared(&self) -> &PreparedQuery {
        &self.prepared
    }
}

/// A query front-end serving many concurrent clients over a live,
/// versioned graph (see module docs).
pub struct LiveQueryService<'a> {
    versioned: Arc<VersionedGraph>,
    space: &'a PredicateSpace,
    library: &'a TransformationLibrary,
    config: SgqConfig,
    /// Shared across epoch engines so similarity rows survive commits.
    sim_index: Arc<SimilarityIndex<'a>>,
    /// Shared across epoch engines so adopting an epoch spawns no threads.
    pool: Arc<WorkerPool>,
    /// The engine for the newest adopted epoch.
    current: RwLock<Arc<EpochEngine<'a>>>,
    /// Serialises engine rebuilds so racing clients build one engine, not N.
    rebuild: Mutex<()>,
    registry: Arc<MetricsRegistry>,
    counters: ServiceCounters,
    phases: PhaseHistograms,
    gauges: ServiceGauges,
    traces: TraceSink,
    /// Service-level sampling tick: epoch engines are rebuilt on every
    /// commit, so an engine-owned counter would reset mid-stream and break
    /// the deterministic 1-in-N cadence.
    trace_tick: AtomicU64,
    refreshes: Counter,
    checkpoints: Counter,
    rebalances: Counter,
    /// Deployment directory when built via [`ShardedDeployment::service`];
    /// enables [`Self::checkpoint`] and [`Self::rebalance`]. No partitioner
    /// is stored alongside it: the authoritative assignment lives with the
    /// attached shard WALs ([`VersionedGraph::partitioner`]), so a
    /// rebalance swaps it in one place and no stale copy survives here.
    durable: Option<PathBuf>,
    /// Per-epoch cache of the sharded layout's heaviest-shard triple count
    /// (`(epoch, max_shard_edges)`), so [`Self::stats`] pays the O(m)
    /// ownership scan once per adopted epoch, not per call.
    shard_gauge_cache: Mutex<Option<(u64, u64)>>,
}

impl<'a> LiveQueryService<'a> {
    /// Builds the service and its first epoch engine from the currently
    /// published snapshot.
    pub fn new(
        versioned: Arc<VersionedGraph>,
        space: &'a PredicateSpace,
        library: &'a TransformationLibrary,
        config: SgqConfig,
    ) -> Self {
        Self::with_durable(versioned, space, library, config, None)
    }

    fn with_durable(
        versioned: Arc<VersionedGraph>,
        space: &'a PredicateSpace,
        library: &'a TransformationLibrary,
        config: SgqConfig,
        durable: Option<PathBuf>,
    ) -> Self {
        let sim_index = Arc::new(SimilarityIndex::with_transform(space, weight_transform));
        let pool = SgqEngine::<GraphSnapshot>::default_pool(&config);
        let engine = Arc::new(SgqEngine::with_runtime(
            versioned.snapshot(),
            space,
            library,
            config.clone(),
            Arc::clone(&sim_index),
            Arc::clone(&pool),
        ));
        let registry = Arc::new(MetricsRegistry::new());
        let counters = ServiceCounters::new(&registry);
        let phases = PhaseHistograms::new(&registry);
        let gauges = ServiceGauges::new(&registry);
        let refreshes = registry.counter(
            "sgq_engine_refreshes_total",
            "epoch-engine rebuilds triggered by newly published epochs",
        );
        let checkpoints = registry.counter(
            "sgq_checkpoints_total",
            "snapshot checkpoints written back to the deployment directory",
        );
        let rebalances = registry.counter(
            "sgq_rebalances_total",
            "shard rebalances migrated through the epoch manifest",
        );
        Self {
            versioned,
            space,
            library,
            config,
            sim_index,
            pool,
            current: RwLock::new(engine),
            rebuild: Mutex::new(()),
            registry,
            counters,
            phases,
            gauges,
            traces: TraceSink::default(),
            trace_tick: AtomicU64::new(0),
            refreshes,
            checkpoints,
            rebalances,
            durable,
            shard_gauge_cache: Mutex::new(None),
        }
    }

    /// Publishes what recovery observed as registry gauges — called by
    /// [`ShardedDeployment::service`] so WAL-replay figures surface in
    /// [`Self::metrics`].
    fn record_boot(&self, recovery: &RecoveryReport) {
        let g = |name: &str, help: &str, v: i64| self.registry.gauge(name, help).set(v);
        g(
            "sgq_recovery_ops_replayed",
            "WAL insert/delete records replayed onto the base snapshot at boot",
            recovery.ops_replayed as i64,
        );
        g(
            "sgq_recovery_skipped_ops",
            "WAL records skipped because the base snapshot already contained their epoch",
            recovery.skipped_ops as i64,
        );
        g(
            "sgq_recovery_epochs_replayed",
            "epoch markers (commits + compactions) replayed at boot",
            recovery.epochs_replayed as i64,
        );
        g(
            "sgq_recovery_recovered_epoch",
            "the epoch the store recovered to at boot",
            recovery.recovered_epoch as i64,
        );
        g(
            "sgq_recovery_torn_tail",
            "1 when the WAL ended in a torn record (crash mid-append), else 0",
            recovery.torn_tail as i64,
        );
        g(
            "sgq_recovery_discarded_ops",
            "clean but uncommitted WAL records dropped at boot",
            recovery.discarded_ops as i64,
        );
    }

    /// The underlying versioned store (hand this to your writer thread).
    pub fn versioned(&self) -> &Arc<VersionedGraph> {
        &self.versioned
    }

    /// The newest epoch the store has *published* (which [`Self::pin`]
    /// would adopt). May run ahead of [`ServiceStats::epoch`], which
    /// reports the newest *adopted* epoch.
    pub fn published_epoch(&self) -> u64 {
        self.versioned.epoch()
    }

    /// The engine configuration every epoch engine is built with.
    pub(crate) fn sgq_config(&self) -> &SgqConfig {
        &self.config
    }

    /// The worker pool shared across epoch engines.
    pub(crate) fn worker_pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Pins the newest adopted epoch's engine. If the store has published a
    /// newer epoch, one caller rebuilds the engine (others keep serving the
    /// previous epoch rather than queueing behind the rebuild).
    pub fn pin(&self) -> Arc<EpochEngine<'a>> {
        let current = self.current.read().unwrap().clone();
        let newest = self.versioned.epoch();
        if current.graph().epoch() == newest {
            return current;
        }
        // Stale: adopt the new epoch, but only once — losers of the
        // try_lock race answer from the epoch they already hold.
        let Ok(_guard) = self.rebuild.try_lock() else {
            return current;
        };
        let current = self.current.read().unwrap().clone();
        if current.graph().epoch() == self.versioned.epoch() {
            return current;
        }
        let engine = Arc::new(SgqEngine::with_runtime(
            self.versioned.snapshot(),
            self.space,
            self.library,
            self.config.clone(),
            Arc::clone(&self.sim_index),
            Arc::clone(&self.pool),
        ));
        *self.current.write().unwrap() = Arc::clone(&engine);
        self.refreshes.inc();
        engine
    }

    /// Blocks until the adopted epoch is at least the one published when
    /// `refresh` was called, then returns the adopted epoch. Useful after a
    /// commit when the writer wants the next query to observe its changes
    /// for sure. Bounded: commits landing *after* the call don't extend the
    /// wait, so a writer outpacing engine rebuilds cannot starve it.
    pub fn refresh(&self) -> u64 {
        let target = self.versioned.epoch();
        loop {
            let pinned = self.pin();
            let epoch = pinned.graph().epoch();
            if epoch >= target {
                return epoch;
            }
            // A concurrent rebuild was in flight; wait our turn.
            let _guard = self.rebuild.lock().unwrap();
        }
    }

    /// Exact top-k query (SGQ) against the newest adopted epoch. Every
    /// N-th call ([`SgqConfig::trace_sample_every`]) is invisibly traced
    /// into the service's [`TraceSink`] and phase histograms; answers stay
    /// bit-identical either way.
    pub fn query(&self, query: &QueryGraph) -> Result<QueryResult> {
        let engine = self.pin();
        if self.trace_sampled() {
            return self.record_sampled(engine.query_with_trace(query), engine.graph().epoch());
        }
        self.counters.record(engine.query(query), false)
    }

    /// Exact top-k query returning its [`QueryTrace`] (stamped with the
    /// epoch it ran against). Explicit traces go to the caller, not the
    /// sampled sink.
    pub fn query_traced(&self, query: &QueryGraph) -> Result<(QueryResult, QueryTrace)> {
        let engine = self.pin();
        self.record_traced(engine.query_with_trace(query), engine.graph().epoch())
    }

    /// Time-bounded approximate query (TBQ) against the newest epoch.
    pub fn query_time_bounded(
        &self,
        query: &QueryGraph,
        tb: &TimeBoundConfig,
    ) -> Result<QueryResult> {
        self.counters
            .record(self.pin().query_time_bounded(query, tb), true)
    }

    /// Compiles a query against the newest adopted epoch; the returned
    /// handle stays pinned there (see [`LivePreparedQuery`]).
    pub fn prepare(&self, query: &QueryGraph) -> Result<LivePreparedQuery<'a>> {
        let engine = self.pin();
        let prepared = engine.prepare(query)?;
        Ok(LivePreparedQuery { prepared, engine })
    }

    /// [`Self::prepare`] under an explicit configuration — the scheduler's
    /// per-request (k, τ) override path. Pins the current epoch exactly
    /// like `prepare`.
    pub fn prepare_with(
        &self,
        query: &QueryGraph,
        config: &SgqConfig,
    ) -> Result<LivePreparedQuery<'a>> {
        let engine = self.pin();
        let prepared = engine.prepare_with(query, config)?;
        Ok(LivePreparedQuery { prepared, engine })
    }

    /// Executes a prepared query on its pinned epoch (bit-identical replay
    /// regardless of commits since preparation), with the same invisible
    /// sampling as [`Self::query`].
    pub fn execute(&self, prepared: &LivePreparedQuery<'a>) -> Result<QueryResult> {
        if self.trace_sampled() {
            return self.record_sampled(
                prepared.engine.execute_with_trace(&prepared.prepared),
                prepared.epoch(),
            );
        }
        self.execute_unsampled(prepared)
    }

    /// [`Self::execute`] without the service's sampler — the scheduler's
    /// exact path, which samples batches on its own tick.
    pub(crate) fn execute_unsampled(
        &self,
        prepared: &LivePreparedQuery<'a>,
    ) -> Result<QueryResult> {
        self.counters
            .record(prepared.engine.execute(&prepared.prepared), false)
    }

    /// Executes a prepared query on its pinned epoch, returning its
    /// [`QueryTrace`] (see [`Self::query_traced`]).
    pub fn execute_traced(
        &self,
        prepared: &LivePreparedQuery<'a>,
    ) -> Result<(QueryResult, QueryTrace)> {
        self.record_traced(
            prepared.engine.execute_with_trace(&prepared.prepared),
            prepared.epoch(),
        )
    }

    /// Whether this call was picked by the deterministic 1-in-N sampler.
    fn trace_sampled(&self) -> bool {
        tick_sampled(&self.trace_tick, self.config.trace_sample_every)
    }

    fn record_sampled(
        &self,
        traced: Result<(QueryResult, QueryTrace)>,
        epoch: u64,
    ) -> Result<QueryResult> {
        match traced {
            Ok((result, mut trace)) => {
                trace.epoch = epoch;
                self.phases.observe(&trace);
                self.traces.push(trace);
                self.counters.record(Ok(result), false)
            }
            Err(e) => self.counters.record(Err(e), false),
        }
    }

    fn record_traced(
        &self,
        traced: Result<(QueryResult, QueryTrace)>,
        epoch: u64,
    ) -> Result<(QueryResult, QueryTrace)> {
        match traced {
            Ok((result, mut trace)) => {
                trace.epoch = epoch;
                self.phases.observe(&trace);
                let result = self.counters.record(Ok(result), false)?;
                Ok((result, trace))
            }
            Err(e) => self
                .counters
                .record(Err(e), false)
                .map(|r| (r, QueryTrace::default())),
        }
    }

    /// Executes a prepared query on its pinned epoch under a time bound.
    pub fn execute_time_bounded(
        &self,
        prepared: &LivePreparedQuery<'a>,
        tb: &TimeBoundConfig,
    ) -> Result<QueryResult> {
        self.counters.record(
            prepared.engine.execute_time_bounded(&prepared.prepared, tb),
            true,
        )
    }

    /// Aggregated counters, including the live epoch/delta gauges.
    ///
    /// An in-memory store reports one shard holding every triple. On a
    /// [`ShardedDeployment`]-backed service the shard gauges reflect
    /// the **durable layout**: the epoch snapshot the engine queries is the
    /// monolithic overlay view (live execution shards the on-disk layer,
    /// not the in-memory epoch view), so the ownership split is computed
    /// from the deployment's partitioner — once per adopted epoch, cached.
    pub fn stats(&self) -> ServiceStats {
        let engine = self.current.read().unwrap().clone();
        let snapshot = engine.graph();
        let graph_edges = snapshot.edge_count() as u64;
        let mut stats = ServiceStats {
            epoch: snapshot.epoch(),
            engine_refreshes: self.refreshes.get(),
            delta_edges: snapshot.delta_added_edges() as u64,
            delta_tombstones: snapshot.tombstone_count() as u64,
            shard_count: 1,
            graph_edges,
            max_shard_edges: graph_edges,
            ..self.counters.snapshot()
        };
        if self.durable.is_some() {
            if let Some(partitioner) = self.versioned.partitioner() {
                stats.shard_count = partitioner.shards() as u64;
                let epoch = snapshot.epoch();
                let mut cache = self.shard_gauge_cache.lock().unwrap();
                stats.max_shard_edges = match *cache {
                    Some((cached_epoch, max)) if cached_epoch == epoch => max,
                    _ => {
                        let max = Self::max_shard_edges(snapshot, &partitioner);
                        *cache = Some((epoch, max));
                        max
                    }
                };
            }
        }
        stats
    }

    /// The heaviest shard's triple count under `partitioner` — one O(m)
    /// ownership scan over the snapshot.
    fn max_shard_edges(snapshot: &GraphSnapshot, partitioner: &Partitioner) -> u64 {
        let mut counts = vec![0u64; partitioner.shards()];
        for (_, rec) in snapshot.edges() {
            let shard = partitioner.shard_of_label(snapshot.node_name(rec.src));
            if let Some(c) = counts.get_mut(shard) {
                *c += 1;
            }
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Similarity-row cache counters of the shared cross-epoch index.
    pub fn similarity_stats(&self) -> SimilarityIndexStats {
        self.sim_index.stats()
    }

    /// The service's metrics registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The sink holding recently sampled [`QueryTrace`]s.
    pub fn traces(&self) -> &TraceSink {
        &self.traces
    }

    /// Point-in-time snapshot of every registered metric — fleet counters,
    /// latency and phase histograms, epoch/delta/shard gauges, and (on
    /// deployment-backed services) the recovery and checkpoint figures.
    pub fn metrics(&self) -> MetricsSnapshot {
        let stats = self.stats();
        self.gauges.refresh(&stats);
        self.registry.snapshot()
    }

    /// Checkpoints the underlying store into the deployment directory:
    /// compacts the overlay (committing staged changes), writes the
    /// per-shard snapshot set, flips the manifest and truncates the WALs,
    /// after which cold start is one snapshot-set load plus empty logs.
    /// The next query adopts the compacted epoch via the normal refresh
    /// path.
    ///
    /// Only available on services built by [`ShardedDeployment::service`];
    /// run it from a maintenance thread — writers stall for the duration,
    /// readers keep answering from pinned snapshots.
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        let dir = self.durable.as_ref().ok_or_else(|| {
            SgqError::Storage(
                "service has no deployment directory (build it via ShardedDeployment::service)"
                    .into(),
            )
        })?;
        let partitioner = self.partitioner()?;
        let snapshot = self.versioned.checkpoint(dir, partitioner.clone())?;
        let epoch = snapshot.epoch();
        let mut snapshot_bytes = std::fs::metadata(kgraph::io::shard::meta_path(dir, epoch))
            .map(|m| m.len())
            .unwrap_or(0);
        for shard in 0..partitioner.shards() {
            snapshot_bytes +=
                std::fs::metadata(kgraph::io::shard::shard_snapshot_path(dir, shard, epoch))
                    .map(|m| m.len())
                    .unwrap_or(0);
        }
        self.checkpoints.inc();
        self.registry
            .gauge(
                "sgq_checkpoint_epoch",
                "epoch of the most recent checkpointed snapshot",
            )
            .set(snapshot.epoch() as i64);
        self.registry
            .gauge(
                "sgq_checkpoint_bytes",
                "on-disk size of the most recent checkpointed snapshot",
            )
            .set(snapshot_bytes as i64);
        Ok(CheckpointReport {
            epoch: snapshot.epoch(),
            nodes: snapshot.node_count(),
            edges: snapshot.edge_count(),
            snapshot_bytes,
        })
    }

    /// The current durable-layout partitioner of a sharded deployment.
    fn partitioner(&self) -> Result<Partitioner> {
        self.versioned.partitioner().ok_or_else(|| {
            SgqError::Storage(
                "service has no sharded deployment (build it via ShardedDeployment::service)"
                    .into(),
            )
        })
    }

    /// Re-partitions the sharded deployment to level the observed edge
    /// skew: derives a fresh assignment from the published snapshot's
    /// per-bucket edge counts ([`Partitioner::rebalanced`] — greedy
    /// longest-processing-time packing of the 512 source-label groups),
    /// then migrates through [`VersionedGraph::rebalance`]: one
    /// compaction, a snapshot set sliced by the new assignment, and a
    /// manifest flip as the single commit point. Readers keep answering
    /// from pinned epochs throughout and never observe a mixed assignment;
    /// the published epoch always bumps, which invalidates every
    /// epoch-keyed cache (plan cache, answer cache, shard gauges).
    ///
    /// Answers are bit-identical before and after: the assignment only
    /// decides which file/log a triple lives in, never its ids or
    /// adjacency order (the rebalance differential proves this through a
    /// crash cycle). Run it from a maintenance thread — writers stall for
    /// the compaction, like [`Self::checkpoint`].
    pub fn rebalance(&self) -> Result<RebalanceReport> {
        let Some(dir) = &self.durable else {
            return Err(SgqError::Storage(
                "service has no sharded deployment (build it via ShardedDeployment::service)"
                    .into(),
            ));
        };
        let old = self.partitioner()?;
        let snapshot = self.versioned.snapshot();
        let weights = kgraph::shard::bucket_weights(&snapshot);
        let new = old.rebalanced(&weights)?;
        let max_before = Self::max_shard_edges(&snapshot, &old);
        let published = self.versioned.rebalance(dir, new.clone())?;
        let max_after = Self::max_shard_edges(&published, &new);
        let moved_buckets = match (old.assignment(), new.assignment()) {
            (Some(a), Some(b)) => a.iter().zip(b).filter(|(x, y)| x != y).count(),
            // The hash-routed layout has no table; count buckets leaving
            // their hash-implied shard. Exact whenever the shard count
            // divides the bucket count (every power of two up to
            // MAX_SHARDS), an approximation otherwise.
            _ => new
                .assignment()
                .map(|table| {
                    table
                        .iter()
                        .enumerate()
                        .filter(|&(bucket, &shard)| bucket % new.shards() != usize::from(shard))
                        .count()
                })
                .unwrap_or(0),
        };
        self.rebalances.inc();
        self.registry
            .gauge(
                "sgq_rebalance_epoch",
                "epoch published by the most recent shard rebalance",
            )
            .set(published.epoch() as i64);
        Ok(RebalanceReport {
            epoch: published.epoch(),
            shard_count: new.shards(),
            moved_buckets,
            graph_edges: published.edge_count() as u64,
            max_shard_edges_before: max_before,
            max_shard_edges_after: max_after,
        })
    }
}

/// What [`LiveQueryService::rebalance`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceReport {
    /// The epoch the rebalanced layout published at.
    pub epoch: u64,
    /// Shards in the layout (unchanged by a rebalance).
    pub shard_count: usize,
    /// Source-label buckets whose owning shard changed.
    pub moved_buckets: usize,
    /// Live edges at the published epoch.
    pub graph_edges: u64,
    /// Heaviest shard's edge count under the old assignment.
    pub max_shard_edges_before: u64,
    /// Heaviest shard's edge count under the new assignment.
    pub max_shard_edges_after: u64,
}

impl RebalanceReport {
    /// Skew under the old assignment: heaviest shard ÷ ideal share.
    pub fn skew_before(&self) -> f64 {
        Self::skew(
            self.max_shard_edges_before,
            self.shard_count,
            self.graph_edges,
        )
    }

    /// Skew under the new assignment.
    pub fn skew_after(&self) -> f64 {
        Self::skew(
            self.max_shard_edges_after,
            self.shard_count,
            self.graph_edges,
        )
    }

    fn skew(max: u64, shards: usize, edges: u64) -> f64 {
        if edges == 0 {
            return 1.0;
        }
        (max * shards as u64) as f64 / edges as f64
    }
}

/// What [`LiveQueryService::checkpoint`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Epoch of the checkpointed (compacted) snapshot.
    pub epoch: u64,
    /// Entities in the snapshot.
    pub nodes: usize,
    /// Live edges in the snapshot.
    pub edges: usize,
    /// On-disk size of the snapshot set (meta file + shard slices).
    pub snapshot_bytes: u64,
}

/// A whole query deployment rooted in one directory: the epoch manifest
/// (the single coordinator), the vocabulary meta file, one edge slice and
/// one WAL per shard ([`kgraph::io::shard`]), plus the predicate semantic
/// space and the transformation library. Owns everything a
/// [`LiveQueryService`] borrows, so a service cold-starts from disk in two
/// calls:
///
/// ```ignore
/// let deployment = ShardedDeployment::open("/var/lib/semkg")?;
/// let service = deployment.service(SgqConfig::default());
/// ```
///
/// [`ShardedDeployment::create`] lays the directory out (one shard is the
/// plain single-store case); [`ShardedDeployment::open`] recovers it —
/// replaying committed WAL epochs on top of the snapshot set, tolerating
/// torn tails from a crash mid-append.
///
/// Scope: sharding is a property of the **durable layer** only —
/// snapshots, WALs, checkpointing, recovery, rebalancing. Every query runs
/// one A\* search per sub-query over the monolithic base ∪ overlay epoch
/// view, whatever the shard count on disk; [`LiveQueryService::stats`]
/// reports the deployment's shard gauges (`shard_count`, `max_shard_edges`,
/// [`ServiceStats::shard_skew`]) from the durable partitioner.
///
/// Writes go through [`ShardedDeployment::versioned`] exactly as for an
/// in-memory store and route to the shard WAL of the triple's source-node
/// label; commits fsync an epoch marker into *every* shard log before the
/// epoch publishes; [`LiveQueryService::checkpoint`] writes the whole
/// per-shard snapshot set and flips the manifest as one commit point — so
/// [`ShardedDeployment::open`] always recovers **all shards to one
/// consistent epoch**, bit-identical to a never-crashed store (the
/// differential test drives a commit → checkpoint → crash → recover cycle
/// against an in-memory reference).
pub struct ShardedDeployment {
    dir: PathBuf,
    space: PredicateSpace,
    library: TransformationLibrary,
    versioned: Arc<VersionedGraph>,
    partitioner: Partitioner,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for ShardedDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDeployment")
            .field("dir", &self.dir)
            .field("shards", &self.partitioner.shards())
            .field("predicates", &self.space.len())
            .field("recovery", &self.recovery)
            .field("store", &self.versioned.stats())
            .finish()
    }
}

impl ShardedDeployment {
    /// Initialises `dir` as a fresh sharded deployment of `graph` (epoch 0)
    /// across `shards` shards. Refuses to overwrite an existing deployment
    /// (open it instead) and refuses the remains of a half-deleted one.
    pub fn create(
        dir: impl AsRef<Path>,
        graph: KnowledgeGraph,
        space: PredicateSpace,
        library: TransformationLibrary,
        shards: usize,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let partitioner = Partitioner::new(shards)?;
        std::fs::create_dir_all(&dir)
            .map_err(|e| SgqError::Storage(format!("create {}: {e}", dir.display())))?;
        if kgraph::io::shard::manifest_path(&dir).exists() {
            return Err(SgqError::Storage(format!(
                "{} already holds a sharded deployment (use ShardedDeployment::open)",
                dir.display()
            )));
        }
        // Shard WALs without a manifest are a half-deleted deployment;
        // recovering them into a supposedly fresh graph would replay
        // another deployment's history.
        if (0..shards).any(|s| kgraph::io::shard::wal_path(&dir, s).exists()) {
            return Err(SgqError::Storage(format!(
                "{} holds stale shard WALs with no manifest — refusing to create over the \
                 remains of another deployment (remove the wal-*.log files first)",
                dir.display()
            )));
        }
        // The manifest is written LAST (inside `io::shard::save`): a crash
        // mid-create leaves either a retryable manifest-less directory or
        // a complete, openable deployment.
        space.save(dir.join(SPACE_FILE))?;
        let library_file = std::fs::File::create(dir.join(LIBRARY_FILE))
            .map_err(|e| SgqError::Storage(format!("create {LIBRARY_FILE}: {e}")))?;
        serde_json::to_writer(std::io::BufWriter::new(library_file), &library)
            .map_err(|e| SgqError::Storage(format!("write {LIBRARY_FILE}: {e}")))?;
        kgraph::io::shard::save(&graph, &partitioner, 0, &dir)?;
        let (versioned, recovery) = VersionedGraph::recover(graph, 0, &dir, partitioner.clone())?;
        Ok(Self {
            dir,
            space,
            library,
            versioned: Arc::new(versioned),
            partitioner,
            recovery,
        })
    }

    /// Cold-starts the deployment at `dir`: reads the manifest (shard
    /// count and epoch), recomposes the per-shard snapshot set into the
    /// base graph, and replays the shard WALs merged back into arrival
    /// order (see
    /// [`kgraph::VersionedGraph::recover`] for the coordinated-
    /// epoch semantics, including partial marker fan-outs and torn tails).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let space = PredicateSpace::load(dir.join(SPACE_FILE))?;
        let library_path = dir.join(LIBRARY_FILE);
        let library_file = std::fs::File::open(&library_path)
            .map_err(|e| SgqError::Storage(format!("open {}: {e}", library_path.display())))?;
        let library: TransformationLibrary =
            serde_json::from_reader(std::io::BufReader::new(library_file))
                .map_err(|e| SgqError::Storage(format!("parse {}: {e}", library_path.display())))?;
        let (base, partitioner, epoch) = kgraph::io::shard::load(&dir)?;
        let (versioned, recovery) =
            VersionedGraph::recover(base, epoch, &dir, partitioner.clone())?;
        Ok(Self {
            dir,
            space,
            library,
            versioned: Arc::new(versioned),
            partitioner,
            recovery,
        })
    }

    /// Stands up a query service over this deployment;
    /// [`LiveQueryService::checkpoint`] writes the per-shard snapshot set
    /// back into the directory.
    pub fn service(&self, config: SgqConfig) -> LiveQueryService<'_> {
        let service = LiveQueryService::with_durable(
            Arc::clone(&self.versioned),
            &self.space,
            &self.library,
            config,
            Some(self.dir.clone()),
        );
        service.record_boot(&self.recovery);
        service
    }

    /// The durable versioned store (hand this to your writer thread).
    pub fn versioned(&self) -> &Arc<VersionedGraph> {
        &self.versioned
    }

    /// The loaded predicate semantic space.
    pub fn space(&self) -> &PredicateSpace {
        &self.space
    }

    /// The loaded transformation library.
    pub fn library(&self) -> &TransformationLibrary {
        &self.library
    }

    /// The layout's **current** partitioner: the one the attached shard
    /// logs route by, which a [`LiveQueryService::rebalance`] may have
    /// swapped since this deployment was opened.
    pub fn partitioner(&self) -> Partitioner {
        self.versioned
            .partitioner()
            .unwrap_or_else(|| self.partitioner.clone())
    }

    /// Number of shards in the layout.
    pub fn shards(&self) -> usize {
        self.partitioner.shards()
    }

    /// What recovery found in the shard WALs when this deployment was
    /// opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The deployment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::{GraphBuilder, GraphView, KnowledgeGraph};
    use std::sync::atomic::Ordering;

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

    fn config() -> SgqConfig {
        SgqConfig {
            k: 10,
            tau: 0.0,
            workers: 2,
            ..SgqConfig::default()
        }
    }

    #[test]
    fn adhoc_queries_observe_commits() {
        let (g, space, lib) = fixture();
        let service =
            LiveQueryService::new(Arc::new(VersionedGraph::new(g)), &space, &lib, config());
        assert_eq!(service.query(&product_query()).unwrap().matches.len(), 2);

        let v = Arc::clone(service.versioned());
        v.insert_triple(
            ("Lamando", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        // Staged only: still 2 answers.
        assert_eq!(service.query(&product_query()).unwrap().matches.len(), 2);
        v.commit();
        assert_eq!(service.query(&product_query()).unwrap().matches.len(), 3);

        let stats = service.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.engine_refreshes, 1);
        assert_eq!(stats.delta_edges, 1);
        assert_eq!(stats.delta_tombstones, 0);
    }

    /// Live-service observability: sampled traces are stamped with the
    /// epoch they executed at, checkpoints register their gauges, and a
    /// reopened deployment exposes the recovery report through the same
    /// registry.
    #[test]
    fn live_metrics_stamp_epochs_and_record_boot() {
        let dir = TestDir::new("obs");
        let deploy_dir = dir.0.join("kg");
        let (g, space, lib) = fixture();
        let deployment = ShardedDeployment::create(&deploy_dir, g, space, lib, 1).unwrap();
        let mut cfg = config();
        cfg.trace_sample_every = 1;
        let service = deployment.service(cfg.clone());
        let v = Arc::clone(deployment.versioned());

        assert_eq!(service.query(&product_query()).unwrap().matches.len(), 2);
        v.insert_triple(
            ("Lamando", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.commit();
        assert_eq!(service.query(&product_query()).unwrap().matches.len(), 3);

        // The trace sink survives the engine rebuild at the commit — it is
        // service-owned, not engine-owned — and each trace carries the
        // epoch its query answered from.
        assert_eq!(service.traces().recorded(), 2);
        let epochs: Vec<u64> = service.traces().recent().iter().map(|t| t.epoch).collect();
        assert_eq!(epochs, vec![0, 1], "traces are epoch-stamped, oldest first");

        let report = service.checkpoint().unwrap();
        let prom = service.metrics().to_prometheus();
        assert!(prom.contains("sgq_checkpoints_total 1"));
        assert!(prom.contains(&format!("sgq_checkpoint_epoch {}", report.epoch)));
        assert!(prom.contains(&format!("sgq_checkpoint_bytes {}", report.snapshot_bytes)));
        assert!(prom.contains("sgq_engine_refreshes_total"));
        drop(service);
        drop(v);
        drop(deployment);

        let reopened = ShardedDeployment::open(&deploy_dir).unwrap();
        let recovered = reopened.recovery().recovered_epoch;
        let service = reopened.service(cfg);
        let prom = service.metrics().to_prometheus();
        assert!(
            prom.contains(&format!("sgq_recovery_recovered_epoch {recovered}")),
            "recovery report registers as gauges:\n{prom}"
        );
    }

    #[test]
    fn prepared_queries_stay_pinned_to_their_epoch() {
        let (g, space, lib) = fixture();
        let service =
            LiveQueryService::new(Arc::new(VersionedGraph::new(g)), &space, &lib, config());
        let prepared = service.prepare(&product_query()).unwrap();
        assert_eq!(prepared.epoch(), 0);
        let before = service.execute(&prepared).unwrap();

        let v = Arc::clone(service.versioned());
        v.insert_triple(
            ("Lamando", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.delete_triple("BMW_320", "product", "Germany");
        v.commit();
        assert_eq!(service.refresh(), 1);

        // Bit-identical replay on the pinned epoch…
        let after = service.execute(&prepared).unwrap();
        assert_eq!(after.matches, before.matches);
        assert_eq!(prepared.epoch(), 0);
        // …while a re-prepare adopts the new epoch and new answers.
        let repinned = service.prepare(&product_query()).unwrap();
        assert_eq!(repinned.epoch(), 1);
        let fresh = service.execute(&repinned).unwrap();
        assert_ne!(fresh.matches, before.matches);
        let names: Vec<&str> = fresh
            .matches
            .iter()
            .map(|m| repinned.engine.graph().node_name(m.pivot))
            .collect();
        assert!(names.contains(&"Lamando"));
        assert!(!names.contains(&"BMW_320"));
    }

    #[test]
    fn compaction_is_transparent_to_results() {
        let (g, space, lib) = fixture();
        let service =
            LiveQueryService::new(Arc::new(VersionedGraph::new(g)), &space, &lib, config());
        let v = Arc::clone(service.versioned());
        v.insert_triple(
            ("Lamando", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.commit();
        let overlayed = service.query(&product_query()).unwrap();
        v.compact();
        let compacted = service.query(&product_query()).unwrap();
        assert_eq!(service.stats().epoch, 2);
        assert_eq!(
            service.stats().delta_edges,
            0,
            "compaction drained the overlay"
        );
        assert_eq!(compacted.matches.len(), overlayed.matches.len());
        for (a, b) in overlayed.matches.iter().zip(&compacted.matches) {
            assert_eq!(a.pivot, b.pivot, "node ids survive compaction");
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn vocabulary_growth_invalidates_shared_rows() {
        let (g, space, lib) = fixture();
        let service =
            LiveQueryService::new(Arc::new(VersionedGraph::new(g)), &space, &lib, config());
        let _ = service.query(&product_query()).unwrap();
        assert_eq!(service.similarity_stats().invalidations, 0);

        let v = Arc::clone(service.versioned());
        v.insert_triple(("Peter", "Person"), "designer", ("Audi_TT", "Automobile"));
        v.commit();
        let _ = service.query(&product_query()).unwrap();
        let sim = service.similarity_stats();
        assert_eq!(
            sim.invalidations, 1,
            "new predicate grew the vocabulary: {sim:?}"
        );

        // A query *using* the live-added predicate answers through its
        // identity row (exact-label matches only).
        let mut q = QueryGraph::new();
        let person = q.add_target("Person");
        let audi = q.add_specific("Audi_TT", "Automobile");
        q.add_edge(person, "designer", audi);
        let r = service.query(&q).unwrap();
        assert_eq!(r.matches.len(), 1);
        assert!((r.matches[0].score - 1.0).abs() < 1e-9);
    }

    struct TestDir(PathBuf);
    impl TestDir {
        fn new(label: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "sgq_live_{label}_{}_{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed),
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }
    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A deployment — the plain single-store case at one shard, and a
    /// sharded one — cold-starts with committed writes bit-identical and
    /// staged-but-uncommitted writes discarded, and a checkpoint (per-shard
    /// snapshot set + manifest flip + log truncation) compacts and
    /// survives the next restart.
    #[test]
    fn sharded_deployment_cold_starts_and_checkpoints() {
        for shards in [1usize, 4] {
            let dir = TestDir::new("sharded_deploy");
            let deploy_dir = dir.0.join("kg");
            let (g, space, lib) = fixture();
            let deployment = ShardedDeployment::create(&deploy_dir, g, space, lib, shards).unwrap();
            assert_eq!(deployment.shards(), shards);
            let service = deployment.service(config());
            let v = Arc::clone(deployment.versioned());
            v.insert_triple(
                ("Lamando", "Automobile"),
                "assembly",
                ("Germany", "Country"),
            );
            v.delete_triple("Audi_TT", "assembly", "Germany");
            v.commit();
            service.refresh();
            let live_answers = service.query(&product_query()).unwrap();
            // Staged, never committed: must not survive the crash. (Dropping
            // the last Arc flushes the buffered Ghost record, so the log
            // really holds a clean-but-uncommitted tail to discard.)
            v.insert_triple(("Ghost", "Automobile"), "assembly", ("Germany", "Country"));
            drop(service);
            drop(deployment);
            drop(v);

            let reopened = ShardedDeployment::open(&deploy_dir).unwrap();
            assert_eq!(reopened.recovery().recovered_epoch, 1);
            assert_eq!(reopened.recovery().discarded_ops, 1);
            let service = reopened.service(config());
            let recovered = service.query(&product_query()).unwrap();
            assert_eq!(recovered.matches, live_answers.matches, "bit-identical");
            assert!(service.pin().graph().node_by_name("Ghost").is_none());
            // The shard gauges reflect the durable layout, not the
            // (monolithic) epoch view the engine queries.
            let stats = service.stats();
            assert_eq!(stats.shard_count, shards as u64);
            // 2 base edges + Lamando insert − Audi_TT delete = 2 live edges.
            assert_eq!(stats.graph_edges, 2);
            assert!(stats.max_shard_edges >= 1 && stats.max_shard_edges <= 2);
            assert!(stats.shard_skew() >= 1.0);

            // Checkpoint: compaction + per-shard snapshot set + manifest flip.
            let report = service.checkpoint().unwrap();
            assert_eq!(report.epoch, 2, "commit then compaction");
            assert_eq!(report.edges, 2);
            assert!(report.snapshot_bytes > 0, "sums the meta + shard files");
            // Post-checkpoint writes land in the fresh WALs.
            let v = Arc::clone(reopened.versioned());
            v.insert_triple(("Peter", "Person"), "designer", ("KIA_K5", "Automobile"));
            v.commit();
            service.refresh();
            let before = service.query(&product_query()).unwrap();
            drop(service);
            drop(reopened);

            let reopened = ShardedDeployment::open(&deploy_dir).unwrap();
            assert_eq!(reopened.recovery().skipped_ops, 0, "logs were truncated");
            assert_eq!(reopened.recovery().epochs_replayed, 1);
            let service = reopened.service(config());
            assert_eq!(
                service.query(&product_query()).unwrap().matches,
                before.matches
            );
            assert_eq!(service.stats().epoch, 3);
        }
    }

    #[test]
    fn create_refuses_to_overwrite_and_checkpoint_needs_a_dir() {
        let (g, space, lib) = fixture();
        // Invalid shard count.
        let dir = TestDir::new("guards");
        let err =
            ShardedDeployment::create(dir.0.join("kg"), g.clone(), space.clone(), lib.clone(), 0)
                .unwrap_err();
        assert!(err.to_string().contains("shard count"), "{err}");
        for shards in [1usize, 2] {
            let dir = TestDir::new("guards");
            let deploy_dir = dir.0.join("kg");
            let create = || {
                ShardedDeployment::create(
                    &deploy_dir,
                    g.clone(),
                    space.clone(),
                    lib.clone(),
                    shards,
                )
            };
            drop(create().unwrap());
            let err = create().unwrap_err();
            assert!(matches!(err, SgqError::Storage(_)), "{err:?}");
            assert!(err.to_string().contains("already holds"), "{err}");
            // Stale shard WALs without a manifest are the remains of another
            // deployment: refuse to replay them into a fresh one.
            std::fs::remove_file(kgraph::io::shard::manifest_path(&deploy_dir)).unwrap();
            let err = create().unwrap_err();
            assert!(err.to_string().contains("stale"), "{err}");
        }

        let service =
            LiveQueryService::new(Arc::new(VersionedGraph::new(g)), &space, &lib, config());
        let err = service.checkpoint().unwrap_err();
        assert!(err.to_string().contains("deployment directory"), "{err}");
    }

    #[test]
    fn errors_are_counted() {
        let (g, space, lib) = fixture();
        let service = LiveQueryService::new(
            Arc::new(VersionedGraph::new(g)),
            &space,
            &lib,
            SgqConfig {
                k: 0, // invalid
                ..SgqConfig::default()
            },
        );
        assert!(service.query(&product_query()).is_err());
        let stats = service.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.queries, 0);
    }
}
