//! Fleet statistics and instruments of the query service.
//!
//! [`crate::live::LiveQueryService`] is the layer a server embeds: many
//! client threads issue `&self` queries against one shared engine runtime
//! (similarity-row cache, persistent worker pool) while the service
//! aggregates fleet-level statistics (query counts, error counts,
//! certification and time-bound-hit rates, latency percentiles) with
//! lock-free atomics. This module holds those statistics and the
//! registry instruments behind them.

use crate::answer::QueryResult;
use crate::error::Result;
use crate::trace::QueryTrace;
use obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// Aggregated service counters (a consistent-enough snapshot; counters are
/// updated independently, so ratios across fields can be off by in-flight
/// queries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Successfully answered queries (exact + time-bounded).
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Of the successful queries, how many ran the time-bounded path.
    pub time_bounded: u64,
    /// Successful queries whose TA assembly certified the top-k.
    pub certified: u64,
    /// Time-bounded queries stopped by the bound (rather than exhaustion).
    pub time_bound_hits: u64,
    /// Summed wall-clock microseconds across successful queries.
    pub total_elapsed_us: u64,
    /// Summed final matches returned across successful queries.
    pub total_matches: u64,
    /// Epoch of the graph snapshot the service currently answers from
    /// (stays 0 for a store that never commits).
    pub epoch: u64,
    /// Engine rebuilds triggered by new epochs.
    pub engine_refreshes: u64,
    /// Edges the current snapshot's delta overlay added on top of its base
    /// CSR (0 when static or freshly compacted).
    pub delta_edges: u64,
    /// Edges tombstoned in the current snapshot's delta overlay.
    pub delta_tombstones: u64,
    /// Storage shards behind the graph the service answers from (1 for
    /// monolithic stores).
    pub shard_count: u64,
    /// Total live triples in the served graph.
    pub graph_edges: u64,
    /// Median per-query latency (µs) over completed queries, from the
    /// registry histogram (bucket-upper-bound semantics, ≤ 1/32 relative
    /// error).
    pub latency_p50_us: u64,
    /// 90th-percentile per-query latency (µs).
    pub latency_p90_us: u64,
    /// 99th-percentile per-query latency (µs).
    pub latency_p99_us: u64,
    /// Exact worst-case per-query latency (µs).
    pub latency_max_us: u64,
}

impl ServiceStats {
    /// Queries that completed with an answer — the only population the
    /// latency gauge may average over. Failed queries contribute neither
    /// elapsed time (`total_elapsed_us` sums successes only) nor count;
    /// dividing by `queries + errors` instead would drag the gauge toward
    /// zero exactly when the service is misbehaving.
    pub fn completed(&self) -> u64 {
        self.queries
    }

    /// Total requests seen, completed and failed.
    pub fn attempted(&self) -> u64 {
        self.queries + self.errors
    }

    /// Mean per-query latency in microseconds over **completed** queries
    /// only (see [`ServiceStats::completed`]).
    pub fn mean_latency_us(&self) -> f64 {
        if self.completed() == 0 {
            0.0
        } else {
            self.total_elapsed_us as f64 / self.completed() as f64
        }
    }
}

/// Lock-free fleet counters of [`crate::live::LiveQueryService`]. All
/// instruments live in the owning service's [`MetricsRegistry`], so they
/// surface in its [`obs::MetricsSnapshot`] exposition for free;
/// [`ServiceCounters::snapshot`] derives the latency aggregates (sum, mean,
/// percentiles, max) from the registry histogram instead of tracking them
/// separately.
pub(crate) struct ServiceCounters {
    queries: Counter,
    errors: Counter,
    time_bounded: Counter,
    certified: Counter,
    time_bound_hits: Counter,
    total_matches: Counter,
    latency_us: Histogram,
}

impl ServiceCounters {
    /// Registers the fleet instruments into `registry`.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        Self {
            queries: registry.counter("sgq_queries_total", "successfully answered queries"),
            errors: registry.counter("sgq_errors_total", "queries that returned an error"),
            time_bounded: registry.counter(
                "sgq_time_bounded_total",
                "successful queries that ran the time-bounded (TBQ) path",
            ),
            certified: registry.counter(
                "sgq_certified_total",
                "successful queries whose TA assembly certified the top-k",
            ),
            time_bound_hits: registry.counter(
                "sgq_time_bound_hits_total",
                "time-bounded queries stopped by the bound rather than exhaustion",
            ),
            total_matches: registry.counter(
                "sgq_matches_total",
                "final matches returned across successful queries",
            ),
            latency_us: registry.histogram(
                "sgq_query_latency_us",
                "per-query wall time in microseconds, successful queries only",
            ),
        }
    }

    /// Records one query outcome and passes the result through.
    pub(crate) fn record(
        &self,
        result: Result<QueryResult>,
        time_bounded: bool,
    ) -> Result<QueryResult> {
        match &result {
            Ok(r) => {
                self.queries.inc();
                if time_bounded {
                    self.time_bounded.inc();
                }
                if r.stats.ta_certified {
                    self.certified.inc();
                }
                if r.stats.time_bound_hit {
                    self.time_bound_hits.inc();
                }
                self.latency_us.record(r.stats.elapsed_us);
                self.total_matches.add(r.matches.len() as u64);
            }
            Err(_) => {
                self.errors.inc();
            }
        }
        result
    }

    /// Snapshot into the query-flow fields of [`ServiceStats`] (epoch/delta
    /// fields stay at their defaults — the caller fills them if it has a
    /// versioned store behind it). Latency aggregates and percentiles come
    /// from one histogram snapshot, so they are mutually coherent.
    pub(crate) fn snapshot(&self) -> ServiceStats {
        let latency = self.latency_us.snapshot();
        ServiceStats {
            queries: self.queries.get(),
            errors: self.errors.get(),
            time_bounded: self.time_bounded.get(),
            certified: self.certified.get(),
            time_bound_hits: self.time_bound_hits.get(),
            total_elapsed_us: latency.sum(),
            total_matches: self.total_matches.get(),
            latency_p50_us: latency.p50(),
            latency_p90_us: latency.p90(),
            latency_p99_us: latency.p99(),
            latency_max_us: latency.max(),
            ..ServiceStats::default()
        }
    }
}

/// Per-phase wall-time histograms fed by sampled / explicit
/// [`QueryTrace`]s.
pub(crate) struct PhaseHistograms {
    plan_ns: Histogram,
    seed_ns: Histogram,
    expand_ns: Histogram,
    merge_ns: Histogram,
    total_ns: Histogram,
}

impl PhaseHistograms {
    /// Registers the phase histograms (one `sgq_phase_ns` family, labeled
    /// by phase) into `registry`.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        let phase = |name: &str| {
            registry.histogram_labeled(
                "sgq_phase_ns",
                "phase",
                name,
                "per-phase wall time (ns) of traced query executions",
            )
        };
        Self {
            plan_ns: phase("plan"),
            seed_ns: phase("seed"),
            expand_ns: phase("expand"),
            merge_ns: phase("merge"),
            total_ns: phase("total"),
        }
    }

    /// Folds one trace into the histograms. `plan_ns` is skipped when zero
    /// (prepared executions plan at preparation time, and a zero would
    /// drag the plan percentiles to nothing).
    pub(crate) fn observe(&self, trace: &QueryTrace) {
        if trace.plan_ns > 0 {
            self.plan_ns.record(trace.plan_ns);
        }
        self.seed_ns.record(trace.seed_ns);
        self.expand_ns.record(trace.expand_ns);
        self.merge_ns.record(trace.merge_ns);
        self.total_ns.record(trace.total_ns);
    }
}

/// Shard/epoch/delta gauges refreshed on every
/// [`crate::live::LiveQueryService::metrics`] call and before every served
/// scrape ([`crate::sched::SchedBackend::refresh_gauges`]).
pub(crate) struct ServiceGauges {
    epoch: Gauge,
    shard_count: Gauge,
    graph_edges: Gauge,
    delta_edges: Gauge,
    delta_tombstones: Gauge,
}

impl ServiceGauges {
    /// Registers the gauges into `registry`.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        Self {
            epoch: registry.gauge(
                "sgq_epoch",
                "graph epoch the service answers from (0 for static graphs)",
            ),
            shard_count: registry.gauge("sgq_shard_count", "storage shards behind the service"),
            graph_edges: registry.gauge("sgq_graph_edges", "live triples in the served graph"),
            delta_edges: registry.gauge(
                "sgq_delta_edges",
                "edges the current snapshot's delta overlay adds on top of its base CSR",
            ),
            delta_tombstones: registry.gauge(
                "sgq_delta_tombstones",
                "edges tombstoned in the current snapshot's delta overlay",
            ),
        }
    }

    /// Refreshes the gauges from a stats snapshot.
    pub(crate) fn refresh(&self, stats: &ServiceStats) {
        self.epoch.set(stats.epoch as i64);
        self.shard_count.set(stats.shard_count as i64);
        self.graph_edges.set(stats.graph_edges as i64);
        self.delta_edges.set(stats.delta_edges as i64);
        self.delta_tombstones.set(stats.delta_tombstones as i64);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SgqConfig;
    use crate::live::LiveQueryService;
    use crate::query::QueryGraph;
    use embedding::PredicateSpace;
    use kgraph::{GraphBuilder, KnowledgeGraph, VersionedGraph};
    use lexicon::TransformationLibrary;
    use std::sync::Arc;

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

    /// A service over a store that never commits — the static case.
    fn idle_service<'a>(
        g: &KnowledgeGraph,
        space: &'a PredicateSpace,
        lib: &'a TransformationLibrary,
        config: SgqConfig,
    ) -> LiveQueryService<'a> {
        LiveQueryService::new(Arc::new(VersionedGraph::new(g.clone())), space, lib, config)
    }

    fn config() -> SgqConfig {
        SgqConfig {
            k: 5,
            tau: 0.0,
            ..SgqConfig::default()
        }
    }

    fn invalid_config() -> SgqConfig {
        SgqConfig {
            k: 0,
            ..SgqConfig::default()
        }
    }

    #[test]
    fn service_counts_queries_and_matches() {
        let (g, space, lib) = fixture();
        let service = idle_service(&g, &space, &lib, config());
        let q = product_query();
        for _ in 0..3 {
            let r = service.query(&q).unwrap();
            assert_eq!(r.matches.len(), 2);
        }
        let stats = service.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.total_matches, 6);
        assert_eq!(stats.certified, 3);
        assert!(stats.mean_latency_us() > 0.0);
    }

    /// Regression: the latency gauge must average over completed queries
    /// only. A service interleaving successes with failures must report
    /// exactly the mean of the successful runs — errors add nothing to the
    /// numerator, so counting them in the denominator would understate
    /// latency by the failure rate (3 failures against 3 successes would
    /// halve the gauge).
    #[test]
    fn mean_latency_ignores_failed_queries() {
        let (g, space, lib) = fixture();
        let service = idle_service(&g, &space, &lib, config());
        let good = product_query();
        let bad = QueryGraph::new(); // no target node: always an error
        for _ in 0..3 {
            service.query(&good).unwrap();
            assert!(service.query(&bad).is_err());
        }
        let stats = service.stats();
        assert_eq!(stats.completed(), 3);
        assert_eq!(stats.errors, 3);
        assert_eq!(stats.attempted(), 6);
        let success_only_mean = stats.total_elapsed_us as f64 / stats.queries as f64;
        assert_eq!(
            stats.mean_latency_us(),
            success_only_mean,
            "errors must not enter the latency denominator"
        );
        assert!(stats.mean_latency_us() > 0.0);

        // A service that has only ever failed reports 0, not NaN.
        let failing = idle_service(&g, &space, &lib, invalid_config());
        assert!(failing.query(&good).is_err());
        assert_eq!(failing.stats().mean_latency_us(), 0.0);
    }

    /// An in-memory store is one shard holding the whole graph.
    #[test]
    fn in_memory_store_reports_one_shard() {
        let (g, space, lib) = fixture();
        let stats = idle_service(&g, &space, &lib, config()).stats();
        assert_eq!(stats.shard_count, 1);
        assert_eq!(stats.graph_edges, 2);
    }

    /// [`ServiceStats`] percentiles come straight from the registry's
    /// latency histogram and are coherent; deterministic 1-in-N sampling
    /// populates the trace sink; and `metrics()` renders the whole
    /// registry in both exposition formats with the gauges refreshed.
    #[test]
    fn stats_expose_registry_percentiles_and_sampling_fills_the_sink() {
        let (g, space, lib) = fixture();
        let service = idle_service(
            &g,
            &space,
            &lib,
            SgqConfig {
                trace_sample_every: 2,
                ..config()
            },
        );
        let q = product_query();
        for _ in 0..8 {
            service.query(&q).unwrap();
        }

        let stats = service.stats();
        assert!(stats.latency_max_us > 0, "8 queries recorded wall time");
        assert!(stats.latency_p50_us <= stats.latency_p90_us);
        assert!(stats.latency_p90_us <= stats.latency_p99_us);
        assert!(stats.latency_p99_us <= stats.latency_max_us);
        assert!(
            stats.mean_latency_us() <= stats.latency_max_us as f64,
            "sum/count/max are read from the same buckets"
        );

        // Ticks 0, 2, 4, 6 of the 1-in-2 sampler record.
        assert_eq!(service.traces().recorded(), 4);
        let traces = service.traces().recent();
        assert!(traces[0].total_ns > 0);
        assert_eq!(traces[0].subqueries, 1);

        let snap = service.metrics();
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE sgq_queries_total counter"));
        assert!(prom.contains("sgq_queries_total 8"));
        assert!(prom.contains("# TYPE sgq_query_latency_us summary"));
        assert!(prom.contains("sgq_query_latency_us_count 8"));
        assert!(
            prom.contains("sgq_phase_ns{phase=\"expand\",quantile=\"0.5\"}"),
            "sampled phase histograms render with their labels:\n{prom}"
        );
        assert!(
            prom.contains("sgq_graph_edges 2"),
            "metrics() refreshes the gauges before snapshotting"
        );

        // An untouched sampler records nothing and the off path never
        // registers a trace.
        let quiet = idle_service(&g, &space, &lib, config());
        quiet.query(&q).unwrap();
        assert_eq!(quiet.traces().recorded(), 0);
        assert!(quiet.traces().is_empty());
    }

    /// The explicit traced API returns the trace to the caller instead of
    /// the sink, and still counts the query in the service stats.
    #[test]
    fn query_traced_returns_the_trace_and_counts_the_query() {
        let (g, space, lib) = fixture();
        let service = idle_service(&g, &space, &lib, config());
        let (result, trace) = service.query_traced(&product_query()).unwrap();
        assert_eq!(result.matches.len(), 2);
        assert!(trace.total_ns > 0);
        assert!(trace.plan_ns > 0, "ad-hoc queries pay the plan phase");
        assert_eq!(trace.matches, 2);
        assert!(
            service.traces().is_empty(),
            "explicit traces bypass the sink"
        );
        assert_eq!(service.stats().queries, 1);
    }

    #[test]
    fn prepared_execution_shares_cached_rows() {
        let (g, space, lib) = fixture();
        let service = idle_service(&g, &space, &lib, config());
        let prepared = service.prepare(&product_query()).unwrap();
        let fresh = service.query(&product_query()).unwrap();
        let replay = service.execute(&prepared).unwrap();
        assert_eq!(replay.matches, fresh.matches);
        let sim = service.similarity_stats();
        assert!(
            sim.row_hits >= 1,
            "second preparation of the same predicate must hit the row cache: {sim:?}"
        );
    }
}
