//! Output checks: bit-identity against the direct path, request
//! accounting against the server's own scrape, and the lane contracts.

use std::sync::atomic::AtomicU64;

use semkg_server::Client;
use sgq::QueryResult;

use crate::inputs::Workload;
use crate::lanes::Recorder;
use crate::report::frac;

/// True when two answers agree bit for bit: pivots, scores, and every
/// part's path (nodes, edge ids, bindings, pss). Timing stats are ignored.
pub fn same_answer(a: &QueryResult, b: &QueryResult) -> bool {
    a.matches.len() == b.matches.len()
        && a.matches.iter().zip(&b.matches).all(|(x, y)| {
            x.pivot == y.pivot
                && x.score.to_bits() == y.score.to_bits()
                && x.parts.len() == y.parts.len()
                && x.parts.iter().zip(&y.parts).all(|(p, q)| {
                    p.source == q.source
                        && p.pivot == q.pivot
                        && p.pss.to_bits() == q.pss.to_bits()
                        && p.nodes == q.nodes
                        && p.edges == q.edges
                        && p.bindings == q.bindings
                })
        })
}

/// The server-side counters one scrape exposes, summed over labels.
#[derive(Debug, Default, Clone, Copy)]
pub struct Scrape {
    pub queries: f64,
    pub resp_exact: f64,
    pub resp_degraded: f64,
    pub resp_shed: f64,
    pub resp_failed: f64,
    pub submitted: f64,
    pub exact: f64,
    pub degraded: f64,
    pub shed: f64,
    pub failed: f64,
    pub cache_served: f64,
    pub plan_hits: f64,
    pub plan_misses: f64,
    pub batches: f64,
    pub batched: f64,
    /// Cumulative (not a delta): the scheduler's high-priority p99.
    pub high_p99_us: f64,
}

fn sum(text: &str, prefix: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#') && l.starts_with(prefix))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

impl Scrape {
    pub fn fetch(client: &mut Client) -> Result<Self, String> {
        let t = client.metrics().map_err(|e| format!("scrape: {e}"))?;
        let t = t.as_str();
        Ok(Self {
            queries: sum(t, "semkg_server_requests_total{kind=\"query\"}"),
            resp_exact: sum(t, "semkg_server_responses_total{outcome=\"exact\"}"),
            resp_degraded: sum(t, "semkg_server_responses_total{outcome=\"degraded\"}"),
            resp_shed: sum(t, "semkg_server_responses_total{outcome=\"shed\"}"),
            resp_failed: sum(t, "semkg_server_responses_total{outcome=\"failed\"}"),
            submitted: sum(t, "sgq_sched_submitted_total"),
            exact: sum(t, "sgq_sched_exact_total"),
            degraded: sum(t, "sgq_sched_degraded_total"),
            shed: sum(t, "sgq_sched_shed_total"),
            failed: sum(t, "sgq_sched_failed_total"),
            cache_served: sum(t, "sgq_sched_answer_cache_hits_total")
                + sum(t, "sgq_sched_answer_cache_dominance_hits_total"),
            plan_hits: sum(t, "sgq_sched_plan_cache_hits_total"),
            plan_misses: sum(t, "sgq_sched_plan_cache_misses_total"),
            batches: sum(t, "sgq_sched_batches_total"),
            batched: sum(t, "sgq_sched_batched_requests_total"),
            high_p99_us: sum(
                t,
                "sgq_sched_latency_us{priority=\"high\",quantile=\"0.99\"}",
            ),
        })
    }

    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Self) -> Self {
        Self {
            queries: self.queries - before.queries,
            resp_exact: self.resp_exact - before.resp_exact,
            resp_degraded: self.resp_degraded - before.resp_degraded,
            resp_shed: self.resp_shed - before.resp_shed,
            resp_failed: self.resp_failed - before.resp_failed,
            submitted: self.submitted - before.submitted,
            exact: self.exact - before.exact,
            degraded: self.degraded - before.degraded,
            shed: self.shed - before.shed,
            failed: self.failed - before.failed,
            cache_served: self.cache_served - before.cache_served,
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            batches: self.batches - before.batches,
            batched: self.batched - before.batched,
            high_p99_us: self.high_p99_us,
        }
    }

    pub fn cache_hit_rate(&self) -> f64 {
        frac(self.cache_served as u64, self.submitted as u64)
    }
}

/// Request accounting of one measured loop: the client's own tally must
/// sum, and match the server's and the scheduler's counters.
pub fn accounting(rec: &Recorder, delta: &Scrape, failures: &mut Vec<String>) {
    let get = |c: &AtomicU64| Recorder::load(c) as f64;
    let (sent, exact, degraded, shed, failed) = (
        get(&rec.sent),
        get(&rec.exact),
        get(&rec.degraded),
        get(&rec.shed),
        get(&rec.failed),
    );
    let mut expect = |what: &str, got: f64, want: f64| {
        if got != want {
            failures.push(format!("accounting: {what} is {got}, expected {want}"));
        }
    };
    expect(
        "client exact+degraded+shed+failed",
        exact + degraded + shed + failed,
        sent,
    );
    expect("server query requests", delta.queries, sent);
    expect("server exact replies", delta.resp_exact, exact);
    expect("server degraded replies", delta.resp_degraded, degraded);
    expect("server shed replies", delta.resp_shed, shed);
    expect("server failed replies", delta.resp_failed, failed);
    expect("scheduler submissions", delta.submitted, sent);
    expect(
        "scheduler exact+degraded+shed+failed",
        delta.exact + delta.degraded + delta.shed + delta.failed,
        delta.submitted,
    );
}

/// The lanes are what they claim: `hit` is served by the answer cache,
/// `miss` and `overload` never touch it.
pub fn lane_contract(workload: Workload, delta: &Scrape, failures: &mut Vec<String>) {
    let rate = delta.cache_hit_rate();
    match workload {
        Workload::Hit if rate < 0.99 => {
            failures.push(format!("hit lane: answer-cache hit rate {rate:.4} < 0.99"));
        }
        Workload::Miss | Workload::Overload if delta.cache_served != 0.0 => {
            failures.push(format!(
                "{} lane: answer cache served {} requests",
                workload.name(),
                delta.cache_served
            ));
        }
        _ => {}
    }
}
