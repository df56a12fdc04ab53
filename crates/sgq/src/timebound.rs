//! Time-bounded approximate optimisation — TBQ (paper §VI, Algorithms 2–3).
//!
//! Instead of waiting for the globally optimal top-k, TBQ returns the best
//! answers discoverable within a user-specified time bound `T`:
//!
//! * each sub-query search runs in **anytime** mode (Algorithm 2): complete
//!   matches are collected into `M̂ᵢ` the moment they are explored, so early
//!   non-optimal matches are available immediately;
//! * a synchronised **time estimator** (Algorithm 3) watches
//!   `T̂ = max{T_A*} + Σ|M̂ᵢ|·t` — elapsed search time plus the projected TA
//!   assembly cost at `t` seconds per collected match — and triggers
//!   assembly when `T̂ ≥ T·r%` (the alert ratio, 80% in the paper);
//! * the per-match assembly cost `t` can be measured empirically by a
//!   *simulated* TA run ([`calibrate_ta_cost`]), as in the paper; the
//!   configs default to a fixed 300 ns instead.
//!
//! The searches run as jobs on the engine's persistent
//! [`WorkerPool`] — no threads are spawned per query. Algorithm 3's
//! estimator is decentralised: instead of a dedicated controller thread,
//! every search job re-evaluates `T̂` against the shared discovered-match
//! counter every few steps and raises the shared stop flag when the alert
//! threshold is crossed; the shared wall clock and shared counter make this
//! exactly the paper's synchronised check, minus one idle thread.
//!
//! Lemmas 6–7 / Theorem 4 carry over: the collected `M̂ᵢ` grow monotonically
//! with `T`, and with a generous bound the result converges to the exact
//! SGQ answer (verified by integration tests).

use crate::answer::SubMatch;
use crate::astar::{AStarSearch, SearchStats};
use crate::config::MAX_MATCHES_PER_SUBQUERY;
use crate::runtime::WorkerPool;
use crate::semgraph::SubQueryPlan;
use crate::ta;
use kgraph::{GraphView, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Parameters of the time-bounded query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeBoundConfig {
    /// The user-specified system-response-time bound `T`.
    pub bound: Duration,
    /// Alert ratio `r%`: assembly starts once the estimated total time
    /// reaches `bound · alert_ratio` (paper uses 80%).
    pub alert_ratio: f64,
    /// Per-match TA processing time `t`. The default is a fixed 300 ns,
    /// not measured at runtime; to use the host's figure, measure it once
    /// with [`calibrate_ta_cost`] and set it here.
    pub per_match_ta_cost: Duration,
}

impl Default for TimeBoundConfig {
    fn default() -> Self {
        Self {
            bound: Duration::from_millis(100),
            alert_ratio: 0.8,
            per_match_ta_cost: Duration::from_nanos(300),
        }
    }
}

impl TimeBoundConfig {
    /// A config with the given bound and the default TA cost.
    pub fn with_bound(bound: Duration) -> Self {
        Self {
            bound,
            ..Self::default()
        }
    }
}

/// Measures the empirical per-match TA assembly cost `t` by running a
/// simulated assembly over fabricated match lists (paper §VI: "we get this
/// empirical time via the simulated TA based assembly").
pub fn calibrate_ta_cost() -> Duration {
    const STREAMS: usize = 3;
    const PER_STREAM: u32 = 512;
    let streams: Vec<Vec<SubMatch>> = (0..STREAMS)
        .map(|s| {
            (0..PER_STREAM)
                .map(|i| SubMatch {
                    source: NodeId::new(10_000 + i),
                    pivot: NodeId::new((i * 7 + s as u32) % 128),
                    pss: 1.0 - f64::from(i) / f64::from(PER_STREAM),
                    nodes: vec![NodeId::new(10_000 + i), NodeId::new(i % 128)],
                    edges: vec![kgraph::EdgeId::new(i)],
                    bindings: Vec::new(),
                })
                .collect()
        })
        .collect();
    let exhausted = vec![true; STREAMS];
    let start = Instant::now();
    let mut accesses = 0usize;
    for _ in 0..8 {
        // k large enough that the TA drains the lists → worst-case cost.
        let out = ta::assemble(&streams, &exhausted, 256);
        accesses += out.accesses;
    }
    let elapsed = start.elapsed();
    if accesses == 0 {
        return Duration::from_nanos(300);
    }
    Duration::from_nanos((elapsed.as_nanos() / accesses as u128).max(1) as u64)
}

/// Algorithm 3's estimate `T̂ = elapsed + Σ|M̂ᵢ|·t`, computed in `u128`
/// nanoseconds. `Σ|M̂ᵢ|` is a `usize` that can exceed `u32::MAX` on big
/// graphs with generous match caps; a former `as u32` truncation here could
/// wrap the estimate back *below* the alert threshold and miss the bound.
///
/// Public because the batch scheduler ([`crate::sched`]) reuses it for
/// admission control: with `elapsed` set to an observed (or fixed-overhead)
/// search time and `collected` to the profile's TA access count, `T̂`
/// predicts whether a deadline is meetable before any work is spent.
#[inline]
pub fn estimate_ns(elapsed: Duration, per_match_ns: u128, collected: usize) -> u128 {
    elapsed.as_nanos() + per_match_ns.saturating_mul(collected as u128)
}

/// Output of one anytime search phase.
pub(crate) struct AnytimeOutcome {
    /// Per sub-query: discovered matches sorted by pss descending (`M̂ᵢ`).
    pub streams: Vec<Vec<SubMatch>>,
    /// Per sub-query: search drained naturally (⇒ `M̂ᵢ ⊇ Mᵢ`, Lemma 7).
    pub exhausted: Vec<bool>,
    /// Per sub-query: search wall-clock microseconds.
    pub per_subquery_us: Vec<u64>,
    /// Aggregated search counters.
    pub stats: SearchStats,
    /// True when the controller stopped the searches because of the bound.
    pub bound_hit: bool,
}

/// Runs Algorithm 2 on every plan concurrently (as pooled jobs) under
/// Algorithm 3's synchronised time estimation.
pub(crate) fn run_anytime<G: GraphView>(
    graph: &G,
    plans: &[SubQueryPlan],
    tb: &TimeBoundConfig,
    pool: &WorkerPool,
) -> AnytimeOutcome {
    let n = plans.len();
    let stop = AtomicBool::new(false);
    let bound_hit_flag = AtomicBool::new(false);
    // Σ|M̂ᵢ| across all sub-queries, updated incrementally by every job.
    let total_collected = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline_ns = tb.bound.mul_f64(tb.alert_ratio.clamp(0.0, 1.0)).as_nanos();
    let per_match_ns = tb.per_match_ta_cost.as_nanos();

    type JobOutput = (Vec<SubMatch>, bool, Duration, SearchStats);
    let mut slots: Vec<Option<JobOutput>> = (0..n).map(|_| None).collect();

    pool.scope(|scope| {
        for (plan, slot) in plans.iter().zip(slots.iter_mut()) {
            let stop = &stop;
            let bound_hit_flag = &bound_hit_flag;
            let total_collected = &total_collected;
            scope.spawn(move || {
                let t0 = Instant::now();
                let mut search = AStarSearch::new_anytime(graph, plan);
                let mut drained = false;
                let mut tick = 0u32;
                let mut reported = 0usize;
                loop {
                    if search.discovered_len() >= MAX_MATCHES_PER_SUBQUERY {
                        break;
                    }
                    // Algorithm 3, decentralised: every 16 next-hop
                    // selections (and once before the first), publish the
                    // local |M̂ᵢ| delta and test T̂ = elapsed + Σ|M̂ᵢ|·t
                    // against the alert threshold.
                    if tick.is_multiple_of(16) {
                        let found = search.discovered_len();
                        if found > reported {
                            total_collected.fetch_add(found - reported, Ordering::Relaxed); // lint-ok(atomic-ordering): monotone estimator input; Algorithm 3 tolerates stale sums by design
                            reported = found;
                        }
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let collected = total_collected.load(Ordering::Relaxed); // lint-ok(atomic-ordering): a stale sum only delays the alert by one 16-step tick; never affects answer content
                        let t_hat = estimate_ns(start.elapsed(), per_match_ns, collected);
                        if t_hat >= deadline_ns {
                            stop.store(true, Ordering::Release);
                            bound_hit_flag.store(true, Ordering::Relaxed); // lint-ok(atomic-ordering): read only after scope() joins, which synchronizes
                            break;
                        }
                    }
                    if !search.step() {
                        drained = true;
                        break;
                    }
                    tick = tick.wrapping_add(1);
                }
                let found = search.discovered_len();
                if found > reported {
                    // lint-ok(atomic-ordering): final publish before the scope join; join synchronizes
                    total_collected.fetch_add(found - reported, Ordering::Relaxed);
                }
                let mut matches = search.take_discovered();
                // M̂ᵢ is kept as a max-heap in the paper; sorted order is
                // what the TA sorted access needs.
                matches.sort_by(|a, b| b.pss.total_cmp(&a.pss));
                *slot = Some((matches, drained, t0.elapsed(), search.stats));
            });
        }
    });

    let mut streams = Vec::with_capacity(n);
    let mut exhausted = Vec::with_capacity(n);
    let mut per_subquery_us = Vec::with_capacity(n);
    let mut stats = SearchStats::default();
    for slot in slots {
        let (matches, drained, elapsed, s) =
            slot.expect("pooled search job did not report its outcome"); // lint-ok(panic-freedom): scope() joins before returning, so every spawned job has filled its slot
        streams.push(matches);
        exhausted.push(drained);
        per_subquery_us.push(elapsed.as_micros() as u64);
        stats.popped += s.popped;
        stats.pushed += s.pushed;
        stats.tau_pruned += s.tau_pruned;
        stats.edges_examined += s.edges_examined;
    }

    AnytimeOutcome {
        streams,
        exhausted,
        per_subquery_us,
        stats,
        bound_hit: bound_hit_flag.load(Ordering::Relaxed), // lint-ok(atomic-ordering): scope() joined above; all worker stores happen-before this load
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = TimeBoundConfig::default();
        assert_eq!(c.alert_ratio, 0.8);
        assert!(c.bound > Duration::ZERO);
    }

    #[test]
    fn with_bound_sets_bound_only() {
        let c = TimeBoundConfig::with_bound(Duration::from_millis(20));
        assert_eq!(c.bound, Duration::from_millis(20));
        assert_eq!(c.alert_ratio, 0.8);
    }

    #[test]
    fn calibration_returns_positive_cost() {
        let t = calibrate_ta_cost();
        assert!(t >= Duration::from_nanos(1));
        assert!(
            t < Duration::from_millis(1),
            "per-access cost should be sub-millisecond, got {t:?}"
        );
    }

    #[test]
    fn estimate_does_not_wrap_on_huge_match_counts() {
        let per_match_ns = Duration::from_nanos(300).as_nanos();
        // Exactly 2³² collected matches: the old `as u32` truncation mapped
        // this to 0 projected assembly cost, keeping T̂ below any threshold.
        let collected = 1usize << 32;
        let t_hat = estimate_ns(Duration::from_millis(1), per_match_ns, collected);
        let deadline = Duration::from_millis(80).as_nanos();
        assert!(
            t_hat >= deadline,
            "2³² matches × 300ns must dwarf an 80ms deadline, got {t_hat}ns"
        );
        // Monotonic in the collected count.
        assert!(t_hat > estimate_ns(Duration::from_millis(1), per_match_ns, collected - 1));
    }
}
