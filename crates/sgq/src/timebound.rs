//! Time-bounded approximate optimisation — TBQ (paper §VI, Algorithms 2–3).
//!
//! Instead of waiting for the globally optimal top-k, TBQ returns the best
//! answers discoverable within a user-specified time bound `T`:
//!
//! * each sub-query search runs in **anytime** mode (Algorithm 2,
//!   [`AStarSearch::step`]): complete matches are collected into `M̂ᵢ` the
//!   moment they are explored, so early non-optimal matches are available
//!   immediately. `M̂ᵢ` holds compact [`Hit`]s, the exact engine's match
//!   representation; the engine rebuilds full paths only for TA's winners;
//! * a synchronised **time estimator** (Algorithm 3) watches
//!   `T̂ = max{T_A*} + Σ|M̂ᵢ|·t` — elapsed search time plus the projected TA
//!   assembly cost at `t` per collected match — and triggers assembly when
//!   `T̂ ≥ T·r%`. The alert ratio `r` is the paper's 80% (`ALERT_RATIO`);
//!   `t` is a fixed 300 ns (`PER_MATCH_TA_COST`), where the paper measures
//!   it with a simulated TA run.
//!
//! The searches run as jobs on the engine's persistent
//! [`WorkerPool`] — no threads are spawned per query. Each job seeds and
//! drives its own search as a local and hands it back, with its sorted
//! hits, when it stops. Algorithm 3's estimator is decentralised: instead
//! of a dedicated controller thread, every search job re-evaluates `T̂`
//! against the shared discovered-match counter every few steps and raises
//! the shared stop flag when the alert threshold is crossed; the shared
//! wall clock and shared counter make this exactly the paper's
//! synchronised check, minus one idle thread.
//!
//! Lemmas 6–7 / Theorem 4 carry over: the collected `M̂ᵢ` grow monotonically
//! with `T`, and with a generous bound the result converges to the exact
//! SGQ answer (verified by integration tests).

use crate::astar::{AStarSearch, Hit};
use crate::config::MAX_MATCHES_PER_SUBQUERY;
use crate::runtime::WorkerPool;
use crate::semgraph::SubQueryPlan;
use kgraph::GraphView;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Alert ratio `r%` of Algorithm 3: assembly starts once the estimated
/// total time reaches `bound · ALERT_RATIO` (the paper's 80%).
const ALERT_RATIO: f64 = 0.8;

/// Per-match TA processing time `t` of Algorithm 3's estimate, fixed rather
/// than measured at runtime. The batch scheduler's admission estimate
/// charges the same figure per TA access.
pub(crate) const PER_MATCH_TA_COST: Duration = Duration::from_nanos(300);

/// Parameters of the time-bounded query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeBoundConfig {
    /// The user-specified system-response-time bound `T`.
    pub bound: Duration,
}

impl TimeBoundConfig {
    /// A config with the given bound.
    pub fn with_bound(bound: Duration) -> Self {
        Self { bound }
    }
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
pub(crate) struct AnytimeOutcome<'a, G: GraphView> {
    /// Per sub-query: the search that found the stream, to rebuild
    /// winners from.
    pub searches: Vec<AStarSearch<'a, G>>,
    /// Per sub-query: discovered hits sorted by pss descending (`M̂ᵢ`).
    pub streams: Vec<Vec<Hit>>,
    /// Per sub-query: search drained naturally (⇒ `M̂ᵢ ⊇ Mᵢ`, Lemma 7).
    pub exhausted: Vec<bool>,
    /// Per sub-query: search wall-clock microseconds.
    pub per_subquery_us: Vec<u64>,
    /// True when the controller stopped the searches because of the bound.
    pub bound_hit: bool,
}

/// Runs Algorithm 2 on every plan concurrently (as pooled jobs) under
/// Algorithm 3's synchronised time estimation.
pub(crate) fn run_anytime<'a, G: GraphView>(
    graph: &'a G,
    plans: &'a [SubQueryPlan],
    tb: &TimeBoundConfig,
    pool: &WorkerPool,
) -> AnytimeOutcome<'a, G> {
    let n = plans.len();
    let stop = AtomicBool::new(false);
    let bound_hit_flag = AtomicBool::new(false);
    // Σ|M̂ᵢ| across all sub-queries, updated incrementally by every job.
    let total_collected = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline_ns = tb.bound.mul_f64(ALERT_RATIO).as_nanos();
    let per_match_ns = PER_MATCH_TA_COST.as_nanos();

    type JobOutput<'s, S> = (AStarSearch<'s, S>, Vec<Hit>, bool, Duration);
    let mut slots: Vec<Option<JobOutput<'a, G>>> = (0..n).map(|_| None).collect();

    pool.scope(|scope| {
        for (plan, slot) in plans.iter().zip(slots.iter_mut()) {
            let stop = &stop;
            let bound_hit_flag = &bound_hit_flag;
            let total_collected = &total_collected;
            scope.spawn(move || {
                let t0 = Instant::now();
                let mut search = AStarSearch::new(graph, plan);
                let mut hits = Vec::new();
                let mut drained = false;
                let mut tick = 0u32;
                let mut reported = 0usize;
                loop {
                    if hits.len() >= MAX_MATCHES_PER_SUBQUERY {
                        break;
                    }
                    // Algorithm 3, decentralised: every 16 next-hop
                    // selections (and once before the first), publish the
                    // local |M̂ᵢ| delta and test T̂ = elapsed + Σ|M̂ᵢ|·t
                    // against the alert threshold.
                    if tick.is_multiple_of(16) {
                        let found = hits.len();
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
                    if !search.step(&mut hits) {
                        drained = true;
                        break;
                    }
                    tick = tick.wrapping_add(1);
                }
                let found = hits.len();
                if found > reported {
                    // lint-ok(atomic-ordering): final publish before the scope join; join synchronizes
                    total_collected.fetch_add(found - reported, Ordering::Relaxed);
                }
                // M̂ᵢ is kept as a max-heap in the paper; sorted order is
                // what the TA sorted access needs.
                hits.sort_by(|a, b| b.pss.total_cmp(&a.pss));
                *slot = Some((search, hits, drained, t0.elapsed()));
            });
        }
    });

    let mut searches = Vec::with_capacity(n);
    let mut streams = Vec::with_capacity(n);
    let mut exhausted = Vec::with_capacity(n);
    let mut per_subquery_us = Vec::with_capacity(n);
    for slot in slots {
        let (search, hits, drained, elapsed) =
            slot.expect("pooled search job did not report its outcome"); // lint-ok(panic-freedom): scope() joins before returning, so every spawned job has filled its slot
        searches.push(search);
        streams.push(hits);
        exhausted.push(drained);
        per_subquery_us.push(elapsed.as_micros() as u64);
    }

    AnytimeOutcome {
        searches,
        streams,
        exhausted,
        per_subquery_us,
        bound_hit: bound_hit_flag.load(Ordering::Relaxed), // lint-ok(atomic-ordering): scope() joined above; all worker stores happen-before this load
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_does_not_wrap_on_huge_match_counts() {
        let per_match_ns = PER_MATCH_TA_COST.as_nanos();
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
