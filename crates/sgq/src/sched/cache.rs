//! Epoch-keyed semantic answer cache with dominance-based superset
//! serving.
//!
//! The scheduler sits in front of the engine; this cache sits in front of
//! the scheduler's *batching*: a request whose certified answer is already
//! known resolves at submit time without entering the admission queue,
//! without batching, and without touching the engine at all.
//!
//! ## Keying and invalidation
//!
//! Entries are keyed by the structural [`super::query_signature`] hash;
//! like every sig-keyed cache in the scheduler it is only a prefilter —
//! the entry carries its query and a collision reads as a miss, never as a
//! borrowed answer. The rest of the engine configuration needs no key: it
//! is the backend's, fixed for the scheduler's lifetime, so two requests
//! differ only in how many answers they want (`k`) and how strict the
//! similarity threshold is (`τ`), and the entry records both.
//!
//! Each entry is stamped with the **epoch** its answer was computed
//! against, exactly like the plan cache: a lookup at a different epoch is
//! `AnswerLookup::Stale` and evicts the entry, so an answer computed
//! before a commit / compaction / recovery can never escape afterwards.
//!
//! ## Dominance serving
//!
//! An entry computed at `(k_c, τ_c)` can answer a request at `(k, τ)`
//! whenever the request is **dominated**: `k ≤ k_c` and `τ = τ_c`
//! bit-for-bit (same structure, same epoch). The cached
//! result is *trimmed* — truncated to the requested `k` — not recomputed;
//! see `trim_dominated` for the correctness argument, and
//! `tests/cache_differential.rs` proves the trimmed answer bit-identical
//! to a from-scratch run at `(k, τ)`.
//!
//! τ-relaxation (serving a request at `τ > τ_c` by filtering the donor on
//! `pss ≥ τ`) is deliberately **not** offered, although the filtered list
//! looks plausible. The A\* search deduplicates pivot discoveries at push
//! time by `(node, segment)`: the *first* path to land on a pivot is the
//! one recorded, and which path lands first depends on which intermediate
//! states the τ prune admits. A donor computed at τ_c can therefore hold a
//! pivot with a low-pss path (a cheap path reached it first) where the
//! from-scratch run at τ > τ_c — with that cheap path pruned mid-search —
//! records the *same pivot* with a stronger path above τ. Filtering the
//! donor would drop that pivot; from scratch keeps it. Per-pivot pss is a
//! function of τ under this search, so only equal-τ entries are
//! comparable. (Found by `tests/cache_differential.rs`, which caught
//! exactly this divergence on the seeded tiny dataset.)

use crate::answer::QueryResult;
use crate::config::SgqConfig;
use crate::query::QueryGraph;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Per-request overrides of the engine's top-`k` and τ threshold,
/// accepted by [`super::SchedHandle::submit_with`]. `None` fields fall
/// back to the backend engine's configuration, so
/// `QueryParams::default()` reproduces the plain [`super::SchedHandle::submit`]
/// behaviour exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryParams {
    /// Number of answers requested (`None` = the engine's `k`).
    pub k: Option<usize>,
    /// Minimum path semantic similarity (`None` = the engine's `τ`).
    pub tau: Option<f64>,
}

impl QueryParams {
    /// Resolves the effective `(k, τ)` against the engine configuration.
    pub fn resolve(&self, config: &SgqConfig) -> (usize, f64) {
        (self.k.unwrap_or(config.k), self.tau.unwrap_or(config.tau))
    }
}

/// Trims a certified top-`k_c` answer down to a dominated request's `k`
/// (`k ≤ k_c`, τ equal bit-for-bit): the first `k` donor matches.
///
/// **Correctness** (mirroring the paper's Lemma-1 monotonicity argument):
///
/// * Equal τ under the one backend configuration means the request runs
///   the *identical* deterministic search the donor ran — same
///   decomposition, same plans, same prune threshold — so both runs draw
///   from the same totally ordered match stream (pss non-increasing per
///   sub-query, Theorem 2; final order score-descending, pivot-ascending).
/// * `k` only decides where the TA assembly *stops* on that stream. The
///   certified top-`k` for any `k ≤ k_c` is therefore a prefix of the
///   donor's certified top-`k_c`: a match the smaller run would emit that
///   the donor run would rank differently cannot exist, because both rank
///   by the same total order over the same stream.
/// * When the donor holds fewer than `k` matches, it is **exhaustive**
///   (`len < k ≤ k_c` means the search drained below `k_c`), so the donor
///   list *is* the complete match set and serving it verbatim is exact.
///
/// Why τ must be equal — not merely `≥` — is explained in the module docs:
/// per-pivot pss depends on τ through the search's push-time pivot
/// deduplication, so a τ-filtered donor is not a from-scratch answer.
pub(crate) fn trim_dominated(donor: &QueryResult, k: usize) -> QueryResult {
    let mut kept = donor.matches.clone();
    kept.truncate(k);
    QueryResult {
        matches: kept,
        // The donor's stats: a trimmed answer performed no search of its
        // own, so fabricating per-run counters would be a lie. Callers see
        // the work the *donor* run did.
        stats: donor.stats.clone(),
    }
}

/// One cached certified answer.
struct AnswerEntry {
    /// The query the answer belongs to (signatures are a prefilter only).
    query: Arc<QueryGraph>,
    /// Epoch the answer was computed against.
    epoch: u64,
    /// The `k` the donor run was certified for.
    k: usize,
    /// The τ the donor run searched under.
    tau: f64,
    /// The certified result, `Arc`-shared so an exact hit costs one clone
    /// of the `Arc`-held data, not a reassembly.
    result: Arc<QueryResult>,
    /// LRU recency stamp (logical ticks, not wall clock — deterministic).
    tick: u64,
}

/// Outcome of one cache probe.
pub(crate) enum AnswerLookup {
    /// Same `(k, τ)`, same epoch, same structure: the cached result
    /// verbatim.
    Hit(Arc<QueryResult>),
    /// The request was dominated by a cached superset entry and the
    /// trimmed answer is provably the from-scratch top-`k`.
    Trimmed(QueryResult),
    /// An entry existed but was computed at a different epoch; it has been
    /// evicted.
    Stale,
    /// No usable entry.
    Miss,
}

/// Bounded LRU of certified answers (see module docs). **Not**
/// synchronised — the scheduler wraps it in its own `Mutex`
/// (`sgq.sched.answers` in the workspace lock hierarchy).
pub(crate) struct AnswerCache {
    entries: FxHashMap<u64, AnswerEntry>,
    capacity: usize,
    tick: u64,
}

impl AnswerCache {
    /// An empty cache holding at most `capacity` entries (0 disables).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: FxHashMap::default(),
            capacity,
            tick: 0,
        }
    }

    /// Number of live entries (the `sgq_sched_answer_cache_entries` gauge).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Probes for an answer to `query` at `(k, τ)` under `epoch`. A stale
    /// entry (other epoch) is evicted on sight — epoch-stamp invalidation,
    /// exactly like the plan cache.
    pub(crate) fn lookup(
        &mut self,
        key: u64,
        query: &QueryGraph,
        epoch: u64,
        k: usize,
        tau: f64,
    ) -> AnswerLookup {
        let Some(entry) = self.entries.get_mut(&key) else {
            return AnswerLookup::Miss;
        };
        if *entry.query != *query {
            return AnswerLookup::Miss;
        }
        if entry.epoch != epoch {
            self.entries.remove(&key);
            return AnswerLookup::Stale;
        }
        self.tick += 1;
        entry.tick = self.tick;
        if entry.tau.to_bits() == tau.to_bits() {
            if entry.k == k {
                return AnswerLookup::Hit(Arc::clone(&entry.result));
            }
            if entry.k > k {
                return AnswerLookup::Trimmed(trim_dominated(&entry.result, k));
            }
        }
        AnswerLookup::Miss
    }

    /// Stores a certified answer. An existing same-epoch entry that
    /// *dominates* the new one (same τ, `k` ≥) is kept — it can answer
    /// strictly more requests — and merely touched; anything else is
    /// replaced. When the cache is full, the least recently used entry
    /// makes room.
    pub(crate) fn insert(
        &mut self,
        key: u64,
        query: &Arc<QueryGraph>,
        epoch: u64,
        k: usize,
        tau: f64,
        result: Arc<QueryResult>,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            if *entry.query == **query
                && entry.epoch == epoch
                && entry.k >= k
                && entry.tau.to_bits() == tau.to_bits()
            {
                entry.tick = self.tick;
                return;
            }
            *entry = AnswerEntry {
                query: Arc::clone(query),
                epoch,
                k,
                tau,
                result,
                tick: self.tick,
            };
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(key, _)| key)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            key,
            AnswerEntry {
                query: Arc::clone(query),
                epoch,
                k,
                tau,
                result,
                tick: self.tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{FinalMatch, QueryStats, SubMatch};
    use kgraph::{EdgeId, NodeId};

    fn submatch(pivot: u32, pss: f64) -> SubMatch {
        SubMatch {
            source: NodeId::new(0),
            pivot: NodeId::new(pivot),
            pss,
            nodes: vec![NodeId::new(0), NodeId::new(pivot)],
            edges: vec![EdgeId::new(pivot)],
            bindings: vec![(0, NodeId::new(0)), (1, NodeId::new(pivot))],
        }
    }

    /// A donor with single-part matches at the given pss values, best
    /// first (the engine's order).
    fn donor(pss: &[f64]) -> QueryResult {
        QueryResult {
            matches: pss
                .iter()
                .enumerate()
                .map(|(i, &p)| FinalMatch {
                    pivot: NodeId::new(i as u32),
                    score: p,
                    parts: vec![submatch(i as u32, p)],
                })
                .collect(),
            stats: QueryStats::default(),
        }
    }

    fn query(tag: &str) -> Arc<QueryGraph> {
        let mut q = QueryGraph::new();
        let a = q.add_target("Automobile");
        let c = q.add_specific(tag, "Country");
        q.add_edge(a, "product", c);
        Arc::new(q)
    }

    #[test]
    fn trim_truncates_to_the_requested_k() {
        let d = donor(&[0.9, 0.8, 0.7, 0.6]);
        let t = trim_dominated(&d, 2);
        assert_eq!(t.matches.len(), 2);
        assert_eq!(t.matches[0].score, 0.9);
        assert_eq!(t.matches[1].score, 0.8);
        assert_eq!(t.stats, d.stats, "the donor's stats are carried");
        // An exhaustive donor (fewer matches than asked) serves verbatim.
        let t = trim_dominated(&d, 10);
        assert_eq!(t.matches.len(), 4);
    }

    #[test]
    fn lookup_distinguishes_hit_trim_stale_miss() {
        let q = query("Germany");
        let mut cache = AnswerCache::new(4);
        cache.insert(2, &q, 7, 5, 0.5, Arc::new(donor(&[0.9, 0.8])));

        assert!(matches!(
            cache.lookup(2, &q, 7, 5, 0.5),
            AnswerLookup::Hit(_)
        ));
        // Dominated: smaller k at the same τ.
        match cache.lookup(2, &q, 7, 1, 0.5) {
            AnswerLookup::Trimmed(r) => assert_eq!(r.matches.len(), 1),
            _ => panic!("dominated request must trim"),
        }
        // Anti-dominance: larger k never serves; *any* τ difference never
        // serves (per-pivot pss depends on τ — see module docs), in either
        // direction.
        assert!(matches!(cache.lookup(2, &q, 7, 6, 0.5), AnswerLookup::Miss));
        assert!(matches!(
            cache.lookup(2, &q, 7, 1, 0.85),
            AnswerLookup::Miss
        ));
        assert!(matches!(cache.lookup(2, &q, 7, 5, 0.4), AnswerLookup::Miss));
        // Signature collision with a different query: miss, never borrow.
        let other = query("France");
        assert!(matches!(
            cache.lookup(2, &other, 7, 5, 0.5),
            AnswerLookup::Miss
        ));
        // Another epoch: stale, and the entry is gone afterwards.
        assert!(matches!(
            cache.lookup(2, &q, 8, 5, 0.5),
            AnswerLookup::Stale
        ));
        assert_eq!(cache.len(), 0);
        assert!(matches!(cache.lookup(2, &q, 8, 5, 0.5), AnswerLookup::Miss));
    }

    #[test]
    fn insert_keeps_a_dominating_entry_and_evicts_lru() {
        let q = query("Germany");
        let mut cache = AnswerCache::new(2);
        let wide = Arc::new(donor(&[0.9, 0.8, 0.7]));
        cache.insert(1, &q, 0, 10, 0.5, Arc::clone(&wide));
        // A narrower same-τ, same-epoch answer must not clobber the wide
        // donor — the donor answers strictly more requests.
        cache.insert(1, &q, 0, 2, 0.5, Arc::new(donor(&[0.9, 0.8])));
        match cache.lookup(1, &q, 0, 10, 0.5) {
            AnswerLookup::Hit(r) => assert_eq!(r.matches.len(), 3),
            _ => panic!("the dominating donor must survive"),
        }
        // A different-τ answer replaces it (τ-incomparable entries never
        // serve each other's requests, so recency wins).
        cache.insert(1, &q, 0, 2, 0.8, Arc::new(donor(&[0.9, 0.8])));
        assert!(matches!(
            cache.lookup(1, &q, 0, 10, 0.5),
            AnswerLookup::Miss
        ));
        // A new-epoch answer replaces it regardless.
        cache.insert(1, &q, 1, 2, 0.8, Arc::new(donor(&[0.9])));
        assert!(matches!(
            cache.lookup(1, &q, 1, 2, 0.8),
            AnswerLookup::Hit(_)
        ));

        // LRU: fill to capacity, touch the first, insert a third — the
        // untouched second entry is the victim.
        let mut cache = AnswerCache::new(2);
        cache.insert(1, &q, 0, 5, 0.5, Arc::clone(&wide));
        cache.insert(2, &q, 0, 5, 0.5, Arc::clone(&wide));
        let _ = cache.lookup(1, &q, 0, 5, 0.5);
        cache.insert(3, &q, 0, 5, 0.5, Arc::clone(&wide));
        assert_eq!(cache.len(), 2);
        assert!(matches!(
            cache.lookup(1, &q, 0, 5, 0.5),
            AnswerLookup::Hit(_)
        ));
        assert!(matches!(cache.lookup(2, &q, 0, 5, 0.5), AnswerLookup::Miss));
    }

    #[test]
    fn capacity_zero_disables() {
        let q = query("Germany");
        let mut cache = AnswerCache::new(0);
        cache.insert(1, &q, 0, 5, 0.5, Arc::new(donor(&[0.9])));
        assert_eq!(cache.len(), 0);
        assert!(matches!(cache.lookup(1, &q, 0, 5, 0.5), AnswerLookup::Miss));
    }
}
